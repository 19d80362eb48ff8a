//! Per-layer timing from outside each module.
//!
//! A traced query makes the same public calls, in the same order, as
//! `Session::sql` (parse, plan variants, then the executor entry
//! `Session::execute_plan` picks), each wrapped in a span; a served query's
//! steps follow `QueryService::run_sql` (adding compile, verify, deadlock
//! analysis, flow-spec pricing and admission before execution). Probes,
//! made outside the query path, time what those calls do inside (the
//! executor's own compile and verify, storage scans, codec work, result
//! encoding) by calling the same public functions on the same inputs.
//! Nothing inside the engine is instrumented.

use df_codec::wire::{decode_batch, encode_batch, wire_size, WireOptions};
use df_core::error::EngineError;
use df_core::exec::parallel::execute_adaptive;
use df_core::exec::push::{execute, CodecPolicy, ExecEnv, ExecOutcome};
use df_core::optimizer::Profiles;
use df_core::physical::{PhysNode, PhysicalPlan};
use df_core::pipeline::{PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use df_core::session::Session;
use df_data::Batch;
use df_fabric::device::DeviceId;
use df_serve::admission::{AdmissionController, Verdict};
use df_serve::dispatch::{default_compute_device, CancelToken, QueryService, ServiceConfig};
use df_serve::protocol::{decode_result, encode_result};
use df_serve::tenant::TenantId;

use crate::setup::{ctx, Result};
use crate::spans::Recorder;

/// Figures derived per traced query, and counts the spans do not carry.
#[derive(Debug, Default)]
pub struct Counters {
    /// In-memory bytes of the scan batches the codec probes encoded and
    /// decoded.
    pub codec_bytes: u64,
    /// Output batches per traced execution.
    pub batches_out: Vec<u64>,
    /// Scheduler credits per served query.
    pub credits: Vec<u64>,
    /// Per query, the executor call minus the compile and verify it makes
    /// inside (timed by a probe on the same plan), in ns.
    pub exec_ns: Vec<f64>,
    /// Per served query, `run_sql` minus its externally timed steps, in ns.
    pub residual_ns: Vec<f64>,
    /// Per served query, `Client::query` minus `run_sql`, in ns.
    pub protocol_ns: Vec<f64>,
}

impl Counters {
    /// Add `other`'s counts to these.
    pub fn merge(&mut self, other: Counters) {
        self.codec_bytes += other.codec_bytes;
        self.batches_out.extend(other.batches_out);
        self.credits.extend(other.credits);
        self.exec_ns.extend(other.exec_ns);
        self.residual_ns.extend(other.residual_ns);
        self.protocol_ns.extend(other.protocol_ns);
    }
}

/// One caller's handle on the engine's public API.
pub struct Layers<'a> {
    session: &'a Session,
    parallelism: usize,
    profiles: Profiles,
    device: DeviceId,
    admission: AdmissionController,
    /// Counts gathered alongside the spans.
    pub counters: Counters,
}

impl<'a> Layers<'a> {
    /// Layers of `session`, executing with `parallelism` workers.
    pub fn new(session: &'a Session, parallelism: usize) -> Layers<'a> {
        let topology = session.topology().clone();
        let config = ServiceConfig::default();
        Layers {
            session,
            parallelism,
            profiles: session.profiles(),
            device: default_compute_device(&topology),
            admission: AdmissionController::with_window(topology, config.window, config.max_queue),
            counters: Counters::default(),
        }
    }

    fn env(&self) -> ExecEnv<'a> {
        ExecEnv {
            storage: Some(self.session.storage()),
            topology: Some(self.session.topology().as_ref()),
            wire: self.session.wire,
            tracer: None,
            gate: None,
            codec: CodecPolicy::AsCompiled,
        }
    }

    /// Parse and pick the best plan, as both entry points do. Returns the
    /// plan and the two calls' summed time.
    fn plan(&self, rec: &mut Recorder, qid: u64, sql: &str) -> Result<(PhysicalPlan, u64)> {
        let session = self.session;
        let (logical, parse_ns) = rec.timed("sql.parse", qid, || session.logical_plan(sql));
        let logical = logical.map_err(ctx("parse"))?;
        let (variants, plan_ns) =
            rec.timed("optimizer.variants", qid, || session.variants(&logical));
        let mut variants = variants.map_err(ctx("plan"))?;
        if variants.is_empty() {
            return Err("no executable variant".into());
        }
        Ok((variants.swap_remove(0).plan, parse_ns + plan_ns))
    }

    /// Execute as `Session::execute_plan` does (ungated): `execute_adaptive`
    /// when parallel, falling back to `execute` on shapes the morsel
    /// executor rejects, else `execute`. Both compile and verify the plan
    /// inside. Returns the outcome and the call's time.
    fn execute(
        &mut self,
        rec: &mut Recorder,
        qid: u64,
        plan: &PhysicalPlan,
    ) -> Result<(ExecOutcome, u64)> {
        let env = self.env();
        let parallelism = self.parallelism;
        let (outcome, ns) = rec.timed("exec.execute", qid, || {
            if parallelism > 1 {
                match execute_adaptive(plan, &env, parallelism) {
                    Err(EngineError::Plan(_)) => execute(plan, &env),
                    other => other,
                }
            } else {
                execute(plan, &env)
            }
        });
        let outcome = outcome.map_err(ctx("execute"))?;
        self.counters.batches_out.push(outcome.batches.len() as u64);
        Ok((outcome, ns))
    }

    /// One query along `Session::sql`'s path, a span per call. Returns the
    /// result batch (as `Session::sql` builds it), the executed plan and
    /// the executor call's time, and the wall time of the whole path.
    pub fn session_query(
        &mut self,
        rec: &mut Recorder,
        qid: u64,
        sql: &str,
    ) -> (Result<(Batch, PhysicalPlan, u64)>, u64) {
        let root = rec.open("query", qid);
        let out = (|| {
            let (plan, _) = self.plan(rec, qid, sql)?;
            let (outcome, exec_ns) = self.execute(rec, qid, &plan)?;
            let batch = if outcome.batches.is_empty() {
                Batch::empty(plan.schema())
            } else {
                Batch::concat(&outcome.batches).map_err(ctx("concat"))?
            };
            Ok((batch, plan, exec_ns))
        })();
        let latency_ns = rec.close(root);
        (out, latency_ns)
    }

    /// Probe the compile and verify the executor makes inside its call:
    /// `PipelineGraph::compile` without profiles, then `verify_or_err`.
    /// Records the executor's own time (`exec_ns` minus both) and returns
    /// the graph.
    fn probe_exec_graph(
        &mut self,
        rec: &mut Recorder,
        qid: u64,
        plan: &PhysicalPlan,
        exec_ns: u64,
    ) -> Result<PipelineGraph> {
        let topology = self.session.topology().as_ref();
        let (graph, compile_ns) = rec.timed("pipeline.compile", qid, || {
            PipelineGraph::compile(plan, None, Some(topology), DEFAULT_QUEUE_CAPACITY)
        });
        let (verified, verify_ns) = rec.timed("pipeline.verify", qid, || {
            graph.verify_or_err(Some(topology))
        });
        verified.map_err(ctx("verify"))?;
        self.counters
            .exec_ns
            .push(exec_ns.saturating_sub(compile_ns + verify_ns) as f64);
        Ok(graph)
    }

    /// Probes after a `Session` query: the executor's compile and verify,
    /// the checks a served query adds (deadlock analysis and flow-spec
    /// pricing, which `Session::sql` does not run), and the storage scans.
    pub fn probe_session(
        &mut self,
        rec: &mut Recorder,
        qid: u64,
        plan: &PhysicalPlan,
        exec_ns: u64,
    ) -> Result<()> {
        let graph = self.probe_exec_graph(rec, qid, plan, exec_ns)?;
        rec.time("check.deadlock", qid, || {
            df_check::deadlock::analyze(&graph)
        });
        rec.time("fabric.flow_specs", qid, || {
            graph.to_flow_specs(self.device, "q")
        })
        .map_err(ctx("flow specs"))?;
        self.probe_storage(rec, qid, plan)
    }

    /// Probes after a served query's reply: `QueryService::run_sql` itself,
    /// then its steps one by one, the executor's compile and verify, the
    /// storage scans, and the result codec on the reply's frames. `client_ns`
    /// is the wall time `Client::query` took for the same SQL.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_served(
        &mut self,
        rec: &mut Recorder,
        qid: u64,
        service: &QueryService,
        tenant: TenantId,
        tenant_name: &str,
        sql: &str,
        client_ns: u64,
        frames: &[Batch],
    ) -> Result<()> {
        let (ran, run_sql_ns) = rec.timed("serve.run_sql", qid, || {
            service.run_sql(tenant, sql, CancelToken::new())
        });
        ran.map_err(ctx("run_sql"))?;
        let (plan, steps_ns, exec_ns) = self.dispatch_steps(rec, qid, sql, tenant_name)?;
        self.counters
            .residual_ns
            .push(run_sql_ns as f64 - steps_ns as f64);
        self.counters
            .protocol_ns
            .push(client_ns as f64 - run_sql_ns as f64);
        self.probe_exec_graph(rec, qid, &plan, exec_ns)?;
        self.probe_storage(rec, qid, &plan)?;
        for b in frames {
            let bytes = rec.time("serve.encode_result", qid, || encode_result(b));
            rec.time("serve.decode_result", qid, || decode_result(&bytes))
                .map_err(ctx("decode_result"))?;
        }
        Ok(())
    }

    /// `QueryService::run_sql`'s steps one by one: plan, compile with
    /// profiles, verify, deadlock analysis, flow specs, admission, then the
    /// executor call `execute_plan_gated` makes (ungated). Returns the plan,
    /// the steps' summed time and the executor call's time.
    fn dispatch_steps(
        &mut self,
        rec: &mut Recorder,
        qid: u64,
        sql: &str,
        tenant: &str,
    ) -> Result<(PhysicalPlan, u64, u64)> {
        let (plan, plan_ns) = self.plan(rec, qid, sql)?;
        let topology = self.session.topology().clone();
        let (graph, compile_ns) = rec.timed("pipeline.compile", qid, || {
            PipelineGraph::compile(
                &plan,
                Some(&self.profiles),
                Some(&topology),
                DEFAULT_QUEUE_CAPACITY,
            )
        });
        let (verified, verify_ns) = rec.timed("pipeline.verify", qid, || {
            graph.verify_or_err(Some(&topology))
        });
        verified.map_err(ctx("verify"))?;
        let (report, deadlock_ns) = rec.timed("check.deadlock", qid, || {
            df_check::deadlock::analyze(&graph)
        });
        if !report.is_deadlock_free() {
            return Err("deadlock analysis rejected the plan".into());
        }
        let (specs, specs_ns) = rec.timed("fabric.flow_specs", qid, || {
            graph
                .to_flow_specs(self.device, &format!("t.{tenant}"))
                .map(|specs| {
                    specs
                        .into_iter()
                        .map(|s| s.for_tenant(tenant))
                        .collect::<Vec<_>>()
                })
        });
        let specs = specs.map_err(ctx("flow specs"))?;
        let admission = &mut self.admission;
        let (admitted, admission_ns) = rec.timed("serve.admission", qid, || {
            let demand = admission.demand_of(&specs)?;
            match admission.offer(demand) {
                Verdict::Admitted(t) | Verdict::Queued(t) => {
                    admission.release(t);
                    Ok(())
                }
                Verdict::Rejected(why) => Err(why),
            }
        });
        admitted.map_err(ctx("admission"))?;
        let (_, exec_ns) = self.execute(rec, qid, &plan)?;
        let steps_ns =
            plan_ns + compile_ns + verify_ns + deadlock_ns + specs_ns + admission_ns + exec_ns;
        Ok((plan, steps_ns, exec_ns))
    }

    /// Scan every storage leaf of `plan` directly, then time the codec on
    /// the returned batches: the re-encoding storage does to size them, and
    /// a plain encode/decode round trip.
    fn probe_storage(&mut self, rec: &mut Recorder, qid: u64, plan: &PhysicalPlan) -> Result<()> {
        let storage = self.session.storage();
        let mut leaves = Vec::new();
        collect_scans(&plan.root, &mut leaves);
        for (table, request) in leaves {
            let (batches, _) = rec
                .time("storage.scan", qid, || storage.scan(table, request))
                .map_err(ctx("scan"))?;
            for b in &batches {
                rec.time("codec.wire_size", qid, || wire_size(b, &storage.wire));
                let frame = rec.time("codec.encode", qid, || {
                    encode_batch(b, &WireOptions::plain())
                });
                rec.time("codec.decode", qid, || decode_batch(&frame, None))
                    .map_err(ctx("decode"))?;
                self.counters.codec_bytes += b.byte_size() as u64;
            }
        }
        Ok(())
    }
}

/// The `(table, request)` of every storage scan under `node`.
fn collect_scans<'p>(
    node: &'p PhysNode,
    out: &mut Vec<(&'p str, &'p df_storage::smart::ScanRequest)>,
) {
    if let PhysNode::StorageScan { table, request, .. } = node {
        out.push((table, request));
    }
    for child in node.children() {
        collect_scans(child, out);
    }
}
