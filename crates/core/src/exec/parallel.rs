//! Morsel-driven parallel execution.
//!
//! §1 closes with "massive amounts of parallelism in the form of processors
//! rather than threads"; within one compute node the engine still wants
//! classic morsel parallelism: the source is chopped into morsels that
//! worker threads pull from a shared queue, each worker runs its own copy
//! of the streaming pipeline (filters, projections, *partial* aggregation),
//! and a final merge combines worker partials — the same partial/merge
//! machinery the data-path offloads use, applied across cores.
//!
//! Like the push executor, this driver consumes the compiled
//! [`PipelineGraph`]: the graph's root spine is flattened (placement cuts
//! are ignored — every worker runs on the local CPU) and accepted when it
//! matches `[Limit]? [Aggregate(Final)]? (Filter|Project)*
//! (StorageScan|Values)`. Other shapes return `Err(EngineError::Plan(_))`,
//! and callers fall back to the sequential executor.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use df_data::{Batch, SchemaRef};
use df_sim::trace::LaneKind;

use crate::error::{EngineError, Result};
use crate::exec::ledger::MovementLedger;
use crate::exec::push::{ExecEnv, ExecOutcome};
use crate::exec::source;
use crate::logical::AggCall;
use crate::ops::{AggMode, HashAggOp, LimitOp, Operator};
use crate::physical::PhysicalPlan;
use crate::pipeline::{
    EdgeRole, OperatorSpec, PipelineGraph, PipelineSource, DEFAULT_QUEUE_CAPACITY,
};

/// Rows per morsel handed to workers.
pub const MORSEL_ROWS: usize = 4096;

/// A shared pool of morsels that worker threads pull from. The source is
/// already materialized when workers start, so pre-splitting it costs no
/// extra memory beyond the vector of (zero-copy, buffer-sharing) batch
/// views. Claiming a morsel is one uncontended `fetch_add` on the cursor —
/// no mutex, no per-pop deque bookkeeping. Morsels are handed out by
/// index, so the claimed morsels always form a contiguous prefix of the
/// source.
struct MorselQueue {
    morsels: Vec<Batch>,
    cursor: AtomicUsize,
}

impl MorselQueue {
    fn new(morsels: Vec<Batch>) -> MorselQueue {
        MorselQueue {
            morsels,
            cursor: AtomicUsize::new(0),
        }
    }

    /// Claim the next morsel together with its index in source order.
    fn pop(&self) -> Option<(usize, Batch)> {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        self.morsels.get(i).map(|b| (i, b.clone()))
    }
}

/// The parallel-executable shape read off the pipeline graph's root spine.
struct Shape {
    source: PipelineSource,
    /// Per-worker streaming stages (filters/projections), leaf-to-root.
    stages: Vec<OperatorSpec>,
    agg: Option<(Vec<String>, Vec<AggCall>, SchemaRef)>,
    limit: Option<u64>,
}

/// Flatten the graph's root spine and accept it if it matches the
/// supported shape. Join plans (any `JoinBuild` edge) and breakers other
/// than one final aggregate are rejected.
fn extract_shape(graph: &PipelineGraph) -> Option<Shape> {
    if graph.edges.iter().any(|e| e.role == EdgeRole::JoinBuild) {
        return None;
    }
    // Exchange fragments fan out across hosts; the morsel driver runs a
    // single spine and cannot honor shuffle-edge accounting.
    if !graph.exchanges.is_empty() {
        return None;
    }
    // Codec edges charge encoded frames at the edge; the morsel driver
    // has no edges, so it cannot honor them.
    if graph.edges.iter().any(|e| !e.encoding.is_plain()) {
        return None;
    }
    let spine = graph.spine(graph.root);
    let leaf = &graph.pipelines[spine[0]];
    let flat: Vec<&OperatorSpec> = spine
        .iter()
        .flat_map(|pid| graph.pipelines[*pid].ops.iter().map(|op| &op.spec))
        .collect();

    let mut i = 0;
    let mut stages = Vec::new();
    while let Some(OperatorSpec::Filter { .. } | OperatorSpec::Project { .. }) =
        flat.get(i).copied()
    {
        stages.push(flat[i].clone());
        i += 1;
    }
    let mut agg = None;
    if let Some(OperatorSpec::Aggregate {
        group_by,
        aggs,
        mode: AggMode::Final,
        final_schema,
        ..
    }) = flat.get(i).copied()
    {
        agg = Some((group_by.clone(), aggs.clone(), final_schema.clone()));
        i += 1;
    }
    let mut limit = None;
    if let Some(OperatorSpec::Limit { n, .. }) = flat.get(i).copied() {
        limit = Some(*n);
        i += 1;
    }
    if i != flat.len() {
        return None;
    }
    Some(Shape {
        source: leaf.source.clone(),
        stages,
        agg,
        limit,
    })
}

fn build_stage_ops(stages: &[OperatorSpec]) -> Result<Vec<Box<dyn Operator>>> {
    stages.iter().map(|s| s.instantiate_streaming()).collect()
}

fn run_chain(ops: &mut [Box<dyn Operator>], batch: Batch) -> Result<Vec<Batch>> {
    let mut current = vec![batch];
    for op in ops.iter_mut() {
        let mut next = Vec::new();
        for b in current {
            next.extend(op.push(b)?);
        }
        current = next;
        if current.is_empty() {
            break;
        }
    }
    Ok(current)
}

/// Workers the host can actually run concurrently: `requested` clamped to
/// `std::thread::available_parallelism()`. On the paper-repro container
/// (one core) this is always 1 — spawning more threads than cores made the
/// 2-thread morsel configuration *slower* than single-threaded (0.95×,
/// ROADMAP), because oversubscribed workers preempt each other mid-morsel.
pub fn effective_threads(requested: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    requested.clamp(1, cores)
}

/// Adaptive entry point: clamp the worker count to the hardware and, when
/// only one worker would run, skip morsel machinery entirely and use the
/// single-thread graph driver ([`crate::exec::push::execute`]) — identical
/// semantics, none of the oversubscription overhead. Like
/// [`execute_parallel`], unsupported shapes return
/// `Err(EngineError::Plan(_))` only from the multi-worker path; the
/// single-worker path handles every shape.
pub fn execute_adaptive(
    plan: &PhysicalPlan,
    env: &ExecEnv,
    requested: usize,
) -> Result<ExecOutcome> {
    let threads = effective_threads(requested);
    if threads <= 1 {
        return crate::exec::push::execute(plan, env);
    }
    execute_parallel(plan, env, threads)
}

/// Execute a plan with `threads` workers. Returns
/// `Err(EngineError::Plan(_))` when the shape is unsupported — callers
/// should then use [`crate::exec::push::execute`].
pub fn execute_parallel(plan: &PhysicalPlan, env: &ExecEnv, threads: usize) -> Result<ExecOutcome> {
    let threads = threads.max(1);
    let graph = PipelineGraph::compile(plan, None, env.topology, DEFAULT_QUEUE_CAPACITY);
    graph.verify_or_err(env.topology)?;
    let shape = extract_shape(&graph).ok_or_else(|| {
        EngineError::Plan("plan shape not supported by the parallel executor".into())
    })?;

    // Collect leaf batches (the storage scan still applies pushdown).
    let mut ledger = MovementLedger::new();
    let mut scan_stats = Vec::new();
    let leaf_device = shape.source.device();
    let (source, leaf_schema): (Vec<Batch>, SchemaRef) = match &shape.source {
        PipelineSource::Values {
            batches, schema, ..
        } => (batches.clone(), schema.clone()),
        PipelineSource::Scan {
            table,
            request,
            schema,
            ..
        } => {
            let (batches, stats) = source::scan_materialized(env.storage, table, request)?;
            scan_stats.push(stats);
            (batches, schema.clone())
        }
        PipelineSource::Stream { spec, schema, .. } => {
            // Bounded streams materialize deterministically; the morsel
            // path has no punctuation, so stateless stages only (window
            // aggregation never passes `extract_shape`).
            (spec.materialize(None)?, schema.clone())
        }
        PipelineSource::Edge { .. } | PipelineSource::Exchange { .. } => {
            unreachable!("spine leaves carry concrete sources")
        }
    };
    for b in &source {
        ledger.charge(leaf_device, None, b.byte_size() as u64, b.rows() as u64);
    }

    let queue = MorselQueue::new(
        source
            .iter()
            .flat_map(|batch| batch.split(MORSEL_ROWS).expect("MORSEL_ROWS > 0"))
            .collect(),
    );
    // With no aggregate between the pipeline and a `Limit`, workers can stop
    // claiming morsels once enough output rows exist globally; the final
    // `LimitOp` pass still trims to exactly `n`. Every claimed morsel is
    // processed to the end, so the claimed prefix holds at least `n` rows
    // and the first `n` in morsel order are all among them.
    let early_stop_at: Option<u64> = if shape.agg.is_none() {
        shape.limit
    } else {
        None
    };
    let rows_emitted = AtomicU64::new(0);
    let chain_out_schema = shape
        .stages
        .last()
        .map(|s| s.output_schema())
        .unwrap_or_else(|| leaf_schema.clone());
    // Lanes are created up front in worker order so lane creation is
    // deterministic even though workers race.
    let worker_trace: Vec<_> = (0..threads)
        .map(|i| {
            env.tracer.as_ref().map(|t| {
                (
                    t.clone(),
                    t.lane(&format!("exec.worker{i}"), LaneKind::Wall),
                )
            })
        })
        .collect();
    // Each worker tags its outputs with the morsel they came from; outputs
    // of `finish` come after every morsel.
    let worker_results: Vec<Result<Vec<(usize, Batch)>>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for trace in worker_trace {
            let queue = &queue;
            let rows_emitted = &rows_emitted;
            let stages = &shape.stages;
            let agg = shape.agg.clone();
            let chain_out_schema = chain_out_schema.clone();
            let gate = env.gate.clone();
            handles.push(scope.spawn(move || -> Result<Vec<(usize, Batch)>> {
                let mut ops = build_stage_ops(stages)?;
                let mut partial = match &agg {
                    Some((group_by, aggs, final_schema)) => Some(HashAggOp::new(
                        group_by.clone(),
                        aggs.clone(),
                        AggMode::Partial {
                            max_groups: 1 << 20,
                        },
                        &chain_out_schema,
                        final_schema.clone(),
                    )?),
                    None => None,
                };
                let mut worker_span = trace.as_ref().map(|(t, lane)| t.span(*lane, "worker"));
                let mut morsels_claimed = 0u64;
                let mut rows_seen = 0u64;
                let mut collected = Vec::new();
                loop {
                    if let Some(n) = early_stop_at {
                        if rows_emitted.load(Ordering::Relaxed) >= n {
                            break;
                        }
                    }
                    let Some((morsel, batch)) = queue.pop() else {
                        break;
                    };
                    // Cooperative cross-query yield point: one credit per
                    // morsel, so a preempted query parks between morsels.
                    if let Some(gate) = &gate {
                        gate.acquire(0)?;
                    }
                    morsels_claimed += 1;
                    rows_seen += batch.rows() as u64;
                    let _morsel = trace.as_ref().map(|(t, lane)| {
                        t.span_with(
                            *lane,
                            "morsel",
                            &[
                                ("rows", batch.rows() as u64),
                                ("bytes", batch.byte_size() as u64),
                            ],
                        )
                    });
                    let outs = run_chain(&mut ops, batch)?;
                    for out in outs {
                        if early_stop_at.is_some() {
                            rows_emitted.fetch_add(out.rows() as u64, Ordering::Relaxed);
                        }
                        match partial.as_mut() {
                            Some(agg) => {
                                collected.extend(agg.push(out)?.into_iter().map(|b| (morsel, b)))
                            }
                            None => collected.push((morsel, out)),
                        }
                    }
                }
                for op in ops.iter_mut() {
                    for out in op.finish()? {
                        match partial.as_mut() {
                            Some(agg) => collected
                                .extend(agg.push(out)?.into_iter().map(|b| (usize::MAX, b))),
                            None => collected.push((usize::MAX, out)),
                        }
                    }
                }
                if let Some(agg) = partial.as_mut() {
                    collected.extend(agg.finish()?.into_iter().map(|b| (usize::MAX, b)));
                }
                // Close the worker span with its share of the scan, so the
                // wall trace shows how morsels spread across workers.
                if let Some(span) = worker_span.as_mut() {
                    span.annotate("morsels", morsels_claimed);
                    span.annotate("rows_in", rows_seen);
                }
                Ok(collected)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    // Order outputs by morsel, not by worker: the result (and which rows a
    // `Limit` keeps) is then the sequential production order, whatever the
    // thread schedule. The sort is stable, so one morsel's outputs keep
    // their order.
    let mut tagged = Vec::new();
    for r in worker_results {
        tagged.extend(r?);
    }
    tagged.sort_by_key(|(morsel, _)| *morsel);
    let partials: Vec<Batch> = tagged.into_iter().map(|(_, b)| b).collect();

    let mut batches = match &shape.agg {
        None => partials,
        Some((group_by, aggs, final_schema)) => {
            if partials.is_empty() && !group_by.is_empty() {
                Vec::new()
            } else {
                // Merge worker partials (positional layout).
                let partial_layout =
                    crate::ops::aggregate::partial_schema(group_by, aggs, &chain_out_schema)?
                        .into_ref();
                let mut merge = HashAggOp::new(
                    group_by.clone(),
                    aggs.clone(),
                    AggMode::Merge,
                    &partial_layout,
                    final_schema.clone(),
                )?;
                for p in partials {
                    merge.push(p)?;
                }
                merge.finish()?
            }
        }
    };

    if let Some(n) = shape.limit {
        let schema = batches
            .first()
            .map(|b| b.schema().clone())
            .unwrap_or_else(|| plan.schema());
        let mut limit = LimitOp::new(n, schema);
        let mut limited = Vec::new();
        for b in batches {
            limited.extend(limit.push(b)?);
            if limit.satisfied() {
                break;
            }
        }
        limited.extend(limit.finish()?);
        batches = limited;
    }

    Ok(ExecOutcome {
        batches,
        ledger,
        scan_stats,
        codec_decisions: Vec::new(),
        frontiers: Vec::new(),
        window_lags: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::push::execute as push_execute;
    use crate::expr::{col, lit};
    use crate::logical::{AggCall, AggFn, LogicalPlan};
    use crate::physical::PhysNode;
    use df_data::batch::batch_of;
    use df_data::Column;

    fn sample(n: usize) -> Batch {
        batch_of(vec![
            ("id", Column::from_i64((0..n as i64).collect())),
            (
                "grp",
                Column::from_strs(&(0..n).map(|i| format!("g{}", i % 8)).collect::<Vec<_>>()),
            ),
            (
                "v",
                Column::from_f64((0..n).map(|i| (i % 100) as f64).collect()),
            ),
        ])
    }

    fn values(n: usize) -> PhysNode {
        let b = sample(n);
        PhysNode::Values {
            schema: b.schema().clone(),
            batches: vec![b],
            device: None,
        }
    }

    fn agg_plan(n: usize) -> PhysicalPlan {
        let calls = vec![
            AggCall::count_star("n"),
            AggCall::new(AggFn::Sum, "v", "s"),
            AggCall::new(AggFn::Avg, "v", "a"),
        ];
        let logical = LogicalPlan::values(vec![sample(8)])
            .unwrap()
            .aggregate(vec!["grp".into()], calls.clone())
            .unwrap();
        PhysicalPlan::new(
            PhysNode::Aggregate {
                input: Box::new(PhysNode::Filter {
                    input: Box::new(values(n)),
                    predicate: col("v").lt(lit(50.0)),
                    device: None,
                    use_kernel: false,
                }),
                group_by: vec!["grp".into()],
                aggs: calls,
                mode: AggMode::Final,
                final_schema: logical.schema(),
                device: None,
            },
            "parallel-test",
        )
    }

    #[test]
    fn parallel_agg_matches_sequential() {
        let plan = agg_plan(50_000);
        let seq = push_execute(&plan, &ExecEnv::in_memory()).unwrap();
        let par = execute_parallel(&plan, &ExecEnv::in_memory(), 4).unwrap();
        assert_eq!(
            seq.collect().unwrap().canonical_rows(),
            par.collect().unwrap().canonical_rows()
        );
    }

    #[test]
    fn parallel_pipeline_without_agg_matches() {
        let plan = PhysicalPlan::new(
            PhysNode::Filter {
                input: Box::new(values(10_000)),
                predicate: col("id").between(100, 199),
                device: None,
                use_kernel: false,
            },
            "p",
        );
        let seq = push_execute(&plan, &ExecEnv::in_memory()).unwrap();
        let par = execute_parallel(&plan, &ExecEnv::in_memory(), 3).unwrap();
        assert_eq!(
            seq.collect().unwrap().canonical_rows(),
            par.collect().unwrap().canonical_rows()
        );
    }

    #[test]
    fn limit_applies_after_parallel_stage() {
        let plan = PhysicalPlan::new(
            PhysNode::Limit {
                input: Box::new(values(10_000)),
                n: 17,
            },
            "p",
        );
        let par = execute_parallel(&plan, &ExecEnv::in_memory(), 4).unwrap();
        assert_eq!(par.rows(), 17);
    }

    #[test]
    fn morsel_queue_hands_out_each_morsel_exactly_once() {
        let batch = sample(MORSEL_ROWS * 8);
        let queue = MorselQueue::new(batch.split(MORSEL_ROWS).unwrap());
        let counts: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let queue = &queue;
                    scope.spawn(move || {
                        let mut n = 0;
                        while queue.pop().is_some() {
                            n += 1;
                        }
                        n
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counts.iter().sum::<usize>(), 8);
    }

    #[test]
    fn limit_early_stop_still_returns_exact_rows() {
        // Many morsels, tiny limit: workers stop claiming once the shared
        // row count covers the limit, and the final trim is exact.
        let plan = PhysicalPlan::new(
            PhysNode::Limit {
                input: Box::new(PhysNode::Filter {
                    input: Box::new(values(MORSEL_ROWS * 50)),
                    predicate: col("v").lt(lit(50.0)),
                    device: None,
                    use_kernel: false,
                }),
                n: 5,
            },
            "p",
        );
        let par = execute_parallel(&plan, &ExecEnv::in_memory(), 4).unwrap();
        assert_eq!(par.rows(), 5);
    }

    #[test]
    fn worker_spans_record_morsel_counts() {
        let tracer = std::sync::Arc::new(df_sim::Tracer::new());
        let mut env = ExecEnv::in_memory();
        env.tracer = Some(tracer.clone());
        let plan = agg_plan(MORSEL_ROWS * 3);
        execute_parallel(&plan, &env, 2).unwrap();
        let lanes = tracer.lane_names();
        assert!(
            lanes.iter().any(|l| l == "exec.worker0"),
            "lanes: {lanes:?}"
        );
        assert!(
            lanes.iter().any(|l| l == "exec.worker1"),
            "lanes: {lanes:?}"
        );
        // Worker summary spans carry the per-worker share of the scan.
        let json = tracer.chrome_trace_json();
        assert!(
            json.contains("\"morsels\""),
            "worker spans should be annotated with morsel counts"
        );
        assert!(json.contains("\"rows_in\""));
    }

    #[test]
    fn unsupported_shape_reports_cleanly() {
        let plan = PhysicalPlan::new(
            PhysNode::Sort {
                input: Box::new(values(100)),
                keys: vec![("id".into(), true)],
                device: None,
            },
            "p",
        );
        assert!(matches!(
            execute_parallel(&plan, &ExecEnv::in_memory(), 2),
            Err(EngineError::Plan(_))
        ));
    }

    #[test]
    fn single_thread_degenerates_correctly() {
        let plan = agg_plan(5_000);
        let seq = push_execute(&plan, &ExecEnv::in_memory()).unwrap();
        let par = execute_parallel(&plan, &ExecEnv::in_memory(), 1).unwrap();
        assert_eq!(
            seq.collect().unwrap().canonical_rows(),
            par.collect().unwrap().canonical_rows()
        );
    }

    #[test]
    fn placed_stages_flatten_across_device_cuts() {
        // Placement cuts produce multiple pipelines; the parallel driver
        // flattens them and still runs the whole chain per worker.
        let topo = df_fabric::Topology::disaggregated(
            &df_fabric::topology::DisaggregatedConfig::default(),
        );
        let nic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        let calls = vec![AggCall::count_star("n")];
        let logical = LogicalPlan::values(vec![sample(8)])
            .unwrap()
            .aggregate(vec!["grp".into()], calls.clone())
            .unwrap();
        let plan = PhysicalPlan::new(
            PhysNode::Aggregate {
                input: Box::new(PhysNode::Filter {
                    input: Box::new(values(20_000)),
                    predicate: col("v").lt(lit(50.0)),
                    device: Some(nic),
                    use_kernel: false,
                }),
                group_by: vec!["grp".into()],
                aggs: calls,
                mode: AggMode::Final,
                final_schema: logical.schema(),
                device: Some(cpu),
            },
            "placed-parallel",
        );
        let seq = push_execute(&plan, &ExecEnv::in_memory()).unwrap();
        let par = execute_parallel(&plan, &ExecEnv::in_memory(), 4).unwrap();
        assert_eq!(
            seq.collect().unwrap().canonical_rows(),
            par.collect().unwrap().canonical_rows()
        );
    }
}
