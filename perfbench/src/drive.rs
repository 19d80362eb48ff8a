//! Closed-loop callers: each caller sends its next query only once the
//! previous reply is in, and every reply is checked against the census.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use df_core::session::Session;
use df_data::Batch;
use df_serve::dispatch::QueryService;
use df_serve::server::Client;
use df_serve::tenant::TenantSpec;

use crate::host::{process_cpu_s, reference_ms, steal_s};
use crate::layers::{Counters, Layers};
use crate::queries::{QuerySet, SERVE_WEIGHTS};
use crate::setup::{Census, Engine, Result, Verdict};
use crate::spans::{Recorder, Span};

/// One query as a caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Template index of the query.
    pub template: usize,
    /// The query's position in its caller's sequence.
    pub seq: u64,
    /// Wall time of the query call (the query-path span when traced).
    pub latency_ns: u64,
    /// How the reply compared with the census.
    pub verdict: Verdict,
}

impl Sample {
    /// The reply arrived and matched the census.
    pub fn ok(&self) -> bool {
        self.verdict != Verdict::Wrong
    }
}

/// One caller's measured loop.
#[derive(Debug, Default)]
pub struct CallerRun {
    /// Every query, in the order sent.
    pub samples: Vec<Sample>,
    /// Failed probe calls (traced runs).
    pub probe_failures: u64,
}

/// A whole measured phase.
pub struct Phase {
    /// Wall seconds from the first query sent until every caller stopped
    /// (a traced `Session` caller's probes fall inside; served queries are
    /// probed after).
    pub wall_s: f64,
    /// CPU seconds the process used over the same time, and the CPU time
    /// the hypervisor stole from the machine meanwhile.
    pub cpu_s: f64,
    pub steal_s: f64,
    /// Mean of [`reference_ms`] just before and just after the phase.
    pub reference_ms: f64,
    /// Per caller.
    pub callers: Vec<CallerRun>,
    /// Per caller, the spans of a traced phase (empty when untraced).
    pub spans: Vec<Vec<Span>>,
    /// Counters of the traced layer calls, merged over callers.
    pub counters: Counters,
}

impl Phase {
    /// Every sample, caller by caller.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.callers.iter().flat_map(|c| &c.samples)
    }

    /// Completed queries per wall second.
    pub fn qps(&self) -> f64 {
        self.samples().count() as f64 / self.wall_s.max(1e-9)
    }

    /// Completed queries per second of time inside query calls, summed
    /// over the concurrent callers. Unlike [`Phase::qps`] it leaves out
    /// what a caller does between queries (checks, and probes when
    /// traced), so traced and untraced phases compare on it.
    pub fn busy_qps(&self) -> f64 {
        self.callers
            .iter()
            .filter(|c| !c.samples.is_empty())
            .map(|c| {
                let busy_s = c.samples.iter().map(|s| s.latency_ns).sum::<u64>() as f64 / 1e9;
                c.samples.len() as f64 / busy_s.max(1e-9)
            })
            .sum()
    }

    /// Queries sent, and queries that failed (including failed probes).
    pub fn counts(&self) -> (u64, u64) {
        let sent = self.samples().count() as u64;
        let failed: u64 = self
            .callers
            .iter()
            .map(|c| c.samples.iter().filter(|s| !s.ok()).count() as u64 + c.probe_failures)
            .sum();
        (sent, failed)
    }

    /// Replies that matched the census only within float tolerance.
    pub fn close(&self) -> u64 {
        self.samples()
            .filter(|s| s.verdict == Verdict::Close)
            .count() as u64
    }
}

/// Print the first few failures, so none goes unseen.
static REPORTED: AtomicUsize = AtomicUsize::new(0);

fn note_failure(sql: &str, why: &str) {
    if REPORTED.fetch_add(1, Ordering::Relaxed) < 5 {
        eprintln!("perfbench: FAILED query `{sql}`: {why}");
    }
}

/// A served query kept for the probes that run after the callers stop.
struct Served {
    qid: u64,
    query: usize,
    client_ns: u64,
    frames: Vec<Batch>,
}

/// What one caller thread hands back.
#[derive(Default)]
struct Outcome {
    run: CallerRun,
    rec: Option<Recorder>,
    counters: Counters,
    /// On a traced `serve` phase: the tenant and its replies, to probe.
    tenant: Option<TenantSpec>,
    served: Vec<Served>,
}

/// Run `engine`'s callers for `seconds`, traced or not.
pub fn run_phase(
    engine: &Engine,
    parallelism: usize,
    set: &QuerySet,
    census: &Census,
    seconds: f64,
    traced: bool,
) -> Result<Phase> {
    let reference_before = reference_ms();
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let (cpu0, steal0) = (process_cpu_s(), steal_s());
    let mut outcomes: Vec<Outcome> = match engine {
        Engine::Local(session) => {
            vec![session_caller(
                session,
                parallelism,
                set,
                census,
                deadline,
                traced.then(|| Recorder::new(epoch, 0)),
            )]
        }
        Engine::Served { server, .. } => {
            let addr = server.addr();
            std::thread::scope(|scope| {
                let handles: Vec<_> = SERVE_WEIGHTS
                    .iter()
                    .enumerate()
                    .map(|(c, &weight)| {
                        scope.spawn(move || -> Result<Outcome> {
                            let spec = TenantSpec::new(format!("tenant{c}"), weight);
                            let mut client =
                                Client::connect(addr, &spec).map_err(|e| e.to_string())?;
                            let rec = traced.then(|| Recorder::new(epoch, c));
                            let mut out = serve_caller(
                                &mut client,
                                &set.streams[c],
                                set,
                                census,
                                deadline,
                                rec,
                            );
                            client.bye().map_err(|e| e.to_string())?;
                            out.tenant = Some(spec);
                            Ok(out)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().map_err(|_| "caller panicked".to_string())?)
                    .collect::<Result<Vec<_>>>()
            })?
        }
    };
    let wall_s = epoch.elapsed().as_secs_f64();
    let (cpu_s, steal_s) = (process_cpu_s() - cpu0, steal_s() - steal0);
    let reference_ms = (reference_before + reference_ms()) / 2.0;
    // Served queries are probed only now, one at a time, so no probe
    // competes with a measured query for the service or the cores.
    if let Engine::Served { service, .. } = engine {
        for out in &mut outcomes {
            probe_served(service, set, out);
        }
    }
    let mut phase = Phase {
        wall_s,
        cpu_s,
        steal_s,
        reference_ms,
        callers: Vec::new(),
        spans: Vec::new(),
        counters: Counters::default(),
    };
    for out in outcomes {
        phase.callers.push(out.run);
        phase.spans.extend(out.rec.map(Recorder::into_spans));
        phase.counters.merge(out.counters);
    }
    Ok(phase)
}

/// One caller on a `Session`, cycling its stream until the deadline. When
/// traced, each query runs as its separate layer calls and is followed by
/// probes.
fn session_caller(
    session: &Session,
    parallelism: usize,
    set: &QuerySet,
    census: &Census,
    deadline: Instant,
    mut rec: Option<Recorder>,
) -> Outcome {
    let stream = &set.streams[0];
    let mut layers = rec.is_some().then(|| Layers::new(session, parallelism));
    let mut run = CallerRun::default();
    let mut qid = 0u64;
    while run.samples.is_empty() || Instant::now() < deadline {
        let qi = stream[qid as usize % stream.len()];
        let query = &set.distinct[qi];
        let (result, latency_ns) = match (rec.as_mut(), layers.as_mut()) {
            (Some(rec), Some(layers)) => {
                let (out, latency) = layers.session_query(rec, qid, &query.sql);
                (
                    out.map(|(batch, plan, exec_ns)| (batch, Some((plan, exec_ns)))),
                    latency,
                )
            }
            _ => {
                let t = Instant::now();
                let out = session.sql(&query.sql);
                let latency = t.elapsed().as_nanos() as u64;
                (
                    out.map(|r| (r.batch, None)).map_err(|e| e.to_string()),
                    latency,
                )
            }
        };
        let verdict = match &result {
            Ok((batch, _)) => check(census, qi, &query.sql, std::slice::from_ref(batch)),
            Err(e) => {
                note_failure(&query.sql, e);
                Verdict::Wrong
            }
        };
        run.samples.push(Sample {
            template: query.template,
            seq: qid,
            latency_ns,
            verdict,
        });
        if let (Some(rec), Some(layers), Ok((_, Some((plan, exec_ns))))) =
            (rec.as_mut(), layers.as_mut(), &result)
        {
            let probe = rec.open("probe", qid);
            let probed = layers.probe_session(rec, qid, plan, *exec_ns);
            rec.close(probe);
            if let Err(e) = probed {
                note_failure(&query.sql, &e);
                run.probe_failures += 1;
            }
        }
        qid += 1;
    }
    Outcome {
        run,
        rec,
        counters: layers.map(|l| l.counters).unwrap_or_default(),
        ..Outcome::default()
    }
}

/// One tenant connection cycling its stream until the deadline. When
/// traced, only the client call is timed here; the reply's frames are
/// kept for the probes [`probe_served`] runs after the phase.
fn serve_caller(
    client: &mut Client,
    stream: &[usize],
    set: &QuerySet,
    census: &Census,
    deadline: Instant,
    mut rec: Option<Recorder>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut qid = 0u64;
    while out.run.samples.is_empty() || Instant::now() < deadline {
        let qi = stream[qid as usize % stream.len()];
        let query = &set.distinct[qi];
        let (reply, latency_ns) = match rec.as_mut() {
            Some(rec) => {
                let id = rec.open("serve.client_query", qid);
                let reply = client.query(&query.sql);
                (reply, rec.close(id))
            }
            None => {
                let t = Instant::now();
                let reply = client.query(&query.sql);
                (reply, t.elapsed().as_nanos() as u64)
            }
        };
        let verdict = match &reply {
            Ok(r) if r.batches.iter().map(|b| b.rows() as u64).sum::<u64>() != r.rows => {
                note_failure(&query.sql, "row count differs from the Done frame");
                Verdict::Wrong
            }
            Ok(r) => check(census, qi, &query.sql, &r.batches),
            Err(e) => {
                note_failure(&query.sql, &e.to_string());
                Verdict::Wrong
            }
        };
        out.run.samples.push(Sample {
            template: query.template,
            seq: qid,
            latency_ns,
            verdict,
        });
        if let (Some(_), Ok(r)) = (&rec, reply) {
            out.counters.credits.push(r.credits);
            out.served.push(Served {
                qid,
                query: qi,
                client_ns: latency_ns,
                frames: r.batches,
            });
        }
        qid += 1;
    }
    out.rec = rec;
    out
}

/// Probe every reply a traced tenant kept, one query at a time.
fn probe_served(service: &QueryService, set: &QuerySet, out: &mut Outcome) {
    let (Some(rec), Some(spec)) = (out.rec.as_mut(), out.tenant.as_ref()) else {
        return;
    };
    // The connection registered this tenant; registering again looks it up.
    let tenant = service.register_tenant(spec.clone());
    let mut layers = Layers::new(service.session(), service.session().parallelism);
    for s in std::mem::take(&mut out.served) {
        let sql = &set.distinct[s.query].sql;
        let probe = rec.open("probe", s.qid);
        let probed = layers.probe_served(
            rec,
            s.qid,
            service,
            tenant,
            &spec.name,
            sql,
            s.client_ns,
            &s.frames,
        );
        rec.close(probe);
        if let Err(e) = probed {
            note_failure(sql, &e);
            out.run.probe_failures += 1;
        }
    }
    out.counters.merge(layers.counters);
}

/// Compare one reply with the census; a mismatch is reported.
fn check(census: &Census, qi: usize, sql: &str, batches: &[Batch]) -> Verdict {
    let verdict = census.expected[qi].check(batches);
    if verdict == Verdict::Wrong {
        note_failure(sql, "result differs from the sequential census");
    }
    verdict
}
