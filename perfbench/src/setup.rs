//! Set-up: seeded tables, loading them into a session (and a server on
//! `serve`), and the census that computes every distinct query's expected
//! result and deterministic figures once, with a sequential
//! `Session::sql`.

use std::sync::Arc;
use std::time::Instant;

use df_core::pipeline::{EdgeKind, PipelineGraph, DEFAULT_QUEUE_CAPACITY};
use df_core::session::Session;
use df_data::{Batch, Scalar, ValueRef};
use df_fabric::flow::FlowSim;
use df_serve::dispatch::{default_compute_device, QueryService, ServiceConfig};
use df_serve::protocol::encode_result;
use df_serve::server::{serve, ServerHandle, STREAM_CHUNK_ROWS};

use crate::queries::{QuerySet, Scale, Workload};

/// Errors are reported as text and end the run.
pub type Result<T> = std::result::Result<T, String>;

/// Attach context to any displayable error.
pub fn ctx<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The generated tables.
pub struct Dataset {
    lineitem: Batch,
    orders: Batch,
}

impl Dataset {
    /// `workload::lineitem` and `workload::orders` at `scale` from `seed`.
    pub fn generate(scale: Scale, seed: u64) -> Dataset {
        Dataset {
            lineitem: df_bench::workload::lineitem(scale.lineitem, seed),
            orders: df_bench::workload::orders(scale.orders, seed),
        }
    }
}

/// The engine under test: a session, or a session behind a loopback server.
pub enum Engine {
    /// `point` and `olap` call the session directly.
    Local(Box<Session>),
    /// `serve` reaches the service through the server's TCP protocol.
    Served {
        /// The service the server runs queries on.
        service: Arc<QueryService>,
        /// The running server.
        server: ServerHandle,
    },
}

impl Engine {
    /// The session queries run on.
    pub fn session(&self) -> &Session {
        match self {
            Engine::Local(s) => s,
            Engine::Served { service, .. } => service.session(),
        }
    }

    /// Stop the server, if any.
    pub fn shut_down(self) {
        if let Engine::Served { server, .. } = self {
            server.shutdown();
        }
    }
}

/// Wall time of the set-up phases, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Encoding and storing both tables' segments.
    pub load_s: f64,
    /// Refreshing both tables' optimizer profiles.
    pub profile_s: f64,
    /// Building the service and starting the server (`serve` only).
    pub server_s: f64,
}

impl SetupTimes {
    /// `setup_s`: everything before the first query can run.
    pub fn total(&self) -> f64 {
        self.load_s + self.profile_s + self.server_s
    }
}

/// Load `data` into a fresh session (at parallelism 1, for the census) and,
/// on `serve`, start the server.
pub fn set_up(workload: Workload, data: &Dataset) -> Result<(Engine, SetupTimes)> {
    let session = Session::in_memory().map_err(ctx("session"))?;
    let t = Instant::now();
    let tables = session.tables();
    tables
        .create_and_load("lineitem", std::slice::from_ref(&data.lineitem))
        .map_err(ctx("load lineitem"))?;
    tables
        .create_and_load("orders", std::slice::from_ref(&data.orders))
        .map_err(ctx("load orders"))?;
    let load_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for table in ["lineitem", "orders"] {
        session.refresh_profile(table).map_err(ctx("profile"))?;
    }
    let profile_s = t.elapsed().as_secs_f64();
    let mut server_s = 0.0;
    let engine = match workload {
        Workload::Point | Workload::Olap => Engine::Local(Box::new(session)),
        Workload::Serve => {
            let t = Instant::now();
            let service = Arc::new(QueryService::new(session, ServiceConfig::default()));
            let server = serve(service.clone(), 0).map_err(ctx("start server"))?;
            server_s = t.elapsed().as_secs_f64();
            Engine::Served { service, server }
        }
    };
    Ok((
        engine,
        SetupTimes {
            load_s,
            profile_s,
            server_s,
        },
    ))
}

/// An order-insensitive (and, for ordered queries, order-sensitive) digest
/// of a result's column names and values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    rows: u64,
    columns: u64,
    sum: u64,
    xor: u64,
    seq: u64,
}

fn mix(h: u64, v: u64) -> u64 {
    let x = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 29)
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
    })
}

impl Fingerprint {
    /// Digest `batches` as one result, in order.
    fn of<'a>(batches: impl IntoIterator<Item = &'a Batch>) -> Fingerprint {
        let mut fp = Fingerprint {
            rows: 0,
            columns: 0,
            sum: 0,
            xor: 0,
            seq: 0,
        };
        for batch in batches {
            fp.columns = batch
                .schema()
                .fields()
                .iter()
                .fold(0, |h, f| mix(h, hash_bytes(f.name.as_bytes())));
            for i in 0..batch.rows() {
                let mut h = 0x5EED_u64;
                for col in batch.columns() {
                    h = match col.value_at(i) {
                        ValueRef::Null => mix(h, 1),
                        ValueRef::Int(v) => mix(mix(h, 2), v as u64),
                        ValueRef::Float(v) => mix(mix(h, 3), v.to_bits()),
                        ValueRef::Str(s) => mix(mix(h, 4), hash_bytes(s.as_bytes())),
                        ValueRef::Bool(b) => mix(mix(h, 5), b as u64),
                    };
                }
                fp.rows += 1;
                fp.sum = fp.sum.wrapping_add(h);
                fp.xor ^= mix(h, 0xA5A5);
                fp.seq = mix(fp.seq, h);
            }
        }
        fp
    }
}

/// Results up to this many rows keep their rows for the float-tolerant
/// comparison; larger ones (scans, which do no float arithmetic) are
/// compared by fingerprint only.
const KEEP_ROWS: usize = 4096;

/// Relative tolerance for float values that differ from the sequential
/// census only by summation order (partial aggregates merged in another
/// order under parallel execution).
const FLOAT_TOLERANCE: f64 = 1e-9;

/// How a reply compares with the census.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Bit-identical to the sequential result.
    Exact,
    /// Identical except for float values within [`FLOAT_TOLERANCE`].
    Close,
    /// Different rows, or an error.
    Wrong,
}

/// What a correct reply to one distinct query looks like.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    fingerprint: Fingerprint,
    ordered: bool,
    /// The rows (sorted unless `ordered`), for results of up to
    /// [`KEEP_ROWS`] rows.
    rows: Option<Vec<Vec<Scalar>>>,
}

fn rows_of(batches: &[Batch], ordered: bool) -> Vec<Vec<Scalar>> {
    let mut rows: Vec<Vec<Scalar>> = batches
        .iter()
        .flat_map(|b| (0..b.rows()).map(move |i| b.row(i)))
        .collect();
    if !ordered {
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
    rows
}

fn close(a: &Scalar, b: &Scalar) -> bool {
    match (a, b) {
        (Scalar::Float(x), Scalar::Float(y)) => {
            (x - y).abs() <= FLOAT_TOLERANCE * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

impl Expected {
    fn new(batch: &Batch, ordered: bool) -> Expected {
        let batches = std::slice::from_ref(batch);
        Expected {
            fingerprint: Fingerprint::of(batches),
            ordered,
            rows: (batch.rows() <= KEEP_ROWS).then(|| rows_of(batches, ordered)),
        }
    }

    /// Compare one reply (`batches`, in order) with the census. Unordered
    /// results compare as multisets of rows.
    pub fn check(&self, batches: &[Batch]) -> Verdict {
        let got = Fingerprint::of(batches);
        let want = &self.fingerprint;
        if want.rows == 0 || got.rows == 0 {
            // An empty reply carries no schema over the wire.
            return if want.rows == got.rows {
                Verdict::Exact
            } else {
                Verdict::Wrong
            };
        }
        if got.rows == want.rows
            && got.columns == want.columns
            && got.sum == want.sum
            && got.xor == want.xor
            && (!self.ordered || got.seq == want.seq)
        {
            return Verdict::Exact;
        }
        match &self.rows {
            Some(rows) if got.rows == want.rows && got.columns == want.columns => {
                let same = rows_of(batches, self.ordered)
                    .iter()
                    .zip(rows)
                    .all(|(g, w)| g.len() == w.len() && g.iter().zip(w).all(|(a, b)| close(a, b)));
                if same {
                    Verdict::Close
                } else {
                    Verdict::Wrong
                }
            }
            _ => Verdict::Wrong,
        }
    }
}

/// The deterministic figures of one distinct query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Figures {
    /// `MovementLedger::cross_device_bytes` of the sequential run.
    pub fabric_bytes: u64,
    /// FlowSim makespan of the compiled graph's flow specs, in sim ns.
    pub sim_ns: u64,
    /// Ranked plan variants the optimizer enumerated.
    pub variants: u64,
    /// Pipelines and fabric edges of the compiled graph.
    pub pipelines: u64,
    pub fabric_edges: u64,
    /// Deadlock model-checker states (0 if the model did not run).
    pub model_states: u64,
    /// Result rows.
    pub rows_out: u64,
    /// Summed storage scan statistics.
    pub pages_total: u64,
    pub pages_pruned: u64,
    pub bytes_scanned: u64,
    pub bytes_returned: u64,
    pub rows_scanned: u64,
    /// Result frames and encoded bytes the serve protocol sends.
    pub result_frames: u64,
    pub result_bytes: u64,
}

/// Expected results and deterministic figures of every distinct query.
#[derive(Debug, Clone, PartialEq)]
pub struct Census {
    /// Per distinct query: its expected reply.
    pub expected: Vec<Expected>,
    /// Per distinct query: its figures.
    pub figures: Vec<Figures>,
}

/// Run every distinct query once, sequentially, through `Session::sql`,
/// and compile it as the service does to read its graph figures.
pub fn census(session: &Session, set: &QuerySet) -> Result<Census> {
    if session.parallelism != 1 {
        return Err("the census runs on a sequential session".into());
    }
    let profiles = session.profiles();
    let topology = session.topology().clone();
    let device = default_compute_device(&topology);
    let mut expected = Vec::with_capacity(set.distinct.len());
    let mut figures = Vec::with_capacity(set.distinct.len());
    for q in &set.distinct {
        let fail = |what: &'static str| ctx(what);
        let result = session.sql(&q.sql).map_err(fail("census query"))?;
        expected.push(Expected::new(&result.batch, q.ordered));
        let logical = session.logical_plan(&q.sql).map_err(fail("parse"))?;
        let variants = session.variants(&logical).map_err(fail("plan"))?;
        let plan = &variants.first().ok_or("no plan variant")?.plan;
        let graph = PipelineGraph::compile(
            plan,
            Some(&profiles),
            Some(&topology),
            DEFAULT_QUEUE_CAPACITY,
        );
        let deadlock = df_check::deadlock::analyze(&graph);
        let mut sim = FlowSim::new(topology.as_ref().clone());
        for spec in graph
            .to_flow_specs(device, "q")
            .map_err(fail("flow specs"))?
        {
            sim.add_pipeline(spec);
        }
        let rows = result.batch.rows();
        let mut f = Figures {
            fabric_bytes: result.ledger.cross_device_bytes(),
            sim_ns: sim.run().makespan.nanos(),
            variants: variants.len() as u64,
            pipelines: graph.pipelines.len() as u64,
            fabric_edges: graph
                .edges
                .iter()
                .filter(|e| matches!(e.kind, EdgeKind::Fabric { .. }))
                .count() as u64,
            model_states: deadlock.model_states.unwrap_or(0) as u64,
            rows_out: rows as u64,
            ..Figures::default()
        };
        for s in &result.scan_stats {
            f.pages_total += s.pages_total;
            f.pages_pruned += s.pages_pruned;
            f.bytes_scanned += s.bytes_scanned;
            f.bytes_returned += s.bytes_returned;
            f.rows_scanned += s.rows_scanned;
        }
        let mut at = 0;
        while at < rows {
            let n = STREAM_CHUNK_ROWS.min(rows - at);
            f.result_frames += 1;
            f.result_bytes += encode_result(&result.batch.slice(at, n)).len() as u64;
            at += n;
        }
        figures.push(f);
    }
    Ok(Census { expected, figures })
}

impl Census {
    /// Mean of one figure over the distinct queries.
    pub fn mean(&self, figure: impl Fn(&Figures) -> u64) -> f64 {
        let total: u64 = self.figures.iter().map(figure).sum();
        total as f64 / self.figures.len().max(1) as f64
    }

    /// Ratio of two summed figures (0 when the denominator is 0).
    pub fn share(&self, num: impl Fn(&Figures) -> u64, den: impl Fn(&Figures) -> u64) -> f64 {
        let d: u64 = self.figures.iter().map(den).sum();
        let n: u64 = self.figures.iter().map(num).sum();
        if d == 0 {
            0.0
        } else {
            n as f64 / d as f64
        }
    }

    /// The first figure that differs from `other`'s, by name.
    pub fn first_difference(&self, other: &Census) -> Option<String> {
        if self.expected != other.expected {
            return Some("expected results".into());
        }
        for (i, (a, b)) in self.figures.iter().zip(&other.figures).enumerate() {
            if a != b {
                return Some(format!("figures of query {i}: {a:?} vs {b:?}"));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_data::batch::batch_of;
    use df_data::Column;

    fn result(ids: Vec<i64>, sums: Vec<f64>) -> Batch {
        batch_of(vec![
            ("id", Column::from_i64(ids)),
            ("total", Column::from_f64(sums)),
        ])
    }

    #[test]
    fn replies_compare_as_multisets_unless_ordered() {
        let want = result(vec![1, 2, 3], vec![0.5, 1.5, 2.5]);
        let shuffled = result(vec![3, 1, 2], vec![2.5, 0.5, 1.5]);
        let unordered = Expected::new(&want, false);
        assert_eq!(
            unordered.check(std::slice::from_ref(&shuffled)),
            Verdict::Exact
        );
        // The same rows split over two frames.
        assert_eq!(
            unordered.check(&[want.slice(0, 1), want.slice(1, 2)]),
            Verdict::Exact
        );
        let ordered = Expected::new(&want, true);
        assert_eq!(ordered.check(std::slice::from_ref(&want)), Verdict::Exact);
        assert_eq!(ordered.check(&[shuffled]), Verdict::Wrong);
    }

    #[test]
    fn float_summation_order_is_close_but_other_changes_are_wrong() {
        let want = Expected::new(&result(vec![1, 2], vec![0.1 + 0.2, 7.0]), false);
        let reordered_sum = result(vec![1, 2], vec![0.3, 7.0]);
        assert_eq!(want.check(&[reordered_sum]), Verdict::Close);
        assert_eq!(
            want.check(&[result(vec![1, 2], vec![0.31, 7.0])]),
            Verdict::Wrong
        );
        assert_eq!(
            want.check(&[result(vec![1, 3], vec![0.1 + 0.2, 7.0])]),
            Verdict::Wrong
        );
        assert_eq!(
            want.check(&[result(vec![1], vec![0.1 + 0.2])]),
            Verdict::Wrong
        );
        assert_eq!(want.check(&[]), Verdict::Wrong);
    }

    #[test]
    fn empty_results_match_empty_replies() {
        let empty = Expected::new(&result(vec![], vec![]), false);
        assert_eq!(empty.check(&[]), Verdict::Exact);
        assert_eq!(empty.check(&[result(vec![1], vec![1.0])]), Verdict::Wrong);
    }
}
