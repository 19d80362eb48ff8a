//! Seeded workloads: the dataset scale, the query templates, and the query
//! sequence each caller runs.
//!
//! The seed drives data generation and every query parameter; the engine
//! only ever sees the generated tables and the SQL text built here.

use std::collections::BTreeMap;

/// Rows of the two generated tables.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `lineitem` rows (about 4 per order key, 100 per ship day).
    pub lineitem: usize,
    /// `orders` rows.
    pub orders: usize,
}

impl Scale {
    /// The benchmark's dataset: about 36 MB in memory.
    pub const FULL: Scale = Scale {
        lineitem: 400_000,
        orders: 100_000,
    };

    /// `lineitem` rows with a quarter as many `orders`, as in [`Scale::FULL`].
    pub fn of(lineitem: usize) -> Scale {
        Scale {
            lineitem,
            orders: lineitem / 4,
        }
    }

    /// Largest `l_orderkey` plus one.
    fn order_keys(self) -> u64 {
        (self.lineitem as u64 / 4).max(1)
    }

    /// Ship days spanned by `lineitem` (before the generator's 30-day jitter).
    fn ship_days(self) -> u64 {
        (self.lineitem as u64 / 100).max(1)
    }
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One caller through `Session` at parallelism 1: key lookups and
    /// narrow key-range aggregates, where fixed per-query costs dominate.
    Point,
    /// One caller through `Session` at parallelism 2: seven analytic queries
    /// round-robin, where scans and operators dominate.
    Olap,
    /// Two tenant connections to an in-process `df-serve` on loopback.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Point, Workload::Olap, Workload::Serve];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Point => "point",
            Workload::Olap => "olap",
            Workload::Serve => "serve",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Executor worker count of the session (fixed, not read from the host).
    pub fn parallelism(self) -> usize {
        match self {
            Workload::Olap => 2,
            Workload::Point | Workload::Serve => 1,
        }
    }

    /// Template names; a query's `template` indexes this list.
    pub fn templates(self) -> &'static [&'static str] {
        match self {
            Workload::Point => &["lookup", "range_agg"],
            Workload::Olap => &[
                "count",
                "groupby",
                "like",
                "join",
                "top10",
                "wide_scan",
                "revenue",
            ],
            Workload::Serve => &["lookup", "groupby", "wide_scan"],
        }
    }

    /// Queries in one round-robin cycle of a caller's stream, when callers
    /// cycle a fixed pattern (`point`: lookup, lookup, range aggregate;
    /// `olap`: each template once). `serve` draws a shuffled mix instead.
    pub fn pass_len(self) -> Option<usize> {
        match self {
            Workload::Point => Some(POINT_PATTERN.len()),
            Workload::Olap => Some(self.templates().len()),
            Workload::Serve => None,
        }
    }
}

/// One distinct query.
#[derive(Debug, Clone)]
pub struct Query {
    /// The SQL text the engine receives.
    pub sql: String,
    /// Index into [`Workload::templates`].
    pub template: usize,
    /// True when the result order is part of the answer (`ORDER BY`).
    pub ordered: bool,
}

/// A workload's distinct queries and the order each caller runs them in.
#[derive(Debug, Clone)]
pub struct QuerySet {
    /// The workload.
    pub workload: Workload,
    /// Every distinct query, each once.
    pub distinct: Vec<Query>,
    /// Per caller: indices into `distinct`, run in order and cycled.
    pub streams: Vec<Vec<usize>>,
}

/// Templates of one `point` cycle. Two lookups per range aggregate keep
/// the latency median inside one template's samples rather than on the
/// boundary between two.
const POINT_PATTERN: [usize; 3] = [0, 0, 1];

/// Cycles of [`POINT_PATTERN`] in the `point` stream.
const POINT_CYCLES: usize = 86;

/// Queries per `serve` connection before its sequence repeats, and its mix
/// (template, count). The shares put the 50th, 90th and 99th latency
/// percentiles inside one template's samples each.
const SERVE_STREAM: usize = 100;
const SERVE_MIX: [(usize, usize); 3] = [(0, 88), (1, 9), (2, 3)];

/// Fair-share weights of the `serve` tenants, one connection each.
pub const SERVE_WEIGHTS: [u32; 2] = [1, 2];

/// The key-lookup query (`point` and `serve`).
fn lookup(key: u64) -> String {
    format!("SELECT * FROM lineitem WHERE l_orderkey = {key}")
}

impl QuerySet {
    /// Build the workload's queries from `seed`.
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> QuerySet {
        let mut rng = Rng::new(seed ^ 0x9E6C_63D0_676A_9A99);
        let keys = scale.order_keys();
        let days = scale.ship_days();
        let mut set = QuerySet {
            workload,
            distinct: Vec::new(),
            streams: Vec::new(),
        };
        match workload {
            Workload::Point => {
                let mut stream = Vec::new();
                for _ in 0..POINT_CYCLES {
                    for t in POINT_PATTERN {
                        let sql = if t == 0 {
                            lookup(rng.below(keys))
                        } else {
                            let k = rng.below(keys.saturating_sub(100).max(1));
                            format!(
                                "SELECT COUNT(*) AS n, SUM(l_quantity) AS q, AVG(l_price) AS p \
                                 FROM lineitem WHERE l_orderkey BETWEEN {k} AND {}",
                                k + 100
                            )
                        };
                        stream.push(set.intern(sql, t, false));
                    }
                }
                set.streams.push(stream);
            }
            Workload::Olap => {
                // Ranges start past the first days, whose rows thin out
                // (ship dates jitter forward), so every seed scans about
                // as many rows.
                let mut start = || days / 10 + rng.below(days / 40 + 1);
                let (group_from, join_from, scan_from, revenue_from) =
                    (start(), start(), start(), start());
                let quantity = 25 + rng.below(3);
                let like_quantity = 1 + rng.below(3);
                let top_quantity = 1 + rng.below(3);
                let revenue_quantity = 24 + rng.below(3);
                let sqls = [
                    format!("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity <= {quantity}"),
                    format!(
                        "SELECT l_region, SUM(l_price) AS revenue, AVG(l_discount) AS disc, \
                         COUNT(*) AS n FROM lineitem WHERE l_shipdate BETWEEN {group_from} AND {} \
                         GROUP BY l_region",
                        group_from + days / 2
                    ),
                    format!(
                        "SELECT COUNT(*) AS n FROM lineitem \
                         WHERE l_comment LIKE '%urgent%' AND l_quantity >= {like_quantity}"
                    ),
                    format!(
                        "SELECT o_priority, COUNT(*) AS n, SUM(l_quantity) AS q \
                         FROM lineitem JOIN orders ON l_orderkey = o_orderkey \
                         WHERE l_shipdate BETWEEN {join_from} AND {} GROUP BY o_priority",
                        join_from + days / 4
                    ),
                    format!(
                        "SELECT l_orderkey, l_price FROM lineitem \
                         WHERE l_discount <= 0.04 AND l_quantity > {top_quantity} \
                         ORDER BY l_price DESC LIMIT 10"
                    ),
                    format!(
                        "SELECT * FROM lineitem WHERE l_shipdate BETWEEN {scan_from} AND {}",
                        scan_from + days / 8
                    ),
                    format!(
                        "SELECT COUNT(*) AS n, SUM(l_price) AS revenue FROM lineitem \
                         WHERE l_shipdate BETWEEN {revenue_from} AND {} \
                         AND l_discount BETWEEN 0.02 AND 0.04 AND l_quantity < {revenue_quantity}",
                        revenue_from + days / 4
                    ),
                ];
                let stream = sqls
                    .into_iter()
                    .enumerate()
                    .map(|(t, sql)| set.intern(sql, t, t == 4))
                    .collect();
                set.streams.push(stream);
            }
            Workload::Serve => {
                for _ in SERVE_WEIGHTS {
                    // An exact mix per connection, shuffled: every seed runs
                    // the same share of each template.
                    let mut templates: Vec<usize> = SERVE_MIX
                        .iter()
                        .flat_map(|&(t, n)| std::iter::repeat_n(t, n))
                        .collect();
                    debug_assert_eq!(templates.len(), SERVE_STREAM);
                    rng.shuffle(&mut templates);
                    let mut stream = Vec::new();
                    for t in templates {
                        let sql = match t {
                            0 => lookup(rng.below(keys)),
                            1 => {
                                let d = days / 10 + rng.below(days * 4 / 5);
                                format!(
                                    "SELECT l_region, COUNT(*) AS n, SUM(l_quantity) AS q \
                                     FROM lineitem WHERE l_shipdate BETWEEN {d} AND {} \
                                     GROUP BY l_region",
                                    d + days / 80
                                )
                            }
                            _ => {
                                let d = days / 10 + rng.below(days * 4 / 5);
                                format!(
                                    "SELECT l_orderkey, l_partkey, l_quantity, l_price, \
                                     l_shipdate FROM lineitem WHERE l_shipdate BETWEEN {d} AND {}",
                                    d + days / 40
                                )
                            }
                        };
                        stream.push(set.intern(sql, t, false));
                    }
                    set.streams.push(stream);
                }
            }
        }
        set
    }

    /// The index of `sql` in `distinct`, adding it on first sight.
    fn intern(&mut self, sql: String, template: usize, ordered: bool) -> usize {
        if let Some(i) = self.distinct.iter().position(|q| q.sql == sql) {
            return i;
        }
        self.distinct.push(Query {
            sql,
            template,
            ordered,
        });
        self.distinct.len() - 1
    }

    /// Distinct queries per template (for the run summary).
    pub fn template_counts(&self) -> BTreeMap<&'static str, usize> {
        let names = self.workload.templates();
        let mut out = BTreeMap::new();
        for q in &self.distinct {
            *out.entry(names[q.template]).or_insert(0) += 1;
        }
        out
    }
}

/// splitmix64: the benchmark's own generator, so query parameters do not
/// shift when the engine's generator changes.
struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0).
    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// Fisher-Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_follow_the_seed() {
        for w in Workload::ALL {
            let a = QuerySet::generate(w, Scale::FULL, 7);
            let b = QuerySet::generate(w, Scale::FULL, 7);
            let c = QuerySet::generate(w, Scale::FULL, 8);
            let sqls = |s: &QuerySet| s.distinct.iter().map(|q| q.sql.clone()).collect::<Vec<_>>();
            assert_eq!(sqls(&a), sqls(&b));
            assert_eq!(a.streams, b.streams);
            assert_ne!(sqls(&a), sqls(&c), "{}", w.name());
        }
    }

    #[test]
    fn streams_cycle_whole_passes() {
        for w in Workload::ALL {
            for scale in [Scale::of(8_000), Scale::FULL] {
                let set = QuerySet::generate(w, scale, 3);
                assert_eq!(set.streams.len(), if w == Workload::Serve { 2 } else { 1 });
                for stream in &set.streams {
                    if let Some(len) = w.pass_len() {
                        assert_eq!(stream.len() % len, 0, "{}", w.name());
                    }
                    assert!(stream.iter().all(|&i| i < set.distinct.len()));
                }
            }
        }
    }

    #[test]
    fn serve_mix_is_exact_per_connection() {
        let set = QuerySet::generate(Workload::Serve, Scale::FULL, 11);
        for stream in &set.streams {
            assert_eq!(stream.len(), SERVE_STREAM);
            for (t, n) in SERVE_MIX {
                let got = stream
                    .iter()
                    .filter(|&&i| set.distinct[i].template == t)
                    .count();
                assert_eq!(got, n);
            }
        }
    }
}
