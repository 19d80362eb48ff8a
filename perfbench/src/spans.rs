//! In-memory span recording for the traced run.
//!
//! Each span is one call into a layer's public function, timed from the
//! outside. Spans stay in memory while the run measures and are written
//! once at the end; each layer's self time (duration minus child spans) is
//! computed from them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `sql.parse`.
    pub name: &'static str,
    /// Query sequence number within the caller.
    pub query: u64,
    /// Caller (thread) index.
    pub caller: usize,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Start and end, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One caller's spans, with a stack of the currently open ones.
pub struct Recorder {
    epoch: Instant,
    caller: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder for `caller`; all recorders of a run share `epoch`.
    pub fn new(epoch: Instant, caller: usize) -> Recorder {
        Recorder {
            epoch,
            caller,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, query: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            query,
            caller: self.caller,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one); returns its duration.
    pub fn close(&mut self, id: usize) -> u64 {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost-first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns()
    }

    /// Time `f` as a span with no children.
    pub fn time<T>(&mut self, name: &'static str, query: u64, f: impl FnOnce() -> T) -> T {
        self.timed(name, query, f).0
    }

    /// Time `f` as a span with no children; also returns its duration.
    pub fn timed<T>(&mut self, name: &'static str, query: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.open(name, query);
        let out = f();
        let ns = self.close(id);
        (out, ns)
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus its children's.
/// `spans` holds one recorder's spans, so `parent` indexes into it.
fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per layer, the summed self time (ns) of its spans in each query, keyed
/// by (caller, query id).
pub type LayerTotals = BTreeMap<&'static str, BTreeMap<(usize, u64), u64>>;

/// Self times of every recorder's spans, summed per layer and query.
pub fn per_query_self_ns(recorders: &[Vec<Span>]) -> LayerTotals {
    let mut out = LayerTotals::new();
    for spans in recorders {
        for (s, own) in spans.iter().zip(self_times_ns(spans)) {
            *out.entry(s.name)
                .or_default()
                .entry((s.caller, s.query))
                .or_default() += own;
        }
    }
    out
}

/// The spans as a JSON document: `{"spans": [...], "self_time": {...}}`,
/// where `self_time` gives each layer's query count, total self time and
/// median self time per query.
pub fn to_json(recorders: &[Vec<Span>], totals: &LayerTotals) -> String {
    let mut out = String::from("{\"spans\": [\n");
    let mut base = 0usize;
    for spans in recorders {
        for (i, s) in spans.iter().enumerate() {
            if base + i > 0 {
                out.push_str(",\n");
            }
            let parent = s
                .parent
                .map_or("null".to_string(), |p| (base + p).to_string());
            let _ = write!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"query\": {}, \"caller\": {}, \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                base + i,
                s.name,
                s.query,
                s.caller,
                s.start_ns,
                s.end_ns
            );
        }
        base += spans.len();
    }
    out.push_str("\n], \"self_time\": {\n");
    let rows: Vec<String> = totals
        .iter()
        .map(|(name, per_query)| {
            let v: Vec<u64> = per_query.values().copied().collect();
            format!(
                "  \"{name}\": {{\"queries\": {}, \"total_ns\": {}, \"median_ns\": {}}}",
                v.len(),
                v.iter().sum::<u64>(),
                crate::stats::median_u64(&v)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n}}\n");
    out
}
