//! Spans recorded by the benchmark around its own calls into each
//! layer. A request root span and its children share a request id;
//! spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name, e.g. `request` or `Client::tick_batch`.
    pub name: &'static str,
    /// Request id shared by a root and its children.
    pub request: u64,
    /// Whether this is the request's root span.
    pub root: bool,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// The in-memory span store. When off, `now` returns 0 and spans are
/// dropped, so untraced phases pay only a branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Self time of one span name: its total duration minus the parts of
/// its interval covered by child spans of the same request.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Turns recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// A timestamp for a span start (0 when off).
    pub fn now(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Records a span that started at `start_ns` and ends now.
    pub fn record(&mut self, name: &'static str, request: u64, root: bool, start_ns: u64) {
        if self.on {
            let end_ns = self.now();
            self.spans.push(Span {
                name,
                request,
                root,
                start_ns,
                end_ns,
            });
        }
    }

    /// Total duration of the spans named `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time per span name. Children of one request never overlap
    /// (the load loop is sequential), so a root's self time is its
    /// duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| !s.root) {
            *child_ns.entry(s.request).or_default() += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let own = if s.root {
                dur.saturating_sub(child_ns.get(&s.request).copied().unwrap_or(0))
            } else {
                dur
            };
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += own;
        }
        out
    }

    /// Adds replay spans measured elsewhere as one aggregate line each.
    pub fn summary_csv(&self, extra: &[(&str, u64, u64)]) -> String {
        let mut out = String::from("name,count,total_ns,self_ns,mean_self_ns\n");
        for (name, t) in self.self_times() {
            let mean = t.self_ns as f64 / t.count.max(1) as f64;
            let _ = writeln!(
                out,
                "{name},{},{},{},{mean:.1}",
                t.count, t.total_ns, t.self_ns
            );
        }
        for &(name, count, ns) in extra {
            let mean = ns as f64 / count.max(1) as f64;
            let _ = writeln!(out, "{name},{count},{ns},{ns},{mean:.1}");
        }
        out
    }

    /// Every span as CSV (`name,request,root,start_ns,end_ns`).
    pub fn spans_csv(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 48 + 64);
        out.push_str("name,request,root,start_ns,end_ns\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                s.name, s.request, s.root as u8, s.start_ns, s.end_ns
            );
        }
        out
    }
}
