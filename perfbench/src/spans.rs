//! Outside-in tracing: spans taken by the benchmark around its calls
//! into each layer's public functions, kept in memory and reduced to
//! per-layer self times when the run ends.
//!
//! Every operation (one sweep point, one served request) owns a root
//! span; the layer calls it makes are child spans sharing its id. A
//! span's self time is its duration minus the time its children cover,
//! so the root's self time is the part of the operation no layer span
//! accounts for — reported as `trace.unattributed_us`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Layer-qualified name (`sim.run`, `compiler.compile`, ...).
    pub name: &'static str,
    /// Index of the enclosing span, `None` for an operation root.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch (0 while open).
    pub end_ns: u64,
}

/// In-memory span recorder.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    ops: u64,
    enabled: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            ops: 0,
            enabled: true,
        }
    }
}

impl Recorder {
    /// A recorder that takes no spans (and reads no clock), to time the
    /// same staged code with tracing off.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::default()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of a new operation and returns its index.
    pub fn begin_op(&mut self) -> usize {
        self.ops += 1;
        if !self.enabled {
            return usize::MAX;
        }
        let op = self.ops;
        self.open(op, "op", None)
    }

    fn open(&mut self, op: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` (the root of an operation, or a child).
    pub fn end(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a child span `name` of `parent`.
    pub fn time<R>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let op = self.spans[parent].op;
        let id = self.open(op, name, Some(parent));
        let r = f();
        self.end(id);
        r
    }

    /// Duration of span `id` in ns.
    pub fn duration_ns(&self, id: usize) -> u64 {
        let Some(s) = self.spans.get(id) else {
            return 0;
        };
        s.end_ns.saturating_sub(s.start_ns)
    }

    /// Operations recorded.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total self time per span name, in ns. The operation roots'
    /// self time is reported under `op`.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_ns[p] += self.duration_ns(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0) += self.duration_ns(i).saturating_sub(child_ns[i]);
        }
        out
    }

    /// Mean self time of `name` per operation, in µs (0 when absent).
    pub fn mean_self_us(&self, self_ns: &BTreeMap<&'static str, u64>, name: &str) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self_ns.get(name).copied().unwrap_or(0) as f64 / self.ops as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::default();
        let op = r.begin_op();
        r.time(op, "a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.time(op, "b", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        std::thread::sleep(std::time::Duration::from_millis(1));
        r.end(op);
        let s = r.self_ns();
        // Self times of the root and its children partition the root.
        assert_eq!(s["op"] + s["a"] + s["b"], r.duration_ns(op));
        assert!(s["a"] >= 2_000_000 && s["b"] >= 1_000_000 && s["op"] >= 1_000_000);
        assert_eq!(r.ops(), 1);
        assert!(r.spans.iter().all(|sp| sp.op == 1));
    }

    #[test]
    fn disabled_recorder_counts_ops_but_takes_no_spans() {
        let mut r = Recorder::disabled();
        let op = r.begin_op();
        assert_eq!(r.time(op, "a", || 7), 7);
        r.end(op);
        assert_eq!(r.ops(), 1);
        assert!(r.spans.is_empty());
        assert_eq!(r.duration_ns(op), 0);
    }
}
