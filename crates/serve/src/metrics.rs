//! Server metrics: a fixed-bucket latency histogram, per-endpoint ×
//! status request counters, and the Prometheus text rendering behind
//! `GET /metrics`.
//!
//! Everything here is lock-free on the hot path except the
//! endpoint×status counter map, which takes one short mutex per
//! request — `mard`'s request rate is bounded by simulation time, not
//! by counter contention. The same [`Histogram`] type backs `loadgen`'s
//! client-side latency report, so the served histogram and the
//! benchmark snapshot bucket identically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Upper bucket bounds of the latency histogram, in microseconds.
/// The last implicit bucket is +Inf. Spanning 100 µs – 10 s covers a
/// cache-hit `/healthz` through a worst-case cold compile + simulate.
pub const BUCKET_BOUNDS_US: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// A fixed-bucket histogram of microsecond observations. All-atomic:
/// `observe` is wait-free and safe from any thread.
#[derive(Debug)]
pub struct Histogram {
    /// Per-bucket (non-cumulative) counts, one per bound plus +Inf.
    buckets: Vec<AtomicU64>,
    sum_us: AtomicU64,
    count: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram over [`BUCKET_BOUNDS_US`].
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: (0..=BUCKET_BOUNDS_US.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one observation of `us` microseconds.
    pub fn observe(&self, us: u64) {
        let i = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in microseconds.
    #[must_use]
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Largest observation, in microseconds.
    #[must_use]
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Cumulative counts per bound (`le` semantics), ending with the
    /// +Inf total — the shape Prometheus histograms publish.
    #[must_use]
    pub fn cumulative(&self) -> Vec<u64> {
        let mut total = 0u64;
        self.buckets
            .iter()
            .map(|b| {
                total += b.load(Ordering::Relaxed);
                total
            })
            .collect()
    }

    /// Upper-bound estimate of the `q`-quantile (0.0–1.0) from the
    /// bucket boundaries: the bound of the first bucket whose cumulative
    /// count reaches `q × count`. Observations past the last bound
    /// report the recorded maximum.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let cum = self.cumulative();
        for (i, &c) in cum.iter().enumerate() {
            if c >= rank {
                return match BUCKET_BOUNDS_US.get(i) {
                    Some(&bound) => bound.min(self.max_us()),
                    None => self.max_us(),
                };
            }
        }
        self.max_us()
    }
}

/// The endpoints `mard` distinguishes in counters and logs. Unknown
/// paths collapse into `other` so a path-scanning client cannot grow
/// the counter map without bound.
pub const ENDPOINTS: &[&str] = &[
    "healthz",
    "stats",
    "metrics",
    "run",
    "batch",
    "admission",
    "other",
];

/// Canonical endpoint label for a request path.
#[must_use]
pub fn endpoint_of(path: &str) -> &'static str {
    match path {
        "/healthz" => "healthz",
        "/stats" => "stats",
        "/metrics" => "metrics",
        "/run" => "run",
        "/batch" => "batch",
        _ => "other",
    }
}

/// Aggregated server metrics, shared across workers and the acceptor.
#[derive(Debug)]
pub struct Metrics {
    /// Server start time, for `uptime_secs`.
    pub started: Instant,
    /// Monotonic request-id source (first request is 1).
    pub request_seq: AtomicU64,
    /// Workers currently inside a request handler.
    pub busy: AtomicU64,
    /// End-to-end request latency (read → route → respond).
    pub latency: Histogram,
    /// Requests by (endpoint, status).
    by_endpoint_status: Mutex<std::collections::BTreeMap<(&'static str, u16), u64>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            request_seq: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            latency: Histogram::new(),
            by_endpoint_status: Mutex::new(std::collections::BTreeMap::new()),
        }
    }
}

impl Metrics {
    /// Allocates the next request id.
    pub fn next_request_id(&self) -> u64 {
        self.request_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Counts one finished request.
    pub fn record(&self, endpoint: &'static str, status: u16) {
        let mut map = self.by_endpoint_status.lock().expect("metrics lock");
        *map.entry((endpoint, status)).or_insert(0) += 1;
    }

    /// Snapshot of the (endpoint, status) counters.
    #[must_use]
    pub fn by_endpoint_status(&self) -> Vec<((&'static str, u16), u64)> {
        self.by_endpoint_status
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// Total requests per endpoint, in [`ENDPOINTS`] order (endpoints
    /// with no traffic report 0).
    #[must_use]
    pub fn by_endpoint(&self) -> Vec<(&'static str, u64)> {
        let snap = self.by_endpoint_status();
        ENDPOINTS
            .iter()
            .map(|&e| {
                (
                    e,
                    snap.iter()
                        .filter(|((ep, _), _)| *ep == e)
                        .map(|(_, n)| n)
                        .sum(),
                )
            })
            .collect()
    }

    /// Whole seconds since the server started.
    #[must_use]
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }
}

/// Renders the Prometheus text exposition (version 0.0.4) for the
/// server: request counters by endpoint+status, cache and front-end
/// memo counters, queue and worker gauges, and the latency histogram in
/// seconds.
#[must_use]
pub fn render_prometheus(state: &crate::ServerState, depth: usize) -> String {
    use std::fmt::Write as _;
    let m = &state.metrics;
    let cs = state.cache.stats();
    let ms = state.cache.memo_stats();
    let mut s = String::with_capacity(2048);

    s.push_str("# HELP mard_requests_total Requests served, by endpoint and status.\n");
    s.push_str("# TYPE mard_requests_total counter\n");
    for ((endpoint, status), n) in m.by_endpoint_status() {
        let _ = writeln!(
            s,
            "mard_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {n}"
        );
    }

    s.push_str("# HELP mard_errors_total Non-2xx responses, by endpoint and status.\n");
    s.push_str("# TYPE mard_errors_total counter\n");
    for ((endpoint, status), n) in m.by_endpoint_status() {
        if !(200..300).contains(&status) {
            let _ = writeln!(
                s,
                "mard_errors_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {n}"
            );
        }
    }

    for (name, help, value) in [
        ("mard_cache_hits_total", "Compile-cache hits.", cs.hits),
        (
            "mard_cache_misses_total",
            "Compile-cache misses.",
            cs.misses,
        ),
        (
            "mard_cache_evictions_total",
            "Compile-cache LRU evictions.",
            cs.evictions,
        ),
        (
            "mard_reference_memo_hits_total",
            "Front-end memo hits (frontend and reference skipped).",
            ms.hits,
        ),
        (
            "mard_reference_memo_misses_total",
            "Front-end memo misses.",
            ms.misses,
        ),
        (
            "mard_reference_memo_evictions_total",
            "Front-end memo LRU evictions.",
            ms.evictions,
        ),
    ] {
        let _ = writeln!(s, "# HELP {name} {help}\n# TYPE {name} counter");
        let _ = writeln!(s, "{name} {value}");
    }
    for (name, help, value) in [
        (
            "mard_cache_entries",
            "Compile-cache entries resident.",
            state.cache.len() as u64,
        ),
        (
            "mard_reference_memo_entries",
            "Front-end memo entries resident.",
            state.cache.memo_len() as u64,
        ),
        (
            "mard_queue_depth",
            "Connections waiting in the admission queue.",
            depth as u64,
        ),
        (
            "mard_queue_capacity",
            "Admission queue capacity.",
            state.cfg.queue_cap as u64,
        ),
        ("mard_workers", "Worker threads.", state.cfg.workers as u64),
        (
            "mard_workers_busy",
            "Workers currently handling a request.",
            m.busy.load(Ordering::Relaxed),
        ),
        (
            "mard_uptime_seconds",
            "Seconds since the server started.",
            m.uptime_secs(),
        ),
    ] {
        let _ = writeln!(s, "# HELP {name} {help}\n# TYPE {name} gauge");
        let _ = writeln!(s, "{name} {value}");
    }

    s.push_str("# HELP mard_request_latency_seconds End-to-end request latency.\n");
    s.push_str("# TYPE mard_request_latency_seconds histogram\n");
    let cum = m.latency.cumulative();
    for (i, &bound) in BUCKET_BOUNDS_US.iter().enumerate() {
        let _ = writeln!(
            s,
            "mard_request_latency_seconds_bucket{{le=\"{}\"}} {}",
            bound as f64 / 1e6,
            cum[i]
        );
    }
    let _ = writeln!(
        s,
        "mard_request_latency_seconds_bucket{{le=\"+Inf\"}} {}",
        m.latency.count()
    );
    let _ = writeln!(
        s,
        "mard_request_latency_seconds_sum {}",
        m.latency.sum_us() as f64 / 1e6
    );
    let _ = writeln!(
        s,
        "mard_request_latency_seconds_count {}",
        m.latency.count()
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile_us(0.5), 0);
        for us in [50, 200, 200, 900, 30_000_000] {
            h.observe(us);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_us(), 30_001_350);
        assert_eq!(h.max_us(), 30_000_000);
        let cum = h.cumulative();
        // 50 ≤ 100; 200s ≤ 250; 900 ≤ 1000; 30 s overflows to +Inf.
        assert_eq!(cum[0], 1);
        assert_eq!(cum[1], 3);
        assert_eq!(cum[3], 4);
        assert_eq!(*cum.last().unwrap(), 5);
        assert_eq!(h.quantile_us(0.5), 250);
        // p99 of 5 observations is the max, which lives in +Inf.
        assert_eq!(h.quantile_us(0.99), 30_000_000);
        // The quantile never reports past the recorded max.
        let h2 = Histogram::new();
        h2.observe(120);
        assert_eq!(h2.quantile_us(0.5), 120);
    }

    #[test]
    fn endpoint_labels_are_closed() {
        assert_eq!(endpoint_of("/run"), "run");
        assert_eq!(endpoint_of("/metrics"), "metrics");
        assert_eq!(endpoint_of("/../etc/passwd"), "other");
        for e in ENDPOINTS {
            assert!(e.chars().all(|c| c.is_ascii_lowercase()));
        }
    }
}
