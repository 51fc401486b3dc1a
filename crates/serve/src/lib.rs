//! `mard`: marionette-as-a-service.
//!
//! A std-only HTTP/1.1 daemon that accepts `.mar` source over POST and
//! answers with verified simulation results as JSON. The serving stack
//! is three pieces, each its own module:
//!
//! - [`http`] — the minimal request/response framing (no registry deps:
//!   the container is offline, so the needed slice of HTTP/1.1 is
//!   implemented over `std::net` directly);
//! - [`cache`] — the content-addressed compile cache. Keyed on the
//!   canonical pretty-printed source + preset options + fault set,
//!   bounded LRU, hit/miss/eviction counters. It also holds the memo
//!   of verified front ends, keyed on the exact source + raw parameter
//!   list, under the same bound and with counters of its own;
//! - [`job`] — request decoding and the execution pipeline (memoised
//!   frontend + reference → cache lookup or compile → simulate →
//!   bit-verify vs the reference interpreter). Neither a cache hit nor
//!   a memo hit skips the simulation or its verification.
//!
//! Admission control is structural: accepted connections are fed to a
//! bounded [`marionette::parallel::WorkerPool`]; when the queue is full
//! the *acceptor* answers 429 inline and closes — a saturated server
//! sheds load instead of queueing unboundedly or hanging clients.
//! Per-job timeouts reuse the simulator's own budget machinery (cycle
//! limit, deadlock detector, interpreter firing budget), so a wedging
//! program produces a typed 422, not a stuck worker.
//!
//! The router is pure state + request → response, so the protocol is
//! testable (and usable) without opening a socket:
//!
//! ```
//! use marionette_serve::{route, Counters, ServeConfig, ServerState};
//!
//! let cfg = ServeConfig::default();
//! let state = ServerState {
//!     cache: marionette_serve::cache::CompileCache::new(cfg.cache_cap),
//!     counters: Counters::default(),
//!     metrics: marionette_serve::metrics::Metrics::default(),
//!     cfg,
//! };
//! let req = marionette_serve::http::Request {
//!     method: "GET".to_string(),
//!     path: "/healthz".to_string(),
//!     query: Vec::new(),
//!     headers: Vec::new(),
//!     body: Vec::new(),
//! };
//! let (status, body) = route(&state, 0, &req);
//! assert_eq!(status, 200);
//! assert!(body.contains("\"ok\": true"));
//! ```

pub mod cache;
pub mod http;
pub mod job;
pub mod metrics;

use marionette::parallel::{SubmitError, WorkerPool};
use marionette::report::json_escape;
use std::fmt::Write as _;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tunables. [`ServeConfig::default`] is sized for tests and
/// local use; `mard` exposes each knob as a flag.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads processing requests.
    pub workers: usize,
    /// Bounded admission queue depth; beyond it, connections get 429.
    pub queue_cap: usize,
    /// Compile-cache capacity in entries.
    pub cache_cap: usize,
    /// Request body limit in bytes (413 beyond it).
    pub max_body: usize,
    /// Hard per-job simulation cycle cap. Requests may lower it via
    /// `max-cycles=` but never raise it.
    pub max_cycles: u64,
    /// Firing budget for the reference interpreter — the typed timeout
    /// for wedging or unbounded programs.
    pub interp_budget: u64,
    /// Socket read/write timeout; a slow or stalled client cannot hold
    /// a worker past this.
    pub io_timeout: Option<Duration>,
    /// Emit one structured access-log line (JSON, stderr) per request.
    /// Off by default so in-process tests stay quiet; `mard` turns it
    /// on.
    pub access_log: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 8,
            cache_cap: 64,
            max_body: 256 * 1024,
            max_cycles: 10_000_000,
            interp_budget: 20_000_000,
            io_timeout: Some(Duration::from_secs(10)),
            access_log: false,
        }
    }
}

/// Request-outcome counters, grouped by response class.
#[derive(Default)]
pub struct Counters {
    /// Connections accepted by the listener.
    pub accepted: AtomicU64,
    /// 2xx responses.
    pub ok: AtomicU64,
    /// 429 admission rejections (written by the acceptor).
    pub rejected_429: AtomicU64,
    /// Other 4xx responses.
    pub client_errors: AtomicU64,
    /// 5xx responses.
    pub server_errors: AtomicU64,
}

/// Shared server state: config, cache, counters.
pub struct ServerState {
    /// The server's configuration.
    pub cfg: ServeConfig,
    /// The content-addressed compile cache.
    pub cache: cache::CompileCache,
    /// Request-outcome counters.
    pub counters: Counters,
    /// Observability state: request ids, latency histogram, per-endpoint
    /// counters, busy gauge.
    pub metrics: metrics::Metrics,
}

/// Per-request routing metadata the observability layer reports: which
/// endpoint handled it, the response content type, the cache and memo
/// verdicts, and where the time went. Filled by [`route_with_meta`].
#[derive(Debug)]
pub struct RouteMeta {
    /// Canonical endpoint label (see [`metrics::ENDPOINTS`]).
    pub endpoint: &'static str,
    /// Response `Content-Type`.
    pub content_type: &'static str,
    /// Compile-cache verdict, when the endpoint consulted it.
    pub cache_hit: Option<bool>,
    /// Front-end memo verdict, when the endpoint consulted it: a hit
    /// only when every lookup of the request hit.
    pub memo_hit: Option<bool>,
    /// Microseconds spent parsing, checking, lowering and canonically
    /// printing the source (0 on memo hits).
    pub frontend_us: u64,
    /// Microseconds spent in the two-mode reference interpretation (0
    /// on memo hits).
    pub reference_us: u64,
    /// Microseconds spent compiling (0 on hits and non-run endpoints).
    pub compile_us: u64,
    /// Microseconds spent simulating.
    pub sim_us: u64,
}

impl Default for RouteMeta {
    fn default() -> Self {
        RouteMeta {
            endpoint: "other",
            content_type: "application/json",
            cache_hit: None,
            memo_hit: None,
            frontend_us: 0,
            reference_us: 0,
            compile_us: 0,
            sim_us: 0,
        }
    }
}

fn error_body(kind: &str, detail: &str) -> String {
    format!(
        "{{\n  \"schema\": \"marionette.mard/v1\",\n  \"error\": {{\"kind\": \"{}\", \"detail\": \"{}\"}}\n}}\n",
        json_escape(kind),
        json_escape(detail)
    )
}

fn stats_json(state: &ServerState, depth: usize) -> String {
    let c = &state.counters;
    let cs = state.cache.stats();
    let mut j = String::new();
    j.push_str("{\n  \"schema\": \"marionette.mard/v1\",\n  \"endpoint\": \"stats\",\n");
    let _ = writeln!(
        j,
        "  \"requests\": {{\"accepted\": {}, \"ok\": {}, \"rejected_429\": {}, \"client_errors\": {}, \"server_errors\": {}}},",
        c.accepted.load(Ordering::Relaxed),
        c.ok.load(Ordering::Relaxed),
        c.rejected_429.load(Ordering::Relaxed),
        c.client_errors.load(Ordering::Relaxed),
        c.server_errors.load(Ordering::Relaxed),
    );
    let _ = writeln!(
        j,
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"inserts\": {}, \"entries\": {}}},",
        cs.hits, cs.misses, cs.evictions, cs.inserts, state.cache.len()
    );
    // Distinct key names: clients that read the first `"hits"` of the
    // body get the compile cache's.
    let ms = state.cache.memo_stats();
    let _ = writeln!(
        j,
        "  \"reference_memo\": {{\"memo_hits\": {}, \"memo_misses\": {}, \"memo_evictions\": {}, \"memo_inserts\": {}, \"memo_entries\": {}}},",
        ms.hits, ms.misses, ms.evictions, ms.inserts, state.cache.memo_len()
    );
    let _ = writeln!(
        j,
        "  \"queue\": {{\"depth\": {}, \"capacity\": {}, \"workers\": {}}},",
        depth, state.cfg.queue_cap, state.cfg.workers
    );
    let _ = writeln!(j, "  \"uptime_secs\": {},", state.metrics.uptime_secs());
    let eps: Vec<String> = state
        .metrics
        .by_endpoint()
        .iter()
        .map(|(e, n)| format!("\"{e}\": {n}"))
        .collect();
    let _ = writeln!(j, "  \"endpoints\": {{{}}},", eps.join(", "));
    let _ = writeln!(
        j,
        "  \"limits\": {{\"max_body\": {}, \"max_cycles\": {}, \"interp_budget\": {}}}",
        state.cfg.max_body, state.cfg.max_cycles, state.cfg.interp_budget
    );
    j.push_str("}\n");
    j
}

/// Routes one parsed request to its handler. Exposed for in-process
/// protocol tests that want to skip the socket layer.
pub fn route(state: &ServerState, depth: usize, req: &http::Request) -> (u16, String) {
    let mut meta = RouteMeta::default();
    route_with_meta(state, depth, req, &mut meta)
}

/// [`route`] plus the per-request metadata the observability layer
/// (counters, access log, `Content-Type` selection) needs.
pub fn route_with_meta(
    state: &ServerState,
    depth: usize,
    req: &http::Request,
    meta: &mut RouteMeta,
) -> (u16, String) {
    meta.endpoint = metrics::endpoint_of(&req.path);
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, "{\"ok\": true}\n".to_string()),
        ("GET", "/stats") => (200, stats_json(state, depth)),
        ("GET", "/metrics") => {
            meta.content_type = "text/plain; version=0.0.4";
            (200, metrics::render_prometheus(state, depth))
        }
        ("POST", "/run") => match job::handle_run(state, req, meta) {
            Ok(body) => (200, body),
            Err(e) => (e.status, e.to_json()),
        },
        ("POST", "/batch") => match job::handle_batch(state, req, meta) {
            Ok(body) => (200, body),
            Err(e) => (e.status, e.to_json()),
        },
        (_, "/healthz" | "/stats" | "/metrics" | "/run" | "/batch") => (
            405,
            error_body(
                "method_not_allowed",
                &format!("{} is not supported on {}", req.method, req.path),
            ),
        ),
        (_, p) => (
            404,
            error_body("not_found", &format!("no such endpoint `{p}`")),
        ),
    }
}

fn count_status(state: &ServerState, status: u16) {
    let c = &state.counters;
    let bucket = match status {
        200..=299 => &c.ok,
        429 => &c.rejected_429,
        400..=499 => &c.client_errors,
        _ => &c.server_errors,
    };
    bucket.fetch_add(1, Ordering::Relaxed);
}

/// One structured access-log line (JSON, written to stderr by the
/// caller). `method`/`path` are `-` when the request never parsed.
fn access_log_line(
    id: u64,
    method: &str,
    path: &str,
    status: u16,
    meta: &RouteMeta,
    total_us: u64,
) -> String {
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64());
    let verdict = |hit| match hit {
        Some(true) => "\"hit\"",
        Some(false) => "\"miss\"",
        None => "null",
    };
    format!(
        "{{\"log\":\"mard.access\",\"ts\":{ts:.3},\"id\":{id},\"method\":\"{}\",\"path\":\"{}\",\"endpoint\":\"{}\",\"status\":{status},\"cache\":{},\"memo\":{},\"frontend_us\":{},\"reference_us\":{},\"compile_us\":{},\"sim_us\":{},\"total_us\":{total_us}}}",
        json_escape(method),
        json_escape(path),
        meta.endpoint,
        verdict(meta.cache_hit),
        verdict(meta.memo_hit),
        meta.frontend_us,
        meta.reference_us,
        meta.compile_us,
        meta.sim_us,
    )
}

/// Worker-side connection handler: read, route, respond, close.
fn handle_connection(state: &ServerState, pool_depth: usize, stream: TcpStream) {
    let _ = stream.set_read_timeout(state.cfg.io_timeout);
    let _ = stream.set_write_timeout(state.cfg.io_timeout);
    let id = state.metrics.next_request_id();
    state.metrics.busy.fetch_add(1, Ordering::Relaxed);
    let t0 = std::time::Instant::now();
    let mut meta = RouteMeta::default();
    let mut method = "-".to_string();
    let mut path = "-".to_string();
    let (status, body) = match http::read_request(&stream, state.cfg.max_body) {
        Ok(req) => {
            method.clone_from(&req.method);
            path.clone_from(&req.path);
            route_with_meta(state, pool_depth, &req, &mut meta)
        }
        Err(http::HttpError::LengthRequired) => (
            411,
            error_body("length_required", "POST bodies need a Content-Length"),
        ),
        Err(http::HttpError::TooLarge { declared, limit }) => (
            413,
            error_body(
                "body_too_large",
                &format!("declared body of {declared} bytes exceeds the {limit}-byte limit"),
            ),
        ),
        Err(http::HttpError::Malformed(d)) => (400, error_body("malformed_request", &d)),
        Err(http::HttpError::Io(_)) => {
            // The client vanished or stalled past the timeout; there is
            // nobody left to answer.
            state.metrics.busy.fetch_sub(1, Ordering::Relaxed);
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };
    count_status(state, status);
    state.metrics.record(meta.endpoint, status);
    let total_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
    state.metrics.latency.observe(total_us);
    state.metrics.busy.fetch_sub(1, Ordering::Relaxed);
    if state.cfg.access_log {
        eprintln!(
            "{}",
            access_log_line(id, &method, &path, status, &meta, total_us)
        );
    }
    let request_id = id.to_string();
    let _ = http::write_response_ext(
        &stream,
        status,
        meta.content_type,
        &[("X-Request-Id", &request_id)],
        &body,
    );
    let _ = stream.shutdown(Shutdown::Both);
}

/// A running `mard` instance: listener + acceptor thread + worker pool.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    pool: Option<Arc<WorkerPool<TcpStream>>>,
    stopping: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and acceptor, and returns
    /// immediately. The bound address (with the resolved port) is
    /// [`Server::addr`].
    ///
    /// # Errors
    /// Returns the bind error.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            cache: cache::CompileCache::new(cfg.cache_cap),
            counters: Counters::default(),
            metrics: metrics::Metrics::default(),
            cfg,
        });
        let stopping = Arc::new(AtomicBool::new(false));

        let worker_state = Arc::clone(&state);
        // The pool's handler needs the pool's own depth for /stats; tie
        // the knot with a lazily-filled Weak so the handler does not keep
        // the pool alive (stop() unwraps the last strong handle).
        let depth_pool: Arc<std::sync::OnceLock<std::sync::Weak<WorkerPool<TcpStream>>>> =
            Arc::new(std::sync::OnceLock::new());
        let depth_probe = Arc::clone(&depth_pool);
        let pool = Arc::new(WorkerPool::new(
            state.cfg.workers,
            state.cfg.queue_cap,
            move |stream: TcpStream| {
                let depth = depth_probe
                    .get()
                    .and_then(std::sync::Weak::upgrade)
                    .map_or(0, |p| p.depth());
                handle_connection(&worker_state, depth, stream);
            },
        ));
        let _ = depth_pool.set(Arc::downgrade(&pool));

        let accept_state = Arc::clone(&state);
        let accept_pool = Arc::clone(&pool);
        let accept_stop = Arc::clone(&stopping);
        let acceptor = std::thread::Builder::new()
            .name("mard-acceptor".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    accept_state
                        .counters
                        .accepted
                        .fetch_add(1, Ordering::Relaxed);
                    match accept_pool.try_submit(stream) {
                        Ok(()) => {}
                        Err(SubmitError::QueueFull(stream))
                        | Err(SubmitError::ShuttingDown(stream)) => {
                            // Shed load from the acceptor itself: a full
                            // queue must answer fast, never block.
                            accept_state
                                .counters
                                .rejected_429
                                .fetch_add(1, Ordering::Relaxed);
                            accept_state.metrics.record("admission", 429);
                            let _ = stream.set_write_timeout(accept_state.cfg.io_timeout);
                            let _ = http::write_response(
                                &stream,
                                429,
                                &error_body(
                                    "queue_full",
                                    "admission queue at capacity; retry later",
                                ),
                            );
                            let _ = stream.shutdown(Shutdown::Both);
                        }
                    }
                }
            })?;

        Ok(Server {
            addr,
            state,
            pool: Some(pool),
            stopping,
            acceptor: Some(acceptor),
        })
    }

    /// The bound socket address (resolved port included).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state handle (cache + counters), for tests and loadgen.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Blocks until the acceptor exits (i.e. forever, short of
    /// [`Server::stop`] from another thread or a listener error).
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }

    /// Stops accepting, drains queued connections, and joins every
    /// thread. In-flight requests complete; new connections are refused.
    pub fn stop(mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept with a throwaway
        // connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // The acceptor's pool handle is gone once it exits; ours is the
        // last strong one, so unwrap and drain.
        if let Some(pool) = self.pool.take() {
            // Failing the unwrap (acceptor died without dropping its
            // handle) still drains: the pool's Drop marks shutdown.
            if let Ok(pool) = Arc::try_unwrap(pool) {
                pool.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_log_line_carries_both_verdicts_and_every_stage() {
        let meta = RouteMeta {
            endpoint: "run",
            cache_hit: Some(true),
            memo_hit: Some(false),
            frontend_us: 57,
            reference_us: 131,
            sim_us: 198,
            ..RouteMeta::default()
        };
        let line = access_log_line(7, "POST", "/run", 200, &meta, 400);
        assert!(
            line.ends_with(r#""status":200,"cache":"hit","memo":"miss","frontend_us":57,"reference_us":131,"compile_us":0,"sim_us":198,"total_us":400}"#),
            "{line}"
        );
        let idle = access_log_line(8, "GET", "/healthz", 200, &RouteMeta::default(), 5);
        assert!(
            idle.contains(r#""cache":null,"memo":null,"frontend_us":0,"reference_us":0,"#),
            "{idle}"
        );
    }
}
