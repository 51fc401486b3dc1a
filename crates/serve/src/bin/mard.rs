//! `mard` — the marionette-as-a-service daemon.
//!
//! Binds a TCP listener, serves `.mar` compilation + simulation over
//! HTTP/1.1 (see `docs/SERVING.md`), and runs until killed.
//!
//! Usage errors (unknown flags, bad values, duplicate flags) exit 2;
//! bind failures exit 1.

use marionette::cli::{opt, Args, Spec};
use marionette_serve::{ServeConfig, Server};
use std::process::ExitCode;

static SPEC: Spec = Spec {
    name: "mard",
    about: "marionette-as-a-service daemon",
    positional: "",
    flags: &[
        opt("--addr", "HOST:PORT", "[default: 127.0.0.1:8431]"),
        opt("--workers", "N", "worker threads [default: 2]"),
        opt("--queue", "N", "admission queue depth [default: 8]"),
        opt("--cache", "N", "compile-cache entries [default: 64]"),
        opt("--max-body", "BYTES", "body limit [default: 262144]"),
        opt("--max-cycles", "N", "sim cycle cap [default: 10000000]"),
        opt("--interp-budget", "N", "firing budget [default: 20000000]"),
    ],
    notes: "\
ENDPOINTS:
  GET  /healthz   liveness probe
  GET  /stats     counters (requests, cache, queue, uptime, endpoints)
  GET  /metrics   Prometheus text exposition
  POST /run       compile + simulate one .mar body
  POST /batch     one cached compile, N verified runs (one per lane=)

One structured access-log line (JSON) per request goes to stderr;
every response carries an X-Request-Id header matching its log line.
",
};

fn config(a: &Args) -> Result<ServeConfig, String> {
    let d = ServeConfig::default();
    Ok(ServeConfig {
        addr: a.str("--addr").unwrap_or("127.0.0.1:8431").to_string(),
        workers: a.positive("--workers", d.workers)?,
        queue_cap: a.positive("--queue", d.queue_cap)?,
        cache_cap: a.num("--cache", d.cache_cap)?,
        max_body: a.num("--max-body", d.max_body)?,
        max_cycles: a.num("--max-cycles", d.max_cycles)?,
        interp_budget: a.num("--interp-budget", d.interp_budget)?,
        // The daemon always writes access logs; only in-process tests
        // (which build ServeConfig directly) run quiet.
        access_log: true,
        ..d
    })
}

fn main() -> ExitCode {
    let a = SPEC.parse_env();
    let cfg = a.or_exit(config(&a));
    match Server::start(cfg) {
        Ok(server) => {
            println!("mard listening on http://{}", server.addr());
            server.join();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mard: bind failed: {e}");
            ExitCode::FAILURE
        }
    }
}
