//! `loadgen` — replay fuzz-corpus traffic against `mard` and measure it.
//!
//! Spins up an in-process server (or targets an external one via
//! `--addr`), generates a corpus of fuzz programs, and replays them at a
//! target concurrency in two phases:
//!
//! - **cold**: every distinct (program, preset) pair once — all misses;
//! - **repeat**: the remaining requests cycle the same corpus, a third
//!   of them with whitespace/comment mutations that must still hit the
//!   canonical-keyed cache.
//!
//! Emits a `BENCH_serve.json` report with exact nearest-rank latency
//! percentiles (p50/p90/p95/p99/max over every request's raw sample), a
//! latency histogram bucketed identically to the server's `/metrics`
//! histogram, throughput, per-phase cache-hit rates and the error count
//! (which must be 0: the corpus is generated to be servable, and every
//! 200 is bit-verified by the server itself).

use marionette::cli::{opt, Args, Spec};
use marionette::report::num_list;
use marionette_serve::metrics::{Histogram, BUCKET_BOUNDS_US};
use marionette_serve::{ServeConfig, Server};
use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static SPEC: Spec = Spec {
    name: "loadgen",
    about: "replay fuzz-corpus traffic against mard",
    positional: "",
    flags: &[
        opt("--requests", "N", "total requests to send [default: 500]"),
        opt("--concurrency", "C", "client threads [default: 4]"),
        opt("--programs", "P", "distinct corpus programs [default: 16]"),
        opt("--seed", "S", "corpus generation seed [default: 1]"),
        opt("--addr", "HOST:PORT", "target mard [default: in-process]"),
        opt("--out", "FILE", "JSON report [default: stdout]"),
    ],
    notes: "",
};

/// Preset rotation for the corpus: a spread of control-flow planes so
/// the cache holds heterogeneous artifacts.
const PRESETS: &[&str] = &["M", "DF", "RT"];

struct Flags {
    requests: usize,
    concurrency: usize,
    programs: usize,
    seed: u64,
    addr: Option<SocketAddr>,
    out: Option<String>,
}

fn flags(a: &Args) -> Result<Flags, String> {
    Ok(Flags {
        requests: a.num::<usize>("--requests", 500)?.max(1),
        concurrency: a.num::<usize>("--concurrency", 4)?.max(1),
        programs: a.num::<usize>("--programs", 16)?.max(1),
        seed: a.num("--seed", 1)?,
        addr: a.parsed("--addr")?,
        out: a.str("--out").map(str::to_string),
    })
}

/// One scheduled request: source body + query string.
#[derive(Clone)]
struct Shot {
    query: String,
    body: Arc<String>,
}

/// Whitespace/comment mutation: semantically identical source that must
/// hit the same canonical cache entry.
fn restyle(src: &str, salt: usize) -> String {
    let mut out = format!("// loadgen restyle #{salt}: formatting only\n");
    for line in src.lines() {
        out.push_str(line);
        out.push('\n');
        if salt.is_multiple_of(2) {
            out.push('\n'); // extra blank line between statements
        }
    }
    out
}

fn send(addr: SocketAddr, shot: &Shot) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let timeout = Some(Duration::from_secs(120));
    s.set_read_timeout(timeout).ok();
    s.set_write_timeout(timeout).ok();
    let head = format!(
        "POST /run?{} HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n",
        shot.query,
        shot.body.len()
    );
    s.write_all(head.as_bytes()).map_err(|e| e.to_string())?;
    s.write_all(shot.body.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&buf).into_owned();
    let (h, body) = text.split_once("\r\n\r\n").ok_or("truncated response")?;
    let status: u16 = h
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or("bad status line")?;
    Ok((status, body.to_string()))
}

/// Replays `shots` from `threads` client threads; returns per-request
/// latencies (µs) and the error count.
fn replay(addr: SocketAddr, shots: &[Shot], threads: usize) -> (Vec<u64>, u64) {
    let next = AtomicUsize::new(0);
    let errors = AtomicU64::new(0);
    let mut latencies: Vec<u64> = Vec::with_capacity(shots.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= shots.len() {
                            break;
                        }
                        let start = Instant::now();
                        match send(addr, &shots[i]) {
                            Ok((200, body)) if body.contains("\"verified\": true") => {
                                mine.push(start.elapsed().as_micros() as u64);
                            }
                            Ok((status, body)) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                                let head: String = body.chars().take(200).collect();
                                eprintln!("loadgen: status {status}: {head}");
                            }
                            Err(e) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                                eprintln!("loadgen: transport: {e}");
                            }
                        }
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            latencies.extend(h.join().expect("client thread"));
        }
    });
    (latencies, errors.load(Ordering::Relaxed))
}

/// Nearest-rank percentile `pct` of `sorted` (ascending): the smallest
/// sample with at least `pct`% of the samples at or below it — always a
/// measured latency, never a bucket edge. Zero when there are no samples.
fn nearest_rank(sorted: &[u64], pct: usize) -> u64 {
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted.get(rank - 1).copied().unwrap_or(0)
}

fn cache_stats(addr: SocketAddr) -> (u64, u64) {
    let mut s = TcpStream::connect(addr).expect("connect for stats");
    s.write_all(b"GET /stats HTTP/1.1\r\nHost: loadgen\r\n\r\n")
        .expect("stats request");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("stats response");
    let text = String::from_utf8_lossy(&buf);
    let grab = |key: &str| -> u64 {
        text.split(&format!("\"{key}\": "))
            .nth(1)
            .and_then(|rest| {
                rest.split(|c: char| !c.is_ascii_digit())
                    .next()
                    .and_then(|d| d.parse().ok())
            })
            .unwrap_or(0)
    };
    (grab("hits"), grab("misses"))
}

fn main() -> ExitCode {
    let a = SPEC.parse_env();
    let flags = a.or_exit(flags(&a));

    // In-process server unless an external one was named.
    let (addr, server) = match flags.addr {
        Some(addr) => (addr, None),
        None => {
            let server = match Server::start(ServeConfig {
                workers: flags.concurrency.max(2),
                queue_cap: flags.concurrency * 4,
                ..ServeConfig::default()
            }) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("loadgen: in-process server: {e}");
                    return ExitCode::FAILURE;
                }
            };
            (server.addr(), Some(server))
        }
    };

    // Corpus: P fuzz programs, rendered to .mar source.
    let corpus: Vec<Arc<String>> = (0..flags.programs)
        .map(|i| {
            let p = marionette_fuzzgen::gen::generate(
                flags.seed.wrapping_add(i as u64),
                &marionette_fuzzgen::gen::GenConfig::default(),
            );
            Arc::new(marionette_fuzzgen::source::to_mar(&p))
        })
        .collect();

    // Cold phase: every (program, preset) pair once.
    let mut cold: Vec<Shot> = Vec::new();
    for body in &corpus {
        for preset in PRESETS {
            cold.push(Shot {
                query: format!("preset={preset}"),
                body: Arc::clone(body),
            });
        }
    }
    if cold.len() > flags.requests {
        cold.truncate(flags.requests);
    }

    // Repeat phase: cycle the corpus for the remaining budget; every
    // third request is a restyled (whitespace/comment-mutated) copy
    // that must still hit.
    let mut repeat: Vec<Shot> = Vec::new();
    let mut i = 0usize;
    while cold.len() + repeat.len() < flags.requests {
        let body = &corpus[i % corpus.len()];
        let preset = PRESETS[(i / corpus.len()) % PRESETS.len()];
        let body = if i.is_multiple_of(3) {
            Arc::new(restyle(body, i))
        } else {
            Arc::clone(body)
        };
        repeat.push(Shot {
            query: format!("preset={preset}"),
            body,
        });
        i += 1;
    }

    let started = Instant::now();
    let (hits0, misses0) = cache_stats(addr);
    let (cold_lat, cold_errors) = replay(addr, &cold, flags.concurrency);
    let (hits1, misses1) = cache_stats(addr);
    let (repeat_lat, repeat_errors) = replay(addr, &repeat, flags.concurrency);
    let (hits2, misses2) = cache_stats(addr);
    let wall = started.elapsed();

    let errors = cold_errors + repeat_errors;
    // The same fixed-bucket histogram type that backs the server's
    // /metrics endpoint, so client- and server-side latency bucket
    // identically and the two views can be compared directly.
    let hist = Histogram::new();
    let mut samples: Vec<u64> = cold_lat.iter().chain(&repeat_lat).copied().collect();
    samples.sort_unstable();
    for &us in &samples {
        hist.observe(us);
    }
    let pct = |p| nearest_rank(&samples, p);
    let max = samples.last().copied().unwrap_or(0);
    let repeat_hits = hits2 - hits1;
    let repeat_total = (hits2 + misses2) - (hits1 + misses1);
    let repeat_hit_rate = if repeat_total == 0 {
        0.0
    } else {
        repeat_hits as f64 / repeat_total as f64
    };
    let total = cold.len() + repeat.len();
    let mean = if hist.count() == 0 {
        0
    } else {
        hist.sum_us() / hist.count()
    };
    // Non-cumulative per-bucket counts (one per bound, plus +Inf).
    let cum = hist.cumulative();
    let bucket_counts: Vec<u64> = cum
        .iter()
        .scan(0u64, |prev, &c| {
            let n = c - *prev;
            *prev = c;
            Some(n)
        })
        .collect();

    let report = format!(
        "{{\n  \"schema\": \"marionette.loadgen/v1\",\n  \"requests\": {},\n  \"concurrency\": {},\n  \"programs\": {},\n  \"presets\": {},\n  \"seed\": {},\n  \"errors\": {},\n  \"phases\": {{\n    \"cold\": {{\"requests\": {}, \"hits\": {}, \"misses\": {}}},\n    \"repeat\": {{\"requests\": {}, \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.3}}}\n  }},\n  \"latency_us\": {{\"p50\": {}, \"p90\": {}, \"p95\": {}, \"p99\": {}, \"mean\": {}, \"max\": {}}},\n  \"latency_histogram\": {{\n    \"bounds_us\": {},\n    \"counts\": {},\n    \"count\": {},\n    \"sum_us\": {}\n  }},\n  \"wall_seconds\": {:.3},\n  \"throughput_rps\": {:.1}\n}}\n",
        total,
        flags.concurrency,
        flags.programs,
        PRESETS.len(),
        flags.seed,
        errors,
        cold.len(),
        hits1 - hits0,
        misses1 - misses0,
        repeat.len(),
        repeat_hits,
        repeat_total - repeat_hits,
        repeat_hit_rate,
        pct(50),
        pct(90),
        pct(95),
        pct(99),
        mean,
        max,
        num_list(BUCKET_BOUNDS_US),
        num_list(&bucket_counts),
        hist.count(),
        hist.sum_us(),
        wall.as_secs_f64(),
        total as f64 / wall.as_secs_f64().max(1e-9),
    );

    match &flags.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("loadgen: write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "loadgen: {total} requests, {errors} errors, repeat hit rate {:.0}%, p50 {}us p99 {}us max {}us -> {path}",
                repeat_hit_rate * 100.0,
                pct(50),
                pct(99),
                max,
            );
        }
        None => print!("{report}"),
    }

    if let Some(s) = server {
        s.stop();
    }
    if errors > 0 {
        eprintln!("loadgen: {errors} request(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_samples_not_bucket_edges() {
        // 101 samples, 1..=100 µs plus one slow tail: p90 and p99 are
        // the 91st and 100th samples, while the `/metrics` histogram can
        // only answer its first bucket's edge (100 µs) for both.
        let mut sorted: Vec<u64> = (1..=100).collect();
        sorted.push(9_747);
        assert_eq!(nearest_rank(&sorted, 50), 51);
        assert_eq!(nearest_rank(&sorted, 90), 91);
        assert_eq!(nearest_rank(&sorted, 99), 100);
        assert_eq!(nearest_rank(&sorted, 100), 9_747);
        let hist = Histogram::new();
        for &us in &sorted {
            hist.observe(us);
        }
        assert_ne!(hist.quantile_us(0.90), nearest_rank(&sorted, 90));
        assert_eq!(nearest_rank(&[], 99), 0);
        assert_eq!(nearest_rank(&[7], 1), 7);
    }
}
