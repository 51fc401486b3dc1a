//! The serve workloads: an in-process `mard` over loopback under a
//! closed loop of client connections.
//!
//! - `serve-hot`: a working set that fits the compile cache, so after
//!   the set-up fill every request is a hit (HTTP, frontend, canonical
//!   printing, reference interpreter, cache lookup, simulate + verify);
//! - `serve-cold`: a working set of [`COLD_FACTOR`]× the cache capacity
//!   cycled in order, so every request misses, compiles, inserts and
//!   evicts.
//!
//! The traced run replays every request the server saw, in order,
//! through the public stages `job::handle_run` composes, with a private
//! cache of the server's capacity, and checks the replay against the
//! server: same cache counters, same cycles per request.

use crate::calib::Calibration;
use crate::spans::Recorder;
use crate::stats;
use crate::{Metric, Outcome, Params};
use marionette::cdfg::interp::{interpret_with_budget, ExecMode};
use marionette_lang::driver::{compile_preset, frontend, reference, simulate_compiled};
use marionette_serve::cache::{CacheKey, CachedArtifact, CompileCache};
use marionette_serve::job::decode_options;
use marionette_serve::metrics::Metrics;
use marionette_serve::{http, Counters, ServeConfig, Server, ServerState};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Which serve workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Working set inside the cache: every timed request hits.
    Hot,
    /// Working set far beyond the cache: every request misses.
    Cold,
}

/// Preset rotation (`loadgen`'s): heterogeneous control planes.
pub const PRESETS: [&str; 3] = ["M", "DF", "RT"];
/// Distinct programs of the hot working set.
pub const HOT_PROGRAMS: usize = 21;
/// Cold working set size as a multiple of the cache capacity.
pub const COLD_FACTOR: usize = 4;
/// Candidate programs drawn per working-set program.
const POOL_FACTOR: usize = 32;
/// Set-up repetitions timed for `setup_s` (the median is reported); a
/// serve set-up takes ~0.1 s, so many keep its median steady.
const SETUP_REPS: usize = 15;
/// Calibration slices taken on each side of a set-up repetition.
const SETUP_SLICES: usize = 2;
/// Socket samples a traced run collects at least, so its p99 has ten
/// samples beyond it.
const TRACED_MIN_SAMPLES: usize = 1000;
/// Upper bound on a traced run's socket phase.
const TRACED_MAX_SECS: f64 = 60.0;
/// Requests a client sends between two calibration slices.
const CAL_EVERY: usize = 32;
/// Firing budget of the stratification interpreter run; programs past
/// it are not drawn.
const FIRING_BUDGET: u64 = 1_000_000;

/// Distinct programs of a workload's working set.
pub fn programs(kind: Kind, cache_cap: usize) -> usize {
    match kind {
        Kind::Hot => HOT_PROGRAMS,
        Kind::Cold => (COLD_FACTOR * cache_cap).div_ceil(PRESETS.len()),
    }
}

/// Working-set entries (program × preset cache keys).
pub fn working_set(kind: Kind, cache_cap: usize) -> usize {
    programs(kind, cache_cap) * PRESETS.len()
}

/// Requests of the set-up fill: the whole hot working set, or one
/// cache's worth of cold entries (the cache is then full and every
/// later miss evicts).
pub fn fill_len(kind: Kind, cache_cap: usize) -> usize {
    match kind {
        Kind::Hot => working_set(kind, cache_cap),
        Kind::Cold => cache_cap,
    }
}

/// The request stream: request `i` targets working-set entry
/// `i mod W` (program-major within a preset). Every [`RESTYLE_EVERY`]th
/// round over the working set sends a restyled copy of each source,
/// which canonicalises to the same cache key; the other rounds send the
/// generated source.
pub struct Traffic {
    sources: Vec<String>,
    entries: usize,
}

/// One round over the working set in this many is restyled, so a third
/// of the requests are.
const RESTYLE_EVERY: usize = 3;

impl Traffic {
    /// Generates the workload's programs from `seed`, stratified by
    /// dynamic size: of `POOL_FACTOR` fuzz programs drawn per slot, the
    /// heaviest tenth is dropped and the rest are ranked by their
    /// reference firing count; one program is taken from the middle of
    /// each of `n` equal strata. Every seed's working set then spans the
    /// same cost profile, so two seeds differ in programs, not in load.
    pub fn new(kind: Kind, seed: u64, cache_cap: usize) -> Self {
        let n = programs(kind, cache_cap);
        let cfg = marionette_fuzzgen::gen::GenConfig::default();
        let gen_seed = |i: usize| seed.wrapping_mul(1 << 20).wrapping_add(i as u64);
        let mut pool: Vec<(u64, usize)> = (0..n * POOL_FACTOR)
            .filter_map(|i| {
                let g =
                    marionette_fuzzgen::emit(&marionette_fuzzgen::gen::generate(gen_seed(i), &cfg));
                let r = interpret_with_budget(&g, ExecMode::Dropping, &[], FIRING_BUDGET).ok()?;
                Some((r.firings, i))
            })
            .collect();
        pool.sort_unstable();
        pool.truncate(pool.len() * 9 / 10);
        assert!(pool.len() >= n, "too few interpretable fuzz programs");
        let mut picked: Vec<usize> = (0..n)
            .map(|j| pool[(2 * j + 1) * pool.len() / (2 * n)].1)
            .collect();
        picked.sort_unstable();
        let sources = picked
            .into_iter()
            .map(|i| {
                marionette_fuzzgen::source::to_mar(&marionette_fuzzgen::gen::generate(
                    gen_seed(i),
                    &cfg,
                ))
            })
            .collect();
        Traffic {
            sources,
            entries: working_set(kind, cache_cap),
        }
    }

    /// Working-set entry of request `i`.
    pub fn entry(&self, i: usize) -> usize {
        i % self.entries
    }

    /// Whether request `i` sends a restyled body.
    pub fn restyled(&self, i: usize) -> bool {
        (i / self.entries) % RESTYLE_EVERY == RESTYLE_EVERY - 1
    }

    /// Raw HTTP bytes of request `i`.
    pub fn request(&self, i: usize) -> Vec<u8> {
        let e = self.entry(i);
        let n = self.sources.len();
        let src = &self.sources[e % n];
        let preset = PRESETS[(e / n) % PRESETS.len()];
        let body = if self.restyled(i) {
            restyle(src)
        } else {
            src.clone()
        };
        let mut raw = format!(
            "POST /run?preset={preset} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(body.as_bytes());
        raw
    }
}

/// Whitespace/comment mutation: the same program, a different body.
fn restyle(src: &str) -> String {
    let mut out = "// restyled: formatting only\n".to_string();
    for line in src.lines() {
        out.push_str(line);
        out.push_str("\n\n");
    }
    out
}

/// What a `/run` response body says, as far as the benchmark checks it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reply {
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated fires.
    pub fires: u64,
    /// Cache verdict.
    pub hit: bool,
}

fn json_u64(body: &str, key: &str) -> Option<u64> {
    let rest = body.split(&format!("\"{key}\": ")).nth(1)?;
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Checks one response: a 200 whose body the server verified against
/// the reference interpreter. Anything else is a failed operation.
pub fn check_reply(status: u16, body: &str) -> Result<Reply, String> {
    if status != 200 {
        let head: String = body.chars().take(200).collect();
        return Err(format!("status {status}: {head}"));
    }
    if !body.contains("\"verified\": true") {
        return Err("200 without \"verified\": true".to_string());
    }
    let hit = match (
        body.contains("\"outcome\": \"hit\""),
        body.contains("\"outcome\": \"miss\""),
    ) {
        (true, false) => true,
        (false, true) => false,
        _ => return Err("no cache outcome in the body".to_string()),
    };
    match (json_u64(body, "cycles"), json_u64(body, "fires")) {
        (Some(cycles), Some(fires)) => Ok(Reply { cycles, fires, hit }),
        _ => Err("no cycles/fires in the body".to_string()),
    }
}

fn send(addr: SocketAddr, raw: &[u8]) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let timeout = Some(Duration::from_secs(60));
    s.set_read_timeout(timeout).map_err(|e| e.to_string())?;
    s.set_write_timeout(timeout).map_err(|e| e.to_string())?;
    s.write_all(raw).map_err(|e| format!("write: {e}"))?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8_lossy(&buf);
    let (head, body) = text.split_once("\r\n\r\n").ok_or("truncated response")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or("bad status line")?;
    Ok((status, body.to_string()))
}

/// Server counters read back from `/stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ServerCounts {
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected_429: u64,
}

fn server_counts(addr: SocketAddr) -> Result<ServerCounts, String> {
    let (status, body) = send(addr, b"GET /stats HTTP/1.1\r\nHost: perfbench\r\n\r\n")?;
    let get = |k: &str| json_u64(&body, k).ok_or_else(|| format!("/stats has no `{k}`"));
    if status != 200 {
        return Err(format!("/stats answered {status}"));
    }
    Ok(ServerCounts {
        hits: get("hits")?,
        misses: get("misses")?,
        evictions: get("evictions")?,
        rejected_429: get("rejected_429")?,
    })
}

/// One client-observed request.
struct Sample {
    i: usize,
    latency_us: f64,
    reply: Result<Reply, String>,
}

fn one(addr: SocketAddr, traffic: &Traffic, i: usize) -> Sample {
    let raw = traffic.request(i);
    let t = Instant::now();
    let reply = send(addr, &raw).and_then(|(status, body)| check_reply(status, &body));
    Sample {
        i,
        latency_us: t.elapsed().as_secs_f64() * 1e6,
        reply,
    }
}

fn server_config(params: &Params) -> ServeConfig {
    let d = ServeConfig::default();
    ServeConfig {
        workers: params.connections,
        queue_cap: d.queue_cap.max(2 * params.connections),
        ..d
    }
}

/// Closed loop: `connections` clients, each sending its next request
/// only after the previous one completed, from request `first` on,
/// until `secs` have passed and at least `min_samples` completed (or
/// `max_secs` passed). Each client takes a calibration slice every
/// [`CAL_EVERY`] requests, between requests. Returns the samples in
/// request order, the calibration, and the loop's wall seconds less the
/// clients' mean time in slices.
fn closed_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    connections: usize,
    first: usize,
    secs: f64,
    min_samples: usize,
    max_secs: f64,
) -> (Vec<Sample>, Calibration, f64) {
    let next = AtomicUsize::new(first);
    let t0 = Instant::now();
    let mut cal = Calibration::default();
    let mut slice_us = 0.0;
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    let mut cal = Calibration::default();
                    let mut slice_us = 0.0;
                    loop {
                        let el = t0.elapsed().as_secs_f64();
                        let done = next.load(Ordering::Relaxed) - first;
                        if el >= max_secs || (el >= secs && done >= min_samples) {
                            break;
                        }
                        if mine.len() % CAL_EVERY == 0 {
                            slice_us += cal.slice();
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        mine.push(one(addr, traffic, i));
                    }
                    (mine, cal, slice_us)
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in clients {
            let (mine, c, us) = h.join().expect("client thread panicked");
            cal.merge(&c);
            slice_us += us;
            all.extend(mine);
        }
        all
    });
    let busy_secs = t0.elapsed().as_secs_f64() - slice_us / 1e6 / connections as f64;
    samples.sort_by_key(|s| s.i);
    (samples, cal, busy_secs)
}

/// Counts each sample against the run, checks it repeats the cycles
/// and fires first seen for its working-set entry, and checks the cache
/// verdict the workload is built for: set-up fills miss, and after them
/// every serve-hot request hits and every serve-cold request misses.
fn account(
    out: &mut Outcome,
    traffic: &Traffic,
    seen: &mut [Option<(u64, u64)>],
    samples: &[Sample],
    hits_from: Option<usize>,
) {
    for s in samples {
        out.attempted += 1;
        match &s.reply {
            Err(e) => {
                out.failed += 1;
                out.note_failure(&format!("request {}: {e}", s.i));
            }
            Ok(r) => {
                if r.hit != hits_from.is_some_and(|from| s.i >= from) {
                    out.errors.push(format!(
                        "request {}: cache {} breaks the working-set arithmetic",
                        s.i,
                        if r.hit { "hit" } else { "miss" }
                    ));
                }
                let slot = &mut seen[traffic.entry(s.i)];
                match slot {
                    None => *slot = Some((r.cycles, r.fires)),
                    Some(first) if *first != (r.cycles, r.fires) => out.errors.push(format!(
                        "request {}: {} cycles, {} fires; its entry first ran {first:?}",
                        s.i, r.cycles, r.fires
                    )),
                    Some(_) => {}
                }
            }
        }
    }
}

/// Per-request stage replay result.
struct Replayed {
    total_ns: u64,
    cycles: u64,
    fires: u64,
    link_stall: u64,
    switch_stall: u64,
    group_switches: u64,
    compiled_bytes: Option<usize>,
}

fn replay_state(cfg: &ServeConfig) -> ServerState {
    ServerState {
        cache: CompileCache::new(cfg.cache_cap),
        counters: Counters::default(),
        metrics: Metrics::default(),
        cfg: cfg.clone(),
    }
}

/// Replays request bytes through the stages `handle_run` composes, each
/// in its own span under one operation root.
fn replay_one(state: &ServerState, raw: &[u8], rec: &mut Recorder) -> Result<Replayed, String> {
    let op = rec.begin_op();
    let req = rec
        .time(op, "serve.http_parse", || {
            http::read_request(raw, state.cfg.max_body)
        })
        .map_err(|e| format!("http: {e}"))?;
    let opts = decode_options(state, &req).map_err(|e| e.to_json())?;
    if !opts.params.is_empty() || !opts.faults.is_empty() {
        return Err("replay covers healthy, parameter-free requests only".to_string());
    }
    let src = String::from_utf8_lossy(&req.body).into_owned();
    let (ast, g) = rec
        .time(op, "lang.frontend", || frontend(&src))
        .map_err(|e| e.to_string())?;
    let canonical = rec.time(op, "lang.print", || marionette_lang::print(&ast));
    let reference = rec
        .time(op, "lang.reference", || {
            reference(&g, &[], state.cfg.interp_budget)
        })
        .map_err(|e| e.to_string())?;
    let (key, cached) = rec.time(op, "serve.cache_lookup", || {
        let key = CacheKey::derive(&canonical, &opts.arch, &opts.faults);
        let cached = state.cache.lookup(&key);
        (key, cached)
    });
    let simulate = |rec: &mut Recorder, compiled| {
        rec.time(op, "lang.simulate", || {
            simulate_compiled(
                &g,
                &reference,
                &opts.arch,
                compiled,
                &[],
                opts.max_cycles,
                &opts.faults,
                opts.engine,
            )
        })
        .map_err(|e| e.to_string())
    };
    let (run, compiled_bytes) = match cached {
        Some(artifact) => (simulate(rec, &artifact.compiled)?, None),
        None => {
            let compiled = rec
                .time(op, "lang.compile", || compile_preset(&g, &opts.arch))
                .map_err(|e| e.to_string())?;
            let run = simulate(rec, &compiled)?;
            let bytes = compiled.bitstream.len();
            rec.time(op, "serve.cache_insert", || {
                state.cache.insert(
                    &key,
                    CachedArtifact {
                        compiled,
                        wedged: None,
                        remapped: false,
                    },
                );
            });
            (run, Some(bytes))
        }
    };
    rec.end(op);
    Ok(Replayed {
        total_ns: rec.duration_ns(op),
        cycles: run.cycles,
        fires: run.fires,
        link_stall: run.link_stall_cycles,
        switch_stall: run.switch_stall_cycles,
        group_switches: run.group_switches,
        compiled_bytes,
    })
}

/// Restricts the calling thread, and every thread it starts from then
/// on, to the first `n` CPUs it may run on. With one connection the
/// client, the server's threads and the calibration slices then share
/// one CPU: a slice is slowed by exactly the contention the requests
/// meet, where across two CPUs the server's may be busy while the
/// client's is quiet.
fn pin_to_cpus(n: usize) -> Result<(), String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    // A cpu_set_t: 1024 bits.
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is writable for the `mask.len()` bytes passed; pid 0
    // is the calling thread.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let mut kept = 0;
    for byte in &mut mask {
        for bit in 0..8 {
            if *byte & (1 << bit) != 0 {
                if kept < n {
                    kept += 1;
                } else {
                    *byte &= !(1 << bit);
                }
            }
        }
    }
    // SAFETY: as above; the mask is only read.
    if unsafe { sched_setaffinity(0, mask.len(), mask.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// One set-up: start a server and fill it with requests `0..fill` in
/// order, timed into `secs`, between [`SETUP_SLICES`] calibration slices
/// on each side taken into `cal`.
fn set_up(
    cfg: &ServeConfig,
    traffic: &Traffic,
    fill: usize,
    cal: &mut Calibration,
    secs: &mut Vec<f64>,
) -> Result<(Server, Vec<Sample>), String> {
    for _ in 0..SETUP_SLICES {
        cal.slice();
    }
    let t = Instant::now();
    let server = Server::start(cfg.clone()).map_err(|e| format!("server start: {e}"))?;
    let samples = (0..fill).map(|i| one(server.addr(), traffic, i)).collect();
    secs.push(t.elapsed().as_secs_f64());
    for _ in 0..SETUP_SLICES {
        cal.slice();
    }
    Ok((server, samples))
}

/// Runs a serve workload.
pub fn run(kind: Kind, params: &Params) -> Outcome {
    let mut out = Outcome::default();
    let cfg = server_config(params);
    let traffic = Traffic::new(kind, params.seed, cfg.cache_cap);
    let fill = fill_len(kind, cfg.cache_cap);
    let hits_from = (kind == Kind::Hot).then_some(fill);
    let mut seen = vec![None; working_set(kind, cfg.cache_cap)];
    if let Err(e) = pin_to_cpus(params.connections) {
        out.errors.push(e);
        return out;
    }

    // The first set-up starts the server under test. The other set-ups
    // start, fill and stop a server of their own between equal segments
    // of the timed loop, so their median samples the machine over the
    // whole run rather than over its first second.
    let mut setup_cal = Calibration::default();
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let server = match set_up(&cfg, &traffic, fill, &mut setup_cal, &mut setup_secs) {
        Ok((server, fill_samples)) => {
            account(&mut out, &traffic, &mut seen, &fill_samples, hits_from);
            server
        }
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let addr = server.addr();
    let fill_cycles: Vec<u64> = seen.iter().take(fill).flatten().map(|s| s.0).collect();

    let (samples, timed_cal, busy_secs) = if params.trace {
        closed_loop(
            addr,
            &traffic,
            params.connections,
            fill,
            params.seconds / 2.0,
            TRACED_MIN_SAMPLES,
            TRACED_MAX_SECS,
        )
    } else {
        let segment = params.seconds / (SETUP_REPS - 1) as f64;
        let mut samples = Vec::new();
        let mut cal = Calibration::default();
        let mut busy_secs = 0.0;
        for _ in 1..SETUP_REPS {
            let first = fill + samples.len();
            let (mut s, c, busy) = closed_loop(
                addr,
                &traffic,
                params.connections,
                first,
                segment,
                0,
                segment,
            );
            samples.append(&mut s);
            cal.merge(&c);
            busy_secs += busy;
            match set_up(&cfg, &traffic, fill, &mut setup_cal, &mut setup_secs) {
                Ok((side, fill_samples)) => {
                    side.stop();
                    account(&mut out, &traffic, &mut seen, &fill_samples, hits_from);
                }
                Err(e) => out.errors.push(e),
            }
        }
        (samples, cal, busy_secs)
    };
    account(&mut out, &traffic, &mut seen, &samples, hits_from);
    let counts = server_counts(addr);
    server.stop();
    let counts = match counts {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };

    if !params.trace {
        out.push_setup(&setup_secs, setup_cal.median_factor());
        let (latency, fires): (Vec<f64>, Vec<u64>) = samples
            .iter()
            .filter_map(|s| s.reply.as_ref().ok().map(|r| (s.latency_us, r.fires)))
            .unzip();
        out.push_samples(latency, fires.iter().sum(), busy_secs, &timed_cal);
        out.metrics.push(Metric::new(
            "sim_cycles_geomean",
            stats::geomean(&fill_cycles),
            "cycles",
        ));
        return out;
    }

    let mut latency: Vec<f64> = samples
        .iter()
        .filter(|s| s.reply.is_ok())
        .map(|s| s.latency_us)
        .collect();
    stats::sort(&mut latency);

    // Replay the final server's whole request stream, in order, with
    // spans and then again with the recorder off (for the overhead).
    let n = fill + samples.len();
    let mut rec = Recorder::default();
    let traced_state = replay_state(&cfg);
    let mut replayed = Vec::with_capacity(n);
    let t = Instant::now();
    for i in 0..n {
        match replay_one(&traced_state, &traffic.request(i), &mut rec) {
            Ok(r) => replayed.push(r),
            Err(e) => {
                out.errors.push(format!("replay of request {i}: {e}"));
                return out;
            }
        }
    }
    let traced_secs = t.elapsed().as_secs_f64();
    let plain_state = replay_state(&cfg);
    let mut off = Recorder::disabled();
    let t = Instant::now();
    for i in 0..n {
        if let Err(e) = replay_one(&plain_state, &traffic.request(i), &mut off) {
            out.errors
                .push(format!("untraced replay of request {i}: {e}"));
            return out;
        }
    }
    let plain_secs = t.elapsed().as_secs_f64();

    // Fidelity: the replay saw what the server saw.
    let cs = traced_state.cache.stats();
    let replay_counts = ServerCounts {
        hits: cs.hits,
        misses: cs.misses,
        evictions: cs.evictions,
        rejected_429: counts.rejected_429,
    };
    if replay_counts != counts {
        out.errors.push(format!(
            "replay cache counters {replay_counts:?} differ from the server's {counts:?}"
        ));
    }
    for s in &samples {
        if let Ok(r) = &s.reply {
            let got = replayed[s.i].cycles;
            if got != r.cycles {
                out.errors.push(format!(
                    "request {}: replay ran {got} cycles, the server {}",
                    s.i, r.cycles
                ));
            }
        }
    }
    // Socket latency minus the in-process stage total, per request.
    let transport: Vec<f64> = samples
        .iter()
        .filter(|s| s.reply.is_ok())
        .map(|s| s.latency_us - replayed[s.i].total_ns as f64 / 1e3)
        .collect();

    let s = rec.self_ns();
    let us = |name: &str| rec.mean_self_us(&s, name);
    let sum = |f: fn(&Replayed) -> u64| -> u64 { replayed.iter().map(f).sum() };
    let compiled: Vec<usize> = replayed.iter().filter_map(|r| r.compiled_bytes).collect();
    let m = &mut out.metrics;
    m.push(Metric::count("sim.runs", replayed.len() as u64));
    m.push(Metric::count("sim.fires", sum(|r| r.fires)));
    m.push(Metric::new(
        "sim.cycles",
        sum(|r| r.cycles) as f64,
        "cycles",
    ));
    m.push(Metric::new(
        "sim.link_stall_cycles",
        sum(|r| r.link_stall) as f64,
        "cycles",
    ));
    m.push(Metric::new(
        "sim.switch_stall_cycles",
        sum(|r| r.switch_stall) as f64,
        "cycles",
    ));
    m.push(Metric::count(
        "sim.group_switches",
        sum(|r| r.group_switches),
    ));
    m.push(Metric::count("compiler.compiles", compiled.len() as u64));
    m.push(Metric::new(
        "isa.bitstream_bytes",
        compiled.iter().sum::<usize>() as f64,
        "bytes",
    ));
    for (metric, span) in [
        ("lang.frontend_us", "lang.frontend"),
        ("lang.print_us", "lang.print"),
        ("lang.reference_us", "lang.reference"),
        ("lang.compile_us", "lang.compile"),
        ("lang.simulate_us", "lang.simulate"),
        ("serve.http_parse_us", "serve.http_parse"),
        ("serve.cache_lookup_us", "serve.cache_lookup"),
        ("serve.cache_insert_us", "serve.cache_insert"),
        ("serve.route_us", "op"),
        ("trace.unattributed_us", "op"),
    ] {
        m.push(Metric::new(metric, us(span), "us"));
    }
    m.push(Metric::count("serve.cache_hits", counts.hits));
    m.push(Metric::count("serve.cache_misses", counts.misses));
    m.push(Metric::count("serve.cache_evictions", counts.evictions));
    m.push(Metric::new(
        "serve.cache_hit_ratio",
        counts.hits as f64 / (counts.hits + counts.misses).max(1) as f64,
        "ratio",
    ));
    m.push(Metric::new(
        "serve.transport_us",
        transport.iter().sum::<f64>() / transport.len().max(1) as f64,
        "us",
    ));
    m.push(Metric::count("serve.rejected_429", counts.rejected_429));
    m.push(Metric::new(
        "trace.overhead_ratio",
        plain_secs / traced_secs,
        "ratio",
    ));
    out.samples = latency.len();
    out.push_percentile("serve.request_p99_us", &latency, 0.99);
    out.traced_ops = rec.ops();
    out.fill_absent_layers();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_fits_the_cache_and_cold_overflows_it() {
        let cap = ServeConfig::default().cache_cap;
        assert!(working_set(Kind::Hot, cap) <= cap);
        assert_eq!(fill_len(Kind::Hot, cap), working_set(Kind::Hot, cap));
        assert!(working_set(Kind::Cold, cap) >= 4 * cap);
        assert_eq!(fill_len(Kind::Cold, cap), cap);
        assert_eq!(working_set(Kind::Cold, 64), 258);
    }

    /// Simulates the LRU over the cold request stream: an entry's reuse
    /// distance is the whole working set, longer than the cache, so no
    /// request ever hits.
    #[test]
    fn cold_stream_never_hits_an_lru_of_the_cache_size() {
        let cap = 8;
        let w = working_set(Kind::Cold, cap);
        let mut lru: std::collections::VecDeque<usize> = Default::default();
        let mut hits = 0;
        for i in 0..5 * w {
            let e = i % w;
            if let Some(pos) = lru.iter().position(|&x| x == e) {
                hits += 1;
                lru.remove(pos);
            } else if lru.len() == cap {
                lru.pop_front();
            }
            lru.push_back(e);
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn forged_unverified_body_counts_as_failed() {
        let good = "{\"cache\": {\"outcome\": \"hit\", \"address\": \"00\"},\n  \"result\": {\"cycles\": 120, \"fires\": 80, \"verified\": true}}";
        assert_eq!(
            check_reply(200, good),
            Ok(Reply {
                cycles: 120,
                fires: 80,
                hit: true
            })
        );
        let forged = good.replace("\"verified\": true", "\"verified\": false");
        assert!(check_reply(200, &forged).is_err());
        assert!(check_reply(500, good).is_err());
        assert!(check_reply(200, "{\"verified\": true}").is_err());

        let traffic = Traffic {
            sources: vec!["x".to_string()],
            entries: 3,
        };
        let mut out = Outcome::default();
        let mut seen = vec![None; 3];
        let samples = vec![
            Sample {
                i: 0,
                latency_us: 1.0,
                reply: check_reply(200, good),
            },
            Sample {
                i: 1,
                latency_us: 1.0,
                reply: check_reply(200, &forged),
            },
        ];
        account(&mut out, &traffic, &mut seen, &samples, Some(0));
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert!(!out.correct());
    }

    #[test]
    fn traffic_is_seeded_and_restyles_keep_the_entry() {
        let a = Traffic::new(Kind::Hot, 7, 64);
        let b = Traffic::new(Kind::Hot, 7, 64);
        assert_eq!(a.request(5), b.request(5));
        assert_ne!(a.request(0), Traffic::new(Kind::Hot, 8, 64).request(0));
        let w = working_set(Kind::Hot, 64);
        // Rounds 0 and 1 send the source, round 2 a restyle of it.
        assert_eq!(a.entry(2 * w), a.entry(0));
        assert_eq!(a.request(w), a.request(0));
        assert_ne!(a.request(2 * w), a.request(0));
        assert_eq!(a.request(3 * w), a.request(0));
        let restyled = (0..30 * w).filter(|&i| a.restyled(i)).count();
        assert_eq!(restyled, 10 * w, "a third of the requests are restyled");
    }
}
