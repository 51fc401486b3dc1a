//! Cache determinism: the content-addressed key must be insensitive to
//! formatting and sim-time inputs, sensitive to everything that changes
//! a bitstream, and a cached serve must be bit-identical to a cold one.
//! The front-end memo must answer byte-identically to a fresh front end,
//! keep parameter lists apart, never hold a failure, stay inside the
//! cache's bound, and never skip the simulation.

mod common;

use common::{http, result_line, run};
use marionette_serve::cache::CompileCache;
use marionette_serve::metrics::Metrics;
use marionette_serve::{route_with_meta, Counters, RouteMeta, ServeConfig, Server, ServerState};

const BASE: &str = "\
program acc;
param n: i32 = 6;
let s = for i in 0..8 with a = 0 {
  yield a + i * n;
};
sink s = s;
";

/// Same program, different whitespace, comments, and spacing — the
/// canonical pretty-print (parse→print fixed point) must erase all of it.
const RESTYLED: &str = "\
// A differently-formatted copy of `acc`: comments added, indentation
// mangled, blank lines inserted. Same program.
program acc;

param n : i32 = 6;   // the scale factor

let s = for i in 0..8 with a = 0 {
      yield a + i*n;  // accumulate
};

sink s = s;
";

fn extract_address(body: &str) -> &str {
    let marker = "\"address\": \"";
    let at = body.find(marker).expect("cache address in body") + marker.len();
    &body[at..at + 16]
}

#[test]
fn whitespace_and_comment_changes_hit_the_same_entry() {
    let s = Server::start(ServeConfig::default()).expect("bind");
    let (status, cold) = run(s.addr(), "preset=M", BASE);
    assert_eq!(status, 200, "{cold}");
    assert!(cold.contains("\"outcome\": \"miss\""), "{cold}");
    let (status, warm) = run(s.addr(), "preset=M", RESTYLED);
    assert_eq!(status, 200, "{warm}");
    assert!(
        warm.contains("\"outcome\": \"hit\""),
        "restyled source must hit the canonical-key entry: {warm}"
    );
    assert_eq!(extract_address(&cold), extract_address(&warm));
    assert_eq!(result_line(&cold), result_line(&warm));
    s.stop();
}

#[test]
fn different_params_and_engine_share_the_bitstream() {
    let s = Server::start(ServeConfig::default()).expect("bind");
    let (_, cold) = run(s.addr(), "preset=M", BASE);
    assert!(cold.contains("\"outcome\": \"miss\""), "{cold}");
    // Fresh parameters and an explicit engine are sim-time inputs: the
    // compile must be reused (hit), while the result reflects the new n.
    let (status, warm) = run(s.addr(), "preset=M&param=n%3D7&engine=wheel", BASE);
    assert_eq!(status, 200, "{warm}");
    assert!(warm.contains("\"outcome\": \"hit\""), "{warm}");
    assert!(warm.contains("\"sinks\": {\"s\": [196]}"), "{warm}");
    assert_eq!(extract_address(&cold), extract_address(&warm));
    s.stop();
}

#[test]
fn cached_serve_is_bit_identical_to_cold_on_every_preset() {
    let s = Server::start(ServeConfig::default()).expect("bind");
    let mut addresses = std::collections::HashSet::new();
    for arch in marionette_arch::all_presets() {
        let q = format!("preset={}", arch.short);
        let (status, cold) = run(s.addr(), &q, BASE);
        assert_eq!(status, 200, "cold {}: {cold}", arch.short);
        assert!(cold.contains("\"outcome\": \"miss\""), "{cold}");
        let (status, warm) = run(s.addr(), &q, BASE);
        assert_eq!(status, 200, "warm {}: {warm}", arch.short);
        assert!(warm.contains("\"outcome\": \"hit\""), "{warm}");
        assert_eq!(
            result_line(&cold),
            result_line(&warm),
            "cached result differs from cold on {}",
            arch.short
        );
        // Every preset is a distinct cache entry.
        assert!(
            addresses.insert(extract_address(&cold).to_string()),
            "address collision between presets at {}",
            arch.short
        );
    }
    s.stop();
}

#[test]
fn lru_bound_evicts_and_counts() {
    let s = Server::start(ServeConfig {
        cache_cap: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    // Three distinct programs through a 2-entry cache.
    for tag in 1..=3 {
        let src = BASE.replace("i * n", &format!("i * n * {tag}"));
        let (status, body) = run(s.addr(), "preset=M", &src);
        assert_eq!(status, 200, "{body}");
    }
    let (_, stats) = http(s.addr(), "GET", "/stats", b"");
    assert!(stats.contains("\"inserts\": 3"), "{stats}");
    assert!(stats.contains("\"evictions\": 1"), "{stats}");
    assert!(stats.contains("\"entries\": 2"), "{stats}");
    s.stop();
}

#[test]
fn fault_sets_key_separately_and_replay_reports_remap() {
    let s = Server::start(ServeConfig::default()).expect("bind");
    let (_, healthy) = run(s.addr(), "preset=M", BASE);
    // A faulted request is a different artifact (possibly remapped) —
    // it must not share the healthy entry.
    let (status, faulted) = run(s.addr(), "preset=M&fault=pe:1,1", BASE);
    assert_eq!(status, 200, "{faulted}");
    assert!(faulted.contains("\"outcome\": \"miss\""), "{faulted}");
    assert_ne!(extract_address(&healthy), extract_address(&faulted));
    // Replay: the cached artifact carries its wedged/remapped metadata.
    let (status, replay) = run(s.addr(), "preset=M&fault=pe:1,1", BASE);
    assert_eq!(status, 200, "{replay}");
    assert!(replay.contains("\"outcome\": \"hit\""), "{replay}");
    let meta = |b: &str| {
        (
            b.lines()
                .find(|l| l.trim_start().starts_with("\"wedged\":"))
                .map(str::to_string),
            b.contains("\"remapped\": true"),
        )
    };
    assert_eq!(meta(&faulted), meta(&replay));
    assert_eq!(result_line(&faulted), result_line(&replay));
    s.stop();
}

/// Memo counters of a live server: `(hits, misses, inserts, entries)`.
fn memo(s: &Server) -> (u64, u64, u64, usize) {
    let cache = &s.state().cache;
    let m = cache.memo_stats();
    (m.hits, m.misses, m.inserts, cache.memo_len())
}

#[test]
fn memo_answers_are_byte_identical_to_a_fresh_front_end_on_every_preset() {
    let warm = Server::start(ServeConfig::default()).expect("bind");
    for arch in marionette_arch::all_presets() {
        let plain = format!("preset={}", arch.short);
        let param = format!("{plain}&param=n%3D7");
        // A fresh server answers through the full front end (its memo
        // misses) once its compile cache is warm, so its bodies say
        // `"outcome": "hit"` just as a memo-answered one does.
        let fresh = Server::start(ServeConfig::default()).expect("bind");
        let (status, _) = run(fresh.addr(), &plain, BASE);
        assert_eq!(status, 200);
        let want_restyled = run(fresh.addr(), &plain, RESTYLED);
        let want_param = run(fresh.addr(), &param, BASE);
        assert_eq!(memo(&fresh).0, 0, "the fresh server must not use its memo");
        fresh.stop();
        for (query, src, want) in [
            (&plain, RESTYLED, want_restyled),
            (&param, BASE, want_param),
        ] {
            // The first request caches the artifact, the second (an
            // artifact hit) memoises the front end.
            run(warm.addr(), query, src);
            run(warm.addr(), query, src);
            let hits = memo(&warm).0;
            let got = run(warm.addr(), query, src);
            assert_eq!(
                memo(&warm).0,
                hits + 1,
                "{query}: not answered from the memo"
            );
            assert_eq!(got.0, 200, "{query}: {}", got.1);
            assert!(got.1.contains("\"outcome\": \"hit\""), "{}", got.1);
            assert_eq!(got, want, "{query}: memo answer differs from a fresh one");
        }
    }
    warm.stop();
}

/// Two parameters, so lists can be built that a naive separator-joined
/// key would confuse: `s = Σ_{i<8} (i·n + m)`.
const TWO_PARAMS: &str = "\
program acc2;
param n: i32 = 6;
param m: i32 = 1;
let s = for i in 0..8 with a = 0 {
  yield a + i * n + m;
};
sink s = s;
";

#[test]
fn parameter_lists_never_share_a_memo_entry() {
    let s = Server::start(ServeConfig::default()).expect("bind");
    // Cache the artifact, so every later success is memoised.
    let (status, body) = run(s.addr(), "", TWO_PARAMS);
    assert_eq!(status, 200, "{body}");
    let (status, two) = run(s.addr(), "param=n%3D2", TWO_PARAMS);
    assert_eq!(status, 200, "{two}");
    let (status, three) = run(s.addr(), "param=n%3D3", TWO_PARAMS);
    assert_eq!(status, 200, "{three}");
    assert_ne!(result_line(&two), result_line(&three));
    assert_eq!(memo(&s), (0, 3, 2, 2));
    let (status, both) = run(s.addr(), "param=n%3D2&param=m%3D3", TWO_PARAMS);
    assert_eq!(status, 200, "{both}");
    assert!(both.contains("\"sinks\": {\"s\": [80]}"), "{both}");
    // One parameter whose value (or name) holds the separators of a
    // naive or of the length-prefixed encoding: each is its own failing
    // request, never the memoised two-parameter list's answer.
    for (query, kind) in [
        ("param=n%3D2%2Cm%3D3", "bad_param"),
        ("param=n%3D2%3Bm%3D3", "bad_param"),
        ("param=n%3D2%1Fm%3D3", "bad_param"),
        ("param=n%3D1%3A2", "bad_param"),
        ("param=1%3An1%3A2%3D3", "unknown_param"),
        ("param=n%3A1%3D2", "unknown_param"),
    ] {
        let (status, body) = run(s.addr(), query, TWO_PARAMS);
        assert_eq!(status, 400, "{query}: {body}");
        assert!(
            body.contains(&format!("\"kind\": \"{kind}\"")),
            "{query}: {body}"
        );
    }
    assert_eq!(memo(&s).0, 0, "no request so far repeated a list");
    // The same list again is a memo hit with the same result.
    let (status, again) = run(s.addr(), "param=n%3D2", TWO_PARAMS);
    assert_eq!(status, 200, "{again}");
    assert_eq!(memo(&s).0, 1);
    assert_eq!(result_line(&again), result_line(&two));
    s.stop();
}

/// `x` starts at 1 and only grows: the reference interpreter's firing
/// budget stops it.
const WEDGE: &str = "\
program wedge;
param n: i32 = 1;
let z = while x > 0 with (x = n) {
  yield x + 1;
};
sink z = z;
";

#[test]
fn failures_repeat_identically_and_are_never_memoised() {
    let s = Server::start(ServeConfig {
        interp_budget: 10_000,
        ..ServeConfig::default()
    })
    .expect("bind");
    let cases = [
        ("", "program broken;\nthis is not mar\n", 400, "parse_error"),
        (
            "",
            "program bad;\nsink x = undeclared_name;\n",
            400,
            "sema_error",
        ),
        ("param=zz%3D4", BASE, 400, "unknown_param"),
        ("param=n%3Dseven", BASE, 400, "bad_param"),
        ("", WEDGE, 422, "interp_budget"),
    ];
    for (query, src, status, kind) in cases {
        let first = run(s.addr(), query, src);
        assert_eq!(first.0, status, "{kind}: {}", first.1);
        assert!(
            first.1.contains(&format!("\"kind\": \"{kind}\"")),
            "{}",
            first.1
        );
        let second = run(s.addr(), query, src);
        assert_eq!(first, second, "{kind} did not repeat byte for byte");
    }
    let misses = 2 * cases.len() as u64;
    assert_eq!(memo(&s), (0, misses, 0, 0), "a failure was memoised");
    s.stop();
}

#[test]
fn memo_never_holds_more_than_the_cache_capacity() {
    let s = Server::start(ServeConfig {
        cache_cap: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    for n in 1..=5 {
        let (status, body) = run(s.addr(), &format!("param=n%3D{n}"), BASE);
        assert_eq!(status, 200, "{body}");
        assert!(memo(&s).3 <= 2, "memo outgrew its bound after n={n}");
    }
    // n=1 compiled, so only n=2..5 were memoised.
    assert_eq!(s.state().cache.memo_stats().evictions, 2);
    let (_, stats) = http(s.addr(), "GET", "/stats", b"");
    assert!(stats.contains("\"memo_entries\": 2"), "{stats}");
    assert!(stats.contains("\"memo_evictions\": 2"), "{stats}");
    // The compile cache keeps its own counters: one compile, four hits.
    assert!(
        stats.contains("\"cache\": {\"hits\": 4, \"misses\": 1"),
        "{stats}"
    );
    s.stop();
}

#[test]
fn memo_hit_skips_the_front_end_but_still_simulates() {
    let cfg = ServeConfig::default();
    let state = ServerState {
        cache: CompileCache::new(cfg.cache_cap),
        counters: Counters::default(),
        metrics: Metrics::default(),
        cfg,
    };
    let req = marionette_serve::http::Request {
        method: "POST".to_string(),
        path: "/run".to_string(),
        query: vec![("preset".to_string(), "M".to_string())],
        headers: Vec::new(),
        body: BASE.as_bytes().to_vec(),
    };
    let mut cold = RouteMeta::default();
    let (status, cold_body) = route_with_meta(&state, 0, &req, &mut cold);
    assert_eq!(status, 200, "{cold_body}");
    assert_eq!((cold.memo_hit, cold.cache_hit), (Some(false), Some(false)));
    assert_eq!(
        state.cache.memo_len(),
        0,
        "a compiling request memoises nothing"
    );
    let mut second = RouteMeta::default();
    route_with_meta(&state, 0, &req, &mut second);
    assert_eq!(
        (second.memo_hit, second.cache_hit),
        (Some(false), Some(true))
    );
    assert_eq!(
        state.cache.memo_len(),
        1,
        "an artifact hit memoises its front end"
    );
    let mut warm = RouteMeta::default();
    let (status, warm_body) = route_with_meta(&state, 0, &req, &mut warm);
    assert_eq!(status, 200, "{warm_body}");
    assert_eq!((warm.memo_hit, warm.cache_hit), (Some(true), Some(true)));
    assert_eq!(
        (warm.frontend_us, warm.reference_us, warm.compile_us),
        (0, 0, 0)
    );
    assert!(warm.sim_us > 0, "a memo hit must still simulate");
    assert!(warm_body.contains("\"verified\": true"), "{warm_body}");
    assert!(warm_body.contains("\"fires\": "), "{warm_body}");
    assert!(!warm_body.contains("\"fires\": 0,"), "{warm_body}");
    assert_eq!(result_line(&cold_body), result_line(&warm_body));
}
