//! Serve pins: a fixed battery of `/run` and `/batch` requests driven
//! in-process through `route_with_meta`, each pinned as one FNV-1a
//! digest of its status, its memo and cache verdicts and its body.
//!
//! The battery covers every preset; the crc, conv1d and mergesort
//! examples and a restyled source; memo and compile-cache hits;
//! parameters; faults (healthy, remapped and remap-infeasible); the
//! cycle and interpreter budgets; every 4xx/422 kind a request can
//! produce; and `/batch` cold, warm and with lane errors. It runs in
//! order against a fresh server state, once with room for every
//! artifact and once with a three-entry cache that evicts, so a change
//! to what is cached, memoised or answered fails here at a named
//! request.

use marionette_serve::cache::CompileCache;
use marionette_serve::http::Request;
use marionette_serve::metrics::Metrics;
use marionette_serve::{route_with_meta, Counters, RouteMeta, ServeConfig, ServerState};

const ACC: &str = "\
program acc;
param n: i32 = 6;
let s = for i in 0..8 with a = 0 {
  yield a + i * n;
};
sink s = s;
";

/// `ACC` with other whitespace and comments: same canonical print.
const ACC_RESTYLED: &str = "\
// acc, restyled.
program acc;

param n : i32 = 6;   // scale

let s = for i in 0..8 with a = 0 {
      yield a + i*n;
};

sink s = s;
";

/// Never terminates: the reference interpreter's budget stops it.
const SPIN: &str = "\
program spin;
let x = while 0 < 1 with (i = 0) {
  yield i + 1;
};
sink x = x;
";

const PARSE_ERROR: &str = "program broken;\nthis is not mar\n";
const SEMA_ERROR: &str = "program bad;\nsink x = undeclared_name;\n";

const CRC: &str = include_str!("../../../examples/crc.mar");
const CONV1D: &str = include_str!("../../../examples/conv1d.mar");
const MERGESORT: &str = include_str!("../../../examples/mergesort.mar");

/// One request of the battery: name, method, path, `&`-joined query
/// (`key=value`, split at the first `=`; values are not escaped) and
/// body.
type Call = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    &'static str,
);

const BATTERY: &[Call] = &[
    ("healthz", "GET", "/healthz", "", ""),
    ("not-found", "GET", "/nope", "", ""),
    ("wrong-method", "GET", "/run", "", ""),
    // Cold miss, artifact hit (memoises the front end), memo hit.
    ("acc/cold", "POST", "/run", "preset=M", ACC),
    ("acc/artifact-hit", "POST", "/run", "preset=M", ACC),
    ("acc/memo-hit", "POST", "/run", "preset=M", ACC),
    ("acc/default-preset", "POST", "/run", "", ACC),
    ("acc/restyled", "POST", "/run", "preset=M", ACC_RESTYLED),
    ("acc/param", "POST", "/run", "preset=M&param=n=3", ACC),
    (
        "acc/param-memo-hit",
        "POST",
        "/run",
        "preset=M&param=n=3",
        ACC,
    ),
    ("acc/two-params", "POST", "/run", "param=n=2&param=n=5", ACC),
    ("acc/engine-wheel", "POST", "/run", "engine=wheel", ACC),
    (
        "acc/max-cycles-above-cap",
        "POST",
        "/run",
        "max-cycles=99999999999",
        ACC,
    ),
    (
        "acc/max-cycles-lowered",
        "POST",
        "/run",
        "max-cycles=5000",
        ACC,
    ),
    ("acc/fabric-6x6", "POST", "/run", "fabric=6x6", ACC),
    (
        "acc/fabric-6x6-vN",
        "POST",
        "/run",
        "fabric=6x6&preset=vN",
        ACC,
    ),
    ("acc/search-20", "POST", "/run", "search=20", ACC),
    ("acc/search-20,1", "POST", "/run", "search=20,1", ACC),
    ("acc/search-spaced", "POST", "/run", "search=20, 1", ACC),
    ("acc/search-20,2", "POST", "/run", "search=20,2", ACC),
    ("acc/search-20,0", "POST", "/run", "search=20,0", ACC),
    ("acc/search-20,1,3", "POST", "/run", "search=20,1,3", ACC),
    ("crc/vN", "POST", "/run", "preset=vN", CRC),
    ("crc/DF", "POST", "/run", "preset=DF", CRC),
    ("crc/M-PE", "POST", "/run", "preset=M-PE", CRC),
    ("crc/M-CN", "POST", "/run", "preset=M-CN", CRC),
    ("crc/M", "POST", "/run", "preset=M", CRC),
    ("crc/SB", "POST", "/run", "preset=SB", CRC),
    ("crc/TIA", "POST", "/run", "preset=TIA", CRC),
    ("crc/RV", "POST", "/run", "preset=RV", CRC),
    ("crc/RT", "POST", "/run", "preset=rt", CRC),
    ("crc/M-repeat", "POST", "/run", "preset=M", CRC),
    ("conv1d/M", "POST", "/run", "preset=M", CONV1D),
    ("conv1d/param", "POST", "/run", "preset=M&param=n=4", CONV1D),
    ("mergesort/M", "POST", "/run", "preset=M", MERGESORT),
    ("mergesort/DF", "POST", "/run", "preset=DF", MERGESORT),
    // Faults: pinned, random, flaky, repeated (a hit keeps the fault
    // outcome) and more damage than a remap can route around.
    ("crc/fault-pe", "POST", "/run", "fault=pe:0,0", CRC),
    ("crc/fault-pe-repeat", "POST", "/run", "fault=pe:0,0", CRC),
    ("crc/fault-link", "POST", "/run", "fault=link:1,1-1,2", CRC),
    (
        "crc/fault-flaky",
        "POST",
        "/run",
        "fault=flaky:0,0-0,1@3",
        CRC,
    ),
    (
        "crc/faults-random",
        "POST",
        "/run",
        "faults=2&fault-seed=3",
        CRC,
    ),
    ("crc/faults-default-seed", "POST", "/run", "faults=1", CRC),
    (
        "mergesort/fault-vN",
        "POST",
        "/run",
        "preset=vN&fault=pe:1,1",
        MERGESORT,
    ),
    (
        "crc/one-pe-left",
        "POST",
        "/run",
        "fabric=2x2&fault=pe:0,0&fault=pe:0,1&fault=pe:1,0",
        CRC,
    ),
    (
        "crc/remap-infeasible",
        "POST",
        "/run",
        "fabric=2x2&fault=pe:0,0&fault=pe:0,1&fault=pe:1,0&fault=pe:1,1",
        CRC,
    ),
    // Budgets.
    ("acc/cycle-limit", "POST", "/run", "max-cycles=10", ACC),
    ("spin/interp-budget", "POST", "/run", "", SPIN),
    // Every request-level 4xx and 422 kind.
    ("error/parse", "POST", "/run", "", PARSE_ERROR),
    ("error/sema", "POST", "/run", "", SEMA_ERROR),
    ("error/unknown-preset", "POST", "/run", "preset=NOPE", ACC),
    ("error/empty-preset", "POST", "/run", "preset=", ACC),
    ("error/two-presets", "POST", "/run", "preset=M,vN", ACC),
    ("error/bad-fabric", "POST", "/run", "fabric=potato", ACC),
    ("error/zero-fabric", "POST", "/run", "fabric=0x4", ACC),
    ("error/bad-search", "POST", "/run", "search=lots", ACC),
    (
        "error/bad-search-restarts",
        "POST",
        "/run",
        "search=20,x",
        ACC,
    ),
    ("error/bad-faults", "POST", "/run", "faults=x", ACC),
    (
        "error/bad-fault-seed",
        "POST",
        "/run",
        "faults=1&fault-seed=x",
        ACC,
    ),
    (
        "error/off-fabric-fault",
        "POST",
        "/run",
        "fault=pe:9,9",
        ACC,
    ),
    ("error/bogus-fault", "POST", "/run", "fault=bogus", ACC),
    ("error/bad-engine", "POST", "/run", "engine=heap", ACC),
    (
        "error/bad-max-cycles",
        "POST",
        "/run",
        "max-cycles=lots",
        ACC,
    ),
    ("error/param-without-value", "POST", "/run", "param=n", ACC),
    ("error/param-bad-value", "POST", "/run", "param=n=x", ACC),
    ("error/unknown-param", "POST", "/run", "param=zz=4", ACC),
    ("error/lane-on-run", "POST", "/run", "lane=n=1", ACC),
    (
        "error/preset-then-search",
        "POST",
        "/run",
        "preset=NOPE&search=x",
        ACC,
    ),
    (
        "error/compile",
        "POST",
        "/run",
        "fabric=1x1&preset=RV",
        MERGESORT,
    ),
    // Batches: cold, warm (artifact and memo hits), lane errors.
    ("batch/cold", "POST", "/batch", "lane=n=1&lane=n=2", ACC),
    ("batch/warm", "POST", "/batch", "lane=n=1&lane=n=2", ACC),
    (
        "batch/memo-warm",
        "POST",
        "/batch",
        "lane=n=1&lane=n=2",
        ACC,
    ),
    (
        "batch/lane-errors",
        "POST",
        "/batch",
        "lane=n=1&lane=zz=3&lane=n=x&lane=",
        ACC,
    ),
    (
        "batch/crc-no-params",
        "POST",
        "/batch",
        "preset=vN&lane=&lane=",
        CRC,
    ),
    (
        "batch/cycle-limit-lanes",
        "POST",
        "/batch",
        "max-cycles=10&lane=n=1",
        ACC,
    ),
    ("batch/no-lanes", "POST", "/batch", "", ACC),
    (
        "batch/faults",
        "POST",
        "/batch",
        "fault=pe:0,0&lane=n=1",
        ACC,
    ),
    ("batch/param", "POST", "/batch", "param=n=1&lane=n=1", ACC),
    ("batch/bad-lane", "POST", "/batch", "lane=n", ACC),
    (
        "batch/parse-error",
        "POST",
        "/batch",
        "lane=n=1",
        PARSE_ERROR,
    ),
    // Softbrain on a fabric with fewer tiles than its stream engines.
    (
        "sb/fabric-1x1",
        "POST",
        "/run",
        "fabric=1x1&preset=SB",
        MERGESORT,
    ),
];

/// Digests per request at cache capacity 64 (nothing is evicted).
const PINS_CACHE_64: &[(&str, u64)] = &[
    ("healthz", 0xfc3a802f9c45db1d),
    ("not-found", 0x28fc2c9fce1f62a3),
    ("wrong-method", 0xb59987dbb134b1f4),
    ("acc/cold", 0x5d4d710c13a0b7b7),
    ("acc/artifact-hit", 0x78fef8195111a3d7),
    ("acc/memo-hit", 0x27d89621fb5388b6),
    ("acc/default-preset", 0x27d89621fb5388b6),
    ("acc/restyled", 0x78fef8195111a3d7),
    ("acc/param", 0x1f732fe836a5a122),
    ("acc/param-memo-hit", 0xcf1026469f87b1f1),
    ("acc/two-params", 0xc19805bb119e7681),
    ("acc/engine-wheel", 0x27d89621fb5388b6),
    ("acc/max-cycles-above-cap", 0x27d89621fb5388b6),
    ("acc/max-cycles-lowered", 0x27d89621fb5388b6),
    ("acc/fabric-6x6", 0x0ce0b02e257844f7),
    ("acc/fabric-6x6-vN", 0x5183e09891f38506),
    ("acc/search-20", 0xf4091d26508f69ff),
    ("acc/search-20,1", 0x75c1065d626e59e3),
    ("acc/search-spaced", 0x75c1065d626e59e3),
    ("acc/search-20,2", 0xff6c089cd8f276c7),
    // 400 bad_search since mard shares the CLIs' decoder (was a 200
    // that ran one chain under its own cache address).
    ("acc/search-20,0", 0x24a1aa469649b3a1),
    // 400 bad_search (was a 200 served from the `search=20,1` entry).
    ("acc/search-20,1,3", 0x1394c054fb626efe),
    ("crc/vN", 0x8f2318e9a1c7da9b),
    ("crc/DF", 0xa9bd046e6510d5d4),
    ("crc/M-PE", 0xb2cd7046ac85aef7),
    ("crc/M-CN", 0x50f32e2f1971251f),
    ("crc/M", 0xe05c539ff5dc47a2),
    ("crc/SB", 0xeb612b352e043cac),
    ("crc/TIA", 0x15f77b2229157602),
    ("crc/RV", 0x282be22e9ccac4b2),
    ("crc/RT", 0x8bcec11276632b2c),
    ("crc/M-repeat", 0x1976446a24132d30),
    ("conv1d/M", 0x4aadd86a808d110e),
    ("conv1d/param", 0x3211eeaf4a3319a2),
    ("mergesort/M", 0x9bdaba2e196b7c82),
    ("mergesort/DF", 0xb00c231cb91f64fc),
    ("crc/fault-pe", 0xa13fc1c675eb8d11),
    ("crc/fault-pe-repeat", 0xf5a88f089a3b0fa7),
    ("crc/fault-link", 0x144e056b02e1dd3f),
    ("crc/fault-flaky", 0xaa5b5ccd2c6a371f),
    ("crc/faults-random", 0x6c0fbd389721765e),
    ("crc/faults-default-seed", 0xa855db02f7b4566c),
    ("mergesort/fault-vN", 0xc6af845d87e08730),
    ("crc/one-pe-left", 0xa6ab0b88a7a2c0fc),
    ("crc/remap-infeasible", 0x42202894d78b2a49),
    ("acc/cycle-limit", 0x46bd5aac1a0c6460),
    ("spin/interp-budget", 0x14bfda7933ebf3e5),
    ("error/parse", 0xfbe8dbfde72badf6),
    ("error/sema", 0xe507936b80dfc6a1),
    ("error/unknown-preset", 0x04f63f2c3471bfac),
    ("error/empty-preset", 0x235278fa32235fb4),
    ("error/two-presets", 0x5130782258713569),
    ("error/bad-fabric", 0x2b3bd242e1458713),
    ("error/zero-fabric", 0x00b62e8ebeff758b),
    ("error/bad-search", 0x903145b99dad799a),
    ("error/bad-search-restarts", 0x9a288fd6f860f8db),
    ("error/bad-faults", 0x311528650d8fecb0),
    ("error/bad-fault-seed", 0x57207bd67a4bf35e),
    ("error/off-fabric-fault", 0xd5a57e669b8070d9),
    ("error/bogus-fault", 0x2ee9636dea900c5d),
    ("error/bad-engine", 0x23b316e5e748ad4a),
    ("error/bad-max-cycles", 0xf19adf7eae60f4d1),
    ("error/param-without-value", 0x2470c62ce1e7ae37),
    ("error/param-bad-value", 0x1017a77daf9a3327),
    ("error/unknown-param", 0xebaf11dd140b830f),
    ("error/lane-on-run", 0x4092c9113b81b3b0),
    // bad_search: the run policy decodes before the preset (was
    // unknown_preset).
    ("error/preset-then-search", 0x9a67590a14c95118),
    ("error/compile", 0x2f04d49334a6d926),
    ("batch/cold", 0x6fbd9c709e53719e),
    ("batch/warm", 0xbf5e55d8316082a1),
    ("batch/memo-warm", 0xbf5e55d8316082a1),
    ("batch/lane-errors", 0x499dbe3bd698dbbc),
    ("batch/crc-no-params", 0x5d941a70092b22fe),
    ("batch/cycle-limit-lanes", 0xcb9c62e03bf37a29),
    ("batch/no-lanes", 0x22327ca8d5049964),
    ("batch/faults", 0xd451ee7888b65d40),
    ("batch/param", 0xc42f382b1019128b),
    ("batch/bad-lane", 0x1eaacfc0aad63e4f),
    ("batch/parse-error", 0xfbe8dbfde72badf6),
    ("sb/fabric-1x1", 0xe8329fde57a46c49),
];

/// Digests per request at cache capacity 3.
const PINS_CACHE_3: &[(&str, u64)] = &[
    ("healthz", 0xfc3a802f9c45db1d),
    ("not-found", 0x28fc2c9fce1f62a3),
    ("wrong-method", 0xb59987dbb134b1f4),
    ("acc/cold", 0x5d4d710c13a0b7b7),
    ("acc/artifact-hit", 0x78fef8195111a3d7),
    ("acc/memo-hit", 0x27d89621fb5388b6),
    ("acc/default-preset", 0x27d89621fb5388b6),
    ("acc/restyled", 0x78fef8195111a3d7),
    ("acc/param", 0x1f732fe836a5a122),
    ("acc/param-memo-hit", 0xcf1026469f87b1f1),
    ("acc/two-params", 0xc19805bb119e7681),
    ("acc/engine-wheel", 0x78fef8195111a3d7),
    ("acc/max-cycles-above-cap", 0x27d89621fb5388b6),
    ("acc/max-cycles-lowered", 0x27d89621fb5388b6),
    ("acc/fabric-6x6", 0x0ce0b02e257844f7),
    ("acc/fabric-6x6-vN", 0x5183e09891f38506),
    ("acc/search-20", 0xf4091d26508f69ff),
    ("acc/search-20,1", 0x75c1065d626e59e3),
    ("acc/search-spaced", 0x75c1065d626e59e3),
    ("acc/search-20,2", 0xff6c089cd8f276c7),
    // 400 bad_search since mard shares the CLIs' decoder (was a 200
    // that ran one chain under its own cache address).
    ("acc/search-20,0", 0x24a1aa469649b3a1),
    // 400 bad_search (was a 200 served from the `search=20,1` entry).
    ("acc/search-20,1,3", 0x1394c054fb626efe),
    ("crc/vN", 0x8f2318e9a1c7da9b),
    ("crc/DF", 0xa9bd046e6510d5d4),
    ("crc/M-PE", 0xb2cd7046ac85aef7),
    ("crc/M-CN", 0x50f32e2f1971251f),
    ("crc/M", 0xe05c539ff5dc47a2),
    ("crc/SB", 0xeb612b352e043cac),
    ("crc/TIA", 0x15f77b2229157602),
    ("crc/RV", 0x282be22e9ccac4b2),
    ("crc/RT", 0x8bcec11276632b2c),
    ("crc/M-repeat", 0xe05c539ff5dc47a2),
    ("conv1d/M", 0x4aadd86a808d110e),
    ("conv1d/param", 0x3211eeaf4a3319a2),
    ("mergesort/M", 0x9bdaba2e196b7c82),
    ("mergesort/DF", 0xb00c231cb91f64fc),
    ("crc/fault-pe", 0x4b75f3c614f359ae),
    ("crc/fault-pe-repeat", 0xea53bc176d16d8e0),
    ("crc/fault-link", 0x144e056b02e1dd3f),
    ("crc/fault-flaky", 0xaa5b5ccd2c6a371f),
    ("crc/faults-random", 0x6c0fbd389721765e),
    ("crc/faults-default-seed", 0xa855db02f7b4566c),
    ("mergesort/fault-vN", 0xc6af845d87e08730),
    ("crc/one-pe-left", 0xa6ab0b88a7a2c0fc),
    ("crc/remap-infeasible", 0x42202894d78b2a49),
    ("acc/cycle-limit", 0x46bd5aac1a0c6460),
    ("spin/interp-budget", 0x14bfda7933ebf3e5),
    ("error/parse", 0xfbe8dbfde72badf6),
    ("error/sema", 0xe507936b80dfc6a1),
    ("error/unknown-preset", 0x04f63f2c3471bfac),
    ("error/empty-preset", 0x235278fa32235fb4),
    ("error/two-presets", 0x5130782258713569),
    ("error/bad-fabric", 0x2b3bd242e1458713),
    ("error/zero-fabric", 0x00b62e8ebeff758b),
    ("error/bad-search", 0x903145b99dad799a),
    ("error/bad-search-restarts", 0x9a288fd6f860f8db),
    ("error/bad-faults", 0x311528650d8fecb0),
    ("error/bad-fault-seed", 0x57207bd67a4bf35e),
    ("error/off-fabric-fault", 0xd5a57e669b8070d9),
    ("error/bogus-fault", 0x2ee9636dea900c5d),
    ("error/bad-engine", 0x23b316e5e748ad4a),
    ("error/bad-max-cycles", 0xf19adf7eae60f4d1),
    ("error/param-without-value", 0x2470c62ce1e7ae37),
    ("error/param-bad-value", 0x1017a77daf9a3327),
    ("error/unknown-param", 0xebaf11dd140b830f),
    ("error/lane-on-run", 0x4092c9113b81b3b0),
    // bad_search: the run policy decodes before the preset (was
    // unknown_preset).
    ("error/preset-then-search", 0x9a67590a14c95118),
    ("error/compile", 0x2f04d49334a6d926),
    ("batch/cold", 0x57449af70a8fd5d4),
    ("batch/warm", 0x6fbd9c709e53719e),
    ("batch/memo-warm", 0xbf5e55d8316082a1),
    ("batch/lane-errors", 0x499dbe3bd698dbbc),
    ("batch/crc-no-params", 0x058264c9918689af),
    ("batch/cycle-limit-lanes", 0xcb9c62e03bf37a29),
    ("batch/no-lanes", 0x22327ca8d5049964),
    ("batch/faults", 0xd451ee7888b65d40),
    ("batch/param", 0xc42f382b1019128b),
    ("batch/bad-lane", 0x1eaacfc0aad63e4f),
    ("batch/parse-error", 0xfbe8dbfde72badf6),
    ("sb/fabric-1x1", 0xe8329fde57a46c49),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn request(method: &str, path: &str, query: &str, body: &str) -> Request {
    let pair = |kv: &str| match kv.split_once('=') {
        Some((k, v)) => (k.to_string(), v.to_string()),
        None => (kv.to_string(), String::new()),
    };
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(pair)
            .collect(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

/// Runs the battery in order on a fresh state with `cache_cap` entries
/// and returns each request's digest.
fn digests(cache_cap: usize) -> Vec<(&'static str, u64)> {
    let cfg = ServeConfig {
        cache_cap,
        // Small enough that `SPIN` busts it quickly in a debug build.
        interp_budget: 200_000,
        ..ServeConfig::default()
    };
    let state = ServerState {
        cache: CompileCache::new(cfg.cache_cap),
        counters: Counters::default(),
        metrics: Metrics::default(),
        cfg,
    };
    BATTERY
        .iter()
        .map(|&(name, method, path, query, body)| {
            let mut meta = RouteMeta::default();
            let (status, body) =
                route_with_meta(&state, 0, &request(method, path, query, body), &mut meta);
            let seen = format!(
                "{status}\nmemo {:?} cache {:?}\n{body}",
                meta.memo_hit, meta.cache_hit
            );
            (name, fnv1a(seen.as_bytes()))
        })
        .collect()
}

/// Compares the battery against its pins, naming every request that
/// differs and printing the whole table for review.
fn check(cache_cap: usize, pins: &[(&str, u64)]) {
    let got = digests(cache_cap);
    let names: Vec<&str> = BATTERY.iter().map(|c| c.0).collect();
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "battery names must be unique");
    let differing: Vec<&str> = got
        .iter()
        .filter(|(name, d)| pins.iter().find(|(p, _)| p == name).map(|p| p.1) != Some(*d))
        .map(|(name, _)| *name)
        .collect();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    assert!(
        differing.is_empty() && pins.len() == got.len(),
        "cache {cache_cap}: requests differing from their pins: {differing:?}\n\
         the battery now reads:\n{table}"
    );
}

#[test]
fn battery_is_pinned_with_room_for_every_artifact() {
    check(64, PINS_CACHE_64);
}

#[test]
fn battery_is_pinned_with_a_three_entry_cache() {
    check(3, PINS_CACHE_3);
}
