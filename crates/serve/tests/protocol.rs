//! Protocol conformance: an in-process `mard` on an ephemeral port,
//! with the status codes, JSON shapes, and error bodies pinned for
//! every request class a client can produce.

mod common;

use common::{http, raw, run};
use marionette_serve::{ServeConfig, Server};

/// A small program with a computable sink: `s = Σ_{i<8} i·n = 28n`.
const GOOD: &str = "\
program acc;
param n: i32 = 6;
let s = for i in 0..8 with a = 0 {
  yield a + i * n;
};
sink s = s;
";

fn server() -> Server {
    Server::start(ServeConfig::default()).expect("bind ephemeral")
}

#[test]
fn healthz_and_stats_respond() {
    let s = server();
    let (status, body) = http(s.addr(), "GET", "/healthz", b"");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\": true"), "{body}");
    let (status, body) = http(s.addr(), "GET", "/stats", b"");
    assert_eq!(status, 200);
    for key in ["\"requests\":", "\"cache\":", "\"queue\":", "\"limits\":"] {
        assert!(body.contains(key), "missing {key} in {body}");
    }
    s.stop();
}

#[test]
fn good_source_serves_a_verified_result() {
    let s = server();
    let (status, body) = run(s.addr(), "preset=M", GOOD);
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"schema\": \"marionette.mard/v1\""),
        "{body}"
    );
    assert!(body.contains("\"endpoint\": \"run\""), "{body}");
    assert!(body.contains("\"program\": \"acc\""), "{body}");
    assert!(body.contains("\"preset\": \"M\""), "{body}");
    assert!(body.contains("\"cache\": {\"outcome\": \"miss\""), "{body}");
    assert!(body.contains("\"verified\": true"), "{body}");
    // 28 · 6 = 168: the sink value is the semantics, pinned.
    assert!(body.contains("\"sinks\": {\"s\": [168]}"), "{body}");
    s.stop();
}

#[test]
fn parse_error_is_400_with_caret_diagnostics_verbatim() {
    let s = server();
    let src = "program broken;\nthis is not mar\n";
    let (status, body) = run(s.addr(), "", src);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\": \"parse_error\""), "{body}");
    // The diagnostics field carries the same render the offline driver
    // prints: file:line:col, the offending line, and the caret.
    let expected = marionette_lang::parse(src)
        .expect_err("source must not parse")
        .render("<request>", src);
    let escaped = marionette::report::json_escape(&expected);
    assert!(
        body.contains(&escaped),
        "diagnostics not verbatim:\nwant {escaped}\nin {body}"
    );
    s.stop();
}

#[test]
fn sema_error_is_400_with_diagnostics() {
    let s = server();
    let src = "program bad;\nsink x = undeclared_name;\n";
    let (status, body) = run(s.addr(), "", src);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\": \"sema_error\""), "{body}");
    assert!(body.contains("\"diagnostics\":"), "{body}");
    assert!(body.contains("<request>"), "{body}");
    s.stop();
}

#[test]
fn unknown_preset_and_fabric_and_engine_are_400() {
    let s = server();
    let (status, body) = run(s.addr(), "preset=NOPE", GOOD);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\": \"unknown_preset\""), "{body}");
    // The detail lists the valid tags so the client can self-correct.
    assert!(body.contains("M"), "{body}");

    let (status, body) = run(s.addr(), "fabric=potato", GOOD);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\": \"bad_fabric\""), "{body}");

    // The wheel is the only event core: the retired heap is refused too.
    for engine in ["engine=quantum", "engine=heap"] {
        let (status, body) = run(s.addr(), engine, GOOD);
        assert_eq!(status, 400, "{engine}: {body}");
        assert!(
            body.contains("\"kind\": \"bad_engine\""),
            "{engine}: {body}"
        );
        assert!(body.contains("`wheel`"), "{engine}: {body}");
    }
    s.stop();
}

#[test]
fn unknown_param_is_400() {
    let s = server();
    let (status, body) = run(s.addr(), "param=zz%3D4", GOOD);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\": \"unknown_param\""), "{body}");
    s.stop();
}

#[test]
fn oversized_body_is_413_before_reading() {
    let s = Server::start(ServeConfig {
        max_body: 64,
        ..ServeConfig::default()
    })
    .expect("bind");
    let (status, body) = run(s.addr(), "", GOOD);
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("\"kind\": \"body_too_large\""), "{body}");
    s.stop();
}

#[test]
fn malformed_http_is_400_not_a_hang() {
    let s = server();
    let (status, body) = raw(s.addr(), b"GARBAGE\r\n\r\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\": \"malformed_request\""), "{body}");
    let (status, _) = raw(s.addr(), b"GET /x SPDY/9\r\nHost: h\r\n\r\n");
    assert_eq!(status, 400);
    s.stop();
}

#[test]
fn post_without_content_length_is_411() {
    let s = server();
    let (status, body) = raw(s.addr(), b"POST /run HTTP/1.1\r\nHost: h\r\n\r\n");
    assert_eq!(status, 411, "{body}");
    assert!(body.contains("\"kind\": \"length_required\""), "{body}");
    s.stop();
}

#[test]
fn unknown_path_is_404_and_wrong_method_is_405() {
    let s = server();
    let (status, body) = http(s.addr(), "GET", "/nonsense", b"");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("\"kind\": \"not_found\""), "{body}");
    let (status, body) = http(s.addr(), "GET", "/run", b"");
    assert_eq!(status, 405, "{body}");
    assert!(body.contains("\"kind\": \"method_not_allowed\""), "{body}");
    let (status, _) = http(s.addr(), "DELETE", "/healthz", b"");
    assert_eq!(status, 405);
    s.stop();
}

#[test]
fn batch_runs_lanes_and_isolates_lane_errors() {
    let s = server();
    let query = "preset=M&lane=n%3D1&lane=n%3Dbroken&lane=n%3D10";
    let (status, body) = http(
        s.addr(),
        "POST",
        &format!("/batch?{query}"),
        GOOD.as_bytes(),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"endpoint\": \"batch\""), "{body}");
    assert!(body.contains("\"lane_errors\": 1"), "{body}");
    // Lane 0 (n=1 → 28) and lane 2 (n=10 → 280) complete around the
    // broken middle lane.
    assert!(body.contains("\"sinks\": {\"s\": [28]}"), "{body}");
    assert!(body.contains("\"sinks\": {\"s\": [280]}"), "{body}");
    assert!(body.contains("\"ok\": false"), "{body}");
    assert!(body.contains("\"kind\": \"bad_param\""), "{body}");
    s.stop();
}

/// A program whose trip count — and so its cycle count — is a parameter.
const TRIP: &str = "\
program trip;
param n: i32 = 4;
let s = for i in 0..n with a = 0 {
  yield a + i;
};
sink s = s;
";

/// The text after `"result": ` on `line`, without a list comma.
fn result_of(line: &str) -> &str {
    let at = line.find("\"result\": ").expect("a result field") + "\"result\": ".len();
    line[at..].trim_end().trim_end_matches(',')
}

#[test]
fn batch_equals_one_run_per_lane() {
    let s = server();
    // n=40 runs ~170 cycles on M and busts the lowered 100-cycle budget;
    // n=2 and n=4 finish well inside it.
    let budget = "preset=M&max-cycles=100";
    let (status, body) = http(
        s.addr(),
        "POST",
        &format!("/batch?{budget}&lane=n%3D2&lane=n%3D40&lane=n%3D4"),
        TRIP.as_bytes(),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"lane_errors\": 1,"), "{body}");
    let lanes: Vec<&str> = body.lines().filter(|l| l.contains("\"ok\": ")).collect();
    assert_eq!(lanes.len(), 3, "{body}");
    for (lane, n) in [(lanes[0], 2), (lanes[2], 4)] {
        assert!(
            lane.starts_with("    {\"ok\": true, \"result\": {"),
            "{lane}"
        );
        let (status, solo) = run(s.addr(), &format!("{budget}&param=n%3D{n}"), TRIP);
        assert_eq!(status, 200, "{solo}");
        let solo_line = solo.lines().find(|l| l.contains("\"result\": ")).unwrap();
        // The lane entry closes its own object after the result's.
        let lane_result = result_of(lane).strip_suffix('}').unwrap();
        assert_eq!(lane_result, result_of(solo_line), "n={n}");
    }
    // The budget-busting lane reports the very error `/run` gives it.
    assert!(lanes[1].contains("\"ok\": false"), "{}", lanes[1]);
    assert!(
        lanes[1].contains("\"kind\": \"cycle_limit\""),
        "{}",
        lanes[1]
    );
    let (status, solo) = run(s.addr(), &format!("{budget}&param=n%3D40"), TRIP);
    assert_eq!(status, 422, "{solo}");
    let detail = |b: &str| {
        let at = b.find("\"detail\": ").expect("an error detail");
        b[at..].split('"').nth(3).unwrap().to_string()
    };
    assert_eq!(detail(lanes[1]), detail(&solo));
    s.stop();
}

#[test]
fn batch_without_lanes_and_run_with_lanes_are_400() {
    let s = server();
    let (status, body) = http(s.addr(), "POST", "/batch?preset=M", GOOD.as_bytes());
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\": \"bad_lane\""), "{body}");
    let (status, body) = run(s.addr(), "lane=n%3D4", GOOD);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\": \"bad_lane\""), "{body}");
    s.stop();
}

#[test]
fn counters_track_response_classes() {
    let s = server();
    let _ = run(s.addr(), "preset=M", GOOD); // 200
    let _ = run(s.addr(), "preset=NOPE", GOOD); // 400
    let (_, stats) = http(s.addr(), "GET", "/stats", b"");
    assert!(stats.contains("\"ok\": 1"), "{stats}");
    assert!(stats.contains("\"client_errors\": 1"), "{stats}");
    s.stop();
}

#[test]
fn stats_reports_uptime_and_per_endpoint_counts() {
    let s = server();
    let _ = http(s.addr(), "GET", "/healthz", b"");
    let _ = run(s.addr(), "preset=M", GOOD);
    let (status, stats) = http(s.addr(), "GET", "/stats", b"");
    assert_eq!(status, 200);
    assert!(stats.contains("\"uptime_secs\": "), "{stats}");
    assert!(stats.contains("\"endpoints\": {"), "{stats}");
    assert!(stats.contains("\"healthz\": 1"), "{stats}");
    assert!(stats.contains("\"run\": 1"), "{stats}");
    // The /stats request itself has not been recorded yet when its own
    // body is rendered, so the earlier traffic pins exact counts.
    assert!(stats.contains("\"batch\": 0"), "{stats}");
    s.stop();
}

#[test]
fn metrics_expose_prometheus_text_that_parses() {
    let s = server();
    let _ = run(s.addr(), "preset=M", GOOD); // move the counters first
    let (status, head, body) = common::http_full(s.addr(), "GET", "/metrics", b"");
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("Content-Type: text/plain"), "{head}");

    // Every line must be a comment or `name[{labels}] value` with a
    // numeric value — the Prometheus text exposition grammar.
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        if let Some(comment) = line.strip_prefix('#') {
            let word = comment.trim_start().split(' ').next().unwrap_or("");
            assert!(
                word == "HELP" || word == "TYPE",
                "bad comment line `{line}`"
            );
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line `{line}` has no value");
        });
        assert!(
            value.parse::<f64>().is_ok(),
            "value `{value}` in `{line}` is not numeric"
        );
        let name = name_part.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in `{line}`"
        );
        if let Some(rest) = name_part.split_once('{').map(|(_, r)| r) {
            assert!(rest.ends_with('}'), "unterminated labels in `{line}`");
        }
    }

    // The /run above must be visible in the counters and the histogram.
    assert!(
        body.contains("mard_requests_total{endpoint=\"run\",status=\"200\"} 1"),
        "{body}"
    );
    assert!(body.contains("mard_cache_misses_total 1"), "{body}");
    assert!(
        body.contains("mard_request_latency_seconds_bucket{le=\"+Inf\"} 1"),
        "{body}"
    );
    assert!(
        body.contains("mard_request_latency_seconds_count 1"),
        "{body}"
    );
    assert!(body.contains("mard_workers "), "{body}");
    assert!(body.contains("mard_uptime_seconds "), "{body}");
    s.stop();
}

#[test]
fn responses_echo_a_request_id() {
    let s = server();
    let (_, head1, _) = common::http_full(s.addr(), "GET", "/healthz", b"");
    let (_, head2, _) = common::http_full(s.addr(), "GET", "/healthz", b"");
    let id_of = |head: &str| -> u64 {
        head.lines()
            .find_map(|l| l.strip_prefix("X-Request-Id: "))
            .unwrap_or_else(|| panic!("no X-Request-Id in `{head}`"))
            .trim()
            .parse()
            .expect("numeric request id")
    };
    let (id1, id2) = (id_of(&head1), id_of(&head2));
    assert_ne!(id1, id2, "request ids must be distinct");
    assert!(id2 > id1, "request ids must be monotonic");
    s.stop();
}
