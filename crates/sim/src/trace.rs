//! Opt-in cycle-accurate tracing: the machine's trace plane.
//!
//! A [`Tracer`] installed via [`crate::RunSpec::tracer`] records
//! one timestamped event per architectural occurrence — PE/control/memory
//! firings, mesh link grants, arbitration and backpressure stalls,
//! control-plane configuration switches, memory accesses — plus counter
//! samples (event-queue depth, in-flight flits) and free-form markers
//! (fault remaps). Events land in a chunked arena (no reallocation moves
//! on the hot path) and export as Chrome trace-event JSON, directly
//! loadable in Perfetto (<https://ui.perfetto.dev>): one track per
//! PE data/ctrl part, per directed mesh link, per memory unit, plus the
//! CCU track and the counter tracks.
//!
//! Tracing is strictly opt-in: a machine without a tracer takes a single
//! null-pointer check per hook site, and the traced run is bit-identical
//! to the untraced one (pinned by `crates/core/tests/trace_plane.rs`).
//!
//! The exported JSON is line-oriented (one event object per line, fixed
//! key order) so [`parse`] can validate and reload it without a general
//! JSON parser; `trace_diff` and the schema tests build on that. The
//! timestamp unit is **one simulated cycle per microsecond** — Perfetto's
//! native unit — so slice widths read directly as cycle counts.

use std::collections::HashMap;
use std::fmt::Write as _;

/// Events per arena chunk: chunks never reallocate, so recording a new
/// event moves no previously recorded one.
const CHUNK: usize = 1 << 15;

/// Identity of a trace track (a Perfetto "thread"); interned to a dense
/// tid in first-use order, which makes the export deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum TrackKey {
    /// A PE's data flow part.
    PeData(u32),
    /// A PE's control flow part.
    PeCtrl(u32),
    /// A dedicated network switch unit.
    Switch(u32),
    /// A memory stream unit.
    Mem(u32),
    /// A directed mesh link (`from_pe * 4 + dir`, E/W/S/N = 0/1/2/3).
    Link(u32),
    /// The central configuration unit (group switches).
    Ccu,
    /// Free-form markers (fault remaps, run annotations).
    Marks,
    /// Counter: pending events in the simulator queue.
    QueueDepth,
    /// Counter: flits in flight (traversing + arbitrating + parked).
    Flits,
}

/// What a trace event records.
#[derive(Clone, Debug)]
pub(crate) enum RecKind {
    Fire { node: u32, poisoned: bool },
    Grant { route: u32 },
    Stall { route: u32 },
    Park { route: u32 },
    Switch { group: u16 },
    Mem { store: bool, array: u32 },
    Counter { value: u64 },
    Mark { label: u32 },
}

#[derive(Clone, Debug)]
struct Rec {
    track: u32,
    ts: u64,
    dur: u64,
    kind: RecKind,
}

/// An arena-backed trace event recorder. See the module docs.
#[derive(Debug, Default)]
pub struct Tracer {
    cols: usize,
    tracks: Vec<String>,
    lookup: HashMap<TrackKey, u32>,
    chunks: Vec<Vec<Rec>>,
    labels: Vec<String>,
    last_queue_depth: Option<u64>,
    last_flits: Option<u64>,
}

impl Tracer {
    /// A fresh, empty tracer.
    #[must_use]
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Number of recorded events (metadata lines excluded).
    #[must_use]
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a free-form instant marker (e.g. `remap after pe:0,0`)
    /// on the marks track at `cycle`.
    pub fn mark(&mut self, cycle: u64, label: &str) {
        let li = self.labels.len() as u32;
        self.labels.push(label.to_string());
        self.record(TrackKey::Marks, cycle, 0, RecKind::Mark { label: li });
    }

    pub(crate) fn set_cols(&mut self, cols: usize) {
        self.cols = cols;
    }

    fn track(&mut self, key: TrackKey) -> u32 {
        if let Some(&t) = self.lookup.get(&key) {
            return t;
        }
        let cols = self.cols.max(1);
        let rc = |pe: u32| (pe as usize / cols, pe as usize % cols);
        let name = match key {
            TrackKey::PeData(pe) => {
                let (r, c) = rc(pe);
                format!("pe {r},{c} data")
            }
            TrackKey::PeCtrl(pe) => {
                let (r, c) = rc(pe);
                format!("pe {r},{c} ctrl")
            }
            TrackKey::Switch(sw) => format!("switch {sw}"),
            TrackKey::Mem(u) => format!("mem {u}"),
            TrackKey::Link(lid) => {
                let (r, c) = rc(lid / 4);
                let dir = ["E", "W", "S", "N"][(lid % 4) as usize];
                format!("link {r},{c}>{dir}")
            }
            TrackKey::Ccu => "ccu".to_string(),
            TrackKey::Marks => "marks".to_string(),
            TrackKey::QueueDepth => "queue depth".to_string(),
            TrackKey::Flits => "flits in flight".to_string(),
        };
        let tid = self.tracks.len() as u32;
        self.tracks.push(name);
        self.lookup.insert(key, tid);
        tid
    }

    /// Records one event of `kind` on `key`'s track.
    pub(crate) fn record(&mut self, key: TrackKey, ts: u64, dur: u64, kind: RecKind) {
        let track = self.track(key);
        let rec = Rec {
            track,
            ts,
            dur,
            kind,
        };
        match self.chunks.last_mut() {
            Some(c) if c.len() < CHUNK => c.push(rec),
            _ => {
                let mut c = Vec::with_capacity(CHUNK);
                c.push(rec);
                self.chunks.push(c);
            }
        }
    }

    /// Samples the counter tracks, recording only values that changed.
    pub(crate) fn counters(&mut self, cycle: u64, queue_depth: u64, flits: u64) {
        if self.last_queue_depth.replace(queue_depth) != Some(queue_depth) {
            let kind = RecKind::Counter { value: queue_depth };
            self.record(TrackKey::QueueDepth, cycle, 0, kind);
        }
        if self.last_flits.replace(flits) != Some(flits) {
            self.record(TrackKey::Flits, cycle, 0, RecKind::Counter { value: flits });
        }
    }

    /// Serializes the trace as Chrome trace-event JSON, one event object
    /// per line: first a `thread_name` metadata line per track (tids are
    /// dense, in first-use order), then every recorded event in record
    /// order. The output is deterministic for a deterministic run.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::with_capacity(64 + self.len() * 72);
        s.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let mut line = |s: &mut String, l: &str| {
            if first {
                first = false;
            } else {
                s.push_str(",\n");
            }
            s.push_str(l);
        };
        let mut buf = String::new();
        for (i, name) in self.tracks.iter().enumerate() {
            buf.clear();
            let _ = write!(
                buf,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                i + 1,
                escape(name)
            );
            line(&mut s, &buf);
        }
        for rec in self.chunks.iter().flatten() {
            buf.clear();
            let tid = rec.track + 1;
            let (ts, dur) = (rec.ts, rec.dur);
            let mut slice = |name: std::fmt::Arguments| {
                write!(
                    buf,
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"name\":\"{name}\"}}"
                )
            };
            let _ = match &rec.kind {
                RecKind::Fire { node, poisoned } => {
                    let what = if *poisoned { "poison" } else { "fire" };
                    slice(format_args!("{what} n{node}"))
                }
                RecKind::Grant { route } => slice(format_args!("grant r{route}")),
                RecKind::Stall { route } => slice(format_args!("stall r{route}")),
                RecKind::Park { route } => slice(format_args!("park r{route}")),
                RecKind::Switch { group } => slice(format_args!("switch g{group}")),
                RecKind::Mem { store, array } => {
                    let what = if *store { "store" } else { "load" };
                    write!(
                        buf,
                        "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\"name\":\"{what} a{array}\"}}"
                    )
                }
                RecKind::Counter { value } => write!(
                    buf,
                    "{{\"ph\":\"C\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"name\":\"{}\",\"args\":{{\"value\":{value}}}}}",
                    escape(&self.tracks[rec.track as usize])
                ),
                RecKind::Mark { label } => write!(
                    buf,
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\"name\":\"{}\"}}",
                    escape(&self.labels[*label as usize])
                ),
            };
            line(&mut s, &buf);
        }
        s.push_str("\n]}\n");
        s
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------- parsing / validation --------------------------------

/// One reloaded trace event (non-metadata).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedEvent {
    /// Track index into [`ParsedTrace::tracks`].
    pub track: u32,
    /// Phase letter: `X` (complete), `C` (counter), `i` (instant).
    pub ph: char,
    /// Start cycle.
    pub ts: u64,
    /// Duration in cycles (0 for counters and instants).
    pub dur: u64,
    /// Event name (`fire n3`, `stall r7`, …) — track name for counters.
    pub name: String,
    /// Counter value, for `C` events.
    pub value: Option<u64>,
}

/// A reloaded, schema-validated trace.
#[derive(Clone, Debug, Default)]
pub struct ParsedTrace {
    /// Track display names, indexed by `tid - 1`.
    pub tracks: Vec<String>,
    /// Every non-metadata event, in file order.
    pub events: Vec<ParsedEvent>,
}

impl ParsedTrace {
    /// Summed stall cycles (`stall` + `park` slices) per track, in track
    /// order — the per-track attribution `trace_diff` reports deltas of.
    #[must_use]
    pub fn stall_by_track(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.tracks.len()];
        for e in &self.events {
            if e.ph == 'X' && (e.name.starts_with("stall ") || e.name.starts_with("park ")) {
                out[e.track as usize] = out[e.track as usize].saturating_add(e.dur);
            }
        }
        out
    }

    /// Highest `ts + dur` across all events — the traced horizon.
    #[must_use]
    pub fn last_cycle(&self) -> u64 {
        self.events.iter().map(|e| e.ts + e.dur).max().unwrap_or(0)
    }
}

fn u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let rest = &line.as_bytes()[i..];
    let end = rest
        .iter()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    line[i..i + end].parse().ok()
}

fn str_field(line: &str, pat: &str) -> Option<String> {
    let i = line.find(pat)? + pat.len();
    let rest = &line[i..];
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let cp = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(cp)?);
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
}

/// Parses and schema-validates a trace produced by
/// [`Tracer::to_chrome_json`] (the documented subset of the Chrome
/// trace-event format: see `docs/OBSERVABILITY.md`).
///
/// # Errors
/// Returns a description of the first schema violation: bad envelope,
/// unknown phase, missing field, a counter without a value, an event
/// referencing an undeclared track, or an event ending past `u64::MAX`.
pub fn parse(s: &str) -> Result<ParsedTrace, String> {
    let body = s.trim();
    let body = body
        .strip_prefix("{\"traceEvents\":[")
        .ok_or("missing {\"traceEvents\":[ envelope")?;
    let body = body
        .strip_suffix("]}")
        .ok_or("missing ]} envelope terminator")?;
    let mut out = ParsedTrace::default();
    for (ln, line) in body.lines().enumerate() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line}", ln + 1);
        if !line.starts_with('{') || !line.ends_with('}') {
            return Err(err("event is not a one-line object"));
        }
        let ph = str_field(line, "\"ph\":\"").ok_or_else(|| err("missing ph"))?;
        if u64_field(line, "pid") != Some(1) {
            return Err(err("pid must be 1"));
        }
        let tid = u64_field(line, "tid").ok_or_else(|| err("missing tid"))?;
        match ph.as_str() {
            "M" => {
                if str_field(line, "\"name\":\"").as_deref() != Some("thread_name") {
                    return Err(err("metadata must be thread_name"));
                }
                let name = str_field(line, "\"args\":{\"name\":\"")
                    .ok_or_else(|| err("thread_name without args.name"))?;
                if tid as usize != out.tracks.len() + 1 {
                    return Err(err("metadata tids must be dense and ordered"));
                }
                out.tracks.push(name);
            }
            "X" | "C" | "i" => {
                if tid == 0 || tid as usize > out.tracks.len() {
                    return Err(err("event on an undeclared track"));
                }
                let ts = u64_field(line, "ts").ok_or_else(|| err("missing ts"))?;
                let dur = match ph.as_str() {
                    "X" => u64_field(line, "dur").ok_or_else(|| err("complete without dur"))?,
                    _ => 0,
                };
                if ts.checked_add(dur).is_none() {
                    return Err(err("ts + dur overflows u64"));
                }
                if ph == "i" && !line.contains("\"s\":\"t\"") {
                    return Err(err("instant without thread scope"));
                }
                let name = str_field(line, "\"name\":\"").ok_or_else(|| err("missing name"))?;
                let value = match ph.as_str() {
                    "C" => {
                        Some(u64_field(line, "value").ok_or_else(|| err("counter without value"))?)
                    }
                    _ => None,
                };
                out.events.push(ParsedEvent {
                    track: (tid - 1) as u32,
                    ph: ph.as_bytes()[0] as char,
                    ts,
                    dur,
                    name,
                    value,
                });
            }
            other => return Err(err(&format!("unknown phase {other:?}"))),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_parse() {
        let mut t = Tracer::new();
        t.set_cols(4);
        let fire = |node, poisoned| RecKind::Fire { node, poisoned };
        t.record(TrackKey::PeData(5), 3, 1, fire(7, false));
        t.record(TrackKey::PeCtrl(5), 4, 1, fire(8, true));
        t.record(TrackKey::Link(21), 5, 1, RecKind::Grant { route: 2 });
        t.record(TrackKey::Link(21), 5, 3, RecKind::Stall { route: 2 });
        t.record(TrackKey::Link(21), 6, 2, RecKind::Park { route: 2 });
        t.record(TrackKey::Ccu, 9, 4, RecKind::Switch { group: 1 });
        let store = RecKind::Mem {
            store: true,
            array: 0,
        };
        t.record(TrackKey::Mem(0), 10, 0, store);
        t.counters(11, 3, 2);
        t.counters(12, 3, 5); // queue depth unchanged: one event only
        t.mark(13, "remap after pe:0,0");
        let json = t.to_chrome_json();
        let p = parse(&json).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(p.tracks[0], "pe 1,1 data");
        assert_eq!(p.tracks[1], "pe 1,1 ctrl");
        assert_eq!(p.tracks[2], "link 1,1>W");
        assert_eq!(p.events.len(), 11);
        assert_eq!(p.events[0].name, "fire n7");
        assert_eq!(p.events[1].name, "poison n8");
        assert_eq!(p.events[3].name, "stall r2");
        assert_eq!(p.events[3].dur, 3);
        assert_eq!(p.events[7].value, Some(3));
        assert_eq!(p.events[9].value, Some(5));
        assert_eq!(p.events[10].name, "remap after pe:0,0");
        // Stall attribution: stall(3) + park(2) on the link track.
        assert_eq!(p.stall_by_track()[2], 5);
    }

    #[test]
    fn zero_length_stalls_are_elided() {
        let mut o = crate::stats::Observer::new(1, 1);
        o.trace = Some(Box::default());
        o.stall(0, 0, 5, 0);
        o.park(0, 5, 0, || 0);
        assert!(o.trace.is_some_and(|t| t.is_empty()));
    }

    #[test]
    fn parse_rejects_schema_violations() {
        assert!(parse("[]").is_err());
        let undeclared =
            "{\"traceEvents\":[\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":1,\"name\":\"x\"}\n]}";
        assert!(parse(undeclared).unwrap_err().contains("undeclared"));
        let bad_pid = "{\"traceEvents\":[\n{\"ph\":\"M\",\"pid\":2,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"t\"}}\n]}";
        assert!(parse(bad_pid).unwrap_err().contains("pid"));
        let no_dur = "{\"traceEvents\":[\n{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"t\"}},\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"name\":\"x\"}\n]}";
        assert!(parse(no_dur).unwrap_err().contains("dur"));
        let meta =
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"t\"}}";
        let huge = format!(
            "{{\"traceEvents\":[\n{meta},\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":18446744073709551615,\"dur\":5,\"name\":\"x\"}}\n]}}"
        );
        assert!(parse(&huge)
            .unwrap_err()
            .starts_with("line 3: ts + dur overflows u64"));
        // Stall sums saturate instead of wrapping.
        let big = ParsedTrace {
            tracks: vec!["link 0,0>E".into()],
            events: [u64::MAX, 5]
                .map(|dur| ParsedEvent {
                    track: 0,
                    ph: 'X',
                    ts: 0,
                    dur,
                    name: "stall r0".into(),
                    value: None,
                })
                .to_vec(),
        };
        assert_eq!(big.stall_by_track(), vec![u64::MAX]);
    }

    #[test]
    fn export_is_deterministic() {
        let mk = || {
            let mut t = Tracer::new();
            t.set_cols(2);
            let fire = RecKind::Fire {
                node: 3,
                poisoned: false,
            };
            t.record(TrackKey::PeData(1), 0, 1, fire);
            t.record(TrackKey::Link(4), 1, 1, RecKind::Grant { route: 0 });
            t.counters(2, 1, 1);
            t.to_chrome_json()
        };
        assert_eq!(mk(), mk());
    }
}
