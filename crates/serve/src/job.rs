//! Request decoding and the compile-cache-aware execution pipeline
//! behind `/run` and `/batch`.
//!
//! Every served result goes through the same oracle the offline `marc`
//! driver applies: the simulation is bit-verified against the reference
//! interpreter (arrays, sink streams, out-of-bounds counts, firing
//! totals) before a 200 leaves the socket. A cache hit skips the
//! *compile*, never the verification.
//!
//! The front end — parse, check, lower, canonical print, typed
//! overrides and the two-mode reference interpretation — goes through
//! the cache's memo, keyed by the exact source and raw parameter list.
//! A memo hit skips all of it and still simulates and verifies against
//! the memoised reference. A front end is memoised only when its request
//! hit the compile cache: a source that has not repeated within the
//! cache's window would most likely be evicted from the memo before it
//! repeats too. Failures are never memoised, so their bodies are
//! recomputed byte for byte.

use crate::cache::{CacheKey, CachedArtifact, Front, FrontKey, Lowered};
use crate::http::Request;
use crate::{RouteMeta, ServerState};
use marionette::cdfg::value::Value;
use marionette::pipeline::{PipelineError, Stages};
use marionette::report::{json_escape, json_sinks};
use marionette::request::RunRequest;
use marionette::runner::{self_heal, HealStages};
use marionette::sim::{EngineKind, FaultSet, RunResult, RunSpec, SimError};
use marionette_arch::{Architecture, FabricDims};
use marionette_lang::driver::{
    compile_preset, frontend, reference, typed_overrides, Compiled, DriverError, PresetRun,
    Reference,
};
use marionette_lang::print;
use std::fmt::Write as _;
use std::sync::Arc;

/// Name under which request source is rendered in caret diagnostics.
const REQUEST_FILE: &str = "<request>";

/// Elapsed microseconds since `t`, saturating.
fn micros_since(t: std::time::Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// A typed request-processing failure: one status, one machine-readable
/// kind, human detail, and (for front-end failures) the rendered caret
/// diagnostics verbatim.
#[derive(Debug)]
pub struct ApiError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Stable machine-readable kind tag.
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
    /// Rendered caret diagnostics (parse/sema failures only).
    pub diagnostics: Option<String>,
}

impl ApiError {
    fn bad(kind: &'static str, detail: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            kind,
            detail: detail.into(),
            diagnostics: None,
        }
    }

    fn unprocessable(kind: &'static str, detail: impl Into<String>) -> Self {
        ApiError {
            status: 422,
            kind,
            detail: detail.into(),
            diagnostics: None,
        }
    }

    /// Serializes the error body.
    pub fn to_json(&self) -> String {
        let mut j = String::new();
        j.push_str("{\n  \"schema\": \"marionette.mard/v1\",\n");
        let _ = write!(
            j,
            "  \"error\": {{\"kind\": \"{}\", \"detail\": \"{}\"",
            json_escape(self.kind),
            json_escape(&self.detail)
        );
        if let Some(d) = &self.diagnostics {
            let _ = write!(j, ", \"diagnostics\": \"{}\"", json_escape(d));
        }
        j.push_str("}\n}\n");
        j
    }
}

/// Maps a pipeline failure onto a status + kind. 4xx are the client's
/// fault, 422 is a program that cannot be served (including the typed
/// wedge outcomes: interpreter budget, cycle limit, deadlock), 500 marks
/// conditions that indicate a server-side bug (verification mismatch).
fn map_driver_error(e: DriverError, src: &str, under_faults: bool) -> ApiError {
    match e {
        DriverError::Parse(d) => ApiError {
            status: 400,
            kind: "parse_error",
            detail: d.message.clone(),
            diagnostics: Some(d.render(REQUEST_FILE, src)),
        },
        DriverError::Sema(ds) => ApiError {
            status: 400,
            kind: "sema_error",
            detail: format!("{} semantic error(s)", ds.len()),
            diagnostics: Some(
                ds.iter()
                    .map(|d| d.render(REQUEST_FILE, src))
                    .collect::<Vec<_>>()
                    .join("\n"),
            ),
        },
        DriverError::Interp(marionette::cdfg::interp::InterpError::FiringBudgetExceeded {
            budget,
        }) => ApiError::unprocessable(
            "interp_budget",
            format!("reference interpretation exceeded the {budget}-firing budget (wedged or unbounded program)"),
        ),
        DriverError::Interp(marionette::cdfg::interp::InterpError::UnknownParam { name }) => {
            ApiError::bad("unknown_param", format!("parameter `{name}` is not declared"))
        }
        DriverError::Interp(e) => ApiError::unprocessable("interp_error", e.to_string()),
        DriverError::Modes(d) => ApiError {
            status: 500,
            kind: "modes_disagree",
            detail: d,
            diagnostics: None,
        },
        DriverError::Compile { preset, e } => ApiError::unprocessable(
            if under_faults {
                "remap_infeasible"
            } else {
                "compile_error"
            },
            format!("compile on {preset}: {e}"),
        ),
        DriverError::Bitstream { preset, detail } => ApiError {
            status: 500,
            kind: "bitstream_error",
            detail: format!("bitstream round-trip on {preset}: {detail}"),
            diagnostics: None,
        },
        DriverError::Sim { preset, e } => match e {
            SimError::CycleLimit { limit } => ApiError::unprocessable(
                "cycle_limit",
                format!("simulation on {preset} exceeded the {limit}-cycle budget"),
            ),
            SimError::Deadlock { cycle, detail } => ApiError::unprocessable(
                "deadlock",
                format!("simulation on {preset} deadlocked at cycle {cycle}: {detail}"),
            ),
            SimError::Fault { what, detail } => ApiError::unprocessable(
                "fault",
                format!("bitstream touches faulted resource {what} on {preset}: {detail}"),
            ),
            SimError::UnknownParam(n) => {
                ApiError::bad("unknown_param", format!("parameter `{n}` is not declared"))
            }
            SimError::UnknownArray(n) => {
                ApiError::bad("unknown_array", format!("array `{n}` is not declared"))
            }
        },
        DriverError::Mismatch { preset, detail } => ApiError {
            status: 500,
            kind: "verify_mismatch",
            detail: format!("served result diverged from the reference on {preset}: {detail}"),
            diagnostics: None,
        },
        // Tenancy is driven by the batch CLI, not the server, so these
        // reaching a request handler indicates a server-side bug.
        DriverError::Partition(e) => ApiError {
            status: 500,
            kind: "partition_error",
            detail: e.to_string(),
            diagnostics: None,
        },
        DriverError::Image(e) => ApiError {
            status: 500,
            kind: "image_error",
            detail: e.to_string(),
            diagnostics: None,
        },
    }
}

/// Everything `/run` and `/batch` share, decoded from the query string.
pub struct RunOptions {
    /// Selected preset.
    pub arch: Architecture,
    /// Fabric geometry the preset was instantiated on.
    pub fabric: FabricDims,
    /// Injected fault set (empty for healthy runs).
    pub faults: FaultSet,
    /// Always [`EngineKind::Wheel`]. Kept only because perfbench reads
    /// it; the next change to perfbench deletes it.
    pub engine: EngineKind,
    /// Cycle budget, already clamped to the server cap.
    pub max_cycles: u64,
    /// Raw single-run `param` overrides.
    pub params: Vec<(String, String)>,
    /// Raw per-lane override lists (batch endpoint only).
    pub lanes: Vec<Vec<(String, String)>>,
}

/// Splits a lane value (`"n=4,m=2"` or empty) into raw overrides.
fn parse_lane(spec: &str) -> Result<Vec<(String, String)>, ApiError> {
    let mut out = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (name, val) = part.split_once('=').ok_or_else(|| {
            ApiError::bad("bad_lane", format!("lane entry `{part}` is not NAME=VALUE"))
        })?;
        out.push((name.to_string(), val.to_string()));
    }
    Ok(out)
}

/// Decodes the query string: the run policy through the shared
/// [`RunRequest`] decoder, then mard's own on top (default preset `M`,
/// one preset per request, the server's cycle cap, `engine=wheel` and
/// `lane=`).
///
/// # Errors
/// Returns a 400 [`ApiError`] naming the offending option.
pub fn decode_options(state: &ServerState, req: &Request) -> Result<RunOptions, ApiError> {
    let pairs = req.query.iter().map(|(k, v)| (k.as_str(), v.as_str()));
    let run = RunRequest::decode(pairs).map_err(|e| ApiError::bad(e.kind, e.detail))?;
    let tag = req.query_first("preset").unwrap_or("M");
    let mut arch = marionette_arch::presets_by_tags_on(run.fabric, tag)
        .ok()
        .and_then(|v| v.into_iter().next())
        .ok_or_else(|| {
            let known: Vec<&str> = marionette_arch::all_presets()
                .iter()
                .map(|a| a.short)
                .collect();
            ApiError::bad(
                "unknown_preset",
                format!("preset `{tag}` is not one of {}", known.join(", ")),
            )
        })?;
    if tag.contains(',') {
        return Err(ApiError::bad(
            "unknown_preset",
            "one preset per request (fold variants into separate requests)",
        ));
    }
    run.apply_search(&mut arch);
    // The wheel is the only event core; `engine=wheel` stays accepted.
    if let Some(v) = req.query_first("engine").filter(|&v| v != "wheel") {
        return Err(ApiError::bad(
            "bad_engine",
            format!("engine `{v}`: the only event core is `wheel`"),
        ));
    }
    // Admission-side timeout control: a request may lower the budget
    // but never raise it past the server cap.
    let cap = state.cfg.max_cycles;
    let max_cycles = run.max_cycles.map_or(cap, |n| n.min(cap));
    let lanes = req.query_all("lane").into_iter().map(parse_lane);
    Ok(RunOptions {
        arch,
        fabric: run.fabric,
        faults: run.faults(),
        engine: EngineKind::Wheel,
        max_cycles,
        params: run.params,
        lanes: lanes.collect::<Result<_, _>>()?,
    })
}

fn json_result(run: &PresetRun, sinks: &std::collections::HashMap<String, Vec<Value>>) -> String {
    format!(
        "{{{}, \"sinks\": {}}}",
        run.json_members(),
        json_sinks(sinks)
    )
}

/// Compile-or-reuse: resolves the request's artifact through the
/// content-addressed cache. On a miss the cold path runs the self-heal
/// loop ([`self_heal`]) — probing for a wedge when faults are injected —
/// and the *surviving* artifact (original or remap) is what gets cached,
/// together with its fault outcome.
///
/// Returns `(run, artifact, hit)` so callers report cache outcome and
/// remap metadata without re-deriving them.
fn run_via_cache(
    state: &ServerState,
    front: &Front,
    opts: &RunOptions,
    key: &CacheKey,
    src: &str,
    meta: &mut RouteMeta,
) -> Result<(PresetRun, Arc<CachedArtifact>, bool), ApiError> {
    let under_faults = !opts.faults.is_empty();
    let mut spec = RunSpec {
        faults: &opts.faults,
        max_cycles: opts.max_cycles,
        tracer: None,
    };
    let mut stages = MissStages {
        inner: Stages::new(
            &front.lowered.cdfg,
            &front.reference,
            &opts.arch,
            &front.overrides,
        ),
        meta,
    };
    let preset = opts.arch.short;
    let fail = |e| map_driver_error(DriverError::stage(preset, e), src, under_faults);
    if let Some(artifact) = state.cache.lookup(key) {
        let r = stages
            .simulate(&artifact.compiled, &mut spec)
            .map_err(fail)?;
        let run = PresetRun::new(preset.to_string(), &r, &artifact.compiled.report);
        return Ok((run, artifact, true));
    }
    let healed = self_heal(&mut stages, &opts.arch, &mut spec).map_err(|e| fail(e.into_inner()))?;
    let run = PresetRun::new(preset.to_string(), &healed.run, &healed.artifact.report);
    let artifact = cache_artifact(
        state,
        key,
        CachedArtifact {
            compiled: healed.artifact,
            remapped: healed.wedged.is_some(),
            wedged: healed.wedged,
        },
    );
    Ok((run, artifact, false))
}

/// Caches a freshly compiled artifact with its encoded bitstream
/// released: the bytes only served the compile's encode/decode
/// round-trip check, and nothing on the serve path reads them again.
fn cache_artifact(
    state: &ServerState,
    key: &CacheKey,
    mut artifact: CachedArtifact,
) -> Arc<CachedArtifact> {
    artifact.compiled.bitstream = Vec::new();
    state.cache.insert(key, artifact)
}

/// Looks one parameter list's front end up in the memo. A request
/// counts as a memo hit only when every lookup it made hit.
fn memo_lookup(state: &ServerState, key: &FrontKey, meta: &mut RouteMeta) -> Option<Arc<Front>> {
    let front = state.cache.memo_lookup(key);
    meta.memo_hit = Some(front.is_some() && meta.memo_hit != Some(false));
    front
}

/// Parses, checks, lowers and canonically prints the request source,
/// timed into the request's `frontend_us`.
fn lower_source(src: &str, meta: &mut RouteMeta) -> Result<Lowered, ApiError> {
    let t = std::time::Instant::now();
    let lowered = frontend(src).map(|(ast, cdfg)| Lowered {
        canonical: print(&ast),
        program: ast.name.name,
        params: ast.params,
        cdfg,
    });
    meta.frontend_us += micros_since(t);
    lowered.map_err(|e| map_driver_error(e, src, false))
}

/// Types `raw` against the lowered source and interprets it in both
/// modes (timed into `reference_us`).
fn verify_front(
    state: &ServerState,
    lowered: &Arc<Lowered>,
    raw: &[(String, String)],
    src: &str,
    meta: &mut RouteMeta,
) -> Result<Arc<Front>, ApiError> {
    let overrides =
        typed_overrides(&lowered.params, raw).map_err(|e| ApiError::bad("bad_param", e))?;
    let t = std::time::Instant::now();
    let reference = reference(&lowered.cdfg, &overrides, state.cfg.interp_budget);
    meta.reference_us += micros_since(t);
    let reference = reference.map_err(|e| map_driver_error(e, src, false))?;
    Ok(Arc::new(Front {
        lowered: Arc::clone(lowered),
        overrides,
        reference: reference.into_oracle(),
    }))
}

/// The shared pipeline stages with each compile and simulation timed
/// into the request's access-log record.
struct MissStages<'a> {
    inner: Stages<'a, Reference>,
    meta: &'a mut RouteMeta,
}

impl HealStages for MissStages<'_> {
    type Artifact = Compiled;
    type Run = RunResult;
    type Error = PipelineError;

    fn compile(
        &mut self,
        arch: &Architecture,
        avoid: &FaultSet,
    ) -> Result<Compiled, PipelineError> {
        let t = std::time::Instant::now();
        let compiled = self.inner.compile(arch, avoid);
        self.meta.compile_us += micros_since(t);
        compiled
    }

    fn simulate(
        &mut self,
        compiled: &Compiled,
        spec: &mut RunSpec<'_>,
    ) -> Result<RunResult, PipelineError> {
        let t = std::time::Instant::now();
        let run = self.inner.simulate(compiled, spec);
        self.meta.sim_us += micros_since(t);
        run
    }

    fn sim_error(e: &PipelineError) -> Option<&SimError> {
        Stages::<Reference>::sim_error(e)
    }
}

fn response_head(
    j: &mut String,
    endpoint: &str,
    program: &str,
    opts: &RunOptions,
    key: &CacheKey,
    hit: bool,
    artifact: &CachedArtifact,
) {
    j.push_str("{\n  \"schema\": \"marionette.mard/v1\",\n");
    let _ = writeln!(j, "  \"endpoint\": \"{}\",", json_escape(endpoint));
    let _ = writeln!(j, "  \"program\": \"{}\",", json_escape(program));
    let _ = writeln!(j, "  \"preset\": \"{}\",", json_escape(opts.arch.short));
    let _ = writeln!(j, "  \"fabric\": \"{}\",", opts.fabric);
    let _ = writeln!(
        j,
        "  \"cache\": {{\"outcome\": \"{}\", \"address\": \"{}\"}},",
        if hit { "hit" } else { "miss" },
        key.address
    );
    match &artifact.wedged {
        Some(w) => {
            let _ = writeln!(j, "  \"wedged\": \"{}\",", json_escape(w));
        }
        None => j.push_str("  \"wedged\": null,\n"),
    }
    let _ = writeln!(j, "  \"remapped\": {},", artifact.remapped);
}

/// Handles `POST /run`: one source, one preset, one verified result.
///
/// # Errors
/// Returns the typed [`ApiError`] for every failure class (bad query,
/// front-end diagnostics, wedged/unservable programs).
pub fn handle_run(
    state: &ServerState,
    req: &Request,
    meta: &mut RouteMeta,
) -> Result<String, ApiError> {
    let opts = decode_options(state, req)?;
    if !opts.lanes.is_empty() {
        return Err(ApiError::bad(
            "bad_lane",
            "lane= is the /batch endpoint's option",
        ));
    }
    let src = String::from_utf8_lossy(&req.body).into_owned();
    let front_key = FrontKey::new(&src, &opts.params);
    let memoised = memo_lookup(state, &front_key, meta);
    let front = match &memoised {
        Some(front) => Arc::clone(front),
        None => {
            let lowered = Arc::new(lower_source(&src, meta)?);
            verify_front(state, &lowered, &opts.params, &src, meta)?
        }
    };
    let lowered = &front.lowered;
    let key = CacheKey::derive(&lowered.canonical, &opts.arch, &opts.faults);
    let (run, artifact, hit) = run_via_cache(state, &front, &opts, &key, &src, meta)?;
    meta.cache_hit = Some(hit);
    if hit && memoised.is_none() {
        state.cache.memo_insert(&front_key, Arc::clone(&front));
    }
    let mut j = String::new();
    response_head(&mut j, "run", &lowered.program, &opts, &key, hit, &artifact);
    let _ = writeln!(
        j,
        "  \"result\": {}",
        json_result(&run, &front.reference.dropping.sinks)
    );
    j.push_str("}\n");
    Ok(j)
}

/// Handles `POST /batch`: one cached compile of the source, then N
/// verified runs — one per parameter lane, each exactly what `/run`
/// with those overrides would simulate. Lane failures are per-lane
/// entries, not request failures — a wedging lane reports its typed
/// error while its neighbours complete.
///
/// # Errors
/// Returns [`ApiError`] for request-level failures (bad query, parse
/// errors, compile failures); per-lane errors are embedded in the 200
/// body.
pub fn handle_batch(
    state: &ServerState,
    req: &Request,
    meta: &mut RouteMeta,
) -> Result<String, ApiError> {
    let opts = decode_options(state, req)?;
    if opts.lanes.is_empty() {
        return Err(ApiError::bad(
            "bad_lane",
            "batch needs at least one lane= option",
        ));
    }
    if !opts.faults.is_empty() {
        return Err(ApiError::bad(
            "bad_lane",
            "fault injection combines with /run only, not /batch",
        ));
    }
    if !opts.params.is_empty() {
        return Err(ApiError::bad(
            "bad_param",
            "use lane= (not param=) to pass per-lane overrides to /batch",
        ));
    }
    let src = String::from_utf8_lossy(&req.body).into_owned();
    let front_keys: Vec<FrontKey> = opts
        .lanes
        .iter()
        .map(|raw| FrontKey::new(&src, raw))
        .collect();
    // A memoised first lane carries the lowered source for every lane;
    // otherwise the front end runs here, once for the whole batch.
    let mut first = memo_lookup(state, &front_keys[0], meta);
    let lowered = match &first {
        Some(front) => Arc::clone(&front.lowered),
        None => Arc::new(lower_source(&src, meta)?),
    };

    let key = CacheKey::derive(&lowered.canonical, &opts.arch, &opts.faults);
    let (artifact, hit) = match state.cache.lookup(&key) {
        Some(a) => (a, true),
        None => {
            let t = std::time::Instant::now();
            let compiled = compile_preset(&lowered.cdfg, &opts.arch)
                .map_err(|e| map_driver_error(e, &src, false))?;
            meta.compile_us += micros_since(t);
            let artifact = CachedArtifact {
                compiled,
                wedged: None,
                remapped: false,
            };
            (cache_artifact(state, &key, artifact), false)
        }
    };
    meta.cache_hit = Some(hit);

    // Each lane is one verified run of the cached artifact, on its own
    // freshly built machine; a lane whose overrides, interpretation or
    // run fail becomes a per-lane error without sinking the batch.
    let preset = opts.arch.short;
    let mut lanes = Vec::with_capacity(opts.lanes.len());
    for (i, (raw, front_key)) in opts.lanes.iter().zip(&front_keys).enumerate() {
        let memoised = match i {
            0 => first.take(),
            _ => memo_lookup(state, front_key, meta),
        };
        let front = match memoised {
            Some(front) => Ok(front),
            None => verify_front(state, &lowered, raw, &src, meta).inspect(|front| {
                if hit {
                    state.cache.memo_insert(front_key, Arc::clone(front));
                }
            }),
        };
        lanes.push(front.and_then(|front| {
            let mut stages = MissStages {
                inner: Stages::new(
                    &front.lowered.cdfg,
                    &front.reference,
                    &opts.arch,
                    &front.overrides,
                ),
                meta: &mut *meta,
            };
            let run = stages
                .simulate(&artifact.compiled, &mut RunSpec::new(opts.max_cycles))
                .map_err(|e| map_driver_error(DriverError::stage(preset, e), &src, false))?;
            let run = PresetRun::new(preset.to_string(), &run, &artifact.compiled.report);
            Ok(json_result(&run, &front.reference.dropping.sinks))
        }));
    }
    let errors = lanes.iter().filter(|l| l.is_err()).count();

    let mut j = String::new();
    response_head(
        &mut j,
        "batch",
        &lowered.program,
        &opts,
        &key,
        hit,
        &artifact,
    );
    let _ = writeln!(j, "  \"lane_errors\": {errors},");
    j.push_str("  \"lanes\": [\n");
    for (i, lane) in lanes.iter().enumerate() {
        let _ = match lane {
            Ok(result) => write!(j, "    {{\"ok\": true, \"result\": {result}}}"),
            Err(e) => write!(
                j,
                "    {{\"ok\": false, \"error\": {{\"kind\": \"{}\", \"detail\": \"{}\"}}}}",
                json_escape(e.kind),
                json_escape(&e.detail)
            ),
        };
        j.push_str(if i + 1 == lanes.len() { "\n" } else { ",\n" });
    }
    j.push_str("  ]\n}\n");
    Ok(j)
}
