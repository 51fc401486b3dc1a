//! One decoder for the run policy every front end accepts.
//!
//! A run request names the fabric, the anneal search budget, the
//! injected faults, the cycle budget and raw program parameters. The
//! CLIs supply them as flags (`--search 150` is the pair
//! `("search", "150")`) and `mard` as query options (`search=150`);
//! both decode through [`RunRequest::decode`], so one spelling means
//! one run everywhere and a bad value has one stable error kind. What a
//! front end adds on top (preset selection, a server cap on the cycle
//! budget) stays its own policy; the pipeline never parses.

use crate::arch::{Architecture, FabricDims};
use crate::compiler::SearchBudget;
use crate::sim::FaultSet;
use std::fmt;
use std::str::FromStr;

/// A decoded run request.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// `fabric=RxC` (default 4x4).
    pub fabric: FabricDims,
    /// `search=MOVES[,RESTARTS]` (restarts default to 1), seeded with
    /// [`SearchBudget::ANNEAL_SEED`]; `None` keeps each preset's own.
    pub search: Option<SearchBudget>,
    /// `fault=SPEC` (repeatable), checked against `fabric`.
    pub pinned_faults: FaultSet,
    /// `faults=N`: seeded-random faults drawn on top of the pinned ones.
    pub random_faults: usize,
    /// `fault-seed=S` (default 1): the seed of that draw.
    pub fault_seed: u64,
    /// `max-cycles=N`, when given.
    pub max_cycles: Option<u64>,
    /// `param=NAME=VALUE` (repeatable), raw and in order.
    pub params: Vec<(String, String)>,
}

/// A request that does not decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestError {
    /// The stable kind: `bad_fabric`, `bad_search` (not
    /// `MOVES[,RESTARTS]` with restarts >= 1), `bad_faults` (`faults` or
    /// `fault-seed`), `bad_fault`, `bad_max_cycles` or `bad_param`.
    pub kind: &'static str,
    /// Human-readable detail naming the option and its value.
    pub detail: String,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

fn bad(kind: &'static str, detail: String) -> RequestError {
    RequestError { kind, detail }
}

/// Option `name`'s value `v` as a number; one that does not parse is a
/// `kind` error saying it is not `what`.
fn number<T: FromStr>(
    name: &str,
    v: Option<&str>,
    kind: &'static str,
    what: &str,
) -> Result<Option<T>, RequestError> {
    let parse = |v: &str| (v.parse()).map_err(|_| bad(kind, format!("{name} `{v}` is not {what}")));
    v.map(parse).transpose()
}

/// `MOVES[,RESTARTS]` as an anneal budget from the shared seed.
fn search_budget(spec: &str) -> Result<SearchBudget, RequestError> {
    let kind = "bad_search";
    let shape = || bad(kind, format!("search `{spec}` is not MOVES[,RESTARTS]"));
    let mut parts = spec.split(',').map(str::trim);
    let moves = parts.next().and_then(|m| m.parse().ok());
    let moves = moves.ok_or_else(shape)?;
    let restarts = number("search restarts", parts.next(), kind, "numeric")?;
    if parts.next().is_some() {
        return Err(shape());
    }
    match restarts.unwrap_or(1) {
        0 => Err(bad(
            kind,
            format!("search `{spec}` runs no chain: RESTARTS must be >= 1"),
        )),
        restarts => Ok(SearchBudget::Anneal {
            moves,
            restarts,
            base_seed: SearchBudget::ANNEAL_SEED,
        }),
    }
}

impl RunRequest {
    /// Decodes `(name, value)` pairs. Names the request does not know
    /// are left to the caller; a single-valued option's first value
    /// wins. Options are checked in the order fabric, search, faults,
    /// fault-seed, fault, max-cycles, param.
    ///
    /// # Errors
    /// The first option that does not decode, with its stable kind.
    pub fn decode<'a>(
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<Self, RequestError> {
        let pairs: Vec<(&str, &str)> = pairs.into_iter().collect();
        let all = |name: &str| -> Vec<&str> {
            let named = pairs.iter().filter(|&&(n, _)| n == name);
            named.map(|&(_, v)| v).collect()
        };
        let first = |name: &str| all(name).first().copied();
        let fabric = match first("fabric") {
            None => FabricDims::paper(),
            Some(v) => (v.parse()).map_err(|e| bad("bad_fabric", format!("fabric `{v}`: {e}")))?,
        };
        let search = first("search").map(search_budget).transpose()?;
        let random_faults = number("faults", first("faults"), "bad_faults", "a count")?;
        let fault_seed = number("fault-seed", first("fault-seed"), "bad_faults", "numeric")?;
        let specs: Vec<String> = all("fault").into_iter().map(str::to_string).collect();
        let pinned_faults = FaultSet::from_cli(fabric.rows, fabric.cols, &specs, 0, 0)
            .map_err(|e| bad("bad_fault", e))?;
        let max_cycles = number(
            "max-cycles",
            first("max-cycles"),
            "bad_max_cycles",
            "numeric",
        )?;
        let params = (all("param").into_iter())
            .map(|p| match p.split_once('=') {
                Some((name, val)) => Ok((name.to_string(), val.to_string())),
                None => Err(bad("bad_param", format!("param `{p}` is not NAME=VALUE"))),
            })
            .collect::<Result<_, _>>()?;
        Ok(RunRequest {
            fabric,
            search,
            pinned_faults,
            random_faults: random_faults.unwrap_or(0),
            fault_seed: fault_seed.unwrap_or(1),
            max_cycles,
            params,
        })
    }

    /// Sets `arch`'s search budget to the request's, if it names one.
    pub fn apply_search(&self, arch: &mut Architecture) {
        if let Some(search) = self.search {
            arch.opts.search = search;
        }
    }

    /// The pinned faults plus the random ones drawn with `seed`.
    pub fn faults_drawn(&self, seed: u64) -> FaultSet {
        let mut faults = self.pinned_faults.clone();
        faults.add_random(self.random_faults, seed);
        faults
    }

    /// The request's fault set: the pinned faults plus the random ones
    /// drawn with `fault-seed`.
    pub fn faults(&self) -> FaultSet {
        self.faults_drawn(self.fault_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(pairs: &[(&str, &str)]) -> Result<RunRequest, RequestError> {
        RunRequest::decode(pairs.iter().copied())
    }

    fn kind(pairs: &[(&str, &str)]) -> &'static str {
        decode(pairs).unwrap_err().kind
    }

    #[test]
    fn an_empty_request_is_the_healthy_default() {
        let r = decode(&[("preset", "M"), ("lane", "n=1")]).unwrap();
        assert_eq!(r.fabric, FabricDims::paper());
        assert_eq!((r.search, r.max_cycles), (None, None));
        assert!(r.faults().is_empty() && r.params.is_empty());
    }

    #[test]
    fn search_is_moves_and_at_least_one_restart() {
        let anneal = |moves, restarts| SearchBudget::Anneal {
            moves,
            restarts,
            base_seed: SearchBudget::ANNEAL_SEED,
        };
        let search = |v| decode(&[("search", v)]).map(|r| r.search);
        assert_eq!(search("150"), Ok(Some(anneal(150, 1))));
        assert_eq!(search("20, 2"), Ok(Some(anneal(20, 2))));
        for bad in ["x", "20,y", "20,1,3", "20,0", "20,", ""] {
            assert_eq!(kind(&[("search", bad)]), "bad_search", "{bad}");
        }
        let e = decode(&[("search", "20,1,3")]).unwrap_err();
        assert_eq!(e.detail, "search `20,1,3` is not MOVES[,RESTARTS]");
    }

    #[test]
    fn faults_are_pinned_plus_a_seeded_draw() {
        let pairs = [("fault", "pe:0,0"), ("faults", "2"), ("fault-seed", "3")];
        let r = decode(&pairs).unwrap();
        assert_eq!(r.pinned_faults.specs().len(), 1);
        let want = FaultSet::from_cli(4, 4, &["pe:0,0".into()], 2, 3).unwrap();
        assert_eq!(r.faults(), want);
        assert_eq!(r.faults_drawn(3), want);
        assert_ne!(r.faults_drawn(4), want);
        let on_6x6 = decode(&[("fabric", "6x6"), ("fault", "pe:5,5")]).unwrap();
        assert_eq!(on_6x6.faults().specs().len(), 1);
    }

    #[test]
    fn each_bad_option_has_its_kind() {
        assert_eq!(kind(&[("fabric", "potato")]), "bad_fabric");
        assert_eq!(kind(&[("faults", "x")]), "bad_faults");
        assert_eq!(kind(&[("fault-seed", "x")]), "bad_faults");
        assert_eq!(kind(&[("fault", "pe:9,9")]), "bad_fault");
        assert_eq!(kind(&[("fault", "bogus")]), "bad_fault");
        assert_eq!(kind(&[("max-cycles", "lots")]), "bad_max_cycles");
        assert_eq!(kind(&[("param", "n")]), "bad_param");
        // The first bad option in decode order is the one reported.
        assert_eq!(kind(&[("param", "n"), ("fabric", "0x4")]), "bad_fabric");
    }

    #[test]
    fn first_value_wins_and_params_keep_their_order() {
        let r = decode(&[
            ("max-cycles", "10"),
            ("max-cycles", "x"),
            ("param", "n=1"),
            ("param", "m=a=b"),
        ])
        .unwrap();
        assert_eq!(r.max_cycles, Some(10));
        let want = [("n", "1"), ("m", "a=b")].map(|(n, v)| (n.to_string(), v.to_string()));
        assert_eq!(r.params, want);
        let mut arch = crate::arch::marionette_full();
        decode(&[("search", "7")]).unwrap().apply_search(&mut arch);
        assert!(arch.opts.search.is_on());
    }
}
