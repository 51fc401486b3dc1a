//! Content-addressed compile cache with a bounded LRU policy, and the
//! memo of verified front ends that rides along with it.
//!
//! The cache key is the *content* of everything that can change a
//! compiled bitstream, and nothing else:
//!
//! - the **canonical pretty-printed** source (so whitespace, comments
//!   and formatting differences hit the same entry — the canonical form
//!   is a parse→print fixed point, see `marionette_lang::print`);
//! - the preset tag and its full `CompileOptions` (fabric geometry,
//!   placement policy, slots, split, search budget);
//! - the injected [`FaultSet`] (a remap under faults is a different
//!   artifact than a healthy compile).
//!
//! Simulation-time inputs — parameter overrides, cycle budget, lane
//! counts — are deliberately **not** part of the key: they select what
//! runs on the bitstream, not what the bitstream is. That is what lets
//! repeat traffic with fresh parameters skip compilation entirely.
//!
//! Entries are stored under their full key material, so a 64-bit
//! address collision can never serve the wrong bitstream; the FNV-1a
//! address is a display/interning convenience, not the identity.
//!
//! The **front-end memo** ([`CompileCache::memo_lookup`]) holds what a
//! request's source produces before any preset is involved: the
//! program name, canonical source, lowered CDFG, typed overrides and the
//! mode-cross-checked [`Reference`]. It is keyed by the exact request
//! source and raw parameter list ([`FrontKey`]), shares the cache's
//! capacity but not its entries or counters, and only ever holds
//! successes: a failed front end is recomputed on every request. `mard`
//! memoises a front end only when its request found the compiled
//! artifact cached, so traffic that does not repeat within the compile
//! cache's window costs the memo nothing. A memo hit skips parse, check,
//! lower, print and interpretation — never the simulation or its
//! verification against the memoised reference.

use marionette::cdfg::value::Value;
use marionette::cdfg::Cdfg;
use marionette::sim::FaultSet;
use marionette_arch::Architecture;
use marionette_lang::ast::ParamDecl;
use marionette_lang::driver::{Compiled, Reference};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a 64-bit — tiny, deterministic, dependency-free. Used only to
/// derive the printable content address.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The full cache key: printable content address plus the exact
/// material it was derived from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// Hex FNV-1a of `material` — the "content address" surfaced in
    /// responses and logs.
    pub address: String,
    /// Everything compile-relevant, concatenated canonically.
    pub material: String,
}

impl CacheKey {
    /// Builds the key for compiling `canonical_src` on `arch` with
    /// `faults` injected.
    pub fn derive(canonical_src: &str, arch: &Architecture, faults: &FaultSet) -> CacheKey {
        // `CompileOptions` derives `Debug` over plain-data fields, so its
        // debug form is a complete, stable rendering of the mapping
        // policy (geometry, placement, slots, split, search budget).
        let mut material = String::new();
        material.push_str(arch.short);
        material.push('\x1f');
        material.push_str(&format!("{:?}", arch.opts));
        material.push('\x1f');
        for s in faults.specs() {
            material.push_str(&s.to_string());
            material.push(',');
        }
        material.push('\x1f');
        material.push_str(canonical_src);
        let address = format!("{:016x}", fnv1a64(material.as_bytes()));
        CacheKey { address, material }
    }
}

/// What the cache stores per key: the compiled artifact plus the fault
/// outcome it was produced under, so a repeat request reports the same
/// `wedged`/`remapped` metadata as the cold run that populated it.
///
/// `mard` caches artifacts with `compiled.bitstream` emptied: the
/// encoded bytes only matter to the encode/decode round-trip check a
/// compile runs, and nothing on the serve path reads them afterwards.
#[derive(Clone, Debug)]
pub struct CachedArtifact {
    /// The compiled, bitstream-round-tripped preset artifact.
    pub compiled: Compiled,
    /// Fault-spec string of the resource that wedged the fault-oblivious
    /// bitstream, when the artifact is a self-healed remap.
    pub wedged: Option<String>,
    /// Whether the artifact is a fault-aware remap.
    pub remapped: bool,
}

/// The memo key: the exact request source text plus its raw
/// `NAME=VALUE` parameter list. The list is written count-first with
/// every name and value length-prefixed, so no two lists (and no list
/// and source) encode alike, whatever characters they hold.
#[derive(Debug, PartialEq, Eq)]
pub struct FrontKey {
    material: String,
}

impl FrontKey {
    /// Builds the key of `src` run with the raw overrides `params`.
    pub fn new(src: &str, params: &[(String, String)]) -> FrontKey {
        let mut material = String::with_capacity(src.len() + 16 * params.len() + 4);
        let _ = write!(material, "{};", params.len());
        for (name, value) in params {
            let _ = write!(material, "{}:{name}{}:{value}", name.len(), value.len());
        }
        material.push_str(src);
        FrontKey { material }
    }
}

/// A request source after parse, check, lower and canonical printing —
/// what every parameter list of that source shares.
#[derive(Debug)]
pub struct Lowered {
    /// The program's declared name.
    pub program: String,
    /// The program's parameter declarations, which type overrides.
    pub params: Vec<ParamDecl>,
    /// The canonical pretty-printed source (the compile-cache key text).
    pub canonical: String,
    /// The lowered CDFG.
    pub cdfg: Cdfg,
}

/// One memo entry: a lowered source, the typed overrides of one raw
/// parameter list, and the two-mode reference interpretation under them.
#[derive(Debug)]
pub struct Front {
    /// The lowered source.
    pub lowered: Arc<Lowered>,
    /// The typed parameter overrides.
    pub overrides: Vec<(String, Value)>,
    /// The mode-cross-checked reference every run is verified against,
    /// cut to what verification reads ([`Reference::into_oracle`]).
    pub reference: Reference,
}

/// Monotonic counters, readable while the cache is live.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Total insertions.
    pub inserts: u64,
}

struct Entry<V> {
    value: Arc<V>,
    last_used: u64,
}

struct Slots<V> {
    /// Entries by their exact key material.
    map: HashMap<String, Entry<V>>,
    tick: u64,
}

/// A bounded, thread-safe LRU map from exact key material to shared
/// values, with its own counters.
struct Lru<V> {
    slots: Mutex<Slots<V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
}

impl<V> Lru<V> {
    fn new(capacity: usize) -> Self {
        Lru {
            slots: Mutex::new(Slots {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    fn lookup(&self, material: &str) -> Option<Arc<V>> {
        let mut slots = self.slots.lock().expect("cache lock");
        slots.tick += 1;
        let tick = slots.tick;
        match slots.map.get_mut(material) {
            Some(e) => {
                e.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn insert(&self, material: &str, value: Arc<V>) {
        let mut slots = self.slots.lock().expect("cache lock");
        slots.tick += 1;
        let tick = slots.tick;
        self.inserts.fetch_add(1, Ordering::Relaxed);
        slots.map.insert(
            material.to_string(),
            Entry {
                value,
                last_used: tick,
            },
        );
        while slots.map.len() > self.capacity {
            // O(n) victim scan: the cache is bounded to hundreds of
            // entries, and compiles dominate any eviction walk.
            let victim = slots
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("nonempty above capacity");
            slots.map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn len(&self) -> usize {
        self.slots.lock().expect("cache lock").map.len()
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
        }
    }
}

/// A bounded, thread-safe, content-addressed LRU cache of compiled
/// bitstream artifacts, plus the equally bounded front-end memo.
pub struct CompileCache {
    artifacts: Lru<CachedArtifact>,
    fronts: Lru<Front>,
}

impl CompileCache {
    /// Creates a cache bounded to `capacity` artifacts and `capacity`
    /// memoised front ends (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        CompileCache {
            artifacts: Lru::new(capacity),
            fronts: Lru::new(capacity),
        }
    }

    /// Looks `key` up, counting a hit or miss and refreshing recency.
    pub fn lookup(&self, key: &CacheKey) -> Option<Arc<CachedArtifact>> {
        self.artifacts.lookup(&key.material)
    }

    /// Inserts an artifact, evicting the least-recently-used entry when
    /// the bound is exceeded, and returns the shared handle it is stored
    /// under. Re-inserting an existing key refreshes the value without
    /// eviction.
    pub fn insert(&self, key: &CacheKey, value: CachedArtifact) -> Arc<CachedArtifact> {
        let value = Arc::new(value);
        self.artifacts.insert(&key.material, Arc::clone(&value));
        value
    }

    /// Artifacts currently held.
    pub fn len(&self) -> usize {
        self.artifacts.len()
    }

    /// True when no artifact is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the artifact counters.
    pub fn stats(&self) -> CacheStats {
        self.artifacts.stats()
    }

    /// Looks a memoised front end up, counting a memo hit or miss.
    pub fn memo_lookup(&self, key: &FrontKey) -> Option<Arc<Front>> {
        self.fronts.lookup(&key.material)
    }

    /// Memoises a verified front end under the same LRU bound as the
    /// artifacts. Only successes belong here: a failed front end is
    /// recomputed.
    pub fn memo_insert(&self, key: &FrontKey, front: Arc<Front>) {
        self.fronts.insert(&key.material, front);
    }

    /// Front ends currently memoised.
    pub fn memo_len(&self) -> usize {
        self.fronts.len()
    }

    /// Snapshot of the memo counters.
    pub fn memo_stats(&self) -> CacheStats {
        self.fronts.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marionette::compiler::CompileReport;
    use marionette::isa::MachineProgram;

    fn artifact(tag: u8) -> CachedArtifact {
        CachedArtifact {
            compiled: Compiled {
                prog: MachineProgram::default(),
                bitstream: vec![tag],
                report: CompileReport::default(),
            },
            wedged: None,
            remapped: false,
        }
    }

    fn key(material: &str) -> CacheKey {
        CacheKey {
            address: format!("{:016x}", fnv1a64(material.as_bytes())),
            material: material.to_string(),
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let c = CompileCache::new(4);
        let k = key("a");
        assert!(c.lookup(&k).is_none());
        c.insert(&k, artifact(1));
        let got = c.lookup(&k).expect("hit");
        assert_eq!(got.compiled.bitstream, vec![1]);
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                inserts: 1
            }
        );
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let c = CompileCache::new(2);
        let (ka, kb, kc) = (key("a"), key("b"), key("c"));
        c.insert(&ka, artifact(1));
        c.insert(&kb, artifact(2));
        // Touch `a` so `b` is the LRU victim.
        assert!(c.lookup(&ka).is_some());
        c.insert(&kc, artifact(3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup(&ka).is_some());
        assert!(c.lookup(&kb).is_none());
        assert!(c.lookup(&kc).is_some());
    }

    #[test]
    fn address_collision_cannot_false_hit() {
        let c = CompileCache::new(4);
        let ka = key("a");
        // Forge a key with the same address but different material.
        let forged = CacheKey {
            address: ka.address.clone(),
            material: "b".to_string(),
        };
        c.insert(&ka, artifact(1));
        assert!(c.lookup(&forged).is_none(), "material must be compared");
    }

    #[test]
    fn key_derivation_separates_presets_and_faults() {
        let archs = marionette_arch::all_presets();
        let none = FaultSet::none();
        let k1 = CacheKey::derive("program p;\n", &archs[0], &none);
        let k2 = CacheKey::derive("program p;\n", &archs[1], &none);
        assert_ne!(k1, k2);
        let mut fs = FaultSet::new(4, 4);
        fs.add("pe:0,0".parse().unwrap()).unwrap();
        let k3 = CacheKey::derive("program p;\n", &archs[0], &fs);
        assert_ne!(k1, k3);
        // Same inputs → same address (pure function).
        let k4 = CacheKey::derive("program p;\n", &archs[0], &none);
        assert_eq!(k1, k4);
    }

    #[test]
    fn front_keys_separate_every_source_and_parameter_list() {
        let lists: Vec<Vec<(String, String)>> = [
            &[][..],
            &[("n", "2")],
            &[("n", "3")],
            &[("n", "2"), ("m", "3")],
            &[("m", "3"), ("n", "2")],
            &[("n", "2,m=3")],
            &[("n", "2;m=3")],
            &[("n", "21:m1:3")],
            &[("n:1", "2")],
            &[("n", "1:2")],
            &[("1:n1", "2")],
            &[("n", "")],
            &[("", "n")],
        ]
        .iter()
        .map(|l| {
            l.iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect()
        })
        .collect();
        let mut keys = Vec::new();
        for src in ["", "x", "1:n1:2x", "0;x"] {
            for list in &lists {
                keys.push(((src, list), FrontKey::new(src, list)));
            }
        }
        for (i, (a, ka)) in keys.iter().enumerate() {
            for (b, kb) in &keys[i + 1..] {
                assert_ne!(ka, kb, "{a:?} and {b:?} share a key");
            }
        }
        assert_eq!(FrontKey::new("x", &lists[1]), FrontKey::new("x", &lists[1]));
    }
}
