//! Content-addressed compile cache with a bounded LRU policy.
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
//! Entries store the full key material and compare it on lookup, so a
//! 64-bit address collision can never serve the wrong bitstream; the
//! FNV-1a address is a display/interning convenience, not the identity.

use marionette::sim::FaultSet;
use marionette_arch::Architecture;
use marionette_lang::driver::Compiled;
use std::collections::HashMap;
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

struct Entry {
    material: String,
    value: Arc<CachedArtifact>,
    last_used: u64,
}

struct Inner {
    map: HashMap<String, Entry>,
    tick: u64,
}

/// Monotonic counters, readable while the cache is live.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned an artifact.
    pub hits: u64,
    /// Lookups that found nothing (or a collision mismatch).
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Total insertions.
    pub inserts: u64,
}

/// A bounded, thread-safe, content-addressed LRU cache of compiled
/// bitstream artifacts.
pub struct CompileCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
}

impl CompileCache {
    /// Creates a cache bounded to `capacity` entries (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        CompileCache {
            inner: Mutex::new(Inner {
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

    /// Looks `key` up, counting a hit or miss and refreshing recency.
    pub fn lookup(&self, key: &CacheKey) -> Option<Arc<CachedArtifact>> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key.address) {
            Some(e) if e.material == key.material => {
                e.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.value))
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts an artifact, evicting the least-recently-used entry when
    /// the bound is exceeded. Re-inserting an existing key refreshes the
    /// value without eviction.
    pub fn insert(&self, key: &CacheKey, value: CachedArtifact) {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        self.inserts.fetch_add(1, Ordering::Relaxed);
        inner.map.insert(
            key.address.clone(),
            Entry {
                material: key.material.clone(),
                value: Arc::new(value),
                last_used: tick,
            },
        );
        while inner.map.len() > self.capacity {
            // O(n) victim scan: the cache is bounded to hundreds of
            // entries, and compiles dominate any eviction walk.
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("nonempty above capacity");
            inner.map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
        }
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
}
