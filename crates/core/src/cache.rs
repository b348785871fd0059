//! Memoization of compiled layers across runs.
//!
//! Compiling a layer (tiling, Eq. 1/Eq. 2 math, macro-op emission) and
//! simulating the resulting program are pure functions of the layer's
//! geometry, the chosen [`Scheme`], the hardware configuration, the
//! machine execution knobs and the batch size. The experiment harness
//! replays the same layers hundreds of times — every VGG block repeats
//! one conv shape, every paper arm revisits the same network, and the
//! `Oracle` policy compiles all four schemes per layer — so the
//! [`CompiledLayerCache`] keys compiled programs by exactly those inputs
//! and shares them.
//!
//! The cache is thread-safe: [`Runner`](crate::Runner) clones share one
//! cache through an [`Arc`], and the parallel compile fan-out inserts
//! from worker threads. Hit/miss accounting for a *run* is computed by
//! the runner in a deterministic serial pre-pass (so the counters on
//! [`NetworkReport`](crate::NetworkReport) do not depend on thread
//! scheduling); the cache's own global counters aggregate every lookup
//! for whole-process summaries.
//!
//! A key is hashed once per visit. [`LayerKey`]'s `Hash` writes one
//! fixed 160-byte packed encoding in a single `write`; the same bytes
//! are the key's encoding in the cache file and on the wire. The map is
//! keyed by the key paired with its SipHash under one `RandomState`
//! drawn per process, and its hasher passes that stored value through,
//! so the probe, the runner's per-run de-dup map, the insert, every
//! growth rehash and the post-compile lookup all reuse one hash. The hash stays
//! keyed because keys arrive in wire requests. The runner keeps the slot
//! handle each probe or insert returns and stamps LRU recency on it
//! without another lookup, so a concurrent
//! [`CompiledLayerCache::evict_lru`] cannot pull an entry out from under
//! a run.
//!
//! # Examples
//!
//! ```
//! use cbrain::cache::{CompiledLayerCache, LayerKey};
//! use cbrain::{RunOptions, Scheme};
//! use cbrain_model::zoo;
//! use cbrain_sim::AcceleratorConfig;
//!
//! let cache = CompiledLayerCache::new();
//! let net = zoo::vgg16();
//! let opts = RunOptions::default();
//! let cfg = AcceleratorConfig::paper_16_16();
//!
//! // conv3_2 and conv3_3 have identical geometry: one cache entry.
//! let a = LayerKey::new(net.layer("conv3_2").unwrap(), Scheme::Inter, &cfg, &opts);
//! let b = LayerKey::new(net.layer("conv3_3").unwrap(), Scheme::Inter, &cfg, &opts);
//! assert_eq!(a, b);
//! assert!(!cache.contains(&a));
//! ```

use crate::runner::RunOptions;
use cbrain_compiler::{CompiledLayer, Scheme};
use cbrain_model::{
    ConvParams, EltwiseOp, EltwiseParams, FcParams, Layer, LayerKind, PoolKind, PoolParams,
    TensorShape,
};
use cbrain_sim::{AcceleratorConfig, MachineOptions, PeConfig, Stats};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Everything a compiled-and-simulated layer depends on.
///
/// Deliberately excludes the layer *name*: two layers with the same
/// geometry compile to the same program and simulate to the same stats,
/// so VGG's repeated blocks share entries.
///
/// `Hash` feeds the hasher one fixed-size packed encoding in a single
/// `write`, rather than the derive's one write per field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerKey {
    /// Layer operation and parameters.
    pub kind: LayerKind,
    /// Input tensor shape.
    pub input: TensorShape,
    /// Mapping scheme (for non-conv layers the compiler ignores it; the
    /// runner normalizes it to [`Scheme::Inter`]).
    pub scheme: Scheme,
    /// Hardware configuration.
    pub cfg: AcceleratorConfig,
    /// Machine execution knobs (they change the simulated stats).
    pub machine: MachineOptions,
    /// Batch size (it changes the emitted program).
    pub batch: usize,
}

/// Words in [`LayerKey`]'s packed encoding, in the order v1 of the cache
/// file wrote the fields: the kind tag, six layer parameters, three shape
/// dimensions, the scheme, seven config fields, the two machine flags in
/// one word, and the batch.
const PACKED_WORDS: usize = 20;

/// Bytes in [`LayerKey`]'s packed encoding.
pub(crate) const KEY_LEN: usize = PACKED_WORDS * 8;

impl LayerKey {
    /// Key for compiling `layer` under `scheme` with the given hardware
    /// and run options.
    pub fn new(layer: &Layer, scheme: Scheme, cfg: &AcceleratorConfig, opts: &RunOptions) -> Self {
        // Non-conv layers have a fixed mapping; normalizing the scheme
        // makes all four Oracle probes of a pool layer collapse to one key.
        let scheme = if layer.as_conv().is_some() {
            scheme
        } else {
            Scheme::Inter
        };
        Self {
            kind: layer.kind,
            input: layer.input,
            scheme,
            cfg: *cfg,
            machine: opts.machine,
            batch: opts.batch,
        }
    }

    /// The key as 160 bytes (20 little-endian words), a one-to-one image
    /// of every field; fieldless enums and flags pack as their
    /// discriminants. Each field sits where v1's field-by-field encoding
    /// put it, widened to a word, so comparing packed bytes orders keys as
    /// v1's bytes did: a cache file lists its entries, and a load stamps
    /// their recency, in v1's order, so evictions after a reload are
    /// unchanged. The destructures are exhaustive, so a field added to the
    /// key or to one of its parts fails to build until it is packed here.
    pub(crate) fn packed(&self) -> [u8; KEY_LEN] {
        let LayerKey {
            kind,
            input:
                TensorShape {
                    maps,
                    height,
                    width,
                },
            scheme,
            cfg:
                AcceleratorConfig {
                    pe: PeConfig { tin, tout },
                    inout_buf_bytes,
                    weight_buf_bytes,
                    bias_buf_bytes,
                    dram_bytes_per_cycle,
                    freq_mhz,
                },
            machine:
                MachineOptions {
                    overlap_dma,
                    add_store_on_critical_path,
                },
            batch,
        } = *self;
        // The kind's tag, then its parameters, zero-padded to six.
        let (tag, params): (u64, [usize; 6]) = match kind {
            LayerKind::Conv(ConvParams {
                in_maps,
                out_maps,
                kernel,
                stride,
                pad,
                groups,
            }) => (0, [in_maps, out_maps, kernel, stride, pad, groups]),
            LayerKind::Pool(PoolParams {
                kernel,
                stride,
                kind,
                ceil_mode,
            }) => (1, [kernel, stride, kind as usize, ceil_mode.into(), 0, 0]),
            LayerKind::FullyConnected(FcParams {
                in_features,
                out_features,
            }) => (2, [in_features, out_features, 0, 0, 0, 0]),
            LayerKind::Eltwise(EltwiseParams { op }) => (3, [op as usize, 0, 0, 0, 0, 0]),
        };
        let words: [u64; PACKED_WORDS] = [
            tag,
            params[0] as u64,
            params[1] as u64,
            params[2] as u64,
            params[3] as u64,
            params[4] as u64,
            params[5] as u64,
            maps as u64,
            height as u64,
            width as u64,
            scheme as u64,
            tin as u64,
            tout as u64,
            inout_buf_bytes as u64,
            weight_buf_bytes as u64,
            bias_buf_bytes as u64,
            dram_bytes_per_cycle as u64,
            freq_mhz,
            u64::from(overlap_dma) | u64::from(add_store_on_critical_path) << 8,
            batch as u64,
        ];
        let mut out = [0u8; KEY_LEN];
        for (bytes, word) in out.chunks_exact_mut(8).zip(words) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// The inverse of [`LayerKey::packed`]: the key `bytes` encode, or
    /// `None` unless they re-pack to themselves. That rejects a tag,
    /// scheme or flag out of range, non-zero padding and a value past
    /// `usize`, so every key has exactly one encoding.
    pub(crate) fn unpack(bytes: &[u8; KEY_LEN]) -> Option<Self> {
        let mut words = [0u64; PACKED_WORDS];
        for (word, chunk) in words.iter_mut().zip(bytes.chunks_exact(8)) {
            *word = u64::from_le_bytes(chunk.try_into().ok()?);
        }
        let size = |i: usize| usize::try_from(words[i]).ok();
        let p = [size(1)?, size(2)?, size(3)?, size(4)?, size(5)?, size(6)?];
        let kind = match words[0] {
            0 => LayerKind::Conv(ConvParams {
                in_maps: p[0],
                out_maps: p[1],
                kernel: p[2],
                stride: p[3],
                pad: p[4],
                groups: p[5],
            }),
            1 => LayerKind::Pool(PoolParams {
                kernel: p[0],
                stride: p[1],
                kind: if p[2] == 1 {
                    PoolKind::Average
                } else {
                    PoolKind::Max
                },
                ceil_mode: p[3] == 1,
            }),
            2 => LayerKind::FullyConnected(FcParams {
                in_features: p[0],
                out_features: p[1],
            }),
            3 => LayerKind::Eltwise(EltwiseParams { op: EltwiseOp::Add }),
            _ => return None,
        };
        let key = LayerKey {
            kind,
            input: TensorShape::new(size(7)?, size(8)?, size(9)?),
            scheme: *Scheme::ALL.get(size(10)?)?,
            cfg: AcceleratorConfig {
                pe: PeConfig::new(size(11)?, size(12)?),
                inout_buf_bytes: size(13)?,
                weight_buf_bytes: size(14)?,
                bias_buf_bytes: size(15)?,
                dram_bytes_per_cycle: size(16)?,
                freq_mhz: words[17],
            },
            machine: MachineOptions {
                overlap_dma: words[18] & 0xff == 1,
                add_store_on_critical_path: words[18] >> 8 == 1,
            },
            batch: size(19)?,
        };
        (key.packed() == *bytes).then_some(key)
    }
}

impl Hash for LayerKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(&self.packed());
    }
}

/// A [`LayerKey`] and its keyed hash, computed once. The cache map and
/// the runner's per-run de-dup map are keyed by it, so every probe,
/// insert and growth rehash of one visit reuses the one hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HashedKey {
    hash: u64,
    pub(crate) key: LayerKey,
}

impl HashedKey {
    /// Hashes `key` with SipHash under one [`RandomState`] drawn per
    /// process. The hash stays keyed because keys arrive in wire
    /// requests: a fixed hash would let a client pick colliding keys.
    pub(crate) fn new(key: LayerKey) -> Self {
        static STATE: OnceLock<RandomState> = OnceLock::new();
        let hash = STATE.get_or_init(RandomState::new).hash_one(key);
        Self { hash, key }
    }
}

impl Hash for HashedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The hasher of maps keyed by [`HashedKey`]: it hands back the stored
/// hash unchanged.
#[derive(Default)]
pub(crate) struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only a HashedKey, which writes one u64, is hashed here");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by [`HashedKey`] that never hashes a key again.
pub(crate) type HashedMap<V> = HashMap<HashedKey, V, BuildHasherDefault<PassThroughHasher>>;

/// A compiled layer together with its simulated statistics.
#[derive(Debug, Clone)]
pub struct CachedLayer {
    /// Compiler output (program, layouts, scheme actually used).
    pub compiled: CompiledLayer,
    /// Machine statistics for one execution of the program.
    pub stats: Stats,
}

/// A cache entry plus the logical clock of its last use, so
/// [`CompiledLayerCache::evict_lru`] can drop the coldest entries first.
/// The map holds each slot behind an [`Arc`], so a handle stays valid
/// after the entry is evicted and stamping it needs no lookup.
#[derive(Debug)]
pub(crate) struct Slot {
    pub(crate) value: Arc<CachedLayer>,
    last_used: AtomicU64,
}

/// Thread-safe map from [`LayerKey`] to compiled+simulated layers.
///
/// # Examples
///
/// ```
/// use cbrain::{Policy, Runner};
/// use cbrain_model::zoo;
/// use cbrain_sim::AcceleratorConfig;
///
/// let runner = Runner::new(AcceleratorConfig::paper_16_16());
/// let report = runner.run_network(&zoo::vgg16(), Policy::PAPER_ARMS[0])?;
/// // VGG repeats conv shapes, so even a cold cache scores hits.
/// assert!(report.cache_hits > 0);
/// // A second identical run is answered entirely from the cache.
/// let again = runner.run_network(&zoo::vgg16(), Policy::PAPER_ARMS[0])?;
/// assert_eq!(again.cache_misses, 0);
/// assert_eq!(again.cycles(), report.cycles());
/// # Ok::<(), cbrain::RunError>(())
/// ```
#[derive(Debug, Default)]
pub struct CompiledLayerCache {
    entries: RwLock<HashedMap<Arc<Slot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Logical clock stamping every lookup/insert; drives LRU eviction.
    tick: AtomicU64,
}

impl CompiledLayerCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache behind an [`Arc`], ready to share between runners.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Whether the key is already cached (does not touch the counters
    /// or the entry's recency).
    pub fn contains(&self, key: &LayerKey) -> bool {
        self.entries
            .read()
            .expect("cache lock")
            .contains_key(&HashedKey::new(*key))
    }

    /// The slot holding `key`, without touching the counters or the
    /// entry's recency.
    pub(crate) fn lookup(&self, key: &HashedKey) -> Option<Arc<Slot>> {
        self.entries.read().expect("cache lock").get(key).cloned()
    }

    /// Stamps a slot with the next logical-clock tick and returns its
    /// entry. `last_used` is atomic, so this needs no write lock:
    /// concurrent stampers race only over which recent tick wins, and
    /// either keeps the entry hot. Stamping the handle of an entry
    /// evicted meanwhile changes nothing the cache holds.
    pub(crate) fn touch(&self, slot: &Slot) -> Arc<CachedLayer> {
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        slot.last_used.store(now, Ordering::Relaxed);
        Arc::clone(&slot.value)
    }

    /// Looks up a key without touching the counters (the entry's LRU
    /// recency is still refreshed).
    pub fn peek(&self, key: &LayerKey) -> Option<Arc<CachedLayer>> {
        let map = self.entries.read().expect("cache lock");
        map.get(&HashedKey::new(*key)).map(|slot| self.touch(slot))
    }

    /// Adds externally-accounted lookups to the global counters (the
    /// runner computes a run's hits/misses deterministically and reports
    /// them here in one shot).
    pub fn record(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Looks up a key, counting a global hit or miss.
    pub fn get(&self, key: &LayerKey) -> Option<Arc<CachedLayer>> {
        self.get_hashed(&HashedKey::new(*key))
    }

    fn get_hashed(&self, key: &HashedKey) -> Option<Arc<CachedLayer>> {
        let found = {
            let map = self.entries.read().expect("cache lock");
            map.get(key).map(|slot| self.touch(slot))
        };
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Inserts an entry computed elsewhere. Returns the entry that ends up
    /// in the cache (the existing one if another thread got there first,
    /// so concurrent same-key compiles converge on one allocation).
    pub fn insert(&self, key: LayerKey, value: CachedLayer) -> Arc<CachedLayer> {
        Arc::clone(&self.insert_hashed(HashedKey::new(key), value).value)
    }

    /// [`CompiledLayerCache::insert`] for a hashed key, returning the slot
    /// that ends up in the cache.
    pub(crate) fn insert_hashed(&self, key: HashedKey, value: CachedLayer) -> Arc<Slot> {
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut map = self.entries.write().expect("cache lock");
        let slot = map.entry(key).or_insert_with(|| {
            Arc::new(Slot {
                value: Arc::new(value),
                last_used: AtomicU64::new(now),
            })
        });
        slot.last_used.store(now, Ordering::Relaxed);
        Arc::clone(slot)
    }

    /// Evicts least-recently-used entries until at most `max` remain,
    /// returning how many were dropped. Every stamp takes a fresh tick,
    /// so no two entries share a recency. [`crate::persist::load_into`]
    /// inserts entries one by one in file order, so the file's order sets
    /// the recency of loaded entries that were not used since.
    pub fn evict_lru(&self, max: usize) -> usize {
        let mut map = self.entries.write().expect("cache lock");
        if map.len() <= max {
            return 0;
        }
        let mut order: Vec<(u64, HashedKey)> = map
            .iter()
            .map(|(key, slot)| (slot.last_used.load(Ordering::Relaxed), *key))
            .collect();
        order.sort_unstable_by_key(|&(last_used, _)| last_used);
        let evict = map.len() - max;
        for (_, key) in order.iter().take(evict) {
            map.remove(key);
        }
        self.evictions.fetch_add(evict as u64, Ordering::Relaxed);
        evict
    }

    /// Returns the cached entry or computes, inserts and returns it. The
    /// boolean is `true` on a hit. Counts toward the global counters.
    ///
    /// # Errors
    ///
    /// Propagates the compute closure's error; nothing is inserted.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: LayerKey,
        compute: impl FnOnce() -> Result<CachedLayer, E>,
    ) -> Result<(Arc<CachedLayer>, bool), E> {
        let key = HashedKey::new(key);
        if let Some(found) = self.get_hashed(&key) {
            return Ok((found, true));
        }
        let slot = self.insert_hashed(key, compute()?);
        Ok((Arc::clone(&slot.value), false))
    }

    /// A point-in-time copy of every entry (cheap: values are `Arc`s).
    /// Iteration order is the map's; consumers needing determinism (the
    /// [`crate::persist`] serializer) sort the result themselves.
    pub fn snapshot(&self) -> Vec<(LayerKey, Arc<CachedLayer>)> {
        self.entries
            .read()
            .expect("cache lock")
            .iter()
            .map(|(k, slot)| (k.key, Arc::clone(&slot.value)))
            .collect()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.read().expect("cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Global hit count across every lookup since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Global miss count across every lookup since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Global count of entries dropped by [`CompiledLayerCache::evict_lru`]
    /// since construction (the daemon samples this into its `metrics`
    /// exposition as `cache_evictions_total`).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Global hit rate in `[0, 1]`; `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Drops every entry and zeroes the counters.
    pub fn clear(&self) {
        self.entries.write().expect("cache lock").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain_model::zoo;
    use cbrain_sim::Machine;

    fn key_for(layer_name: &str, scheme: Scheme) -> (LayerKey, Layer) {
        let net = zoo::alexnet();
        let layer = net.layer(layer_name).expect("layer exists").clone();
        let key = LayerKey::new(
            &layer,
            scheme,
            &AcceleratorConfig::paper_16_16(),
            &RunOptions::default(),
        );
        (key, layer)
    }

    fn compiled(layer: &Layer, scheme: Scheme) -> CachedLayer {
        let cfg = AcceleratorConfig::paper_16_16();
        let compiled = cbrain_compiler::compile_layer_batched(layer, scheme, &cfg, 1).unwrap();
        let stats = Machine::new(cfg).run(&compiled.program);
        CachedLayer { compiled, stats }
    }

    #[test]
    fn same_geometry_same_key_distinct_scheme_distinct_key() {
        let net = zoo::vgg16();
        let cfg = AcceleratorConfig::paper_16_16();
        let opts = RunOptions::default();
        let a = LayerKey::new(net.layer("conv3_2").unwrap(), Scheme::Inter, &cfg, &opts);
        let b = LayerKey::new(net.layer("conv3_3").unwrap(), Scheme::Inter, &cfg, &opts);
        let c = LayerKey::new(net.layer("conv3_3").unwrap(), Scheme::Intra, &cfg, &opts);
        assert_eq!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn pool_layers_normalize_scheme() {
        let net = zoo::alexnet();
        let cfg = AcceleratorConfig::paper_16_16();
        let opts = RunOptions::default();
        let pool = net.layer("pool1").unwrap();
        let a = LayerKey::new(pool, Scheme::Partition, &cfg, &opts);
        let b = LayerKey::new(pool, Scheme::Intra, &cfg, &opts);
        assert_eq!(a, b);
        assert_eq!(a.scheme, Scheme::Inter);
    }

    #[test]
    fn packed_encoding_tells_every_field_apart() {
        // Each zoo key under every scheme, and under a change to each
        // field outside the layer itself.
        let tweaks: [fn(&mut LayerKey); 10] = [
            |k| k.cfg.pe.tin += 1,
            |k| k.cfg.pe.tout += 1,
            |k| k.cfg.inout_buf_bytes += 1,
            |k| k.cfg.weight_buf_bytes += 1,
            |k| k.cfg.bias_buf_bytes += 1,
            |k| k.cfg.dram_bytes_per_cycle += 1,
            |k| k.cfg.freq_mhz += 1,
            |k| k.machine.overlap_dma ^= true,
            |k| k.machine.add_store_on_critical_path ^= true,
            |k| k.batch += 1,
        ];
        let cfg = AcceleratorConfig::paper_16_16();
        let opts = RunOptions::default();
        let mut keys = std::collections::HashSet::new();
        for net in zoo::all() {
            for layer in net.layers() {
                for scheme in Scheme::ALL {
                    let key = LayerKey::new(layer, scheme, &cfg, &opts);
                    keys.insert(key);
                    for tweak in tweaks {
                        let mut changed = key;
                        tweak(&mut changed);
                        keys.insert(changed);
                    }
                }
            }
        }
        let packed: std::collections::HashSet<_> = keys.iter().map(LayerKey::packed).collect();
        assert_eq!(packed.len(), keys.len());
    }

    #[test]
    fn hit_miss_counting() {
        let cache = CompiledLayerCache::new();
        let (key, layer) = key_for("conv1", Scheme::Partition);
        assert!(cache.get(&key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let (entry, hit) = cache
            .get_or_try_insert_with(key, || {
                Ok::<_, crate::RunError>(compiled(&layer, key.scheme))
            })
            .unwrap();
        assert!(!hit);
        assert_eq!(entry.compiled.scheme, Some(Scheme::Partition));

        let (again, hit) = cache
            .get_or_try_insert_with(key, || -> Result<_, crate::RunError> {
                unreachable!("must hit")
            })
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&entry, &again));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert!(cache.hit_rate() > 0.3);
        assert_eq!(cache.len(), 1);

        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn evict_lru_drops_coldest_entries_first() {
        let cache = CompiledLayerCache::new();
        let names = ["conv1", "conv2", "conv3"];
        let keys: Vec<LayerKey> = names
            .iter()
            .map(|name| {
                let (key, layer) = key_for(name, Scheme::Inter);
                cache.insert(key, compiled(&layer, key.scheme));
                key
            })
            .collect();
        assert_eq!(cache.len(), 3);
        // Refresh conv1 and conv3; conv2 becomes the LRU entry.
        assert!(cache.peek(&keys[0]).is_some());
        assert!(cache.peek(&keys[2]).is_some());

        assert_eq!(cache.evict_lru(3), 0, "already within bound");
        assert_eq!(cache.evict_lru(2), 1);
        assert!(cache.contains(&keys[0]));
        assert!(!cache.contains(&keys[1]), "LRU entry must go first");
        assert!(cache.contains(&keys[2]));

        assert_eq!(cache.evict_lru(0), 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn failed_compute_inserts_nothing() {
        let cache = CompiledLayerCache::new();
        let (key, _) = key_for("conv1", Scheme::Inter);
        let err: Result<(Arc<CachedLayer>, bool), &str> =
            cache.get_or_try_insert_with(key, || Err("boom"));
        assert!(err.is_err());
        assert!(!cache.contains(&key));
    }
}
