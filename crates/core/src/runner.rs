//! Whole-network execution under a parallelization policy.
//!
//! Compilation is memoized through a [`CompiledLayerCache`] and the
//! per-run compile work-list fans out over [`crate::pool`] when
//! [`RunOptions::jobs`] asks for it. Hit/miss accounting and the final
//! report are computed serially in layer order, so a parallel run is
//! byte-identical to a serial one.

use crate::adaptive::{scheme_for, Policy};
use crate::cache::{CachedLayer, CompiledLayerCache, HashedKey, HashedMap, LayerKey, Slot};
use crate::error::RunError;
use crate::pool::try_parallel_map;
use cbrain_compiler::cost::analytic_cost;
use cbrain_compiler::{
    compile_layer_batched, ideal_cycles, layout_transform_program, ConvGeometry, DataLayout, Scheme,
};
use cbrain_model::{Layer, LayerKind, Network};
use cbrain_sim::{AcceleratorConfig, EnergyBreakdown, EnergyModel, Machine, MachineOptions, Stats};
use std::collections::hash_map::Entry;
use std::fmt;
use std::sync::Arc;

/// Which layers of the network a run covers.
///
/// The paper's evaluation follows its Sec. 3 scoping ("we primarily discuss
/// convolution operation, which typically makes 90% of the computational
/// workload"); [`Workload::ConvAndPool`] is the default "whole phase of
/// network forward-propagation" used for Figs. 8/10 — FC layers are pure
/// DRAM-bound weight streams identical under every scheme and would only
/// dilute the comparison. [`Workload::FullNetwork`] includes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Workload {
    /// Only the first convolution layer (Fig. 7 / Fig. 9 "conv1").
    Conv1Only,
    /// All convolution layers.
    ConvLayers,
    /// Convolution and pooling layers (default).
    #[default]
    ConvAndPool,
    /// Every layer, including fully-connected classifiers.
    FullNetwork,
}

impl Workload {
    /// The canonical name (`conv1`, `conv`, `conv+pool`, `full`) — the
    /// vocabulary shared by the CLI and the serving wire protocol.
    pub const fn label(&self) -> &'static str {
        match self {
            Workload::Conv1Only => "conv1",
            Workload::ConvLayers => "conv",
            Workload::ConvAndPool => "conv+pool",
            Workload::FullNetwork => "full",
        }
    }

    fn selects(&self, layer: &Layer) -> bool {
        match (self, &layer.kind) {
            (Workload::Conv1Only, _) => unreachable!("handled by caller"),
            (Workload::ConvLayers, LayerKind::Conv(_)) => true,
            (Workload::ConvLayers, _) => false,
            (Workload::ConvAndPool, LayerKind::FullyConnected(_)) => false,
            (Workload::ConvAndPool, _) => true,
            (Workload::FullNetwork, _) => true,
        }
    }
}

/// Options for a network run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Layer subset to execute.
    pub workload: Workload,
    /// Algorithm 2 lines 4-5: store each output in the layout the next
    /// layer's scheme wants. Disabling this (ablation) charges an explicit
    /// DRAM round-trip transform whenever producer and consumer layouts
    /// disagree.
    pub layout_planning: bool,
    /// Machine execution knobs (DMA overlap, add-store ablation).
    pub machine: MachineOptions,
    /// Energy constants.
    pub energy: EnergyModel,
    /// Images processed per run. Activations and compute scale with the
    /// batch; weights resident on chip (and FC weight streams, via the
    /// weight-chunk-outer ordering) are amortized across it.
    pub batch: usize,
    /// Worker threads for the compile work-list inside one run (the
    /// Oracle policy compiles every scheme per layer, so this is where a
    /// single run has parallelism to exploit). The report is identical
    /// for every value; `1` (the default) stays on the calling thread.
    pub jobs: usize,
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error from parsing a workload label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWorkloadError(pub String);

impl fmt::Display for ParseWorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown workload `{}`", self.0)
    }
}

impl std::error::Error for ParseWorkloadError {}

impl std::str::FromStr for Workload {
    type Err = ParseWorkloadError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "conv1" => Ok(Workload::Conv1Only),
            "conv" => Ok(Workload::ConvLayers),
            "conv+pool" => Ok(Workload::ConvAndPool),
            "full" => Ok(Workload::FullNetwork),
            other => Err(ParseWorkloadError(other.to_owned())),
        }
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            workload: Workload::default(),
            layout_planning: true,
            machine: MachineOptions::default(),
            energy: EnergyModel::default(),
            batch: 1,
            jobs: 1,
        }
    }
}

/// Per-layer result of a run.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Scheme used (None for pooling).
    pub scheme: Option<Scheme>,
    /// Simulation statistics of the layer's own program. An explicit
    /// layout transform before the layer is not included: its cycles are
    /// in `layout_transform_cycles`, and its stats only in the run's
    /// [`NetworkReport::totals`].
    pub stats: Stats,
    /// The 100%-utilization lower bound the paper plots as "ideal".
    pub ideal_cycles: u64,
    /// Cycles spent on an explicit layout transform before this layer
    /// (only non-zero with `layout_planning = false`).
    pub layout_transform_cycles: u64,
}

/// Whole-run result.
#[derive(Debug, Clone)]
pub struct NetworkReport {
    /// Network name.
    pub network: String,
    /// Images processed in this run.
    pub batch: usize,
    /// Policy used.
    pub policy: Policy,
    /// Hardware configuration.
    pub config: AcceleratorConfig,
    /// Per-layer reports in execution order.
    pub layers: Vec<LayerReport>,
    /// Summed statistics.
    pub totals: Stats,
    /// Energy under the run's model.
    pub energy: EnergyBreakdown,
    /// Compiled-layer cache hits this run scored (repeated geometry
    /// inside the network, the Oracle's winner re-fetch, or entries left
    /// by earlier runs on the same [`Runner`]). Computed in a serial
    /// pre-pass, so the value is independent of [`RunOptions::jobs`].
    pub cache_hits: u64,
    /// Compiled-layer cache misses this run paid for (each one is a
    /// unique compile+simulate of a layer geometry/scheme pair).
    pub cache_misses: u64,
}

impl NetworkReport {
    /// Total cycles.
    pub fn cycles(&self) -> u64 {
        self.totals.cycles
    }

    /// Wall-clock milliseconds at the configuration's clock.
    pub fn ms(&self) -> f64 {
        self.config.cycles_to_ms(self.totals.cycles)
    }

    /// Sum of the per-layer ideal cycle bounds.
    pub fn ideal_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.ideal_cycles).sum()
    }

    /// Speedup of this run over another (same network/workload assumed).
    pub fn speedup_over(&self, other: &NetworkReport) -> f64 {
        other.cycles() as f64 / self.cycles() as f64
    }

    /// Cycles per image (total cycles / batch).
    pub fn cycles_per_image(&self) -> f64 {
        self.totals.cycles as f64 / self.batch as f64
    }

    /// DRAM bytes per image.
    pub fn dram_bytes_per_image(&self) -> f64 {
        self.totals.dram_bytes() as f64 / self.batch as f64
    }

    /// Fraction of this run's compile lookups answered from the cache,
    /// in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Compiles and simulates one cache key's worth of work. Everything the
/// result depends on is inside the key (scheme, hardware, machine knobs,
/// batch), so any process with the layer geometry can produce — or
/// reuse — the identical entry. This is the unit of work a
/// [`CompileBackend`] executes.
///
/// # Errors
///
/// Returns a [`RunError`] if the layer fails to compile.
pub fn compile_cache_entry(layer: &Layer, key: &LayerKey) -> Result<CachedLayer, RunError> {
    let compiled = compile_layer_batched(layer, key.scheme, &key.cfg, key.batch)?;
    let stats = Machine::with_options(key.cfg, key.machine).run(&compiled.program);
    Ok(CachedLayer { compiled, stats })
}

/// How a [`Runner`] executes its compile work-list.
///
/// The default (no backend installed) fans the list over the in-process
/// [`crate::pool`] with [`RunOptions::jobs`] workers. A serving daemon
/// substitutes a backend that funnels work-lists from many concurrent
/// connections into shared batches — entries are pure functions of their
/// [`LayerKey`] (see [`compile_cache_entry`]), so any merging or
/// reordering yields the same cache contents.
pub trait CompileBackend: Send + Sync + fmt::Debug {
    /// Compiles every `(key, layer)` pair and makes each key present in
    /// `cache` before returning. A concurrent
    /// [`CompiledLayerCache::evict_lru`] may drop an entry again before
    /// the runner reads it; the runner then compiles that key itself.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if any compile fails; keys whose compiles
    /// succeeded may or may not have been inserted.
    fn compile_batch(
        &self,
        cache: &CompiledLayerCache,
        worklist: Vec<(LayerKey, Layer)>,
    ) -> Result<(), RunError>;
}

/// Where a probed key's entry comes from: the slot the cache held at
/// the probe, or an index into the run's compile work-list.
enum Probe {
    Cached(Arc<Slot>),
    Queued(usize),
}

/// A key a layer's plan visited: its scheme (the selection tie-break)
/// and the slot holding its entry.
type Visit = (Scheme, Arc<Slot>);

/// Resolves one layer's probes against the slots its compile work-list
/// produced, keeping the probe order.
fn resolve(probes: Vec<(Scheme, Probe)>, compiled: &[Arc<Slot>]) -> Vec<Visit> {
    probes
        .into_iter()
        .map(|(scheme, probe)| match probe {
            Probe::Cached(slot) => (scheme, slot),
            Probe::Queued(i) => (scheme, Arc::clone(&compiled[i])),
        })
        .collect()
}

/// What a run's plan-and-compile phase hands its merge pass.
struct Planned {
    hits: u64,
    misses: u64,
    /// The entry each selected layer executes, in layer order.
    entries: Vec<Arc<CachedLayer>>,
}

/// The network runner: compiles each selected layer under the policy and
/// executes it on the simulated machine.
///
/// Every runner owns a [`CompiledLayerCache`]; clones share it (the
/// handle is an [`Arc`]), and [`Runner::with_cache`] lets several
/// runners pool one explicitly.
#[derive(Debug, Clone)]
pub struct Runner {
    cfg: AcceleratorConfig,
    opts: RunOptions,
    cache: Arc<CompiledLayerCache>,
    backend: Option<Arc<dyn CompileBackend>>,
}

impl Runner {
    /// Creates a runner with default options and a fresh cache.
    pub fn new(cfg: AcceleratorConfig) -> Self {
        Self::with_options(cfg, RunOptions::default())
    }

    /// Creates a runner with explicit options and a fresh cache.
    pub fn with_options(cfg: AcceleratorConfig, opts: RunOptions) -> Self {
        Self {
            cfg,
            opts,
            cache: CompiledLayerCache::shared(),
            backend: None,
        }
    }

    /// Replaces the runner's cache with a shared one. Sharing trades the
    /// per-run determinism of the hit/miss *counters* for cross-runner
    /// reuse: with a shared cache, whether run B hits depends on whether
    /// run A already compiled the entry. Results are unaffected either
    /// way — a cached entry is exactly what a fresh compile would return.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<CompiledLayerCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Routes the runner's compile work-lists through an external
    /// backend instead of the in-process pool (see [`CompileBackend`]).
    #[must_use]
    pub fn with_compile_backend(mut self, backend: Arc<dyn CompileBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The runner's compiled-layer cache.
    pub fn cache(&self) -> &Arc<CompiledLayerCache> {
        &self.cache
    }

    /// The hardware configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// The run options.
    pub fn options(&self) -> &RunOptions {
        &self.opts
    }

    /// The cache keys a layer's compile will probe, in deterministic
    /// order. One key for a fixed or heuristic policy; all four schemes
    /// for the Oracle's exhaustive sweep; non-conv layers have a fixed
    /// mapping and always collapse to one `Scheme::Inter` key.
    fn probe_keys(&self, layer: &Layer, policy: Policy) -> Vec<LayerKey> {
        match layer.as_conv() {
            None => vec![LayerKey::new(layer, Scheme::Inter, &self.cfg, &self.opts)],
            Some(conv) => match policy {
                Policy::Oracle => Scheme::ALL
                    .into_iter()
                    .map(|s| LayerKey::new(layer, s, &self.cfg, &self.opts))
                    .collect(),
                Policy::OraclePruned => {
                    unreachable!("the pruned oracle has its own plan path")
                }
                _ => vec![LayerKey::new(
                    layer,
                    scheme_for(policy, conv, &self.cfg),
                    &self.cfg,
                    &self.opts,
                )],
            },
        }
    }

    /// Executes a compile work-list: through the installed
    /// [`CompileBackend`] if one is present, else over the in-process
    /// pool with [`RunOptions::jobs`] workers. Returns the cache slot of
    /// each key, in work-list order. A key the backend cached but that is
    /// gone when the runner looks it up (a concurrent
    /// [`CompiledLayerCache::evict_lru`]) is compiled here: an entry is a
    /// pure function of its key.
    fn compile_worklist(
        &self,
        worklist: Vec<(HashedKey, &Layer)>,
    ) -> Result<Vec<Arc<Slot>>, RunError> {
        if let Some(backend) = &self.backend {
            let owned = worklist
                .iter()
                .map(|&(key, layer)| (key.key, layer.clone()))
                .collect();
            backend.compile_batch(&self.cache, owned)?;
            return worklist
                .into_iter()
                .map(|(key, layer)| match self.cache.lookup(&key) {
                    Some(slot) => Ok(slot),
                    None => compile_cache_entry(layer, &key.key)
                        .map(|entry| self.cache.insert_hashed(key, entry)),
                })
                .collect();
        }
        let compiled = try_parallel_map(self.opts.jobs, worklist, |(key, layer)| {
            compile_cache_entry(layer, &key.key).map(|entry| (key, entry))
        })?;
        Ok(compiled
            .into_iter()
            .map(|(key, entry)| self.cache.insert_hashed(key, entry))
            .collect())
    }

    /// The pruned oracle's per-layer visit order: every scheme paired
    /// with its analytic compute-cycle lower bound (scaled to the run's
    /// batch), sorted ascending. The sort is stable, so ties keep
    /// `Scheme::ALL` order — the same tie-break the exhaustive Oracle's
    /// strict-`<` minimum applies.
    fn pruned_scheme_order(&self, layer: &Layer) -> Result<Vec<(u64, Scheme)>, RunError> {
        let geom = ConvGeometry::from_layer(layer)?;
        let mut order: Vec<(u64, Scheme)> = Scheme::ALL
            .into_iter()
            .map(|s| {
                let bound = analytic_cost(&geom, s, &self.cfg)
                    .compute_cycles
                    .saturating_mul(self.opts.batch as u64);
                (bound, s)
            })
            .collect();
        order.sort_by_key(|&(bound, _)| bound);
        Ok(order)
    }

    /// How many of the cheapest-bound candidates the pruned oracle
    /// simulates unconditionally per conv layer. Fanning this pair onto
    /// the job pool (or a remote backend) as one batch recovers compile
    /// parallelism inside the pruned search; everything after the pair
    /// keeps the serial bound-skip. Extra speculative simulations only
    /// tighten the running bound — selection is unchanged because the
    /// winner is the `Scheme::ALL`-order strict-`<` minimum over
    /// whatever was simulated, and every possible minimum is.
    const PRUNED_SPECULATION: usize = 2;

    /// The pruned oracle's serial probe: the slot holding `key`, compiled
    /// on the spot on a miss. The boolean is `true` on a hit.
    fn visit(&self, key: HashedKey, layer: &Layer) -> Result<(Arc<Slot>, bool), RunError> {
        match self.cache.lookup(&key) {
            Some(slot) => Ok((slot, true)),
            None => Ok((self.compile_worklist(vec![(key, layer)])?.remove(0), false)),
        }
    }

    /// The pruned oracle's phase 1+2: simulate the two cheapest-bound
    /// candidates unconditionally (compiled as one batch through the
    /// pool or [`CompileBackend`]), then visit the remaining schemes
    /// cheapest-bound-first, skipping any whose analytic lower bound
    /// already exceeds the best simulated candidate. Sound because the
    /// machine's total can never undercut its compute cycles
    /// (`stats.cycles >= compute_cycles`): a skipped scheme's true cycle
    /// count exceeds the running best, so it can be neither the minimum
    /// nor a `Scheme::ALL`-order tie for it. The speculative pair is a
    /// fixed prefix of the deterministic bound order, so the visit set —
    /// and with it the hit/miss counters — is identical at every
    /// [`RunOptions::jobs`] value and under any backend.
    fn plan_and_compile_pruned(&self, layers: &[&Layer]) -> Result<Planned, RunError> {
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut visited = Vec::with_capacity(layers.len());
        for &layer in layers {
            if layer.as_conv().is_none() {
                let key = LayerKey::new(layer, Scheme::Inter, &self.cfg, &self.opts);
                let (slot, hit) = self.visit(HashedKey::new(key), layer)?;
                hits += u64::from(hit);
                misses += u64::from(!hit);
                visited.push(vec![(key.scheme, slot)]);
                continue;
            }
            let order = self.pruned_scheme_order(layer)?;
            let spec_n = order.len().min(Self::PRUNED_SPECULATION);

            // Speculative prefix: account, then compile as one batch.
            let mut probes = Vec::with_capacity(spec_n);
            let mut pair: Vec<(HashedKey, &Layer)> = Vec::new();
            for &(_, scheme) in &order[..spec_n] {
                let key = HashedKey::new(LayerKey::new(layer, scheme, &self.cfg, &self.opts));
                let probe = match self.cache.lookup(&key) {
                    Some(slot) => {
                        hits += 1;
                        Probe::Cached(slot)
                    }
                    None => {
                        misses += 1;
                        pair.push((key, layer));
                        Probe::Queued(pair.len() - 1)
                    }
                };
                probes.push((scheme, probe));
            }
            let compiled = self.compile_worklist(pair)?;
            let mut visits = resolve(probes, &compiled);
            let mut best = visits.iter().map(|(_, slot)| slot.value.stats.cycles).min();

            // Tail: serial bound-skip, each result tightening the bound.
            for &(bound, scheme) in &order[spec_n..] {
                if best.is_some_and(|b| bound > b) {
                    continue;
                }
                let key = LayerKey::new(layer, scheme, &self.cfg, &self.opts);
                let (slot, hit) = self.visit(HashedKey::new(key), layer)?;
                hits += u64::from(hit);
                misses += u64::from(!hit);
                let cycles = slot.value.stats.cycles;
                best = Some(best.map_or(cycles, |b| b.min(cycles)));
                visits.push((scheme, slot));
            }
            // Winner re-fetch, mirroring the exhaustive Oracle's
            // accounting convention.
            hits += 1;
            visited.push(visits);
        }
        self.cache.record(hits, misses);
        Ok(Planned {
            hits,
            misses,
            entries: self.choose(&visited),
        })
    }

    /// Phase 1+2 of a run: serial hit/miss accounting over every probe
    /// key in layer order, then a (possibly parallel) compile of the
    /// unique misses. Returns the counts for the report and the entry
    /// each layer executes.
    ///
    /// The accounting happens *before* any compile, against the cache
    /// state at entry plus a local seen-set — so the counts depend only
    /// on the layer sequence and prior cache contents, never on how the
    /// compile work-list is scheduled across threads.
    fn plan_and_compile(&self, layers: &[&Layer], policy: Policy) -> Result<Planned, RunError> {
        if policy == Policy::OraclePruned {
            return self.plan_and_compile_pruned(layers);
        }
        // Each work-list key's index, so a repeat probe in this run
        // shares the first probe's compile.
        let mut seen: HashedMap<usize> = HashedMap::default();
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut worklist: Vec<(HashedKey, &Layer)> = Vec::new();
        let mut probes = Vec::with_capacity(layers.len());
        for &layer in layers {
            let keys = self.probe_keys(layer, policy);
            let mut layer_probes = Vec::with_capacity(keys.len());
            for key in keys {
                let key = HashedKey::new(key);
                let probe = match self.cache.lookup(&key) {
                    Some(slot) => {
                        hits += 1;
                        Probe::Cached(slot)
                    }
                    None => match seen.entry(key) {
                        Entry::Occupied(queued) => {
                            hits += 1;
                            Probe::Queued(*queued.get())
                        }
                        Entry::Vacant(slot) => {
                            misses += 1;
                            slot.insert(worklist.len());
                            worklist.push((key, layer));
                            Probe::Queued(worklist.len() - 1)
                        }
                    },
                };
                layer_probes.push((key.key.scheme, probe));
            }
            if policy == Policy::Oracle && layer.as_conv().is_some() {
                // After the sweep the winning scheme is fetched back out
                // of the cache: a guaranteed hit on every Oracle layer.
                hits += 1;
            }
            probes.push(layer_probes);
        }
        let compiled = self.compile_worklist(worklist)?;
        self.cache.record(hits, misses);
        let visited: Vec<Vec<Visit>> = probes
            .into_iter()
            .map(|layer_probes| resolve(layer_probes, &compiled))
            .collect();
        Ok(Planned {
            hits,
            misses,
            entries: self.choose(&visited),
        })
    }

    /// Stamps, layer by layer, the slot of every key a layer's plan
    /// visited and picks the entry it executes: the fewest cycles, ties
    /// broken in `Scheme::ALL` order — the Oracle's selection, and for a
    /// single key just that key. A scheme the pruned oracle skipped has a
    /// lower bound above the final minimum, so every minimum (and every
    /// `Scheme::ALL`-order tie for it) was visited. The stamps run after
    /// every compile and in layer order, so LRU recency follows the run's
    /// layer order.
    fn choose(&self, visited: &[Vec<Visit>]) -> Vec<Arc<CachedLayer>> {
        visited
            .iter()
            .map(|visits| {
                visits
                    .iter()
                    .map(|(scheme, slot)| {
                        let entry = self.cache.touch(slot);
                        let rank = Scheme::ALL.iter().position(|s| s == scheme);
                        (entry.stats.cycles, rank, entry)
                    })
                    .min_by_key(|&(cycles, rank, _)| (cycles, rank))
                    .expect("every layer visits at least one key")
                    .2
            })
            .collect()
    }

    /// Runs one layer in isolation (no layout-transform accounting).
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if the layer fails to compile.
    pub fn run_layer(&self, layer: &Layer, policy: Policy) -> Result<LayerReport, RunError> {
        let entry = self.plan_and_compile(&[layer], policy)?.entries.remove(0);
        Ok(LayerReport {
            name: layer.name.clone(),
            scheme: entry.compiled.scheme,
            stats: entry.stats,
            ideal_cycles: ideal_cycles(layer, &self.cfg)?,
            layout_transform_cycles: 0,
        })
    }

    /// Runs the selected workload of a network under a policy.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] on compile failure or an empty selection.
    ///
    /// # Examples
    ///
    /// ```
    /// use cbrain::{Policy, Runner};
    /// use cbrain_model::zoo;
    /// use cbrain_sim::AcceleratorConfig;
    ///
    /// let runner = Runner::new(AcceleratorConfig::paper_16_16());
    /// let net = zoo::alexnet();
    /// let inter = runner.run_network(&net, Policy::PAPER_ARMS[0])?;
    /// let adaptive = runner.run_network(&net, Policy::PAPER_ARMS[4])?;
    /// assert!(adaptive.speedup_over(&inter) > 1.2);
    /// # Ok::<(), cbrain::RunError>(())
    /// ```
    pub fn run_network(&self, net: &Network, policy: Policy) -> Result<NetworkReport, RunError> {
        self.run_network_streamed(net, policy, |_| {})
    }

    /// [`Runner::run_network`] with a per-layer callback: `on_layer` is
    /// invoked with each [`LayerReport`] as the serial merge pass
    /// finishes it, in execution order. The serving daemon streams these
    /// to clients while the run is still in flight; the final
    /// [`NetworkReport`] contains the same reports in the same order.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] on compile failure or an empty selection.
    pub fn run_network_streamed(
        &self,
        net: &Network,
        policy: Policy,
        mut on_layer: impl FnMut(&LayerReport),
    ) -> Result<NetworkReport, RunError> {
        let machine = Machine::with_options(self.cfg, self.opts.machine);
        let selected: Vec<&Layer> = match self.opts.workload {
            Workload::Conv1Only => net.conv_layers().take(1).collect(),
            w => net.layers().iter().filter(|l| w.selects(l)).collect(),
        };
        if selected.is_empty() {
            return Err(RunError::EmptyWorkload {
                network: net.name().to_owned(),
            });
        }

        // Phase 1+2: deterministic accounting, then compile the unique
        // misses (in parallel when opts.jobs > 1).
        let planned = self.plan_and_compile(&selected, policy)?;

        // Phase 3: serial merge in layer order. Every compile is a cache
        // fetch now, so this pass is cheap and its output — including the
        // layout-transform chain, which threads state layer to layer — is
        // identical however phase 2 was scheduled.
        let mut layers = Vec::with_capacity(selected.len());
        let mut totals = Stats::new();
        // Layout of the tensor currently in memory: the raw image arrives in
        // whatever order the first layer wants (free choice at load time).
        let mut current_layout: Option<DataLayout> = None;

        for (layer, entry) in selected.into_iter().zip(planned.entries) {
            let mut transform_cycles = 0;
            if let Some(prev) = current_layout {
                let needs_transform = !self.opts.layout_planning
                    && prev != entry.compiled.wants_input_layout
                    && matches!(layer.kind, LayerKind::Conv(_));
                if needs_transform {
                    let t = machine.run(&layout_transform_program(layer.input));
                    transform_cycles = t.cycles;
                    totals += t;
                }
            }
            let stats = entry.stats;
            totals += stats;
            current_layout = Some(if self.opts.layout_planning {
                // Algorithm 2 lines 4-5: the output is stored in whatever
                // order the consumer will want, so it always matches.
                entry.compiled.wants_input_layout
            } else {
                entry.compiled.output_layout
            });
            layers.push(LayerReport {
                name: layer.name.clone(),
                scheme: entry.compiled.scheme,
                stats,
                ideal_cycles: ideal_cycles(layer, &self.cfg)? * self.opts.batch as u64,
                layout_transform_cycles: transform_cycles,
            });
            on_layer(layers.last().expect("just pushed"));
        }

        let energy = self.opts.energy.evaluate(&totals);
        Ok(NetworkReport {
            network: net.name().to_owned(),
            batch: self.opts.batch,
            policy,
            config: self.cfg,
            layers,
            totals,
            energy,
            cache_hits: planned.hits,
            cache_misses: planned.misses,
        })
    }

    /// Runs all five paper arms on a network, in Fig. 8 order.
    ///
    /// # Errors
    ///
    /// Returns the first failing arm's [`RunError`].
    pub fn run_paper_arms(&self, net: &Network) -> Result<Vec<NetworkReport>, RunError> {
        Policy::PAPER_ARMS
            .iter()
            .map(|&p| self.run_network(net, p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain_model::zoo;

    fn runner() -> Runner {
        Runner::new(AcceleratorConfig::paper_16_16())
    }

    fn conv1_runner() -> Runner {
        Runner::with_options(
            AcceleratorConfig::paper_16_16(),
            RunOptions {
                workload: Workload::Conv1Only,
                ..RunOptions::default()
            },
        )
    }

    #[test]
    fn conv1_partition_beats_inter_and_intra() {
        // Fig. 7's ordering: partition <= intra < inter on conv1.
        let net = zoo::alexnet();
        let r = conv1_runner();
        let inter = r.run_network(&net, Policy::Fixed(Scheme::Inter)).unwrap();
        let intra = r.run_network(&net, Policy::Fixed(Scheme::Intra)).unwrap();
        let part = r
            .run_network(&net, Policy::Fixed(Scheme::Partition))
            .unwrap();
        assert!(part.cycles() < intra.cycles());
        assert!(intra.cycles() < inter.cycles());
        // Partition approaches the ideal bound.
        let ratio = part.cycles() as f64 / part.ideal_cycles() as f64;
        assert!(ratio < 1.5, "ratio={ratio}");
    }

    #[test]
    fn adaptive_beats_every_fixed_scheme_on_alexnet() {
        let net = zoo::alexnet();
        let r = runner();
        let reports = r.run_paper_arms(&net).unwrap();
        let adpa2 = reports[4].cycles();
        for fixed in &reports[..3] {
            assert!(
                adpa2 <= fixed.cycles(),
                "adpa-2 {} vs {} {}",
                adpa2,
                fixed.policy,
                fixed.cycles()
            );
        }
    }

    #[test]
    fn adpa_arms_match_in_cycles_but_not_traffic() {
        // Paper: "adpa-1 and adpa-2 are the same on performance, and their
        // difference are in energy".
        let net = zoo::alexnet();
        let reports = runner().run_paper_arms(&net).unwrap();
        let (a1, a2) = (&reports[3], &reports[4]);
        let cycle_ratio = a2.cycles() as f64 / a1.cycles() as f64;
        assert!(
            (0.99..1.01).contains(&cycle_ratio),
            "cycle_ratio={cycle_ratio}"
        );
        assert!(a2.totals.buffer_access_bits() < a1.totals.buffer_access_bits() / 4);
    }

    #[test]
    fn alexnet_adaptive_speedup_in_paper_ballpark() {
        // Paper: adpa outperforms inter by 1.83x on AlexNet; our simulator
        // should land in the same regime (>1.3x).
        let net = zoo::alexnet();
        let reports = runner().run_paper_arms(&net).unwrap();
        let speedup = reports[4].speedup_over(&reports[0]);
        assert!(speedup > 1.3, "speedup={speedup}");
        assert!(speedup < 3.0, "speedup={speedup}");
    }

    #[test]
    fn vgg_speedup_is_marginal() {
        // Paper Sec. 5.2: VGG's uniform 3x3/s1 layers leave little room.
        let net = zoo::vgg16();
        let r = runner();
        let inter = r.run_network(&net, Policy::PAPER_ARMS[0]).unwrap();
        let adpa = r.run_network(&net, Policy::PAPER_ARMS[4]).unwrap();
        let speedup = adpa.speedup_over(&inter);
        assert!(speedup < 1.3, "speedup={speedup}");
        assert!(speedup >= 0.99, "speedup={speedup}");
    }

    #[test]
    fn workload_filters() {
        let net = zoo::alexnet();
        let conv_only = Runner::with_options(
            AcceleratorConfig::paper_16_16(),
            RunOptions {
                workload: Workload::ConvLayers,
                ..RunOptions::default()
            },
        );
        let full = Runner::with_options(
            AcceleratorConfig::paper_16_16(),
            RunOptions {
                workload: Workload::FullNetwork,
                ..RunOptions::default()
            },
        );
        let a = conv_only.run_network(&net, Policy::PAPER_ARMS[0]).unwrap();
        let b = full.run_network(&net, Policy::PAPER_ARMS[0]).unwrap();
        assert_eq!(a.layers.len(), 5);
        assert_eq!(b.layers.len(), net.layers().len());
        assert!(b.cycles() > a.cycles());
    }

    #[test]
    fn layout_planning_ablation_adds_transforms() {
        // Alternate schemes (adaptive on AlexNet: partition then inter)
        // force transforms when planning is off.
        let net = zoo::alexnet();
        let planned = runner().run_network(&net, Policy::PAPER_ARMS[3]).unwrap();
        let unplanned = Runner::with_options(
            AcceleratorConfig::paper_16_16(),
            RunOptions {
                layout_planning: false,
                ..RunOptions::default()
            },
        )
        .run_network(&net, Policy::PAPER_ARMS[3])
        .unwrap();
        assert!(unplanned.cycles() > planned.cycles());
        let transforms: u64 = unplanned
            .layers
            .iter()
            .map(|l| l.layout_transform_cycles)
            .sum();
        assert!(transforms > 0);
        let planned_transforms: u64 = planned
            .layers
            .iter()
            .map(|l| l.layout_transform_cycles)
            .sum();
        assert_eq!(planned_transforms, 0);
    }

    #[test]
    fn report_totals_are_layer_sums() {
        let net = zoo::alexnet();
        let report = runner().run_network(&net, Policy::PAPER_ARMS[0]).unwrap();
        let sum: u64 = report.layers.iter().map(|l| l.stats.cycles).sum();
        assert_eq!(report.cycles(), sum);
        assert!(report.ms() > 0.0);
    }

    #[test]
    fn layout_transforms_count_in_totals_not_in_layer_stats() {
        let report = Runner::with_options(
            AcceleratorConfig::paper_16_16(),
            RunOptions {
                layout_planning: false,
                ..RunOptions::default()
            },
        )
        .run_network(&zoo::alexnet(), Policy::PAPER_ARMS[3])
        .unwrap();
        let transforms: u64 = report
            .layers
            .iter()
            .map(|l| l.layout_transform_cycles)
            .sum();
        assert!(transforms > 0);
        let sum: u64 = report
            .layers
            .iter()
            .map(|l| l.stats.cycles + l.layout_transform_cycles)
            .sum();
        assert_eq!(report.cycles(), sum);
    }

    #[test]
    fn oracle_never_loses_to_any_fixed_scheme() {
        let r = runner();
        for net in zoo::all() {
            let oracle = r.run_network(&net, Policy::Oracle).unwrap();
            for scheme in Scheme::ALL {
                let fixed = r.run_network(&net, Policy::Fixed(scheme)).unwrap();
                assert!(
                    oracle.cycles() <= fixed.cycles(),
                    "{}: oracle {} vs {scheme} {}",
                    net.name(),
                    oracle.cycles(),
                    fixed.cycles()
                );
            }
        }
    }

    #[test]
    fn algorithm_2_is_near_oracle() {
        // The paper's heuristic should capture nearly all of the win an
        // exhaustive per-layer search can find.
        let r = runner();
        for net in zoo::all() {
            let oracle = r.run_network(&net, Policy::Oracle).unwrap();
            let adpa2 = r
                .run_network(
                    &net,
                    Policy::Adaptive {
                        improved_inter: true,
                    },
                )
                .unwrap();
            let gap = adpa2.cycles() as f64 / oracle.cycles() as f64;
            assert!(gap < 1.10, "{}: gap {gap}", net.name());
        }
    }

    #[test]
    fn batching_amortizes_fc_weight_streams() {
        use cbrain_model::zoo;
        let net = zoo::alexnet();
        let mk = |batch| {
            Runner::with_options(
                AcceleratorConfig::paper_16_16(),
                RunOptions {
                    workload: Workload::FullNetwork,
                    batch,
                    ..RunOptions::default()
                },
            )
        };
        let one = mk(1).run_network(&net, Policy::PAPER_ARMS[4]).unwrap();
        let eight = mk(8).run_network(&net, Policy::PAPER_ARMS[4]).unwrap();
        // FC layers dominate AlexNet's DRAM traffic at batch 1; batching
        // divides that stream, so per-image traffic and cycles both drop.
        assert!(eight.dram_bytes_per_image() < 0.4 * one.dram_bytes_per_image());
        assert!(eight.cycles_per_image() < one.cycles_per_image());
        // Compute (MACs) still scales exactly with the batch.
        assert_eq!(eight.totals.mac_ops, 8 * one.totals.mac_ops);
    }

    #[test]
    fn conv_only_batching_is_nearly_linear() {
        use cbrain_model::zoo;
        let net = zoo::vgg16();
        let mk = |batch| {
            Runner::with_options(
                AcceleratorConfig::paper_16_16(),
                RunOptions {
                    batch,
                    ..RunOptions::default()
                },
            )
        };
        let one = mk(1).run_network(&net, Policy::PAPER_ARMS[0]).unwrap();
        let four = mk(4).run_network(&net, Policy::PAPER_ARMS[0]).unwrap();
        let ratio = four.cycles() as f64 / one.cycles() as f64;
        assert!((3.8..=4.05).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn vgg_scores_cache_hits_even_cold() {
        // VGG16 repeats conv geometries within blocks (conv3_2 == conv3_3
        // etc.), so a fresh runner still reuses compiled layers.
        let report = runner()
            .run_network(&zoo::vgg16(), Policy::PAPER_ARMS[0])
            .unwrap();
        assert!(report.cache_hits > 0, "hits={}", report.cache_hits);
        assert!(report.cache_misses > 0);
        assert!(report.cache_hit_rate() > 0.0);
        assert!(report.cache_hit_rate() < 1.0);
    }

    #[test]
    fn oracle_always_scores_cache_hits() {
        // The Oracle sweep fetches its winner back out of the cache, so
        // every Oracle run on every network reports hits.
        let r = runner();
        for net in zoo::all() {
            let report = r.run_network(&net, Policy::Oracle).unwrap();
            assert!(report.cache_hits > 0, "{}", net.name());
        }
    }

    #[test]
    fn repeat_run_is_all_hits_and_identical() {
        let r = runner();
        let net = zoo::alexnet();
        let first = r.run_network(&net, Policy::PAPER_ARMS[4]).unwrap();
        let second = r.run_network(&net, Policy::PAPER_ARMS[4]).unwrap();
        assert_eq!(second.cache_misses, 0);
        assert_eq!(second.cache_hits, first.cache_hits + first.cache_misses);
        assert_eq!(second.cycles(), first.cycles());
        assert_eq!(second.totals, first.totals);
    }

    #[test]
    fn shared_cache_crosses_runners() {
        let cache = crate::cache::CompiledLayerCache::shared();
        let net = zoo::alexnet();
        let a = Runner::new(AcceleratorConfig::paper_16_16()).with_cache(Arc::clone(&cache));
        let b = Runner::new(AcceleratorConfig::paper_16_16()).with_cache(Arc::clone(&cache));
        let first = a.run_network(&net, Policy::PAPER_ARMS[0]).unwrap();
        let second = b.run_network(&net, Policy::PAPER_ARMS[0]).unwrap();
        assert!(first.cache_misses > 0);
        assert_eq!(second.cache_misses, 0);
        assert_eq!(second.cycles(), first.cycles());
        assert!(cache.hits() >= second.cache_hits);
    }

    #[test]
    fn parallel_run_is_identical_to_serial() {
        // The tentpole guarantee: jobs only changes wall-clock, never a
        // single field of the report — including the cache counters.
        let mk = |jobs| {
            Runner::with_options(
                AcceleratorConfig::paper_16_16(),
                RunOptions {
                    jobs,
                    ..RunOptions::default()
                },
            )
        };
        for net in zoo::all() {
            for policy in [Policy::Oracle, Policy::OraclePruned, Policy::PAPER_ARMS[4]] {
                let serial = mk(1).run_network(&net, policy).unwrap();
                let parallel = mk(4).run_network(&net, policy).unwrap();
                assert_eq!(
                    format!("{serial:?}"),
                    format!("{parallel:?}"),
                    "{}",
                    net.name()
                );
            }
        }
    }

    /// Caches every entry, then empties the cache: a daemon's `evict`
    /// landing between a run's compile and its merge.
    #[derive(Debug)]
    struct EvictingBackend;

    impl CompileBackend for EvictingBackend {
        fn compile_batch(
            &self,
            cache: &CompiledLayerCache,
            worklist: Vec<(LayerKey, Layer)>,
        ) -> Result<(), RunError> {
            for (key, layer) in worklist {
                cache.insert(key, compile_cache_entry(&layer, &key)?);
            }
            cache.evict_lru(0);
            Ok(())
        }
    }

    #[test]
    fn eviction_between_compile_and_merge_leaves_the_report_unchanged() {
        let net = zoo::googlenet();
        for policy in [Policy::PAPER_ARMS[4], Policy::Oracle, Policy::OraclePruned] {
            let plain = runner().run_network(&net, policy).unwrap();
            let evicted = runner()
                .with_compile_backend(Arc::new(EvictingBackend))
                .run_network(&net, policy)
                .unwrap();
            // Only the hit/miss counters may differ: an evicted key that
            // the run probes again misses again.
            assert_eq!(
                format!("{:?}", plain.layers),
                format!("{:?}", evicted.layers),
                "{policy}"
            );
            assert_eq!(plain.totals, evicted.totals, "{policy}");
        }
    }

    #[test]
    fn lru_recency_follows_layer_order_after_a_run() {
        let r = runner();
        let (cfg, opts) = (*r.config(), *r.options());
        let googlenet = zoo::googlenet();
        let alexnet = zoo::alexnet();
        let runs = [
            (&googlenet, r.run_network(&googlenet, Policy::PAPER_ARMS[4])),
            (&alexnet, r.run_network(&alexnet, Policy::Oracle)),
        ];
        // Every key the runs visited, in visit order: the report's scheme
        // for one layer, or all of `Scheme::ALL` for an Oracle conv layer.
        let mut visits = Vec::new();
        for (net, report) in &runs {
            let report = report.as_ref().unwrap();
            for lr in &report.layers {
                let layer = net.layer(&lr.name).unwrap();
                let schemes = if report.policy == Policy::Oracle && layer.as_conv().is_some() {
                    Scheme::ALL.to_vec()
                } else {
                    vec![lr.scheme.unwrap_or(Scheme::Inter)]
                };
                visits.extend(
                    schemes
                        .into_iter()
                        .map(|s| LayerKey::new(layer, s, &cfg, &opts)),
                );
            }
        }
        // Oldest first, each key at its last visit.
        let mut expected: Vec<LayerKey> = Vec::new();
        for key in visits {
            expected.retain(|k| *k != key);
            expected.push(key);
        }
        let cache = r.cache();
        assert_eq!(cache.len(), expected.len());
        for (i, key) in expected.iter().enumerate() {
            assert!(cache.contains(key), "key {i} left early");
            assert_eq!(cache.evict_lru(cache.len() - 1), 1);
            assert!(!cache.contains(key), "key {i} stayed");
        }
        assert!(cache.is_empty());
    }

    #[test]
    fn batch_and_machine_options_split_cache_entries() {
        let net = zoo::alexnet();
        let mk = |batch, overlap_dma| {
            Runner::with_options(
                AcceleratorConfig::paper_16_16(),
                RunOptions {
                    batch,
                    machine: MachineOptions {
                        overlap_dma,
                        ..MachineOptions::default()
                    },
                    ..RunOptions::default()
                },
            )
        };
        let cache = crate::cache::CompiledLayerCache::shared();
        let a = mk(1, true).with_cache(Arc::clone(&cache));
        let b = mk(2, true).with_cache(Arc::clone(&cache));
        let c = mk(1, false).with_cache(Arc::clone(&cache));
        a.run_network(&net, Policy::PAPER_ARMS[0]).unwrap();
        // Different batch and different machine knobs must not reuse the
        // batch-1/overlap entries: both runs recompile everything.
        assert_eq!(
            b.run_network(&net, Policy::PAPER_ARMS[0])
                .unwrap()
                .cache_hits,
            0
        );
        assert_eq!(
            c.run_network(&net, Policy::PAPER_ARMS[0])
                .unwrap()
                .cache_hits,
            0
        );
    }

    #[test]
    fn all_networks_run_all_arms() {
        let r = runner();
        for net in zoo::all() {
            let reports = r.run_paper_arms(&net).unwrap();
            assert_eq!(reports.len(), 5, "{}", net.name());
            for rep in &reports {
                assert!(rep.cycles() > 0, "{} {}", net.name(), rep.policy);
                assert!(rep.energy.total_pj() > 0.0);
            }
        }
    }
}
