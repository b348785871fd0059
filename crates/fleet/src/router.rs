//! The fleet router: a [`CompileBackend`] that scatters compile
//! work-lists over the ring and degrades gracefully when shards die.

use crate::gather::compile_on_shard;
use crate::health::{probe, RetryPolicy, ShardState};
use crate::ring::Ring;
use cbrain::cache::{CompiledLayerCache, LayerKey};
use cbrain::persist::key_hash;
use cbrain::telemetry::{Counter, Histogram, Registry, Span, DURATION_BUCKETS};
use cbrain::{compile_cache_entry, try_parallel_map, CompileBackend, RunError};
use cbrain_model::Layer;
use cbrain_serve::ClientError;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Per-shard router counters, registered in [`Registry::global`] under
/// `router_*_total{shard="ADDR"}` names so any process embedding a
/// router (coordinator tools, tests) can scrape or sample them.
/// Counters record unconditionally — they are failure accounting, not
/// timing, so the `CBRAIN_TELEMETRY` kill switch does not blank them.
#[derive(Debug)]
pub struct ShardMetrics {
    /// Extra transport attempts (`router_retries_total`): one per
    /// retry after the first attempt of a shard request.
    pub retries: Arc<Counter>,
    /// Batches this shard shed with `busy` after the busy-wait budget
    /// (`router_busy_backoffs_total`).
    pub busy_backoffs: Arc<Counter>,
    /// Times this shard was marked down by a failed batch
    /// (`router_downmarks_total`).
    pub downmarks: Arc<Counter>,
    /// Keys destined for this shard that were re-pended to another
    /// shard or to the local pool (`router_reroutes_total`).
    pub reroutes: Arc<Counter>,
}

impl ShardMetrics {
    fn new(addr: &str) -> Self {
        let registry = Registry::global();
        Self {
            retries: registry.counter(
                &format!("router_retries_total{{shard=\"{addr}\"}}"),
                "extra transport attempts per shard",
            ),
            busy_backoffs: registry.counter(
                &format!("router_busy_backoffs_total{{shard=\"{addr}\"}}"),
                "batches shed with busy after the busy-wait budget, per shard",
            ),
            downmarks: registry.counter(
                &format!("router_downmarks_total{{shard=\"{addr}\"}}"),
                "times a failed batch marked the shard down",
            ),
            reroutes: registry.counter(
                &format!("router_reroutes_total{{shard=\"{addr}\"}}"),
                "keys re-pended away from their preferred shard",
            ),
        }
    }
}

/// Routes compile work-lists across a fleet of `cbrand` shards.
///
/// Install it on a *local* [`cbrain::Runner`] via
/// [`cbrain::Runner::with_compile_backend`]: the runner's serial
/// accounting and merge passes are untouched, so the resulting
/// [`cbrain::NetworkReport`] is byte-identical to a single-process run —
/// the fleet only changes *where* cache misses compile.
///
/// Failure handling, per batch: a shard that cannot be reached (after
/// [`RetryPolicy::attempts`] tries with exponential backoff) is marked
/// down and its keys reroute to the next shard in their rendezvous
/// preference order; keys with no live shard left compile locally. A
/// shard that *answers* with a compile error fails the run — the
/// compile is a pure function, so every peer would fail identically.
///
/// A shard that answers `busy` is healthy, just shedding: its keys are
/// retried after the daemon's hint for up to [`RetryPolicy::busy_wait`],
/// then rerouted to the next preference for the rest of *this* batch
/// only — the shard is never marked down and stays first in line for
/// the next batch.
#[derive(Debug)]
pub struct FleetRouter {
    ring: Ring,
    shards: Vec<ShardState>,
    retry: RetryPolicy,
    local_jobs: usize,
    /// Per-shard counters, parallel to `shards` (ring order).
    metrics: Vec<ShardMetrics>,
    /// Wall-clock seconds per scatter round (`router_scatter_seconds`).
    scatter_seconds: Arc<Histogram>,
}

impl FleetRouter {
    /// A router over `addrs` with the default [`RetryPolicy`] and
    /// single-threaded local fallback.
    pub fn new(addrs: Vec<String>, seed: u64) -> Self {
        Self::with_policy(addrs, seed, RetryPolicy::default(), 1)
    }

    /// A router with explicit deadlines/retry parameters and
    /// `local_jobs` pool workers for locally-recomputed keys.
    ///
    /// # Panics
    ///
    /// Panics on an empty address list.
    pub fn with_policy(
        addrs: Vec<String>,
        seed: u64,
        retry: RetryPolicy,
        local_jobs: usize,
    ) -> Self {
        let ring = Ring::new(addrs.clone(), seed);
        let metrics = addrs.iter().map(|a| ShardMetrics::new(a)).collect();
        let shards = addrs.into_iter().map(ShardState::new).collect();
        let scatter_seconds = Registry::global().histogram(
            "router_scatter_seconds",
            "wall-clock seconds per scatter round over the fleet",
            &DURATION_BUCKETS,
        );
        Self {
            ring,
            shards,
            retry,
            local_jobs,
            metrics,
            scatter_seconds,
        }
    }

    /// The router's ring (for layout inspection).
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Per-shard health states, in ring order.
    pub fn shard_states(&self) -> &[ShardState] {
        &self.shards
    }

    /// Per-shard counters, in ring order (parallel to
    /// [`Self::shard_states`]). The same counters are registered in
    /// [`Registry::global`], so a scrape sees them too.
    pub fn shard_metrics(&self) -> &[ShardMetrics] {
        &self.metrics
    }

    /// Probes every shard (`hello` + `stats` ping), updating the health
    /// flags, and returns each shard's outcome: its cached-entry count,
    /// or the failure that marked it down. A `busy` answer is proof of
    /// life — the shard is marked *up* even though the probe's stats
    /// question went unanswered.
    pub fn probe_shards(&self) -> Vec<(String, Result<u64, ClientError>)> {
        self.shards
            .iter()
            .map(|shard| {
                let outcome = probe(&shard.addr, &self.retry);
                let alive = outcome.is_ok() || matches!(outcome, Err(ClientError::Busy { .. }));
                if alive {
                    shard.mark_up();
                } else {
                    shard.mark_down();
                }
                (shard.addr.clone(), outcome)
            })
            .collect()
    }

    /// The first shard in a key's rendezvous preference order that is
    /// neither down nor (for this batch) busy.
    fn first_live_shard(&self, busy: &HashSet<usize>, key: &LayerKey) -> Option<usize> {
        self.ring
            .preference(key_hash(key))
            .into_iter()
            .find(|&i| !self.shards[i].is_down() && !busy.contains(&i))
    }
}

impl CompileBackend for FleetRouter {
    fn compile_batch(
        &self,
        cache: &CompiledLayerCache,
        worklist: Vec<(LayerKey, Layer)>,
    ) -> Result<(), RunError> {
        // Drop already-cached and duplicate keys (first occurrence wins;
        // entries are pure functions of the key, so any copy is right).
        let mut seen: HashSet<LayerKey> = HashSet::new();
        let mut pending: Vec<(LayerKey, Layer)> = worklist
            .into_iter()
            .filter(|(key, _)| !cache.contains(key) && seen.insert(*key))
            .collect();

        // Shards that shed this batch with `busy` (already waited on up
        // to the policy's busy budget). Skipped for the rest of the
        // batch, but never marked down — the next batch tries them
        // first again.
        let mut busy: HashSet<usize> = HashSet::new();

        // Each round either finishes or grows the set of excluded
        // shards (down ∪ busy) by at least one, so `shards + 1` rounds
        // always suffice (the last one finds no eligible shard and
        // compiles everything locally).
        for _round in 0..=self.shards.len() {
            if pending.is_empty() {
                return Ok(());
            }
            let mut local: Vec<(LayerKey, Layer)> = Vec::new();
            let mut groups: BTreeMap<usize, Vec<(LayerKey, Layer)>> = BTreeMap::new();
            for (key, layer) in pending.drain(..) {
                match self.first_live_shard(&busy, &key) {
                    Some(i) => groups.entry(i).or_default().push((key, layer)),
                    None => local.push((key, layer)),
                }
            }

            // Scatter: one thread per shard group, all in flight at once.
            let scatter_span = (!groups.is_empty()).then(|| Span::start(&self.scatter_seconds));
            let results: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .iter()
                    .map(|(&i, group)| {
                        let addr = &self.shards[i].addr;
                        let retry = &self.retry;
                        let batch: Vec<(LayerKey, String)> = group
                            .iter()
                            .map(|(key, layer)| (*key, layer.name.clone()))
                            .collect();
                        scope.spawn(move || compile_on_shard(addr, retry, &batch))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard thread"))
                    .collect()
            });
            drop(scatter_span);

            // Gather: insert what came back, re-pend what did not.
            for ((i, group), result) in groups.into_iter().zip(results) {
                match result {
                    Ok(entries) => {
                        for (key, value) in entries {
                            cache.insert(key, value);
                        }
                    }
                    Err(e) if e.is_busy() => {
                        // Healthy but shedding: reroute without the
                        // down-mark, and stop asking it this batch.
                        self.metrics[i].busy_backoffs.inc();
                        self.metrics[i].reroutes.add(group.len() as u64);
                        busy.insert(i);
                        pending.extend(group);
                    }
                    Err(e) if e.is_retryable() => {
                        self.metrics[i].downmarks.inc();
                        self.metrics[i].reroutes.add(group.len() as u64);
                        self.shards[i].mark_down();
                        pending.extend(group);
                    }
                    Err(e) => return Err(RunError::Backend(e.to_string())),
                }
            }

            // Graceful degradation: orphaned keys compile right here.
            if !local.is_empty() {
                let compiled = try_parallel_map(self.local_jobs, local, |(key, layer)| {
                    compile_cache_entry(&layer, &key).map(|entry| (key, entry))
                })?;
                for (key, entry) in compiled {
                    cache.insert(key, entry);
                }
            }
        }
        if pending.is_empty() {
            Ok(())
        } else {
            // Unreachable by the round-count argument above; refuse to
            // return with keys missing rather than let a caller panic on
            // an absent cache entry.
            Err(RunError::Backend(
                "fleet router could not place every key".into(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain::RunOptions;
    use cbrain_model::zoo;
    use cbrain_sim::AcceleratorConfig;
    use std::time::Duration;

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            attempts: 2,
            backoff: Duration::from_millis(1),
            connect_timeout: Duration::from_millis(200),
            io_timeout: Duration::from_millis(500),
            busy_wait: Duration::from_millis(200),
        }
    }

    #[test]
    fn all_shards_dead_degrades_to_local_compilation() {
        // Ports 1 and 2 on loopback refuse connections, so every key
        // falls back to the local pool — the run must still succeed.
        let router = FleetRouter::with_policy(
            vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            0,
            fast_retry(),
            2,
        );
        let cache = CompiledLayerCache::shared();
        let net = zoo::alexnet();
        let cfg = AcceleratorConfig::paper_16_16();
        let opts = RunOptions::default();
        let worklist: Vec<(LayerKey, Layer)> = net
            .layers()
            .iter()
            .filter(|l| l.as_conv().is_some())
            .map(|l| {
                (
                    LayerKey::new(l, cbrain::Scheme::Inter, &cfg, &opts),
                    l.clone(),
                )
            })
            .collect();
        assert!(!worklist.is_empty());
        let keys: Vec<LayerKey> = worklist.iter().map(|(k, _)| *k).collect();
        router.compile_batch(&cache, worklist).unwrap();
        for key in &keys {
            assert!(cache.contains(key));
        }
        assert!(router.shard_states().iter().all(ShardState::is_down));
    }

    #[test]
    fn probe_marks_unreachable_shards_down() {
        let router = FleetRouter::with_policy(vec!["127.0.0.1:1".into()], 0, fast_retry(), 1);
        let outcomes = router.probe_shards();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].1.is_err());
        assert!(router.shard_states()[0].is_down());
    }
}
