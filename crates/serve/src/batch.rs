//! Cross-connection compile batching.
//!
//! Every client connection runs its network through a [`Runner`] whose
//! compile work-list is routed here. Requests that arrive while a batch
//! is in flight pile their keys into the pending queue; whichever waiter
//! finds no worker running becomes the next worker and drains the
//! *entire* queue through one deterministic [`parallel_map`] fan-out —
//! so N concurrent clients compiling overlapping networks cost one
//! compile per unique [`LayerKey`], not N.
//!
//! Correctness leans on [`compile_cache_entry`] being a pure function of
//! its key: whichever batch a key lands in, the inserted entry is
//! identical, and the runner's serial accounting pass (which already ran
//! before the work-list was handed over) is unaffected.

use cbrain::telemetry::{Histogram, Registry, Span, DURATION_BUCKETS, SIZE_BUCKETS};
use cbrain::{
    compile_cache_entry, parallel_map, CompileBackend, CompiledLayerCache, LayerKey, RunError,
};
use cbrain_model::Layer;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};

#[derive(Debug, Default)]
struct BatchState {
    /// Work not yet picked up by a worker.
    pending: Vec<(LayerKey, Layer)>,
    /// Keys in `pending` (dedup across connections).
    queued: HashSet<LayerKey>,
    /// Keys the current worker is compiling.
    inflight: HashSet<LayerKey>,
    /// Whether some thread is currently draining a batch.
    worker_running: bool,
    /// Keys whose compile failed, with the error message. Kept so other
    /// waiters on the same key fail fast instead of waiting forever.
    failed: HashMap<LayerKey, String>,
}

/// A [`CompileBackend`] that merges work-lists from concurrent
/// connections into shared, deduplicated pool batches.
#[derive(Debug)]
pub struct CompileBatcher {
    jobs: usize,
    state: Mutex<BatchState>,
    cv: Condvar,
    /// Batch-size distribution (`compile_batch_size`), when a registry
    /// was wired in. Recorded unconditionally (`observe_always`): batch
    /// shape is structural accounting, not timing, so the
    /// `CBRAIN_TELEMETRY` kill switch does not blank it.
    batch_size: Option<Arc<Histogram>>,
    /// Per-batch fan-out duration (`compile_batch_seconds`), when a
    /// registry was wired in. Timing, so the kill switch gates it.
    batch_seconds: Option<Arc<Histogram>>,
}

impl CompileBatcher {
    /// A batcher fanning each batch over `jobs` pool workers (`0` means
    /// one worker). No metrics are recorded; use [`Self::with_registry`]
    /// to instrument.
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            state: Mutex::new(BatchState::default()),
            cv: Condvar::new(),
            batch_size: None,
            batch_seconds: None,
        }
    }

    /// Like [`Self::new`], but registers `compile_batch_size` and
    /// `compile_batch_seconds` histograms in `registry` and records one
    /// observation per drained batch.
    pub fn with_registry(jobs: usize, registry: &Registry) -> Self {
        let mut batcher = Self::new(jobs);
        batcher.batch_size = Some(registry.histogram(
            "compile_batch_size",
            "unique layers compiled per pool batch",
            &SIZE_BUCKETS,
        ));
        batcher.batch_seconds = Some(registry.histogram(
            "compile_batch_seconds",
            "wall-clock seconds per compile batch fan-out",
            &DURATION_BUCKETS,
        ));
        batcher
    }

    /// Number of batches a single compile may wait through before the
    /// batcher declares the queue wedged (defensive; never hit in
    /// practice because every batch makes progress).
    const MAX_WAIT_ROUNDS: u32 = 10_000;
}

impl CompileBackend for CompileBatcher {
    fn compile_batch(
        &self,
        cache: &CompiledLayerCache,
        worklist: Vec<(LayerKey, Layer)>,
    ) -> Result<(), RunError> {
        let my_keys: Vec<LayerKey> = worklist.iter().map(|(k, _)| *k).collect();
        {
            let mut st = self.state.lock().expect("batcher lock");
            for (key, layer) in worklist {
                if cache.contains(&key)
                    || st.queued.contains(&key)
                    || st.inflight.contains(&key)
                    || st.failed.contains_key(&key)
                {
                    continue;
                }
                st.queued.insert(key);
                st.pending.push((key, layer));
            }
        }

        let mut rounds = 0u32;
        loop {
            let mut st = self.state.lock().expect("batcher lock");
            // Resolved? (Failures surface the stored message.) A key
            // counts once it is cached or has left the queue: the daemon
            // answers `evict` while batches run, so a compiled key can be
            // gone again already, and the runner compiles such a key
            // itself. Waiting for it to reappear would spin forever.
            if let Some(msg) = my_keys.iter().find_map(|k| st.failed.get(k)) {
                return Err(RunError::Backend(msg.clone()));
            }
            let waiting = |k: &LayerKey| st.queued.contains(k) || st.inflight.contains(k);
            if my_keys.iter().all(|k| cache.contains(k) || !waiting(k)) {
                return Ok(());
            }
            if st.worker_running {
                // Someone else is compiling; wait for their batch to land.
                let _guard = self.cv.wait(st).expect("batcher lock");
                rounds += 1;
                if rounds > Self::MAX_WAIT_ROUNDS {
                    return Err(RunError::Backend("compile batcher made no progress".into()));
                }
                continue;
            }
            // Become the worker: drain the whole pending queue (ours and
            // everyone else's) in one deterministic fan-out.
            let batch: Vec<(LayerKey, Layer)> = std::mem::take(&mut st.pending);
            st.queued.clear();
            for (key, _) in &batch {
                st.inflight.insert(*key);
            }
            st.worker_running = true;
            drop(st);

            if let Some(h) = &self.batch_size {
                h.observe_always(batch.len() as f64);
            }
            let _span = self.batch_seconds.as_ref().map(Span::start);
            let results = parallel_map(self.jobs, batch, |(key, layer)| {
                (key, compile_cache_entry(&layer, &key))
            });
            drop(_span);

            let mut st = self.state.lock().expect("batcher lock");
            for (key, result) in results {
                st.inflight.remove(&key);
                match result {
                    Ok(entry) => {
                        cache.insert(key, entry);
                    }
                    Err(e) => {
                        st.failed.insert(key, e.to_string());
                    }
                }
            }
            st.worker_running = false;
            drop(st);
            self.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain::{Policy, RunOptions, Runner};
    use cbrain_model::zoo;
    use cbrain_sim::{AcceleratorConfig, PeConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn batched_runner_matches_direct_runner() {
        let net = zoo::alexnet();
        let direct = Runner::new(AcceleratorConfig::paper_16_16())
            .run_network(&net, Policy::Oracle)
            .unwrap();
        let cache = CompiledLayerCache::shared();
        let batched = Runner::new(AcceleratorConfig::paper_16_16())
            .with_cache(Arc::clone(&cache))
            .with_compile_backend(Arc::new(CompileBatcher::new(2)))
            .run_network(&net, Policy::Oracle)
            .unwrap();
        assert_eq!(format!("{direct:?}"), format!("{batched:?}"));
    }

    #[test]
    fn batched_runs_finish_while_the_cache_is_emptied() {
        let cache = CompiledLayerCache::shared();
        let batcher = Arc::new(CompileBatcher::new(1));
        let stop = Arc::new(AtomicBool::new(false));
        // What a stream of `evict 0` requests does to a daemon's cache
        // while its workers compile.
        let evictor = {
            let (cache, stop) = (Arc::clone(&cache), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    cache.evict_lru(0);
                    std::thread::yield_now();
                }
            })
        };
        let (done, finished) = mpsc::channel();
        let runs = std::thread::spawn(move || {
            let net = zoo::alexnet();
            for tin in 4..12 {
                let cfg = AcceleratorConfig::with_pe(PeConfig::new(tin, 8));
                let plain = Runner::new(cfg).run_network(&net, Policy::Oracle).unwrap();
                let batched = Runner::new(cfg)
                    .with_cache(Arc::clone(&cache))
                    .with_compile_backend(batcher.clone())
                    .run_network(&net, Policy::Oracle)
                    .unwrap();
                assert_eq!(
                    format!("{:?}", plain.layers),
                    format!("{:?}", batched.layers)
                );
                assert_eq!(plain.totals, batched.totals);
            }
            done.send(()).expect("the test waits for the runs");
        });
        // A stalled run cannot be joined; fail instead of hanging.
        let outcome = finished.recv_timeout(Duration::from_secs(60));
        stop.store(true, Ordering::Relaxed);
        assert_ne!(
            outcome,
            Err(RecvTimeoutError::Timeout),
            "a batched run stalled while the cache was emptied"
        );
        runs.join().expect("runs thread");
        evictor.join().expect("evictor thread");
    }

    #[test]
    fn concurrent_batched_runs_share_one_cache() {
        let cache = CompiledLayerCache::shared();
        let batcher: Arc<CompileBatcher> = Arc::new(CompileBatcher::new(2));
        let nets = [zoo::alexnet(), zoo::nin(), zoo::alexnet()];
        std::thread::scope(|scope| {
            for net in &nets {
                let cache = Arc::clone(&cache);
                let batcher = Arc::clone(&batcher);
                scope.spawn(move || {
                    let runner = Runner::with_options(
                        AcceleratorConfig::paper_16_16(),
                        RunOptions::default(),
                    )
                    .with_cache(cache)
                    .with_compile_backend(batcher);
                    runner.run_network(net, Policy::PAPER_ARMS[4]).unwrap();
                });
            }
        });
        // Every key landed; a fresh serial run over the same cache is
        // answered without a single compile.
        let verify = Runner::new(AcceleratorConfig::paper_16_16()).with_cache(Arc::clone(&cache));
        let report = verify
            .run_network(&zoo::alexnet(), Policy::PAPER_ARMS[4])
            .unwrap();
        assert_eq!(report.cache_misses, 0);
    }
}
