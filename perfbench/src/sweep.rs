//! `sweep`: the design-space loop behind `cbrain run` and `exp_*`. One
//! op evaluates one design point (PE array shape and batch) on a fresh
//! `Runner`: all six zoo networks under oracle-pruned, then adpa-2, so
//! every unique layer key is compiled and simulated. It is the only
//! workload where the compiler, the simulator and cache inserts do most
//! of the work, and because one op covers a whole design point the
//! latency tail does not fall between a cheap and a costly network.

use crate::digest::{self, Digest};
use crate::measure::{Metric, Outcome};
use crate::trace::{self, Tracer};
use cbrain::cache::{CachedLayer, CompiledLayerCache, LayerKey};
use cbrain::compiler::compile_layer_batched;
use cbrain::model::{zoo, Layer, LayerKind, Network};
use cbrain::sim::{AcceleratorConfig, Machine, PeConfig};
use cbrain::{CompileBackend, Policy, RunError, RunOptions, Runner};
use std::sync::{Arc, Mutex};

/// PE array shapes `(Tin, Tout)` of the design-point menu.
const PES: [(usize, usize); 3] = [(8, 8), (16, 16), (32, 32)];
/// Batch sizes of the design-point menu.
const BATCHES: [usize; 3] = [1, 2, 4];
/// Times each design point appears in the op list. The set-up pass
/// checks that its evaluations on fresh runners agree; thirty rounds
/// make that pass about a second of work, so that `setup_s` is not
/// decided by a moment of host slowness.
const ROUNDS: usize = 30;
/// oracle-pruned first, so adpa-2 reuses what the search compiled.
const POLICIES: [Policy; 2] = [
    Policy::OraclePruned,
    Policy::Adaptive {
        improved_inter: true,
    },
];
/// The compile-key kinds per-key compile time is broken down by.
const KEY_KINDS: [&str; 6] = [
    "inter",
    "inter-improved",
    "intra",
    "partition",
    "pool",
    "eltwise",
];

fn menu() -> Vec<((usize, usize), usize)> {
    PES.iter()
        .flat_map(|&pe| BATCHES.iter().map(move |&b| (pe, b)))
        .collect()
}

fn point_key(((tin, tout), batch): ((usize, usize), usize)) -> String {
    format!("sweep/pe{tin}x{tout}/b{batch}")
}

/// What evaluating one design point produced.
#[derive(Default)]
struct Eval {
    digest: u64,
    macs: u64,
    hits: u64,
    lookups: u64,
    inserts: u64,
    cycles: u64,
}

/// Times each compile and simulate call of a run, as the runner's
/// default in-process path would make them (see
/// `cbrain::compile_cache_entry`).
#[derive(Debug)]
struct TracingBackend {
    tracer: Arc<Tracer>,
    /// Network of the run in progress, for the span attributes.
    net: Mutex<String>,
}

fn key_kind(layer: &Layer, key: &LayerKey) -> String {
    match layer.kind {
        LayerKind::Conv(_) => key.scheme.to_string(),
        LayerKind::Pool(_) => "pool".into(),
        LayerKind::Eltwise(_) => "eltwise".into(),
        LayerKind::FullyConnected(_) => "fc".into(),
    }
}

impl CompileBackend for TracingBackend {
    fn compile_batch(
        &self,
        cache: &CompiledLayerCache,
        worklist: Vec<(LayerKey, Layer)>,
    ) -> Result<(), RunError> {
        let net = self.net.lock().expect("a traced run panicked").clone();
        for (key, layer) in worklist {
            let attrs = format!(
                "\"net\":\"{net}\",\"layer\":\"{}\",\"scheme\":\"{}\"",
                layer.name,
                key_kind(&layer, &key)
            );
            let id = self.tracer.begin("compile", attrs.clone());
            let compiled = compile_layer_batched(&layer, key.scheme, &key.cfg, key.batch);
            self.tracer.end(id, 1);
            let compiled = compiled?;
            let id = self.tracer.begin("simulate", attrs);
            let stats = Machine::with_options(key.cfg, key.machine).run(&compiled.program);
            self.tracer.end(id, compiled.program.op_count() as u64);
            cache.insert(key, CachedLayer { compiled, stats });
        }
        Ok(())
    }
}

fn evaluate(
    nets: &[Network],
    ((tin, tout), batch): ((usize, usize), usize),
    tracer: Option<&Arc<Tracer>>,
) -> Result<Eval, RunError> {
    let cfg = AcceleratorConfig::with_pe(PeConfig::new(tin, tout));
    let opts = RunOptions {
        batch,
        ..RunOptions::default()
    };
    let mut runner = Runner::with_options(cfg, opts);
    let backend = tracer.map(|t| {
        Arc::new(TracingBackend {
            tracer: Arc::clone(t),
            net: Mutex::new(String::new()),
        })
    });
    if let Some(b) = &backend {
        runner = runner.with_compile_backend(Arc::clone(b) as Arc<dyn CompileBackend>);
    }
    let mut digest = Digest::default();
    let mut eval = Eval::default();
    for policy in POLICIES {
        for net in nets {
            let report = match &backend {
                Some(b) => {
                    net.name()
                        .clone_into(&mut b.net.lock().expect("a traced run panicked"));
                    let attrs = format!("\"net\":\"{}\",\"policy\":\"{policy}\"", net.name());
                    b.tracer
                        .time("run_network", attrs, || runner.run_network(net, policy))?
                }
                None => runner.run_network(net, policy)?,
            };
            digest.report(&report);
            eval.macs += report.totals.mac_ops;
            eval.hits += report.cache_hits;
            eval.lookups += report.cache_hits + report.cache_misses;
            eval.cycles += report.totals.cycles;
        }
    }
    eval.digest = digest.finish();
    eval.inserts = runner.cache().len() as u64;
    Ok(eval)
}

pub struct Sweep {
    nets: Vec<Network>,
    menu: Vec<((usize, usize), usize)>,
    /// Menu indices in the seed's order; ops cycle through it.
    order: Vec<usize>,
    /// Digest of each menu point from the setup pass.
    expected: Vec<u64>,
    /// Exact counts summed over the setup pass (`ROUNDS` ops per menu
    /// point): cache hits, cache lookups, inserts, simulated cycles.
    counts: [u64; 4],
}

impl Sweep {
    /// Draws the op order from `seed` and evaluates it once: the digests
    /// every timed op is checked against. Returns the failed checks.
    pub fn setup(seed: u64) -> Result<(Self, Vec<Outcome>), String> {
        let nets = zoo::all();
        let menu = menu();
        let mut order: Vec<usize> = (0..menu.len() * ROUNDS).map(|i| i % menu.len()).collect();
        crate::shuffle(&mut order, seed);
        let mut expected = vec![0; menu.len()];
        let mut counts = [0; 4];
        let mut problems = Vec::new();
        for &i in &order {
            let eval = evaluate(&nets, menu[i], None).map_err(|e| e.to_string())?;
            if let Err(e) = digest::check_stored(&point_key(menu[i]), eval.digest) {
                problems.push(Outcome::wrong(e));
            }
            if expected[i] != 0 && expected[i] != eval.digest {
                problems.push(Outcome::wrong(format!(
                    "{}: two evaluations disagree",
                    point_key(menu[i])
                )));
            }
            expected[i] = eval.digest;
            for (c, v) in
                counts
                    .iter_mut()
                    .zip([eval.hits, eval.lookups, eval.inserts, eval.cycles])
            {
                *c += v;
            }
        }
        let sweep = Self {
            nets,
            menu,
            order,
            expected,
            counts,
        };
        Ok((sweep, problems))
    }

    pub fn op(&self, n: u64, tracer: Option<&Arc<Tracer>>) -> Outcome {
        let i = self.order[n as usize % self.order.len()];
        match evaluate(&self.nets, self.menu[i], tracer) {
            Ok(eval) if eval.digest == self.expected[i] => Outcome::pass(eval.macs as f64),
            Ok(eval) => Outcome::wrong(format!(
                "{}: digest {:016x}, setup pass had {:016x}",
                point_key(self.menu[i]),
                eval.digest,
                self.expected[i]
            )),
            Err(e) => Outcome::fail(e.to_string()),
        }
    }

    /// Digest over the whole menu, for the repeatability check.
    pub fn digest(&self) -> u64 {
        let bytes: Vec<u8> = self.expected.iter().flat_map(|d| d.to_le_bytes()).collect();
        cbrain::persist::fnv1a64(&bytes)
    }

    /// Per-layer metrics of `ops` traced ops, per op.
    pub fn layer_metrics(&self, spans: &[trace::Span], ops: u64) -> Vec<Metric> {
        let per_op = |v: f64| v / ops.max(1) as f64;
        let (compile_ns, keys, _) = trace::sum(spans, "compile", "");
        let (sim_ns, macro_ops, _) = trace::sum(spans, "simulate", "");
        let (_, runner_self_ns) = trace::total_and_self_ns(spans, "run_network");
        let points = self.order.len() as f64;
        let [hits, lookups, inserts, cycles] = self.counts.map(|c| c as f64);
        let mut m = vec![
            Metric::new("sweep.compiler.ms", per_op(compile_ns as f64 / 1e6), "ms"),
            Metric::new("sweep.compiler.keys", per_op(keys as f64), "count"),
        ];
        for kind in KEY_KINDS {
            let (ns, _, n) = trace::sum(spans, "compile", &format!("\"scheme\":\"{kind}\""));
            let us = if n == 0 {
                0.0
            } else {
                ns as f64 / n as f64 / 1e3
            };
            m.push(Metric::new(
                format!("sweep.compiler.us_per_key.{kind}"),
                us,
                "us",
            ));
        }
        m.extend([
            Metric::new("sweep.sim.ms", per_op(sim_ns as f64 / 1e6), "ms"),
            Metric::new("sweep.sim.macro_ops", per_op(macro_ops as f64), "count"),
            Metric::new(
                "sweep.sim.ns_per_macro_op",
                sim_ns as f64 / macro_ops.max(1) as f64,
                "ns",
            ),
            Metric::new(
                "sweep.runner.self_ms",
                per_op(runner_self_ns as f64 / 1e6),
                "ms",
            ),
            Metric::new("sweep.cache.hit_ratio", hits / lookups, "ratio"),
            Metric::new("sweep.cache.inserts", inserts / points, "count"),
            Metric::new("sweep.sim.cycles", cycles / points, "count"),
        ]);
        m
    }
}
