//! `infer`: one functional forward pass under adpa-2 per op, on a fixed
//! sequential network (`infer.spec`) whose layers take every branch of
//! Algorithm 2. The functional executors and the SIMD kernels under
//! them are the repository's only heavy host compute, and they do
//! nothing in the other workloads; one fixed network keeps every op the
//! same size.

use crate::measure::{Metric, Outcome};
use crate::trace::{self, Tracer};
use cbrain::adaptive::scheme_for;
use cbrain::forward::{forward, NetworkWeights};
use cbrain::functional::{improved_inter_forward, partition_forward, unrolled_forward};
use cbrain::model::{
    reference, spec, ConvParams, ConvWeights, LayerKind, Network, Tensor3, TensorShape,
};
use cbrain::sim::AcceleratorConfig;
use cbrain::{Policy, Scheme};
use std::collections::HashMap;
use std::sync::Arc;

const SPEC: &str = include_str!("../infer.spec");
/// Distinct input images; ops cycle through them, so every image is
/// seen again and its output must repeat bit for bit. Sixteen make the
/// set-up pass (a reference and an adpa-2 pass per image) about a
/// second of work.
const IMAGES: usize = 16;
/// The tolerance the repository's tests hold the adaptive executors to.
const TOLERANCE: f32 = 1e-3;
const ADPA2: Policy = Policy::Adaptive {
    improved_inter: true,
};

/// The executors the traced replay times, as `(span name, conv scheme)`.
const CONV_EXECUTORS: [(&str, Scheme); 4] = [
    ("functional.partition", Scheme::Partition),
    ("functional.unrolled", Scheme::Intra),
    ("functional.improved_inter", Scheme::InterImproved),
    ("model.conv_reference", Scheme::Inter),
];
const OTHER_EXECUTORS: [&str; 3] = ["model.pool", "model.eltwise", "model.fc"];

fn network() -> Network {
    spec::parse(SPEC).expect("infer.spec is a valid network")
}

/// NaN is never within tolerance.
fn within_tolerance(err: f32) -> bool {
    err < TOLERANCE
}

fn max_abs_err(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Weights of one layer, made by the recipe `NetworkWeights::random`
/// uses, so the replay computes what `forward` computed (the traced run
/// checks that it does, bit for bit).
enum LayerWeights {
    Conv(ConvWeights, Vec<f32>),
    Fc(Vec<f32>, Vec<f32>),
}

fn replay_weights(net: &Network, seed: u64) -> HashMap<String, LayerWeights> {
    let mut out = HashMap::new();
    for (i, layer) in net.layers().iter().enumerate() {
        let lseed = seed.wrapping_add(i as u64 * 7919);
        match &layer.kind {
            LayerKind::Conv(p) => {
                let fan_in = (p.in_maps_per_group() * p.kernel * p.kernel) as f32;
                let scale = (2.0 / fan_in).sqrt();
                let w = ConvWeights::random(p, lseed);
                let w = ConvWeights::from_fn(p, |o, i, ky, kx| w.at(o, i, ky, kx) * scale * 0.5);
                out.insert(
                    layer.name.clone(),
                    LayerWeights::Conv(w, vec![0.01; p.out_maps]),
                );
            }
            LayerKind::FullyConnected(p) => {
                let scale = (2.0 / p.in_features as f32).sqrt();
                let w = Tensor3::random(TensorShape::new(1, p.out_features, p.in_features), lseed)
                    .into_vec()
                    .into_iter()
                    .map(|v| v * scale * 0.5)
                    .collect();
                out.insert(
                    layer.name.clone(),
                    LayerWeights::Fc(w, vec![0.01; p.out_features]),
                );
            }
            LayerKind::Pool(_) | LayerKind::Eltwise(_) => {}
        }
    }
    out
}

pub struct Infer {
    net: Network,
    weights: NetworkWeights,
    weight_seed: u64,
    cfg: AcceleratorConfig,
    images: Vec<Tensor3>,
    /// `Policy::Fixed(Scheme::Inter)` outputs: the plain reference path.
    reference: Vec<Vec<f32>>,
    /// adpa-2 outputs of the setup pass; repeats must match bit for bit.
    expected: Vec<Vec<f32>>,
    macs: f64,
    /// Filled by the traced replay.
    replay: Option<HashMap<String, LayerWeights>>,
    max_err: f32,
}

impl Infer {
    /// Builds the network, its weights and `IMAGES` seeded inputs,
    /// computes each input's reference output, and runs the untimed
    /// adpa-2 pass whose outputs later ops must repeat.
    pub fn setup(seed: u64) -> Result<(Self, Vec<Outcome>), String> {
        let net = network();
        let weight_seed = seed ^ 0x5eed;
        let weights = NetworkWeights::random(&net, weight_seed);
        let cfg = AcceleratorConfig::paper_16_16();
        let images: Vec<Tensor3> = (0..IMAGES as u64)
            .map(|i| Tensor3::random(net.input(), seed.wrapping_mul(31).wrapping_add(i)))
            .collect();
        let run = |img: &Tensor3, policy| {
            forward(&net, img, &weights, policy, &cfg)
                .map(|r| r.output)
                .map_err(|e| e.to_string())
        };
        let mut reference = Vec::new();
        let mut expected = Vec::new();
        let mut problems = Vec::new();
        for img in &images {
            let truth = run(img, Policy::Fixed(Scheme::Inter))?;
            let out = run(img, ADPA2)?;
            let err = max_abs_err(&out, &truth);
            if !within_tolerance(err) {
                problems.push(Outcome::wrong(format!(
                    "infer: adpa-2 output is {err} from the reference"
                )));
            }
            reference.push(truth);
            expected.push(out);
        }
        let macs = net.total_macs().map_err(|e| e.to_string())? as f64;
        let infer = Self {
            net,
            weights,
            weight_seed,
            cfg,
            images,
            reference,
            expected,
            macs,
            replay: None,
            max_err: 0.0,
        };
        Ok((infer, problems))
    }

    fn check(&self, i: usize, out: &[f32]) -> Outcome {
        let err = max_abs_err(out, &self.reference[i]);
        if out != self.expected[i].as_slice() {
            Outcome::wrong(format!(
                "infer: image {i} output differs from the setup pass"
            ))
        } else if !within_tolerance(err) {
            Outcome::wrong(format!(
                "infer: image {i} output is {err} from the reference"
            ))
        } else {
            Outcome::pass(self.macs)
        }
    }

    pub fn op(&mut self, n: u64, tracer: Option<&Arc<Tracer>>) -> Outcome {
        let i = n as usize % self.images.len();
        let out = match tracer {
            None => forward(&self.net, &self.images[i], &self.weights, ADPA2, &self.cfg),
            Some(t) => t.time("forward", String::new(), || {
                forward(&self.net, &self.images[i], &self.weights, ADPA2, &self.cfg)
            }),
        };
        let out = match out {
            Ok(r) => r.output,
            Err(e) => return Outcome::fail(e.to_string()),
        };
        let verdict = self.check(i, &out);
        if tracer.is_some() && verdict.ok {
            self.max_err = self.max_err.max(max_abs_err(&out, &self.reference[i]));
        }
        verdict
    }

    /// Replays the first `ops` traced ops through the public executors,
    /// after the traced phase so that its op latencies hold only the
    /// spans' cost. Each replay's output is checked like an op's;
    /// returns the failed checks.
    pub fn replay_ops(&self, t: &Tracer, ops: u64) -> Vec<Outcome> {
        let mut failures = Vec::new();
        for n in 0..ops {
            t.set_op(n);
            let i = n as usize % self.images.len();
            let verdict = match self.replay(&self.images[i], ADPA2, t) {
                Ok(replayed) => self.check(i, &replayed),
                Err(e) => Outcome::fail(e),
            };
            if !verdict.ok {
                failures.push(verdict);
            }
        }
        failures
    }

    /// `forward`'s layer loop, rebuilt from the public executors with a
    /// span around each executor call. `prepare_trace` also replays the
    /// reference policy once per image, which is what
    /// `model.conv_reference` measures.
    fn replay(&self, input: &Tensor3, policy: Policy, t: &Tracer) -> Result<Vec<f32>, String> {
        let weights = self.replay.as_ref().ok_or("replay weights not built")?;
        let n_layers = self.net.layers().len();
        let mut act = input.clone();
        let mut flat: Option<Vec<f32>> = None;
        let mut stored: HashMap<&str, Tensor3> = HashMap::new();
        let skips: Vec<&str> = self
            .net
            .layers()
            .iter()
            .filter_map(|l| l.skip.as_deref())
            .collect();
        let err = |e: cbrain::model::ModelError| e.to_string();
        for (i, layer) in self.net.layers().iter().enumerate() {
            let last = i + 1 == n_layers;
            let attrs = format!("\"layer\":\"{}\"", layer.name);
            match (&layer.kind, weights.get(&layer.name)) {
                (LayerKind::Conv(p), Some(LayerWeights::Conv(w, b))) => {
                    let scheme = scheme_for(policy, p, &self.cfg);
                    let name = CONV_EXECUTORS
                        .iter()
                        .find(|(_, s)| *s == scheme)
                        .map(|(n, _)| *n)
                        .expect("every scheme has an executor");
                    let macs = layer.macs().map_err(err)?;
                    let id = t.begin(name, attrs);
                    let out = run_conv(&act, w, b, p, scheme);
                    t.end(id, macs);
                    act = out.map_err(err)?;
                    if !last {
                        act.relu_in_place();
                    }
                }
                (LayerKind::Pool(p), _) => {
                    act = t
                        .time("model.pool", attrs, || reference::pool_forward(&act, p))
                        .map_err(err)?;
                }
                (LayerKind::Eltwise(p), _) => {
                    let skip_name = layer.skip.as_deref().ok_or("eltwise without a skip")?;
                    let skip = stored.get(skip_name).ok_or("skip source not stored")?;
                    act = t
                        .time("model.eltwise", attrs, || {
                            reference::eltwise_forward(&act, skip, p.op)
                        })
                        .map_err(err)?;
                    if !last {
                        act.relu_in_place();
                    }
                }
                (LayerKind::FullyConnected(p), Some(LayerWeights::Fc(w, b))) => {
                    let v = flat.take().unwrap_or_else(|| act.as_slice().to_vec());
                    let mut out = t
                        .time("model.fc", attrs, || {
                            reference::fc_forward(&v, w, Some(b), p)
                        })
                        .map_err(err)?;
                    if !last {
                        cbrain::model::simd::relu(&mut out);
                    }
                    flat = Some(out);
                }
                _ => return Err(format!("no weights for layer {}", layer.name)),
            }
            if skips.contains(&layer.name.as_str()) {
                stored.insert(&layer.name, act.clone());
            }
        }
        Ok(flat.unwrap_or_else(|| act.as_slice().to_vec()))
    }

    /// Builds the replay's weights and checks that replaying each image
    /// under the reference policy gives `forward`'s reference output bit
    /// for bit; `replay_ops` checks the adpa-2 replay the same way.
    pub fn prepare_trace(&mut self, t: &Tracer) -> Result<(), String> {
        self.replay = Some(replay_weights(&self.net, self.weight_seed));
        t.set_op(u64::MAX);
        for i in 0..self.images.len() {
            let truth = self.replay(&self.images[i], Policy::Fixed(Scheme::Inter), t)?;
            if truth != self.reference[i] {
                return Err(format!("infer: replayed reference of image {i} differs"));
            }
        }
        Ok(())
    }

    pub fn digest(&self) -> u64 {
        let bytes: Vec<u8> = self
            .expected
            .iter()
            .flatten()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        cbrain::persist::fnv1a64(&bytes)
    }

    /// Per-layer metrics of `ops` traced ops, per op.
    pub fn layer_metrics(&self, spans: &[trace::Span], ops: u64) -> Vec<Metric> {
        let ops_f = ops.max(1) as f64;
        // The reference replays ran outside any op (op id u64::MAX),
        // once per image.
        let (adaptive, reference): (Vec<_>, Vec<_>) =
            spans.iter().cloned().partition(|s| s.op != u64::MAX);
        let mut m = Vec::new();
        let mut executor_ns = 0u64;
        for (name, scheme) in CONV_EXECUTORS {
            let (ns, macs) = if scheme == Scheme::Inter {
                let (ns, macs, _) = trace::sum(&reference, name, "");
                let passes = self.images.len() as u64;
                (ns / passes, macs / passes)
            } else {
                let (ns, macs, _) = trace::sum(&adaptive, name, "");
                executor_ns += ns;
                ((ns as f64 / ops_f) as u64, (macs as f64 / ops_f) as u64)
            };
            m.push(Metric::new(
                format!("infer.{name}_ms"),
                ns as f64 / 1e6,
                "ms",
            ));
            if scheme != Scheme::Inter {
                let gmacs = if ns == 0 {
                    0.0
                } else {
                    macs as f64 / ns as f64
                };
                m.push(Metric::new(format!("infer.{name}_gmacs"), gmacs, "GMAC/s"));
            }
        }
        for name in OTHER_EXECUTORS {
            let (ns, _, _) = trace::sum(&adaptive, name, "");
            executor_ns += ns;
            m.push(Metric::new(
                format!("infer.{name}_ms"),
                ns as f64 / ops_f / 1e6,
                "ms",
            ));
        }
        let (forward_ns, _, _) = trace::sum(&adaptive, "forward", "");
        m.push(Metric::new(
            "infer.forward.glue_ms",
            (forward_ns as f64 - executor_ns as f64) / ops_f / 1e6,
            "ms",
        ));
        m.push(Metric::new(
            "infer.forward.max_abs_err",
            f64::from(self.max_err),
            "abs",
        ));
        m
    }
}

fn run_conv(
    input: &Tensor3,
    w: &ConvWeights,
    b: &[f32],
    p: &ConvParams,
    scheme: Scheme,
) -> Result<Tensor3, cbrain::model::ModelError> {
    match scheme {
        Scheme::Inter => reference::conv_forward(input, w, Some(b), p),
        Scheme::InterImproved => improved_inter_forward(input, w, Some(b), p),
        Scheme::Intra => unrolled_forward(input, w, Some(b), p),
        Scheme::Partition => partition_forward(input, w, Some(b), p),
    }
}
