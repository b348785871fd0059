//! Data-accurate whole-network inference under the adaptive policy.
//!
//! The performance [`crate::Runner`] counts cycles without touching
//! values; this module is its functional twin: it carries a real tensor
//! through every layer, executing each convolution with the *scheme
//! Algorithm 2 selects* (kernel-partitioned, unrolled, improved-inter or
//! plain sliding window), applying ReLU and pooling, down to the
//! classifier — and proves the adaptive pipeline is numerically identical
//! to a plain reference forward pass.
//!
//! Only sequential networks are supported (each layer consumes its
//! predecessor's output); the zoo's AlexNet, VGG-16 and NiN qualify,
//! GoogLeNet's branches do not.

use crate::adaptive::{scheme_for, Policy};
use crate::functional::{improved_inter_forward, partition_forward, unrolled_forward};
use cbrain_compiler::Scheme;
use cbrain_model::{
    reference, ConvWeights, Layer, LayerKind, ModelError, Network, Tensor3, TensorShape,
};
use cbrain_sim::AcceleratorConfig;
use std::fmt;

/// Error from a functional forward pass.
#[derive(Debug, Clone, PartialEq)]
pub enum ForwardError {
    /// The network is not sequential: a layer's input shape does not match
    /// its predecessor's output.
    NotSequential {
        /// Name of the offending layer.
        layer: String,
        /// Shape produced by the previous layer.
        produced: TensorShape,
        /// Shape the layer expects.
        expected: TensorShape,
    },
    /// The weights hold no values for a parameterized layer of the
    /// network: they were generated for another network.
    MissingWeights {
        /// Name of the layer without weights.
        layer: String,
    },
    /// Wrapped model error.
    Model(ModelError),
}

impl fmt::Display for ForwardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForwardError::NotSequential {
                layer,
                produced,
                expected,
            } => write!(
                f,
                "network is not sequential at `{layer}`: got {produced}, expected {expected}"
            ),
            ForwardError::MissingWeights { layer } => {
                write!(f, "the weights hold no values for layer `{layer}`")
            }
            ForwardError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ForwardError {}

impl From<ModelError> for ForwardError {
    fn from(e: ModelError) -> Self {
        ForwardError::Model(e)
    }
}

/// Per-layer weights for a whole network.
#[derive(Debug, Clone)]
pub struct NetworkWeights {
    convs: Vec<(String, ConvWeights, Vec<f32>)>,
    fcs: Vec<(String, Vec<f32>, Vec<f32>)>,
}

impl NetworkWeights {
    /// Deterministic pseudo-random weights for every parameterized layer.
    /// Values are scaled down with fan-in so deep activations stay in a
    /// numerically friendly range.
    ///
    /// # Panics
    ///
    /// Panics if the network contains invalid layers (zoo networks never
    /// do).
    pub fn random(net: &Network, seed: u64) -> Self {
        let mut convs = Vec::new();
        let mut fcs = Vec::new();
        for (i, layer) in net.layers().iter().enumerate() {
            let lseed = seed.wrapping_add(i as u64 * 7919);
            match &layer.kind {
                LayerKind::Conv(p) => {
                    let fan_in = (p.in_maps_per_group() * p.kernel * p.kernel) as f32;
                    let scale = (2.0 / fan_in).sqrt();
                    let mut w = ConvWeights::random(p, lseed);
                    w = scale_conv(w, p, scale);
                    let bias = vec![0.01; p.out_maps];
                    convs.push((layer.name.clone(), w, bias));
                }
                LayerKind::FullyConnected(p) => {
                    let scale = (2.0 / p.in_features as f32).sqrt();
                    let w: Vec<f32> =
                        Tensor3::random(TensorShape::new(1, p.out_features, p.in_features), lseed)
                            .into_vec()
                            .into_iter()
                            .map(|v| v * scale * 0.5)
                            .collect();
                    let bias = vec![0.01; p.out_features];
                    fcs.push((layer.name.clone(), w, bias));
                }
                LayerKind::Pool(_) | LayerKind::Eltwise(_) => {}
            }
        }
        Self { convs, fcs }
    }

    fn conv(&self, name: &str) -> Result<(&ConvWeights, &[f32]), ForwardError> {
        find(&self.convs, name).map(|(w, b)| (w, b.as_slice()))
    }

    fn fc(&self, name: &str) -> Result<(&[f32], &[f32]), ForwardError> {
        find(&self.fcs, name).map(|(w, b)| (w.as_slice(), b.as_slice()))
    }
}

/// The weights and bias stored under layer `name`.
fn find<'a, W>(
    layers: &'a [(String, W, Vec<f32>)],
    name: &str,
) -> Result<(&'a W, &'a Vec<f32>), ForwardError> {
    layers
        .iter()
        .find(|(n, _, _)| n == name)
        .map(|(_, w, b)| (w, b))
        .ok_or_else(|| ForwardError::MissingWeights {
            layer: name.to_owned(),
        })
}

fn scale_conv(w: ConvWeights, p: &cbrain_model::ConvParams, scale: f32) -> ConvWeights {
    let mut out = ConvWeights::zeros(p);
    for o in 0..p.out_maps {
        for i in 0..p.in_maps_per_group() {
            for ky in 0..p.kernel {
                for kx in 0..p.kernel {
                    *out.at_mut(o, i, ky, kx) = w.at(o, i, ky, kx) * scale * 0.5;
                }
            }
        }
    }
    out
}

/// Result of a functional forward pass.
#[derive(Debug, Clone)]
pub struct ForwardResult {
    /// The classifier output (or last layer's activations, flattened).
    pub output: Vec<f32>,
    /// The scheme each conv layer executed under (None for pool/fc).
    pub schemes: Vec<(String, Option<Scheme>)>,
}

fn conv_with_scheme(
    input: &Tensor3,
    weights: &ConvWeights,
    bias: &[f32],
    params: &cbrain_model::ConvParams,
    scheme: Scheme,
) -> Result<Tensor3, ModelError> {
    match scheme {
        Scheme::Inter => reference::conv_forward(input, weights, Some(bias), params),
        Scheme::InterImproved => improved_inter_forward(input, weights, Some(bias), params),
        Scheme::Intra => unrolled_forward(input, weights, Some(bias), params),
        Scheme::Partition => partition_forward(input, weights, Some(bias), params),
    }
}

/// Runs a sequential network on real data, executing each convolution
/// with the scheme `policy` selects ([`Policy::Oracle`] resolves as
/// adpa-2, matching [`crate::adaptive::scheme_for`]). ReLU follows every
/// conv and FC layer except the classifier.
///
/// # Errors
///
/// Returns [`ForwardError::NotSequential`] for branchy networks,
/// [`ForwardError::MissingWeights`] for weights generated for another
/// network, and propagates model errors.
///
/// # Examples
///
/// ```
/// use cbrain::forward::{forward, NetworkWeights};
/// use cbrain::Policy;
/// use cbrain_model::{NetworkBuilder, Tensor3, TensorShape};
/// use cbrain_sim::AcceleratorConfig;
///
/// let net = NetworkBuilder::new("tiny", TensorShape::new(3, 16, 16))
///     .conv("c1", 8, 5, 2, 0)
///     .fully_connected("head", 4)
///     .build()?;
/// let weights = NetworkWeights::random(&net, 1);
/// let input = Tensor3::random(net.input(), 2);
/// let cfg = AcceleratorConfig::paper_16_16();
/// let out = forward(&net, &input, &weights, Policy::Adaptive { improved_inter: true }, &cfg)?;
/// assert_eq!(out.output.len(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn forward(
    net: &Network,
    input: &Tensor3,
    weights: &NetworkWeights,
    policy: Policy,
    cfg: &AcceleratorConfig,
) -> Result<ForwardResult, ForwardError> {
    let mut activations = input.clone();
    let mut flat: Option<Vec<f32>> = None;
    let mut schemes = Vec::new();
    let n_layers = net.layers().len();

    // Residual skip operands: outputs of layers some later eltwise layer
    // names as its `skip` source, kept alive until consumed.
    let skip_sources: std::collections::HashSet<&str> = net
        .layers()
        .iter()
        .filter_map(|l| l.skip.as_deref())
        .collect();
    let mut stored: std::collections::HashMap<String, Tensor3> = std::collections::HashMap::new();

    for (i, layer) in net.layers().iter().enumerate() {
        let is_last = i + 1 == n_layers;
        check_sequential(layer, &activations, flat.as_deref())?;
        match &layer.kind {
            LayerKind::Conv(p) => {
                let scheme = scheme_for(policy, p, cfg);
                let (w, b) = weights.conv(&layer.name)?;
                let mut out = conv_with_scheme(&activations, w, b, p, scheme)?;
                if !is_last {
                    out.relu_in_place();
                }
                activations = out;
                schemes.push((layer.name.clone(), Some(scheme)));
            }
            LayerKind::Pool(p) => {
                activations = reference::pool_forward(&activations, p)?;
                schemes.push((layer.name.clone(), None));
            }
            LayerKind::Eltwise(p) => {
                let skip_name = layer.skip.as_deref().expect("validated eltwise has a skip");
                let skip = stored
                    .get(skip_name)
                    .expect("validated skip source ran earlier");
                let mut out = reference::eltwise_forward(&activations, skip, p.op)?;
                if !is_last {
                    out.relu_in_place();
                }
                activations = out;
                schemes.push((layer.name.clone(), None));
            }
            LayerKind::FullyConnected(p) => {
                let input_vec: Vec<f32> = match flat.take() {
                    Some(v) => v,
                    None => activations.as_slice().to_vec(),
                };
                let (w, b) = weights.fc(&layer.name)?;
                let mut out = reference::fc_forward(&input_vec, w, Some(b), p)?;
                if !is_last {
                    cbrain_model::simd::relu(&mut out);
                }
                flat = Some(out);
                schemes.push((layer.name.clone(), None));
            }
        }
        if skip_sources.contains(layer.name.as_str()) {
            stored.insert(layer.name.clone(), activations.clone());
        }
    }

    let output = match flat {
        Some(v) => v,
        None => activations.as_slice().to_vec(),
    };
    Ok(ForwardResult { output, schemes })
}

fn check_sequential(
    layer: &Layer,
    activations: &Tensor3,
    flat: Option<&[f32]>,
) -> Result<(), ForwardError> {
    let produced = match flat {
        Some(v) => TensorShape::flat(v.len()),
        None => activations.shape(),
    };
    let ok = match &layer.kind {
        LayerKind::FullyConnected(p) => produced.elems() == p.in_features,
        _ => produced == layer.input,
    };
    if ok {
        Ok(())
    } else {
        Err(ForwardError::NotSequential {
            layer: layer.name.clone(),
            produced,
            expected: layer.input,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain_model::NetworkBuilder;

    fn tiny_net() -> Network {
        NetworkBuilder::new("tiny", TensorShape::new(3, 24, 24))
            .conv("stem", 8, 5, 2, 0) // Din=3 < 16 -> partition
            .pool_max("pool", 2, 2)
            .conv("mid", 16, 3, 1, 1) // Din=8 < 16 -> partition
            .conv("deep", 20, 1, 1, 0) // 1x1 -> inter(-improved)
            .fully_connected("head", 10)
            .build()
            .unwrap()
    }

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn adaptive_forward_matches_reference_forward() {
        let net = tiny_net();
        let weights = NetworkWeights::random(&net, 42);
        let input = Tensor3::random(net.input(), 7);
        let cfg = AcceleratorConfig::paper_16_16();

        let reference_run = forward(
            &net,
            &input,
            &weights,
            Policy::Fixed(Scheme::Inter), // plain reference path
            &cfg,
        )
        .unwrap();
        for policy in [
            Policy::Adaptive {
                improved_inter: true,
            },
            Policy::Adaptive {
                improved_inter: false,
            },
            Policy::Fixed(Scheme::Partition),
            Policy::Fixed(Scheme::Intra),
        ] {
            let run = forward(&net, &input, &weights, policy, &cfg).unwrap();
            let diff = max_diff(&run.output, &reference_run.output);
            assert!(diff < 1e-3, "{policy}: diff={diff}");
        }
    }

    #[test]
    fn adaptive_run_uses_the_expected_schemes() {
        let net = tiny_net();
        let weights = NetworkWeights::random(&net, 1);
        let input = Tensor3::random(net.input(), 2);
        let cfg = AcceleratorConfig::paper_16_16();
        let run = forward(
            &net,
            &input,
            &weights,
            Policy::Adaptive {
                improved_inter: true,
            },
            &cfg,
        )
        .unwrap();
        let by_name: std::collections::HashMap<_, _> = run.schemes.iter().cloned().collect();
        assert_eq!(by_name["stem"], Some(Scheme::Partition));
        assert_eq!(by_name["mid"], Some(Scheme::Partition));
        assert_eq!(by_name["deep"], Some(Scheme::InterImproved));
        assert_eq!(by_name["pool"], None);
    }

    #[test]
    fn relu_applied_between_layers() {
        // With all-negative biases and zero weights... simpler: run and
        // check intermediate effect indirectly: a network whose first conv
        // output is forced negative must produce the pure-bias head value.
        let net = NetworkBuilder::new("neg", TensorShape::new(1, 4, 4))
            .conv("c1", 2, 3, 1, 0)
            .fully_connected("head", 3)
            .build()
            .unwrap();
        let mut weights = NetworkWeights::random(&net, 5);
        // Force c1 output negative via bias.
        weights.convs[0].2 = vec![-100.0, -100.0];
        let input = Tensor3::random(net.input(), 6);
        let run = forward(
            &net,
            &input,
            &weights,
            Policy::Adaptive {
                improved_inter: true,
            },
            &AcceleratorConfig::paper_16_16(),
        )
        .unwrap();
        // ReLU zeroed everything, so the head output is exactly its bias.
        for v in &run.output {
            assert!((v - 0.01).abs() < 1e-6, "{v}");
        }
    }

    #[test]
    fn sequential_zoo_networks_run_end_to_end() {
        // NiN is the smallest all-sequential zoo net; scaled input keeps
        // the test quick? NiN input is fixed; run it for real (release CI
        // budget) — but in debug keep to the tiny net plus AlexNet's
        // first two layers via a truncated builder instead.
        let net = NetworkBuilder::new("alexstub", TensorShape::new(3, 63, 63))
            .conv("conv1", 16, 11, 4, 0)
            .pool_max("pool1", 3, 2)
            .conv_grouped("conv2", 32, 5, 1, 2, 2)
            .fully_connected("head", 10)
            .build()
            .unwrap();
        let weights = NetworkWeights::random(&net, 11);
        let input = Tensor3::random(net.input(), 12);
        let cfg = AcceleratorConfig::paper_16_16();
        let a = forward(
            &net,
            &input,
            &weights,
            Policy::Adaptive {
                improved_inter: true,
            },
            &cfg,
        )
        .unwrap();
        let b = forward(&net, &input, &weights, Policy::Fixed(Scheme::Inter), &cfg).unwrap();
        assert!(max_diff(&a.output, &b.output) < 1e-3);
        assert_eq!(a.output.len(), 10);
    }

    #[test]
    fn weights_of_another_network_are_an_error_naming_the_layer() {
        let net = tiny_net();
        let input = Tensor3::random(net.input(), 3);
        let cfg = AcceleratorConfig::paper_16_16();
        let policy = Policy::Adaptive {
            improved_inter: true,
        };
        // Conv weights under other names: the first conv has none.
        let renamed = NetworkBuilder::new("other", TensorShape::new(3, 24, 24))
            .conv("stem0", 8, 5, 2, 0)
            .fully_connected("head", 10)
            .build()
            .unwrap();
        let err = forward(
            &net,
            &input,
            &NetworkWeights::random(&renamed, 1),
            policy,
            &cfg,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ForwardError::MissingWeights {
                layer: "stem".into()
            }
        );
        assert_eq!(
            err.to_string(),
            "the weights hold no values for layer `stem`"
        );
        // Every conv present, but no FC weights: the head has none.
        let headless = NetworkBuilder::new("headless", TensorShape::new(3, 24, 24))
            .conv("stem", 8, 5, 2, 0)
            .pool_max("pool", 2, 2)
            .conv("mid", 16, 3, 1, 1)
            .conv("deep", 20, 1, 1, 0)
            .build()
            .unwrap();
        let err = forward(
            &net,
            &input,
            &NetworkWeights::random(&headless, 1),
            policy,
            &cfg,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ForwardError::MissingWeights {
                layer: "head".into()
            }
        );
    }

    #[test]
    fn branchy_network_is_rejected() {
        use cbrain_model::zoo;
        let net = zoo::googlenet();
        let weights = NetworkWeights::random(&net, 3);
        let input = Tensor3::random(net.input(), 4);
        let err = forward(
            &net,
            &input,
            &weights,
            Policy::Adaptive {
                improved_inter: true,
            },
            &AcceleratorConfig::paper_16_16(),
        )
        .unwrap_err();
        assert!(matches!(err, ForwardError::NotSequential { .. }));
    }
}
