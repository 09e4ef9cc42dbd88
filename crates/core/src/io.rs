//! Model persistence: JSON save/load for spiking networks and their ANN
//! twins.
//!
//! Algorithm 1 sweeps dozens of `(V_th, T)` configurations; persisting
//! the trained accurate model once and re-loading it per grid point is
//! how a deployment would actually use this library. The in-memory
//! snapshot types ([`SnnSnapshot`], [`AnnSnapshot`]) capture structure
//! and weights; [`NetworkSnapshot`] additionally carries the serialized
//! execution plan ([`crate::plan::ExecPlan`]) — including each layer's
//! reduced-precision weight plane ([`crate::plan::WeightPlane`]), which
//! restore re-installs by re-quantizing the value-exact f32 weights —
//! and round-trips through
//! real bytes via the in-tree JSON module ([`crate::json`]) —
//! [`save_network`] / [`load_network`] write and read actual files,
//! with weights restored value-exact (the JSON writer uses shortest-
//! roundtrip float formatting).

use crate::ann::{AnnLayer, AnnNetwork};
use crate::json::{self, Json};
use crate::layer::Layer;
use crate::network::{SnnConfig, SpikingNetwork};
use crate::plan::{ConvBatchKernel, WeightPlane};
use crate::{CoreError, Result};
use axsnn_tensor::conv::Conv2dSpec;
use axsnn_tensor::Tensor;
use std::path::Path;

/// Serializable description of one layer.
#[derive(Debug, Clone)]
pub enum LayerSpec {
    /// Spiking or ANN convolution.
    Conv {
        /// Input channels.
        in_channels: usize,
        /// Output channels.
        out_channels: usize,
        /// Kernel side.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        padding: usize,
        /// Filter weights.
        weight: Tensor,
        /// Bias.
        bias: Tensor,
    },
    /// Spiking or ANN hidden linear layer.
    Linear {
        /// Weights `[out, in]`.
        weight: Tensor,
        /// Bias.
        bias: Tensor,
    },
    /// Readout / logit layer.
    Output {
        /// Weights `[out, in]`.
        weight: Tensor,
        /// Bias.
        bias: Tensor,
    },
    /// Average pooling.
    AvgPool {
        /// Window / stride.
        window: usize,
    },
    /// Max pooling.
    MaxPool {
        /// Window / stride.
        window: usize,
    },
    /// Flatten.
    Flatten,
    /// Dropout.
    Dropout {
        /// Drop probability.
        probability: f32,
    },
}

/// Serializable snapshot of a spiking network.
#[derive(Debug, Clone)]
pub struct SnnSnapshot {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Structural configuration.
    pub config: SnnConfig,
    /// Layer stack.
    pub layers: Vec<LayerSpec>,
}

/// Serializable snapshot of an ANN.
#[derive(Debug, Clone)]
pub struct AnnSnapshot {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Layer stack.
    pub layers: Vec<LayerSpec>,
}

const FORMAT_VERSION: u32 = 1;

/// Captures a spiking network into a serializable snapshot.
///
/// # Errors
///
/// Currently infallible for well-formed networks; returns `Result` to
/// keep room for validation.
pub(crate) fn snapshot_snn(net: &SpikingNetwork) -> Result<SnnSnapshot> {
    let mut layers = Vec::with_capacity(net.depth());
    for layer in net.layers() {
        layers.push(match layer {
            Layer::SpikingConv2d(l) => LayerSpec::Conv {
                in_channels: l.spec.in_channels,
                out_channels: l.spec.out_channels,
                kernel: l.spec.kernel,
                stride: l.spec.stride,
                padding: l.spec.padding,
                weight: l.weight.value.clone(),
                bias: l.bias.value.clone(),
            },
            Layer::SpikingLinear(l) => LayerSpec::Linear {
                weight: l.weight.value.clone(),
                bias: l.bias.value.clone(),
            },
            Layer::OutputLinear(l) => LayerSpec::Output {
                weight: l.weight.value.clone(),
                bias: l.bias.value.clone(),
            },
            Layer::AvgPool2d(l) => LayerSpec::AvgPool { window: l.window },
            Layer::MaxPool2d(l) => LayerSpec::MaxPool { window: l.window },
            Layer::Flatten(_) => LayerSpec::Flatten,
            Layer::Dropout(d) => LayerSpec::Dropout {
                probability: d.probability,
            },
        });
    }
    Ok(SnnSnapshot {
        version: FORMAT_VERSION,
        config: *net.config(),
        layers,
    })
}

/// Rebuilds a spiking network from a snapshot.
///
/// # Errors
///
/// Returns [`CoreError::Incompatible`] for unsupported versions or
/// inconsistent layer shapes.
pub(crate) fn restore_snn(snapshot: &SnnSnapshot) -> Result<SpikingNetwork> {
    if snapshot.version != FORMAT_VERSION {
        return Err(CoreError::Incompatible {
            message: format!("unsupported snapshot version {}", snapshot.version),
        });
    }
    let cfg = snapshot.config;
    let mut layers = Vec::with_capacity(snapshot.layers.len());
    for spec in &snapshot.layers {
        layers.push(match spec {
            LayerSpec::Conv {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
                weight,
                bias,
            } => Layer::spiking_conv2d_from(
                Conv2dSpec {
                    in_channels: *in_channels,
                    out_channels: *out_channels,
                    kernel: *kernel,
                    stride: *stride,
                    padding: *padding,
                },
                weight.clone(),
                bias.clone(),
                &cfg,
            )?,
            LayerSpec::Linear { weight, bias } => {
                Layer::spiking_linear_from(weight.clone(), bias.clone(), &cfg)?
            }
            LayerSpec::Output { weight, bias } => {
                Layer::output_linear_from(weight.clone(), bias.clone())?
            }
            LayerSpec::AvgPool { window } => Layer::avg_pool2d(*window),
            LayerSpec::MaxPool { window } => Layer::max_pool2d(*window),
            LayerSpec::Flatten => Layer::flatten(),
            LayerSpec::Dropout { probability } => Layer::dropout(*probability),
        });
    }
    SpikingNetwork::new(layers, cfg)
}

/// Captures an ANN into a serializable snapshot.
///
/// # Errors
///
/// Currently infallible for well-formed networks.
pub fn snapshot_ann(net: &AnnNetwork) -> Result<AnnSnapshot> {
    let mut layers = Vec::with_capacity(net.layers().len());
    for layer in net.layers() {
        layers.push(match layer {
            AnnLayer::ConvRelu { spec, weight, bias } => LayerSpec::Conv {
                in_channels: spec.in_channels,
                out_channels: spec.out_channels,
                kernel: spec.kernel,
                stride: spec.stride,
                padding: spec.padding,
                weight: weight.clone(),
                bias: bias.clone(),
            },
            AnnLayer::LinearRelu { weight, bias } => LayerSpec::Linear {
                weight: weight.clone(),
                bias: bias.clone(),
            },
            AnnLayer::LinearOut { weight, bias } => LayerSpec::Output {
                weight: weight.clone(),
                bias: bias.clone(),
            },
            AnnLayer::AvgPool { window } => LayerSpec::AvgPool { window: *window },
            AnnLayer::MaxPool { window } => LayerSpec::MaxPool { window: *window },
            AnnLayer::Flatten => LayerSpec::Flatten,
            AnnLayer::Dropout { probability } => LayerSpec::Dropout {
                probability: *probability,
            },
        });
    }
    Ok(AnnSnapshot {
        version: FORMAT_VERSION,
        layers,
    })
}

/// Rebuilds an ANN from a snapshot.
///
/// # Errors
///
/// Returns [`CoreError::Incompatible`] for unsupported versions.
pub fn restore_ann(snapshot: &AnnSnapshot) -> Result<AnnNetwork> {
    if snapshot.version != FORMAT_VERSION {
        return Err(CoreError::Incompatible {
            message: format!("unsupported snapshot version {}", snapshot.version),
        });
    }
    let mut layers = Vec::with_capacity(snapshot.layers.len());
    for spec in &snapshot.layers {
        layers.push(match spec {
            LayerSpec::Conv {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
                weight,
                bias,
            } => AnnLayer::ConvRelu {
                spec: Conv2dSpec {
                    in_channels: *in_channels,
                    out_channels: *out_channels,
                    kernel: *kernel,
                    stride: *stride,
                    padding: *padding,
                },
                weight: weight.clone(),
                bias: bias.clone(),
            },
            LayerSpec::Linear { weight, bias } => AnnLayer::LinearRelu {
                weight: weight.clone(),
                bias: bias.clone(),
            },
            LayerSpec::Output { weight, bias } => AnnLayer::LinearOut {
                weight: weight.clone(),
                bias: bias.clone(),
            },
            LayerSpec::AvgPool { window } => AnnLayer::AvgPool { window: *window },
            LayerSpec::MaxPool { window } => AnnLayer::MaxPool { window: *window },
            LayerSpec::Flatten => AnnLayer::Flatten,
            LayerSpec::Dropout { probability } => AnnLayer::Dropout {
                probability: *probability,
            },
        });
    }
    AnnNetwork::new(layers)
}

/// One layer's serialized execution-plan entry of a
/// [`NetworkSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlanSpec {
    /// Layer kind (as [`Layer::kind`]), for validation and diffability.
    pub kind: String,
    /// The layer's density-gate threshold (`None` for layers without
    /// kernels to choose — flatten, dropout).
    pub threshold: Option<f32>,
    /// The batched-conv kernel choice, for conv layers.
    pub conv_batch: Option<ConvBatchKernel>,
    /// The reduced-precision weight-storage plane, for parameterized
    /// layers (`None` for layers without weights). Absent in snapshots
    /// written before planes existed — those load as `None` and run at
    /// full precision.
    pub plane: Option<WeightPlane>,
    /// The int8 plane's dequantization scale, recorded for drift
    /// detection: restore re-quantizes from the (value-exact) f32
    /// weights and cross-checks the recomputed scale against this one.
    pub plane_scale: Option<f32>,
}

/// Full serializable snapshot of a spiking network: structure, weights
/// and the execution plan. This is the on-disk unit —
/// [`NetworkSnapshot::to_json_string`] / [`NetworkSnapshot::from_json_str`]
/// round-trip through real JSON bytes.
#[derive(Debug, Clone)]
pub struct NetworkSnapshot {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Structure + weights.
    pub snn: SnnSnapshot,
    /// Per-layer execution-plan entries, aligned with `snn.layers`.
    pub plan: Vec<LayerPlanSpec>,
}

/// Captures a spiking network — including its execution plan — into a
/// serializable snapshot.
///
/// # Errors
///
/// Currently infallible for well-formed networks; returns `Result` to
/// keep room for validation.
pub fn snapshot_network(net: &SpikingNetwork) -> Result<NetworkSnapshot> {
    let snn = snapshot_snn(net)?;
    let plan = net
        .layers()
        .iter()
        .zip(net.exec_plan().layers())
        .map(|(layer, entry)| LayerPlanSpec {
            kind: layer.kind().to_string(),
            threshold: layer.sparse_threshold(),
            conv_batch: entry.conv_batch,
            plane: layer.weight_plane(),
            plane_scale: layer.weight_plane_scale(),
        })
        .collect();
    Ok(NetworkSnapshot {
        version: FORMAT_VERSION,
        snn,
        plan,
    })
}

/// Rebuilds a spiking network from a full snapshot, re-installing the
/// serialized execution plan (per-layer thresholds and batched-conv
/// kernel choices).
///
/// # Errors
///
/// Returns [`CoreError::Incompatible`] for unsupported versions,
/// inconsistent layer shapes or a plan that does not align with the
/// layer stack.
pub fn restore_network(snapshot: &NetworkSnapshot) -> Result<SpikingNetwork> {
    if snapshot.version != FORMAT_VERSION {
        return Err(CoreError::Incompatible {
            message: format!("unsupported snapshot version {}", snapshot.version),
        });
    }
    let mut net = restore_snn(&snapshot.snn)?;
    if snapshot.plan.len() != net.depth() {
        return Err(CoreError::Incompatible {
            message: format!(
                "plan has {} entries for {} layers",
                snapshot.plan.len(),
                net.depth()
            ),
        });
    }
    for (layer, spec) in net.layers_mut().iter_mut().zip(&snapshot.plan) {
        if layer.kind() != spec.kind {
            return Err(CoreError::Incompatible {
                message: format!(
                    "plan entry kind {:?} does not match layer {:?}",
                    spec.kind,
                    layer.kind()
                ),
            });
        }
        if let Some(threshold) = spec.threshold {
            layer.set_sparse_threshold(threshold);
        }
        if let (Some(policy), Some(conv_batch)) = (layer.policy_mut(), spec.conv_batch) {
            policy.set_conv_batch(conv_batch);
        }
        if let Some(plane) = spec.plane {
            layer.set_weight_plane(plane)?;
            // The f32 weights round-trip value-exact, so re-quantizing
            // must land on the same int8 grid the snapshot recorded. A
            // scale mismatch means the weights and the plane entry come
            // from different models — reject rather than silently run
            // on a different grid.
            if let (Some(stored), Some(recomputed)) = (spec.plane_scale, layer.weight_plane_scale())
            {
                if stored.to_bits() != recomputed.to_bits() {
                    return Err(CoreError::Incompatible {
                        message: format!(
                            "plan entry int8 scale {stored:e} does not match \
                             the scale {recomputed:e} recomputed from the weights"
                        ),
                    });
                }
            }
        }
    }
    net.refresh_plan();
    Ok(net)
}

fn ser_err(message: impl Into<String>) -> CoreError {
    CoreError::Serialization {
        message: message.into(),
        path: None,
        offset: None,
    }
}

fn parse_err(e: &json::ParseError) -> CoreError {
    CoreError::Serialization {
        message: format!("invalid JSON: {}", e.message),
        path: None,
        offset: Some(e.offset),
    }
}

/// Writes `contents` to `path` atomically: the bytes land in a sibling
/// temporary file first and are renamed into place, so a crash (or a
/// concurrent reader) can never observe a torn, half-written file —
/// either the old contents survive intact or the new ones are complete.
/// The primitive behind [`save_network`] and the sweep journals'
/// compaction writes.
///
/// # Errors
///
/// Returns [`CoreError::Serialization`] (carrying `path`) for
/// filesystem failures; a failed rename removes the temporary file.
pub fn atomic_write(path: impl AsRef<Path>, contents: &str) -> Result<()> {
    let path = path.as_ref();
    let file_name = path
        .file_name()
        .and_then(|f| f.to_str())
        .ok_or_else(|| ser_err(format!("invalid path {path:?}")).with_path(path))?;
    let tmp = path.with_file_name(format!(".{file_name}.tmp{}", std::process::id()));
    std::fs::write(&tmp, contents)
        .map_err(|e| ser_err(format!("cannot write temp file {tmp:?}: {e}")).with_path(path))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        ser_err(format!("cannot rename {tmp:?} into place: {e}")).with_path(path)
    })
}

fn tensor_to_json(t: &Tensor) -> Json {
    Json::Obj(vec![
        (
            "dims".into(),
            Json::Arr(
                t.shape()
                    .dims()
                    .iter()
                    .map(|&d| Json::Num(d as f64))
                    .collect(),
            ),
        ),
        (
            "data".into(),
            Json::Arr(t.as_slice().iter().map(|&v| Json::Num(v as f64)).collect()),
        ),
    ])
}

fn tensor_from_json(value: &Json, ctx: &str) -> Result<Tensor> {
    let dims: Vec<usize> = value
        .get("dims")
        .and_then(Json::as_array)
        .ok_or_else(|| ser_err(format!("{ctx}: missing tensor dims")))?
        .iter()
        .map(|d| {
            d.as_f64()
                .map(|v| v as usize)
                .ok_or_else(|| ser_err(format!("{ctx}: non-numeric dim")))
        })
        .collect::<Result<_>>()?;
    let data: Vec<f32> = value
        .get("data")
        .and_then(Json::as_array)
        .ok_or_else(|| ser_err(format!("{ctx}: missing tensor data")))?
        .iter()
        .map(|v| {
            v.as_f64()
                .map(|v| v as f32)
                .ok_or_else(|| ser_err(format!("{ctx}: non-numeric tensor element")))
        })
        .collect::<Result<_>>()?;
    Tensor::from_vec(data, &dims).map_err(CoreError::from)
}

fn num_field(value: &Json, key: &str, ctx: &str) -> Result<f64> {
    value
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ser_err(format!("{ctx}: missing numeric field {key:?}")))
}

fn layer_spec_to_json(spec: &LayerSpec) -> Json {
    match spec {
        LayerSpec::Conv {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight,
            bias,
        } => Json::Obj(vec![
            ("kind".into(), Json::Str("conv".into())),
            ("in_channels".into(), Json::Num(*in_channels as f64)),
            ("out_channels".into(), Json::Num(*out_channels as f64)),
            ("kernel".into(), Json::Num(*kernel as f64)),
            ("stride".into(), Json::Num(*stride as f64)),
            ("padding".into(), Json::Num(*padding as f64)),
            ("weight".into(), tensor_to_json(weight)),
            ("bias".into(), tensor_to_json(bias)),
        ]),
        LayerSpec::Linear { weight, bias } => Json::Obj(vec![
            ("kind".into(), Json::Str("linear".into())),
            ("weight".into(), tensor_to_json(weight)),
            ("bias".into(), tensor_to_json(bias)),
        ]),
        LayerSpec::Output { weight, bias } => Json::Obj(vec![
            ("kind".into(), Json::Str("output".into())),
            ("weight".into(), tensor_to_json(weight)),
            ("bias".into(), tensor_to_json(bias)),
        ]),
        LayerSpec::AvgPool { window } => Json::Obj(vec![
            ("kind".into(), Json::Str("avg_pool".into())),
            ("window".into(), Json::Num(*window as f64)),
        ]),
        LayerSpec::MaxPool { window } => Json::Obj(vec![
            ("kind".into(), Json::Str("max_pool".into())),
            ("window".into(), Json::Num(*window as f64)),
        ]),
        LayerSpec::Flatten => Json::Obj(vec![("kind".into(), Json::Str("flatten".into()))]),
        LayerSpec::Dropout { probability } => Json::Obj(vec![
            ("kind".into(), Json::Str("dropout".into())),
            ("probability".into(), Json::Num(*probability as f64)),
        ]),
    }
}

fn layer_spec_from_json(value: &Json, ctx: &str) -> Result<LayerSpec> {
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| ser_err(format!("{ctx}: missing layer kind")))?;
    Ok(match kind {
        "conv" => LayerSpec::Conv {
            in_channels: num_field(value, "in_channels", ctx)? as usize,
            out_channels: num_field(value, "out_channels", ctx)? as usize,
            kernel: num_field(value, "kernel", ctx)? as usize,
            stride: num_field(value, "stride", ctx)? as usize,
            padding: num_field(value, "padding", ctx)? as usize,
            weight: tensor_from_json(
                value
                    .get("weight")
                    .ok_or_else(|| ser_err(format!("{ctx}: missing weight")))?,
                ctx,
            )?,
            bias: tensor_from_json(
                value
                    .get("bias")
                    .ok_or_else(|| ser_err(format!("{ctx}: missing bias")))?,
                ctx,
            )?,
        },
        "linear" | "output" => {
            let weight = tensor_from_json(
                value
                    .get("weight")
                    .ok_or_else(|| ser_err(format!("{ctx}: missing weight")))?,
                ctx,
            )?;
            let bias = tensor_from_json(
                value
                    .get("bias")
                    .ok_or_else(|| ser_err(format!("{ctx}: missing bias")))?,
                ctx,
            )?;
            if kind == "linear" {
                LayerSpec::Linear { weight, bias }
            } else {
                LayerSpec::Output { weight, bias }
            }
        }
        "avg_pool" => LayerSpec::AvgPool {
            window: num_field(value, "window", ctx)? as usize,
        },
        "max_pool" => LayerSpec::MaxPool {
            window: num_field(value, "window", ctx)? as usize,
        },
        "flatten" => LayerSpec::Flatten,
        "dropout" => LayerSpec::Dropout {
            probability: num_field(value, "probability", ctx)? as f32,
        },
        other => return Err(ser_err(format!("{ctx}: unknown layer kind {other:?}"))),
    })
}

fn plan_spec_to_json(spec: &LayerPlanSpec) -> Json {
    Json::Obj(vec![
        ("kind".into(), Json::Str(spec.kind.clone())),
        (
            "threshold".into(),
            match spec.threshold {
                Some(t) => Json::Num(t as f64),
                None => Json::Null,
            },
        ),
        (
            "conv_batch".into(),
            match spec.conv_batch {
                Some(ConvBatchKernel::EventSorted) => Json::Str("event_sorted".into()),
                Some(ConvBatchKernel::RowByRow) => Json::Str("row_by_row".into()),
                None => Json::Null,
            },
        ),
        (
            "plane".into(),
            match spec.plane {
                Some(p) => Json::Str(p.name().into()),
                None => Json::Null,
            },
        ),
        (
            "plane_scale".into(),
            match spec.plane_scale {
                Some(s) => Json::Num(s as f64),
                None => Json::Null,
            },
        ),
    ])
}

fn plan_spec_from_json(value: &Json, ctx: &str) -> Result<LayerPlanSpec> {
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| ser_err(format!("{ctx}: missing plan entry kind")))?
        .to_string();
    let threshold = match value.get("threshold") {
        Some(Json::Null) | None => None,
        Some(v) => Some(
            v.as_f64()
                .ok_or_else(|| ser_err(format!("{ctx}: non-numeric threshold")))?
                as f32,
        ),
    };
    let conv_batch = match value.get("conv_batch") {
        Some(Json::Null) | None => None,
        Some(v) => Some(match v.as_str() {
            Some("event_sorted") => ConvBatchKernel::EventSorted,
            Some("row_by_row") => ConvBatchKernel::RowByRow,
            other => {
                return Err(ser_err(format!(
                    "{ctx}: unknown conv_batch kernel {other:?}"
                )))
            }
        }),
    };
    // Pre-plane snapshots have no "plane" key at all — treat a missing
    // key exactly like an explicit null so old files keep loading.
    let plane = match value.get("plane") {
        Some(Json::Null) | None => None,
        Some(v) => Some(
            v.as_str()
                .and_then(WeightPlane::from_name)
                .ok_or_else(|| ser_err(format!("{ctx}: unknown weight plane {v:?}")))?,
        ),
    };
    let plane_scale = match value.get("plane_scale") {
        Some(Json::Null) | None => None,
        Some(v) => Some(
            v.as_f64()
                .ok_or_else(|| ser_err(format!("{ctx}: non-numeric plane_scale")))?
                as f32,
        ),
    };
    Ok(LayerPlanSpec {
        kind,
        threshold,
        conv_batch,
        plane,
        plane_scale,
    })
}

impl NetworkSnapshot {
    /// Serializes the snapshot as a JSON document.
    pub fn to_json_string(&self) -> String {
        Json::Obj(vec![
            ("version".into(), Json::Num(self.version as f64)),
            (
                "config".into(),
                Json::Obj(vec![
                    (
                        "threshold".into(),
                        Json::Num(self.snn.config.threshold as f64),
                    ),
                    (
                        "time_steps".into(),
                        Json::Num(self.snn.config.time_steps as f64),
                    ),
                    ("leak".into(), Json::Num(self.snn.config.leak as f64)),
                ]),
            ),
            (
                "layers".into(),
                Json::Arr(self.snn.layers.iter().map(layer_spec_to_json).collect()),
            ),
            (
                "plan".into(),
                Json::Arr(self.plan.iter().map(plan_spec_to_json).collect()),
            ),
        ])
        .to_json_string()
    }

    /// Parses a snapshot from a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Serialization`] for malformed documents,
    /// carrying the byte offset of the parse failure.
    pub fn from_json_str(src: &str) -> Result<NetworkSnapshot> {
        let doc = json::parse(src).map_err(|e| parse_err(&e))?;
        let version = num_field(&doc, "version", "snapshot")? as u32;
        let config = doc
            .get("config")
            .ok_or_else(|| ser_err("snapshot: missing config"))?;
        let config = SnnConfig {
            threshold: num_field(config, "threshold", "config")? as f32,
            time_steps: num_field(config, "time_steps", "config")? as usize,
            leak: num_field(config, "leak", "config")? as f32,
        };
        let layers = doc
            .get("layers")
            .and_then(Json::as_array)
            .ok_or_else(|| ser_err("snapshot: missing layers array"))?
            .iter()
            .enumerate()
            .map(|(i, l)| layer_spec_from_json(l, &format!("layer[{i}]")))
            .collect::<Result<Vec<_>>>()?;
        let plan = doc
            .get("plan")
            .and_then(Json::as_array)
            .ok_or_else(|| ser_err("snapshot: missing plan array"))?
            .iter()
            .enumerate()
            .map(|(i, p)| plan_spec_from_json(p, &format!("plan[{i}]")))
            .collect::<Result<Vec<_>>>()?;
        Ok(NetworkSnapshot {
            version,
            snn: SnnSnapshot {
                version,
                config,
                layers,
            },
            plan,
        })
    }
}

/// Snapshots a spiking network — structure, weights and execution plan
/// — and writes it to `path` as JSON. The write is atomic
/// ([`atomic_write`]): a crash mid-save can never leave a torn,
/// half-written snapshot behind.
///
/// # Errors
///
/// Returns [`CoreError::Serialization`] for filesystem failures.
pub fn save_network(net: &SpikingNetwork, path: impl AsRef<Path>) -> Result<()> {
    let snapshot = snapshot_network(net)?;
    atomic_write(path, &snapshot.to_json_string())
}

/// Validates a parsed snapshot before any network is built from it: every
/// layer's weights and biases must be finite (a snapshot with NaN/Inf
/// weights would classify garbage while looking healthy), and the
/// serialized plan must align with the layer stack entry for entry.
///
/// This is the guard that makes hot swap safe — a corrupt or truncated
/// model file is rejected *here*, before it can ever be installed.
///
/// # Errors
///
/// Returns [`CoreError::Serialization`] whose message carries the
/// offending layer index (attach the file path with
/// [`CoreError::with_path`] at load sites).
pub fn validate_snapshot(snapshot: &NetworkSnapshot) -> Result<()> {
    for (i, spec) in snapshot.snn.layers.iter().enumerate() {
        let params: Option<(&Tensor, &Tensor)> = match spec {
            LayerSpec::Conv { weight, bias, .. }
            | LayerSpec::Linear { weight, bias }
            | LayerSpec::Output { weight, bias } => Some((weight, bias)),
            _ => None,
        };
        if let Some((weight, bias)) = params {
            for (what, tensor) in [("weight", weight), ("bias", bias)] {
                if let Some(j) = tensor.as_slice().iter().position(|v| !v.is_finite()) {
                    return Err(ser_err(format!(
                        "layer[{i}]: non-finite {what} value {} at element {j}",
                        tensor.as_slice()[j]
                    )));
                }
            }
        }
    }
    if snapshot.plan.len() != snapshot.snn.layers.len() {
        return Err(ser_err(format!(
            "plan has {} entries for {} layers",
            snapshot.plan.len(),
            snapshot.snn.layers.len()
        )));
    }
    for (i, (spec, plan)) in snapshot.snn.layers.iter().zip(&snapshot.plan).enumerate() {
        let kind = match spec {
            LayerSpec::Conv { .. } => "spiking_conv2d",
            LayerSpec::Linear { .. } => "spiking_linear",
            LayerSpec::Output { .. } => "output_linear",
            LayerSpec::AvgPool { .. } => "avg_pool2d",
            LayerSpec::MaxPool { .. } => "max_pool2d",
            LayerSpec::Flatten => "flatten",
            LayerSpec::Dropout { .. } => "dropout",
        };
        if plan.kind != kind {
            return Err(ser_err(format!(
                "layer[{i}]: plan entry kind {:?} does not match layer kind {kind:?}",
                plan.kind
            )));
        }
        if let Some(t) = plan.threshold {
            if t.is_nan() {
                return Err(ser_err(format!("layer[{i}]: NaN plan threshold")));
            }
        }
        let has_params = matches!(
            spec,
            LayerSpec::Conv { .. } | LayerSpec::Linear { .. } | LayerSpec::Output { .. }
        );
        if let Some(plane) = plan.plane {
            if !has_params {
                return Err(ser_err(format!(
                    "layer[{i}]: weight plane {plane} on a layer without weights"
                )));
            }
        }
        if let Some(scale) = plan.plane_scale {
            if plan.plane != Some(WeightPlane::Int8) {
                return Err(ser_err(format!(
                    "layer[{i}]: plane_scale only applies to the int8 plane"
                )));
            }
            if !scale.is_finite() || scale < 0.0 {
                return Err(ser_err(format!(
                    "layer[{i}]: invalid int8 plane scale {scale}"
                )));
            }
        }
    }
    Ok(())
}

/// Loads a spiking network — weights value-exact, execution plan
/// re-installed — from a JSON file written by [`save_network`].
///
/// The snapshot is validated ([`validate_snapshot`]) before any network
/// is built: non-finite weights and structure/plan mismatches are
/// rejected with the file path and offending layer index, so a hot-swap
/// site can never install a corrupt model.
///
/// # Errors
///
/// Returns [`CoreError::Serialization`] for unreadable, malformed or
/// invalid files — carrying the file path, the byte offset for parse
/// failures, and the layer index for validation failures — and
/// [`CoreError::Incompatible`] for unsupported versions.
pub fn load_network(path: impl AsRef<Path>) -> Result<SpikingNetwork> {
    let path = path.as_ref();
    let src = std::fs::read_to_string(path)
        .map_err(|e| ser_err(format!("cannot read file: {e}")).with_path(path))?;
    let snapshot = NetworkSnapshot::from_json_str(&src).map_err(|e| e.with_path(path))?;
    validate_snapshot(&snapshot).map_err(|e| e.with_path(path))?;
    restore_network(&snapshot).map_err(|e| match e {
        // Structure/plan inconsistencies in an on-disk snapshot are a
        // serialization problem to the caller — report them with the
        // damaged file's path.
        CoreError::Incompatible { message } => ser_err(message).with_path(path),
        other => other,
    })
}

/// Serializes an ANN snapshot as a JSON document (the ANN twin's
/// counterpart of [`NetworkSnapshot::to_json_string`]; ANNs carry no
/// execution plan).
pub fn ann_to_json_string(snapshot: &AnnSnapshot) -> String {
    Json::Obj(vec![
        ("version".into(), Json::Num(snapshot.version as f64)),
        (
            "layers".into(),
            Json::Arr(snapshot.layers.iter().map(layer_spec_to_json).collect()),
        ),
    ])
    .to_json_string()
}

/// Parses an ANN snapshot from a JSON document.
///
/// # Errors
///
/// Returns [`CoreError::Serialization`] for malformed documents,
/// carrying the byte offset of the parse failure.
pub fn ann_from_json_str(src: &str) -> Result<AnnSnapshot> {
    let doc = json::parse(src).map_err(|e| parse_err(&e))?;
    let version = num_field(&doc, "version", "snapshot")? as u32;
    let layers = doc
        .get("layers")
        .and_then(Json::as_array)
        .ok_or_else(|| ser_err("snapshot: missing layers array"))?
        .iter()
        .enumerate()
        .map(|(i, l)| layer_spec_from_json(l, &format!("layer[{i}]")))
        .collect::<Result<Vec<_>>>()?;
    Ok(AnnSnapshot { version, layers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_snn() -> SpikingNetwork {
        let cfg = SnnConfig {
            threshold: 0.8,
            time_steps: 8,
            leak: 0.9,
        };
        let mut rng = StdRng::seed_from_u64(5);
        SpikingNetwork::new(
            vec![
                Layer::spiking_conv2d(
                    &mut rng,
                    Conv2dSpec {
                        in_channels: 1,
                        out_channels: 2,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                    &cfg,
                ),
                Layer::avg_pool2d(2),
                Layer::flatten(),
                Layer::dropout(0.1),
                Layer::spiking_linear(&mut rng, 2 * 2 * 2, 6, &cfg),
                Layer::output_linear(&mut rng, 6, 3),
            ],
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn snn_snapshot_roundtrip_preserves_behaviour() {
        let mut original = sample_snn();
        let snapshot = snapshot_snn(&original).unwrap();
        let mut restored = restore_snn(&snapshot).unwrap();

        let mut rng = StdRng::seed_from_u64(0);
        let image = Tensor::full(&[1, 4, 4], 0.6);
        let a = original
            .classify(&image, Encoder::DirectCurrent, &mut rng)
            .unwrap();
        let b = restored
            .classify(&image, Encoder::DirectCurrent, &mut rng)
            .unwrap();
        assert_eq!(a, b, "restored network must classify identically");
        assert_eq!(original.depth(), restored.depth());
        assert_eq!(original.parameter_count(), restored.parameter_count());
    }

    #[test]
    fn snn_snapshot_restore_is_stable() {
        let original = sample_snn();
        let snapshot = snapshot_snn(&original).unwrap();
        let restored = restore_snn(&snapshot).unwrap();
        let again = snapshot_snn(&restored).unwrap();
        assert_eq!(snapshot.layers.len(), again.layers.len());
        assert_eq!(snapshot.config, again.config);
    }

    #[test]
    fn version_mismatch_rejected() {
        let original = sample_snn();
        let mut snapshot = snapshot_snn(&original).unwrap();
        snapshot.version = 999;
        assert!(restore_snn(&snapshot).is_err());
    }

    #[test]
    fn network_snapshot_json_roundtrip_is_value_exact() {
        let mut net = sample_snn();
        net.set_sparse_threshold(0.4);
        let snapshot = snapshot_network(&net).unwrap();
        let text = snapshot.to_json_string();
        let parsed = NetworkSnapshot::from_json_str(&text).unwrap();
        let restored = restore_network(&parsed).unwrap();

        // Weights restore bit-for-bit (shortest-roundtrip floats).
        for (a, b) in net.layers().iter().zip(restored.layers()) {
            if let (Some((wa, ba)), Some((wb, bb))) = (a.params(), b.params()) {
                assert_eq!(wa.value.as_slice(), wb.value.as_slice());
                assert_eq!(ba.value.as_slice(), bb.value.as_slice());
            }
            assert_eq!(a.sparse_threshold(), b.sparse_threshold());
        }
        // The serialized plan survives: thresholds and conv kernel
        // choices re-install.
        assert_eq!(restored.layers()[0].sparse_threshold(), Some(0.4));
        assert_eq!(
            restored.exec_plan().layers()[0].conv_batch,
            net.exec_plan().layers()[0].conv_batch
        );
        // Classification is identical.
        let mut rng = StdRng::seed_from_u64(3);
        let image = Tensor::full(&[1, 4, 4], 0.6);
        let mut restored = restored;
        let a = net
            .classify(&image, Encoder::DirectCurrent, &mut rng)
            .unwrap();
        let b = restored
            .classify(&image, Encoder::DirectCurrent, &mut rng)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn network_snapshot_file_roundtrip() {
        let net = sample_snn();
        let path = std::env::temp_dir().join("axsnn_network_snapshot.json");
        save_network(&net, &path).unwrap();
        let restored = load_network(&path).unwrap();
        assert_eq!(restored.depth(), net.depth());
        assert_eq!(restored.parameter_count(), net.parameter_count());
        assert_eq!(
            restored.exec_plan().eligibility(),
            net.exec_plan().eligibility()
        );
        let _ = std::fs::remove_file(&path);
        assert!(load_network(&path).is_err(), "missing file must error");
    }

    #[test]
    fn network_snapshot_rejects_malformed_documents() {
        assert!(NetworkSnapshot::from_json_str("not json").is_err());
        assert!(NetworkSnapshot::from_json_str("{}").is_err());
        assert!(NetworkSnapshot::from_json_str(
            r#"{"version": 1, "config": {"threshold": 1.0, "time_steps": 8, "leak": 0.9},
                "layers": [{"kind": "warp_drive"}], "plan": []}"#
        )
        .is_err());
        // A plan that does not align with the stack is rejected.
        let net = sample_snn();
        let mut snapshot = snapshot_network(&net).unwrap();
        snapshot.plan.pop();
        assert!(restore_network(&snapshot).is_err());
        let mut snapshot = snapshot_network(&net).unwrap();
        snapshot.plan[0].kind = "flatten".into();
        assert!(restore_network(&snapshot).is_err());
        let mut snapshot = snapshot_network(&net).unwrap();
        snapshot.version = 999;
        assert!(restore_network(&snapshot).is_err());
    }

    #[test]
    fn atomic_save_leaves_no_temp_files() {
        let net = sample_snn();
        let dir = std::env::temp_dir().join(format!("axsnn_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        // Save twice (second overwrites through a rename) and check the
        // directory contains only the final file.
        save_network(&net, &path).unwrap();
        save_network(&net, &path).unwrap();
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(entries, vec![std::ffi::OsString::from("snapshot.json")]);
        assert!(load_network(&path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_reports_path_and_offset() {
        let net = sample_snn();
        let path = std::env::temp_dir().join(format!("axsnn_corrupt_{}.json", std::process::id()));
        save_network(&net, &path).unwrap();
        // Damage the document partway through so the parser fails at a
        // known-ish offset.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.truncate(text.len() / 2);
        std::fs::write(&path, &text).unwrap();
        let err = load_network(&path).unwrap_err();
        match &err {
            CoreError::Serialization {
                path: p, offset, ..
            } => {
                assert_eq!(p.as_deref(), Some(path.display().to_string().as_str()));
                assert!(offset.is_some(), "parse failure must carry a byte offset");
            }
            other => panic!("expected Serialization, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("at byte"), "display must show offset: {msg}");
        assert!(
            msg.contains(&path.display().to_string()),
            "display must show path: {msg}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validate_snapshot_rejects_non_finite_weights() {
        let net = sample_snn();
        let snapshot = snapshot_network(&net).unwrap();
        assert!(validate_snapshot(&snapshot).is_ok());

        // NaN weight in the first parameterized layer.
        let mut bad = snapshot.clone();
        if let LayerSpec::Conv { weight, .. } = &mut bad.snn.layers[0] {
            weight.as_mut_slice()[1] = f32::NAN;
        } else {
            panic!("sample_snn layer 0 should be a conv");
        }
        let err = validate_snapshot(&bad).unwrap_err();
        assert!(matches!(err, CoreError::Serialization { .. }));
        let msg = err.to_string();
        assert!(msg.contains("layer[0]"), "must name the layer: {msg}");
        assert!(msg.contains("weight"), "must name the tensor: {msg}");

        // Infinite bias in a later layer reports that layer's index.
        let mut bad = snapshot.clone();
        if let LayerSpec::Linear { bias, .. } = &mut bad.snn.layers[4] {
            bias.as_mut_slice()[0] = f32::INFINITY;
        } else {
            panic!("sample_snn layer 4 should be a linear");
        }
        let msg = validate_snapshot(&bad).unwrap_err().to_string();
        assert!(msg.contains("layer[4]"), "must name the layer: {msg}");
        assert!(msg.contains("bias"), "must name the tensor: {msg}");

        // Misaligned plan and NaN plan thresholds are caught too.
        let mut bad = snapshot.clone();
        bad.plan.pop();
        assert!(validate_snapshot(&bad).is_err());
        let mut bad = snapshot.clone();
        bad.plan[0].threshold = Some(f32::NAN);
        let msg = validate_snapshot(&bad).unwrap_err().to_string();
        assert!(msg.contains("layer[0]"), "must name the layer: {msg}");
    }

    #[test]
    fn load_rejects_structure_mismatch_with_path() {
        // A snapshot whose plan disagrees with the layer stack parses
        // fine but must fail to load as Serialization carrying the
        // file's path and the offending layer index — hot swap relies
        // on this to never install a damaged model.
        let net = sample_snn();
        let mut snapshot = snapshot_network(&net).unwrap();
        snapshot.plan[2].kind = "dropout".into();
        let path = std::env::temp_dir().join(format!("axsnn_mismatch_{}.json", std::process::id()));
        std::fs::write(&path, snapshot.to_json_string()).unwrap();
        let err = load_network(&path).unwrap_err();
        match &err {
            CoreError::Serialization { path: p, .. } => {
                assert_eq!(p.as_deref(), Some(path.display().to_string().as_str()));
            }
            other => panic!("expected Serialization, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("layer[2]"), "must name the layer: {msg}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn weight_plane_survives_json_roundtrip() {
        for plane in [WeightPlane::F16, WeightPlane::Int8] {
            let mut net = sample_snn();
            net.set_weight_plane(plane).unwrap();
            let snapshot = snapshot_network(&net).unwrap();
            // Param layers record the plane; pools and friends do not.
            assert_eq!(snapshot.plan[0].plane, Some(plane));
            assert_eq!(snapshot.plan[1].plane, None);
            if plane == WeightPlane::Int8 {
                assert!(snapshot.plan[0].plane_scale.is_some());
            }

            let text = snapshot.to_json_string();
            let parsed = NetworkSnapshot::from_json_str(&text).unwrap();
            assert_eq!(parsed.plan, snapshot.plan);
            let mut restored = restore_network(&parsed).unwrap();
            assert_eq!(restored.weight_plane(), plane);
            // The restored plane buffers are value-exact: same
            // dequantized weights, same int8 scale, same classification.
            for (a, b) in net.layers().iter().zip(restored.layers()) {
                assert_eq!(a.weight_plane(), b.weight_plane());
                assert_eq!(a.weight_plane_scale(), b.weight_plane_scale());
                if let (Some((wa, ba)), Some((wb, bb))) = (a.eff_params(), b.eff_params()) {
                    assert_eq!(wa.as_slice(), wb.as_slice());
                    assert_eq!(ba.as_slice(), bb.as_slice());
                }
            }
            let mut rng = StdRng::seed_from_u64(3);
            let image = Tensor::full(&[1, 4, 4], 0.6);
            let a = net
                .classify(&image, Encoder::DirectCurrent, &mut rng)
                .unwrap();
            let b = restored
                .classify(&image, Encoder::DirectCurrent, &mut rng)
                .unwrap();
            assert_eq!(a, b, "restored {plane} network must classify identically");
        }
    }

    #[test]
    fn pre_plane_snapshots_still_load() {
        // A snapshot written before planes existed has no "plane" /
        // "plane_scale" keys at all; it must parse to None and load at
        // full precision.
        let net = sample_snn();
        let text = snapshot_network(&net).unwrap().to_json_string();
        let stripped: String = text
            .replace(",\"plane\":null", "")
            .replace(",\"plane\":\"f32\"", "")
            .replace(",\"plane_scale\":null", "");
        assert!(!stripped.contains("plane"), "test must strip every key");
        let parsed = NetworkSnapshot::from_json_str(&stripped).unwrap();
        assert!(parsed.plan.iter().all(|p| p.plane.is_none()));
        let restored = restore_network(&parsed).unwrap();
        assert_eq!(restored.weight_plane(), WeightPlane::F32);
    }

    #[test]
    fn validate_snapshot_rejects_bad_planes() {
        let mut net = sample_snn();
        net.set_weight_plane(WeightPlane::Int8).unwrap();
        let snapshot = snapshot_network(&net).unwrap();
        assert!(validate_snapshot(&snapshot).is_ok());

        // A plane on a layer without weights is structural corruption.
        let mut bad = snapshot.clone();
        bad.plan[1].plane = Some(WeightPlane::F16);
        let msg = validate_snapshot(&bad).unwrap_err().to_string();
        assert!(msg.contains("layer[1]"), "must name the layer: {msg}");
        assert!(msg.contains("without weights"), "{msg}");

        // plane_scale is int8-only, and must be finite and non-negative.
        let mut bad = snapshot.clone();
        bad.plan[0].plane = Some(WeightPlane::F16);
        let msg = validate_snapshot(&bad).unwrap_err().to_string();
        assert!(msg.contains("int8"), "{msg}");
        let mut bad = snapshot.clone();
        bad.plan[0].plane_scale = Some(f32::NAN);
        assert!(validate_snapshot(&bad).is_err());

        // An unknown plane name is rejected at parse time.
        let text = snapshot.to_json_string().replace("\"int8\"", "\"int4\"");
        assert!(NetworkSnapshot::from_json_str(&text).is_err());

        // A stored int8 scale that disagrees with the weights fails to
        // restore: the snapshot's plane entry belongs to another model.
        let mut bad = snapshot.clone();
        bad.plan[0].plane_scale = Some(snapshot.plan[0].plane_scale.unwrap() * 2.0);
        let err = restore_network(&bad).unwrap_err();
        assert!(
            err.to_string().contains("does not match"),
            "expected scale mismatch, got {err}"
        );
    }

    #[test]
    fn ann_snapshot_json_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        let ann = AnnNetwork::new(vec![
            AnnLayer::linear_relu(&mut rng, 4, 8),
            AnnLayer::linear_out(&mut rng, 8, 3),
        ])
        .unwrap();
        let snapshot = snapshot_ann(&ann).unwrap();
        let text = ann_to_json_string(&snapshot);
        let parsed = ann_from_json_str(&text).unwrap();
        let restored = restore_ann(&parsed).unwrap();
        let x = Tensor::full(&[4], 0.7);
        assert_eq!(
            ann.forward(&x).unwrap().as_slice(),
            restored.forward(&x).unwrap().as_slice()
        );
        assert!(ann_from_json_str("[]").is_err());
    }

    #[test]
    fn ann_snapshot_roundtrip() {
        let mut rng = StdRng::seed_from_u64(6);
        let ann = AnnNetwork::new(vec![
            AnnLayer::conv_relu(
                &mut rng,
                Conv2dSpec {
                    in_channels: 1,
                    out_channels: 2,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
            ),
            AnnLayer::Flatten,
            AnnLayer::linear_relu(&mut rng, 2 * 4 * 4, 8),
            AnnLayer::Dropout { probability: 0.2 },
            AnnLayer::linear_out(&mut rng, 8, 3),
        ])
        .unwrap();
        let snapshot = snapshot_ann(&ann).unwrap();
        let restored = restore_ann(&snapshot).unwrap();
        let image = Tensor::full(&[1, 4, 4], 0.4);
        assert_eq!(
            ann.forward(&image).unwrap(),
            restored.forward(&image).unwrap()
        );
    }
}
