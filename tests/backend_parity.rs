//! Backend-parity suite.
//!
//! Bit-exactness of the default path: `fedms_tensor::kernels` holds the
//! code that predates the backend abstraction, changed since only in loop
//! nests that keep every output element's f32 operation sequence, so a full
//! engine run must stay byte-identical to the pre-refactor engine. The digests below
//! were recorded from the engine *before* the backend subsystem was
//! introduced, so any arithmetic drift in the default path — reordered
//! reductions, changed scratch-buffer contents, different iteration order —
//! fails these tests.

use fedms::core::fnv1a64;
use fedms::{FedMsConfig, ModelSpec};

/// Canonical byte serialization of a run: the full `RunResult` JSON.
/// Accuracy/loss are f32s formatted by serde_json's shortest-roundtrip
/// float printer, so equal digests mean bit-equal trajectories.
fn run_digest(cfg: &FedMsConfig) -> u64 {
    let result = cfg.run().expect("engine run");
    let json = serde_json::to_string(&result).expect("serialize RunResult");
    fnv1a64(json.as_bytes())
}

/// A tiny MLP federation with Byzantine servers and the paper's filter —
/// exercises linear layers, softmax-CE loss, SGD, and trimmed-mean
/// aggregation end to end.
fn mlp_cfg() -> FedMsConfig {
    let mut cfg = FedMsConfig::tiny(7);
    cfg.byzantine_count = 1;
    cfg.parallel = true; // client-parallel phases are bit-identical
    cfg
}

/// A miniature MobileNet federation — exercises conv/depthwise-conv
/// forward/backward (im2col/col2im) through the engine.
fn nano_cfg() -> FedMsConfig {
    let mut cfg = FedMsConfig::tiny(11);
    cfg.clients = 4;
    cfg.rounds = 2;
    cfg.model = ModelSpec::MobileNetNano(fedms::MobileNetNanoConfig {
        in_channels: 1,
        in_h: 4,
        in_w: 4,
        stem_channels: 4,
        blocks: vec![(2, 4, 1)],
        num_classes: 4,
    });
    cfg
}

/// Digest of `mlp_cfg()` recorded on the pre-backend engine.
const MLP_DIGEST: u64 = 3679570173011649185;
/// Digest of `nano_cfg()` recorded on the pre-backend engine.
const NANO_DIGEST: u64 = 4397706935609085444;

#[test]
fn scalar_backend_mlp_run_is_byte_identical_to_pre_refactor() {
    assert_eq!(
        run_digest(&mlp_cfg()),
        MLP_DIGEST,
        "default (scalar) MLP trajectory drifted from the pre-backend engine"
    );
}

#[test]
fn scalar_backend_conv_run_is_byte_identical_to_pre_refactor() {
    assert_eq!(
        run_digest(&nano_cfg()),
        NANO_DIGEST,
        "default (scalar) conv trajectory drifted from the pre-backend engine"
    );
}
