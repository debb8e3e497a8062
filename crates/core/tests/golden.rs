//! Pins the trained bits of two pipelines across releases.
//!
//! `parallel_equivalence` proves an artifact does not depend on the worker
//! count; this suite proves it does not drift between versions of the
//! trainer. A change to split finding, boosting, feature selection or the
//! artifact format that moves a single threshold, leaf value or gain moves
//! a hash. Such a change must say so and re-pin the value here.
//!
//! The two pins reach the two ways a tree orders its root rows:
//! `paper_final` fits every round on all rows in order (`subsample = 1`),
//! so its trees copy the fit-wide column orders; the stacked `default0`
//! with `subsample = 0.8` fits each round on a shuffled subset, which
//! takes the stable counting sort, and it also trains the static base
//! model.

use domd_core::{save_pipeline, PipelineConfig, PipelineInputs, TrainedPipeline};
use domd_data::{generate, GeneratorConfig};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a hash of the `save_pipeline` artifact `config` trains on the
/// default data's `split(7)` training avails at one thread.
fn artifact_hash(config: &PipelineConfig) -> u64 {
    let ds = generate(&GeneratorConfig::default());
    let train = ds.split(7).train;
    let inputs = PipelineInputs::build_for(&ds, &train, config.grid_step);
    let pipeline = TrainedPipeline::fit_threaded(&inputs, &train, config, 1);
    fnv1a64(save_pipeline(&pipeline).as_bytes())
}

#[test]
fn paper_final_artifact_hash_is_pinned() {
    let hash = artifact_hash(&PipelineConfig::paper_final());
    assert_eq!(
        hash, 0x0575_be54_5643_a815,
        "paper_final artifact hash {hash:#018x}"
    );
}

#[test]
fn stacked_subsampled_artifact_hash_is_pinned() {
    let mut config = PipelineConfig { stacked: true, ..PipelineConfig::default0() };
    config.gbt.subsample = 0.8;
    let hash = artifact_hash(&config);
    assert_eq!(
        hash, 0xb335_a11a_338d_5ba4,
        "stacked subsample-0.8 artifact hash {hash:#018x}"
    );
}
