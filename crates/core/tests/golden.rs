//! Pins the trained bits of the paper's final pipeline across releases.
//!
//! `parallel_equivalence` proves an artifact does not depend on the worker
//! count; this suite proves it does not drift between versions of the
//! trainer. A change to split finding, boosting, feature selection or the
//! artifact format that moves a single threshold, leaf value or gain moves
//! the hash. Such a change must say so and re-pin the value here.

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

#[test]
fn paper_final_artifact_hash_is_pinned() {
    let ds = generate(&GeneratorConfig::default());
    let train = ds.split(7).train;
    let inputs = PipelineInputs::build_for(&ds, &train, 10.0);
    let pipeline =
        TrainedPipeline::fit_threaded(&inputs, &train, &PipelineConfig::paper_final(), 1);
    let hash = fnv1a64(save_pipeline(&pipeline).as_bytes());
    assert_eq!(
        hash, 0x0575_be54_5643_a815,
        "paper_final artifact hash {hash:#018x}"
    );
}
