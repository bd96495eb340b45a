//! Golden pin for the hero functional run: SpInfer at the paper's Fig. 1
//! point (LLaMA2-70B FFN projection, 28672×8192, N=16, s=0.6, seed 0).
//!
//! The run executes once at one host job and once at the default job
//! count. Both must agree on the FP32 output checksum, the simulated-time
//! bits and the merged-counter digest, and all three are pinned. The
//! hero-shape analytic estimates of the whole roster are pinned
//! elsewhere (`tests/determinism.rs`, `tests/golden/spmm_pins.txt`);
//! this file covers the functional path at the same shape.
//!
//! The shape takes tens of seconds per launch in a release build, so the
//! test is ignored in debug builds: run it with
//! `cargo test --release --test golden_hero`.

use gpu_sim::exec;
use gpu_sim::matrix::checksum_f32;
use gpu_sim::GpuSpec;
use spinfer_bench::sweep::{run_functional, EncodeCache, SweepPoint};
use spinfer_bench::{HERO_K, HERO_M};
use spinfer_core::spmm::SpmmRun;

const CHECKSUM: u64 = 0x10e3011fe664dd92;
const TIME_US_BITS: u64 = 0x40706f6080bb3ee7;
const DIGEST: u64 = 0x2d555c0f3a2135b1;

/// `(output checksum, simulated-time bits, merged-counter digest)`.
fn pins(run: &SpmmRun) -> (u64, u64, u64) {
    (
        checksum_f32(run.output.as_ref().expect("functional output")),
        run.time_us().to_bits(),
        run.chain.merged_counters().digest(),
    )
}

/// One `#[test]` on purpose: `exec::set_jobs` is process-global.
#[test]
#[cfg_attr(debug_assertions, ignore = "hero shape: run with --release")]
fn hero_functional_run_matches_the_pins_at_any_job_count() {
    let spec = GpuSpec::rtx4090();
    let point = SweepPoint {
        m: HERO_M,
        k: HERO_K,
        n: 16,
        sparsity: 0.6,
        kernel: "SpInfer",
    };
    let cache = EncodeCache::new();

    exec::set_jobs(1);
    let serial = pins(&run_functional(&cache, &spec, &point, 0));
    exec::set_jobs(0);
    let pooled = pins(&run_functional(&cache, &spec, &point, 0));

    assert_eq!(serial, pooled, "job count changed the hero run");
    let (checksum, time_bits, digest) = serial;
    assert_eq!(
        checksum, CHECKSUM,
        "output checksum drifted: {checksum:#018x}"
    );
    assert_eq!(
        time_bits, TIME_US_BITS,
        "simulated time drifted: {time_bits:#018x}"
    );
    assert_eq!(digest, DIGEST, "counter digest drifted: {digest:#018x}");
}
