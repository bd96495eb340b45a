//! Speculative-decoding gates: sampler determinism, degenerate
//! collapse, the high-acceptance speedup, and fleet integration.
//!
//! The headline acceptance criteria for the spec subsystem:
//!
//! * **Sampler determinism** — the accepted-prefix length is a pure
//!   function of `(seed, request, step)`: stable across calls, across
//!   host job counts 1/2/8, and monotone non-decreasing in the
//!   acceptance rate (same uniform draw, growing threshold).
//! * **Degenerate collapse** — under [`SpecConfig::degenerate`] the
//!   speculative serving loop reproduces the incremental path's report
//!   *and* trace bytes exactly.
//! * **Speculation pays where it should** — at acceptance 0.8 the
//!   tree-verify loop beats incremental tokens/s on a saturated
//!   workload; at acceptance 0.0 the same tree only burns draft and
//!   rollback work and loses.
//! * **Byte-identity** — spec metrics snapshots and Chrome traces are
//!   identical at host job counts 1, 2, and 8.

use gpu_sim::exec;
use gpu_sim::trace::TraceSink;
use gpu_sim::GpuSpec;
use proptest::prelude::*;
use spinfer_core::spmm::LaunchCtx;
use spinfer_llm::spec::AcceptanceModel;
use spinfer_llm::{
    serve_spec_ctx, simulate_cluster, ClusterConfig, LengthMix, ModelConfig, ServingConfig,
    SpecConfig, TreeShape,
};
use spinfer_obs::Registry;

fn serving_cfg(arrival_rps: f64) -> ServingConfig {
    ServingConfig {
        model: ModelConfig::opt_13b(),
        framework: spinfer_llm::Framework::SpInfer,
        sparsity: 0.6,
        tp: 1,
        max_batch: 16,
        arrival_rps,
        input_len: 64,
        output_len: 64,
        duration_sec: 20.0,
        mix: LengthMix::Uniform,
    }
}

/// One instrumented speculative run → (report debug, metrics snapshot
/// JSON, trace JSON).
fn spec_artifacts(cfg: &ServingConfig, spec_cfg: &SpecConfig) -> (String, String, String) {
    let spec = GpuSpec::rtx4090();
    let sink = TraceSink::new();
    let report = serve_spec_ctx(&LaunchCtx::new(&spec).with_sink(&sink), cfg, spec_cfg).unwrap();
    let mut reg = Registry::new();
    report.write_metrics(&mut reg, "spec.run");
    (
        format!("{report:?}"),
        reg.snapshot_json(),
        spinfer_obs::export(&sink.finish()),
    )
}

#[test]
fn degenerate_spec_reproduces_incremental_report_and_trace_bytes() {
    let spec = GpuSpec::rtx4090();
    let cfg = serving_cfg(4.0);

    let sink = TraceSink::new();
    let incremental = serve_spec_ctx(
        &LaunchCtx::new(&spec).with_sink(&sink),
        &cfg,
        &SpecConfig::degenerate(),
    )
    .unwrap()
    .serving;
    let incremental_trace = spinfer_obs::export(&sink.finish());

    let sink = TraceSink::new();
    let collapsed = serve_spec_ctx(
        &LaunchCtx::new(&spec).with_sink(&sink),
        &cfg,
        &SpecConfig::degenerate(),
    )
    .unwrap();
    let collapsed_trace = spinfer_obs::export(&sink.finish());

    assert_eq!(
        format!("{incremental:?}"),
        format!("{:?}", collapsed.serving),
        "degenerate spec must collapse onto the incremental report"
    );
    assert_eq!(
        incremental_trace, collapsed_trace,
        "degenerate spec must emit the incremental trace byte-for-byte"
    );
    spinfer_obs::validate(&collapsed_trace).expect("spec trace must be structurally valid");
    // Nothing speculative happened: the ledger stays empty.
    let t = collapsed.stats;
    assert_eq!(
        (t.spec_iterations, t.proposed, t.accepted, t.bonus),
        (0, 0, 0, 0)
    );
}

#[test]
fn high_acceptance_beats_incremental_and_zero_acceptance_loses() {
    let spec = GpuSpec::rtx4090();
    // Saturated arrivals: the decode loop is launch-bound, which is the
    // regime where folding candidates into one wide-N pass pays.
    let cfg = serving_cfg(50.0);
    let baseline = spinfer_llm::serve(&spec, &cfg);

    let fast = spinfer_llm::serve_spec(
        &spec,
        &cfg,
        &SpecConfig {
            acceptance_rate: 0.8,
            ..SpecConfig::default()
        },
    );
    assert!(
        fast.serving.tokens_per_sec > baseline.tokens_per_sec * 1.2,
        "acceptance 0.8 must beat incremental: {} vs {}",
        fast.serving.tokens_per_sec,
        baseline.tokens_per_sec
    );
    assert!(fast.stats.accepted > 0 && fast.stats.bonus > 0);

    let slow = spinfer_llm::serve_spec(
        &spec,
        &cfg,
        &SpecConfig {
            acceptance_rate: 0.0,
            ..SpecConfig::default()
        },
    );
    assert!(
        slow.serving.tokens_per_sec < baseline.tokens_per_sec,
        "acceptance 0.0 with a real tree must lose: {} vs {}",
        slow.serving.tokens_per_sec,
        baseline.tokens_per_sec
    );
    assert_eq!(slow.stats.accepted, 0);
    assert!(slow.stats.rolled_back > 0, "rejects must roll back");
}

#[test]
fn spec_metrics_and_trace_are_byte_identical_across_job_counts() {
    let cfg = serving_cfg(8.0);
    let spec_cfg = SpecConfig {
        acceptance_rate: 0.8,
        seed: 42,
        ..SpecConfig::default()
    };
    let mut artifacts = Vec::new();
    for jobs in [1usize, 2, 8] {
        exec::set_jobs(jobs);
        artifacts.push(spec_artifacts(&cfg, &spec_cfg));
    }
    exec::set_jobs(0);
    let (r1, m1, t1) = &artifacts[0];
    for (jobs, (r, m, t)) in [2usize, 8].iter().zip(&artifacts[1..]) {
        assert_eq!(r1, r, "report diverged at --jobs {jobs}");
        assert_eq!(m1, m, "metrics snapshot diverged at --jobs {jobs}");
        assert_eq!(t1, t, "trace bytes diverged at --jobs {jobs}");
    }
    // The artifacts carry the headline speculation surface.
    assert!(m1.contains("spec.run.tokens_per_sec"));
    assert!(m1.contains("spec.run.acceptance_observed"));
    assert!(m1.contains("spec.run.rolled_back"));
    assert!(t1.contains("\"draft\""));
    assert!(t1.contains("\"verify\""));
    assert!(t1.contains("\"accept\""));
    spinfer_obs::validate(t1).expect("spec trace must be structurally valid");
}

#[test]
fn speculative_fleet_serves_and_degenerate_fleet_is_invisible() {
    let spec = GpuSpec::rtx4090();
    let cfg = ClusterConfig {
        replicas: 2,
        arrival_rps: 4.0,
        duration_sec: 10.0,
        max_batch: 8,
        input_len: 64,
        output_len: 16,
        seed: 9,
        ..ClusterConfig::default()
    };

    let speculative = simulate_cluster(
        &spec,
        &ClusterConfig {
            spec: Some(SpecConfig {
                acceptance_rate: 0.8,
                ..SpecConfig::default()
            }),
            ..cfg.clone()
        },
        None,
    )
    .expect("speculative fleet config is valid");
    assert!(speculative.spec_requests > 0, "{speculative:?}");
    assert!(speculative.spec_accepted > 0, "{speculative:?}");
    assert!(speculative.completed > 0, "{speculative:?}");

    // A degenerate spec config must be indistinguishable from no spec
    // config at all — same report, field for field.
    let without = simulate_cluster(&spec, &cfg, None).unwrap();
    let degenerate = simulate_cluster(
        &spec,
        &ClusterConfig {
            spec: Some(SpecConfig::degenerate()),
            ..cfg.clone()
        },
        None,
    )
    .unwrap();
    assert_eq!(format!("{without:?}"), format!("{degenerate:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The accepted-prefix length is a pure function of
    /// `(seed, request, step)`: stable across calls and across host job
    /// counts, and bounded by the tree's path depth.
    #[test]
    fn accepted_len_is_seed_stable_and_job_count_invariant(
        seed in any::<u64>(),
        req in any::<u64>(),
        step in any::<u64>(),
        rate in 0.0f64..1.0,
    ) {
        let tree = TreeShape::new(2, 3, 8).build();
        let m = AcceptanceModel::new(rate);
        let reference = m.accepted_len(seed, req, step, &tree);
        prop_assert!(reference <= tree.path_depth());
        for jobs in [1usize, 2, 8] {
            exec::set_jobs(jobs);
            prop_assert_eq!(m.accepted_len(seed, req, step, &tree), reference);
        }
        exec::set_jobs(0);
        prop_assert_eq!(m.accepted_len(seed, req, step, &tree), reference);
    }

    /// For a fixed site, raising the acceptance rate can only extend the
    /// accepted prefix: each level's uniform draw is pinned by the site
    /// hash while its accept threshold grows with the rate.
    #[test]
    fn accepted_len_is_monotone_in_rate(
        seed in any::<u64>(),
        req in any::<u64>(),
        step in any::<u64>(),
        lo in 0.0f64..1.0,
        hi in 0.0f64..1.0,
    ) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let tree = TreeShape::new(2, 3, 8).build();
        let at_lo = AcceptanceModel::new(lo).accepted_len(seed, req, step, &tree);
        let at_hi = AcceptanceModel::new(hi).accepted_len(seed, req, step, &tree);
        prop_assert!(at_lo <= at_hi, "rate {lo} accepted {at_lo} > rate {hi} accepted {at_hi}");
    }
}
