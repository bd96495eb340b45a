//! Serving-engine robustness: config validation rejects unservable
//! workloads with typed errors, and the one serving loop either serves
//! or returns a typed error on every config that validates — it never
//! panics.

use gpu_sim::GpuSpec;
use proptest::prelude::*;
use spinfer_core::spmm::LaunchCtx;
use spinfer_core::SpinferError;
use spinfer_llm::{
    serve_spec_ctx, ClusterConfig, Framework, LengthMix, ModelConfig, ServingConfig, SpecConfig,
    TreeShape,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn cfg() -> ServingConfig {
    ServingConfig {
        model: ModelConfig::opt_13b(),
        framework: Framework::SpInfer,
        sparsity: 0.6,
        tp: 2,
        max_batch: 32,
        arrival_rps: 2.0,
        input_len: 64,
        output_len: 128,
        duration_sec: 60.0,
        mix: LengthMix::Uniform,
    }
}

/// Breaks one field of a valid config.
type Breaker = fn(&mut ServingConfig);

#[test]
fn validation_rejects_unservable_workloads_with_typed_errors() {
    assert!(cfg().validate().is_ok());
    let cases: [(&str, Breaker); 8] = [
        ("tp", |c| c.tp = 0),
        ("max_batch", |c| c.max_batch = 0),
        ("arrival_rps", |c| c.arrival_rps = 0.0),
        ("arrival_rps", |c| c.arrival_rps = f64::NAN),
        ("duration_sec", |c| c.duration_sec = -1.0),
        ("duration_sec", |c| c.duration_sec = f64::NAN),
        ("input_len", |c| c.input_len = 0),
        ("input_len", |c| {
            c.mix = LengthMix::RoundRobin(vec![(32, 32), (0, 16)]);
        }),
    ];
    for (field, break_it) in cases {
        let mut c = cfg();
        break_it(&mut c);
        match c.validate() {
            Err(SpinferError::InvalidServing { reason }) => {
                assert!(reason.contains(field), "{reason:?} missing {field:?}");
            }
            other => panic!("{field}: expected InvalidServing, got {other:?}"),
        }
    }
}

#[test]
fn the_fleet_shares_the_workload_checks() {
    for c in [
        ClusterConfig {
            input_len: 0,
            ..ClusterConfig::default()
        },
        ClusterConfig {
            tp: 0,
            ..ClusterConfig::default()
        },
    ] {
        assert!(
            matches!(c.validate(), Err(SpinferError::InvalidCluster { .. })),
            "{c:?}"
        );
    }
}

#[test]
fn infeasible_deployment_is_a_typed_error_from_the_loop() {
    let spec = GpuSpec::rtx4090();
    let c = ServingConfig {
        framework: Framework::FasterTransformer,
        tp: 1, // Dense OPT-13B does not fit one 24 GB GPU.
        ..cfg()
    };
    assert!(c.validate().is_ok(), "fitting is not a config-time check");
    let err = serve_spec_ctx(&LaunchCtx::new(&spec), &c, &SpecConfig::default()).unwrap_err();
    assert!(matches!(err, SpinferError::CannotFit { tree_nodes: 8, .. }));
    assert!(err
        .to_string()
        .contains("cannot fit a single request with a 8-node tree"));
}

const FRAMEWORKS: [Framework; 5] = [
    Framework::SpInfer,
    Framework::SpInferInt8,
    Framework::FlashLlm,
    Framework::FasterTransformer,
    Framework::DeepSpeed,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every config that passes both validations is served or rejected
    /// with a typed error — never a panic.
    #[test]
    fn validated_configs_serve_or_fail_typed(
        fw in 0usize..FRAMEWORKS.len(),
        tp in 1usize..=4,
        max_batch in 0usize..=48,
        lengths in (0usize..=1024, 0usize..=256, 0usize..=2),
        rate in 0.0f64..60.0,
        horizon in 0.0f64..8.0,
        tree in (0usize..=4, 0usize..=5, 0usize..=80),
        mix_and_spec in (0.0f64..1.0, 0.0f64..1.0, any::<u64>()),
    ) {
        let (input_len, output_len, mix_kind) = lengths;
        let (share, acceptance_rate, seed) = mix_and_spec;
        let mix = match mix_kind {
            0 => LengthMix::Uniform,
            1 => LengthMix::RoundRobin(vec![(input_len, output_len), (16, 8)]),
            _ => LengthMix::RoundRobin(vec![]),
        };
        let serving = ServingConfig {
            framework: FRAMEWORKS[fw],
            tp,
            max_batch,
            arrival_rps: rate,
            input_len,
            output_len,
            duration_sec: horizon,
            mix,
            ..cfg()
        };
        let spec_cfg = SpecConfig {
            shape: TreeShape::new(tree.0, tree.1, tree.2),
            acceptance_rate,
            spec_share: share,
            seed,
            ..SpecConfig::default()
        };
        if serving.validate().is_ok() && spec_cfg.validate().is_ok() {
            let gpu = GpuSpec::rtx4090();
            let run = catch_unwind(AssertUnwindSafe(|| {
                serve_spec_ctx(&LaunchCtx::new(&gpu), &serving, &spec_cfg)
            }));
            prop_assert!(run.is_ok(), "panicked on {serving:?} / {spec_cfg:?}");
            match run.unwrap() {
                Ok(r) => {
                    prop_assert!(r.serving.tokens_per_sec.is_finite());
                    prop_assert!(r.serving.max_concurrency <= max_batch);
                }
                Err(e) => prop_assert!(
                    matches!(e, SpinferError::CannotFit { .. }),
                    "untyped failure {e:?}"
                ),
            }
        }
    }
}
