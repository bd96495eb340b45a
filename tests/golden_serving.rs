//! Golden pins for the serving engine and the fleet simulator.
//!
//! Every report field of a fixed set of `serve`, `serve_spec` and
//! `simulate_cluster` runs is rendered into text — counts in decimal,
//! every `f64` as its exact bit pattern — and compared against
//! `tests/golden/serving_pins.txt`. Two traced runs are pinned by an
//! FNV-1a hash of their exported Chrome-trace bytes.
//!
//! The pins exist so that refactors of the decode loop, the step
//! pricer, or the fleet event loop are provably output-neutral: a
//! legitimate model change re-pins the file in the same commit and says
//! why; a refactor never touches it.

use gpu_sim::trace::TraceSink;
use gpu_sim::GpuSpec;
use spinfer_core::spmm::LaunchCtx;
use spinfer_llm::{
    serve, serve_spec, serve_spec_ctx, simulate_cluster, simulate_cluster_instrumented,
    ClusterConfig, ClusterFaultPlan, ClusterReport, Framework, LengthMix, ModelConfig,
    ServingConfig, ServingReport, SpecConfig, SpecServingReport,
};
use spinfer_obs::Registry;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/serving_pins.txt");

/// Line-per-field text rendering of a report.
#[derive(Default)]
struct Pins(String);

impl Pins {
    fn section(&mut self, name: &str) {
        writeln!(self.0, "[{name}]").unwrap();
    }

    fn n(&mut self, field: &str, v: u64) {
        writeln!(self.0, "{field} = {v}").unwrap();
    }

    fn f(&mut self, field: &str, v: f64) {
        writeln!(self.0, "{field} = {:#018x} ({v:?})", v.to_bits()).unwrap();
    }

    fn serving(&mut self, r: &ServingReport) {
        self.n("completed", r.completed as u64);
        self.n("in_flight", r.in_flight as u64);
        self.f("throughput_rps", r.throughput_rps);
        self.f("tokens_per_sec", r.tokens_per_sec);
        self.f("mean_latency_sec", r.mean_latency_sec);
        self.f("p95_latency_sec", r.p95_latency_sec);
        self.f("mean_batch", r.mean_batch);
        self.n("max_concurrency", r.max_concurrency as u64);
        self.n("iterations", r.iterations as u64);
        self.f("tokens_per_iteration", r.tokens_per_iteration);
    }

    fn spec(&mut self, r: &SpecServingReport) {
        self.serving(&r.serving);
        let s = &r.stats;
        self.n("stats.spec_requests", s.spec_requests);
        self.n("stats.plain_requests", s.plain_requests);
        self.n("stats.spec_iterations", s.spec_iterations);
        self.n("stats.verify_tokens", s.verify_tokens);
        self.n("stats.proposed", s.proposed);
        self.n("stats.accepted", s.accepted);
        self.n("stats.bonus", s.bonus);
        self.n("stats.rolled_back", s.rolled_back);
        self.n("stats.draft_tokens", s.draft_tokens);
        self.f("stats.draft_sec", s.draft_sec);
        self.f("stats.verify_sec", s.verify_sec);
    }

    fn cluster(&mut self, r: &ClusterReport) {
        self.n("arrivals", r.arrivals);
        self.n("completed", r.completed);
        self.n("completed_in_slo", r.completed_in_slo);
        self.n("failed", r.failed);
        self.n("incomplete", r.incomplete);
        self.n("retries", r.retries);
        self.n("shed", r.shed);
        self.n("timeouts", r.timeouts);
        self.n("crashes", r.crashes);
        self.n("recoveries", r.recoveries);
        self.n("launch_faults", r.launch_faults);
        self.n("slow_steps", r.slow_steps);
        self.n("degrade_escalations", r.degrade_escalations);
        self.n("degrade_deescalations", r.degrade_deescalations);
        self.n("degraded_rejects", r.degraded_rejects);
        self.n("routed_to_down", r.routed_to_down);
        self.n("spec_requests", r.spec_requests);
        self.n("spec_steps", r.spec_steps);
        self.n("spec_proposed", r.spec_proposed);
        self.n("spec_accepted", r.spec_accepted);
        self.n("spec_bonus", r.spec_bonus);
        self.n("spec_rolled_back", r.spec_rolled_back);
        self.f("goodput_rps", r.goodput_rps);
        self.f("throughput_rps", r.throughput_rps);
        self.f("p50_latency_s", r.p50_latency_s);
        self.f("p95_latency_s", r.p95_latency_s);
        self.f("p99_latency_s", r.p99_latency_s);
        for (i, s) in r.per_replica.iter().enumerate() {
            self.n(&format!("replica{i}.completed"), s.completed);
            self.n(&format!("replica{i}.crashes"), s.crashes);
            self.n(&format!("replica{i}.steps"), s.steps);
            self.f(&format!("replica{i}.p50_latency_s"), s.p50_latency_s);
            self.f(&format!("replica{i}.p95_latency_s"), s.p95_latency_s);
            self.f(&format!("replica{i}.p99_latency_s"), s.p99_latency_s);
            self.n(&format!("replica{i}.final_queue"), s.final_queue as u64);
            self.n(&format!("replica{i}.final_level"), u64::from(s.final_level));
        }
    }

    fn artifact(&mut self, field: &str, bytes: &str) {
        self.n(&format!("{field}.len"), bytes.len() as u64);
        writeln!(self.0, "{field}.fnv1a = {:#018x}", fnv1a(bytes.as_bytes())).unwrap();
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn serving_cfg(framework: Framework, tp: usize, mix: LengthMix) -> ServingConfig {
    ServingConfig {
        model: ModelConfig::opt_13b(),
        framework,
        sparsity: 0.6,
        tp,
        max_batch: 16,
        arrival_rps: 12.0,
        input_len: 64,
        output_len: 96,
        duration_sec: 20.0,
        mix,
    }
}

fn round_robin() -> LengthMix {
    LengthMix::RoundRobin(vec![(32, 32), (256, 128), (96, 64)])
}

/// The benchmark's chaos plan: crash 0.01, slow 0.02, launch-fail 0.01.
fn bench_chaos(seed: u64) -> ClusterFaultPlan {
    ClusterFaultPlan {
        seed,
        crash_rate: 0.01,
        slow_rate: 0.02,
        launch_fail_rate: 0.01,
        ..ClusterFaultPlan::default()
    }
}

fn fleet_cfg(spec: Option<SpecConfig>) -> ClusterConfig {
    ClusterConfig {
        arrival_rps: 14.0,
        duration_sec: 20.0,
        spec,
        seed: 3,
        ..ClusterConfig::default()
    }
}

/// Overloaded and queue-starved so replicas climb the ladder to the
/// fallback-kernel rung; tp 2 lets the dense fallback fit.
fn ladder_cfg() -> ClusterConfig {
    ClusterConfig {
        tp: 2,
        replicas: 2,
        arrival_rps: 60.0,
        duration_sec: 15.0,
        admission: spinfer_llm::AdmissionPolicy {
            queue_cap_per_replica: 4,
            kv_guard: true,
        },
        seed: 5,
        ..ClusterConfig::default()
    }
}

fn render() -> String {
    let gpu = GpuSpec::rtx4090();
    let mut p = Pins::default();

    for (mix_name, mix) in [
        ("uniform", LengthMix::Uniform),
        ("round_robin", round_robin()),
    ] {
        for (fw_name, fw, tp) in [
            ("spinfer_tp1", Framework::SpInfer, 1),
            ("ft_tp2", Framework::FasterTransformer, 2),
        ] {
            p.section(&format!("serve.{mix_name}.{fw_name}"));
            p.serving(&serve(&gpu, &serving_cfg(fw, tp, mix.clone())));
        }
    }

    let spec_cfg = serving_cfg(Framework::SpInfer, 1, LengthMix::Uniform);
    for (name, sc) in [
        (
            "acc80",
            SpecConfig {
                acceptance_rate: 0.8,
                ..SpecConfig::default()
            },
        ),
        (
            "acc00",
            SpecConfig {
                acceptance_rate: 0.0,
                ..SpecConfig::default()
            },
        ),
        (
            "share50",
            SpecConfig {
                spec_share: 0.5,
                ..SpecConfig::default()
            },
        ),
    ] {
        p.section(&format!("serve_spec.{name}"));
        p.spec(&serve_spec(&gpu, &spec_cfg, &sc));
    }

    let chaos = bench_chaos(3);
    let fleet_spec = SpecConfig {
        acceptance_rate: 0.8,
        seed: 3,
        ..SpecConfig::default()
    };
    for (name, cfg) in [
        ("incremental", fleet_cfg(None)),
        ("speculative", fleet_cfg(Some(fleet_spec))),
    ] {
        p.section(&format!("cluster.chaos.{name}"));
        p.cluster(&simulate_cluster(&gpu, &cfg, Some(&chaos)).unwrap());
    }
    p.section("cluster.ladder");
    p.cluster(&simulate_cluster(&gpu, &ladder_cfg(), Some(&bench_chaos(5))).unwrap());

    p.section("trace.serve_spec");
    let sink = TraceSink::new();
    // Bound to `_` so the pin reads the same whether the call returns
    // the report or a `Result` around it: the trace bytes are the pin.
    let _ = serve_spec_ctx(
        &LaunchCtx::new(&gpu).with_sink(&sink),
        &spec_cfg,
        &SpecConfig::default(),
    );
    p.artifact("chrome", &spinfer_obs::export(&sink.finish()));

    p.section("trace.cluster");
    let sink = TraceSink::new();
    let mut reg = Registry::new();
    simulate_cluster_instrumented(
        &gpu,
        &fleet_cfg(Some(fleet_spec)),
        Some(&chaos),
        Some(&mut reg),
        Some(&sink),
    )
    .unwrap();
    p.artifact("chrome", &spinfer_obs::export(&sink.finish()));
    p.artifact("metrics", &reg.snapshot_json());

    p.0
}

#[test]
fn serving_and_fleet_outputs_match_the_golden_pins() {
    let actual = render();
    for (i, (want, got)) in GOLDEN.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "golden pin diverged at line {}", i + 1);
    }
    assert_eq!(
        GOLDEN.lines().count(),
        actual.lines().count(),
        "golden pin line count"
    );
}

#[test]
fn the_ladder_pin_reaches_the_fallback_rung() {
    let gpu = GpuSpec::rtx4090();
    let r = simulate_cluster(&gpu, &ladder_cfg(), Some(&bench_chaos(5))).unwrap();
    assert!(
        r.per_replica.iter().any(|s| s.final_level >= 3),
        "ladder config must climb to rung 3: {r:?}"
    );
}
