//! Fleet section: `llm::simulate_cluster` over a fixed rate ladder with a
//! chaos plan, then one single-engine `serve` / `serve_spec` call.
//!
//! Arrivals are open loop: seeded exponential inter-arrivals on the
//! simulated clock, so the generator is never late and backlog shows as
//! queue growth. Layers: `llm.cluster`, `llm.spec`, `llm.serving`.

use crate::report::{Checks, Clock, Metric};
use crate::spans::{named, Span, Tracer};
use crate::stats::{fleet_violations, max_sustained_rate, median, FleetTally, Rung};
use gpu_sim::spec::GpuSpec;
use spinfer_llm::{
    serve, serve_spec, simulate_cluster, ClusterConfig, ClusterFaultPlan, ClusterReport,
    ServingConfig, SpecConfig,
};

/// Offered rates (requests per simulated second). Steps of 2 rps up to
/// 24: both knees (~12 and ~22 rps) sit in that range, and with steps of
/// 4 the interpolated knee moved ~20% across seeds instead of ~10%.
pub const LADDER_RPS: [f64; 13] = [
    4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0, 28.0, 32.0,
];
/// Below both knees: where latency and failures are read.
pub const NOMINAL_RPS: f64 = 8.0;
/// Past both knees: where overload behaviour is read.
pub const OVERLOAD_RPS: f64 = 24.0;

#[derive(Clone, Copy, Debug)]
pub struct FleetSize {
    /// Simulated seconds per ladder rung.
    pub ladder_horizon_s: f64,
    /// Simulated seconds of the run at the nominal rate.
    pub nominal_horizon_s: f64,
    /// Speculative decoding on every request (acceptance 0.8).
    pub speculative: bool,
}

pub struct FleetInputs {
    nominal_horizon_s: f64,
    cluster: ClusterConfig,
    faults: ClusterFaultPlan,
    serving: ServingConfig,
}

/// One pass over the ladder, the nominal run and the single-engine call.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSample {
    /// Host seconds of every `simulate_cluster` call in the pass.
    pub host_s: f64,
    pub rungs: Vec<Rung>,
    pub nominal: FleetTally,
}

fn tally(r: &ClusterReport) -> FleetTally {
    FleetTally {
        arrivals: r.arrivals,
        completed: r.completed,
        completed_in_slo: r.completed_in_slo,
        failed: r.failed,
        incomplete: r.incomplete,
        p50_latency_s: r.p50_latency_s,
        p99_latency_s: r.p99_latency_s,
    }
}

fn cluster_attrs(r: &ClusterReport) -> Vec<(&'static str, f64)> {
    let per =
        |f: fn(&spinfer_llm::ReplicaStats) -> u64| r.per_replica.iter().map(f).sum::<u64>() as f64;
    vec![
        ("steps", per(|s| s.steps)),
        ("final_queue", per(|s| s.final_queue as u64)),
        ("goodput_rps", r.goodput_rps),
        ("shed", r.shed as f64),
        ("timeouts", r.timeouts as f64),
        ("retries", r.retries as f64),
        ("failed", r.failed as f64),
        ("crashes", r.crashes as f64),
        ("degrade_escalations", r.degrade_escalations as f64),
        ("spec_steps", r.spec_steps as f64),
        ("spec_proposed", r.spec_proposed as f64),
        ("spec_accepted", r.spec_accepted as f64),
        ("spec_bonus", r.spec_bonus as f64),
        ("spec_rolled_back", r.spec_rolled_back as f64),
    ]
}

impl FleetInputs {
    /// Arrivals, retry jitter, fault sites and acceptance draws all come
    /// from `seed` (each subsystem salts its own draws).
    pub fn generate(size: FleetSize, seed: u64) -> Self {
        let spec = size.speculative.then_some(SpecConfig {
            acceptance_rate: 0.8,
            spec_share: 1.0,
            seed,
            ..SpecConfig::default()
        });
        let cluster = ClusterConfig {
            duration_sec: size.ladder_horizon_s,
            spec,
            seed,
            ..ClusterConfig::default()
        };
        let serving = ServingConfig {
            model: cluster.model,
            framework: cluster.framework,
            sparsity: cluster.sparsity,
            tp: cluster.tp,
            max_batch: cluster.max_batch,
            arrival_rps: NOMINAL_RPS,
            input_len: cluster.input_len,
            output_len: cluster.output_len,
            duration_sec: size.ladder_horizon_s,
            mix: cluster.mix.clone(),
        };
        FleetInputs {
            nominal_horizon_s: size.nominal_horizon_s,
            cluster,
            faults: ClusterFaultPlan {
                seed,
                crash_rate: 0.01,
                slow_rate: 0.02,
                launch_fail_rate: 0.01,
                ..ClusterFaultPlan::default()
            },
            serving,
        }
    }

    /// One `simulate_cluster` call, checked for conservation.
    fn simulate(
        &self,
        spec: &GpuSpec,
        rate: f64,
        horizon_s: f64,
        nominal: bool,
        tr: &Tracer,
        checks: &mut Checks,
    ) -> (ClusterReport, f64) {
        let mut cfg = self.cluster.clone();
        cfg.arrival_rps = rate;
        cfg.duration_sec = horizon_s;
        let (report, secs) = tr.span_with(
            "llm.cluster.simulate",
            || simulate_cluster(spec, &cfg, Some(&self.faults)),
            |r| {
                let mut a = vec![
                    ("rate_rps", rate),
                    ("nominal", f64::from(u8::from(nominal))),
                ];
                a.extend(r.as_ref().map(cluster_attrs).unwrap_or_default());
                a
            },
        );
        let report = report.expect("the benchmark's fleet config is valid");
        let broken = fleet_violations(&tally(&report));
        checks.check(broken.is_empty(), || {
            format!("fleet at {rate} rps: {}", broken.join("; "))
        });
        (report, secs)
    }

    pub fn run(&self, spec: &GpuSpec, tr: &Tracer, checks: &mut Checks) -> FleetSample {
        let mut rungs = Vec::with_capacity(LADDER_RPS.len());
        let mut host_s = 0.0;
        for rate in LADDER_RPS {
            let (report, secs) =
                self.simulate(spec, rate, self.cluster.duration_sec, false, tr, checks);
            host_s += secs;
            rungs.push(Rung {
                rate_rps: rate,
                goodput_rps: report.goodput_rps,
                p99_latency_s: report.p99_latency_s,
            });
        }
        let (report, secs) =
            self.simulate(spec, NOMINAL_RPS, self.nominal_horizon_s, true, tr, checks);
        host_s += secs;
        let nominal = tally(&report);
        match &self.cluster.spec {
            None => {
                let (r, _) = tr.span_with(
                    "llm.serving.serve",
                    || serve(spec, &self.serving),
                    serving_attrs,
                );
                checks.check(r.completed > 0, || "serve completed nothing".into());
            }
            Some(spec_cfg) => {
                let (r, _) = tr.span_with(
                    "llm.serving.serve_spec",
                    || serve_spec(spec, &self.serving, spec_cfg),
                    |r| serving_attrs(&r.serving),
                );
                checks.check(r.serving.completed > 0, || {
                    "serve_spec completed nothing".into()
                });
            }
        }
        FleetSample {
            host_s,
            rungs,
            nominal,
        }
    }

    pub fn deadline_s(&self) -> f64 {
        self.cluster.deadline_sec
    }
}

fn serving_attrs(r: &spinfer_llm::ServingReport) -> Vec<(&'static str, f64)> {
    vec![
        ("tokens_per_s", r.tokens_per_sec),
        ("p95_latency_s", r.p95_latency_sec),
        ("mean_batch", r.mean_batch),
    ]
}

pub fn end_to_end(deadline_s: f64, samples: &[FleetSample]) -> Vec<Metric> {
    let s = &samples[0];
    let n = &s.nominal;
    vec![
        Metric::new(
            "fleet_host_s",
            median(&samples.iter().map(|s| s.host_s).collect::<Vec<_>>()),
            "s",
            Clock::Host,
        ),
        Metric::new(
            "sim_max_rate_rps",
            max_sustained_rate(&s.rungs, deadline_s),
            "rps",
            Clock::Sim,
        ),
        Metric::new(
            "sim_peak_goodput_rps",
            s.rungs.iter().map(|r| r.goodput_rps).fold(0.0, f64::max),
            "rps",
            Clock::Sim,
        ),
        Metric::new("sim_p50_latency_s", n.p50_latency_s, "s", Clock::Sim),
        Metric::new("sim_p99_latency_s", n.p99_latency_s, "s", Clock::Sim),
        Metric::new(
            "sim_fail_frac",
            (n.failed + n.incomplete) as f64 / n.arrivals as f64,
            "ratio",
            Clock::Sim,
        ),
    ]
}

pub fn per_layer(spans: &[Span]) -> Vec<Metric> {
    // The last pass: its ladder rungs and its nominal run.
    let sims: Vec<&Span> = named(spans, "llm.cluster.simulate").collect();
    let pass = &sims[sims.len() - LADDER_RPS.len() - 1..];
    let (ladder, nominal) = pass.split_at(LADDER_RPS.len());
    let nominal = nominal[0];
    let sum = |key| ladder.iter().map(|s| s.attr(key)).sum::<f64>();
    let steps: f64 = pass.iter().map(|s| s.attr("steps")).sum();
    let host_s: f64 = pass.iter().map(|s| s.secs()).sum();
    let mut out = vec![
        Metric::new("llm.cluster.steps", steps, "count", Clock::Count),
        Metric::new(
            "llm.cluster.host_ns_per_step",
            host_s * 1e9 / steps,
            "ns",
            Clock::Host,
        ),
    ];
    let over = ladder
        .iter()
        .find(|s| s.attr("rate_rps") == OVERLOAD_RPS)
        .expect("the ladder includes the overload rate");
    out.push(Metric::new(
        "llm.cluster.overload.goodput_rps",
        over.attr("goodput_rps"),
        "rps",
        Clock::Sim,
    ));
    for key in [
        "shed",
        "timeouts",
        "retries",
        "failed",
        "degrade_escalations",
        "final_queue",
    ] {
        out.push(Metric::new(
            &format!("llm.cluster.overload.{key}"),
            over.attr(key),
            "count",
            Clock::Count,
        ));
    }
    for key in ["failed", "retries", "crashes"] {
        out.push(Metric::new(
            &format!("llm.cluster.nominal.{key}"),
            nominal.attr(key),
            "count",
            Clock::Count,
        ));
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.push(Metric::new(
        "llm.spec.accept_ratio",
        ratio(sum("spec_accepted"), sum("spec_proposed")),
        "ratio",
        Clock::Sim,
    ));
    out.push(Metric::new(
        "llm.spec.tokens_per_step",
        ratio(sum("spec_accepted") + sum("spec_bonus"), sum("spec_steps")),
        "tok/step",
        Clock::Sim,
    ));
    out.push(Metric::new(
        "llm.spec.rolled_back",
        sum("spec_rolled_back"),
        "count",
        Clock::Count,
    ));
    let serving = spans
        .iter()
        .rev()
        .find(|s| s.name == "llm.serving.serve" || s.name == "llm.serving.serve_spec")
        .expect("every fleet pass makes one single-engine call");
    out.push(Metric::new(
        "llm.serving.sim_tokens_per_s",
        serving.attr("tokens_per_s"),
        "tok/s",
        Clock::Sim,
    ));
    out.push(Metric::new(
        "llm.serving.p95_latency_s",
        serving.attr("p95_latency_s"),
        "s",
        Clock::Sim,
    ));
    out.push(Metric::new(
        "llm.serving.mean_batch",
        serving.attr("mean_batch"),
        "count",
        Clock::Sim,
    ));
    out.push(Metric::new(
        "llm.serving.host_s",
        serving.secs(),
        "s",
        Clock::Host,
    ));
    out
}
