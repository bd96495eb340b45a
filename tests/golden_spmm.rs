//! Golden pins for the SpInfer SpMM kernels at both payload precisions.
//!
//! For `SpInfer` (FP16) and `SpInfer-INT8` at the functional golden
//! shape (900×720×20, s=0.65, seed 1234, one host job), a fixed set of
//! launches — plain, checked without faults, seeded fault injection,
//! retry-budget exhaustion with fallback, and split-K 2 — is rendered
//! into text: the merged-counter digest, the simulated-time bits, the
//! FP32 output checksum, and the fault tallies the digest excludes. The
//! hero-shape analytic times and an FNV-1a hash of the exported FP16
//! Chrome trace ride along. The text is compared against
//! `tests/golden/spmm_pins.txt`.
//!
//! The pins exist so that refactors of the block loop, the launch body,
//! or the fault seams are provably output-neutral for both payloads: a
//! legitimate model change re-pins the file in the same commit and says
//! why; a refactor never touches it.

use gpu_sim::exec;
use gpu_sim::fault::{FaultInjector, FaultPlan};
use gpu_sim::matrix::{checksum_f32, random_dense, random_sparse, DenseMatrix, ValueDist};
use gpu_sim::trace::TraceSink;
use gpu_sim::GpuSpec;
use spinfer_core::spmm::{DynSpmmKernel, FaultPolicy, LaunchCtx, SpmmRun};
use spinfer_core::{FormatStats, SpinferSpmm, SpinferSpmmInt8, SpmmConfig};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/spmm_pins.txt");

/// Hero shape of the paper's Fig. 1 point (28672×8192, N=16, s=0.6).
const HERO: (usize, usize, usize, f64) = (28672, 8192, 16, 0.6);

/// Line-per-field text rendering of launch results.
#[derive(Default)]
struct Pins(String);

impl Pins {
    fn section(&mut self, name: &str) {
        writeln!(self.0, "[{name}]").unwrap();
    }

    fn n(&mut self, field: &str, v: u64) {
        writeln!(self.0, "{field} = {v}").unwrap();
    }

    fn hex(&mut self, field: &str, v: u64) {
        writeln!(self.0, "{field} = {v:#018x}").unwrap();
    }

    fn f(&mut self, field: &str, v: f64) {
        writeln!(self.0, "{field} = {:#018x} ({v:?})", v.to_bits()).unwrap();
    }

    fn run(&mut self, run: &SpmmRun) {
        let c = run.chain.merged_counters();
        self.hex("digest", c.digest());
        self.f("time_us", run.time_us());
        self.hex(
            "checksum",
            checksum_f32(run.output.as_ref().expect("functional output")),
        );
        self.n("faults_injected", c.faults_injected);
        self.n("faults_detected", c.faults_detected);
        self.n("faults_recovered", c.faults_recovered);
        self.n("fault_fallbacks", c.fault_fallbacks);
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Both payload variants at one kernel configuration.
fn kernels(config: SpmmConfig) -> [DynSpmmKernel; 2] {
    [
        DynSpmmKernel::new(SpinferSpmm { config }),
        DynSpmmKernel::new(SpinferSpmmInt8 { config }),
    ]
}

/// The functional golden operands, generated exactly as the sweep
/// harness does for `(900, 720, 20, 0.65)` at seed 1234.
fn operands() -> (DenseMatrix, DenseMatrix) {
    let (m, k, n, s, seed) = (900, 720, 20, 0.65, 1234u64);
    let w = random_sparse(m, k, s, ValueDist::Uniform, seed);
    let x = random_dense(k, n, ValueDist::Uniform, seed ^ (n as u64).rotate_left(32));
    (w, x)
}

fn render() -> String {
    let spec = GpuSpec::rtx4090();
    let (w, x) = operands();
    let mut p = Pins::default();

    let launch = |kernel: &DynSpmmKernel, ctx: &LaunchCtx<'_>| {
        let enc = kernel.encode(&w);
        kernel
            .launch(ctx, &enc, &x)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()))
    };
    let uniform = FaultInjector::new(FaultPlan::uniform(77, 0.02));
    let exhaust = FaultInjector::new(FaultPlan {
        only_gtile: Some(0),
        ..FaultPlan::uniform(5, 1.0)
    });
    let default_policy = FaultPolicy::default();
    let fallback_policy = FaultPolicy {
        max_attempts: 2,
        fallback: true,
    };

    for kernel in kernels(SpmmConfig::default()) {
        let name = kernel.name();
        p.section(&format!("{name}.run"));
        p.run(&kernel.run(&spec, &w, &x));
        p.section(&format!("{name}.checked"));
        p.run(&launch(
            &kernel,
            &LaunchCtx::new(&spec).with_policy(&default_policy),
        ));
        p.section(&format!("{name}.faults_uniform_77_0.02"));
        p.run(&launch(
            &kernel,
            &LaunchCtx::new(&spec).with_fault(&uniform),
        ));
        p.section(&format!("{name}.fallback_exhaustion"));
        p.run(&launch(
            &kernel,
            &LaunchCtx::new(&spec)
                .with_fault(&exhaust)
                .with_policy(&fallback_policy),
        ));
    }
    for kernel in kernels(SpmmConfig {
        split_k: 2,
        ..SpmmConfig::default()
    }) {
        p.section(&format!("{}.split_k2", kernel.name()));
        p.run(&kernel.run(&spec, &w, &x));
    }

    let (hm, hk, hn, hs) = HERO;
    let stats = FormatStats::synthetic(hm, hk, hs);
    p.section("hero.estimate");
    p.f(
        "SpInfer.time_us",
        SpinferSpmm::new().estimate(&spec, &stats, hn).time_us(),
    );
    p.f(
        "SpInfer-INT8.time_us",
        SpinferSpmmInt8::new().estimate(&spec, &stats, hn).time_us(),
    );

    p.section("trace.SpInfer");
    let sink = TraceSink::new();
    launch(
        &DynSpmmKernel::new(SpinferSpmm::new()),
        &LaunchCtx::new(&spec).with_sink(&sink),
    );
    let json = spinfer_obs::export(&sink.finish());
    p.n("chrome.len", json.len() as u64);
    p.hex("chrome.fnv1a", fnv1a(json.as_bytes()));

    p.0
}

/// One `#[test]` on purpose: `exec::set_jobs` is process-global.
#[test]
fn spmm_outputs_match_the_golden_pins_at_both_precisions() {
    exec::set_jobs(1);
    let actual = render();
    exec::set_jobs(0);
    for (i, (want, got)) in GOLDEN.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "golden pin diverged at line {}", i + 1);
    }
    assert_eq!(
        GOLDEN.lines().count(),
        actual.lines().count(),
        "golden pin line count"
    );
}
