//! The repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --compare OLD.json NEW.json
//! ```
//!
//! Every run executes all three sections — SpMM, decode, fleet — so every
//! metric is defined on every workload. The workload picks which of the
//! SpMM and decode sections runs at full size; the other runs at probe
//! size. `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced, and prints per-layer metrics
//! derived from the traced spans.

mod decode;
mod fleet;
mod host;
mod report;
mod spans;
mod spmm;
mod stats;

use decode::{DecodeInputs, DecodeSample, DecodeSize};
use fleet::{FleetInputs, FleetSample, FleetSize};
use gpu_sim::spec::GpuSpec;
use report::{metrics_json, Checks, Clock, Metric};
use spans::Tracer;
use spinfer_obs::json::Value;
use spmm::{SpmmInputs, SpmmSample, SpmmSize};
use std::process::ExitCode;
use std::time::Instant;

/// The paper's Fig. 1 point: LLaMA2-70B FFN weights at 60% sparsity, N = 16.
const HERO_SPMM: SpmmSize = SpmmSize {
    m: 28672,
    k: 8192,
    n: 16,
    sparsity: 0.6,
    check_rows: 64,
    per_round: 1,
};
/// Probe sizes are large enough that a launch's fixed host costs (its
/// worker threads are spawned per launch) do not dominate its time. The
/// first launch of a round runs on caches the fleet section just
/// churned; five per round keep those cold launches a minority.
const PROBE_SPMM: SpmmSize = SpmmSize {
    m: 4096,
    k: 4096,
    n: 16,
    sparsity: 0.6,
    check_rows: 64,
    per_round: 5,
};
/// OPT-shaped, 2 layers: hundreds of N = 8 launches per generation.
const FULL_DECODE: DecodeSize = DecodeSize {
    layers: 2,
    hidden: 1024,
    heads: 16,
    ffn_hidden: 4096,
    vocab: 4096,
    batch: 8,
    prompt_len: 8,
    new_tokens: 8,
    sparsity: 0.6,
    per_round: 1,
};
const PROBE_DECODE: DecodeSize = DecodeSize {
    layers: 2,
    hidden: 256,
    heads: 4,
    ffn_hidden: 1024,
    vocab: 1024,
    batch: 8,
    prompt_len: 4,
    new_tokens: 4,
    sparsity: 0.6,
    per_round: 3,
};
/// Simulated seconds per ladder rung.
const LADDER_HORIZON_S: f64 = 3600.0;
/// Simulated seconds at the nominal rate, on every workload. Failures
/// there come in crash-driven clumps, so one hour leaves their fraction
/// spread ~20% across seeds; eight hours bring it to ~5%.
const NOMINAL_HORIZON_S: f64 = 8.0 * 3600.0;

/// Set-up repetitions in a measuring run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Rounds of every section in a measuring run, at least. Two rounds with
/// the full-size SpMM or decode section already fill a 10 s window; a
/// third would add ~8 s to each such run.
const MIN_ROUNDS: usize = 2;

#[derive(Clone, Copy, Debug)]
struct Plan {
    spmm: SpmmSize,
    decode: DecodeSize,
    fleet: FleetSize,
}

/// The fleet section runs at full size on every workload: its sim
/// metrics need the whole ladder and horizon to be steady across seeds.
fn plan(workload: &str) -> Option<Plan> {
    let fleet = |speculative| FleetSize {
        ladder_horizon_s: LADDER_HORIZON_S,
        nominal_horizon_s: NOMINAL_HORIZON_S,
        speculative,
    };
    let (spmm, decode, fleet) = match workload {
        "spmm-hero" => (HERO_SPMM, PROBE_DECODE, fleet(false)),
        "decode-batch" => (PROBE_SPMM, FULL_DECODE, fleet(false)),
        "fleet-spec" => (PROBE_SPMM, PROBE_DECODE, fleet(true)),
        "fleet-incremental" => (PROBE_SPMM, PROBE_DECODE, fleet(false)),
        _ => return None,
    };
    Some(Plan {
        spmm,
        decode,
        fleet,
    })
}

struct Inputs {
    spmm: SpmmInputs,
    decode: DecodeInputs,
    fleet: FleetInputs,
}

/// How long a pass measures.
#[derive(Clone, Copy)]
enum Budget {
    /// Repeated set-up, then rounds until this many host seconds have
    /// passed, and at least [`MIN_ROUNDS`].
    Seconds(f64),
    /// One set-up and one round.
    Once,
}

/// Everything one pass measured.
struct Pass {
    setup_s: Vec<f64>,
    spmm: Vec<SpmmSample>,
    decode: Vec<DecodeSample>,
    fleet: Vec<FleetSample>,
    cpu_s: f64,
}

/// Keeps a sample; every section is deterministic given its inputs, so
/// a repeated run must match the first.
fn record<T>(
    samples: &mut Vec<T>,
    s: T,
    what: &str,
    checks: &mut Checks,
    same: impl Fn(&T, &T) -> bool,
) {
    if let Some(first) = samples.first() {
        checks.check(same(first, &s), || {
            format!("{what}: a repeated run differs from the first")
        });
    }
    samples.push(s);
}

/// Set-up, then rounds of every section until the budget is spent.
/// Interleaving the sections spreads each one's samples over the whole
/// run, so a slow spell on a shared host lands in a minority of them and
/// the medians pass over it.
fn pass(ins: &Inputs, spec: &GpuSpec, tr: &Tracer, budget: Budget, checks: &mut Checks) -> Pass {
    let c0 = spans::cpu_s();
    let (setup_reps, min_rounds, window_s) = match budget {
        Budget::Seconds(s) => (SETUP_REPS, MIN_ROUNDS, s),
        Budget::Once => (1, 1, 0.0),
    };
    let ((setup_s, (loaded, model)), _) = tr.span("bench.setup", || {
        let mut setup_s = Vec::with_capacity(setup_reps);
        let mut prepared = None;
        for rep in 0..setup_reps {
            // Drop the previous set-up's products before building new ones.
            drop(prepared.take());
            // The round trip is deterministic: verify the containers kept.
            let (loaded, a) = ins.spmm.setup(tr, rep + 1 == setup_reps, checks);
            let (model, b) = ins.decode.setup(tr);
            setup_s.push(a + b);
            prepared = Some((loaded, model));
        }
        (setup_s, prepared.expect("at least one set-up"))
    });
    let mut p = Pass {
        setup_s,
        spmm: Vec::new(),
        decode: Vec::new(),
        fleet: Vec::new(),
        cpu_s: 0.0,
    };
    let window = Instant::now();
    while p.fleet.len() < min_rounds || window.elapsed().as_secs_f64() < window_s {
        for _ in 0..ins.spmm.per_round() {
            let (s, _) = tr.span("bench.spmm", || ins.spmm.run(spec, &loaded, tr, checks));
            record(&mut p.spmm, s, "spmm", checks, |a, b| {
                a.checksums == b.checksums && a.sim_fp16_us == b.sim_fp16_us
            });
        }
        for _ in 0..ins.decode.per_round() {
            let (d, _) = tr.span("bench.decode", || ins.decode.run(spec, &model, tr, checks));
            record(&mut p.decode, d, "decode", checks, |a, b| {
                a.tokens == b.tokens && a.linear_sec == b.linear_sec
            });
        }
        let (f, _) = tr.span("bench.fleet", || ins.fleet.run(spec, tr, checks));
        record(&mut p.fleet, f, "fleet", checks, |a, b| {
            a.rungs == b.rungs && a.nominal == b.nominal
        });
    }
    p.cpu_s = spans::cpu_s() - c0;
    p
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Outcome {
    metrics: Vec<Metric>,
    checks: Checks,
    spans: Vec<spans::Span>,
}

fn run(plan: &Plan, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let spec = GpuSpec::rtx4090();
    // Inputs are generated before any clock starts; in a traced run the
    // generation calls are the first spans.
    let tracer = Tracer::new(trace);
    let ins = Inputs {
        spmm: SpmmInputs::generate(plan.spmm, seed, &tracer),
        decode: DecodeInputs::generate(plan.decode, seed, &tracer),
        fleet: FleetInputs::generate(plan.fleet, seed),
    };
    let mut checks = Checks::default();
    if !trace {
        let p = pass(&ins, &spec, &tracer, Budget::Seconds(seconds), &mut checks);
        let mut metrics = vec![Metric::new(
            "setup_s",
            stats::median(&p.setup_s),
            "s",
            Clock::Host,
        )];
        metrics.extend(spmm::end_to_end(&p.spmm));
        metrics.extend(decode::end_to_end(&plan.decode, &p.decode));
        metrics.extend(fleet::end_to_end(ins.fleet.deadline_s(), &p.fleet));
        metrics.push(Metric::new(
            "peak_rss_mb",
            peak_rss_mb(),
            "MiB",
            Clock::Host,
        ));
        return Outcome {
            metrics,
            checks,
            spans: Vec::new(),
        };
    }
    let untraced = pass(&ins, &spec, &Tracer::new(false), Budget::Once, &mut checks);
    let traced = pass(&ins, &spec, &tracer, Budget::Once, &mut checks);
    checks.check(
        untraced.spmm[0].checksums == traced.spmm[0].checksums,
        || "SpMM outputs differ between the traced and untraced runs".into(),
    );
    checks.check(untraced.decode[0].tokens == traced.decode[0].tokens, || {
        "decoded tokens differ between the traced and untraced runs".into()
    });
    checks.check(untraced.fleet[0].rungs == traced.fleet[0].rungs, || {
        "fleet results differ between the traced and untraced runs".into()
    });
    let spans = tracer.into_spans();
    let mut metrics = vec![Metric::new(
        "gpu_sim.matrix.generate_s",
        spans::named(&spans, "gpu_sim.matrix.generate")
            .map(spans::Span::secs)
            .sum(),
        "s",
        Clock::Host,
    )];
    metrics.extend(spmm::per_layer(&spans));
    metrics.extend(decode::per_layer(&spans));
    metrics.extend(fleet::per_layer(&spans));
    metrics.push(Metric::new(
        "trace.overhead_s",
        traced.cpu_s - untraced.cpu_s,
        "s",
        Clock::Host,
    ));
    metrics.push(Metric::new(
        "trace.spans",
        spans.len() as f64,
        "count",
        Clock::Count,
    ));
    Outcome {
        metrics,
        checks,
        spans,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn compare_files(old: &str, new: &str) -> ExitCode {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|s| spinfer_obs::json::parse(&s).map_err(|e| format!("{p}: {e}")))
    };
    match load(old).and_then(|a| load(new).and_then(|b| host::compare(&a, &b))) {
        Ok(mismatches) if mismatches.is_empty() => ExitCode::SUCCESS,
        Ok(mismatches) => {
            eprintln!("!!! HOST FINGERPRINTS DIFFER: host-clock metrics are not comparable !!!");
            for m in mismatches {
                eprintln!("!!!   {m}");
            }
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, old, new] => compare_files(old, new),
            _ => {
                eprintln!("usage: perfbench --compare OLD.json NEW.json");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(plan) = plan(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {}; expected spmm-hero, decode-batch, fleet-spec or fleet-incremental",
            args.workload
        );
        return ExitCode::from(2);
    };
    gpu_sim::exec::set_jobs(host::host_jobs());
    let fingerprint = host::Fingerprint::detect();
    let outcome = run(&plan, args.seed, args.seconds, args.trace);

    for m in &outcome.metrics {
        println!(
            "{:<40} {:>18.6} {:<8} [{}]",
            m.name,
            m.value,
            m.unit,
            m.clock.label()
        );
    }
    println!("host {}", fingerprint.to_json().to_json());
    let failed = outcome.checks.failures.len() as u64;
    for f in &outcome.checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }

    let record = Value::obj()
        .set("workload", Value::Str(args.workload.clone()))
        .set("seed", Value::Num(args.seed as f64))
        .set("trace", Value::Num(f64::from(u8::from(args.trace))))
        .set("host", fingerprint.to_json())
        .set("attempted", Value::Num(outcome.checks.attempted as f64))
        .set("failed", Value::Num(failed as f64))
        .set("metrics", metrics_json(&outcome.metrics, true));
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), record.to_json()))
        .and_then(|()| {
            if args.trace {
                std::fs::write(
                    dir.join(format!("{stem}.spans.json")),
                    spans::to_json(&outcome.spans).to_json(),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write results under {}: {e}",
            dir.display()
        );
        return ExitCode::from(2);
    }

    let result = Value::obj()
        .set("correct", Value::Bool(failed == 0))
        .set("attempted", Value::Num(outcome.checks.attempted as f64))
        .set("failed", Value::Num(failed as f64))
        .set("metrics", metrics_json(&outcome.metrics, false));
    println!("{}", result.to_json());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(speculative: bool) -> Plan {
        Plan {
            spmm: SpmmSize {
                m: 128,
                k: 256,
                n: 16,
                sparsity: 0.6,
                check_rows: 8,
                per_round: 2,
            },
            decode: DecodeSize {
                layers: 1,
                hidden: 64,
                heads: 4,
                ffn_hidden: 128,
                vocab: 64,
                batch: 2,
                prompt_len: 2,
                new_tokens: 2,
                sparsity: 0.6,
                per_round: 2,
            },
            fleet: FleetSize {
                ladder_horizon_s: 20.0,
                nominal_horizon_s: 40.0,
                speculative,
            },
        }
    }

    fn sim(o: &Outcome) -> Vec<(String, f64)> {
        o.metrics
            .iter()
            .filter(|m| m.clock == Clock::Sim)
            .map(|m| (m.name.clone(), m.value))
            .collect()
    }

    #[test]
    fn same_seed_repeats_sim_metrics_and_another_seed_changes_them() {
        let a = run(&tiny(true), 7, 0.0, false);
        let b = run(&tiny(true), 7, 0.0, false);
        let c = run(&tiny(true), 8, 0.0, false);
        for o in [&a, &b, &c] {
            assert!(o.checks.failures.is_empty(), "{:?}", o.checks.failures);
        }
        assert_eq!(sim(&a), sim(&b));
        let (sa, sc) = (sim(&a), sim(&c));
        for name in [
            "sim_spmm_fp16_us",
            "sim_decode_us_per_tok",
            "sim_p50_latency_s",
        ] {
            let v = |s: &[(String, f64)]| s.iter().find(|(n, _)| n == name).unwrap().1;
            assert_ne!(v(&sa), v(&sc), "{name} ignores the seed");
        }
    }

    /// The harness emits exactly the metrics `BENCHMARK.json` names, in
    /// both modes, and a traced run spans every layer call.
    #[test]
    fn metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        let spec = spinfer_obs::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let emitted = |o: &Outcome| o.metrics.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        for speculative in [false, true] {
            let e2e = run(&tiny(speculative), 1, 0.0, false);
            assert_eq!(emitted(&e2e), names("end_to_end"));
            let traced = run(&tiny(speculative), 1, 0.0, true);
            assert!(
                traced.checks.failures.is_empty(),
                "{:?}",
                traced.checks.failures
            );
            assert_eq!(emitted(&traced), names("per_layer"));
            for call in [
                "gpu_sim.matrix.generate",
                "core.tca_bme.encode_fp16",
                "core.serialize.to_bytes_int8",
                "core.serialize.from_bytes_fp16",
                "core.spmm.launch_int8",
                "llm.model.pruned",
                "llm.model.step",
                "core.spmm.small_launch",
                "llm.cluster.simulate",
            ] {
                assert!(
                    traced.spans.iter().any(|s| s.name == call),
                    "no {call} span"
                );
            }
            let serving = if speculative {
                "llm.serving.serve_spec"
            } else {
                "llm.serving.serve"
            };
            assert!(traced.spans.iter().any(|s| s.name == serving));
        }
    }
}
