//! Continuous-batching serving simulator (ORCA-style iteration-level
//! scheduling).
//!
//! The paper's end-to-end evaluation uses static batches; production
//! systems admit and retire requests at every decode iteration, bounded
//! by KV-cache memory. This simulator runs that loop over the same cost
//! model: per-iteration linear time from the simulated kernels, KV reads
//! proportional to the live contexts, admission gated by the per-GPU
//! memory model. It shows the deployment-level consequence of SpInfer's
//! two wins — faster steps *and* more KV headroom from compressed
//! weights.

use crate::config::ModelConfig;
use crate::engine::{decode_overhead_sec, linear_pass_sec};
use crate::frameworks::Framework;
use crate::memory::footprint;
use crate::spec::{
    plan_step, DraftModel, SpecConfig, SpecServingReport, SpecStats, StepPlan, TokenTree,
    TreeVerifier,
};
use gpu_sim::spec::GpuSpec;
use gpu_sim::trace::{pids, TraceEvent};
use spinfer_core::spmm::LaunchCtx;
use spinfer_core::SpinferError;
use spinfer_obs::metrics::percentile_sorted;
use std::collections::{HashMap, VecDeque};

/// Request length workload: uniform, or a deterministic round-robin mix
/// of (input, output) profiles — short chat turns interleaved with long
/// summarisation requests, say.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LengthMix {
    /// Every request uses the config's `input_len`/`output_len`.
    Uniform,
    /// Request `i` uses `profiles[i % profiles.len()]` as
    /// `(input_len, output_len)`.
    RoundRobin(Vec<(usize, usize)>),
}

impl LengthMix {
    /// A `RoundRobin` mix with no profiles has no defined request
    /// lengths; catching it here (instead of panicking on `i % 0` deep
    /// in the serving loop) is the config-time contract every serving
    /// entry point enforces.
    pub fn validate(&self) -> Result<(), SpinferError> {
        match self {
            LengthMix::RoundRobin(p) if p.is_empty() => Err(SpinferError::EmptyLengthMix),
            _ => Ok(()),
        }
    }

    pub(crate) fn lengths(&self, i: usize, fallback: (usize, usize)) -> (usize, usize) {
        match self {
            LengthMix::Uniform => fallback,
            // Empty profiles are rejected by `validate`; the defensive
            // fallback keeps this total even if a caller skips it.
            LengthMix::RoundRobin(p) if p.is_empty() => fallback,
            LengthMix::RoundRobin(p) => p[i % p.len()],
        }
    }

    pub(crate) fn max_lengths(&self, fallback: (usize, usize)) -> (usize, usize) {
        match self {
            LengthMix::Uniform => fallback,
            LengthMix::RoundRobin(p) if p.is_empty() => fallback,
            LengthMix::RoundRobin(p) => p
                .iter()
                .fold((0, 0), |acc, &(i, o)| (acc.0.max(i), acc.1.max(o))),
        }
    }
}

/// A serving scenario.
#[derive(Clone, Debug)]
pub struct ServingConfig {
    /// Model served.
    pub model: ModelConfig,
    /// Framework.
    pub framework: Framework,
    /// Weight sparsity for sparse frameworks.
    pub sparsity: f64,
    /// Tensor-parallel degree.
    pub tp: usize,
    /// Iteration-level batch cap.
    pub max_batch: usize,
    /// Request arrival rate (requests/s, deterministic spacing).
    pub arrival_rps: f64,
    /// Prompt length per request.
    pub input_len: usize,
    /// Tokens generated per request.
    pub output_len: usize,
    /// Simulated horizon in seconds.
    pub duration_sec: f64,
    /// Request length workload.
    pub mix: LengthMix,
}

impl ServingConfig {
    /// Config-time validation: rejects workloads the serving loop cannot
    /// run meaningfully. A violated workload check (shared with
    /// [`crate::ClusterConfig::validate`]) is a typed
    /// [`SpinferError::InvalidServing`] naming the field; an empty
    /// `RoundRobin` profile list is [`SpinferError::EmptyLengthMix`].
    pub fn validate(&self) -> Result<(), SpinferError> {
        if let Some(reason) = workload_violation(
            self.tp,
            self.max_batch,
            self.arrival_rps,
            self.duration_sec,
            self.input_len,
            &self.mix,
        ) {
            return Err(SpinferError::InvalidServing {
                reason: reason.to_string(),
            });
        }
        self.mix.validate()
    }
}

/// The workload checks a serving scenario and a fleet scenario share:
/// the violated constraint, or `None`. Each config wraps the reason in
/// its own typed error. Prompts must be non-empty because prefill is
/// priced at the prompt length.
pub(crate) fn workload_violation(
    tp: usize,
    max_batch: usize,
    arrival_rps: f64,
    duration_sec: f64,
    input_len: usize,
    mix: &LengthMix,
) -> Option<&'static str> {
    let empty_prompt =
        input_len == 0 || matches!(mix, LengthMix::RoundRobin(p) if p.iter().any(|&(i, _)| i == 0));
    if tp == 0 {
        Some("tp must be >= 1")
    } else if max_batch == 0 {
        Some("max_batch must be >= 1")
    } else if duration_sec <= 0.0 || duration_sec.is_nan() {
        Some("duration_sec must be > 0")
    } else if arrival_rps <= 0.0 || arrival_rps.is_nan() {
        Some("arrival_rps must be > 0")
    } else if empty_prompt {
        Some("input_len must be >= 1")
    } else {
        None
    }
}

/// Serving outcome.
#[derive(Clone, Debug)]
pub struct ServingReport {
    /// Requests fully served within the horizon.
    pub completed: usize,
    /// Requests still queued/running at the end.
    pub in_flight: usize,
    /// Served requests per second.
    pub throughput_rps: f64,
    /// Generated tokens per second.
    pub tokens_per_sec: f64,
    /// Mean end-to-end latency of completed requests (s).
    pub mean_latency_sec: f64,
    /// 95th-percentile latency (s).
    pub p95_latency_sec: f64,
    /// Mean decode batch occupancy over iterations.
    pub mean_batch: f64,
    /// Maximum concurrent requests the memory model admitted.
    pub max_concurrency: usize,
    /// Decode iterations executed over the horizon.
    pub iterations: usize,
    /// Mean tokens *committed* per decode iteration. Incremental decode
    /// commits exactly the batch width, so this equals `mean_batch`;
    /// speculative decode commits accepted prefixes plus bonus tokens,
    /// and the ratio against the incremental run is the honest
    /// per-iteration speedup measure.
    pub tokens_per_iteration: f64,
}

#[derive(Clone, Copy, Debug)]
struct Request {
    id: u64,
    arrival: f64,
    generated: usize,
    input_len: usize,
    output_len: usize,
    speculative: bool,
}

/// Upper bound on the admission cap search (sequences per GPU).
const CAP_CEILING: usize = 4096;

/// Maximum concurrent sequences of `total_len` tokens the per-GPU memory
/// supports (weights + KV for `n` sequences must fit).
///
/// The KV footprint is monotone in the sequence count, so instead of
/// probing every `n` up to [`CAP_CEILING`] (thousands of `footprint`
/// evaluations for roomy deployments) we double until the first OOM
/// bracket and binary-search inside it: `O(log cap)` probes, same
/// answer as the linear scan (pinned by a test below).
fn concurrency_cap(
    spec: &GpuSpec,
    model: &ModelConfig,
    framework: Framework,
    sparsity: f64,
    tp: usize,
    total_len: usize,
) -> usize {
    let fits = |n: usize| !footprint(model, framework, sparsity, tp, n, total_len).is_oom(spec);
    if !fits(1) {
        return 0;
    }
    // Doubling: grow `hi` until it no longer fits (or clears the ceiling).
    let mut lo = 1usize; // invariant: fits(lo)
    let mut hi = 2usize;
    while hi <= CAP_CEILING && fits(hi) {
        lo = hi;
        hi *= 2;
    }
    if lo >= CAP_CEILING {
        return CAP_CEILING;
    }
    let mut hi = hi.min(CAP_CEILING + 1); // invariant: !fits(hi) or hi > ceiling
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The one place a step is priced, for the serving loop and every fleet
/// replica alike: one deployment (GPU, model, sparsity, tp), the
/// workload's longest sequence, and the speculation config's draft model
/// and tree. The framework is a per-call argument because a replica
/// changes kernels on its degradation ladder; every cost is a pure
/// function of its key, so memoisation never changes a result.
pub(crate) struct StepPricer<'a> {
    spec: &'a GpuSpec,
    model: &'a ModelConfig,
    sparsity: f64,
    tp: usize,
    max_seq: usize,
    draft_model: DraftModel,
    tree: TokenTree,
    linear: HashMap<(Framework, usize), f64>,
    draft: HashMap<(Framework, usize), f64>,
    cap: HashMap<(Framework, usize), usize>,
}

impl<'a> StepPricer<'a> {
    /// A pricer for requests of at most `max_seq` prompt + output tokens,
    /// drafting `spec_cfg`'s tree with its draft model.
    pub(crate) fn new(
        spec: &'a GpuSpec,
        model: &'a ModelConfig,
        sparsity: f64,
        tp: usize,
        max_seq: usize,
        spec_cfg: &SpecConfig,
    ) -> Self {
        StepPricer {
            spec,
            model,
            sparsity,
            tp,
            max_seq,
            draft_model: spec_cfg.draft,
            tree: spec_cfg.shape.build(),
            linear: HashMap::new(),
            draft: HashMap::new(),
            cap: HashMap::new(),
        }
    }

    /// One pass of every linear layer at GEMM width `n`.
    fn linear(&mut self, fw: Framework, n: usize) -> f64 {
        let (spec, model, sparsity, tp) = (self.spec, self.model, self.sparsity, self.tp);
        *self
            .linear
            .entry((fw, n))
            .or_insert_with(|| linear_pass_sec(spec, model, fw, sparsity, tp, n))
    }

    /// Prefill of one admitted request: a linear pass over its prompt
    /// (memoised with the decode passes) plus one step's overhead at the
    /// prompt's context. Prompts are clamped to one token; config
    /// validation rejects empty ones.
    pub(crate) fn prefill(&mut self, fw: Framework, len: usize) -> f64 {
        let len = len.max(1);
        self.linear(fw, len) + decode_overhead_sec(self.spec, self.model, fw, self.tp, 1, len)
    }

    /// The verify launch of one decode step: linear passes at the plan's
    /// folded width, attention and per-layer overhead at its attributed
    /// context. Incremental decode is the `verify_tokens == batch` plan.
    pub(crate) fn verify(&mut self, fw: Framework, plan: &StepPlan) -> f64 {
        self.linear(fw, plan.verify_tokens)
            + decode_overhead_sec(self.spec, self.model, fw, self.tp, plan.batch, plan.sum_ctx)
    }

    /// Draft-model seconds to propose the tree for `spec_batch`
    /// speculative requests; exactly `0.0` when nothing drafts.
    pub(crate) fn draft(&mut self, fw: Framework, spec_batch: usize) -> f64 {
        if spec_batch == 0 {
            return 0.0;
        }
        let (spec, model, sparsity, tp) = (self.spec, self.model, self.sparsity, self.tp);
        let (draft_model, tree) = (&self.draft_model, &self.tree);
        *self.draft.entry((fw, spec_batch)).or_insert_with(|| {
            draft_model.propose_sec(spec, model, fw, sparsity, tp, spec_batch, tree)
        })
    }

    /// KV admission cap: concurrent sequences that fit at the workload's
    /// longest sequence plus `extra_kv_tokens` per sequence (candidate
    /// tree slots held between draft and rollback). Zero when not even
    /// one sequence fits.
    pub(crate) fn cap(&mut self, fw: Framework, extra_kv_tokens: usize) -> usize {
        let (spec, model, sparsity, tp) = (self.spec, self.model, self.sparsity, self.tp);
        let total_len = self.max_seq + extra_kv_tokens;
        *self
            .cap
            .entry((fw, extra_kv_tokens))
            .or_insert_with(|| concurrency_cap(spec, model, fw, sparsity, tp, total_len))
    }
}

impl ServingReport {
    /// p95 over an ascending latency set — nearest-rank, shared with the
    /// observability histogram code so CLI tables and serving reports
    /// agree on percentile semantics.
    pub fn p95_from_sorted(latencies: &[f64]) -> f64 {
        percentile_sorted(latencies, 0.95)
    }
}

/// Runs the continuous-batching loop with one-token incremental decode:
/// the degenerate token tree of [`serve_spec_ctx`].
///
/// # Panics
///
/// Panics if the model cannot serve even one request on this deployment.
pub fn serve(spec: &GpuSpec, cfg: &ServingConfig) -> ServingReport {
    serve_spec(spec, cfg, &SpecConfig::degenerate()).serving
}

/// Runs the continuous-batching loop with speculative decoding: requests
/// selected by `spec_cfg.spec_share` draft a candidate tree each decode
/// iteration and verify every candidate inside the batch's single wide-N
/// launch.
///
/// # Panics
///
/// Panics if the model cannot serve even one request on this deployment
/// with the candidate tree's extra KV entries.
pub fn serve_spec(spec: &GpuSpec, cfg: &ServingConfig, spec_cfg: &SpecConfig) -> SpecServingReport {
    serve_spec_ctx(&LaunchCtx::new(spec), cfg, spec_cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// The one serving loop. Incremental decode is not a separate path: it
/// is [`SpecConfig::degenerate`], whose empty tree plans every request
/// at one verify token over its base context and whose free draft adds
/// nothing. The capability bundle arrives as a [`LaunchCtx`]; a sink
/// attached with [`LaunchCtx::with_sink`] records each prefill admission
/// and decode iteration as a span on the serving simulation clock
/// (seconds → trace µs) without changing the report.
///
/// The loop does not validate its inputs — call
/// [`ServingConfig::validate`] and [`SpecConfig::validate`] first.
///
/// # Errors
///
/// [`SpinferError::CannotFit`] if the model cannot serve even one
/// request on this deployment with the candidate tree's extra KV
/// entries.
pub fn serve_spec_ctx(
    ctx: &LaunchCtx<'_>,
    cfg: &ServingConfig,
    spec_cfg: &SpecConfig,
) -> Result<SpecServingReport, SpinferError> {
    const ENGINE: (u32, u32) = (pids::SERVING, 0);
    let spec = ctx.spec;
    let sink = ctx.sink;
    let mut spans: Vec<TraceEvent> = Vec::new();
    let verifier = TreeVerifier::new(spec_cfg);
    let tree_nodes = verifier.tree().nodes();
    let draft_tokens_req = spec_cfg.draft.draft_tokens_per_request(verifier.tree());
    let (max_in, max_out) = cfg.mix.max_lengths((cfg.input_len, cfg.output_len));
    let mut pricer = StepPricer::new(
        spec,
        &cfg.model,
        cfg.sparsity,
        cfg.tp,
        max_in + max_out,
        spec_cfg,
    );
    // Admission must also fit each candidate tree's KV entries: every
    // speculative request holds `nodes` extra cache slots between draft
    // and rollback. The degenerate tree adds zero.
    let mem_cap = pricer.cap(cfg.framework, tree_nodes);
    if mem_cap == 0 {
        return Err(SpinferError::CannotFit {
            model: cfg.model.name.to_string(),
            framework: format!("{:?}", cfg.framework),
            tp: cfg.tp,
            gpu: spec.name.to_string(),
            tree_nodes,
        });
    }
    let cap = mem_cap.min(cfg.max_batch).max(1);

    let inter_arrival = 1.0 / cfg.arrival_rps.max(1e-9);
    let mut next_arrival = 0.0f64;
    let mut arrived = 0usize;
    let mut queue: VecDeque<Request> = VecDeque::new();
    let mut running: Vec<Request> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut tokens_out = 0usize;
    let mut now = 0.0f64;
    let mut batch_sum = 0.0f64;
    let mut iterations = 0usize;
    let mut max_concurrency = 0usize;
    let mut stats = SpecStats::default();

    while now < cfg.duration_sec {
        // Admit arrivals up to `now`.
        while next_arrival <= now {
            let (input_len, output_len) = cfg.mix.lengths(arrived, (cfg.input_len, cfg.output_len));
            let id = arrived as u64;
            queue.push_back(Request {
                id,
                arrival: next_arrival,
                generated: 0,
                input_len,
                output_len,
                speculative: verifier.speculates(id),
            });
            arrived += 1;
            next_arrival = inter_arrival * arrived as f64;
        }
        // Admit queued requests into the running batch (prefill each).
        while running.len() < cap {
            let Some(r) = queue.pop_front() else {
                break;
            };
            let cost = pricer.prefill(cfg.framework, r.input_len);
            if sink.is_some() {
                spans.push(TraceEvent::span(
                    ENGINE,
                    "prefill",
                    "phase",
                    now * 1e6,
                    cost * 1e6,
                ));
            }
            now += cost;
            if r.speculative {
                stats.spec_requests += 1;
            } else {
                stats.plain_requests += 1;
            }
            running.push(r);
        }
        max_concurrency = max_concurrency.max(running.len());

        if running.is_empty() {
            // Idle until the next arrival.
            if next_arrival >= cfg.duration_sec {
                break;
            }
            now = next_arrival;
            continue;
        }

        // One tree-verify iteration for the whole running batch: the
        // plan folds every request's candidates (or single token) into
        // one wide-N launch over the topology-attributed KV context.
        let b = running.len();
        let plan = plan_step(
            running
                .iter()
                .map(|r| (r.speculative, r.input_len + r.generated + 1)),
            verifier.tree(),
        );
        let draft = pricer.draft(cfg.framework, plan.spec_batch);
        let verify = pricer.verify(cfg.framework, &plan);
        let step = draft + verify;
        if sink.is_some() {
            if plan.spec_batch == 0 {
                spans.push(
                    TraceEvent::span(ENGINE, "decode_iter", "phase", now * 1e6, step * 1e6)
                        .with_arg("batch", b as f64),
                );
            } else {
                spans.push(
                    TraceEvent::span(ENGINE, "draft", "phase", now * 1e6, draft * 1e6)
                        .with_arg("spec_batch", plan.spec_batch as f64),
                );
                spans.push(
                    TraceEvent::span(ENGINE, "verify", "phase", (now + draft) * 1e6, verify * 1e6)
                        .with_arg("tokens", plan.verify_tokens as f64),
                );
            }
        }
        now += step;
        iterations += 1;
        batch_sum += b as f64;
        stats.verify_tokens += plan.verify_tokens as u64;
        stats.verify_sec += verify;
        if plan.spec_batch > 0 {
            stats.spec_iterations += 1;
            stats.draft_sec += draft;
            stats.draft_tokens += (plan.spec_batch * draft_tokens_req) as u64;
        }

        let mut committed_now = 0usize;
        for r in running.iter_mut() {
            let commit =
                verifier.commit(&mut stats, r.id, r.speculative, r.generated, r.output_len);
            r.generated += commit;
            committed_now += commit;
        }
        tokens_out += committed_now;
        if sink.is_some() && plan.spec_batch > 0 {
            spans.push(
                TraceEvent::instant(ENGINE, "accept", "phase", now * 1e6)
                    .with_arg("committed", committed_now as f64),
            );
        }
        // Retire finished requests.
        running.retain(|r| {
            if r.generated >= r.output_len {
                latencies.push(now - r.arrival);
                false
            } else {
                true
            }
        });
    }

    if let Some(sink) = sink {
        sink.name_track(ENGINE, "serving sim (sim µs)", "engine");
        sink.extend(spans);
    }

    latencies.sort_by(f64::total_cmp);
    let completed = latencies.len();
    let mean = if completed == 0 {
        0.0
    } else {
        latencies.iter().sum::<f64>() / completed as f64
    };
    let p95 = ServingReport::p95_from_sorted(&latencies);
    let per_iteration = |x: f64| {
        if iterations == 0 {
            0.0
        } else {
            x / iterations as f64
        }
    };
    Ok(SpecServingReport {
        serving: ServingReport {
            completed,
            in_flight: queue.len() + running.len(),
            throughput_rps: completed as f64 / now.max(1e-9),
            tokens_per_sec: tokens_out as f64 / now.max(1e-9),
            mean_latency_sec: mean,
            p95_latency_sec: p95,
            mean_batch: per_iteration(batch_sum),
            max_concurrency,
            iterations,
            tokens_per_iteration: per_iteration(tokens_out as f64),
        },
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::trace::TraceSink;

    /// The admission cap an incremental run sizes against.
    fn admission_cap(spec: &GpuSpec, cfg: &ServingConfig) -> usize {
        let (max_in, max_out) = cfg.mix.max_lengths((cfg.input_len, cfg.output_len));
        StepPricer::new(
            spec,
            &cfg.model,
            cfg.sparsity,
            cfg.tp,
            max_in + max_out,
            &SpecConfig::degenerate(),
        )
        .cap(cfg.framework, 0)
    }

    /// The incremental (degenerate-tree) loop with `sink` attached.
    fn traced(spec: &GpuSpec, cfg: &ServingConfig, sink: &TraceSink) -> SpecServingReport {
        serve_spec_ctx(
            &LaunchCtx::new(spec).with_sink(sink),
            cfg,
            &SpecConfig::degenerate(),
        )
        .unwrap()
    }

    fn cfg(framework: Framework, arrival_rps: f64) -> ServingConfig {
        ServingConfig {
            model: ModelConfig::opt_13b(),
            framework,
            sparsity: 0.6,
            tp: 2,
            max_batch: 32,
            arrival_rps,
            input_len: 64,
            output_len: 128,
            duration_sec: 60.0,
            mix: LengthMix::Uniform,
        }
    }

    #[test]
    fn light_load_is_latency_dominated() {
        let spec = GpuSpec::rtx4090();
        let r = serve(&spec, &cfg(Framework::SpInfer, 0.2));
        assert!(r.completed >= 8, "completed {}", r.completed);
        // At 0.2 rps the server keeps up: throughput ≈ arrival rate.
        assert!(
            (r.throughput_rps - 0.2).abs() < 0.06,
            "rps {}",
            r.throughput_rps
        );
        assert!(r.mean_batch < 4.0, "mean batch {}", r.mean_batch);
    }

    #[test]
    fn heavy_load_saturates_and_batches() {
        let spec = GpuSpec::rtx4090();
        let light = serve(&spec, &cfg(Framework::SpInfer, 0.2));
        let heavy = serve(&spec, &cfg(Framework::SpInfer, 50.0));
        assert!(heavy.mean_batch > 8.0, "mean batch {}", heavy.mean_batch);
        assert!(heavy.tokens_per_sec > 3.0 * light.tokens_per_sec);
        // Overload: queueing delay pushes latency far past service time.
        assert!(heavy.p95_latency_sec > light.p95_latency_sec);
        assert!(heavy.in_flight > 0);
    }

    #[test]
    fn spinfer_sustains_more_load_than_dense() {
        let spec = GpuSpec::rtx4090();
        let rate = 50.0; // Overload both; compare saturated throughput.
        let sp = serve(&spec, &cfg(Framework::SpInfer, rate));
        let ft = serve(&spec, &cfg(Framework::FasterTransformer, rate));
        assert!(
            sp.tokens_per_sec > 1.15 * ft.tokens_per_sec,
            "SpInfer {} vs FT {}",
            sp.tokens_per_sec,
            ft.tokens_per_sec
        );
    }

    #[test]
    fn memory_cap_bounds_concurrency() {
        let spec = GpuSpec::rtx4090();
        // Single GPU: dense 13B cannot serve at all; SpInfer can.
        let mut c = cfg(Framework::SpInfer, 50.0);
        c.tp = 1;
        let r = serve(&spec, &c);
        assert!(r.max_concurrency >= 1);
        assert!(r.max_concurrency <= 32);
        let cap = admission_cap(&spec, &c);
        assert!(r.max_concurrency <= cap.min(32));
    }

    #[test]
    fn mixed_lengths_complete_and_differ_in_latency() {
        let spec = GpuSpec::rtx4090();
        let mut c = cfg(Framework::SpInfer, 2.0);
        c.mix = LengthMix::RoundRobin(vec![(32, 32), (256, 512)]);
        let r = serve(&spec, &c);
        assert!(r.completed > 10, "completed {}", r.completed);
        // Long requests stretch the tail: p95 well above the mean.
        assert!(
            r.p95_latency_sec > 1.5 * r.mean_latency_sec,
            "p95 {} vs mean {}",
            r.p95_latency_sec,
            r.mean_latency_sec
        );
    }

    #[test]
    fn empty_round_robin_mix_is_a_typed_error_not_a_panic() {
        let spec = GpuSpec::rtx4090();
        let mut c = cfg(Framework::SpInfer, 2.0);
        c.mix = LengthMix::RoundRobin(vec![]);
        // Config-time validation rejects it...
        assert_eq!(c.validate(), Err(SpinferError::EmptyLengthMix));
        assert_eq!(c.validate().unwrap_err(), SpinferError::EmptyLengthMix);
        // ...and even the unchecked loop no longer divides by zero: the
        // defensive fallback serves the config's uniform lengths.
        let degenerate = serve(&spec, &c);
        c.mix = LengthMix::Uniform;
        let uniform = serve(&spec, &c);
        assert_eq!(degenerate.completed, uniform.completed);
        // A populated mix and a Uniform mix both validate.
        assert!(LengthMix::Uniform.validate().is_ok());
        assert!(LengthMix::RoundRobin(vec![(8, 8)]).validate().is_ok());
        assert!(c.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn infeasible_deployment_panics() {
        let spec = GpuSpec::rtx4090();
        let mut c = cfg(Framework::FasterTransformer, 1.0);
        c.tp = 1; // Dense OPT-13B does not fit one 24 GB GPU.
        serve(&spec, &c);
    }

    /// The linear probe the binary search replaced, kept as the oracle.
    fn linear_cap_oracle(spec: &GpuSpec, cfg: &ServingConfig) -> usize {
        let (max_in, max_out) = cfg.mix.max_lengths((cfg.input_len, cfg.output_len));
        let total_len = max_in + max_out;
        let mut n = 0usize;
        while n < CAP_CEILING {
            let fp = footprint(
                &cfg.model,
                cfg.framework,
                cfg.sparsity,
                cfg.tp,
                n + 1,
                total_len,
            );
            if fp.is_oom(spec) {
                break;
            }
            n += 1;
        }
        n
    }

    #[test]
    fn concurrency_cap_matches_linear_oracle() {
        let spec = GpuSpec::rtx4090();
        for fw in [
            Framework::SpInfer,
            Framework::FasterTransformer,
            Framework::FlashLlm,
        ] {
            for tp in [1usize, 2, 4] {
                let mut c = cfg(fw, 1.0);
                c.tp = tp;
                assert_eq!(
                    admission_cap(&spec, &c),
                    linear_cap_oracle(&spec, &c),
                    "{fw:?} tp={tp}"
                );
            }
        }
        // Mixed lengths size KV for the worst-case profile.
        let mut c = cfg(Framework::SpInfer, 1.0);
        c.mix = LengthMix::RoundRobin(vec![(32, 32), (256, 512)]);
        assert_eq!(admission_cap(&spec, &c), linear_cap_oracle(&spec, &c));
    }

    #[test]
    fn serve_is_the_degenerate_spec_loop() {
        let spec = GpuSpec::rtx4090();
        let c = cfg(Framework::SpInfer, 2.0);
        let plain = serve(&spec, &c);
        let via_ctx = serve_spec_ctx(&LaunchCtx::new(&spec), &c, &SpecConfig::degenerate())
            .unwrap()
            .serving;
        assert_eq!(plain.completed, via_ctx.completed);
        assert_eq!(
            plain.tokens_per_sec.to_bits(),
            via_ctx.tokens_per_sec.to_bits()
        );
        // A sink attached through the context records the same spans on
        // every run.
        let s1 = TraceSink::new();
        let s2 = TraceSink::new();
        traced(&spec, &c, &s1);
        traced(&spec, &c, &s2);
        assert_eq!(s1.finish().events.len(), s2.finish().events.len());
    }

    #[test]
    fn degenerate_spec_collapses_onto_incremental_bitwise() {
        let spec = GpuSpec::rtx4090();
        let c = cfg(Framework::SpInfer, 2.0);
        let plain = serve(&spec, &c);
        let r = serve_spec(&spec, &c, &SpecConfig::degenerate());
        assert_eq!(plain.completed, r.serving.completed);
        assert_eq!(plain.in_flight, r.serving.in_flight);
        assert_eq!(plain.iterations, r.serving.iterations);
        assert_eq!(plain.max_concurrency, r.serving.max_concurrency);
        assert_eq!(
            plain.tokens_per_sec.to_bits(),
            r.serving.tokens_per_sec.to_bits()
        );
        assert_eq!(
            plain.mean_latency_sec.to_bits(),
            r.serving.mean_latency_sec.to_bits()
        );
        assert_eq!(
            plain.p95_latency_sec.to_bits(),
            r.serving.p95_latency_sec.to_bits()
        );
        assert_eq!(
            plain.tokens_per_iteration.to_bits(),
            r.serving.tokens_per_iteration.to_bits()
        );
        // Nothing speculated: the ledger records only the plain path.
        assert_eq!(r.stats.spec_requests, 0);
        assert_eq!(r.stats.spec_iterations, 0);
        assert_eq!(r.stats.proposed, 0);
        assert_eq!(r.stats.draft_sec, 0.0);
        assert_eq!(r.tokens_per_launch().to_bits(), plain.mean_batch.to_bits());
    }

    #[test]
    fn degenerate_spec_records_the_incremental_trace() {
        let spec = GpuSpec::rtx4090();
        let c = cfg(Framework::SpInfer, 2.0);
        let s_plain = TraceSink::new();
        traced(&spec, &c, &s_plain);
        let s_spec = TraceSink::new();
        serve_spec_ctx(
            &LaunchCtx::new(&spec).with_sink(&s_spec),
            &c,
            &SpecConfig::degenerate(),
        )
        .unwrap();
        let (a, b) = (s_plain.finish(), s_spec.finish());
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(b.events.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.ts_us.to_bits(), y.ts_us.to_bits());
            assert_eq!(x.dur_us.to_bits(), y.dur_us.to_bits());
            assert_eq!(x.arg, y.arg);
        }
    }

    #[test]
    fn high_acceptance_beats_incremental_and_zero_acceptance_loses() {
        let spec = GpuSpec::rtx4090();
        let c = cfg(Framework::SpInfer, 50.0); // saturated: batching regime
        let plain = serve(&spec, &c);
        let fast = serve_spec(
            &spec,
            &c,
            &SpecConfig {
                acceptance_rate: 0.8,
                ..SpecConfig::default()
            },
        );
        assert!(
            fast.serving.tokens_per_sec > 1.2 * plain.tokens_per_sec,
            "spec {} vs incremental {}",
            fast.serving.tokens_per_sec,
            plain.tokens_per_sec
        );
        assert!(fast.serving.tokens_per_iteration > 2.0 * plain.tokens_per_iteration);
        // Acceptance is measured against all 8 proposed candidates but
        // only one depth-3 path can be accepted, so 3/8 is the ceiling;
        // rate 0.8 lands near 2/8.
        assert!(fast.stats.observed_acceptance() > 0.15);
        assert!(fast.stats.observed_acceptance() <= 0.375);
        // Rejecting every candidate still pays for drafting and the
        // 9×-wide verify launches: strictly worse than incremental.
        let slow = serve_spec(
            &spec,
            &c,
            &SpecConfig {
                acceptance_rate: 0.0,
                ..SpecConfig::default()
            },
        );
        assert!(
            slow.serving.tokens_per_sec < plain.tokens_per_sec,
            "spec@0 {} vs incremental {}",
            slow.serving.tokens_per_sec,
            plain.tokens_per_sec
        );
        assert_eq!(slow.stats.accepted, 0);
        assert!(slow.stats.rolled_back > 0);
    }

    #[test]
    fn mixed_share_splits_the_batch_and_commits_within_bounds() {
        let spec = GpuSpec::rtx4090();
        let c = cfg(Framework::SpInfer, 10.0);
        let r = serve_spec(
            &spec,
            &c,
            &SpecConfig {
                spec_share: 0.5,
                ..SpecConfig::default()
            },
        );
        assert!(r.stats.spec_requests > 0);
        assert!(r.stats.plain_requests > 0);
        // Commits never overrun a request's output length: completed
        // tokens are bounded by completed-and-running demand.
        let max_tokens = (r.serving.completed + r.serving.in_flight) * c.output_len;
        assert!(r.stats.accepted + r.stats.bonus <= max_tokens as u64);
    }

    #[test]
    fn p95_index_rounding_edge_cases() {
        // Nearest-rank (`ceil(0.95 n)` clamped to [1, n], 1-based):
        // N=1 → the only sample; N=2 → the larger; N=19 → ceil(18.05) =
        // rank 19 (the max); N=20 → rank 19 of 20 (second-largest).
        let lat = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(ServingReport::p95_from_sorted(&lat(1)), 1.0);
        assert_eq!(ServingReport::p95_from_sorted(&lat(2)), 2.0);
        assert_eq!(ServingReport::p95_from_sorted(&lat(19)), 19.0);
        assert_eq!(ServingReport::p95_from_sorted(&lat(20)), 19.0);
        assert_eq!(ServingReport::p95_from_sorted(&[]), 0.0);
    }

    #[test]
    fn traced_serve_matches_untraced_and_covers_the_horizon() {
        use gpu_sim::trace::EventKind;
        let spec = GpuSpec::rtx4090();
        let c = cfg(Framework::SpInfer, 2.0);
        let plain = serve(&spec, &c);
        let sink = TraceSink::new();
        let traced = traced(&spec, &c, &sink).serving;
        // Tracing only records — the report is bit-identical.
        assert_eq!(plain.completed, traced.completed);
        assert_eq!(
            plain.throughput_rps.to_bits(),
            traced.throughput_rps.to_bits()
        );
        assert_eq!(
            plain.p95_latency_sec.to_bits(),
            traced.p95_latency_sec.to_bits()
        );
        let t = sink.finish();
        let spans: Vec<_> = t
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Span)
            .collect();
        // One span per prefill admission + one per decode iteration; at
        // 2 rps over 60 s there are at least `completed` of each kind.
        assert!(t.phase_names("phase").contains(&"prefill"));
        assert!(t.phase_names("phase").contains(&"decode_iter"));
        assert!(spans.len() >= 2 * plain.completed, "spans {}", spans.len());
        assert!(spans.iter().all(|e| e.dur_us >= 0.0 && e.ts_us >= 0.0));
        // Spans live on the serving sim clock: none extends past the
        // final sim timestamp implied by the horizon plus one step.
        let end = spans.iter().map(|e| e.ts_us + e.dur_us).fold(0.0, f64::max);
        assert!(end < (c.duration_sec + 10.0) * 1e6, "end {end}");
        // Decode spans carry the batch size as an argument.
        assert!(spans
            .iter()
            .filter(|e| e.name == "decode_iter")
            .all(|e| matches!(e.arg, Some(("batch", b)) if b >= 1.0)));
    }
}
