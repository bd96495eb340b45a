//! Decode section: greedy batched decoding through
//! `llm::model::BatchGenerator` on a Wanda-pruned, TCA-BME-encoded model,
//! then direct small launches of the model's own encoded layers.
//!
//! Layers: `llm.model` (prune + encode, each decode step) and `core.spmm`
//! at N = batch, where fixed per-launch cost dominates.

use crate::report::{Checks, Clock, Metric, SplitMix};
use crate::spans::{last, named, Span, Tracer};
use crate::stats::{median, tail};
use gpu_sim::matrix::{random_dense, DenseMatrix, ValueDist};
use gpu_sim::spec::GpuSpec;
use spinfer_llm::model::ops::argmax;
use spinfer_llm::model::{BatchGenerator, ModelRef, SparseTransformerWeights, TransformerWeights};
use spinfer_llm::ModelConfig;

#[derive(Clone, Copy, Debug)]
pub struct DecodeSize {
    pub layers: usize,
    pub hidden: usize,
    pub heads: usize,
    pub ffn_hidden: usize,
    pub vocab: usize,
    pub batch: usize,
    pub prompt_len: usize,
    pub new_tokens: usize,
    pub sparsity: f64,
    /// Generations per round: enough that a probe-size section's median
    /// has samples to pass over a stall.
    pub per_round: usize,
}

impl DecodeSize {
    fn config(&self) -> ModelConfig {
        ModelConfig {
            name: "OPT-shaped",
            layers: self.layers,
            hidden: self.hidden,
            heads: self.heads,
            kv_heads: self.heads,
            ffn_hidden: self.ffn_hidden,
            vocab: self.vocab,
            gated_ffn: false,
            experts: 1,
            active_experts: 1,
        }
    }

    /// Forward passes per generation: the prompt, then every generated
    /// token but the last.
    pub fn steps(&self) -> usize {
        self.prompt_len + self.new_tokens - 1
    }
}

pub struct DecodeInputs {
    size: DecodeSize,
    seed: u64,
    dense: TransformerWeights,
    prompts: Vec<Vec<usize>>,
    /// Activation tiles (`hidden × batch`, `ffn × batch`) for the direct
    /// small launches.
    x_hidden: DenseMatrix,
    x_ffn: DenseMatrix,
}

/// One generation plus its direct small launches.
#[derive(Clone, Debug, PartialEq)]
pub struct DecodeSample {
    pub tokens: Vec<Vec<usize>>,
    pub step_secs: Vec<f64>,
    pub launches: usize,
    pub linear_sec: f64,
}

impl DecodeInputs {
    pub fn generate(size: DecodeSize, seed: u64, tr: &Tracer) -> Self {
        let (dense, _) = tr.span("gpu_sim.matrix.generate", || {
            TransformerWeights::random(size.config(), seed)
        });
        let (x_hidden, _) = tr.span("gpu_sim.matrix.generate", || {
            random_dense(size.hidden, size.batch, ValueDist::Uniform, seed ^ 0xa11)
        });
        let (x_ffn, _) = tr.span("gpu_sim.matrix.generate", || {
            random_dense(
                size.ffn_hidden,
                size.batch,
                ValueDist::Uniform,
                seed ^ 0xf11,
            )
        });
        let mut rng = SplitMix(seed ^ 0x009e_03b7_5eed);
        let prompts = (0..size.batch)
            .map(|_| {
                (0..size.prompt_len)
                    .map(|_| (rng.next() % size.vocab as u64) as usize)
                    .collect()
            })
            .collect();
        DecodeInputs {
            size,
            seed,
            dense,
            prompts,
            x_hidden,
            x_ffn,
        }
    }

    pub fn per_round(&self) -> usize {
        self.size.per_round
    }

    /// Wanda prune + TCA-BME encode of every linear layer.
    pub fn setup(&self, tr: &Tracer) -> (SparseTransformerWeights, f64) {
        tr.span("llm.model.pruned", || {
            self.dense.pruned(self.size.sparsity, self.seed)
        })
    }

    /// Greedy generation, one span per `BatchGenerator::step`, then one
    /// direct launch of each encoded layer at N = batch.
    pub fn run(
        &self,
        spec: &GpuSpec,
        model: &SparseTransformerWeights,
        tr: &Tracer,
        checks: &mut Checks,
    ) -> DecodeSample {
        let s = self.size;
        let mut gen = BatchGenerator::new(
            ModelRef::Sparse(model),
            spec.clone(),
            s.batch,
            s.prompt_len + s.new_tokens,
        );
        let mut step_secs = Vec::with_capacity(s.steps());
        let mut step = |gen: &mut BatchGenerator, tokens: &[usize]| {
            // Telemetry so far rides on each step span; the last one
            // holds the generation's totals.
            let ((logits, _), secs) = tr.span_with(
                "llm.model.step",
                || (gen.step(tokens), gen.telemetry),
                |(_, t)| {
                    vec![
                        ("launches", t.launches as f64),
                        ("linear_sec", t.linear_sec),
                    ]
                },
            );
            step_secs.push(secs);
            logits
        };
        let mut logits = Vec::new();
        for i in 0..s.prompt_len {
            let tokens: Vec<usize> = self.prompts.iter().map(|p| p[i]).collect();
            logits = step(&mut gen, &tokens);
        }
        let mut tokens = vec![Vec::with_capacity(s.new_tokens); s.batch];
        for round in 0..s.new_tokens {
            let next: Vec<usize> = logits.iter().map(|l| argmax(l)).collect();
            for (seq, &t) in tokens.iter_mut().zip(&next) {
                seq.push(t);
            }
            if round + 1 < s.new_tokens {
                logits = step(&mut gen, &next);
            }
        }
        let in_vocab = tokens.iter().flatten().all(|&t| t < s.vocab);
        checks.check(in_vocab, || {
            "a decoded token is outside the vocabulary".into()
        });

        for layer in &model.layers {
            for (h, x) in [
                (&layer.qkv, &self.x_hidden),
                (&layer.attn_out, &self.x_hidden),
                (&layer.ffn_up, &self.x_hidden),
                (&layer.ffn_down, &self.x_ffn),
            ] {
                let (run, _) = tr.span_with(
                    "core.spmm.small_launch",
                    || h.matmul(spec, x),
                    |r| vec![("sim_us", r.time_us())],
                );
                checks.check(
                    run.output.is_some_and(|o| o.iter().all(|v| v.is_finite())),
                    || "a small launch returned a non-finite output".into(),
                );
            }
        }
        DecodeSample {
            tokens,
            step_secs,
            launches: gen.telemetry.launches,
            linear_sec: gen.telemetry.linear_sec,
        }
    }
}

/// `decode_tok_per_s` is batch / the median host seconds of a step: every
/// step advances each sequence by one token, and the median keeps a
/// stall on a shared host from moving the figure.
pub fn end_to_end(size: &DecodeSize, samples: &[DecodeSample]) -> Vec<Metric> {
    let steps: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.step_secs.iter().copied())
        .collect();
    vec![
        Metric::new(
            "decode_tok_per_s",
            size.batch as f64 / median(&steps),
            "tok/s",
            Clock::Host,
        ),
        Metric::new(
            "sim_decode_us_per_tok",
            samples[0].linear_sec * 1e6 / (size.batch * size.steps()) as f64,
            "us",
            Clock::Sim,
        ),
    ]
}

pub fn per_layer(spans: &[Span]) -> Vec<Metric> {
    let ms = |name| {
        named(spans, name)
            .map(|s| s.secs() * 1e3)
            .collect::<Vec<_>>()
    };
    let steps = ms("llm.model.step");
    let final_step = last(spans, "llm.model.step");
    vec![
        Metric::new(
            "llm.model.prune_encode_s",
            median(
                &named(spans, "llm.model.pruned")
                    .map(Span::secs)
                    .collect::<Vec<_>>(),
            ),
            "s",
            Clock::Host,
        ),
        Metric::new("llm.model.step_p50_ms", median(&steps), "ms", Clock::Host),
        Metric::new("llm.model.step_tail_ms", tail(&steps).1, "ms", Clock::Host),
        Metric::new(
            "llm.model.launches",
            final_step.attr("launches"),
            "count",
            Clock::Count,
        ),
        Metric::new(
            "llm.model.sim_linear_us",
            final_step.attr("linear_sec") * 1e6,
            "us",
            Clock::Sim,
        ),
        Metric::new(
            "core.spmm.small_launch_ms",
            median(&ms("core.spmm.small_launch")),
            "ms",
            Clock::Host,
        ),
    ]
}
