//! Speculative decoding with token-tree verification (SpecInfer-style).
//!
//! A small draft model proposes a tree of candidate continuations; the
//! target model verifies *all* candidates of the whole batch in one
//! wide-N pass per layer and commits the longest accepted prefix plus
//! one bonus token. Decode launches widen from `n = batch` to
//! `n = batch × (1 + tree nodes)` — exactly the regime where SpInfer's
//! TCA-BME kernels are most sublinear in `n`, so speculation converts
//! kernel wide-N efficiency into end-to-end tokens/s.
//!
//! The subsystem is deterministic end to end: the tree topology is a
//! pure function of its [`TreeShape`] and acceptance decisions are pure
//! seed hashes ([`AcceptanceModel`]). It is also the only decode path:
//! the LLM is a token-tree verifier, and incremental decode is the
//! verifier run on [`SpecConfig::degenerate`] — an empty tree and a free
//! draft. [`crate::serving::serve_spec_ctx`] is the one serving loop,
//! and [`crate::serving::serve`] is that loop on the degenerate config.
//!
//! Module layout: [`tree`] (topology + KV attribution), [`draft`]
//! (draft-model cost), [`policy`] (acceptance sampler), [`verify`]
//! (launch planning + commit/rollback outcomes).

pub mod draft;
pub mod policy;
pub mod tree;
pub mod verify;

pub use draft::DraftModel;
pub use policy::AcceptanceModel;
pub use tree::{TokenTree, TreeShape, MAX_TREE_BUDGET};
pub use verify::{plan_step, StepPlan, TreeVerifier, VerifyOutcome};

use spinfer_core::SpinferError;
use spinfer_obs::Registry;

use crate::serving::ServingReport;

/// One speculative-decoding scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpecConfig {
    /// Candidate-tree family drafted each verify step.
    pub shape: TreeShape,
    /// Draft-model cost profile.
    pub draft: DraftModel,
    /// Per-candidate acceptance probability in `[0, 1]`.
    pub acceptance_rate: f64,
    /// Fraction of requests that run speculatively (mixed batches);
    /// `1.0` speculates everything.
    pub spec_share: f64,
    /// Seed for acceptance and assignment draws — the only source of
    /// randomness in the subsystem.
    pub seed: u64,
}

impl Default for SpecConfig {
    fn default() -> Self {
        SpecConfig {
            shape: TreeShape::new(2, 3, 8),
            draft: DraftModel::default(),
            acceptance_rate: 0.8,
            spec_share: 1.0,
            seed: 0,
        }
    }
}

impl SpecConfig {
    /// The config under which speculative serving collapses onto the
    /// incremental decode path bit-for-bit: an empty tree, a free
    /// draft, and nothing to accept.
    pub fn degenerate() -> Self {
        SpecConfig {
            shape: TreeShape::degenerate(),
            draft: DraftModel::free(),
            acceptance_rate: 0.0,
            spec_share: 1.0,
            seed: 0,
        }
    }

    /// Config-time validation; every violation is a typed
    /// [`SpinferError::InvalidSpec`] naming the offending field.
    pub fn validate(&self) -> Result<(), SpinferError> {
        let invalid = |reason: &str| {
            Err(SpinferError::InvalidSpec {
                reason: reason.to_string(),
            })
        };
        if !(0.0..=1.0).contains(&self.acceptance_rate) {
            return invalid("acceptance_rate must be in [0, 1]");
        }
        if !(0.0..=1.0).contains(&self.spec_share) {
            return invalid("spec_share must be in [0, 1]");
        }
        if !(0.0..=1.0).contains(&self.draft.cost_frac) {
            return invalid("draft.cost_frac must be in [0, 1]");
        }
        if !self.draft.pass_overhead_sec.is_finite() || self.draft.pass_overhead_sec < 0.0 {
            return invalid("draft.pass_overhead_sec must be finite and >= 0");
        }
        self.shape.validate()
    }
}

/// Speculation counters accumulated over one serving run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpecStats {
    /// Requests admitted speculatively.
    pub spec_requests: u64,
    /// Requests admitted on the incremental path.
    pub plain_requests: u64,
    /// Decode iterations that verified at least one candidate tree.
    pub spec_iterations: u64,
    /// Tokens folded into wide-N decode launches (candidates + current
    /// tokens), across all iterations.
    pub verify_tokens: u64,
    /// Candidate tokens proposed by the draft model and verified.
    pub proposed: u64,
    /// Drafted tokens accepted by the target model.
    pub accepted: u64,
    /// Target-model bonus tokens committed (one per speculative request
    /// per verify step).
    pub bonus: u64,
    /// Candidate KV entries rolled back after rejection.
    pub rolled_back: u64,
    /// Tokens the draft model processed proposing trees.
    pub draft_tokens: u64,
    /// Simulated seconds spent drafting.
    pub draft_sec: f64,
    /// Simulated seconds spent in verify launches (decode iterations).
    pub verify_sec: f64,
}

impl SpecStats {
    /// Fraction of proposed candidates that were accepted (0 when
    /// nothing was proposed).
    pub fn observed_acceptance(&self) -> f64 {
        if self.proposed == 0 {
            0.0
        } else {
            self.accepted as f64 / self.proposed as f64
        }
    }
}

/// Outcome of one speculative serving run: the ordinary serving report
/// (tokens/s, latency, batching) plus the speculation ledger.
#[derive(Clone, Debug)]
pub struct SpecServingReport {
    /// The serving-loop outcome; `tokens_per_sec` and
    /// `tokens_per_iteration` count *committed* tokens, so speedup over
    /// the incremental path reads straight off the report.
    pub serving: ServingReport,
    /// Speculation counters.
    pub stats: SpecStats,
}

impl SpecServingReport {
    /// Mean tokens folded into each decode launch — the wide-N width
    /// speculation buys (equals mean batch for the degenerate config).
    pub fn tokens_per_launch(&self) -> f64 {
        if self.serving.iterations == 0 {
            0.0
        } else {
            self.stats.verify_tokens as f64 / self.serving.iterations as f64
        }
    }

    /// Writes the run into a metrics registry under `prefix` (e.g.
    /// `spec.w2d3b8.r80`): serving gauges, speculation counters, and
    /// the derived acceptance/width gauges.
    pub fn write_metrics(&self, reg: &mut Registry, prefix: &str) {
        let s = &self.serving;
        reg.gauge_set(&format!("{prefix}.tokens_per_sec"), s.tokens_per_sec);
        reg.gauge_set(
            &format!("{prefix}.tokens_per_iteration"),
            s.tokens_per_iteration,
        );
        reg.gauge_set(&format!("{prefix}.throughput_rps"), s.throughput_rps);
        reg.gauge_set(&format!("{prefix}.mean_latency_s"), s.mean_latency_sec);
        reg.gauge_set(&format!("{prefix}.p95_latency_s"), s.p95_latency_sec);
        reg.gauge_set(&format!("{prefix}.mean_batch"), s.mean_batch);
        reg.counter_add(&format!("{prefix}.completed"), s.completed as u64);
        reg.counter_add(&format!("{prefix}.iterations"), s.iterations as u64);
        let t = &self.stats;
        reg.counter_add(&format!("{prefix}.spec_requests"), t.spec_requests);
        reg.counter_add(&format!("{prefix}.plain_requests"), t.plain_requests);
        reg.counter_add(&format!("{prefix}.proposed"), t.proposed);
        reg.counter_add(&format!("{prefix}.accepted"), t.accepted);
        reg.counter_add(&format!("{prefix}.bonus"), t.bonus);
        reg.counter_add(&format!("{prefix}.rolled_back"), t.rolled_back);
        reg.counter_add(&format!("{prefix}.draft_tokens"), t.draft_tokens);
        reg.counter_add(&format!("{prefix}.verify_tokens"), t.verify_tokens);
        reg.gauge_set(
            &format!("{prefix}.acceptance_observed"),
            t.observed_acceptance(),
        );
        reg.gauge_set(
            &format!("{prefix}.tokens_per_launch"),
            self.tokens_per_launch(),
        );
        reg.gauge_set(&format!("{prefix}.draft_sec"), t.draft_sec);
        reg.gauge_set(&format!("{prefix}.verify_sec"), t.verify_sec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_names_the_offending_field() {
        assert!(SpecConfig::default().validate().is_ok());
        assert!(SpecConfig::degenerate().validate().is_ok());
        let cases = [
            (
                SpecConfig {
                    acceptance_rate: 1.5,
                    ..SpecConfig::default()
                },
                "acceptance_rate",
            ),
            (
                SpecConfig {
                    acceptance_rate: f64::NAN,
                    ..SpecConfig::default()
                },
                "acceptance_rate",
            ),
            (
                SpecConfig {
                    spec_share: -0.1,
                    ..SpecConfig::default()
                },
                "spec_share",
            ),
            (
                SpecConfig {
                    draft: DraftModel {
                        cost_frac: 2.0,
                        ..DraftModel::default()
                    },
                    ..SpecConfig::default()
                },
                "cost_frac",
            ),
            (
                SpecConfig {
                    draft: DraftModel {
                        pass_overhead_sec: -1.0,
                        ..DraftModel::default()
                    },
                    ..SpecConfig::default()
                },
                "pass_overhead_sec",
            ),
            (
                SpecConfig {
                    shape: TreeShape::new(2, 64, MAX_TREE_BUDGET + 1),
                    ..SpecConfig::default()
                },
                "budget",
            ),
        ];
        for (cfg, token) in cases {
            match cfg.validate().unwrap_err() {
                SpinferError::InvalidSpec { reason } => {
                    assert!(reason.contains(token), "{reason:?} missing {token:?}");
                }
                other => panic!("expected InvalidSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn stats_derive_acceptance_safely() {
        assert_eq!(SpecStats::default().observed_acceptance(), 0.0);
        let s = SpecStats {
            proposed: 100,
            accepted: 80,
            ..SpecStats::default()
        };
        assert!((s.observed_acceptance() - 0.8).abs() < 1e-12);
    }
}
