//! Tree-verify step planning and acceptance outcomes.
//!
//! One decode iteration of a speculative batch folds *all* candidate
//! tokens of *all* speculative requests — plus the single current token
//! of every non-speculative request — into one wide-N SpMM launch per
//! layer. [`plan_step`] computes that launch's width and the
//! topology-aware KV context the step reads; [`TreeVerifier`] turns the
//! site-hashed acceptance draws into per-request commit/rollback
//! outcomes.
//!
//! Incremental decode is the degenerate case of the same plan, not a
//! separate path: with an empty tree every request contributes one
//! verify token and its `base` context, which is exactly a one-token
//! decode step. The serving loop ([`crate::serving::serve_spec_ctx`])
//! and every fleet replica plan their steps here and commit through
//! [`TreeVerifier::commit`].

use super::policy::AcceptanceModel;
use super::tree::TokenTree;
use super::{SpecConfig, SpecStats};

/// One decode iteration's launch plan over a mixed batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepPlan {
    /// Requests in the running batch.
    pub batch: usize,
    /// Of those, requests running speculatively this step.
    pub spec_batch: usize,
    /// Tokens folded into the wide-N verify launch (the GEMM `n`).
    pub verify_tokens: usize,
    /// KV context the step reads, topology-attributed per request.
    pub sum_ctx: usize,
}

/// Plans one decode iteration: `requests` yields, per running request,
/// whether it speculates this step and the `base` context an
/// incremental step would read for it (the serving loop counts the
/// token being decoded, `input_len + generated + 1`; the fleet counts
/// `input_len + generated`).
pub fn plan_step<I>(requests: I, tree: &TokenTree) -> StepPlan
where
    I: IntoIterator<Item = (bool, usize)>,
{
    let mut plan = StepPlan::default();
    for (speculative, base) in requests {
        plan.batch += 1;
        if speculative && !tree.is_empty() {
            plan.spec_batch += 1;
            plan.verify_tokens += tree.verify_tokens_per_request();
            plan.sum_ctx += tree.attributed_ctx(base);
        } else {
            plan.verify_tokens += 1;
            plan.sum_ctx += base;
        }
    }
    plan
}

/// Outcome of verifying one speculative request for one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Drafted tokens accepted (the consecutive prefix).
    pub accepted: usize,
    /// Tokens committed: the accepted prefix plus the target model's
    /// bonus token from the deepest accepted position.
    pub committed: usize,
    /// Candidate nodes whose KV entries are rolled back.
    pub rolled_back: usize,
}

/// The per-run speculation oracle: tree topology, acceptance sampler,
/// and the speculative-share assignment, all pure in the config's seed.
#[derive(Clone, Debug)]
pub struct TreeVerifier {
    tree: TokenTree,
    acceptance: AcceptanceModel,
    spec_share: f64,
    seed: u64,
}

impl TreeVerifier {
    /// Builds the verifier (and its concrete tree) from a config.
    pub fn new(cfg: &SpecConfig) -> Self {
        TreeVerifier {
            tree: cfg.shape.build(),
            acceptance: AcceptanceModel::new(cfg.acceptance_rate),
            spec_share: cfg.spec_share,
            seed: cfg.seed,
        }
    }

    /// The materialised candidate tree.
    pub fn tree(&self) -> &TokenTree {
        &self.tree
    }

    /// True when speculation can change anything: a non-empty tree and
    /// a positive speculative share.
    pub fn armed(&self) -> bool {
        !self.tree.is_empty() && self.spec_share > 0.0
    }

    /// Does `request` run speculatively? Pure per (seed, request), so
    /// a request keeps its assignment across iterations and replicas.
    pub fn speculates(&self, request: u64) -> bool {
        self.armed() && AcceptanceModel::speculates(self.seed, self.spec_share, request)
    }

    /// Verifies one request's candidate tree at one step. `step` must
    /// uniquely identify the verify site per request (the tokens
    /// generated so far works: it strictly increases). `remaining` is
    /// the tokens the request still needs (`>= 1`); the accepted prefix
    /// is capped so the commit never overruns the request's output
    /// length, and capped-away candidates roll back with the rejects.
    pub fn outcome(&self, request: u64, step: u64, remaining: usize) -> VerifyOutcome {
        let cap = remaining.saturating_sub(1);
        let accepted = self
            .acceptance
            .accepted_len(self.seed, request, step, &self.tree)
            .min(cap);
        VerifyOutcome {
            accepted,
            committed: accepted + 1,
            rolled_back: self.tree.nodes() - accepted,
        }
    }

    /// Commits one request's verify step and books it in `stats`. A
    /// speculative request takes its accepted prefix plus the bonus
    /// token and rolls the rejected candidates back out of the KV cache;
    /// a plain request (or any request under an empty tree) commits its
    /// one token. Returns the tokens committed.
    pub fn commit(
        &self,
        stats: &mut SpecStats,
        request: u64,
        speculative: bool,
        generated: usize,
        output_len: usize,
    ) -> usize {
        if !speculative || self.tree.is_empty() {
            return 1;
        }
        let o = self.outcome(request, generated as u64, output_len - generated);
        stats.proposed += self.tree.nodes() as u64;
        stats.accepted += o.accepted as u64;
        stats.bonus += 1;
        stats.rolled_back += o.rolled_back as u64;
        o.committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tree::TreeShape;

    fn cfg(rate: f64) -> SpecConfig {
        SpecConfig {
            shape: TreeShape::new(2, 3, 8),
            acceptance_rate: rate,
            ..SpecConfig::default()
        }
    }

    #[test]
    fn plan_mixes_speculative_and_plain_requests() {
        let tree = TreeShape::new(2, 3, 8).build();
        let plan = plan_step([(true, 100), (false, 50), (true, 200)], &tree);
        assert_eq!(plan.batch, 3);
        assert_eq!(plan.spec_batch, 2);
        // Spec requests fold 9 tokens each, the plain one folds 1.
        assert_eq!(plan.verify_tokens, 9 + 1 + 9);
        // Spec contexts carry the depth_sum (16) on top of base.
        assert_eq!(plan.sum_ctx, 116 + 50 + 216);
    }

    #[test]
    fn degenerate_plan_is_the_incremental_plan() {
        let empty = TreeShape::degenerate().build();
        let plan = plan_step([(true, 100), (false, 50)], &empty);
        assert_eq!(plan.spec_batch, 0);
        assert_eq!(plan.verify_tokens, 2);
        assert_eq!(plan.sum_ctx, 150);
    }

    #[test]
    fn outcomes_commit_bonus_and_roll_back_rejects() {
        let v = TreeVerifier::new(&cfg(1.0));
        // Full acceptance: 3-deep prefix + bonus, 8 - 3 rolled back.
        let o = v.outcome(1, 0, 100);
        assert_eq!(o.accepted, 3);
        assert_eq!(o.committed, 4);
        assert_eq!(o.rolled_back, 5);

        let v0 = TreeVerifier::new(&cfg(0.0));
        let o0 = v0.outcome(1, 0, 100);
        assert_eq!((o0.accepted, o0.committed, o0.rolled_back), (0, 1, 8));
    }

    #[test]
    fn remaining_tokens_cap_the_commit() {
        let v = TreeVerifier::new(&cfg(1.0));
        // Only 2 tokens left: at most 1 accepted + the bonus.
        let o = v.outcome(1, 0, 2);
        assert_eq!(o.committed, 2);
        assert_eq!(o.rolled_back, 7);
        // Last token: pure bonus, the whole tree rolls back.
        let o1 = v.outcome(1, 0, 1);
        assert_eq!((o1.accepted, o1.committed, o1.rolled_back), (0, 1, 8));
    }

    #[test]
    fn arming_requires_tree_and_share() {
        assert!(TreeVerifier::new(&cfg(0.5)).armed());
        let degenerate = SpecConfig {
            shape: TreeShape::degenerate(),
            ..SpecConfig::default()
        };
        assert!(!TreeVerifier::new(&degenerate).armed());
        let zero_share = SpecConfig {
            spec_share: 0.0,
            ..SpecConfig::default()
        };
        let v = TreeVerifier::new(&zero_share);
        assert!(!v.armed());
        assert!((0..32).all(|r| !v.speculates(r)));
    }
}
