//! Window-search policies: how a thread walks a sub-structure array looking
//! for a window-valid cell.
//!
//! The paper's policy (§3) is two-phase: *"First the thread tries a given
//! number of random hops, then switches to round robin until a valid
//! sub-stack is found, or the thread updates the Global, after failing on all
//! sub-stacks."* The round-robin phase guarantees full coverage, which is
//! what makes the "no valid sub-stack ⇒ shift the window" decision sound.
//!
//! Two further behaviours are part of the policy:
//! * **locality** — each search starts from the cell on which the thread
//!   last succeeded;
//! * **contention avoidance** — a failed CAS triggers a *random* hop instead
//!   of a retry on the same cell.
//!
//! Nothing here is stack-specific: since the unified search engine
//! (`engine.rs`) took over the hot loops, the same [`SearchPolicy`] and
//! [`SearchConfig`] govern [`Stack2D`](crate::Stack2D),
//! [`Queue2D`](crate::Queue2D) and [`Counter2D`](crate::Counter2D) alike —
//! which is what lets the ablation results (`stack2d-harness`, `ablation`
//! binary) transfer across structures. Default policies differ per
//! structure: the stack keeps the paper's two-phase default, while the
//! queue and counter default to [`SearchPolicy::RoundRobinOnly`], their
//! historical covering sweep (probe counts are pinned by regression
//! tests).

use crate::params::Params;
use crate::rng::HopRng;

/// How candidate sub-stacks are enumerated during a search round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchPolicy {
    /// The paper's default: `random_hops` random probes, then a full
    /// round-robin sweep (guaranteeing every sub-stack is examined before a
    /// `Global` shift is proposed).
    TwoPhase {
        /// Number of random probes before switching to round-robin.
        random_hops: usize,
    },
    /// Ablation: no random phase, pure round-robin sweep from the starting
    /// index. This is the behaviour the paper attributes to `k-robin`'s
    /// search and blames for contention on consecutive sub-stacks.
    RoundRobinOnly,
    /// Ablation: the *search* phase is purely random (`2 * width` probes,
    /// no locality-guided start). The trailing covering sweep is retained —
    /// without full coverage, "no valid sub-stack" and "all empty" verdicts
    /// would be probabilistic, which is a correctness property, not a
    /// search-policy choice.
    RandomOnly,
}

impl Default for SearchPolicy {
    /// The paper's two-phase policy with a single random hop.
    fn default() -> Self {
        SearchPolicy::TwoPhase { random_hops: 1 }
    }
}

/// Full behavioural configuration of a windowed structure
/// ([`Stack2D`](crate::Stack2D), [`Queue2D`](crate::Queue2D) or
/// [`Counter2D`](crate::Counter2D)).
///
/// Bundles the window [`Params`] with the search-policy knobs so ablation
/// experiments can toggle one mechanism at a time — on any of the three
/// structures, via their `with_config` constructors or the
/// [`Builder`](crate::Builder)'s `search_policy` / `hop_on_contention` /
/// `locality` setters.
///
/// # Examples
///
/// ```
/// use stack2d::{Params, SearchConfig, SearchPolicy};
///
/// # fn main() -> Result<(), stack2d::ParamsError> {
/// let cfg = SearchConfig::new(Params::new(8, 2, 1)?)
///     .search_policy(SearchPolicy::RoundRobinOnly)
///     .hop_on_contention(false);
/// assert!(!cfg.hops_on_contention());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SearchConfig {
    params: Params,
    policy: SearchPolicy,
    hop_on_contention: bool,
    locality: bool,
    max_width: Option<usize>,
}

impl SearchConfig {
    /// Configuration with the paper's default behaviour for the given window
    /// parameters.
    pub fn new(params: Params) -> Self {
        SearchConfig {
            params,
            policy: SearchPolicy::default(),
            hop_on_contention: true,
            locality: true,
            max_width: None,
        }
    }

    /// Replaces the search policy.
    #[must_use]
    pub fn search_policy(mut self, policy: SearchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables/disables the random hop after a failed CAS (paper default:
    /// enabled).
    #[must_use]
    pub fn hop_on_contention(mut self, enabled: bool) -> Self {
        self.hop_on_contention = enabled;
        self
    }

    /// Enables/disables starting each search at the last successful
    /// sub-stack (paper default: enabled).
    #[must_use]
    pub fn locality(mut self, enabled: bool) -> Self {
        self.locality = enabled;
        self
    }

    /// Pre-sizes the sub-structure array to `max_width`, the ceiling for
    /// online retunes ([`Stack2D::retune`](crate::Stack2D::retune) and its
    /// queue/counter twins; default: the initial `width`, i.e. a
    /// fixed-width structure). Values below the initial width are clamped
    /// up to it.
    #[must_use]
    pub fn max_width(mut self, max_width: usize) -> Self {
        self.max_width = Some(max_width);
        self
    }

    /// The window parameters.
    #[inline]
    pub fn params(&self) -> Params {
        self.params
    }

    /// The active search policy.
    #[inline]
    pub fn policy(&self) -> SearchPolicy {
        self.policy
    }

    /// Whether a failed CAS triggers a random hop.
    #[inline]
    pub fn hops_on_contention(&self) -> bool {
        self.hop_on_contention
    }

    /// Whether searches start from the last successful sub-stack.
    #[inline]
    pub fn uses_locality(&self) -> bool {
        self.locality
    }

    /// Number of sub-structures the structure allocates: the configured
    /// [`SearchConfig::max_width`], floored at the initial width.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.max_width.unwrap_or(0).max(self.params.width())
    }
}

impl From<Params> for SearchConfig {
    fn from(params: Params) -> Self {
        SearchConfig::new(params)
    }
}

/// Iterator over candidate sub-stack indices for one search round.
///
/// Yields indices according to the policy; after it is exhausted the caller
/// knows (for the covering policies) that *every* sub-stack was probed and
/// found invalid under the `Global` value the round started with, which is
/// the precondition for proposing a window shift.
#[derive(Debug)]
pub struct Probes<'r> {
    policy: SearchPolicy,
    width: usize,
    start: usize,
    issued: usize,
    /// Index the round-robin phase continues from (set by the random phase).
    rr_cursor: usize,
    rng: &'r mut HopRng,
}

impl<'r> Probes<'r> {
    /// Starts a search round of `policy` over `width` sub-stacks beginning
    /// at `start`.
    pub fn new(policy: SearchPolicy, width: usize, start: usize, rng: &'r mut HopRng) -> Self {
        debug_assert!(width > 0);
        let start = start % width;
        Probes { policy, width, start, issued: 0, rr_cursor: start, rng }
    }

    /// Total number of probes this round will issue.
    pub fn budget(&self) -> usize {
        match self.policy {
            SearchPolicy::TwoPhase { random_hops } => {
                // The first probe is the locality-preserving start index
                // itself, then `random_hops` random probes, then a full
                // round-robin sweep.
                1 + random_hops.min(self.width) + self.width
            }
            SearchPolicy::RoundRobinOnly => self.width,
            SearchPolicy::RandomOnly => 3 * self.width,
        }
    }

    /// Number of trailing probes that constitute the full-coverage sweep.
    /// Every policy ends with one: exhaustion ("shift the window") and
    /// emptiness ("return `None`") verdicts are only sound after probing
    /// every sub-stack.
    pub fn coverage_len(&self) -> usize {
        self.width
    }

    /// Whether probe number `i` (0-based, as yielded) belongs to the
    /// full-coverage round-robin sweep. Used by the pop path: the "all
    /// sub-stacks empty" verdict may only be derived from a covering sweep.
    pub fn in_coverage(&self, i: usize) -> bool {
        i + self.coverage_len() >= self.budget() && self.coverage_len() > 0
    }
}

impl Iterator for Probes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.issued >= self.budget() {
            return None;
        }
        let i = self.issued;
        self.issued += 1;
        let idx = match self.policy {
            SearchPolicy::TwoPhase { random_hops } => {
                let hops = random_hops.min(self.width);
                if i == 0 {
                    // Locality: re-examine the last successful sub-stack.
                    self.start
                } else if i <= hops {
                    let r = self.rng.bounded(self.width);
                    self.rr_cursor = r;
                    r
                } else {
                    // Round-robin sweep resumes from wherever the random
                    // phase ended, covering `width` consecutive indices.
                    let step = i - hops; // 1-based within the sweep
                    (self.rr_cursor + step) % self.width
                }
            }
            SearchPolicy::RoundRobinOnly => (self.start + i) % self.width,
            SearchPolicy::RandomOnly => {
                let random_phase = 2 * self.width;
                if i < random_phase {
                    let r = self.rng.bounded(self.width);
                    self.rr_cursor = r;
                    r
                } else {
                    // Covering sweep resuming from the last random probe.
                    (self.rr_cursor + (i - random_phase) + 1) % self.width
                }
            }
        };
        Some(idx)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.budget() - self.issued;
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(policy: SearchPolicy, width: usize, start: usize, seed: u64) -> Vec<usize> {
        let mut rng = HopRng::seeded(seed);
        Probes::new(policy, width, start, &mut rng).collect()
    }

    #[test]
    fn two_phase_starts_at_locality_index() {
        let v = collect(SearchPolicy::TwoPhase { random_hops: 2 }, 8, 5, 1);
        assert_eq!(v[0], 5);
    }

    #[test]
    fn two_phase_coverage_sweep_visits_every_substack() {
        for width in 1..12 {
            for seed in 0..8 {
                let v = collect(SearchPolicy::TwoPhase { random_hops: 2 }, width, 0, seed);
                let sweep: Vec<usize> = v[v.len() - width..].to_vec();
                let mut seen = vec![false; width];
                for i in sweep {
                    seen[i] = true;
                }
                assert!(
                    seen.iter().all(|&s| s),
                    "sweep missed a sub-stack for width={width} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn round_robin_only_is_a_permutation() {
        for width in 1..12 {
            for start in 0..width {
                let v = collect(SearchPolicy::RoundRobinOnly, width, start, 0);
                assert_eq!(v.len(), width);
                let mut sorted = v.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..width).collect::<Vec<_>>());
                assert_eq!(v[0], start);
            }
        }
    }

    #[test]
    fn random_only_budget_is_three_sweeps() {
        let v = collect(SearchPolicy::RandomOnly, 5, 0, 42);
        assert_eq!(v.len(), 15);
        assert!(v.iter().all(|&i| i < 5));
    }

    #[test]
    fn random_only_ends_with_a_covering_sweep() {
        for width in 1..10 {
            for seed in 0..8 {
                let v = collect(SearchPolicy::RandomOnly, width, 0, seed);
                let sweep = &v[v.len() - width..];
                let mut seen = vec![false; width];
                for &i in sweep {
                    seen[i] = true;
                }
                assert!(
                    seen.iter().all(|&s| s),
                    "random-only sweep missed a sub-stack: width={width} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn coverage_classification_matches_budget() {
        let mut rng = HopRng::seeded(9);
        let p = Probes::new(SearchPolicy::TwoPhase { random_hops: 3 }, 6, 2, &mut rng);
        let budget = p.budget();
        let cov = p.coverage_len();
        assert_eq!(cov, 6);
        // The last `cov` probes are coverage, the earlier ones are not.
        for i in 0..budget {
            assert_eq!(p.in_coverage(i), i >= budget - cov, "probe {i}");
        }
    }

    #[test]
    fn random_only_coverage_is_the_trailing_sweep() {
        let mut rng = HopRng::seeded(9);
        let p = Probes::new(SearchPolicy::RandomOnly, 6, 0, &mut rng);
        assert_eq!(p.coverage_len(), 6);
        for i in 0..p.budget() {
            assert_eq!(p.in_coverage(i), i >= p.budget() - 6);
        }
    }

    #[test]
    fn start_index_is_wrapped() {
        let v = collect(SearchPolicy::RoundRobinOnly, 4, 10, 0);
        assert_eq!(v[0], 2);
    }

    #[test]
    fn size_hint_is_exact() {
        let mut rng = HopRng::seeded(3);
        let mut p = Probes::new(SearchPolicy::TwoPhase { random_hops: 1 }, 4, 0, &mut rng);
        let mut remaining = p.budget();
        assert_eq!(p.size_hint(), (remaining, Some(remaining)));
        while p.next().is_some() {
            remaining -= 1;
            assert_eq!(p.size_hint(), (remaining, Some(remaining)));
        }
    }

    #[test]
    fn config_builder_round_trips() {
        let params = Params::new(4, 2, 1).unwrap();
        let cfg = SearchConfig::new(params)
            .search_policy(SearchPolicy::RandomOnly)
            .hop_on_contention(false)
            .locality(false);
        assert_eq!(cfg.params(), params);
        assert_eq!(cfg.policy(), SearchPolicy::RandomOnly);
        assert!(!cfg.hops_on_contention());
        assert!(!cfg.uses_locality());
    }

    #[test]
    fn capacity_defaults_to_width_and_clamps_up() {
        let params = Params::new(4, 2, 1).unwrap();
        assert_eq!(SearchConfig::new(params).capacity(), 4);
        assert_eq!(SearchConfig::new(params).max_width(16).capacity(), 16);
        // Below the initial width the clamp wins.
        assert_eq!(SearchConfig::new(params).max_width(2).capacity(), 4);
    }

    #[test]
    fn config_from_params_uses_paper_defaults() {
        let cfg: SearchConfig = Params::default().into();
        assert_eq!(cfg.policy(), SearchPolicy::TwoPhase { random_hops: 1 });
        assert!(cfg.hops_on_contention());
        assert!(cfg.uses_locality());
    }

    #[test]
    fn two_phase_random_hops_larger_than_width_is_clamped() {
        let v = collect(SearchPolicy::TwoPhase { random_hops: 100 }, 3, 0, 5);
        assert_eq!(v.len(), 1 + 3 + 3);
    }
}
