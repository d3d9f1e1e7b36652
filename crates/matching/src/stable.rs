//! Stable marriage with incomplete preference lists (dummy entries) and
//! enumeration of all stable matchings.
//!
//! This is the engine behind the paper's Algorithms 1 and 2. The paper's
//! *dummy entry* ("no dispatch" / "no service") is modelled by *truncating*
//! each agent's preference list: everything an agent ranks below its dummy
//! is simply not in its list, so the agent would rather stay unmatched than
//! take it. Theorem 1 of the paper (a stable matching always exists, even
//! with `|R| ≠ |T|`) is the classical existence result for this model.
//!
//! Terminology: the proposing side ("passenger requests" in the paper) are
//! **proposers**; the reviewing side ("taxis") are **reviewers**.
//!
//! # Examples
//!
//! ```
//! use o2o_matching::StableInstance;
//!
//! // Two proposers, two reviewers; everyone accepts everyone.
//! let inst = StableInstance::new(
//!     vec![vec![0, 1], vec![0, 1]], // proposers' lists over reviewers
//!     vec![vec![1, 0], vec![0, 1]], // reviewers' lists over proposers
//! )?;
//! let m = inst.propose();
//! assert_eq!(m.proposer_partner(0), Some(1));
//! assert_eq!(m.proposer_partner(1), Some(0));
//! assert!(inst.is_stable(&m));
//! # Ok::<(), o2o_matching::PreferenceError>(())
//! ```

use std::fmt;

use crate::budget::TimeBudget;
use o2o_obs as obs;

/// Errors from constructing a [`StableInstance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreferenceError {
    /// A preference list referenced a partner index out of range.
    IndexOutOfRange {
        /// `"proposer"` or `"reviewer"`.
        side: &'static str,
        /// The agent whose list is invalid.
        agent: usize,
        /// The out-of-range entry.
        entry: usize,
    },
    /// A preference list contained the same partner twice.
    DuplicateEntry {
        /// `"proposer"` or `"reviewer"`.
        side: &'static str,
        /// The agent whose list is invalid.
        agent: usize,
        /// The repeated entry.
        entry: usize,
    },
}

impl fmt::Display for PreferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreferenceError::IndexOutOfRange { side, agent, entry } => {
                write!(f, "{side} {agent} ranks out-of-range partner {entry}")
            }
            PreferenceError::DuplicateEntry { side, agent, entry } => {
                write!(f, "{side} {agent} ranks partner {entry} twice")
            }
        }
    }
}

impl std::error::Error for PreferenceError {}

/// A (possibly partial) matching between proposers and reviewers.
///
/// `None` means matched to the dummy (unserved request / undispatched
/// taxi).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Matching {
    proposer_to_reviewer: Vec<Option<usize>>,
    reviewer_to_proposer: Vec<Option<usize>>,
}

impl Matching {
    /// An empty matching for the given side sizes.
    #[must_use]
    pub fn empty(proposers: usize, reviewers: usize) -> Self {
        Matching {
            proposer_to_reviewer: vec![None; proposers],
            reviewer_to_proposer: vec![None; reviewers],
        }
    }

    /// The reviewer matched to proposer `p`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn proposer_partner(&self, p: usize) -> Option<usize> {
        self.proposer_to_reviewer[p]
    }

    /// The proposer matched to reviewer `r`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn reviewer_partner(&self, r: usize) -> Option<usize> {
        self.reviewer_to_proposer[r]
    }

    /// Number of matched pairs.
    #[must_use]
    pub fn matched_pairs(&self) -> usize {
        self.proposer_to_reviewer.iter().flatten().count()
    }

    /// Iterates over matched `(proposer, reviewer)` pairs in proposer
    /// order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.proposer_to_reviewer
            .iter()
            .enumerate()
            .filter_map(|(p, r)| r.map(|r| (p, r)))
    }

    /// Links proposer `p` with reviewer `r`, unlinking any previous
    /// partners of both.
    pub fn link(&mut self, p: usize, r: usize) {
        if let Some(old_r) = self.proposer_to_reviewer[p] {
            self.reviewer_to_proposer[old_r] = None;
        }
        if let Some(old_p) = self.reviewer_to_proposer[r] {
            self.proposer_to_reviewer[old_p] = None;
        }
        self.proposer_to_reviewer[p] = Some(r);
        self.reviewer_to_proposer[r] = Some(p);
    }

    /// Unlinks proposer `p` from its partner, if any.
    pub fn unlink_proposer(&mut self, p: usize) {
        if let Some(r) = self.proposer_to_reviewer[p].take() {
            self.reviewer_to_proposer[r] = None;
        }
    }

    /// The same pairs with the two sides' roles exchanged.
    fn flipped(self) -> Matching {
        Matching {
            proposer_to_reviewer: self.reviewer_to_proposer,
            reviewer_to_proposer: self.proposer_to_reviewer,
        }
    }
}

/// Result of a budget-bounded enumeration
/// ([`StableInstance::enumerate_budgeted`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Enumeration {
    /// The stable matchings collected before the walk ended. Never empty:
    /// the proposer-optimal matching is always first, whatever the budget.
    pub matchings: Vec<Matching>,
    /// BreakDispatch nodes explored (attempted `break_dispatch` calls).
    pub nodes: u64,
    /// Whether the budget (node cap or deadline) stopped the walk before
    /// it finished. Reaching an explicit `limit` does not count.
    pub truncated: bool,
}

/// Result of the anytime reviewer-optimal search
/// ([`StableInstance::reviewer_optimal_anytime`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnytimeSearch {
    /// The best stable matching found within the budget. Always stable;
    /// with an unlimited budget, exactly the reviewer-optimal matching.
    pub best: Matching,
    /// [`StableInstance::reviewer_cost`] of `best`.
    pub reviewer_cost: u64,
    /// The tightest proven lower bound on the reviewer cost of any
    /// stable matching. Starts as the instance-wide bound (each matched
    /// reviewer at its favourite mutually acceptable proposer); when the
    /// walk completes un-truncated, the exhaustive visit itself proves
    /// `best` optimal, so the bound is raised to `reviewer_cost` and
    /// [`AnytimeSearch::gap`] certifies `0`.
    pub lower_bound: u64,
    /// BreakDispatch nodes explored (attempted `break_dispatch` calls).
    pub nodes: u64,
    /// Whether the budget stopped the walk. `false` means the search is
    /// provably complete: either the tree was exhausted or the lower
    /// bound was met.
    pub truncated: bool,
}

impl AnytimeSearch {
    /// The measured optimality gap: how far `best`'s reviewer cost sits
    /// above the proven lower bound. `0` certifies reviewer-optimality;
    /// a positive gap bounds how much better the true optimum could be
    /// (it is often smaller, since the bound itself may be unattainable).
    #[must_use]
    pub fn gap(&self) -> u64 {
        self.reviewer_cost - self.lower_bound
    }
}

/// The "not in this agent's list" sentinel: `rank[a][b] = position of b
/// in a's list`, or `NOT_RANKED` when `a` would rather keep its dummy
/// than take `b`. Every algorithm in this module treats it as "rejected
/// below the dummy" — it is the single source of truth for
/// (un)acceptability.
const NOT_RANKED: u32 = u32::MAX;

/// Rank table for one side: position of each partner in each agent's
/// list, or [`NOT_RANKED`] — `O(agents · partners)` memory, O(1) lookup.
fn build_ranks(lists: &[Vec<usize>], other_side: usize) -> Vec<Vec<u32>> {
    lists
        .iter()
        .map(|list| {
            let mut ranks = vec![NOT_RANKED; other_side];
            for (pos, &b) in list.iter().enumerate() {
                ranks[b] = pos as u32;
            }
            ranks
        })
        .collect()
}

fn validate(
    lists: &[Vec<usize>],
    other_side: usize,
    side: &'static str,
) -> Result<(), PreferenceError> {
    for (agent, list) in lists.iter().enumerate() {
        let mut seen = vec![false; other_side];
        for &entry in list {
            if entry >= other_side {
                return Err(PreferenceError::IndexOutOfRange { side, agent, entry });
            }
            if seen[entry] {
                return Err(PreferenceError::DuplicateEntry { side, agent, entry });
            }
            seen[entry] = true;
        }
    }
    Ok(())
}

/// A stable-marriage instance with incomplete (dummy-truncated) lists.
///
/// Each proposer's list ranks the reviewers it would accept, most preferred
/// first; everything below the dummy is omitted. Reviewers' lists likewise.
/// A pair can match only if each appears in the other's list.
#[derive(Debug, Clone)]
pub struct StableInstance {
    proposer_lists: Vec<Vec<usize>>,
    reviewer_lists: Vec<Vec<usize>>,
    /// Rank of reviewer `r` for proposer `p`.
    proposer_rank: Vec<Vec<u32>>,
    /// Rank of proposer `p` for reviewer `r`.
    reviewer_rank: Vec<Vec<u32>>,
}

impl StableInstance {
    /// Builds an instance from truncated preference lists.
    ///
    /// `proposer_lists[p]` ranks reviewer indices; `reviewer_lists[r]`
    /// ranks proposer indices. The side sizes are inferred from the outer
    /// vector lengths.
    ///
    /// # Errors
    ///
    /// Returns [`PreferenceError`] when a list contains an out-of-range or
    /// duplicate index.
    pub fn new(
        proposer_lists: Vec<Vec<usize>>,
        reviewer_lists: Vec<Vec<usize>>,
    ) -> Result<Self, PreferenceError> {
        let n_reviewers = reviewer_lists.len();
        let n_proposers = proposer_lists.len();
        validate(&proposer_lists, n_reviewers, "proposer")?;
        validate(&reviewer_lists, n_proposers, "reviewer")?;
        let proposer_rank = build_ranks(&proposer_lists, n_reviewers);
        let reviewer_rank = build_ranks(&reviewer_lists, n_proposers);
        Ok(StableInstance {
            proposer_lists,
            reviewer_lists,
            proposer_rank,
            reviewer_rank,
        })
    }

    /// Rank of reviewer `r` for proposer `p`, or [`NOT_RANKED`].
    #[inline]
    fn prank(&self, p: usize, r: usize) -> u32 {
        self.proposer_rank[p][r]
    }

    /// Rank of proposer `p` for reviewer `r`, or [`NOT_RANKED`].
    #[inline]
    fn rrank(&self, r: usize, p: usize) -> u32 {
        self.reviewer_rank[r][p]
    }

    /// Number of proposers.
    #[must_use]
    pub fn proposers(&self) -> usize {
        self.proposer_lists.len()
    }

    /// Number of reviewers.
    #[must_use]
    pub fn reviewers(&self) -> usize {
        self.reviewer_lists.len()
    }

    /// Proposer `p`'s truncated preference list.
    #[must_use]
    pub fn proposer_list(&self, p: usize) -> &[usize] {
        &self.proposer_lists[p]
    }

    /// Reviewer `r`'s truncated preference list.
    #[must_use]
    pub fn reviewer_list(&self, r: usize) -> &[usize] {
        &self.reviewer_lists[r]
    }

    /// The instance's sides as built: proposers propose.
    fn sides(&self) -> Sides<'_> {
        Sides {
            proposer_lists: &self.proposer_lists,
            reviewers: self.reviewer_lists.len(),
            reviewer_rank: &self.reviewer_rank,
        }
    }

    /// The role-swapped sides, borrowed: reviewers propose down their own
    /// lists and proposers review with their own ranks. Deferred
    /// acceptance on them yields the *reviewer-optimal* matching — the
    /// engine behind the taxi-optimal schedule NSTD-T — without copying a
    /// list or a rank table.
    fn swapped_sides(&self) -> Sides<'_> {
        Sides {
            proposer_lists: &self.reviewer_lists,
            reviewers: self.proposer_lists.len(),
            reviewer_rank: &self.proposer_rank,
        }
    }

    /// Whether proposer `p` finds reviewer `r` acceptable (above dummy).
    #[must_use]
    pub fn proposer_accepts(&self, p: usize, r: usize) -> bool {
        self.prank(p, r) != NOT_RANKED
    }

    /// Whether reviewer `r` finds proposer `p` acceptable (above dummy).
    #[must_use]
    pub fn reviewer_accepts(&self, r: usize, p: usize) -> bool {
        self.rrank(r, p) != NOT_RANKED
    }

    /// The proposer-optimal stable matching — the paper's **Algorithm 1**.
    ///
    /// Deferred acceptance: each proposer proposes down its list; a
    /// reviewer holds its best acceptable proposal so far. Handles unequal
    /// side sizes and truncated lists; unmatched agents correspond to dummy
    /// partners (Theorem 1). Runs in `O(|R|·|T|)`.
    #[must_use]
    pub fn propose(&self) -> Matching {
        self.sides().propose()
    }

    /// The reviewer-optimal stable matching (role-swapped proposals on
    /// borrowed sides).
    #[must_use]
    pub fn reviewer_optimal(&self) -> Matching {
        self.swapped_sides().propose().flipped()
    }

    /// All blocking pairs of `m` under the paper's Definition 1.
    ///
    /// `(p, r)` blocks when each finds the other acceptable and each
    /// prefers the other over its current partner (an unmatched agent —
    /// one holding its dummy — prefers every acceptable partner, since
    /// "dummies always prefer non-dummies").
    #[must_use]
    pub fn blocking_pairs(&self, m: &Matching) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for p in 0..self.proposers() {
            let p_current_rank = m.proposer_to_reviewer[p].map(|r| self.prank(p, r));
            for &r in &self.proposer_lists[p] {
                let pr = self.prank(p, r);
                let p_prefers = p_current_rank.is_none_or(|cur| pr < cur);
                if !p_prefers {
                    continue;
                }
                let rp = self.rrank(r, p);
                if rp == NOT_RANKED {
                    continue;
                }
                let r_prefers = match m.reviewer_to_proposer[r] {
                    None => true,
                    Some(held) => rp < self.rrank(r, held),
                };
                if r_prefers {
                    out.push((p, r));
                }
            }
        }
        out
    }

    /// Whether `m` is stable (no blocking pair) and consistent with the
    /// acceptability constraints (no one matched below their dummy).
    #[must_use]
    pub fn is_stable(&self, m: &Matching) -> bool {
        for (p, r) in m.pairs() {
            if !self.proposer_accepts(p, r) || !self.reviewer_accepts(r, p) {
                return false;
            }
        }
        self.blocking_pairs(m).is_empty()
    }

    /// The paper's **BreakDispatch** (Algorithm 2, Rules 1–3): break
    /// proposer `j`'s current match in `s` and chase the proposal chain to
    /// the *next* stable matching below `s` in the lattice.
    ///
    /// Returns `None` when BreakDispatch is unsuccessful:
    ///
    /// * Rule 3 — `j` is unserved in `s` (then it is unserved everywhere,
    ///   Theorem 2),
    /// * Rule 2 — the chain would involve a proposer with index `< j`,
    /// * Rule 1 fails — the chain ends without `j`'s old reviewer getting
    ///   a proposer it prefers over `j` (including any proposer falling to
    ///   its dummy).
    ///
    /// `s` must be a stable matching of this instance.
    #[must_use]
    pub fn break_dispatch(&self, s: &Matching, j: usize) -> Option<Matching> {
        let t = s.proposer_to_reviewer[j]?; // Rule 3
        let ghost_rank = self.rrank(t, j);
        let mut m = s.clone();
        m.unlink_proposer(j);
        let mut cur = j;
        // Resume proposing just below the broken partner.
        let mut pos = self.prank(j, t) as usize + 1;
        loop {
            let mut displaced: Option<usize> = None;
            while pos < self.proposer_lists[cur].len() {
                let r = self.proposer_lists[cur][pos];
                pos += 1;
                let my_rank = self.rrank(r, cur);
                if my_rank == NOT_RANKED {
                    continue;
                }
                if r == t && m.reviewer_to_proposer[t].is_none() {
                    // The broken reviewer holds j's ghost: it only accepts
                    // a strictly better proposer (Rule 1); on acceptance
                    // the chain terminates successfully.
                    if my_rank < ghost_rank {
                        m.link(cur, r);
                        debug_assert!(self.is_stable(&m));
                        return Some(m);
                    }
                    continue;
                }
                match m.reviewer_to_proposer[r] {
                    None => {
                        // An ordinarily-unmatched reviewer accepted: the
                        // chain ends but Rule 1 is unsatisfied (the broken
                        // reviewer t is left blocking with j).
                        return None;
                    }
                    Some(held) => {
                        if my_rank < self.rrank(r, held) {
                            if held < j {
                                return None; // Rule 2
                            }
                            m.link(cur, r);
                            displaced = Some(held);
                            break;
                        }
                    }
                }
            }
            match displaced {
                Some(k) => {
                    // The displaced proposer resumes below its lost partner.
                    let lost = m.proposer_to_reviewer[cur].expect("just linked");
                    pos = self.prank(k, lost) as usize + 1;
                    cur = k;
                }
                // `cur` exhausted its list: it fell to its dummy, so the
                // chain cannot yield a stable matching (Theorem 3, case i).
                None => return None,
            }
        }
    }

    /// Enumerates **all** stable matchings — the paper's **Algorithm 2**.
    ///
    /// Starts from the proposer-optimal matching and recursively applies
    /// [`StableInstance::break_dispatch`] with non-decreasing proposer
    /// indices; by the paper's Theorem 4 every stable matching is produced
    /// exactly once. The first element is always the proposer-optimal
    /// matching.
    ///
    /// The number of stable matchings can be exponential in adversarial
    /// instances; `limit` caps how many are collected (`None` = no cap).
    #[must_use]
    pub fn enumerate_all(&self, limit: Option<usize>) -> Vec<Matching> {
        let _span = obs::span("enumeration");
        let cap = limit.unwrap_or(usize::MAX).max(1);
        let s0 = self.propose();
        let mut out = Vec::new();
        out.push(s0.clone());
        let mut nodes = 0u64;
        self.enumerate_rec(&s0, 0, cap, &mut nodes, &mut out);
        obs::add("match.break_dispatch_nodes", nodes);
        out
    }

    fn enumerate_rec(
        &self,
        s: &Matching,
        j_min: usize,
        cap: usize,
        nodes: &mut u64,
        out: &mut Vec<Matching>,
    ) {
        for j in j_min..self.proposers() {
            if out.len() >= cap {
                return;
            }
            *nodes += 1;
            if let Some(next) = self.break_dispatch(s, j) {
                out.push(next.clone());
                self.enumerate_rec(&next, j, cap, nodes, out);
            }
        }
    }

    /// Budget-bounded stable-matching enumeration.
    ///
    /// Identical to [`StableInstance::enumerate_all`] — same matchings in
    /// the same order, same `limit` semantics — except that the
    /// BreakDispatch recursion is metered: each
    /// [`StableInstance::break_dispatch`] attempt counts as one *node*,
    /// the walk stops once `budget`'s node cap is reached, and the
    /// wall-clock deadline is polled every 32 nodes. With an unlimited
    /// budget the result equals `enumerate_all(limit)` exactly.
    ///
    /// When the budget stops the walk, [`Enumeration::truncated`] is set
    /// and the collected prefix is still well-formed: the first matching
    /// is always the proposer-optimal one, and every collected matching
    /// is stable — the budget only costs *completeness* of the
    /// enumeration, never correctness of its elements.
    #[must_use]
    pub fn enumerate_budgeted(&self, limit: Option<usize>, budget: &TimeBudget) -> Enumeration {
        let _span = obs::span("enumeration");
        let cap = limit.unwrap_or(usize::MAX).max(1);
        let s0 = self.propose();
        let mut out = Vec::new();
        out.push(s0.clone());
        let mut nodes = 0u64;
        let truncated = self.enumerate_budgeted_rec(&s0, 0, cap, budget, &mut nodes, &mut out);
        obs::add("match.break_dispatch_nodes", nodes);
        Enumeration {
            matchings: out,
            nodes,
            truncated,
        }
    }

    /// Metered twin of [`StableInstance::enumerate_rec`]. Returns whether
    /// the walk was stopped by the budget (reaching the `cap` is not
    /// truncation — `enumerate_all` stops there too).
    fn enumerate_budgeted_rec(
        &self,
        s: &Matching,
        j_min: usize,
        cap: usize,
        budget: &TimeBudget,
        nodes: &mut u64,
        out: &mut Vec<Matching>,
    ) -> bool {
        for j in j_min..self.proposers() {
            if out.len() >= cap {
                return false;
            }
            if budget.node_cap().is_some_and(|c| *nodes >= c) {
                return true;
            }
            if (*nodes).is_multiple_of(32) && budget.exhausted() {
                return true;
            }
            *nodes += 1;
            if let Some(next) = self.break_dispatch(s, j) {
                out.push(next.clone());
                if self.enumerate_budgeted_rec(&next, j, cap, budget, nodes, out) {
                    return true;
                }
            }
        }
        false
    }

    /// Sum over matched pairs of the reviewer's rank for its partner
    /// (0 = favourite). This is the objective the reviewer-optimal
    /// matching minimises over all stable matchings: by the lattice
    /// order, moving toward the reviewer-optimal end weakly improves
    /// *every* reviewer's rank at once, and the rural-hospitals theorem
    /// fixes the matched set, so the rank-sum orders stable matchings
    /// consistently with the lattice.
    #[must_use]
    pub fn reviewer_cost(&self, m: &Matching) -> u64 {
        m.pairs().map(|(p, r)| u64::from(self.rrank(r, p))).sum()
    }

    /// A lower bound on [`StableInstance::reviewer_cost`] over all stable
    /// matchings: every reviewer matched in one stable matching is
    /// matched in all of them (rural hospitals), and no reviewer can do
    /// better than its favourite *mutually acceptable* proposer — so the
    /// sum of those per-reviewer minima bounds the reviewer-optimal cost
    /// from below. The bound is not always attained (reviewers' favourite
    /// choices may conflict), but when the search meets it, optimality is
    /// proven and the walk stops early.
    fn reviewer_cost_lower_bound(&self, matched: &Matching) -> u64 {
        (0..self.reviewers())
            .filter(|&r| matched.reviewer_partner(r).is_some())
            .map(|r| {
                self.reviewer_lists[r]
                    .iter()
                    .position(|&p| self.proposer_accepts(p, r))
                    .map_or(0, |rank| rank as u64)
            })
            .sum()
    }

    /// The anytime reviewer-optimal (NSTD-T) search — **Algorithm 2**
    /// driven as a best-so-far branch-and-bound instead of a full
    /// enumeration.
    ///
    /// Walks the BreakDispatch tree from the proposer-optimal matching
    /// exactly like [`StableInstance::enumerate_budgeted`], but instead
    /// of collecting every stable matching it keeps only the best seen
    /// so far under [`StableInstance::reviewer_cost`], together with the
    /// instance's reviewer-cost lower bound. Each step down the lattice
    /// weakly improves every reviewer, so the deepest matching is the
    /// reviewer-optimal one; the only sound *prune* is therefore the
    /// global one — when the best cost meets the lower bound the result
    /// is provably optimal and the walk stops. Otherwise the budget
    /// (node cap + deadline, polled every 32 nodes) decides when to stop,
    /// and [`AnytimeSearch::gap`] reports how far from proven-optimal
    /// the answer may still be.
    ///
    /// With an unlimited budget the walk visits every stable matching,
    /// so the result **equals [`StableInstance::reviewer_optimal`]
    /// bit-for-bit** (the reviewer-optimal matching is the unique
    /// cost-minimiser: equal cost implies every reviewer holds its
    /// optimal partner, which pins the matching). Under any budget the
    /// result is always a *stable* matching at least as good (for every
    /// reviewer) as the proposer-optimal start — the budget only costs
    /// proximity to optimal, never stability.
    ///
    /// Emits the `match.anytime_nodes` counter and the
    /// `match.anytime_gap` gauge.
    #[must_use]
    pub fn reviewer_optimal_anytime(&self, budget: &TimeBudget) -> AnytimeSearch {
        let _span = obs::span("anytime_enumeration");
        let s0 = self.propose();
        let lower_bound = self.reviewer_cost_lower_bound(&s0);
        let mut best_cost = self.reviewer_cost(&s0);
        let mut best = s0.clone();
        let mut nodes = 0u64;
        let mut truncated = false;
        if best_cost > lower_bound {
            truncated = self.anytime_rec(
                &s0,
                0,
                budget,
                &mut nodes,
                &mut best,
                &mut best_cost,
                lower_bound,
            );
        }
        // An un-truncated walk visited every stable matching, which is a
        // proof of optimality even when the instance-level bound is loose
        // (geometric instances often leave it at 0) — tighten the
        // certificate so `gap()` reports 0.
        let lower_bound = if truncated { lower_bound } else { best_cost };
        obs::add("match.anytime_nodes", nodes);
        obs::gauge("match.anytime_gap", (best_cost - lower_bound) as f64);
        AnytimeSearch {
            best,
            reviewer_cost: best_cost,
            lower_bound,
            nodes,
            truncated,
        }
    }

    /// Best-so-far twin of [`StableInstance::enumerate_budgeted_rec`].
    /// Returns whether the walk was stopped by the budget (meeting the
    /// lower bound is a proof of optimality, not truncation).
    #[allow(clippy::too_many_arguments)]
    fn anytime_rec(
        &self,
        s: &Matching,
        j_min: usize,
        budget: &TimeBudget,
        nodes: &mut u64,
        best: &mut Matching,
        best_cost: &mut u64,
        lower_bound: u64,
    ) -> bool {
        for j in j_min..self.proposers() {
            if *best_cost == lower_bound {
                return false; // proven optimal — nothing left to find
            }
            if budget.node_cap().is_some_and(|c| *nodes >= c) {
                return true;
            }
            if (*nodes).is_multiple_of(32) && budget.exhausted() {
                return true;
            }
            *nodes += 1;
            if let Some(next) = self.break_dispatch(s, j) {
                let cost = self.reviewer_cost(&next);
                if cost < *best_cost {
                    *best_cost = cost;
                    best.clone_from(&next);
                }
                if self.anytime_rec(&next, j, budget, nodes, best, best_cost, lower_bound) {
                    return true;
                }
            }
        }
        false
    }

    /// Rank (0 = favourite) of reviewer `r` in proposer `p`'s list, or
    /// `None` when `r` is below `p`'s dummy.
    #[must_use]
    pub fn proposer_rank_of(&self, p: usize, r: usize) -> Option<u32> {
        let rank = self.prank(p, r);
        (rank != NOT_RANKED).then_some(rank)
    }

    /// Rank (0 = favourite) of proposer `p` in reviewer `r`'s list, or
    /// `None` when `p` is below `r`'s dummy.
    #[must_use]
    pub fn reviewer_rank_of(&self, r: usize, p: usize) -> Option<u32> {
        let rank = self.rrank(r, p);
        (rank != NOT_RANKED).then_some(rank)
    }

    /// Egalitarian cost of a matching: the sum over matched pairs of both
    /// sides' ranks (0 = everyone got their favourite).
    ///
    /// # Panics
    ///
    /// Panics if `m` matches a pair outside the acceptability lists.
    #[must_use]
    pub fn egalitarian_cost(&self, m: &Matching) -> u64 {
        m.pairs()
            .map(|(p, r)| {
                let pr = self.proposer_rank_of(p, r).expect("acceptable pair") as u64;
                let rr = self.reviewer_rank_of(r, p).expect("acceptable pair") as u64;
                pr + rr
            })
            .sum()
    }

    /// The egalitarian stable matching: among `all` (e.g. from
    /// [`StableInstance::enumerate_all`]), the one minimising
    /// [`StableInstance::egalitarian_cost`] — the fairest compromise
    /// between the passenger-optimal and taxi-optimal extremes.
    ///
    /// Returns `None` when `all` is empty.
    #[must_use]
    pub fn egalitarian<'a>(&self, all: &'a [Matching]) -> Option<&'a Matching> {
        all.iter().min_by_key(|m| self.egalitarian_cost(m))
    }

    /// The (lower) median stable matching assembled from `all` stable
    /// matchings: every proposer is assigned the median of its partners
    /// across the set (Teo–Sethuraman: this selection is itself a stable
    /// matching). With dummy entries the matched set is constant across
    /// `all` (rural hospitals), so the median is well defined per agent.
    ///
    /// Returns `None` when `all` is empty.
    ///
    /// # Panics
    ///
    /// Panics if the matchings in `all` are not all stable matchings of
    /// this instance (their matched sets must agree).
    #[must_use]
    pub fn median_stable_matching(&self, all: &[Matching]) -> Option<Matching> {
        let first = all.first()?;
        let mut out = Matching::empty(self.proposers(), self.reviewers());
        for p in 0..self.proposers() {
            if first.proposer_partner(p).is_none() {
                continue;
            }
            let mut partners: Vec<usize> = all
                .iter()
                .map(|m| {
                    m.proposer_partner(p)
                        .expect("matched set is invariant across stable matchings")
                })
                .collect();
            partners.sort_by_key(|&r| self.prank(p, r));
            let median = partners[(partners.len() - 1) / 2];
            out.link(p, median);
        }
        debug_assert!(self.is_stable(&out));
        Some(out)
    }

    /// Exhaustive stable-matching enumeration by brute force.
    ///
    /// Exponential — intended for validating [`StableInstance::enumerate_all`]
    /// on small instances (tests, ablations). Results are in an unspecified
    /// order.
    #[must_use]
    pub fn enumerate_brute_force(&self) -> Vec<Matching> {
        let mut out = Vec::new();
        let mut m = Matching::empty(self.proposers(), self.reviewers());
        self.brute_rec(0, &mut m, &mut out);
        out
    }

    fn brute_rec(&self, p: usize, m: &mut Matching, out: &mut Vec<Matching>) {
        if p == self.proposers() {
            if self.is_stable(m) {
                out.push(m.clone());
            }
            return;
        }
        // p stays unmatched…
        self.brute_rec(p + 1, m, out);
        // …or takes any mutually-acceptable free reviewer.
        for &r in &self.proposer_lists[p] {
            if m.reviewer_to_proposer[r].is_none() && self.reviewer_accepts(r, p) {
                m.link(p, r);
                self.brute_rec(p + 1, m, out);
                m.unlink_proposer(p);
            }
        }
    }
}

/// A borrowed view of an instance for deferred acceptance: who proposes
/// down which lists, and the reviewing side's rank table. The same code
/// runs on [`StableInstance::sides`] (proposers propose) and on
/// [`StableInstance::swapped_sides`] (reviewers propose), so the
/// reviewer-optimal paths copy nothing.
#[derive(Clone, Copy)]
struct Sides<'a> {
    proposer_lists: &'a [Vec<usize>],
    reviewers: usize,
    reviewer_rank: &'a [Vec<u32>],
}

impl Sides<'_> {
    fn proposers(&self) -> usize {
        self.proposer_lists.len()
    }

    /// Rank of proposer `p` for reviewer `r`, or [`NOT_RANKED`].
    #[inline]
    fn rrank(&self, r: usize, p: usize) -> u32 {
        self.reviewer_rank[r][p]
    }

    /// Deferred acceptance (see [`StableInstance::propose`]).
    fn propose(self) -> Matching {
        let _span = obs::span("deferred_acceptance");
        let mut m = Matching::empty(self.proposers(), self.reviewers);
        // Per-proposer cursors into their lists, and the proposers that
        // still need to propose.
        let mut next = vec![0usize; self.proposers()];
        let mut free: Vec<usize> = (0..self.proposers()).rev().collect();
        // Proposal/rejection dynamics are batched in locals and flushed
        // once: the loop body stays counter-free for the disabled case.
        let mut proposals = 0u64;
        let mut rejections = 0u64;
        while let Some(p) = free.pop() {
            // Runs down p's list from its cursor; falling off the end
            // means p matches its dummy (unserved).
            while let Some(&r) = self.proposer_lists[p].get(next[p]) {
                next[p] += 1;
                proposals += 1;
                let my_rank = self.rrank(r, p);
                if my_rank == NOT_RANKED {
                    rejections += 1;
                    continue; // r would rather stay undispatched
                }
                match m.reviewer_to_proposer[r] {
                    None => {
                        m.link(p, r);
                        break;
                    }
                    Some(held) => {
                        if my_rank < self.rrank(r, held) {
                            m.link(p, r); // unlinks `held`
                            free.push(held);
                            rejections += 1; // `held` is bumped back out
                            break;
                        }
                        rejections += 1;
                    }
                }
            }
        }
        if proposals > 0 {
            obs::add_many(&[
                ("match.proposals", proposals),
                ("match.rejections", rejections),
            ]);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn classic_3x3() -> StableInstance {
        // A classic instance with multiple stable matchings.
        StableInstance::new(
            vec![vec![0, 1, 2], vec![1, 2, 0], vec![2, 0, 1]],
            vec![vec![1, 2, 0], vec![2, 0, 1], vec![0, 1, 2]],
        )
        .unwrap()
    }

    #[test]
    fn proposal_dynamics_are_recorded_on_the_scoped_recorder() {
        let inst = classic_3x3();
        let rec = obs::Recorder::new();
        let baseline = {
            let _scope = obs::scope(&rec);
            let m = inst.propose();
            let all = inst.enumerate_all(None);
            assert_eq!(all[0], m);
            m
        };
        // Cold 3x3 deferred acceptance proposes at least once per proposer;
        // the enumeration walks at least one BreakDispatch node per column.
        assert!(rec.counter("match.proposals") >= 3);
        assert!(rec.counter("match.break_dispatch_nodes") >= 3);
        // Outside any scope nothing is recorded and results are identical.
        assert_eq!(inst.propose(), baseline);
    }

    #[test]
    fn propose_is_stable_on_classic() {
        let inst = classic_3x3();
        let m = inst.propose();
        assert!(inst.is_stable(&m));
        // Everyone gets their first choice (proposer-optimal).
        assert_eq!(m.proposer_partner(0), Some(0));
        assert_eq!(m.proposer_partner(1), Some(1));
        assert_eq!(m.proposer_partner(2), Some(2));
    }

    #[test]
    fn reviewer_optimal_differs_on_classic() {
        let inst = classic_3x3();
        let m = inst.reviewer_optimal();
        assert!(inst.is_stable(&m));
        // Each reviewer gets its first choice.
        assert_eq!(m.reviewer_partner(0), Some(1));
        assert_eq!(m.reviewer_partner(1), Some(2));
        assert_eq!(m.reviewer_partner(2), Some(0));
    }

    #[test]
    fn classic_has_three_stable_matchings() {
        let inst = classic_3x3();
        let all = inst.enumerate_all(None);
        assert_eq!(all.len(), 3);
        let brute = inst.enumerate_brute_force();
        assert_eq!(brute.len(), 3);
        let set_a: HashSet<_> = all.into_iter().collect();
        let set_b: HashSet<_> = brute.into_iter().collect();
        assert_eq!(set_a, set_b);
    }

    #[test]
    fn unequal_sides_leave_someone_unmatched() {
        // 3 proposers, 1 reviewer.
        let inst =
            StableInstance::new(vec![vec![0], vec![0], vec![0]], vec![vec![2, 0, 1]]).unwrap();
        let m = inst.propose();
        assert_eq!(m.matched_pairs(), 1);
        assert_eq!(m.reviewer_partner(0), Some(2));
        assert!(inst.is_stable(&m));
    }

    #[test]
    fn truncated_lists_respect_dummies() {
        // Proposer 0 would rather stay alone than take reviewer 1.
        // Reviewer 0 would rather stay alone than take proposer 0.
        let inst = StableInstance::new(vec![vec![0]], vec![vec![]]).unwrap();
        let m = inst.propose();
        assert_eq!(m.matched_pairs(), 0);
        assert!(inst.is_stable(&m));
    }

    #[test]
    fn empty_instance_is_fine() {
        let inst = StableInstance::new(vec![], vec![]).unwrap();
        let m = inst.propose();
        assert_eq!(m.matched_pairs(), 0);
        assert!(inst.is_stable(&m));
        assert_eq!(inst.enumerate_all(None).len(), 1);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = StableInstance::new(vec![vec![5]], vec![vec![0]]).unwrap_err();
        assert_eq!(
            err,
            PreferenceError::IndexOutOfRange {
                side: "proposer",
                agent: 0,
                entry: 5
            }
        );
    }

    #[test]
    fn rejects_duplicates() {
        let err = StableInstance::new(vec![vec![0]], vec![vec![0, 0]]).unwrap_err();
        assert_eq!(
            err,
            PreferenceError::DuplicateEntry {
                side: "reviewer",
                agent: 0,
                entry: 0
            }
        );
    }

    #[test]
    fn blocking_pairs_detects_instability() {
        let inst = classic_3x3();
        let mut m = Matching::empty(3, 3);
        // (0, 1) blocks: proposer 0 prefers reviewer 1 over 2, and
        // reviewer 1 prefers proposer 0 over its partner 1.
        m.link(0, 2);
        m.link(1, 1);
        m.link(2, 0);
        assert!(!inst.is_stable(&m));
        assert!(inst.blocking_pairs(&m).contains(&(0, 1)));
    }

    #[test]
    fn one_sided_acceptance_cannot_match() {
        // Proposer 0 accepts reviewer 0, but reviewer 0 accepts nobody.
        let inst = StableInstance::new(vec![vec![0]], vec![vec![]]).unwrap();
        let m = inst.propose();
        assert_eq!(m.proposer_partner(0), None);
        // And a forced link is flagged as not stable.
        let mut bad = Matching::empty(1, 1);
        bad.link(0, 0);
        assert!(!inst.is_stable(&bad));
    }

    #[test]
    fn break_dispatch_on_unserved_is_rule3_none() {
        let inst = StableInstance::new(vec![vec![0], vec![0]], vec![vec![0, 1]]).unwrap();
        let s = inst.propose();
        assert_eq!(s.proposer_partner(1), None);
        assert!(inst.break_dispatch(&s, 1).is_none());
    }

    #[test]
    fn matching_link_unlinks_previous() {
        let mut m = Matching::empty(2, 2);
        m.link(0, 0);
        m.link(1, 0); // steals reviewer 0
        assert_eq!(m.proposer_partner(0), None);
        assert_eq!(m.reviewer_partner(0), Some(1));
        m.link(1, 1); // moves proposer 1
        assert_eq!(m.reviewer_partner(0), None);
        assert_eq!(m.matched_pairs(), 1);
    }

    #[test]
    fn egalitarian_cost_and_selection() {
        let inst = classic_3x3();
        let all = inst.enumerate_all(None);
        assert_eq!(all.len(), 3);
        // Proposer-optimal: everyone rank 0 for proposers, rank 2 for
        // reviewers → cost 6. Reviewer-optimal symmetric. The middle
        // (cyclic) matching has rank 1 everywhere → cost 6 as well.
        let costs: Vec<u64> = all.iter().map(|m| inst.egalitarian_cost(m)).collect();
        assert!(costs.iter().all(|&c| c == 6));
        assert!(inst.egalitarian(&all).is_some());
        assert!(inst.egalitarian(&[]).is_none());
    }

    #[test]
    fn median_of_classic_is_the_middle_matching() {
        let inst = classic_3x3();
        let all = inst.enumerate_all(None);
        let median = inst.median_stable_matching(&all).unwrap();
        assert!(inst.is_stable(&median));
        // Each proposer's median partner is its 2nd choice.
        for p in 0..3 {
            let r = median.proposer_partner(p).unwrap();
            assert_eq!(inst.proposer_rank_of(p, r), Some(1));
        }
    }

    #[test]
    fn median_is_stable_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(0x5E7A);
        for _ in 0..200 {
            let np = rng.gen_range(1..=6);
            let nr = rng.gen_range(1..=6);
            let inst = random_instance(&mut rng, np, nr);
            let all = inst.enumerate_all(None);
            let median = inst.median_stable_matching(&all).unwrap();
            assert!(inst.is_stable(&median), "median must be stable");
            // The egalitarian matching is also stable and its cost is
            // minimal over the set.
            let egal = inst.egalitarian(&all).unwrap();
            let best = all.iter().map(|m| inst.egalitarian_cost(m)).min().unwrap();
            assert_eq!(inst.egalitarian_cost(egal), best);
        }
    }

    #[test]
    fn rank_accessors() {
        let inst = classic_3x3();
        assert_eq!(inst.proposer_rank_of(0, 0), Some(0));
        assert_eq!(inst.proposer_rank_of(0, 2), Some(2));
        assert_eq!(inst.reviewer_rank_of(0, 1), Some(0));
        let truncated = StableInstance::new(vec![vec![0]], vec![vec![]]).unwrap();
        assert_eq!(truncated.reviewer_rank_of(0, 0), None);
    }

    /// Random instance with truncated lists on both sides.
    fn random_instance(rng: &mut StdRng, np: usize, nr: usize) -> StableInstance {
        let mut gen_side = |n: usize, m: usize| -> Vec<Vec<usize>> {
            (0..n)
                .map(|_| {
                    let mut all: Vec<usize> = (0..m).collect();
                    all.shuffle(rng);
                    let keep = rng.gen_range(0..=m);
                    all.truncate(keep);
                    all
                })
                .collect()
        };
        let p = gen_side(np, nr);
        let r = gen_side(nr, np);
        StableInstance::new(p, r).unwrap()
    }

    #[test]
    fn anytime_unlimited_equals_reviewer_optimal() {
        let unlimited = TimeBudget::unlimited();
        let mut rng = StdRng::seed_from_u64(0xA27);
        for case in 0..150 {
            let np = rng.gen_range(0..=6);
            let nr = rng.gen_range(0..=6);
            let inst = random_instance(&mut rng, np, nr);
            let search = inst.reviewer_optimal_anytime(&unlimited);
            assert_eq!(search.best, inst.reviewer_optimal(), "case {case}");
            assert!(!search.truncated, "case {case}");
            assert_eq!(search.reviewer_cost, inst.reviewer_cost(&search.best));
            assert!(search.lower_bound <= search.reviewer_cost, "case {case}");
            assert_eq!(search.gap(), search.reviewer_cost - search.lower_bound);
        }
    }

    #[test]
    fn anytime_budget_degrades_monotonically_and_stays_stable() {
        // Growing node caps can only improve (weakly) the reviewer cost,
        // every intermediate answer is a stable matching, and a zero
        // budget returns the proposer-optimal start.
        let mut rng = StdRng::seed_from_u64(0xA27B);
        for _ in 0..40 {
            let inst = random_instance(&mut rng, 6, 6);
            let s0 = inst.propose();
            let optimal = inst.reviewer_optimal();
            let mut prev_cost = u64::MAX;
            for cap in [0u64, 1, 2, 4, 8, 64, 4096] {
                let budget = crate::budget::TimeBudgetSpec::unlimited()
                    .with_node_cap(cap)
                    .start();
                let search = inst.reviewer_optimal_anytime(&budget);
                assert!(inst.is_stable(&search.best));
                assert!(search.reviewer_cost <= inst.reviewer_cost(&s0));
                assert!(search.reviewer_cost <= prev_cost, "cap {cap} regressed");
                prev_cost = search.reviewer_cost;
                if cap == 0 && search.reviewer_cost > search.lower_bound {
                    assert_eq!(search.best, s0);
                    assert!(search.truncated);
                }
            }
            assert_eq!(
                prev_cost,
                inst.reviewer_cost(&optimal),
                "4096 nodes is plenty at 6x6"
            );
        }
    }

    #[test]
    fn budgeted_enumeration_with_unlimited_budget_equals_enumerate_all() {
        let mut rng = StdRng::seed_from_u64(0xB0D6E7);
        let unlimited = TimeBudget::unlimited();
        for case in 0..200 {
            let np = rng.gen_range(0..=6);
            let nr = rng.gen_range(0..=6);
            let inst = random_instance(&mut rng, np, nr);
            for limit in [None, Some(1), Some(3)] {
                let e = inst.enumerate_budgeted(limit, &unlimited);
                assert!(!e.truncated, "case {case}: unlimited budget truncated");
                assert_eq!(e.matchings, inst.enumerate_all(limit), "case {case}");
            }
        }
    }

    #[test]
    fn node_cap_truncates_but_keeps_prefix_well_formed() {
        let mut rng = StdRng::seed_from_u64(0xCA9);
        let mut saw_truncation = false;
        for case in 0..200 {
            let np = rng.gen_range(2..=6);
            let nr = rng.gen_range(2..=6);
            let inst = random_instance(&mut rng, np, nr);
            let full = inst.enumerate_all(None);
            let budget = crate::budget::TimeBudgetSpec::unlimited()
                .with_node_cap(2)
                .start();
            let e = inst.enumerate_budgeted(None, &budget);
            assert!(e.nodes <= 2, "case {case}: cap overrun ({} nodes)", e.nodes);
            assert_eq!(e.matchings[0], inst.propose(), "case {case}");
            for m in &e.matchings {
                assert!(inst.is_stable(m), "case {case}: truncated prefix unstable");
            }
            // The collected prefix is a prefix of the full enumeration.
            assert_eq!(
                e.matchings[..],
                full[..e.matchings.len()],
                "case {case}: not a prefix"
            );
            if e.truncated {
                saw_truncation = true;
                assert!(e.matchings.len() <= full.len());
            } else {
                assert_eq!(e.matchings, full, "case {case}");
            }
        }
        assert!(saw_truncation, "cap of 2 never bit on 200 random instances");
    }

    #[test]
    fn expired_deadline_still_yields_proposer_optimal() {
        let inst = classic_3x3();
        let budget = crate::budget::TimeBudgetSpec::unlimited()
            .with_deadline(std::time::Duration::ZERO)
            .start();
        let e = inst.enumerate_budgeted(None, &budget);
        assert!(e.truncated);
        assert_eq!(e.matchings, vec![inst.propose()]);
        assert_eq!(e.nodes, 0);
    }

    #[test]
    fn enumerate_all_order_is_deterministic_and_brackets_the_lattice() {
        let mut rng = StdRng::seed_from_u64(0x0D0E);
        for case in 0..150 {
            let np = rng.gen_range(0..=5);
            let nr = rng.gen_range(0..=5);
            let inst = random_instance(&mut rng, np, nr);
            let all = inst.enumerate_all(None);
            assert_eq!(all, inst.enumerate_all(None), "case {case}: order unstable");
            assert_eq!(
                all[0],
                inst.propose(),
                "case {case}: first not proposer-optimal"
            );
            let ro = inst.reviewer_optimal();
            assert!(all.contains(&ro), "case {case}: reviewer-optimal missing");
            // Proposer-side cost brackets: the proposer-optimal matching
            // minimises total proposer rank, the reviewer-optimal maximises
            // it over the stable set.
            let pcost =
                |m: &Matching| -> u64 { m.pairs().map(|(p, r)| u64::from(inst.prank(p, r))).sum() };
            let (lo, hi) = (pcost(&all[0]), pcost(&ro));
            for m in &all {
                assert!(inst.is_stable(m), "case {case}: unstable entry");
                assert!(
                    (lo..=hi).contains(&pcost(m)),
                    "case {case}: outside lattice"
                );
            }
        }
    }

    #[test]
    fn selectors_agree_with_brute_force_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(0xE6A1);
        for case in 0..150 {
            let np = rng.gen_range(0..=5);
            let nr = rng.gen_range(0..=5);
            let inst = random_instance(&mut rng, np, nr);
            let fast = inst.enumerate_all(None);
            let brute = inst.enumerate_brute_force();
            // Egalitarian: the selected cost equals the brute-force minimum.
            let egal = inst.egalitarian(&fast).unwrap();
            let best = brute
                .iter()
                .map(|m| inst.egalitarian_cost(m))
                .min()
                .unwrap();
            assert_eq!(inst.egalitarian_cost(egal), best, "case {case}");
            // Median: per-proposer medians are order-insensitive, so the
            // selection from either enumeration of the same set is equal.
            assert_eq!(
                inst.median_stable_matching(&fast),
                inst.median_stable_matching(&brute),
                "case {case}"
            );
        }
    }

    #[test]
    fn enumeration_matches_brute_force_on_many_random_instances() {
        let mut rng = StdRng::seed_from_u64(0xDEC0DE);
        for case in 0..300 {
            let np = rng.gen_range(0..=5);
            let nr = rng.gen_range(0..=5);
            let inst = random_instance(&mut rng, np, nr);
            let fast: Vec<_> = inst.enumerate_all(None);
            let fast_set: HashSet<_> = fast.iter().cloned().collect();
            assert_eq!(
                fast.len(),
                fast_set.len(),
                "case {case}: duplicates in enumeration"
            );
            let brute: HashSet<_> = inst.enumerate_brute_force().into_iter().collect();
            assert_eq!(fast_set, brute, "case {case}: sets differ");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Deferred acceptance always yields a stable matching.
        #[test]
        fn propose_always_stable(seed in any::<u64>(), np in 0usize..8, nr in 0usize..8) {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = random_instance(&mut rng, np, nr);
            let m = inst.propose();
            prop_assert!(inst.is_stable(&m));
        }

        /// Proposer-optimality: in every stable matching, each proposer does
        /// no better than under `propose()`.
        #[test]
        fn propose_is_proposer_optimal(seed in any::<u64>(), np in 0usize..6, nr in 0usize..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = random_instance(&mut rng, np, nr);
            let best = inst.propose();
            for other in inst.enumerate_brute_force() {
                for p in 0..np {
                    let best_rank = best.proposer_partner(p)
                        .map(|r| inst.prank(p, r));
                    let other_rank = other.proposer_partner(p)
                        .map(|r| inst.prank(p, r));
                    match (best_rank, other_rank) {
                        (Some(b), Some(o)) => prop_assert!(b <= o),
                        // Theorem 2 / rural hospitals: matched status agrees.
                        (None, Some(_)) | (Some(_), None) => prop_assert!(
                            false, "matched sets differ across stable matchings"
                        ),
                        (None, None) => {}
                    }
                }
            }
        }

        /// Rural hospitals (paper's Theorem 2): every stable matching
        /// matches the same set of proposers and reviewers.
        #[test]
        fn rural_hospitals(seed in any::<u64>(), np in 0usize..6, nr in 0usize..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = random_instance(&mut rng, np, nr);
            let all = inst.enumerate_brute_force();
            prop_assert!(!all.is_empty());
            let matched_p: HashSet<usize> = all[0].pairs().map(|(p, _)| p).collect();
            let matched_r: HashSet<usize> = all[0].pairs().map(|(_, r)| r).collect();
            for m in &all {
                prop_assert_eq!(
                    m.pairs().map(|(p, _)| p).collect::<HashSet<_>>(), matched_p.clone());
                prop_assert_eq!(
                    m.pairs().map(|(_, r)| r).collect::<HashSet<_>>(), matched_r.clone());
            }
        }

        /// Reviewer-optimal matching is the reviewer-best among all stable
        /// matchings.
        #[test]
        fn reviewer_optimal_is_best_for_reviewers(
            seed in any::<u64>(), np in 0usize..6, nr in 0usize..6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = random_instance(&mut rng, np, nr);
            let ro = inst.reviewer_optimal();
            prop_assert!(inst.is_stable(&ro));
            for other in inst.enumerate_brute_force() {
                for r in 0..nr {
                    if let (Some(b), Some(o)) = (ro.reviewer_partner(r), other.reviewer_partner(r)) {
                        prop_assert!(inst.rrank(r, b) <= inst.rrank(r, o));
                    }
                }
            }
        }

        /// `enumerate_all` respects its cap and always includes the
        /// proposer-optimal matching first.
        #[test]
        fn enumerate_cap(seed in any::<u64>(), np in 0usize..6, nr in 0usize..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = random_instance(&mut rng, np, nr);
            let capped = inst.enumerate_all(Some(2));
            prop_assert!(capped.len() <= 2);
            prop_assert_eq!(&capped[0], &inst.propose());
        }
    }
}
