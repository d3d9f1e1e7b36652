//! Matching-algorithm substrate for the O2O taxi-dispatch reproduction.
//!
//! Every combinatorial engine used by the dispatch algorithms and the
//! baselines lives here, independent of any taxi-specific types:
//!
//! * [`keyed`] — deferred acceptance over a flat candidate set whose
//!   entries carry both agents' preference keys (the NSTD hot path),
//! * [`stable`] — stable marriage with *incomplete preference lists*
//!   (the paper's dummy entries), proposer-optimal matching (Algorithm 1's
//!   engine), and enumeration of **all** stable matchings via BreakDispatch
//!   with the paper's Rules 1–3 (Algorithm 2's engine),
//! * [`hungarian`] — `O(n³)` minimum-cost bipartite assignment (the *Pair*
//!   baseline),
//! * [`hopcroft_karp`] — maximum-cardinality bipartite matching,
//! * [`bottleneck`] — bottleneck assignment minimising the maximum matched
//!   cost (the *Mini* baseline),
//! * [`set_packing`] — maximum set packing: greedy, local-search
//!   (`(k+2)/3`-style guarantee used by Algorithm 3) and an exact
//!   branch-and-bound for validation,
//! * [`budget`] — per-frame computation budgets ([`TimeBudget`]) bounding
//!   the BreakDispatch enumeration and driving the degradation ladder in
//!   `o2o-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bottleneck;
pub mod budget;
pub mod hopcroft_karp;
pub mod hungarian;
pub mod keyed;
pub mod set_packing;
pub mod stable;

pub use bottleneck::bottleneck_assignment;
pub use budget::{TimeBudget, TimeBudgetSpec};
pub use hopcroft_karp::max_bipartite_matching;
pub use hungarian::min_cost_assignment;
pub use keyed::{KeyedCandidates, KeyedEntry, KeyedMatch, Proposing};
pub use set_packing::{SetPacking, SetPackingStrategy};
pub use stable::{AnytimeSearch, Enumeration, Matching, PreferenceError, StableInstance};
