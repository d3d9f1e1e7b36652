//! Cross-frame incremental dispatch for the NSTD algorithms.
//!
//! A rolling frame loop re-solves almost the same frame every tick: most
//! idle taxis did not move and most pending requests carried over, so most
//! of a frame's candidate pairs — and their pick-up distances and driver
//! scores — are the previous frame's. [`IncrementalState`] carries the
//! previous frame's sparse candidate rows ([`crate::CandidateCarry`]): a
//! request unchanged between frames patches its row from the carry —
//! dropping moved taxis, merging in moved-in ones — instead of
//! re-querying the grid and the metric for every stationary taxi. The
//! rows then feed keyed deferred acceptance
//! ([`o2o_matching::KeyedMatch`]) directly, so a warm frame builds no
//! rank table and no [`o2o_matching::StableInstance`].
//!
//! The state carries no matching. A warm-start seed from the previous
//! frame's matching never applied in a dispatch loop: every matched taxi
//! is dispatched and leaves the idle set, so no carried pair survives into
//! the next frame.
//!
//! The carry stores exact metric distances, so one [`IncrementalState`]
//! must stay with one dispatcher (one metric); the params are revalidated
//! per frame, and any id/position/seat change falls back to the fresh
//! path. Warm and cold schedules are bit-identical for every frame delta;
//! the property suite in `tests/warm_equivalence.rs` pins this the same
//! way `tests/sparse_equivalence.rs` pins sparse == dense.

use o2o_matching::KeyedMatch;

/// Whether an NSTD dispatch reuses the previous frame's candidate rows.
///
/// Both modes produce **bit-identical schedules**; they differ only in
/// how much candidate generation is redone per frame and in the matching
/// engine (keyed deferred acceptance warm, rank-table instances cold).
/// `Cold` exists for A/B benchmarking and as the escape hatch if the carry ever costs more than it saves on a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IncrementalMode {
    /// Patch the previous frame's candidate rows and run keyed deferred
    /// acceptance (the default).
    #[default]
    Warm,
    /// Re-run every frame from scratch.
    Cold,
}

/// The warm NSTD path's cross-frame state: the previous frame's candidate
/// rows, keyed by stable identities so index churn between frames (taxis
/// leaving/entering the idle set, requests being served or arriving)
/// never mis-maps an entry, and the keyed solver's working memory.
///
/// Because the rows store exact metric distances, a state must only ever
/// be fed to **one** dispatcher (one metric). Once its buffers have grown
/// to the steady-state frame shape, the warm path allocates only the
/// schedule it returns.
#[derive(Debug, Clone, Default)]
pub struct IncrementalState {
    /// Previous frame's sparse candidate rows (see
    /// [`crate::prefs::CandidateCarry`]).
    pub(crate) rows: crate::prefs::CandidateCarry,
    /// Keyed deferred-acceptance working memory. Not cleared by
    /// [`IncrementalState::clear`]: it carries no frame content, only
    /// buffer capacity.
    pub(crate) solver: KeyedMatch,
}

impl IncrementalState {
    /// An empty state (the first frame takes the fresh path).
    #[must_use]
    pub fn new() -> Self {
        IncrementalState::default()
    }

    /// Forgets the carried candidate rows (the next frame takes the fresh
    /// path).
    pub fn clear(&mut self) {
        self.rows.clear();
    }
}
