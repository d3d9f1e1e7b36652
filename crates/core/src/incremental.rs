//! Cross-frame incremental dispatch for the NSTD algorithms.
//!
//! A rolling frame loop re-solves almost the same frame every tick: most
//! idle taxis did not move and most pending requests carried over.
//! [`IncrementalState`] keeps the stability certificate of the last
//! solved frame ([`crate::RowCertificate`]). A stable matching leaves no
//! mutually acceptable pair between a request and a taxi it leaves both
//! unmatched, and the argument is symmetric. So a request that stayed
//! unchanged and unmatched needs testing only against the taxis that are
//! new, moved, re-seated or were matched (NSTD-P builds one row per
//! request this way), and a taxi that stayed unchanged and unmatched only
//! against the requests that are new, changed or were matched (NSTD-T
//! builds one row per taxi this way). In the dispatch loop every matched
//! taxi leaves the idle set and every served request the queue, so the
//! tests left are those between the taxis that became idle and every
//! request, and between the requests that arrived and every taxi. The
//! rows then feed keyed deferred acceptance ([`o2o_matching::KeyedMatch`])
//! directly, so a warm frame builds no rank table and no
//! [`o2o_matching::StableInstance`]. NSTD-P's request rows are sorted;
//! NSTD-T's taxi rows are revealed in bands of a lower bound on the
//! driver score, and a taxi reads further only when its revealed requests
//! all refuse it.
//!
//! The state carries no matching to seed the next solve with: every
//! matched taxi is dispatched and leaves the idle set, so no matched pair
//! survives into the next frame. It records only *which* requests and
//! taxis were matched, which is what the certificate needs.
//!
//! The certificate reuses each unchanged request's trip, so one
//! [`IncrementalState`] must stay with one dispatcher (one metric); the
//! params are revalidated per frame, any id/position/seat change sends a
//! taxi or a request to the tested side, and a frame whose solve is not
//! recorded (the greedy rung) leaves the next frame uncertified. A fresh
//! state builds everything fresh, which is what
//! [`crate::NonSharingDispatcher::passenger_optimal`] and
//! [`crate::NonSharingDispatcher::taxi_optimal`] do; warm and fresh
//! schedules are bit-identical for every frame delta. The property suites
//! in `tests/warm_equivalence.rs` and `tests/row_certificate.rs` pin
//! this, and `tests/sparse_equivalence.rs` pins both against the dense
//! reference ([`crate::CandidateMode::Dense`]).

use o2o_matching::KeyedMatch;

/// The NSTD dispatch path's cross-frame state: the stability certificate of
/// the last solved frame, keyed by stable identities so index churn
/// between frames (taxis leaving/entering the idle set, requests being
/// served or arriving) never mis-maps a taxi or request, and the keyed
/// solver's working memory.
///
/// Because the certificate reuses metric trips, a state must only ever be
/// fed to **one** dispatcher (one metric). Once its buffers have grown to
/// the steady-state frame shape, the warm path allocates only the
/// schedule it returns.
#[derive(Debug, Clone, Default)]
pub struct IncrementalState {
    /// The last frame's certificate and the row buffers (see
    /// [`crate::RowCertificate`]).
    pub(crate) cert: crate::RowCertificate,
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

    /// Forgets the certificate (the next frame takes the fresh path).
    pub fn clear(&mut self) {
        self.cert.clear();
    }
}
