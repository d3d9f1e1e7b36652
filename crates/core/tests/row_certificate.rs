//! The stability certificate behind the warm NSTD rows, driven the way the
//! dispatch loop drives it.
//!
//! A warm frame builds the row of a request that the last solved frame
//! held unchanged and left unmatched from the taxis that are new, moved,
//! re-seated or were matched — a stable matching leaves no mutually
//! acceptable pair of unmatched request and unmatched taxi. These tests
//! roll frames that *apply* each schedule, as the engine does (matched
//! taxis leave the idle set and come back later at the drop-off, served
//! requests leave the queue), mixed with the cases that break the usual
//! pattern: an assignment voided with its request still pending (a taxi
//! drop-out), one voided with its taxi still idle (a cancelled party), a
//! schedule not applied at all, and greedy frames, whose schedule is not
//! stable and certifies nothing. Warm schedules and proposal counts must
//! equal cold ones — `NonSharingDispatcher::dispatch` on a fresh state —
//! on every frame. A long-queue arm saturates the city — tens of taxis
//! against hundreds to about two thousand pending requests — so NSTD-T's
//! taxi rows outgrow their first bands and must widen, and checks every
//! frame against `CandidateMode::Dense` too.

use o2o_core::{
    CandidateMode, Degraded, DispatchTier, IncrementalState, NonSharingDispatcher,
    PreferenceParams, Proposing, Schedule, TimeBudget, TimeBudgetSpec,
};
use o2o_geo::{Euclidean, Metric, Point};
use o2o_obs as obs;
use o2o_trace::{Request, RequestId, Taxi, TaxiId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Runs `f` on a scoped recorder and returns its result with the
/// `(match.proposals, match.rejections)` it recorded.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let rec = obs::Recorder::new();
    let out = {
        let _scope = obs::scope(&rec);
        f()
    };
    (
        out,
        (
            rec.counter("match.proposals"),
            rec.counter("match.rejections"),
        ),
    )
}

/// One frame on `state` with `side` proposing under `budget`.
fn dispatch<M: Metric>(
    d: &NonSharingDispatcher<M>,
    taxis: &[Taxi],
    requests: &[Request],
    state: &mut IncrementalState,
    side: Proposing,
    budget: &TimeBudget,
) -> (Schedule, Option<Degraded>) {
    d.dispatch(taxis, requests, None, None, state, side, budget)
}

/// One frame with an unlimited budget on `state`.
fn warm<M: Metric>(
    d: &NonSharingDispatcher<M>,
    taxis: &[Taxi],
    requests: &[Request],
    state: &mut IncrementalState,
    side: Proposing,
) -> Schedule {
    dispatch(d, taxis, requests, state, side, &TimeBudget::unlimited()).0
}

/// One cold frame: a fresh state and an unlimited budget.
fn cold<M: Metric>(
    d: &NonSharingDispatcher<M>,
    taxis: &[Taxi],
    requests: &[Request],
    side: Proposing,
) -> Schedule {
    warm(d, taxis, requests, &mut IncrementalState::new(), side)
}

const SIDES: [Proposing; 2] = [Proposing::Rows, Proposing::Columns];

/// What a frame does with its schedule once dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Apply {
    /// Matched taxis leave the idle set, served requests the queue.
    All,
    /// As `All`, but one matched request stays pending (its taxi left).
    KeepRequest,
    /// As `All`, but one matched taxi stays idle (its request left).
    KeepTaxi,
    /// Nothing leaves.
    Nothing,
}

/// A rolling dispatch loop over one random city: idle taxis, a pending
/// queue and taxis busy until a later frame.
struct Loop {
    rng: StdRng,
    span: f64,
    idle: Vec<Taxi>,
    pending: Vec<Request>,
    /// `(frames left, taxi)` for dispatched taxis.
    busy: Vec<(u32, Taxi)>,
    next_request: u64,
    /// Requests that arrive per frame: `arrivals.0..arrivals.1`.
    arrivals: (u32, u32),
}

impl Loop {
    fn new(seed: u64, span: f64) -> Self {
        let mut l = Loop {
            rng: StdRng::seed_from_u64(seed),
            span,
            idle: Vec::new(),
            pending: Vec::new(),
            busy: Vec::new(),
            next_request: 0,
            arrivals: (0, 4),
        };
        let nt = l.rng.gen_range(1..14);
        for i in 0..nt {
            let mut t = Taxi::new(TaxiId(i), l.point());
            t.seats = l.rng.gen_range(1..=4);
            l.idle.push(t);
        }
        for _ in 0..l.rng.gen_range(1..16) {
            l.arrive();
        }
        l
    }

    /// A saturated city: 10–40 idle taxis, 300–2,000 pending requests and
    /// a few dozen arrivals per frame, so a few taxis turn idle each
    /// frame against a queue that stays long.
    fn long_queue(seed: u64, span: f64) -> Self {
        let mut l = Loop::new(seed, span);
        for i in l.idle.len()..l.rng.gen_range(10..40) {
            let mut t = Taxi::new(TaxiId(i as u64), l.point());
            t.seats = l.rng.gen_range(1..=4);
            l.idle.push(t);
        }
        for _ in 0..l.rng.gen_range(300..2000) {
            l.arrive();
        }
        l.arrivals = (10, 40);
        l
    }

    fn point(&mut self) -> Point {
        let s = self.span;
        Point::new(self.rng.gen_range(-s..s), self.rng.gen_range(-s..s))
    }

    fn arrive(&mut self) {
        let (pickup, dropoff) = (self.point(), self.point());
        let mut r = Request::new(RequestId(self.next_request), 0, pickup, dropoff);
        self.next_request += 1;
        r.passengers = self.rng.gen_range(1..=3);
        self.pending.push(r);
    }

    /// Applies `schedule` as `apply` says, then advances the loop by one
    /// frame: busy taxis count down and return idle at their drop-off, a
    /// few idle taxis relocate, some requests expire and new ones arrive.
    fn advance(&mut self, schedule: &Schedule, apply: Apply) {
        let pairs: Vec<(RequestId, TaxiId)> = schedule.pairs().collect();
        let mut leaving_taxis: HashSet<TaxiId> = HashSet::new();
        let mut served: HashSet<RequestId> = HashSet::new();
        if apply != Apply::Nothing {
            let voided = (!pairs.is_empty()).then(|| self.rng.gen_range(0..pairs.len()));
            for (k, &(rid, tid)) in pairs.iter().enumerate() {
                let void = Some(k) == voided;
                if !(void && apply == Apply::KeepTaxi) {
                    leaving_taxis.insert(tid);
                }
                if !(void && apply == Apply::KeepRequest) {
                    served.insert(rid);
                }
            }
        }
        // Dispatched taxis are busy for a few frames and come back idle at
        // the drop-off of the request they were matched to.
        let dropoff: HashMap<TaxiId, Point> = pairs
            .iter()
            .filter_map(|&(rid, tid)| {
                let r = self.pending.iter().find(|r| r.id == rid)?;
                Some((tid, r.dropoff))
            })
            .collect();
        let mut kept = Vec::with_capacity(self.idle.len());
        for mut t in std::mem::take(&mut self.idle) {
            if leaving_taxis.contains(&t.id) {
                t.location = dropoff[&t.id];
                let frames = self.rng.gen_range(1..4);
                self.busy.push((frames, t));
            } else {
                kept.push(t);
            }
        }
        self.pending.retain(|r| !served.contains(&r.id));
        // A few idle taxis relocate (a driver repositions).
        for t in &mut kept {
            if self.rng.gen_bool(0.1) {
                let s = self.span;
                t.location = Point::new(self.rng.gen_range(-s..s), self.rng.gen_range(-s..s));
            }
        }
        // Busy taxis count down; finished ones rejoin the idle set.
        let mut still_busy = Vec::with_capacity(self.busy.len());
        for (left, t) in std::mem::take(&mut self.busy) {
            if left <= 1 {
                kept.push(t);
            } else {
                still_busy.push((left - 1, t));
            }
        }
        self.busy = still_busy;
        self.idle = kept;
        // Some requests expire; some arrive.
        let expire: Vec<bool> = (0..self.pending.len())
            .map(|_| self.rng.gen_bool(0.05))
            .collect();
        let mut it = expire.into_iter();
        self.pending.retain(|_| !it.next().unwrap_or(false));
        for _ in 0..self.rng.gen_range(self.arrivals.0..self.arrivals.1) {
            self.arrive();
        }
    }
}

/// Rolls `frames` frames of `city` with one side warm and cold, asserting
/// equal schedules and counters on every frame, and, with `dense`, equal
/// schedules to `CandidateMode::Dense`.
fn roll(
    mut city: Loop,
    seed: u64,
    frames: usize,
    params: PreferenceParams,
    side: Proposing,
    dense: bool,
) {
    let d = NonSharingDispatcher::new(Euclidean, params);
    let reference = d.clone().with_candidate_mode(CandidateMode::Dense);
    let mut state = IncrementalState::new();
    let mut pick = StdRng::seed_from_u64(seed ^ 0xA11CE);
    let expired = TimeBudgetSpec::unlimited().with_deadline(Duration::ZERO);
    for frame in 0..frames {
        let (taxis, requests) = (city.idle.clone(), city.pending.clone());
        let greedy = pick.gen_bool(0.15);
        let (warm, warm_counts) = counted(|| {
            let budget = if greedy {
                expired.start()
            } else {
                TimeBudget::unlimited()
            };
            let (s, degraded) = dispatch(&d, &taxis, &requests, &mut state, side, &budget);
            let to = degraded.map(|g| g.to);
            assert_eq!(to, greedy.then_some(DispatchTier::GreedyNearest));
            s
        });
        let (cold, cold_counts) = counted(|| {
            if greedy {
                d.greedy_nearest(&taxis, &requests)
            } else {
                cold(&d, &taxis, &requests, side)
            }
        });
        prop_assert_eq!(
            &warm,
            &cold,
            "frame {} ({:?}, greedy {})",
            frame,
            side,
            greedy
        );
        prop_assert_eq!(warm_counts, cold_counts, "frame {} counters", frame);
        if dense && !greedy {
            let mut fresh = IncrementalState::new();
            let unlimited = TimeBudget::unlimited();
            let ((dense, _), dense_counts) =
                counted(|| dispatch(&reference, &taxis, &requests, &mut fresh, side, &unlimited));
            prop_assert_eq!(&warm, &dense, "frame {} against dense ({:?})", frame, side);
            // Where every pair is mutually acceptable the dense lists
            // hold exactly the candidate pairs, so the counts agree too.
            if params == PreferenceParams::unbounded() {
                prop_assert_eq!(warm_counts, dense_counts, "frame {} dense counters", frame);
            }
        }
        let apply = match pick.gen_range(0..10) {
            0 => Apply::Nothing,
            1 | 2 => Apply::KeepRequest,
            3 | 4 => Apply::KeepTaxi,
            _ => Apply::All,
        };
        city.advance(&warm, apply);
    }
}

fn param_grid() -> Vec<PreferenceParams> {
    vec![
        PreferenceParams::paper(),
        PreferenceParams::paper()
            .with_passenger_threshold(3.0)
            .with_taxi_threshold(0.5),
        PreferenceParams::unbounded(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Frames that apply their schedules, void assignments of both kinds,
    /// drop schedules and fall back to greedy: warm == cold, schedules and
    /// counters, for both proposing sides.
    #[test]
    fn applied_schedules_keep_warm_equal_to_cold(seed in any::<u64>()) {
        for params in param_grid() {
            for side in SIDES {
                roll(Loop::new(seed, 8.0), seed, 12, params, side, false);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Tens of taxis against a long queue: the taxi rows widen their
    /// bands, and warm == cold == dense on every frame, for both sides.
    #[test]
    fn long_queues_keep_warm_equal_to_cold_and_dense(seed in any::<u64>()) {
        for params in [PreferenceParams::paper(), PreferenceParams::unbounded()] {
            for side in SIDES {
                roll(Loop::long_queue(seed, 8.0), seed, 6, params, side, true);
            }
        }
    }
}

/// A metric that counts its evaluations.
#[derive(Debug, Default)]
struct Counting(AtomicUsize);

impl Metric for Counting {
    fn distance(&self, a: Point, b: Point) -> f64 {
        self.0.fetch_add(1, Ordering::Relaxed);
        Euclidean.distance(a, b)
    }
}

/// After an applied dispatch, a frame with no other change needs no metric
/// query at all: every request left is unchanged and unmatched, every taxi
/// left is unchanged and unmatched, so the certificate empties every row
/// and each request's trip is reused.
#[test]
fn stationary_frame_after_an_applied_dispatch_queries_nothing() {
    // Many requests, few taxis: the first frame leaves most requests
    // unmatched.
    let mut city = Loop::new(0xF1F0, 8.0);
    while city.pending.len() < 3 * city.idle.len() {
        city.arrive();
    }
    let d = NonSharingDispatcher::new(Counting::default(), PreferenceParams::unbounded());
    for side in SIDES {
        let (mut taxis, mut requests) = (city.idle.clone(), city.pending.clone());
        let mut state = IncrementalState::new();
        let first = warm(&d, &taxis, &requests, &mut state, side);
        assert!(first.served_count() > 0, "{side:?}");
        taxis.retain(|t| first.request_of(t.id).is_none());
        requests.retain(|r| first.assignment_of(r.id).taxi().is_none());
        assert!(!requests.is_empty(), "{side:?}");
        d.metric().0.store(0, Ordering::Relaxed);
        let second = warm(&d, &taxis, &requests, &mut state, side);
        assert_eq!(d.metric().0.load(Ordering::Relaxed), 0, "{side:?}");
        assert_eq!(second.served_count(), 0, "{side:?}");
        assert_eq!(second, cold(&d, &taxis, &requests, side));
    }
}

/// A metric that sleeps before each evaluation, so building a frame's
/// rows outlasts a short deadline.
#[derive(Debug)]
struct Slow;

impl Metric for Slow {
    fn distance(&self, a: Point, b: Point) -> f64 {
        std::thread::sleep(Duration::from_micros(300));
        Euclidean.distance(a, b)
    }
}

/// The budgeted NSTD-T ladder builds each taxi's row in bands; when the
/// deadline passes after that, it reveals every band in full and steps
/// down to NSTD-P, with requests proposing on the taxi rows. Four taxis
/// against sixty requests leave the bands incomplete when the deadline
/// passes. The step-down schedule and counters are NSTD-P's, and its
/// solve certifies the next frame like any other.
#[test]
fn ladder_step_down_completes_the_bands_and_certifies_the_next_frame() {
    let mut city = Loop::new(0x1ADD, 8.0);
    city.idle = (0..4)
        .map(|i| Taxi::new(TaxiId(100 + i), city.point()))
        .collect();
    while city.pending.len() < 60 {
        city.arrive();
    }
    let d = NonSharingDispatcher::new(Slow, PreferenceParams::unbounded());
    let spec = TimeBudgetSpec::unlimited().with_deadline(Duration::from_millis(2));
    let (taxis, requests) = (city.idle.clone(), city.pending.clone());
    // The deadline is checked on entry too; a stalled thread may miss the
    // window, so try a few times.
    for _ in 0..5 {
        let mut state = IncrementalState::new();
        let columns = Proposing::Columns;
        let ((stepped, degraded), counts) =
            counted(|| dispatch(&d, &taxis, &requests, &mut state, columns, &spec.start()));
        if degraded.map(|g| g.to) != Some(DispatchTier::NstdP) {
            continue;
        }
        let (nstd_p, nstd_p_counts) = counted(|| cold(&d, &taxis, &requests, Proposing::Rows));
        assert_eq!(stepped, nstd_p);
        assert_eq!(counts, nstd_p_counts);
        city.advance(&stepped, Apply::All);
        let (idle, pending) = (&city.idle, &city.pending);
        let after = warm(&d, idle, pending, &mut state, columns);
        assert_eq!(after, cold(&d, idle, pending, columns));
        return;
    }
    panic!("no attempt stepped down to NSTD-P");
}
