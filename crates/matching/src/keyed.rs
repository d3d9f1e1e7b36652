//! Keyed deferred acceptance over a flat candidate set.
//!
//! The dispatch hot path knows both preference keys of every mutually
//! acceptable pair: the *row* agent's key and the *column* agent's key.
//! Every preference list in the frame is "ascending key, ties by partner
//! index", so a rank comparison is a key comparison. Deferred acceptance
//! only ever asks a reviewer whether a proposer beats its current holder,
//! which this module answers from the keys directly — no
//! [`crate::StableInstance`], no rank table, no sorted column lists and no
//! role-swapped copy is built.
//!
//! [`KeyedCandidates`] is the flat row-major (CSR) pair set; [`KeyedMatch`]
//! runs deferred acceptance with either side proposing:
//!
//! * **rows propose**: each row walks its entries, which must be sorted by
//!   `(row key, column)`; a column holds the proposal with the smallest
//!   `(column key, row)`. The dispatch path puts the proposing side in
//!   the rows: requests for NSTD-P (row key the pick-up distance, column
//!   key the driver score), taxis for NSTD-T (the two keys swapped), and
//!   request groups for STD-P;
//! * **columns propose**: a counting-scatter transpose buckets the
//!   entries by column in row order, and each column orders only as much
//!   of its bucket as it actually proposes through (chunked
//!   `select_nth_unstable_by`, then a sort of the chunk); a row holds the
//!   proposal with the smallest `(row key, column)`, so its entries may
//!   stand in any order. STD-T runs this way (taxis are the columns), and
//!   so does NSTD-T's step down to NSTD-P, with requests as the columns
//!   of the taxi rows.
//!
//! The matching equals [`crate::StableInstance::propose`] /
//! [`crate::StableInstance::reviewer_optimal`] on the lists the keys
//! induce, and so do the proposal and rejection counts: the proposer-
//! optimal matching and the set of proposals deferred acceptance makes do
//! not depend on the order proposers are served (McVitie–Wilson). The
//! property tests below pin both.
//!
//! A rows-proposing solve can also be *resumed* on rows revealed a prefix
//! at a time ([`KeyedCandidates::reopen_row`], [`KeyedMatch::resume_rows`]):
//! a row that runs out of entries waits, its caller appends the next part
//! of it, and it proposes on from where it stopped while every hold
//! stands. That is deferred acceptance on the full rows with some
//! proposers served later, so by the same order independence it ends in
//! the same matching with the same proposals — as long as every row left
//! unmatched at the end has been revealed in full. STD-P's group rows and
//! NSTD-T's taxi rows are revealed this way, in bands of a lower bound on
//! the row key.

use o2o_obs as obs;
use std::cmp::Ordering;

/// "No entry" in the holder and cursor arrays.
const NONE: u32 = u32::MAX;

/// The smallest number of column-list entries ordered at once when a
/// column proposer runs past its ordered prefix; later chunks double with
/// the prefix already consumed. Most taxis propose once or twice per
/// frame, so a small first chunk keeps the selection linear.
const FIRST_CHUNK: usize = 8;

/// One mutually acceptable `(row, column)` pair with both agents' keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyedEntry {
    /// The row agent (request index).
    pub row: u32,
    /// The column agent (taxi index).
    pub col: u32,
    /// The row agent's key for this column: a row lists its columns by
    /// ascending `(row_key, col)`.
    pub row_key: f64,
    /// The column agent's key for this row: a column ranks rows by
    /// ascending `(col_key, row)`.
    pub col_key: f64,
}

/// `(a_key, a_idx) < (b_key, b_idx)` under the comparator every
/// preference list in the dispatch path is sorted by: keys by
/// `partial_cmp` (equal keys — `-0.0` and `0.0` included — tie), then
/// the partner index.
#[inline]
fn key_less(a_key: f64, a_idx: u32, b_key: f64, b_idx: u32) -> bool {
    match a_key.partial_cmp(&b_key) {
        Some(Ordering::Less) => true,
        Some(Ordering::Greater) => false,
        _ => a_idx < b_idx,
    }
}

/// A flat, row-major set of mutually acceptable pairs: the input of
/// [`KeyedMatch::solve`].
///
/// Built row by row with [`push`](Self::push) and
/// [`finish_row`](Self::finish_row); a finished row can be extended later
/// with [`reopen_row`](Self::reopen_row). No key may be NaN (the solver
/// compares keys instead of reading ranks). Row order matters only when
/// rows propose: [`Proposing::Rows`] needs every row in ascending
/// `(row_key, col)` order (debug builds check it), while
/// [`Proposing::Columns`] compares keys and accepts any order. A column
/// out of range or repeated within a row panics at `push` — the same
/// lists a [`crate::StableInstance`] constructor would reject.
#[derive(Debug, Clone, Default)]
pub struct KeyedCandidates {
    cols: usize,
    /// Per finished row: the range of `entries` it occupies.
    spans: Vec<(u32, u32)>,
    /// The row being built and the index of its first entry.
    open: (u32, u32),
    entries: Vec<KeyedEntry>,
    /// Entries left behind in the pool by reopened rows.
    dead: usize,
    /// Per column: the last row that pushed it (duplicate check).
    stamp: Vec<u32>,
}

/// Two sets are equal when they have the same columns and the same rows,
/// wherever in the pool each row lies.
impl PartialEq for KeyedCandidates {
    fn eq(&self, other: &Self) -> bool {
        self.cols == other.cols
            && self.rows() == other.rows()
            && (0..self.rows()).all(|r| self.row(r) == other.row(r))
    }
}

impl KeyedCandidates {
    /// An empty set over zero columns; see [`reset`](Self::reset).
    #[must_use]
    pub fn new() -> Self {
        KeyedCandidates::default()
    }

    /// Clears to no rows over `cols` columns, keeping the buffers.
    pub fn reset(&mut self, cols: usize) {
        self.cols = cols;
        self.spans.clear();
        self.open = (0, 0);
        self.entries.clear();
        self.dead = 0;
        self.stamp.clear();
        self.stamp.resize(cols, NONE);
    }

    /// Appends `(col, row_key, col_key)` to the row being built.
    ///
    /// # Panics
    ///
    /// Panics when `col` is out of range or already in this row.
    #[inline]
    pub fn push(&mut self, col: usize, row_key: f64, col_key: f64) {
        let row = self.open.0;
        assert!(
            col < self.cols,
            "row {row} ranks out-of-range column {col} (of {})",
            self.cols
        );
        assert!(self.stamp[col] != row, "row {row} ranks column {col} twice");
        debug_assert!(!row_key.is_nan() && !col_key.is_nan(), "NaN preference key");
        self.stamp[col] = row;
        self.entries.push(KeyedEntry {
            row,
            col: col as u32,
            row_key,
            col_key,
        });
    }

    /// Closes the row being built; the next [`push`](Self::push) starts
    /// a new row after the last one.
    pub fn finish_row(&mut self) {
        let (row, start) = self.open;
        let span = (start, self.entries.len() as u32);
        match self.spans.get_mut(row as usize) {
            Some(reopened) => *reopened = span,
            None => self.spans.push(span),
        }
        self.open = (self.spans.len() as u32, span.1);
    }

    /// Reopens finished row `r`: its entries move to the end of the pool,
    /// the following [`push`](Self::push)es extend it, and
    /// [`finish_row`](Self::finish_row) closes it again. Every other row's
    /// entries keep their indices — the ones a [`KeyedMatch`] holds, which
    /// [`KeyedMatch::resume_rows`] relies on.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a finished row, or if the row being built
    /// already has entries.
    pub fn reopen_row(&mut self, r: usize) {
        assert!(r < self.rows(), "reopening unfinished row {r}");
        assert_eq!(
            self.open.1 as usize,
            self.entries.len(),
            "reopening row {r} while another is being built"
        );
        let (start, end) = self.spans[r];
        let moved = self.entries.len();
        self.entries
            .extend_from_within(start as usize..end as usize);
        self.dead += (end - start) as usize;
        for e in &self.entries[moved..] {
            self.stamp[e.col as usize] = r as u32;
        }
        self.open = (r as u32, moved as u32);
    }

    /// Sorts every row by `(row_key, col)`, the order rows propose in.
    #[cfg(test)]
    fn sort_rows(&mut self) {
        for &(start, end) in &self.spans {
            self.entries[start as usize..end as usize].sort_unstable_by(|a, b| {
                a.row_key
                    .partial_cmp(&b.row_key)
                    .unwrap_or(Ordering::Equal)
                    .then(a.col.cmp(&b.col))
            });
        }
    }

    /// Number of finished rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.spans.len()
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of entries in the rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len() - self.dead
    }

    /// `true` when the set holds no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entries of row `r` (finished or being built), in order.
    #[must_use]
    pub fn row(&self, r: usize) -> &[KeyedEntry] {
        let (start, end) = if r == self.open.0 as usize {
            (self.open.1, self.entries.len() as u32)
        } else {
            self.spans[r]
        };
        &self.entries[start as usize..end as usize]
    }

    /// Entry `e` of the flat pool (indices as returned by [`KeyedMatch`]).
    #[must_use]
    pub fn entry(&self, e: usize) -> &KeyedEntry {
        &self.entries[e]
    }
}

/// Which side of a [`KeyedCandidates`] set proposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proposing {
    /// Rows propose: the row-optimal stable matching.
    Rows,
    /// Columns propose: the column-optimal stable matching.
    Columns,
}

/// A column-side view of one entry in the transposed pool.
#[derive(Debug, Clone, Copy, Default)]
struct ColEntry {
    /// The column's key for the row.
    key: f64,
    /// The row.
    row: u32,
    /// Index of the entry in the row-major pool.
    entry: u32,
}

/// Deferred acceptance over a [`KeyedCandidates`] set, with its working
/// memory: one value reused across frames makes the solver
/// allocation-free once its buffers reach the frame shape.
#[derive(Debug, Clone, Default)]
pub struct KeyedMatch {
    /// Row → held entry, or [`NONE`].
    row_entry: Vec<u32>,
    /// Row → `(row_key, col)` of the held entry when columns propose, so
    /// a row weighs a proposal without reading its holder from the pool.
    row_held: Vec<(f64, u32)>,
    /// Column → held entry, or [`NONE`].
    col_entry: Vec<u32>,
    /// Per proposer: next position to propose from — relative to its row's
    /// start when rows propose, so a reopened row resumes where it
    /// stopped.
    next: Vec<u32>,
    /// Proposers that still need to propose.
    free: Vec<u32>,
    /// Column bucket starts in `by_col`; `cols + 1` values.
    col_start: Vec<u32>,
    /// Per column: end of the ordered prefix of its bucket.
    ordered: Vec<u32>,
    /// The entries bucketed by column, in row order until ordered.
    by_col: Vec<ColEntry>,
    /// The side that proposed in the last solve.
    proposing: Option<Proposing>,
}

impl KeyedMatch {
    /// Empty working memory.
    #[must_use]
    pub fn new() -> Self {
        KeyedMatch::default()
    }

    /// Runs deferred acceptance on `cands` with `proposing` proposing,
    /// replacing the previous result. Records `match.proposals` and
    /// `match.rejections` under the `deferred_acceptance` span, as the
    /// rank-table solver does.
    pub fn solve(&mut self, cands: &KeyedCandidates, proposing: Proposing) {
        let _span = obs::span("deferred_acceptance");
        self.proposing = Some(proposing);
        self.row_entry.clear();
        self.row_entry.resize(cands.rows(), NONE);
        self.col_entry.clear();
        self.col_entry.resize(cands.cols(), NONE);
        let counts = match proposing {
            Proposing::Rows => {
                self.next.clear();
                self.next.resize(cands.rows(), 0);
                self.free.clear();
                self.free.extend((0..cands.rows() as u32).rev());
                self.rows_propose(cands)
            }
            Proposing::Columns => self.columns_propose(cands),
        };
        record(counts);
    }

    /// Resumes the last solve, which rows proposed, after the rows in
    /// `woken` were extended with [`KeyedCandidates::reopen_row`]: each
    /// proposes on from the first entry it has not proposed to, and every
    /// hold stands. Records the new proposals and rejections as
    /// [`solve`](Self::solve) does.
    ///
    /// Only rows the solver left unmatched — rows that ran out of entries
    /// — may have been reopened, and each must be woken; the matching then
    /// equals one solve on the extended rows, with the same proposals in
    /// total (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the last solve was not rows proposing on a set of this
    /// shape, or if a woken row is matched.
    pub fn resume_rows(&mut self, cands: &KeyedCandidates, woken: &[u32]) {
        let _span = obs::span("deferred_acceptance");
        assert_eq!(
            self.proposing,
            Some(Proposing::Rows),
            "no rows solve to resume"
        );
        assert!(
            self.row_entry.len() == cands.rows() && self.col_entry.len() == cands.cols(),
            "resuming on a set of another shape"
        );
        debug_assert!(
            self.col_entry.iter().filter(|&&e| e != NONE).all(|&e| {
                let (start, end) = cands.spans[cands.entries[e as usize].row as usize];
                (start..end).contains(&e)
            }),
            "a held row was reopened"
        );
        self.free.clear();
        for &j in woken.iter().rev() {
            assert_eq!(self.row_entry[j as usize], NONE, "woken row {j} is matched");
            self.free.push(j);
        }
        record(self.rows_propose(cands));
    }

    /// Rows in `free` propose down their sorted rows from their cursors;
    /// a column keeps the smallest `(col_key, row)`.
    fn rows_propose(&mut self, c: &KeyedCandidates) -> (u64, u64) {
        debug_assert!(
            (0..c.rows()).all(|r| c.row(r).windows(2).all(|w| key_less(
                w[0].row_key,
                w[0].col,
                w[1].row_key,
                w[1].col
            ))),
            "proposing rows must ascend by (row_key, col)"
        );
        let (mut proposals, mut rejections) = (0u64, 0u64);
        while let Some(j) = self.free.pop() {
            let (start, end) = c.spans[j as usize];
            let mut k = start + self.next[j as usize];
            while k < end {
                let cand = c.entries[k as usize];
                k += 1;
                proposals += 1;
                let i = cand.col as usize;
                let held = self.col_entry[i];
                if held != NONE {
                    // Either this proposal or the holder is turned away.
                    rejections += 1;
                    let h = c.entries[held as usize];
                    if !key_less(cand.col_key, j, h.col_key, h.row) {
                        continue;
                    }
                    // The column trades up: its old holder proposes on.
                    self.row_entry[h.row as usize] = NONE;
                    self.free.push(h.row);
                }
                self.col_entry[i] = k - 1;
                self.row_entry[j as usize] = k - 1;
                break;
            }
            self.next[j as usize] = k - start;
        }
        (proposals, rejections)
    }

    /// Columns propose from a lazily ordered transpose; a row keeps the
    /// proposal with the smallest `(row_key, col)`, whatever the order of
    /// its entries.
    fn columns_propose(&mut self, c: &KeyedCandidates) -> (u64, u64) {
        let (mut proposals, mut rejections) = (0u64, 0u64);
        let cols = c.cols();
        self.row_held.clear();
        self.row_held.resize(c.rows(), (0.0, NONE));
        // Counting-scatter transpose: bucket starts, then each entry at its
        // column's fill cursor (row order within a bucket).
        self.col_start.clear();
        self.col_start.resize(cols + 1, 0);
        for &(start, end) in &c.spans {
            for e in &c.entries[start as usize..end as usize] {
                self.col_start[e.col as usize + 1] += 1;
            }
        }
        for i in 0..cols {
            self.col_start[i + 1] += self.col_start[i];
        }
        // `next` serves as the fill cursors here, the proposal cursors below.
        self.next.clear();
        self.next.extend_from_slice(&self.col_start[..cols]);
        self.by_col.clear();
        self.by_col.resize(c.len(), ColEntry::default());
        for &(start, end) in &c.spans {
            for idx in start..end {
                let e = &c.entries[idx as usize];
                let slot = &mut self.next[e.col as usize];
                self.by_col[*slot as usize] = ColEntry {
                    key: e.col_key,
                    row: e.row,
                    entry: idx,
                };
                *slot += 1;
            }
        }
        self.next.clear();
        self.next.extend_from_slice(&self.col_start[..cols]);
        self.ordered.clear();
        self.ordered.extend_from_slice(&self.col_start[..cols]);
        self.free.clear();
        self.free.extend(
            (0..cols as u32)
                .rev()
                .filter(|&i| self.col_start[i as usize] < self.col_start[i as usize + 1]),
        );
        while let Some(i) = self.free.pop() {
            let (start, end) = (self.col_start[i as usize], self.col_start[i as usize + 1]);
            let mut k = self.next[i as usize];
            while k < end {
                if k == self.ordered[i as usize] {
                    let chunk = ((k - start) as usize).max(FIRST_CHUNK);
                    let ordered = order_prefix(&mut self.by_col[k as usize..end as usize], chunk);
                    self.ordered[i as usize] = k + ordered as u32;
                }
                let cand = self.by_col[k as usize];
                k += 1;
                proposals += 1;
                let j = cand.row as usize;
                let row_key = c.entries[cand.entry as usize].row_key;
                if self.row_entry[j] != NONE {
                    // Either this proposal or the holder is turned away.
                    rejections += 1;
                    let (held_key, bumped) = self.row_held[j];
                    if !key_less(row_key, i, held_key, bumped) {
                        continue;
                    }
                    self.col_entry[bumped as usize] = NONE;
                    self.free.push(bumped);
                }
                self.row_entry[j] = cand.entry;
                self.row_held[j] = (row_key, i);
                self.col_entry[i as usize] = cand.entry;
                break;
            }
            self.next[i as usize] = k;
        }
        (proposals, rejections)
    }

    /// The entry row `r` is matched through, if any (an index for
    /// [`KeyedCandidates::entry`]).
    #[must_use]
    pub fn row_entry(&self, r: usize) -> Option<usize> {
        let e = self.row_entry[r];
        (e != NONE).then_some(e as usize)
    }

    /// The entry column `c` is matched through, if any.
    #[must_use]
    pub fn col_entry(&self, c: usize) -> Option<usize> {
        let e = self.col_entry[c];
        (e != NONE).then_some(e as usize)
    }
}

/// Adds one solve's proposals and rejections to the current recorder.
fn record((proposals, rejections): (u64, u64)) {
    if proposals > 0 {
        obs::add_many(&[
            ("match.proposals", proposals),
            ("match.rejections", rejections),
        ]);
    }
}

/// Moves the `chunk` smallest entries of `bucket` (by `(key, row)`) to
/// its front, in order — or sorts the whole bucket when it is at most
/// twice that (a selection would not pay for itself). Returns how many
/// leading entries are now in final order.
fn order_prefix(bucket: &mut [ColEntry], chunk: usize) -> usize {
    let cmp = |a: &ColEntry, b: &ColEntry| {
        a.key
            .partial_cmp(&b.key)
            .unwrap_or(Ordering::Equal)
            .then(a.row.cmp(&b.row))
    };
    if 2 * chunk < bucket.len() {
        bucket.select_nth_unstable_by(chunk - 1, cmp);
        bucket[..chunk].sort_unstable_by(cmp);
        chunk
    } else {
        bucket.sort_unstable_by(cmp);
        bucket.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matching, StableInstance};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// A random keyed set: each pair present with probability `density`,
    /// keys drawn from a few small integers so exact ties are common.
    fn random_set(seed: u64, rows: usize, cols: usize, density: f64) -> KeyedCandidates {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = KeyedCandidates::new();
        set.reset(cols);
        for _ in 0..rows {
            let mut row: Vec<(f64, usize, f64)> = Vec::new();
            for i in 0..cols {
                if rng.gen_bool(density) {
                    let rk = f64::from(rng.gen_range(0..4u32));
                    row.push((rk, i, f64::from(rng.gen_range(0..4u32)) - 1.5));
                }
            }
            row.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            for (rk, i, ck) in row {
                set.push(i, rk, ck);
            }
            set.finish_row();
        }
        set
    }

    /// `set` with each row's entries in a random order — the input
    /// columns may propose on.
    fn shuffled(set: &KeyedCandidates, seed: u64) -> KeyedCandidates {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = KeyedCandidates::new();
        out.reset(set.cols());
        for r in 0..set.rows() {
            let mut row = set.row(r).to_vec();
            row.shuffle(&mut rng);
            for e in row {
                out.push(e.col as usize, e.row_key, e.col_key);
            }
            out.finish_row();
        }
        out
    }

    /// The rank-list instance the keys induce: rows sorted by
    /// `(row_key, col)`, columns by `(col_key, row)`.
    fn reference_lists(set: &KeyedCandidates) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let rows: Vec<Vec<usize>> = (0..set.rows())
            .map(|r| set.row(r).iter().map(|e| e.col as usize).collect())
            .collect();
        let mut cols: Vec<Vec<(f64, usize)>> = vec![Vec::new(); set.cols()];
        for r in 0..set.rows() {
            for e in set.row(r) {
                cols[e.col as usize].push((e.col_key, r));
            }
        }
        let cols = cols
            .into_iter()
            .map(|mut c| {
                c.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
                c.into_iter().map(|(_, r)| r).collect()
            })
            .collect();
        (rows, cols)
    }

    /// The solver's result as a [`Matching`], rows proposing.
    fn matching(solver: &KeyedMatch, set: &KeyedCandidates) -> Matching {
        let mut m = Matching::empty(set.rows(), set.cols());
        for r in 0..set.rows() {
            if let Some(e) = solver.row_entry(r) {
                m.link(r, set.entry(e).col as usize);
            }
        }
        m
    }

    /// Solves on a scoped recorder, returning the matching and the
    /// `(proposals, rejections)` counters it recorded.
    fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
        let rec = obs::Recorder::new();
        let out = {
            let _scope = obs::scope(&rec);
            f()
        };
        (
            out,
            rec.counter("match.proposals"),
            rec.counter("match.rejections"),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Keyed deferred acceptance equals rank-table deferred acceptance
        /// on the lists the keys induce — matching, proposals and
        /// rejections — for both proposing sides, under exact key ties,
        /// empty rows and columns, and unequal side sizes.
        #[test]
        fn keyed_solver_matches_rank_tables(
            seed in any::<u64>(), rows in 0usize..14, cols in 0usize..14, dens in 0usize..=4,
        ) {
            let set = random_set(seed, rows, cols, dens as f64 / 4.0);
            let (p_lists, r_lists) = reference_lists(&set);
            let inst = StableInstance::new(p_lists, r_lists).unwrap();
            let mut solver = KeyedMatch::new();
            for proposing in [Proposing::Rows, Proposing::Columns] {
                let (keyed, kp, kr) = counted(|| {
                    solver.solve(&set, proposing);
                    matching(&solver, &set)
                });
                let (reference, rp, rr) = counted(|| match proposing {
                    Proposing::Rows => inst.propose(),
                    Proposing::Columns => inst.reviewer_optimal(),
                });
                prop_assert_eq!(&keyed, &reference, "{:?}", proposing);
                prop_assert_eq!((kp, kr), (rp, rr), "{:?} counters", proposing);
                for r in 0..set.rows() {
                    let via_entry = solver.row_entry(r).map(|e| set.entry(e).col as usize);
                    prop_assert_eq!(via_entry, keyed.proposer_partner(r));
                }
                for c in 0..set.cols() {
                    let via_entry = solver.col_entry(c).map(|e| set.entry(e).row as usize);
                    prop_assert_eq!(via_entry, keyed.reviewer_partner(c));
                }
            }
            // Columns propose on rows in any order: the same matching and
            // counts; sorting the rows gives back the sorted set.
            let mut unsorted = shuffled(&set, seed ^ 0x5EED);
            let (keyed, kp, kr) = counted(|| {
                solver.solve(&unsorted, Proposing::Columns);
                matching(&solver, &unsorted)
            });
            let (reference, rp, rr) = counted(|| inst.reviewer_optimal());
            prop_assert_eq!(&keyed, &reference, "unsorted rows");
            prop_assert_eq!((kp, kr), (rp, rr), "unsorted rows' counters");
            unsorted.sort_rows();
            prop_assert_eq!(&unsorted, &set);
        }
    }

    /// Solves `full` with rows proposing while revealing each row a random
    /// prefix at a time: every row starts with a prefix (possibly empty),
    /// and after each solve every unmatched row with entries still hidden
    /// is reopened, shown a longer prefix and woken. Returns the set the
    /// solver saw.
    fn solve_revealed(
        full: &KeyedCandidates,
        seed: u64,
        solver: &mut KeyedMatch,
    ) -> KeyedCandidates {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = KeyedCandidates::new();
        set.reset(full.cols());
        let mut shown: Vec<usize> = (0..full.rows())
            .map(|r| rng.gen_range(0..=full.row(r).len()))
            .collect();
        for (r, &n) in shown.iter().enumerate() {
            for e in &full.row(r)[..n] {
                set.push(e.col as usize, e.row_key, e.col_key);
            }
            set.finish_row();
        }
        solver.solve(&set, Proposing::Rows);
        loop {
            let mut woken = Vec::new();
            for (r, shown) in shown.iter_mut().enumerate() {
                let len = full.row(r).len();
                if solver.row_entry(r).is_some() || *shown == len {
                    continue;
                }
                let more = rng.gen_range(*shown + 1..=len);
                set.reopen_row(r);
                for e in &full.row(r)[*shown..more] {
                    set.push(e.col as usize, e.row_key, e.col_key);
                }
                set.finish_row();
                *shown = more;
                woken.push(r as u32);
            }
            if woken.is_empty() {
                return set;
            }
            solver.resume_rows(&set, &woken);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A rows-proposing solve resumed over random row prefixes equals
        /// one solve on the full rows and rank-table deferred acceptance:
        /// the matching, the entries each row and column holds, and the
        /// proposals and rejections recorded over all the resumes — under
        /// exact key ties, empty rows and unequal side sizes.
        #[test]
        fn resumed_rows_match_one_solve_on_full_rows(
            seed in any::<u64>(), rows in 0usize..14, cols in 0usize..14, dens in 0usize..=4,
        ) {
            let full = random_set(seed, rows, cols, dens as f64 / 4.0);
            let (p_lists, r_lists) = reference_lists(&full);
            let inst = StableInstance::new(p_lists, r_lists).unwrap();
            let mut whole = KeyedMatch::new();
            let (want, wp, wr) = counted(|| {
                whole.solve(&full, Proposing::Rows);
                matching(&whole, &full)
            });
            let (reference, rp, rr) = counted(|| inst.propose());
            prop_assert_eq!(&want, &reference);
            prop_assert_eq!((wp, wr), (rp, rr));
            let mut resumed = KeyedMatch::new();
            let ((set, got), gp, gr) = counted(|| {
                let set = solve_revealed(&full, seed ^ 0x0BAD_CAFE, &mut resumed);
                let got = matching(&resumed, &set);
                (set, got)
            });
            prop_assert_eq!(&got, &want);
            prop_assert_eq!((gp, gr), (wp, wr), "counters");
            for r in 0..full.rows() {
                let held = resumed.row_entry(r).map(|e| *set.entry(e));
                prop_assert_eq!(held, whole.row_entry(r).map(|e| *full.entry(e)));
                // A revealed row is a prefix of its full row.
                prop_assert!(full.row(r).starts_with(set.row(r)));
            }
            for c in 0..full.cols() {
                let held = resumed.col_entry(c).map(|e| *set.entry(e));
                prop_assert_eq!(held, whole.col_entry(c).map(|e| *full.entry(e)));
            }
            // Rows moved to the end of the pool leave their old entries
            // behind, which neither the count nor a sort reads.
            prop_assert_eq!(set.len(), (0..set.rows()).map(|r| set.row(r).len()).sum::<usize>());
            let mut sorted = set.clone();
            sorted.sort_rows();
            prop_assert_eq!(&sorted, &set);
        }
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn a_reopened_row_still_rejects_a_repeated_column() {
        let mut set = KeyedCandidates::new();
        set.reset(3);
        set.push(1, 0.0, 0.0);
        set.finish_row();
        set.push(1, 0.0, 0.0);
        set.finish_row();
        set.reopen_row(0);
        set.push(1, 1.0, 0.0);
    }

    #[test]
    fn long_column_lists_order_past_several_chunks() {
        // Ninety rows over three columns, every pair acceptable: column
        // proposers walk deep into buckets several doubling chunks long.
        let set = random_set(0xC0FFEE, 90, 3, 1.0);
        let (p, r) = reference_lists(&set);
        let inst = StableInstance::new(p, r).unwrap();
        let mut solver = KeyedMatch::new();
        solver.solve(&set, Proposing::Columns);
        assert_eq!(matching(&solver, &set), inst.reviewer_optimal());
        solver.solve(&set, Proposing::Rows);
        assert_eq!(matching(&solver, &set), inst.propose());
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_column_in_a_row_panics() {
        let mut set = KeyedCandidates::new();
        set.reset(3);
        set.push(1, 0.0, 0.0);
        set.push(1, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn out_of_range_column_panics() {
        let mut set = KeyedCandidates::new();
        set.reset(2);
        set.push(2, 0.0, 0.0);
    }
}
