//! Uniform-grid spatial index for nearest-neighbour queries over taxis.
//!
//! The greedy baseline ("Near") and the RAII baseline both need fast
//! "nearest idle taxi" queries; preference-list construction benefits from
//! "all taxis within radius" queries. A uniform grid over the city bounding
//! box answers both in roughly `O(k)` for `k` results, which is far better
//! than linear scans across a 700-taxi fleet every frame.

use crate::{BBox, Point};

/// Cell side (km) that works well for per-frame taxi indices: the city's
/// larger extent split into 32 cells, but never below 250 m so tiny boxes
/// do not degenerate into thousands of near-empty cells.
///
/// This is the sizing already used by the `near`/`raii` baselines; the
/// sparse preference-list builder shares it so one grid per frame serves
/// every consumer.
#[must_use]
pub fn heuristic_cell_size(bbox: BBox) -> f64 {
    (bbox.width().max(bbox.height()) / 32.0).max(0.25)
}

/// An item returned from a proximity query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor<T> {
    /// The stored payload (e.g. a taxi id).
    pub item: T,
    /// Straight-line distance from the query point, in kilometres.
    pub distance: f64,
}

/// A uniform-grid index over payloads located at [`Point`]s.
///
/// Distances used by the index are Euclidean. When the dispatch metric is a
/// road network, the index still serves as a candidate generator (Euclidean
/// distance lower-bounds any reasonable road metric), and callers re-rank
/// candidates with the true metric.
///
/// # Examples
///
/// ```
/// use o2o_geo::{BBox, GridIndex, Point};
///
/// let city = BBox::square(Point::new(0.0, 0.0), 10.0);
/// let mut idx = GridIndex::new(city, 1.0);
/// idx.insert("taxi-a", Point::new(1.0, 1.0));
/// idx.insert("taxi-b", Point::new(-3.0, 2.0));
/// let nearest = idx.nearest(Point::new(0.5, 0.5)).unwrap();
/// assert_eq!(nearest.item, "taxi-a");
/// ```
/// Two indices compare equal only when they have the same geometry *and*
/// the same items in the same per-cell order — i.e. when they are
/// query-indistinguishable, tie-breaking included. This is what the
/// incremental maintenance layer's debug checks assert against a fresh
/// [`GridIndex::bulk_build`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridIndex<T> {
    bbox: BBox,
    cell_size: f64,
    cols: usize,
    rows: usize,
    cells: Vec<Vec<(T, Point)>>,
    len: usize,
}

impl<T: Clone + PartialEq> GridIndex<T> {
    /// Creates an index covering `bbox` with square cells of side
    /// `cell_size` kilometres. Points outside the box are clamped onto it.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not positive and finite.
    #[must_use]
    pub fn new(bbox: BBox, cell_size: f64) -> Self {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell_size must be positive and finite, got {cell_size}"
        );
        let cols = ((bbox.width() / cell_size).ceil() as usize).max(1);
        let rows = ((bbox.height() / cell_size).ceil() as usize).max(1);
        GridIndex {
            bbox,
            cell_size,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            len: 0,
        }
    }

    /// Builds an index from a batch of items in one pass, pre-sizing every
    /// cell so construction does no per-insert reallocation.
    ///
    /// Equivalent to [`GridIndex::new`] followed by [`GridIndex::insert`]
    /// for each item in order (so per-cell item order — and therefore
    /// query tie-breaking — is identical), but O(n) with exactly one
    /// allocation per non-empty cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not positive and finite.
    #[must_use]
    pub fn bulk_build(bbox: BBox, cell_size: f64, items: Vec<(T, Point)>) -> Self {
        let mut idx = GridIndex::new(bbox, cell_size);
        let ids: Vec<usize> = items
            .iter()
            .map(|&(_, p)| {
                let (c, r) = idx.cell_of(p);
                r * idx.cols + c
            })
            .collect();
        let mut counts = vec![0usize; idx.cells.len()];
        for &id in &ids {
            counts[id] += 1;
        }
        for (cell, &n) in idx.cells.iter_mut().zip(&counts) {
            if n > 0 {
                cell.reserve_exact(n);
            }
        }
        idx.len = items.len();
        for ((item, p), id) in items.into_iter().zip(ids) {
            idx.cells[id].push((item, p));
        }
        idx
    }

    /// Number of stored items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no items are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The covered bounding box.
    #[must_use]
    pub fn bbox(&self) -> BBox {
        self.bbox
    }

    /// The cell side length, in kilometres.
    #[must_use]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    fn cell_of(&self, p: Point) -> (usize, usize) {
        let p = self.bbox.clamp(p);
        let c = (((p.x - self.bbox.min().x) / self.cell_size) as usize).min(self.cols - 1);
        let r = (((p.y - self.bbox.min().y) / self.cell_size) as usize).min(self.rows - 1);
        (c, r)
    }

    /// The rectangle of the covered bbox owned by cell `(col, row)`.
    ///
    /// Intersected with the covered bbox, because the last column/row can
    /// overhang it (`cols·cell_size ≥ width`) and hull cells also key
    /// points stored *outside* the bbox — for those, only the clamped
    /// position is guaranteed to lie in this rectangle. Degenerate bboxes
    /// (zero width/height) yield zero-area cell boxes, which the `BBox`
    /// distance helpers handle exactly.
    fn cell_bbox(&self, col: usize, row: usize) -> BBox {
        let min = self.bbox.min();
        let lo = Point::new(
            min.x + col as f64 * self.cell_size,
            min.y + row as f64 * self.cell_size,
        );
        let hi = Point::new(lo.x + self.cell_size, lo.y + self.cell_size);
        BBox::new(self.bbox.clamp(lo), self.bbox.clamp(hi))
    }

    /// Lower bound on the distance from `query` to any point stored in
    /// cell `(col, row)`.
    ///
    /// Valid even for points stored outside the covered bbox (they are
    /// keyed by their clamped position): clamping is a contraction, so
    /// `‖q − p‖ ≥ ‖clamp(q) − clamp(p)‖ ≥ dist(clamp(q), cell_bbox)`.
    /// Shared edges/corners give a bound of exactly `0`, never a spurious
    /// positive value that could prune a touching cell.
    fn cell_lower_bound(&self, query: Point, col: usize, row: usize) -> f64 {
        self.cell_bbox(col, row)
            .distance_to_point(self.bbox.clamp(query))
    }

    /// Inserts `item` at `location`. Duplicate items are allowed; `remove`
    /// removes one occurrence.
    pub fn insert(&mut self, item: T, location: Point) {
        let (c, r) = self.cell_of(location);
        self.cells[r * self.cols + c].push((item, location));
        self.len += 1;
    }

    /// Removes one occurrence of `item` previously inserted at `location`.
    ///
    /// Returns `true` if an occurrence was found and removed. The location
    /// must match the insertion location (it determines the cell searched).
    ///
    /// Removal preserves the relative order of the remaining items in the
    /// cell, so later queries tie-break exactly as if the removed item had
    /// never been inserted.
    pub fn remove(&mut self, item: &T, location: Point) -> bool {
        let (c, r) = self.cell_of(location);
        let cell = &mut self.cells[r * self.cols + c];
        if let Some(pos) = cell.iter().position(|(i, _)| i == item) {
            cell.remove(pos);
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Removes every stored item.
    pub fn clear(&mut self) {
        for cell in &mut self.cells {
            cell.clear();
        }
        self.len = 0;
    }

    /// Asserts the internal invariants: the item count matches the cell
    /// contents and every item sits in the cell its location maps to.
    /// Debug builds only — release builds compile this to nothing.
    pub fn debug_check_invariants(&self) {
        if cfg!(debug_assertions) {
            let counted: usize = self.cells.iter().map(Vec::len).sum();
            assert_eq!(counted, self.len, "grid len out of sync with cells");
            for (id, cell) in self.cells.iter().enumerate() {
                for (_, p) in cell {
                    let (c, r) = self.cell_of(*p);
                    assert_eq!(r * self.cols + c, id, "item stored in wrong cell");
                }
            }
        }
    }

    /// The stored item nearest to `query`, or `None` when empty.
    ///
    /// Exact: expands the cell ring until the best candidate provably beats
    /// anything in unexplored rings.
    #[must_use]
    pub fn nearest(&self, query: Point) -> Option<Neighbor<T>> {
        self.k_nearest(query, 1).into_iter().next()
    }

    /// The `k` stored items nearest to `query`, closest first.
    ///
    /// Returns fewer than `k` when fewer are stored. Ties in distance are
    /// broken deterministically by discovery order: outer rings after
    /// inner rings, and insertion order within a cell.
    #[must_use]
    pub fn k_nearest(&self, query: Point, k: usize) -> Vec<Neighbor<T>> {
        if k == 0 || self.len == 0 {
            return Vec::new();
        }
        let (qc, qr) = self.cell_of(query);
        let mut best: Vec<Neighbor<T>> = Vec::with_capacity(k + 1);
        let max_ring = self.cols.max(self.rows);
        for ring in 0..=max_ring {
            // Once we hold k results, stop when even the nearest possible
            // point of this ring cannot beat the current worst.
            if best.len() == k {
                let ring_min_dist = (ring as f64 - 1.0).max(0.0) * self.cell_size;
                if ring_min_dist > best[k - 1].distance {
                    break;
                }
            }
            self.for_each_ring_cell(qc, qr, ring, |c, r| {
                // Exact per-cell prune: anything stored here is at least
                // the cell-bbox lower bound away, so a full result set
                // whose worst entry beats that bound cannot change. The
                // strict `>` keeps cells whose bound ties the worst, so
                // tie-breaking by discovery order is unchanged.
                if best.len() == k && self.cell_lower_bound(query, c, r) > best[k - 1].distance {
                    return;
                }
                for (item, loc) in &self.cells[r * self.cols + c] {
                    let d = loc.euclidean(query);
                    // Upper-bound insertion point: equal distances keep
                    // discovery order (ring scan, then insertion order
                    // within a cell), making tie-breaking deterministic.
                    let pos = best.partition_point(|n| n.distance <= d);
                    if pos < k {
                        best.insert(
                            pos,
                            Neighbor {
                                item: item.clone(),
                                distance: d,
                            },
                        );
                        best.truncate(k);
                    }
                }
            });
        }
        best
    }

    /// Calls `visit(item, location)` for every stored item within
    /// `radius` of `query` (inclusive: `location.euclidean(query) ≤
    /// radius`, decided by [`Point::within`]), **unsorted**, in discovery
    /// order: grid rows bottom to top, a row's cells left to right, a
    /// cell's items in insertion order. Allocates nothing; callers that
    /// re-rank hits by another metric (the sparse candidate builder) sort
    /// only what they keep, if anything. An infinite radius visits every
    /// stored item; a negative or NaN radius visits none.
    ///
    /// The walk visits the rows the disk reaches and, in each, the cells
    /// the disk's chord crosses, with one cell of slack on each side (and
    /// one row above and below) so float rounding in the chord or in an
    /// item's cell can never drop a cell. The disk is centred on the
    /// query clamped onto the covered bbox: clamping is a contraction, so
    /// `‖q − p‖ ≥ ‖clamp(q) − clamp(p)‖`, and every stored item is keyed
    /// by its clamped position — the walk is exact for queries and items
    /// outside the bbox too.
    pub fn visit_within(&self, query: Point, radius: f64, mut visit: impl FnMut(&T, Point)) {
        if radius < 0.0 || radius.is_nan() || self.len == 0 {
            return;
        }
        let min = self.bbox.min();
        let centre = self.bbox.clamp(query);
        let (qx, qy) = (centre.x - min.x, centre.y - min.y);
        let s = self.cell_size;
        // Grid coordinates as isize: `as` saturates on huge or infinite
        // values, and the slack steps saturate too.
        let index = |v: f64| (v / s).floor() as isize;
        let (cols, rows) = (self.cols as isize, self.rows as isize);
        let r_lo = index(qy - radius).saturating_sub(1).max(0);
        let r_hi = index(qy + radius).saturating_add(1).min(rows - 1);
        for r in r_lo..=r_hi {
            // The row's vertical gap to the centre, then the half chord
            // there: `(radius − dy)(radius + dy)` keeps its precision near
            // the disk's top and bottom, overflows to +∞ for huge radii
            // (the whole row) and is clamped to 0 on the slack rows.
            let band = r as f64 * s;
            let dy = (band - qy).max(qy - (band + s)).max(0.0);
            let half = ((radius - dy) * (radius + dy)).max(0.0).sqrt();
            let c_lo = index(qx - half).saturating_sub(1).max(0);
            let c_hi = index(qx + half).saturating_add(1).min(cols - 1);
            if c_lo > c_hi {
                continue;
            }
            let base = r as usize * self.cols;
            for cell in &self.cells[base + c_lo as usize..=base + c_hi as usize] {
                for (item, loc) in cell {
                    if loc.within(query, radius) {
                        visit(item, *loc);
                    }
                }
            }
        }
    }

    /// Iterates over all stored `(item, location)` pairs in unspecified
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&T, Point)> {
        self.cells
            .iter()
            .flat_map(|cell| cell.iter().map(|(i, p)| (i, *p)))
    }

    /// Calls `f(col, row)` for each in-grid cell of the square ring at
    /// Chebyshev distance `ring` around `(col, row)`: the top and bottom
    /// rows column by column, then the side columns row by row.
    fn for_each_ring_cell(
        &self,
        col: usize,
        row: usize,
        ring: usize,
        mut f: impl FnMut(usize, usize),
    ) {
        if ring == 0 {
            f(col, row);
            return;
        }
        let (c0, c1) = (col as isize - ring as isize, col as isize + ring as isize);
        let (r0, r1) = (row as isize - ring as isize, row as isize + ring as isize);
        let (cols, rows) = (self.cols as isize, self.rows as isize);
        let row_ok = |r: isize| r >= 0 && r < rows;
        let col_ok = |c: isize| c >= 0 && c < cols;
        for c in c0.max(0)..=c1.min(cols - 1) {
            for r in [r0, r1] {
                if row_ok(r) {
                    f(c as usize, r as usize);
                }
            }
        }
        for r in (r0 + 1).max(0)..r1.min(rows) {
            for c in [c0, c1] {
                if col_ok(c) {
                    f(c as usize, r as usize);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn city() -> BBox {
        BBox::square(Point::ORIGIN, 20.0)
    }

    /// The items `visit_within` reports, in discovery order.
    fn visited<T: Clone + PartialEq>(idx: &GridIndex<T>, q: Point, radius: f64) -> Vec<T> {
        let mut out = Vec::new();
        idx.visit_within(q, radius, |item, _| out.push(item.clone()));
        out
    }

    /// `visit_within`'s hits with their distance from `q`, closest first
    /// and ties by item.
    fn hits<T: Clone + PartialEq + Ord>(
        idx: &GridIndex<T>,
        q: Point,
        radius: f64,
    ) -> Vec<(T, f64)> {
        let mut out = Vec::new();
        idx.visit_within(q, radius, |item, loc| {
            out.push((item.clone(), loc.euclidean(q)))
        });
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    #[test]
    fn empty_index_has_no_neighbors() {
        let idx: GridIndex<u32> = GridIndex::new(city(), 1.0);
        assert!(idx.is_empty());
        assert!(idx.nearest(Point::ORIGIN).is_none());
        assert!(idx.k_nearest(Point::ORIGIN, 3).is_empty());
        assert!(hits(&idx, Point::ORIGIN, 5.0).is_empty());
    }

    #[test]
    fn nearest_returns_closest() {
        let mut idx = GridIndex::new(city(), 1.0);
        idx.insert(1u32, Point::new(5.0, 5.0));
        idx.insert(2u32, Point::new(-1.0, -1.0));
        idx.insert(3u32, Point::new(0.5, 0.0));
        let n = idx.nearest(Point::ORIGIN).unwrap();
        assert_eq!(n.item, 3);
        assert!((n.distance - 0.5).abs() < 1e-12);
    }

    #[test]
    fn k_nearest_is_sorted_and_bounded() {
        let mut idx = GridIndex::new(city(), 2.0);
        for i in 0..10 {
            idx.insert(i, Point::new(i as f64, 0.0));
        }
        let got = idx.k_nearest(Point::new(0.2, 0.0), 4);
        assert_eq!(got.len(), 4);
        assert_eq!(
            got.iter().map(|n| n.item).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        for w in got.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn within_respects_radius() {
        let mut idx = GridIndex::new(city(), 1.0);
        for i in 0..20 {
            idx.insert(i, Point::new(i as f64 - 10.0, 0.0));
        }
        let got = hits(&idx, Point::ORIGIN, 2.5);
        assert_eq!(got.len(), 5); // -2, -1, 0, 1, 2
        assert!(got.iter().all(|&(_, d)| d <= 2.5));
    }

    #[test]
    fn remove_then_query() {
        let mut idx = GridIndex::new(city(), 1.0);
        let p = Point::new(1.0, 1.0);
        idx.insert(7u32, p);
        assert!(idx.remove(&7, p));
        assert!(!idx.remove(&7, p));
        assert!(idx.nearest(Point::ORIGIN).is_none());
    }

    #[test]
    fn points_outside_bbox_are_clamped_but_exact() {
        let mut idx = GridIndex::new(city(), 1.0);
        let far = Point::new(100.0, 100.0); // clamped to cell (10,10) corner
        idx.insert(42u32, far);
        let n = idx.nearest(far).unwrap();
        assert_eq!(n.item, 42);
        assert_eq!(n.distance, 0.0);
    }

    #[test]
    fn clear_empties() {
        let mut idx = GridIndex::new(city(), 1.0);
        idx.insert(1u32, Point::ORIGIN);
        idx.insert(2u32, Point::new(3.0, 3.0));
        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_size_panics() {
        let _ = GridIndex::<u32>::new(city(), 0.0);
    }

    #[test]
    fn within_includes_points_exactly_on_radius() {
        let mut idx = GridIndex::new(city(), 1.0);
        idx.insert(1u32, Point::new(2.5, 0.0)); // exactly on the radius
        idx.insert(2u32, Point::new(0.0, 2.5)); // exactly on the radius
        idx.insert(3u32, Point::new(2.6, 0.0)); // just outside
        let mut items = visited(&idx, Point::ORIGIN, 2.5);
        items.sort_unstable();
        assert_eq!(
            items,
            vec![1, 2],
            "boundary points must be included, just-outside excluded"
        );
    }

    #[test]
    fn queries_on_and_outside_bbox_boundary_are_exact() {
        let mut idx = GridIndex::new(city(), 1.0);
        // Corner of the 20 km box centred on the origin.
        let corner = Point::new(10.0, 10.0);
        idx.insert(1u32, Point::new(9.0, 9.0));
        idx.insert(2u32, Point::new(-9.0, -9.0));
        // Query exactly on the boundary corner.
        let n = idx.nearest(corner).unwrap();
        assert_eq!(n.item, 1);
        // Query far outside: clamping only shrinks per-axis offsets for
        // stored (in-box) points, so ring lower bounds stay valid and the
        // true distances are still measured from the raw query point.
        let outside = Point::new(50.0, 50.0);
        let n = idx.nearest(outside).unwrap();
        assert_eq!(n.item, 1);
        assert!((n.distance - outside.euclidean(Point::new(9.0, 9.0))).abs() < 1e-12);
        assert_eq!(visited(&idx, outside, 60.0), vec![1]);
        assert_eq!(visited(&idx, outside, 100.0).len(), 2);
    }

    #[test]
    fn k_nearest_breaks_ties_by_discovery_order() {
        // Four items equidistant from the query, all in one cell: ties
        // must resolve to insertion order, every time.
        let mut idx = GridIndex::new(city(), 40.0);
        idx.insert(10u32, Point::new(1.0, 0.0));
        idx.insert(11u32, Point::new(-1.0, 0.0));
        idx.insert(12u32, Point::new(0.0, 1.0));
        idx.insert(13u32, Point::new(0.0, -1.0));
        for _ in 0..3 {
            let got = idx.k_nearest(Point::ORIGIN, 2);
            assert_eq!(got.iter().map(|n| n.item).collect::<Vec<_>>(), vec![10, 11]);
            let all = idx.k_nearest(Point::ORIGIN, 4);
            assert_eq!(
                all.iter().map(|n| n.item).collect::<Vec<_>>(),
                vec![10, 11, 12, 13]
            );
        }
    }

    #[test]
    fn within_infinite_radius_returns_everything() {
        // Regression: `(radius / cell_size).ceil() as usize + 1` used to
        // overflow for radius = +inf (saturating cast to usize::MAX).
        let mut idx = GridIndex::new(city(), 1.0);
        for i in 0..7 {
            idx.insert(i, Point::new(i as f64 - 3.0, 2.0));
        }
        assert_eq!(visited(&idx, Point::ORIGIN, f64::INFINITY).len(), 7);
        assert!(visited(&idx, Point::ORIGIN, f64::NAN).is_empty());
        assert!(visited(&idx, Point::ORIGIN, -1.0).is_empty());
        assert_eq!(visited(&idx, Point::ORIGIN, f64::MAX).len(), 7);
    }

    #[test]
    fn bulk_build_matches_incremental_inserts() {
        let pts: Vec<(u32, Point)> = (0..50)
            .map(|i| {
                (
                    i,
                    Point::new((i as f64 * 7.3) % 19.0 - 9.5, (i as f64 * 3.1) % 18.0 - 9.0),
                )
            })
            .collect();
        let bulk = GridIndex::bulk_build(city(), 1.5, pts.clone());
        let mut incr = GridIndex::new(city(), 1.5);
        for (i, p) in pts {
            incr.insert(i, p);
        }
        assert_eq!(bulk.len(), incr.len());
        let q = Point::new(0.3, -0.7);
        for radius in [0.5, 2.0, 7.0, f64::INFINITY] {
            assert_eq!(
                visited(&bulk, q, radius),
                visited(&incr, q, radius),
                "radius = {radius}"
            );
        }
        assert_eq!(
            bulk.k_nearest(q, 9)
                .iter()
                .map(|n| n.item)
                .collect::<Vec<_>>(),
            incr.k_nearest(q, 9)
                .iter()
                .map(|n| n.item)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn remove_preserves_cell_order_for_ties() {
        // Four equidistant items in one cell; removing the second must
        // leave the others tie-breaking as if it was never there.
        let mut idx = GridIndex::new(city(), 40.0);
        idx.insert(10u32, Point::new(1.0, 0.0));
        idx.insert(11u32, Point::new(-1.0, 0.0));
        idx.insert(12u32, Point::new(0.0, 1.0));
        idx.insert(13u32, Point::new(0.0, -1.0));
        assert!(idx.remove(&11, Point::new(-1.0, 0.0)));
        let got: Vec<u32> = idx
            .k_nearest(Point::ORIGIN, 3)
            .iter()
            .map(|n| n.item)
            .collect();
        assert_eq!(got, vec![10, 12, 13]);
        let mut fresh = GridIndex::new(city(), 40.0);
        fresh.insert(10u32, Point::new(1.0, 0.0));
        fresh.insert(12u32, Point::new(0.0, 1.0));
        fresh.insert(13u32, Point::new(0.0, -1.0));
        assert_eq!(idx, fresh);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The grid's nearest always matches a brute-force scan.
        #[test]
        fn nearest_matches_brute_force(
            pts in proptest::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 1..60),
            qx in -12.0..12.0f64, qy in -12.0..12.0f64,
        ) {
            let mut idx = GridIndex::new(city(), 1.5);
            for (i, &(x, y)) in pts.iter().enumerate() {
                idx.insert(i, Point::new(x, y));
            }
            let q = Point::new(qx, qy);
            let got = idx.nearest(q).unwrap();
            let best = pts
                .iter()
                .map(|&(x, y)| Point::new(x, y).euclidean(q))
                .fold(f64::INFINITY, f64::min);
            prop_assert!((got.distance - best).abs() < 1e-9);
        }

        /// `k_nearest` returns exactly the k brute-force-closest distances.
        #[test]
        fn k_nearest_matches_brute_force(
            pts in proptest::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 1..40),
            k in 1usize..8,
        ) {
            let mut idx = GridIndex::new(city(), 2.0);
            for (i, &(x, y)) in pts.iter().enumerate() {
                idx.insert(i, Point::new(x, y));
            }
            let q = Point::new(0.0, 0.0);
            let got: Vec<f64> = idx.k_nearest(q, k).iter().map(|n| n.distance).collect();
            let mut brute: Vec<f64> = pts
                .iter()
                .map(|&(x, y)| Point::new(x, y).euclidean(q))
                .collect();
            brute.sort_by(|a, b| a.partial_cmp(b).unwrap());
            brute.truncate(k);
            prop_assert_eq!(got.len(), brute.len());
            for (g, b) in got.iter().zip(brute.iter()) {
                prop_assert!((g - b).abs() < 1e-9);
            }
        }

        /// `visit_within` finds exactly the brute-force in-radius set, in
        /// any order: for queries and stored points inside and outside the
        /// bbox, radii ending exactly on a cell edge, huge and infinite
        /// radii, and a zero-width bbox.
        #[test]
        fn within_matches_brute_force(
            pts in proptest::collection::vec((-14.0..14.0f64, -14.0..14.0f64), 0..40),
            qx in -16.0..16.0f64, qy in -16.0..16.0f64,
            radius in 0.0..15.0f64,
            edge in 0i32..21, kind in 0usize..7, zero_width in any::<bool>(),
        ) {
            let bbox = if zero_width {
                BBox::new(Point::new(0.0, -10.0), Point::new(0.0, 10.0))
            } else {
                city()
            };
            let mut idx = GridIndex::new(bbox, 1.0);
            for (i, &(x, y)) in pts.iter().enumerate() {
                idx.insert(i, Point::new(x, y));
            }
            let q = Point::new(qx, qy);
            // A grid line's offset from the query along one axis is a
            // radius that ends exactly on a cell edge.
            let line = bbox.min() + Point::new(f64::from(edge), f64::from(edge));
            let radius = match kind {
                0 | 1 => radius,
                2 => (q.x - line.x).abs(),
                3 => (q.y - line.y).abs(),
                4 => 1e300,
                5 => f64::MAX,
                _ => f64::INFINITY,
            };
            let mut got = visited(&idx, q, radius);
            got.sort_unstable();
            let expect: Vec<usize> = (0..pts.len())
                .filter(|&i| Point::new(pts[i].0, pts[i].1).euclidean(q) <= radius)
                .collect();
            prop_assert_eq!(got, expect, "radius {}", radius);
        }
    }
}
