//! Maximum set packing — the first stage of the paper's Algorithm 3.
//!
//! Given feasible sharing groups `C = {c_k}` over the requests, Algorithm 3
//! "maximally packs passenger requests to feasible subsets": choose as many
//! pairwise-disjoint `c_k` as possible (Eqs. 1–3, the Maximum Set Packing
//! Problem). The paper uses an approximation with ratio `(max_k |c_k|+2)/3`
//! \[21\]; with the practical bound `|c_k| ≤ 3` that is 5/3.
//!
//! This module provides three interchangeable solvers:
//!
//! * [`SetPackingStrategy::Greedy`] — maximal greedy packing (smallest sets
//!   first),
//! * [`SetPackingStrategy::LocalSearch`] — greedy followed by
//!   Hurkens–Schrijver-style `(1 → 2)` swap improvements until a local
//!   optimum, attaining the paper's quality target in practice,
//! * [`SetPackingStrategy::Exact`] — branch-and-bound, exponential, for
//!   small instances, tests and the packing-quality ablation.

use std::fmt;

/// Which algorithm [`SetPacking::pack`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SetPackingStrategy {
    /// Maximal greedy packing, smallest sets first. `O(Σ|c_k| log)`.
    Greedy,
    /// Greedy plus `(1 → 2)` local-search swaps — the paper's choice.
    #[default]
    LocalSearch,
    /// Exact branch-and-bound (exponential; use only for small instances).
    Exact,
}

/// Errors from constructing a [`SetPacking`] instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetPackingError {
    /// A set referenced an item `>= n_items`.
    ItemOutOfRange {
        /// Index of the offending set.
        set: usize,
        /// The out-of-range item.
        item: usize,
    },
    /// A set contained the same item twice.
    DuplicateItem {
        /// Index of the offending set.
        set: usize,
        /// The repeated item.
        item: usize,
    },
    /// A set was empty (an empty set packs trivially and is almost always
    /// a caller bug).
    EmptySet {
        /// Index of the offending set.
        set: usize,
    },
}

impl fmt::Display for SetPackingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetPackingError::ItemOutOfRange { set, item } => {
                write!(f, "set {set} contains out-of-range item {item}")
            }
            SetPackingError::DuplicateItem { set, item } => {
                write!(f, "set {set} contains item {item} twice")
            }
            SetPackingError::EmptySet { set } => write!(f, "set {set} is empty"),
        }
    }
}

impl std::error::Error for SetPackingError {}

/// A maximum-set-packing instance over items `0..n_items`.
///
/// # Examples
///
/// ```
/// use o2o_matching::{SetPacking, SetPackingStrategy};
///
/// // Items 0..4; sets {0,1}, {1,2}, {2,3}.
/// let inst = SetPacking::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3]])?;
/// let chosen = inst.pack(SetPackingStrategy::Exact);
/// assert_eq!(chosen.len(), 2); // {0,1} and {2,3}
/// # Ok::<(), o2o_matching::set_packing::SetPackingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetPacking {
    n_items: usize,
    sets: Vec<Vec<usize>>,
    /// The sets containing item `i`, ascending, are
    /// `by_item[item_start[i]..item_start[i + 1]]`.
    item_start: Vec<usize>,
    by_item: Vec<usize>,
}

impl SetPacking {
    /// Builds an instance, validating the sets and indexing them by item.
    ///
    /// # Errors
    ///
    /// Returns [`SetPackingError`] for out-of-range items, duplicate items
    /// within a set, or empty sets.
    pub fn new(n_items: usize, sets: Vec<Vec<usize>>) -> Result<Self, SetPackingError> {
        // `stamp[item] == k` once set `k` has listed `item`; afterwards the
        // buffer is each item's fill cursor into `by_item`.
        let mut stamp = vec![usize::MAX; n_items];
        let mut item_start = vec![0usize; n_items + 1];
        for (k, set) in sets.iter().enumerate() {
            if set.is_empty() {
                return Err(SetPackingError::EmptySet { set: k });
            }
            for &item in set {
                if item >= n_items {
                    return Err(SetPackingError::ItemOutOfRange { set: k, item });
                }
                if stamp[item] == k {
                    return Err(SetPackingError::DuplicateItem { set: k, item });
                }
                stamp[item] = k;
                item_start[item + 1] += 1;
            }
        }
        for i in 0..n_items {
            item_start[i + 1] += item_start[i];
        }
        stamp.copy_from_slice(&item_start[..n_items]);
        let mut by_item = vec![0; item_start[n_items]];
        for (k, set) in sets.iter().enumerate() {
            for &item in set {
                by_item[stamp[item]] = k;
                stamp[item] += 1;
            }
        }
        Ok(SetPacking {
            n_items,
            sets,
            item_start,
            by_item,
        })
    }

    /// Number of items in the universe.
    #[must_use]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of candidate sets.
    #[must_use]
    pub fn n_sets(&self) -> usize {
        self.sets.len()
    }

    /// The items of set `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn set(&self, k: usize) -> &[usize] {
        &self.sets[k]
    }

    /// Packs disjoint sets with the requested strategy, returning the
    /// chosen set indices in ascending order.
    ///
    /// The result is always a valid packing (pairwise disjoint) and always
    /// *maximal* (no further set can be added).
    #[must_use]
    pub fn pack(&self, strategy: SetPackingStrategy) -> Vec<usize> {
        match strategy {
            SetPackingStrategy::Greedy => self.greedy(),
            SetPackingStrategy::LocalSearch => self.local_search(self.greedy()),
            SetPackingStrategy::Exact => self.exact(),
        }
    }

    /// Checks that `chosen` is a valid packing (indices in range, pairwise
    /// disjoint).
    #[must_use]
    pub fn is_valid_packing(&self, chosen: &[usize]) -> bool {
        let mut used = vec![false; self.n_items];
        for &k in chosen {
            if k >= self.sets.len() {
                return false;
            }
            for &item in &self.sets[k] {
                if used[item] {
                    return false;
                }
                used[item] = true;
            }
        }
        true
    }

    /// Packs disjoint sets maximising **total weight** instead of count,
    /// with the same greedy + `(1 → 2)` local-search machinery. Weights
    /// must be non-negative; `weights.len()` must equal
    /// [`SetPacking::n_sets`].
    ///
    /// Algorithm 3's default objective (the paper's Eq. 1) is the
    /// unweighted count; weighting each group by its size switches the
    /// objective to *covered requests* — the count-vs-coverage ablation.
    ///
    /// # Panics
    ///
    /// Panics if `weights` has the wrong length or contains a negative or
    /// non-finite weight.
    #[must_use]
    pub fn pack_weighted(&self, strategy: SetPackingStrategy, weights: &[f64]) -> Vec<usize> {
        assert_eq!(weights.len(), self.sets.len(), "one weight per set");
        for (k, &w) in weights.iter().enumerate() {
            assert!(w.is_finite() && w >= 0.0, "set {k} has invalid weight {w}");
        }
        match strategy {
            SetPackingStrategy::Greedy => self.greedy_weighted(weights),
            SetPackingStrategy::LocalSearch => {
                self.local_search_weighted(self.greedy_weighted(weights), weights)
            }
            SetPackingStrategy::Exact => self.exact_weighted(weights),
        }
    }

    /// Total weight of a packing under `weights`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or `weights` has the wrong
    /// length.
    #[must_use]
    pub fn packing_weight(&self, chosen: &[usize], weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.sets.len(), "one weight per set");
        chosen.iter().map(|&k| weights[k]).sum()
    }

    fn greedy_weighted(&self, weights: &[f64]) -> Vec<usize> {
        // Highest weight per blocked item first — the natural greedy for
        // weighted packing.
        let mut order: Vec<usize> = (0..self.sets.len()).collect();
        order.sort_by(|&a, &b| {
            let da = weights[a] / self.sets[a].len() as f64;
            let db = weights[b] / self.sets[b].len() as f64;
            db.partial_cmp(&da)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut used = vec![false; self.n_items];
        let mut chosen = Vec::new();
        for k in order {
            if self.sets[k].iter().all(|&item| !used[item]) {
                for &item in &self.sets[k] {
                    used[item] = true;
                }
                chosen.push(k);
            }
        }
        chosen.sort_unstable();
        chosen
    }

    fn local_search_weighted(&self, start: Vec<usize>, weights: &[f64]) -> Vec<usize> {
        let mut in_pack = vec![false; self.sets.len()];
        for &k in &start {
            in_pack[k] = true;
        }
        let mut item_owner: Vec<Option<usize>> = vec![None; self.n_items];
        for &k in &start {
            for &item in &self.sets[k] {
                item_owner[item] = Some(k);
            }
        }
        let mut partners = Vec::new();
        loop {
            let mut improved = false;
            // (0 → 1): add any conflict-free set with positive weight.
            for k in 0..self.sets.len() {
                if !in_pack[k]
                    && weights[k] > 0.0
                    && self.sets[k].iter().all(|&i| item_owner[i].is_none())
                {
                    in_pack[k] = true;
                    for &i in &self.sets[k] {
                        item_owner[i] = Some(k);
                    }
                    improved = true;
                }
            }
            // (1 → 1) and (1 → 2): replace one chosen set when the
            // replacement weighs more.
            'outer: for a in 0..self.sets.len() {
                if in_pack[a] {
                    continue;
                }
                let blockers_a = self.blockers(a, &item_owner);
                let w = match blockers_a.as_slice() {
                    [w] => *w,
                    _ => continue,
                };
                // (1 → 1)
                if weights[a] > weights[w] + 1e-12 {
                    in_pack[w] = false;
                    for &i in &self.sets[w] {
                        item_owner[i] = None;
                    }
                    in_pack[a] = true;
                    for &i in &self.sets[a] {
                        item_owner[i] = Some(a);
                    }
                    improved = true;
                    break 'outer;
                }
                // (1 → 2)
                self.conflicts(w, &mut partners);
                for &b in &partners {
                    if in_pack[b] || b == a || self.sets_conflict(a, b) {
                        continue;
                    }
                    let blockers_b = self.blockers(b, &item_owner);
                    if blockers_b.iter().all(|&x| x == w)
                        && weights[a] + weights[b] > weights[w] + 1e-12
                    {
                        in_pack[w] = false;
                        for &i in &self.sets[w] {
                            item_owner[i] = None;
                        }
                        for s in [a, b] {
                            in_pack[s] = true;
                            for &i in &self.sets[s] {
                                item_owner[i] = Some(s);
                            }
                        }
                        improved = true;
                        break 'outer;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        let mut chosen: Vec<usize> = (0..self.sets.len()).filter(|&k| in_pack[k]).collect();
        chosen.sort_unstable();
        chosen
    }

    fn exact_weighted(&self, weights: &[f64]) -> Vec<usize> {
        fn rec(
            inst: &SetPacking,
            weights: &[f64],
            k: usize,
            current: &mut Vec<usize>,
            current_w: f64,
            used: &mut Vec<bool>,
            best: &mut (Vec<usize>, f64),
        ) {
            // Upper bound: everything remaining is takeable.
            let remaining: f64 = (k..inst.sets.len()).map(|i| weights[i]).sum();
            if current_w + remaining <= best.1 {
                return;
            }
            if k == inst.sets.len() {
                if current_w > best.1 {
                    *best = (current.clone(), current_w);
                }
                return;
            }
            if inst.sets[k].iter().all(|&i| !used[i]) {
                for &i in &inst.sets[k] {
                    used[i] = true;
                }
                current.push(k);
                rec(
                    inst,
                    weights,
                    k + 1,
                    current,
                    current_w + weights[k],
                    used,
                    best,
                );
                current.pop();
                for &i in &inst.sets[k] {
                    used[i] = false;
                }
            }
            rec(inst, weights, k + 1, current, current_w, used, best);
        }
        let mut best = (Vec::new(), 0.0);
        let mut current = Vec::new();
        let mut used = vec![false; self.n_items];
        rec(self, weights, 0, &mut current, 0.0, &mut used, &mut best);
        let mut out = best.0;
        out.sort_unstable();
        out
    }

    fn greedy(&self) -> Vec<usize> {
        // Smallest sets first: each chosen set blocks the fewest items.
        let mut order: Vec<usize> = (0..self.sets.len()).collect();
        order.sort_by_key(|&k| (self.sets[k].len(), k));
        let mut used = vec![false; self.n_items];
        let mut chosen = Vec::new();
        for k in order {
            if self.sets[k].iter().all(|&item| !used[item]) {
                for &item in &self.sets[k] {
                    used[item] = true;
                }
                chosen.push(k);
            }
        }
        chosen.sort_unstable();
        chosen
    }

    fn local_search(&self, start: Vec<usize>) -> Vec<usize> {
        let mut in_pack = vec![false; self.sets.len()];
        for &k in &start {
            in_pack[k] = true;
        }
        let mut item_owner: Vec<Option<usize>> = vec![None; self.n_items];
        for &k in &start {
            for &item in &self.sets[k] {
                item_owner[item] = Some(k);
            }
        }
        // Repeat until no improving move. Moves:
        //  (0 → 1) add any conflict-free set (keeps the packing maximal);
        //  (1 → 2) remove one chosen set to admit two new disjoint sets.
        let mut partners = Vec::new();
        loop {
            let mut improved = false;
            // (0 → 1)
            for (k, chosen) in in_pack.iter_mut().enumerate() {
                if !*chosen && self.sets[k].iter().all(|&i| item_owner[i].is_none()) {
                    *chosen = true;
                    for &i in &self.sets[k] {
                        item_owner[i] = Some(k);
                    }
                    improved = true;
                }
            }
            // (1 → 2): for every unchosen set a blocked by exactly one
            // chosen set w, look for an unchosen set b disjoint from a that
            // is blocked only by w (or nothing).
            'outer: for a in 0..self.sets.len() {
                if in_pack[a] {
                    continue;
                }
                let blockers_a = self.blockers(a, &item_owner);
                let w = match blockers_a.as_slice() {
                    [w] => *w,
                    _ => continue,
                };
                self.conflicts(w, &mut partners);
                for &b in &partners {
                    if in_pack[b] || b == a || self.sets_conflict(a, b) {
                        continue;
                    }
                    let blockers_b = self.blockers(b, &item_owner);
                    if blockers_b.iter().all(|&x| x == w) {
                        // Swap: remove w, add a and b.
                        in_pack[w] = false;
                        for &i in &self.sets[w] {
                            item_owner[i] = None;
                        }
                        for (s, owner) in [(a, Some(a)), (b, Some(b))] {
                            in_pack[s] = true;
                            for &i in &self.sets[s] {
                                item_owner[i] = owner;
                            }
                        }
                        improved = true;
                        break 'outer;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        let mut chosen: Vec<usize> = (0..self.sets.len()).filter(|&k| in_pack[k]).collect();
        chosen.sort_unstable();
        chosen
    }

    /// Chosen sets currently blocking set `k`, deduplicated.
    fn blockers(&self, k: usize, item_owner: &[Option<usize>]) -> Vec<usize> {
        let mut out: Vec<usize> = self.sets[k].iter().filter_map(|&i| item_owner[i]).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Candidate partners for a `(1 → 2)` swap that removes blocker `w`,
    /// written to `out`: the other sets sharing an item with `w`,
    /// ascending and without repeats.
    ///
    /// This is exhaustive, not a heuristic. When the swap is examined, the
    /// `(0 → 1)` phase has just run, so every unchosen set has at least one
    /// blocker (in the weighted search, positive-weight sets do; a
    /// zero-blocker partner with weight ≤ 0 can never make the swap
    /// improving once `(1 → 1)` has been ruled out). A partner `b` must
    /// have blockers ⊆ `{w}`, hence exactly `{w}` — so `b` shares an item
    /// with `w`. The list is sorted ascending, the same order as a
    /// `0..n_sets` scan, so the first qualifying `b` — and therefore the
    /// whole search trajectory — is the scan's. It is built only when a
    /// swap asks for it: most sets never become a lone blocker.
    fn conflicts(&self, w: usize, out: &mut Vec<usize>) {
        out.clear();
        for &item in &self.sets[w] {
            let with_item = &self.by_item[self.item_start[item]..self.item_start[item + 1]];
            out.extend(with_item.iter().filter(|&&k| k != w));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Whether sets `a` and `b` share an item.
    fn sets_conflict(&self, a: usize, b: usize) -> bool {
        self.sets[a].iter().any(|item| self.sets[b].contains(item))
    }

    fn exact(&self) -> Vec<usize> {
        let mut best = Vec::new();
        let mut current = Vec::new();
        let mut used = vec![false; self.n_items];
        self.exact_rec(0, &mut current, &mut used, &mut best);
        best.sort_unstable();
        best
    }

    fn exact_rec(
        &self,
        k: usize,
        current: &mut Vec<usize>,
        used: &mut Vec<bool>,
        best: &mut Vec<usize>,
    ) {
        if current.len() + (self.sets.len() - k) <= best.len() {
            return; // even taking every remaining set cannot win
        }
        if k == self.sets.len() {
            if current.len() > best.len() {
                *best = current.clone();
            }
            return;
        }
        // Branch 1: take set k if disjoint.
        if self.sets[k].iter().all(|&i| !used[i]) {
            for &i in &self.sets[k] {
                used[i] = true;
            }
            current.push(k);
            self.exact_rec(k + 1, current, used, best);
            current.pop();
            for &i in &self.sets[k] {
                used[i] = false;
            }
        }
        // Branch 2: skip set k.
        self.exact_rec(k + 1, current, used, best);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn chain_instance_exact() {
        let inst = SetPacking::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3]]).unwrap();
        let exact = inst.pack(SetPackingStrategy::Exact);
        assert_eq!(exact, vec![0, 2]);
        assert!(inst.is_valid_packing(&exact));
    }

    #[test]
    fn greedy_is_maximal() {
        let inst = SetPacking::new(
            6,
            vec![vec![0, 1, 2], vec![3, 4, 5], vec![2, 3], vec![0, 5]],
        )
        .unwrap();
        let g = inst.pack(SetPackingStrategy::Greedy);
        assert!(inst.is_valid_packing(&g));
        // Maximality: no unchosen set is disjoint from the packing.
        let mut used = [false; 6];
        for &k in &g {
            for &i in inst.set(k) {
                used[i] = true;
            }
        }
        for k in 0..inst.n_sets() {
            if !g.contains(&k) {
                assert!(inst.set(k).iter().any(|&i| used[i]), "set {k} addable");
            }
        }
    }

    #[test]
    fn local_search_beats_bad_greedy() {
        // Greedy (smallest-first, then index) takes {1,2} first and blocks
        // both {0,1} and {2,3}; local search should recover the 2-packing.
        let inst = SetPacking::new(4, vec![vec![1, 2], vec![0, 1], vec![2, 3]]).unwrap();
        let greedy = inst.pack(SetPackingStrategy::Greedy);
        assert_eq!(greedy.len(), 1);
        let ls = inst.pack(SetPackingStrategy::LocalSearch);
        assert_eq!(ls.len(), 2);
        assert!(inst.is_valid_packing(&ls));
    }

    /// The conflict graph `SetPacking::new` used to precompute for every
    /// set: the other sets sharing an item with it, ascending.
    fn reference_conflict_graph(inst: &SetPacking) -> Vec<Vec<usize>> {
        let mut by_item: Vec<Vec<usize>> = vec![Vec::new(); inst.n_items];
        for (k, set) in inst.sets.iter().enumerate() {
            for &item in set {
                by_item[item].push(k);
            }
        }
        inst.sets
            .iter()
            .enumerate()
            .map(|(k, set)| {
                let mut cs: Vec<usize> = set
                    .iter()
                    .flat_map(|&item| by_item[item].iter().copied())
                    .filter(|&other| other != k)
                    .collect();
                cs.sort_unstable();
                cs.dedup();
                cs
            })
            .collect()
    }

    /// The `(1 → 2)` local search over a precomputed conflict `graph`,
    /// trying as swap partners for blocker `w` the sets `partners(w)`:
    /// `graph[w]`, as before conflicts were found on demand, or every set.
    /// Kept as the oracle for `restricted_candidate_scan_matches_full_scan`.
    fn reference_local_search(
        inst: &SetPacking,
        graph: &[Vec<usize>],
        partners: impl Fn(usize) -> Vec<usize>,
        start: Vec<usize>,
    ) -> Vec<usize> {
        let mut in_pack = vec![false; inst.sets.len()];
        for &k in &start {
            in_pack[k] = true;
        }
        let mut item_owner: Vec<Option<usize>> = vec![None; inst.n_items];
        for &k in &start {
            for &item in &inst.sets[k] {
                item_owner[item] = Some(k);
            }
        }
        loop {
            let mut improved = false;
            for (k, chosen) in in_pack.iter_mut().enumerate() {
                if !*chosen && inst.sets[k].iter().all(|&i| item_owner[i].is_none()) {
                    *chosen = true;
                    for &i in &inst.sets[k] {
                        item_owner[i] = Some(k);
                    }
                    improved = true;
                }
            }
            'outer: for a in 0..inst.sets.len() {
                if in_pack[a] {
                    continue;
                }
                let blockers_a = inst.blockers(a, &item_owner);
                let w = match blockers_a.as_slice() {
                    [w] => *w,
                    _ => continue,
                };
                for b in partners(w) {
                    if in_pack[b] || b == a || graph[a].binary_search(&b).is_ok() {
                        continue;
                    }
                    let blockers_b = inst.blockers(b, &item_owner);
                    if blockers_b.iter().all(|&x| x == w) {
                        in_pack[w] = false;
                        for &i in &inst.sets[w] {
                            item_owner[i] = None;
                        }
                        for (s, owner) in [(a, Some(a)), (b, Some(b))] {
                            in_pack[s] = true;
                            for &i in &inst.sets[s] {
                                item_owner[i] = owner;
                            }
                        }
                        improved = true;
                        break 'outer;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        let mut chosen: Vec<usize> = (0..inst.sets.len()).filter(|&k| in_pack[k]).collect();
        chosen.sort_unstable();
        chosen
    }

    /// Weighted counterpart of [`reference_local_search`].
    fn reference_local_search_weighted(
        inst: &SetPacking,
        graph: &[Vec<usize>],
        partners: impl Fn(usize) -> Vec<usize>,
        start: Vec<usize>,
        weights: &[f64],
    ) -> Vec<usize> {
        let mut in_pack = vec![false; inst.sets.len()];
        for &k in &start {
            in_pack[k] = true;
        }
        let mut item_owner: Vec<Option<usize>> = vec![None; inst.n_items];
        for &k in &start {
            for &item in &inst.sets[k] {
                item_owner[item] = Some(k);
            }
        }
        loop {
            let mut improved = false;
            for k in 0..inst.sets.len() {
                if !in_pack[k]
                    && weights[k] > 0.0
                    && inst.sets[k].iter().all(|&i| item_owner[i].is_none())
                {
                    in_pack[k] = true;
                    for &i in &inst.sets[k] {
                        item_owner[i] = Some(k);
                    }
                    improved = true;
                }
            }
            'outer: for a in 0..inst.sets.len() {
                if in_pack[a] {
                    continue;
                }
                let blockers_a = inst.blockers(a, &item_owner);
                let w = match blockers_a.as_slice() {
                    [w] => *w,
                    _ => continue,
                };
                if weights[a] > weights[w] + 1e-12 {
                    in_pack[w] = false;
                    for &i in &inst.sets[w] {
                        item_owner[i] = None;
                    }
                    in_pack[a] = true;
                    for &i in &inst.sets[a] {
                        item_owner[i] = Some(a);
                    }
                    improved = true;
                    break 'outer;
                }
                for b in partners(w) {
                    if in_pack[b] || b == a || graph[a].binary_search(&b).is_ok() {
                        continue;
                    }
                    let blockers_b = inst.blockers(b, &item_owner);
                    if blockers_b.iter().all(|&x| x == w)
                        && weights[a] + weights[b] > weights[w] + 1e-12
                    {
                        in_pack[w] = false;
                        for &i in &inst.sets[w] {
                            item_owner[i] = None;
                        }
                        for s in [a, b] {
                            in_pack[s] = true;
                            for &i in &inst.sets[s] {
                                item_owner[i] = Some(s);
                            }
                        }
                        improved = true;
                        break 'outer;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        let mut chosen: Vec<usize> = (0..inst.sets.len()).filter(|&k| in_pack[k]).collect();
        chosen.sort_unstable();
        chosen
    }

    /// Random instances of one to three items per set, items shared
    /// between sets often.
    fn random_sets(rng: &mut StdRng) -> SetPacking {
        let n_items = rng.gen_range(1..=14);
        let n_sets = rng.gen_range(0..=16);
        let sets: Vec<Vec<usize>> = (0..n_sets)
            .map(|_| {
                let size = rng.gen_range(1..=3.min(n_items));
                let mut items: Vec<usize> = (0..n_items).collect();
                for i in (1..items.len()).rev() {
                    items.swap(i, rng.gen_range(0..=i));
                }
                items.truncate(size);
                items
            })
            .collect();
        SetPacking::new(n_items, sets).unwrap()
    }

    #[test]
    fn restricted_candidate_scan_matches_full_scan() {
        // The on-demand conflict scan must retrace the search over the
        // precomputed conflict graph, and that one the full scan, exactly
        // — same packing, element for element — on both the unweighted
        // and the weighted local search, through `pack` as callers use it.
        let mut rng = StdRng::seed_from_u64(0xCAFE5E7);
        for case in 0..300 {
            let inst = random_sets(&mut rng);
            let graph = reference_conflict_graph(&inst);
            let neighbours = |w: usize| graph[w].clone();
            let every = |_| (0..inst.n_sets()).collect();
            let start = inst.greedy();
            let got = inst.pack(SetPackingStrategy::LocalSearch);
            assert_eq!(
                got,
                reference_local_search(&inst, &graph, neighbours, start.clone()),
                "case {case}: unweighted results diverged from the conflict graph"
            );
            assert_eq!(
                got,
                reference_local_search(&inst, &graph, every, start),
                "case {case}: unweighted results diverged from the full scan"
            );
            let weights: Vec<f64> = (0..inst.n_sets())
                .map(|_| rng.gen_range(-1.0..4.0f64))
                .collect();
            let start = inst.greedy_weighted(&weights);
            let got = inst.local_search_weighted(start.clone(), &weights);
            assert_eq!(
                got,
                reference_local_search_weighted(&inst, &graph, neighbours, start.clone(), &weights),
                "case {case}: weighted results diverged from the conflict graph"
            );
            assert_eq!(
                got,
                reference_local_search_weighted(&inst, &graph, every, start, &weights),
                "case {case}: weighted results diverged from the full scan"
            );
        }
    }

    #[test]
    fn on_demand_conflicts_match_the_precomputed_graph() {
        let mut rng = StdRng::seed_from_u64(0x0C0F_11C7);
        let mut partners = Vec::new();
        for case in 0..300 {
            let inst = random_sets(&mut rng);
            let graph = reference_conflict_graph(&inst);
            for (w, expect) in graph.iter().enumerate() {
                inst.conflicts(w, &mut partners);
                assert_eq!(&partners, expect, "case {case}: conflicts of set {w}");
                for b in (0..inst.n_sets()).filter(|&b| b != w) {
                    assert_eq!(
                        inst.sets_conflict(w, b),
                        expect.binary_search(&b).is_ok(),
                        "case {case}: sets {w} and {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn an_item_shared_by_two_sets_is_not_a_duplicate() {
        let inst = SetPacking::new(3, vec![vec![0, 1], vec![1, 2], vec![2, 1]]).unwrap();
        let mut partners = Vec::new();
        inst.conflicts(0, &mut partners);
        assert_eq!(partners, vec![1, 2]);
        assert!(inst.sets_conflict(1, 2));
        assert_eq!(inst.pack(SetPackingStrategy::LocalSearch).len(), 1);
    }

    #[test]
    fn validation_errors_keep_their_precedence() {
        // Sets are checked in order; within a set, items in order, each
        // for its range before its repetition.
        let err = |n_items, sets: Vec<Vec<usize>>| SetPacking::new(n_items, sets).unwrap_err();
        assert_eq!(
            err(3, vec![vec![0, 0, 5]]),
            SetPackingError::DuplicateItem { set: 0, item: 0 }
        );
        assert_eq!(
            err(3, vec![vec![5, 0, 0]]),
            SetPackingError::ItemOutOfRange { set: 0, item: 5 }
        );
        assert_eq!(
            err(3, vec![vec![1], vec![], vec![9]]),
            SetPackingError::EmptySet { set: 1 }
        );
        assert_eq!(
            err(3, vec![vec![1, 2], vec![2, 1, 7], vec![]]),
            SetPackingError::ItemOutOfRange { set: 1, item: 7 }
        );
        assert_eq!(
            err(0, vec![vec![0]]),
            SetPackingError::ItemOutOfRange { set: 0, item: 0 }
        );
    }

    #[test]
    fn empty_universe_and_no_sets() {
        let inst = SetPacking::new(0, vec![]).unwrap();
        assert!(inst.pack(SetPackingStrategy::LocalSearch).is_empty());
        assert!(inst.pack(SetPackingStrategy::Exact).is_empty());
    }

    #[test]
    fn rejects_out_of_range() {
        let err = SetPacking::new(2, vec![vec![0, 2]]).unwrap_err();
        assert_eq!(err, SetPackingError::ItemOutOfRange { set: 0, item: 2 });
    }

    #[test]
    fn rejects_duplicates() {
        let err = SetPacking::new(2, vec![vec![1, 1]]).unwrap_err();
        assert_eq!(err, SetPackingError::DuplicateItem { set: 0, item: 1 });
    }

    #[test]
    fn rejects_empty_set() {
        let err = SetPacking::new(2, vec![vec![]]).unwrap_err();
        assert_eq!(err, SetPackingError::EmptySet { set: 0 });
    }

    #[test]
    fn is_valid_packing_rejects_overlap() {
        let inst = SetPacking::new(3, vec![vec![0, 1], vec![1, 2]]).unwrap();
        assert!(!inst.is_valid_packing(&[0, 1]));
        assert!(inst.is_valid_packing(&[0]));
        assert!(!inst.is_valid_packing(&[9]));
    }

    fn random_instance(rng: &mut StdRng, n_items: usize, n_sets: usize) -> SetPacking {
        let sets: Vec<Vec<usize>> = (0..n_sets)
            .map(|_| {
                let size = rng.gen_range(2..=3.min(n_items));
                let mut items: Vec<usize> = (0..n_items).collect();
                for i in (1..items.len()).rev() {
                    items.swap(i, rng.gen_range(0..=i));
                }
                items.truncate(size);
                items
            })
            .collect();
        SetPacking::new(n_items, sets).unwrap()
    }

    #[test]
    fn weighted_packing_prefers_heavy_sets() {
        // Count-optimal picks the two light pairs; weight-optimal picks
        // the single heavy triple.
        let inst = SetPacking::new(4, vec![vec![0, 1], vec![2, 3], vec![0, 1, 2]]).unwrap();
        let count = inst.pack(SetPackingStrategy::Exact);
        assert_eq!(count.len(), 2);
        let weights = [1.0, 1.0, 5.0];
        let heavy = inst.pack_weighted(SetPackingStrategy::Exact, &weights);
        assert_eq!(heavy, vec![2]);
        assert_eq!(inst.packing_weight(&heavy, &weights), 5.0);
    }

    #[test]
    fn size_weights_maximise_coverage() {
        // Items 0..=4: pairs {0,1} and a triple {1,2,3}. Count ties (one
        // set either way once {0,1} blocks the triple)… make coverage
        // differ: {0,1} vs {1,2,3} overlap at 1, so exactly one can be
        // chosen; coverage picks the triple.
        let inst = SetPacking::new(4, vec![vec![0, 1], vec![1, 2, 3]]).unwrap();
        let sizes: Vec<f64> = (0..inst.n_sets())
            .map(|k| inst.set(k).len() as f64)
            .collect();
        let cover = inst.pack_weighted(SetPackingStrategy::Exact, &sizes);
        assert_eq!(cover, vec![1]);
    }

    #[test]
    fn weighted_strategies_are_valid_and_ordered() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for _ in 0..120 {
            let n_items = rng.gen_range(4..9);
            let n_sets = rng.gen_range(0..10);
            let inst = random_instance(&mut rng, n_items, n_sets);
            let weights: Vec<f64> = (0..inst.n_sets())
                .map(|_| rng.gen_range(0.0..5.0))
                .collect();
            let g = inst.pack_weighted(SetPackingStrategy::Greedy, &weights);
            let ls = inst.pack_weighted(SetPackingStrategy::LocalSearch, &weights);
            let ex = inst.pack_weighted(SetPackingStrategy::Exact, &weights);
            assert!(inst.is_valid_packing(&g));
            assert!(inst.is_valid_packing(&ls));
            assert!(inst.is_valid_packing(&ex));
            let w = |c: &[usize]| inst.packing_weight(c, &weights);
            assert!(w(&g) <= w(&ls) + 1e-9);
            assert!(w(&ls) <= w(&ex) + 1e-9);
        }
    }

    #[test]
    fn unit_weights_recover_unweighted_count() {
        let mut rng = StdRng::seed_from_u64(0xF00D);
        for _ in 0..80 {
            let n_items = rng.gen_range(4..8);
            let n_sets = rng.gen_range(0..9);
            let inst = random_instance(&mut rng, n_items, n_sets);
            let ones = vec![1.0; inst.n_sets()];
            let a = inst.pack(SetPackingStrategy::Exact).len();
            let b = inst.pack_weighted(SetPackingStrategy::Exact, &ones).len();
            assert_eq!(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "one weight per set")]
    fn weighted_rejects_wrong_length() {
        let inst = SetPacking::new(2, vec![vec![0, 1]]).unwrap();
        let _ = inst.pack_weighted(SetPackingStrategy::Greedy, &[]);
    }

    #[test]
    fn local_search_within_paper_ratio_on_random_instances() {
        // With |c_k| ≤ 3 the paper's ratio is (3+2)/3 = 5/3.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let n_items = rng.gen_range(4..10);
            let n_sets = rng.gen_range(1..12);
            let inst = random_instance(&mut rng, n_items, n_sets);
            let exact = inst.pack(SetPackingStrategy::Exact).len() as f64;
            let ls = inst.pack(SetPackingStrategy::LocalSearch).len() as f64;
            assert!(
                exact <= ls * 5.0 / 3.0 + 1e-9,
                "ratio violated: exact {exact}, local search {ls}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// All strategies produce valid, maximal packings, ordered
        /// greedy ≤ local-search ≤ exact in cardinality.
        #[test]
        fn strategies_are_valid_and_ordered(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_items = rng.gen_range(4..9);
            let n_sets = rng.gen_range(0..10);
            let inst = random_instance(&mut rng, n_items, n_sets);
            let g = inst.pack(SetPackingStrategy::Greedy);
            let ls = inst.pack(SetPackingStrategy::LocalSearch);
            let ex = inst.pack(SetPackingStrategy::Exact);
            prop_assert!(inst.is_valid_packing(&g));
            prop_assert!(inst.is_valid_packing(&ls));
            prop_assert!(inst.is_valid_packing(&ex));
            prop_assert!(g.len() <= ls.len());
            prop_assert!(ls.len() <= ex.len());
        }
    }
}
