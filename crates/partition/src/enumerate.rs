//! Enumeration of TAM width partitions.
//!
//! The paper's `Increment` procedure (Figure 3) walks nested loop
//! variables `w_1 … w_{B-1}` with an upper bound on each variable that
//! suppresses most — the paper notes *not all* — repeated (permuted)
//! partitions; a cyclical-isomorphism filter would be exact but its
//! memory "grows exponentially with `B`". [`Partitions`] is the exact
//! canonical form of that idea: it enumerates each multiset exactly once
//! by keeping parts non-decreasing, with no memory of previous
//! partitions at all.
//!
//! [`Compositions`] enumerates *ordered* splits — what the nested loops
//! would visit with no bound — so that pruning level 1 can be checked:
//! the `compositions_cover_partitions` proptest sorts every composition
//! into exactly the partitions [`Partitions`] yields.

/// Iterator over the unique partitions of `total` into exactly `parts`
/// positive parts, each yielded as a non-decreasing `Vec<u32>`.
///
/// Yields nothing if `parts == 0` or `total < parts`.
///
/// # Example
///
/// ```
/// use tamopt_partition::enumerate::Partitions;
///
/// let all: Vec<Vec<u32>> = Partitions::new(6, 3).collect();
/// assert_eq!(all, vec![vec![1, 1, 4], vec![1, 2, 3], vec![2, 2, 2]]);
/// ```
#[derive(Debug, Clone)]
pub struct Partitions {
    /// The next partition to yield, advanced in place after each yield.
    current: Option<Vec<u32>>,
}

impl Partitions {
    /// Creates the iterator for `total` wires over `parts` TAMs.
    pub fn new(total: u32, parts: u32) -> Self {
        let current = if parts == 0 || total < parts {
            None
        } else {
            // First partition: 1, 1, …, 1, total - parts + 1.
            let mut first = vec![1u32; parts as usize];
            first[parts as usize - 1] = total - parts + 1;
            Some(first)
        };
        Partitions { current }
    }
}

impl Iterator for Partitions {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        let current = self.current.as_mut()?;
        // One exact-capacity copy per yielded partition; the successor
        // is computed in place.
        let yielded = current.clone();
        if !advance_partition(current) {
            self.current = None;
        }
        Some(yielded)
    }
}

/// Replaces the non-decreasing partition `a` by its lexicographic
/// successor with the same sum, in place and in `O(B)`; returns `false`
/// (leaving `a` unchanged) if `a` was the last one.
///
/// Scanning right to left with a running suffix sum `s = a[i] + … +
/// a[B-1]`, the rightmost position `i < B-1` whose increment still lets
/// the whole suffix sit at `≥ a[i] + 1` (`s ≥ (a[i] + 1)·(B - i)`) is
/// raised; positions `i..B-1` take the new value and the last part
/// absorbs the rest.
fn advance_partition(a: &mut [u32]) -> bool {
    let b = a.len();
    if b <= 1 {
        return false;
    }
    let mut suffix = a[b - 1];
    for i in (0..b - 1).rev() {
        suffix += a[i];
        let candidate = a[i] + 1;
        let suffix_len = (b - i) as u32;
        if suffix >= candidate * suffix_len {
            a[i..b - 1].fill(candidate);
            a[b - 1] = suffix - candidate * (suffix_len - 1);
            debug_assert!(a[b - 1] >= a[b - 2]);
            return true;
        }
    }
    false
}

/// Iterator over all ordered compositions of `total` into exactly
/// `parts` positive parts (the unpruned enumeration of the paper's
/// nested loops). Count: `C(total-1, parts-1)` — see
/// [`crate::count::compositions`].
///
/// # Example
///
/// ```
/// use tamopt_partition::enumerate::Compositions;
///
/// let all: Vec<Vec<u32>> = Compositions::new(4, 2).collect();
/// assert_eq!(all, vec![vec![1, 3], vec![2, 2], vec![3, 1]]);
/// ```
#[derive(Debug, Clone)]
pub struct Compositions {
    total: u32,
    current: Option<Vec<u32>>,
}

impl Compositions {
    /// Creates the iterator for `total` wires over `parts` ordered TAMs.
    pub fn new(total: u32, parts: u32) -> Self {
        let current = if parts == 0 || total < parts {
            None
        } else {
            let mut first = vec![1u32; parts as usize];
            first[parts as usize - 1] = total - parts + 1;
            Some(first)
        };
        Compositions { total, current }
    }
}

impl Iterator for Compositions {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        let current = self.current.take()?;
        self.current = next_composition(&current, self.total);
        Some(current)
    }
}

/// Odometer step over the first `parts - 1` positions; the last part
/// absorbs the remainder.
fn next_composition(a: &[u32], total: u32) -> Option<Vec<u32>> {
    let b = a.len();
    if b <= 1 {
        return None;
    }
    let mut next = a.to_vec();
    // Odometer over positions 0..b-1 (leftmost fastest): a failed
    // increment resets its digit to 1 and carries to the next position;
    // a successful one keeps all higher digits and recomputes the tail.
    for i in 0..b - 1 {
        next[i] += 1;
        let used: u32 = next[..b - 1].iter().sum();
        if used < total {
            next[b - 1] = total - used;
            return Some(next);
        }
        next[i] = 1;
    }
    None
}

/// Result of the paper's dismissed "enumeration-comparison" method:
/// enumerate *all* compositions, sort each, and drop the ones already
/// seen. Correct, but the set of seen partitions must be held in memory
/// and every composition compared against it — exactly the cost the
/// paper rejects ("the memory requirements … grow exponentially with
/// `B`").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DedupStats {
    /// The unique partitions, in first-seen order.
    pub partitions: Vec<Vec<u32>>,
    /// Compositions generated (= comparisons performed).
    pub compositions_visited: u64,
    /// Peak number of partitions held in the comparison set.
    pub memory_entries: usize,
}

/// Runs the enumeration-comparison method for `total` over `parts`.
/// Kept as a baseline to quantify why the canonical enumeration of
/// [`Partitions`] wins; the unit test
/// `dedup_work_explodes_relative_to_canonical` measures the gap.
///
/// # Example
///
/// ```
/// use tamopt_partition::enumerate::{unique_via_dedup, Partitions};
///
/// let dedup = unique_via_dedup(9, 3);
/// let canonical: Vec<Vec<u32>> = Partitions::new(9, 3).collect();
/// assert_eq!(dedup.partitions.len(), canonical.len());
/// // The dedup method did strictly more work:
/// assert!(dedup.compositions_visited > canonical.len() as u64);
/// ```
pub fn unique_via_dedup(total: u32, parts: u32) -> DedupStats {
    let mut seen = std::collections::HashSet::new();
    let mut partitions = Vec::new();
    let mut visited = 0u64;
    for mut c in Compositions::new(total, parts) {
        visited += 1;
        c.sort_unstable();
        if seen.insert(c.clone()) {
            partitions.push(c);
        }
    }
    let memory_entries = seen.len();
    DedupStats {
        partitions,
        compositions_visited: visited,
        memory_entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count;

    #[test]
    fn first_partitions_match_paper_shape() {
        // The paper (Section 3.1) enumerates, for W = 24 and B = 4,
        // (1,1,1,21), (1,1,2,20), (1,1,3,19) first.
        let mut it = Partitions::new(24, 4);
        assert_eq!(it.next(), Some(vec![1, 1, 1, 21]));
        assert_eq!(it.next(), Some(vec![1, 1, 2, 20]));
        assert_eq!(it.next(), Some(vec![1, 1, 3, 19]));
    }

    #[test]
    fn no_repeated_partitions() {
        // The paper's example: 1+3+1+19 (a permutation of 1+1+3+19) must
        // not appear.
        let all: Vec<Vec<u32>> = Partitions::new(24, 4).collect();
        for p in &all {
            assert!(p.windows(2).all(|w| w[0] <= w[1]), "{p:?} not canonical");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicates found");
    }

    #[test]
    fn counts_match_dp() {
        for (w, b) in [
            (6u32, 3u32),
            (10, 4),
            (24, 4),
            (64, 3),
            (20, 1),
            (20, 20),
            (30, 7),
        ] {
            let count = Partitions::new(w, b).count() as u64;
            assert_eq!(count, count::unique_partitions(w, b), "W={w} B={b}");
        }
    }

    #[test]
    fn every_partition_sums_and_is_positive() {
        for p in Partitions::new(30, 5) {
            assert_eq!(p.iter().sum::<u32>(), 30);
            assert!(p.iter().all(|&x| x >= 1));
            assert_eq!(p.len(), 5);
        }
    }

    #[test]
    fn empty_cases() {
        assert_eq!(Partitions::new(3, 5).count(), 0);
        assert_eq!(Partitions::new(5, 0).count(), 0);
        assert_eq!(Compositions::new(3, 5).count(), 0);
        assert_eq!(Compositions::new(5, 0).count(), 0);
    }

    #[test]
    fn single_part() {
        assert_eq!(Partitions::new(7, 1).collect::<Vec<_>>(), vec![vec![7]]);
        assert_eq!(Compositions::new(7, 1).collect::<Vec<_>>(), vec![vec![7]]);
    }

    #[test]
    fn compositions_count_matches_formula() {
        for (w, b) in [(5u32, 2u32), (6, 3), (10, 4), (12, 5)] {
            let count = Compositions::new(w, b).count() as u64;
            assert_eq!(count, count::compositions(w, b), "W={w} B={b}");
        }
    }

    #[test]
    fn compositions_cover_all_orderings() {
        let all: Vec<Vec<u32>> = Compositions::new(6, 3).collect();
        assert!(all.contains(&vec![1, 2, 3]));
        assert!(all.contains(&vec![3, 2, 1]));
        assert!(all.contains(&vec![2, 1, 3]));
        for c in &all {
            assert_eq!(c.iter().sum::<u32>(), 6);
            assert!(c.iter().all(|&x| x >= 1));
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    #[test]
    fn dedup_agrees_with_canonical_enumeration() {
        for (w, b) in [(9u32, 3u32), (14, 4), (20, 5)] {
            let dedup = unique_via_dedup(w, b);
            let mut canonical: Vec<Vec<u32>> = Partitions::new(w, b).collect();
            let mut got = dedup.partitions.clone();
            canonical.sort();
            got.sort();
            assert_eq!(got, canonical, "W={w} B={b}");
            assert_eq!(dedup.memory_entries as u64, count::unique_partitions(w, b));
            assert_eq!(dedup.compositions_visited, count::compositions(w, b));
        }
    }

    #[test]
    fn dedup_work_explodes_relative_to_canonical() {
        // W = 24, B = 5: C(23,4) = 8855 compositions vs p(24,5) = 164
        // partitions — a 54x comparison overhead, growing with B.
        let dedup = unique_via_dedup(24, 5);
        let unique = count::unique_partitions(24, 5);
        assert!(dedup.compositions_visited > 50 * unique);
    }

    #[test]
    fn every_composition_sorts_to_a_partition() {
        let partitions: std::collections::HashSet<Vec<u32>> = Partitions::new(9, 3).collect();
        for mut c in Compositions::new(9, 3) {
            c.sort_unstable();
            assert!(partitions.contains(&c), "{c:?} missing from partitions");
        }
    }
}
