//! Counting unique TAM width partitions.
//!
//! The number of ways to split a total width `W` over `B`
//! indistinguishable TAMs is the number of partitions of the integer `W`
//! into exactly `B` positive parts, `p(W, B)`. The paper estimates it
//! (citing van Lint & Wilson) as `V(W,B) ≈ W^(B-1) / (B!·(B-1)!)` for
//! `W ≫ B`, and derives the exact closed form for `B = 3`; its Table 1
//! compares this estimate against the number of partitions its heuristic
//! actually evaluates to completion.
//!
//! This module provides the exact count by dynamic programming
//! ([`unique_partitions`]) and the paper's estimate ([`estimate`]). The
//! same table addresses partitions by rank: `RankTable::walk` unranks
//! the first partition of each chunk and steps to the rest in place, for
//! the scan in [`crate::evaluate::partition_evaluate_top_k`] and the
//! exhaustive baseline in [`crate::exhaustive::solve_top_k`].

use std::ops::Range;

use crate::enumerate::advance_or_restart;
use crate::PartitionError;

/// Exact number of partitions of `total` into exactly `parts` positive
/// parts, by the recurrence `p(n, k) = p(n-1, k-1) + p(n-k, k)` (the
/// one [`RankTable`] holds), saturated at `u64::MAX`.
///
/// `p(0, 0) = 1`; `p(n, 0) = 0` for `n > 0`; `p(n, k) = 0` for `n < k`.
///
/// # Example
///
/// ```
/// use tamopt_partition::count::unique_partitions;
///
/// // Section 4.4 of the paper: "the 341 unique partitions for W = 64
/// // and B = 3".
/// assert_eq!(unique_partitions(64, 3), 341);
/// ```
pub fn unique_partitions(total: u32, parts: u32) -> u64 {
    if parts == 0 {
        return u64::from(total == 0);
    }
    RankTable::new(total, parts, parts).len()
}

/// Number of partitions of `total` into at most `parts` positive parts
/// (the architecture space of *P_NPAW* with `B ≤ parts`), saturated at
/// `u64::MAX`.
pub fn partitions_up_to(total: u32, parts: u32) -> u64 {
    RankTable::new(total, 1, parts).len()
}

/// The rank space of the partitions of `total` into `min_parts..=max_parts`
/// parts, in the scan's order: part counts ascending, and the partitions
/// of one count in lexicographic order of their non-decreasing parts
/// (the order [`crate::enumerate::Partitions`] yields them in).
///
/// It holds `p(n, k)` for `n ≤ total` and `k ≤ min(max_parts, total)`,
/// saturated at `u64::MAX`. A saturated entry is the true count clamped,
/// so every rank below `u64::MAX` still unranks exactly; ranks at or
/// beyond 2^64 could never be reached by a scan anyway.
#[derive(Debug, Clone)]
pub(crate) struct RankTable {
    total: u32,
    min_parts: u32,
    /// Row length: `min(max_parts, total) + 1`, indexed by `k`.
    stride: usize,
    /// `p(n, k)` at `n * stride + k`.
    counts: Vec<u64>,
    /// Partitions in the whole space, saturated.
    len: u64,
}

impl RankTable {
    /// The space of `total` into `min_parts..=max_parts` parts
    /// (`min_parts ≥ 1`); empty when `min_parts > min(max_parts, total)`.
    pub(crate) fn new(total: u32, min_parts: u32, max_parts: u32) -> RankTable {
        debug_assert!(min_parts >= 1, "a partition has at least one part");
        let max_parts = max_parts.min(total) as usize;
        let stride = max_parts + 1;
        let mut counts = vec![0u64; (total as usize + 1) * stride];
        counts[0] = 1;
        for n in 1..=total as usize {
            for k in 1..=max_parts.min(n) {
                counts[n * stride + k] =
                    counts[(n - 1) * stride + k - 1].saturating_add(counts[(n - k) * stride + k]);
            }
        }
        let mut table = RankTable {
            total,
            min_parts,
            stride,
            counts,
            len: 0,
        };
        table.len = (min_parts..=max_parts as u32)
            .map(|k| table.count(total, k))
            .fold(0, u64::saturating_add);
        table
    }

    /// `p(n, k)`, saturated.
    fn count(&self, n: u32, k: u32) -> u64 {
        self.counts[n as usize * self.stride + k as usize]
    }

    /// Partitions in the space (saturated at `u64::MAX`).
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Overwrites `widths` with the partition of rank `rank` in the
    /// space, parts non-decreasing. Part `i` is the smallest
    /// `a ≥ part[i-1]` for which the rank falls below the cumulative
    /// count of the partitions that go on from the parts placed so far
    /// with a part `i` of at most `a`. Those with part `i` equal to `a`
    /// number `p(n − a − (k−1)(a−1), k−1)`, where `n` is what is left of
    /// the sum and `k` the number of parts left, part `i` included: the
    /// `k − 1` later parts are each at least `a`, so lowering each by
    /// `a − 1` leaves a partition of the rest into `k − 1` parts.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.len()`.
    pub(crate) fn unrank(&self, mut rank: u64, widths: &mut Vec<u32>) {
        assert!(
            rank < self.len,
            "rank {rank} beyond the space of {}",
            self.len
        );
        let mut parts = self.min_parts;
        while rank >= self.count(self.total, parts) {
            rank -= self.count(self.total, parts);
            parts += 1;
        }
        widths.clear();
        let (mut rest, mut part) = (self.total, 1);
        for later in (1..parts).rev() {
            loop {
                let with_part = (rest - part)
                    .checked_sub(later * (part - 1))
                    .map_or(0, |n| self.count(n, later));
                if rank < with_part {
                    break;
                }
                rank -= with_part;
                part += 1;
            }
            widths.push(part);
            rest -= part;
        }
        widths.push(rest);
    }

    /// Walks the ranks of `ranks` in order and hands `visit` each rank
    /// with its partition: it unranks the first into `widths` and steps
    /// to every later one in place ([`advance_or_restart`]), so a walk
    /// allocates nothing once `widths` has room for the space's largest
    /// part count. Stops at the first error `visit` returns.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is non-empty and reaches past `self.len()`.
    pub(crate) fn walk(
        &self,
        ranks: Range<u64>,
        widths: &mut Vec<u32>,
        mut visit: impl FnMut(u64, &[u32]) -> Result<(), PartitionError>,
    ) -> Result<(), PartitionError> {
        let Range { start, end } = ranks;
        if start >= end {
            return Ok(());
        }
        assert!(
            end <= self.len,
            "rank {end} beyond the space of {}",
            self.len
        );
        self.unrank(start, widths);
        visit(start, widths)?;
        for rank in start + 1..end {
            advance_or_restart(widths, self.total);
            visit(rank, widths)?;
        }
        Ok(())
    }
}

/// The paper's asymptotic estimate `V(W, B) = W^(B-1) / (B!·(B-1)!)`,
/// accurate for `W ≫ B` (the paper presents it for `W > 40`).
///
/// # Example
///
/// ```
/// use tamopt_partition::count::estimate;
///
/// // Table 1, first row: V(44, 6) ≈ 1909.
/// assert_eq!(estimate(44, 6).round() as u64, 1909);
/// ```
pub fn estimate(total: u32, parts: u32) -> f64 {
    if parts == 0 {
        return 0.0;
    }
    let w = f64::from(total);
    let b = parts as u64;
    let mut denom = 1.0;
    for i in 1..=b {
        denom *= i as f64;
    }
    for i in 1..b {
        denom *= i as f64;
    }
    w.powi(parts as i32 - 1) / denom
}

/// Number of *compositions* (ordered splits) of `total` into exactly
/// `parts` positive parts: `C(total-1, parts-1)`. This is what a naive
/// nested-loop enumeration without the paper's Line-1 bound would visit;
/// the ratio to [`unique_partitions`] quantifies pruning level 1.
pub fn compositions(total: u32, parts: u32) -> u64 {
    if parts == 0 || total < parts {
        return u64::from(parts == 0 && total == 0);
    }
    binomial(u64::from(total) - 1, u64::from(parts) - 1)
}

fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u64 = 1;
    for i in 0..k {
        result = result * (n - i) / (i + 1);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::Partitions;
    use proptest::prelude::*;

    /// The partitions of `total` into `min..=max` parts, as the scan
    /// once chained the iterators.
    fn chained(total: u32, min: u32, max: u32) -> impl Iterator<Item = Vec<u32>> {
        (min..=max).flat_map(move |b| Partitions::new(total, b))
    }

    #[test]
    fn unrank_matches_the_chained_iterators() {
        let mut widths = Vec::new();
        for total in 1..=40u32 {
            // Every space of `total` is a run of these, one per part count.
            let all: Vec<Vec<u32>> = chained(total, 1, total).collect();
            let mut starts = vec![0usize; total as usize + 2];
            for b in 1..=total {
                starts[b as usize + 1] = starts[b as usize] + Partitions::new(total, b).count();
            }
            for min in 1..=total {
                for max in min..=total {
                    let table = RankTable::new(total, min, max);
                    let space = &all[starts[min as usize]..starts[max as usize + 1]];
                    assert_eq!(table.len(), space.len() as u64, "W={total} B={min}..={max}");
                    for (rank, expected) in space.iter().enumerate() {
                        table.unrank(rank as u64, &mut widths);
                        assert_eq!(&widths, expected, "W={total} B={min}..={max} rank {rank}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The scan's walk: unrank a chunk's first rank, then advance or
        /// restart in place. Half the cases start just before the first
        /// partition of a part count, so the walk crosses into it.
        #[test]
        fn walking_from_a_rank_matches_the_iterators(
            (total, a, b, pick, near_boundary, count) in (1u32..=80).prop_flat_map(|total| {
                (Just(total), 1..=total, 1..=total, any::<u64>(), any::<bool>(), 1u64..=64)
            })
        ) {
            let (min, max) = (a.min(b), a.max(b));
            let table = RankTable::new(total, min, max);
            let len = table.len();
            let start = if near_boundary && max > min {
                let parts = min + 1 + (pick % u64::from(max - min)) as u32;
                let boundary: u64 = (min..parts).map(|b| unique_partitions(total, b)).sum();
                boundary.saturating_sub(1 + pick % count)
            } else {
                pick % len
            };
            let expected: Vec<Vec<u32>> = chained(total, min, max)
                .skip(start as usize)
                .take(count as usize)
                .collect();
            let ranks = start..(start + count).min(len);
            let mut widths = Vec::new();
            let (mut visited, mut walked) = (Vec::new(), Vec::new());
            table
                .walk(ranks.clone(), &mut widths, |rank, widths| {
                    visited.push(rank);
                    walked.push(widths.to_vec());
                    Ok(())
                })
                .unwrap();
            prop_assert_eq!(visited, ranks.collect::<Vec<u64>>());
            prop_assert_eq!(walked, expected, "W={} B={}..={} from rank {}", total, min, max, start);
        }
    }

    #[test]
    fn a_saturated_table_still_unranks_its_first_ranks() {
        // p(2000, 60) is far beyond 2^64: the counts clamp, no overflow.
        assert_eq!(unique_partitions(2000, 60), u64::MAX);
        let mut widths = Vec::new();
        for min in [1u32, 30, 58] {
            let table = RankTable::new(2000, min, 60);
            assert_eq!(table.len(), u64::MAX);
            for (rank, expected) in chained(2000, min, 60).take(300).enumerate() {
                table.unrank(rank as u64, &mut widths);
                assert_eq!(widths, expected, "B={min}..=60 rank {rank}");
            }
            // The last reachable rank still unranks to a partition.
            table.unrank(u64::MAX - 1, &mut widths);
            assert!((min as usize..=60).contains(&widths.len()));
            assert_eq!(widths.iter().sum::<u32>(), 2000);
            assert!(widths[0] >= 1 && widths.windows(2).all(|p| p[0] <= p[1]));
        }
    }

    #[test]
    fn small_cases_by_hand() {
        // Partitions of 5 into 2 parts: 1+4, 2+3.
        assert_eq!(unique_partitions(5, 2), 2);
        // Partitions of 6 into 3 parts: 1+1+4, 1+2+3, 2+2+2.
        assert_eq!(unique_partitions(6, 3), 3);
        assert_eq!(unique_partitions(4, 4), 1);
        assert_eq!(unique_partitions(3, 4), 0);
        assert_eq!(unique_partitions(0, 0), 1);
        assert_eq!(unique_partitions(1, 0), 0);
        assert_eq!(unique_partitions(7, 1), 1);
    }

    #[test]
    fn matches_paper_closed_form_for_three_tams() {
        // The paper's B = 3 closed form evaluates to 341 at W = 64.
        assert_eq!(unique_partitions(64, 3), 341);
        // Round((W^2)/12) is the standard closed form for p(n, 3).
        for w in 3..=100u32 {
            let expected = ((f64::from(w) * f64::from(w)) / 12.0).round() as u64;
            assert_eq!(unique_partitions(w, 3), expected, "W = {w}");
        }
    }

    #[test]
    fn estimate_matches_table1_values() {
        // Table 1 of the paper: V(W, B) for B = 6 matches the
        // W^(B-1)/(B!(B-1)!) formula to within rounding.
        let cases_b6 = [
            (44, 1909),
            (48, 2949),
            (52, 4401),
            (56, 6374),
            (60, 9000),
            (64, 12428),
        ];
        for (w, v) in cases_b6 {
            let e = estimate(w, 6);
            let err = (e - v as f64).abs() / v as f64;
            assert!(err < 0.01, "V({w},6) = {e}, table says {v}");
        }
        // The paper's B = 7 column does not follow the same closed form
        // (the PDF's formula is garbled there); it tracks the estimate
        // only to within tens of percent. Keep a loose sanity envelope.
        let cases_b7 = [
            (44, 1571),
            (48, 2889),
            (52, 5059),
            (56, 8499),
            (60, 13776),
            (64, 21643),
        ];
        for (w, v) in cases_b7 {
            let e = estimate(w, 7);
            let ratio = e / v as f64;
            assert!(
                (0.5..2.0).contains(&ratio),
                "V({w},7) = {e} is not within 2x of the paper's {v}"
            );
        }
    }

    #[test]
    fn estimate_tracks_exact_count_for_large_w() {
        // The estimate is asymptotic; at W = 64, B = 3 it is within ~15 %.
        let exact = unique_partitions(64, 3) as f64;
        let est = estimate(64, 3);
        assert!(
            (est - exact).abs() / exact < 0.15,
            "estimate {est} vs exact {exact}"
        );
    }

    #[test]
    fn compositions_count() {
        assert_eq!(compositions(5, 2), 4); // 1+4, 2+3, 3+2, 4+1
        assert_eq!(compositions(6, 3), 10); // C(5, 2)
        assert_eq!(compositions(3, 5), 0);
        assert_eq!(compositions(64, 3), 1953); // C(63, 2)
    }

    #[test]
    fn compositions_dominate_partitions() {
        for w in [8u32, 16, 24] {
            for b in 1..=5u32 {
                assert!(compositions(w, b) >= unique_partitions(w, b));
            }
        }
    }

    #[test]
    fn partitions_up_to_sums() {
        assert_eq!(
            partitions_up_to(10, 3),
            unique_partitions(10, 1) + unique_partitions(10, 2) + unique_partitions(10, 3)
        );
    }

    #[test]
    fn zero_parts_estimate() {
        assert_eq!(estimate(10, 0), 0.0);
    }
}
