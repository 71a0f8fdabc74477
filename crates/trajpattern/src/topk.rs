//! Maintaining the dynamic NM threshold ω (§4, observation 2).
//!
//! "If we find a set of patterns Q, then the NM threshold ω should be
//! greater than or equal to the k-th maximum NM of the patterns in Q. …
//! With more patterns discovered, we can update the threshold ω, which
//! could increase the pruning power."
//!
//! `select_top_k` extracts the final answer: the k best patterns of a
//! finished run, in rank order.

use crate::pattern::Pattern;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A finite, totally ordered f64 — NM values are finite by construction
/// (per-position probabilities are floored), so ordering never sees NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Finite(f64);

impl Eq for Finite {}

impl PartialOrd for Finite {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Finite {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("NM values are finite")
    }
}

/// Tracks the k-th largest value offered so far.
///
/// ω starts at `-∞` and is monotonically non-decreasing: once `k` values
/// have been offered, ω equals the k-th largest of everything seen.
#[derive(Debug, Clone)]
pub struct ThresholdTracker {
    k: usize,
    // Min-heap of the k largest values (Reverse turns BinaryHeap's
    // max-heap into a min-heap).
    heap: BinaryHeap<Reverse<Finite>>,
}

impl ThresholdTracker {
    /// A tracker for the k-th maximum. `k` must be at least 1.
    pub fn new(k: usize) -> ThresholdTracker {
        assert!(k >= 1, "k must be at least 1");
        ThresholdTracker {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offers one value. Non-finite values are rejected (NM values are
    /// finite by construction; a NaN here is a caller bug caught early).
    pub fn offer(&mut self, value: f64) {
        assert!(value.is_finite(), "NM values must be finite, got {value}");
        if self.heap.len() < self.k {
            self.heap.push(Reverse(Finite(value)));
        } else if let Some(&Reverse(Finite(min))) = self.heap.peek() {
            if value > min {
                self.heap.pop();
                self.heap.push(Reverse(Finite(value)));
            }
        }
    }

    /// The current threshold ω: the k-th largest value offered, or `-∞`
    /// while fewer than `k` values have been seen.
    pub fn omega(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::NEG_INFINITY
        } else {
            self.heap
                .peek()
                .map(|r| r.0 .0)
                .unwrap_or(f64::NEG_INFINITY)
        }
    }

    /// The `k` this tracker was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The retained values (the up-to-`k` largest seen), sorted ascending —
    /// a deterministic snapshot used by checkpointing to rebuild the
    /// tracker exactly.
    pub fn values(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.heap.iter().map(|r| r.0 .0).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("retained values are finite"));
        v
    }

    /// How many values have been retained (at most `k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no values have been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Keeps the `k` best of `ids` and sorts them best first: NM descending,
/// ties broken by pattern order. The ids must name distinct patterns with
/// finite NMs, which makes the comparator a total order — so selecting the
/// top `k` first and sorting only those gives exactly the first `k` of a
/// full sort, at `O(n + k log k)` instead of `O(n log n)`.
pub(crate) fn select_top_k<'p, I: Copy>(
    ids: &mut Vec<I>,
    k: usize,
    nm: impl Fn(I) -> f64,
    pattern: impl Fn(I) -> &'p Pattern,
) {
    let by_rank = |&a: &I, &b: &I| -> Ordering {
        nm(b)
            .partial_cmp(&nm(a))
            .expect("NM values are finite")
            .then_with(|| pattern(a).cmp(pattern(b)))
    };
    if ids.len() > k {
        if k > 0 {
            ids.select_nth_unstable_by(k - 1, by_rank);
        }
        ids.truncate(k);
    }
    ids.sort_unstable_by(by_rank);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omega_is_kth_maximum() {
        let mut t = ThresholdTracker::new(3);
        assert_eq!(t.omega(), f64::NEG_INFINITY);
        t.offer(-5.0);
        t.offer(-1.0);
        assert_eq!(t.omega(), f64::NEG_INFINITY); // only 2 seen
        t.offer(-3.0);
        assert_eq!(t.omega(), -5.0);
        t.offer(-2.0); // top-3 now {-1,-2,-3}
        assert_eq!(t.omega(), -3.0);
        t.offer(-10.0); // no change
        assert_eq!(t.omega(), -3.0);
    }

    #[test]
    fn omega_is_monotone_nondecreasing() {
        let mut t = ThresholdTracker::new(2);
        let mut prev = f64::NEG_INFINITY;
        for v in [-9.0, -7.0, -8.0, -1.0, -3.0, -2.0, -0.5] {
            t.offer(v);
            let w = t.omega();
            assert!(w >= prev, "omega decreased: {w} < {prev}");
            prev = w;
        }
        assert_eq!(prev, -1.0);
    }

    #[test]
    fn k_equals_one_tracks_maximum() {
        let mut t = ThresholdTracker::new(1);
        t.offer(-4.0);
        assert_eq!(t.omega(), -4.0);
        t.offer(-2.0);
        assert_eq!(t.omega(), -2.0);
        t.offer(-3.0);
        assert_eq!(t.omega(), -2.0);
    }

    #[test]
    fn duplicate_values_each_count() {
        let mut t = ThresholdTracker::new(3);
        t.offer(-1.0);
        t.offer(-1.0);
        t.offer(-1.0);
        assert_eq!(t.omega(), -1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        ThresholdTracker::new(1).offer(f64::NAN);
    }

    #[test]
    fn select_top_k_equals_sort_then_truncate() {
        use trajgeo::CellId;
        let patterns: Vec<Pattern> = (0..40u32)
            .map(|i| Pattern::new(vec![CellId(i % 7), CellId(i / 7)]).unwrap())
            .collect();
        // Many ties, so the pattern tie-break decides most ranks.
        let nms: Vec<f64> = (0..40).map(|i| -(((i * 13) % 5) as f64)).collect();
        let mut full: Vec<usize> = (0..40).collect();
        full.sort_by(|&a, &b| {
            nms[b]
                .partial_cmp(&nms[a])
                .unwrap()
                .then_with(|| patterns[a].cmp(&patterns[b]))
        });
        for k in [0, 1, 3, 17, 39, 40, 55] {
            let mut got: Vec<usize> = (0..40).rev().collect();
            select_top_k(&mut got, k, |i| nms[i], |i| &patterns[i]);
            assert_eq!(got, full[..k.min(40)].to_vec(), "k = {k}");
        }
    }

    #[test]
    fn values_snapshot_rebuilds_tracker() {
        let mut t = ThresholdTracker::new(3);
        for v in [-5.0, -1.0, -3.0, -2.0, -10.0] {
            t.offer(v);
        }
        assert_eq!(t.k(), 3);
        assert_eq!(t.values(), vec![-3.0, -2.0, -1.0]);
        let mut rebuilt = ThresholdTracker::new(t.k());
        for v in t.values() {
            rebuilt.offer(v);
        }
        assert_eq!(rebuilt.omega(), t.omega());
    }
}
