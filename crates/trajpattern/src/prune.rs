//! The 1-extension pruning of §4.1 (Definition 5 and Lemma 1).
//!
//! Low patterns are kept in the candidate set `Q` only if they satisfy the
//! *1-extension property*: either the pattern is singular, or removing its
//! first or last position yields a *high* pattern. Lemma 1 guarantees this
//! retains enough building blocks: every high pattern is the concatenation
//! of a high pattern with either a high pattern or a 1-extension low
//! pattern.

use trajgeo::fxhash::FxHashSet;
use trajgeo::CellId;

/// Whether the pattern with `cells` satisfies the 1-extension property
/// with respect to the cells of the high patterns, `high` (Definition
/// 5): any singular pattern qualifies; a longer pattern qualifies iff
/// dropping its first **or** last position yields a member of `high`.
pub fn is_one_extension(cells: &[CellId], high: &FxHashSet<&[CellId]>) -> bool {
    match cells {
        [] => false,
        [_] => true,
        [head @ .., _] if high.contains(head) => true,
        [_, tail @ ..] => high.contains(tail),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(ids: &[u32]) -> Vec<CellId> {
        ids.iter().map(|&i| CellId(i)).collect()
    }

    fn high_set(patterns: &[Vec<CellId>]) -> FxHashSet<&[CellId]> {
        patterns.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn singulars_always_qualify() {
        let high = high_set(&[]);
        assert!(is_one_extension(&cells(&[5]), &high));
    }

    #[test]
    fn prefix_high_qualifies() {
        // Figure 2(a): the pattern's (j-1)-prefix is high.
        let members = [cells(&[1, 2])];
        let high = high_set(&members);
        assert!(is_one_extension(&cells(&[1, 2, 3]), &high));
    }

    #[test]
    fn suffix_high_qualifies() {
        let members = [cells(&[2, 3])];
        let high = high_set(&members);
        assert!(is_one_extension(&cells(&[1, 2, 3]), &high));
    }

    #[test]
    fn interior_high_subpattern_does_not_qualify() {
        // Figure 2(b): only *first-or-last-removed* sub-patterns count.
        let members = [cells(&[2])];
        let high = high_set(&members);
        assert!(!is_one_extension(&cells(&[1, 2, 3]), &high));
    }

    #[test]
    fn no_high_subpattern_fails() {
        let members = [cells(&[7, 8])];
        let high = high_set(&members);
        assert!(!is_one_extension(&cells(&[1, 2, 3]), &high));
    }
}
