//! Trajectory patterns: ordered lists of grid-cell positions (§3.3).

use std::borrow::Borrow;
use std::fmt;
use trajgeo::{CellId, Grid, Point2};

/// A trajectory pattern `P = (p₁, …, p_m)`: the object visits the centers
/// of these grid cells at `m` consecutive snapshots. A pattern of length 1
/// is a *singular pattern*.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Pattern {
    cells: Vec<CellId>,
}

/// The derived `Hash` and `Eq` of a pattern's one `Vec<CellId>` field are
/// those of its cell slice, so a set or map of patterns can be probed by
/// cells without building a pattern.
impl Borrow<[CellId]> for Pattern {
    fn borrow(&self) -> &[CellId] {
        &self.cells
    }
}

impl Pattern {
    /// Builds a pattern from cell ids. Empty patterns are not meaningful;
    /// `None` is returned for an empty list.
    pub fn new(cells: Vec<CellId>) -> Option<Pattern> {
        if cells.is_empty() {
            None
        } else {
            Some(Pattern { cells })
        }
    }

    /// A singular (length-1) pattern.
    pub fn singular(cell: CellId) -> Pattern {
        Pattern { cells: vec![cell] }
    }

    /// Number of positions (the paper's pattern *length* `m`).
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Always false — patterns have at least one position.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The positions as cell ids.
    #[inline]
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// Whether this is a singular (length-1) pattern.
    #[inline]
    pub fn is_singular(&self) -> bool {
        self.cells.len() == 1
    }

    /// Concatenation `self · other` (Definition of the min-max property:
    /// "the trajectory pattern by appending P'' to the end of P'").
    pub fn concat(&self, other: &Pattern) -> Pattern {
        let mut cells = Vec::with_capacity(self.cells.len() + other.cells.len());
        cells.extend_from_slice(&self.cells);
        cells.extend_from_slice(&other.cells);
        Pattern { cells }
    }

    /// The pattern with the first position removed, or `None` if singular.
    pub fn drop_first(&self) -> Option<Pattern> {
        if self.cells.len() <= 1 {
            None
        } else {
            Some(Pattern {
                cells: self.cells[1..].to_vec(),
            })
        }
    }

    /// The pattern with the last position removed, or `None` if singular.
    pub fn drop_last(&self) -> Option<Pattern> {
        if self.cells.len() <= 1 {
            None
        } else {
            Some(Pattern {
                cells: self.cells[..self.cells.len() - 1].to_vec(),
            })
        }
    }

    /// Whether `self` is a **super-pattern** of `other` (Definition 3):
    /// `other` occurs as a contiguous sub-sequence of `self`.
    pub fn is_super_pattern_of(&self, other: &Pattern) -> bool {
        let (n, m) = (self.cells.len(), other.cells.len());
        if m > n {
            return false;
        }
        (0..=n - m).any(|i| self.cells[i..i + m] == other.cells[..])
    }

    /// Whether `self` is a *proper* super-pattern of `other` (strictly
    /// longer, Definition 3).
    pub fn is_proper_super_pattern_of(&self, other: &Pattern) -> bool {
        self.cells.len() > other.cells.len() && self.is_super_pattern_of(other)
    }

    /// The sequence of cell-center points under `grid`, e.g. for distance
    /// computations in pattern-group discovery.
    pub fn centers(&self, grid: &Grid) -> Vec<Point2> {
        self.cells.iter().map(|&c| grid.center(c)).collect()
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// A pattern together with its mined NM value.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MinedPattern {
    /// The pattern.
    pub pattern: Pattern,
    /// Its normalized match `NM(P)` over the mined dataset.
    pub nm: f64,
}

impl MinedPattern {
    /// Convenience constructor.
    pub fn new(pattern: Pattern, nm: f64) -> MinedPattern {
        MinedPattern { pattern, nm }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(ids: &[u32]) -> Pattern {
        Pattern::new(ids.iter().map(|&i| CellId(i)).collect()).unwrap()
    }

    #[test]
    fn construction_rejects_empty() {
        assert!(Pattern::new(vec![]).is_none());
        assert_eq!(Pattern::singular(CellId(3)).len(), 1);
    }

    #[test]
    fn concat_appends() {
        let p = pat(&[1, 2]).concat(&pat(&[3]));
        assert_eq!(p, pat(&[1, 2, 3]));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn super_pattern_relation_matches_definition_3() {
        // Paper's example: P = (p1,p2,p3), P' = (p2,p3).
        let p = pat(&[1, 2, 3]);
        let p2 = pat(&[2, 3]);
        assert!(p.is_super_pattern_of(&p2));
        assert!(p.is_proper_super_pattern_of(&p2));
        // A pattern is a (non-proper) super-pattern of itself.
        assert!(p.is_super_pattern_of(&p));
        assert!(!p.is_proper_super_pattern_of(&p));
        // Non-contiguous subsequences do not count.
        assert!(!p.is_super_pattern_of(&pat(&[1, 3])));
        // Longer patterns are never sub-patterns.
        assert!(!p2.is_super_pattern_of(&p));
    }

    #[test]
    fn drop_first_last() {
        let p = pat(&[7, 8, 9]);
        assert_eq!(p.drop_first().unwrap(), pat(&[8, 9]));
        assert_eq!(p.drop_last().unwrap(), pat(&[7, 8]));
        assert!(Pattern::singular(CellId(0)).drop_first().is_none());
        assert!(Pattern::singular(CellId(0)).drop_last().is_none());
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(pat(&[1, 2]).to_string(), "(c1, c2)");
    }

    #[test]
    fn centers_follow_grid() {
        use trajgeo::BBox;
        let grid = Grid::new(BBox::unit(), 2, 2).unwrap();
        let p = pat(&[0, 3]);
        let cs = p.centers(&grid);
        assert_eq!(cs[0], Point2::new(0.25, 0.25));
        assert_eq!(cs[1], Point2::new(0.75, 0.75));
    }
}
