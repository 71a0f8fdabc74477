//! Discretization of the space into grid cells (§3.3 of the paper).
//!
//! "To expedite the mining process, we discretize the space into small
//! regions and only the centers of these regions may serve as the positions
//! in a pattern. Let `G_x`, `G_y` be the grid size on a 2-dimensional
//! space." — a [`Grid`] partitions a [`BBox`] into `nx × ny` equal cells;
//! each cell is identified by a dense [`CellId`] in `0..nx*ny` (row-major).
//!
//! Pattern positions throughout the reproduction are `CellId`s; geometry
//! (cell centers, neighbourhoods) is recovered through the grid.

use crate::bbox::BBox;
use crate::point::Point2;
use std::fmt;
use std::ops::Range;

/// Identifier of a grid cell: a dense row-major index in `0..grid.num_cells()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct CellId(pub u32);

impl CellId {
    /// The raw index as a `usize`, for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Errors building a [`Grid`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// `nx` or `ny` was zero.
    ZeroCells,
    /// The total number of cells exceeds `u32::MAX`.
    TooManyCells,
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::ZeroCells => write!(f, "grid must have at least one cell per axis"),
            GridError::TooManyCells => write!(f, "grid cell count exceeds u32::MAX"),
        }
    }
}

impl std::error::Error for GridError {}

/// A uniform partition of a bounding box into `nx × ny` rectangular cells.
///
/// ```
/// use trajgeo::{BBox, Grid, Point2};
///
/// let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
/// let cell = grid.locate(Point2::new(0.3, 0.8));
/// assert_eq!(grid.cell_coords(cell), (1, 3));
/// let center = grid.center(cell);
/// assert!((center.x - 0.375).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Grid {
    bbox: BBox,
    nx: u32,
    ny: u32,
    // Cached cell extents (bbox dimensions / cell counts).
    gx: f64,
    gy: f64,
}

impl Grid {
    /// Builds a grid with `nx × ny` cells over `bbox`.
    pub fn new(bbox: BBox, nx: u32, ny: u32) -> Result<Grid, GridError> {
        if nx == 0 || ny == 0 {
            return Err(GridError::ZeroCells);
        }
        if (nx as u64) * (ny as u64) > u32::MAX as u64 {
            return Err(GridError::TooManyCells);
        }
        Ok(Grid {
            bbox,
            nx,
            ny,
            gx: bbox.width() / nx as f64,
            gy: bbox.height() / ny as f64,
        })
    }

    /// Builds a grid whose cells have (approximately) the requested side
    /// lengths `gx × gy`; cell counts are rounded up so cells never exceed
    /// the request. This mirrors the paper's parameterization by grid size.
    pub fn with_cell_size(bbox: BBox, gx: f64, gy: f64) -> Result<Grid, GridError> {
        if gx <= 0.0 || gy <= 0.0 || gx.is_nan() || gy.is_nan() {
            return Err(GridError::ZeroCells);
        }
        let nx = (bbox.width() / gx).ceil().max(1.0) as u32;
        let ny = (bbox.height() / gy).ceil().max(1.0) as u32;
        Grid::new(bbox, nx, ny)
    }

    /// The discretized region.
    #[inline]
    pub fn bbox(&self) -> BBox {
        self.bbox
    }

    /// Number of cells on the x-axis.
    #[inline]
    pub fn nx(&self) -> u32 {
        self.nx
    }

    /// Number of cells on the y-axis.
    #[inline]
    pub fn ny(&self) -> u32 {
        self.ny
    }

    /// Total number of cells `G = nx × ny` — the paper's `G` parameter.
    #[inline]
    pub fn num_cells(&self) -> u32 {
        self.nx * self.ny
    }

    /// Width of each cell (`G_x` in the paper).
    #[inline]
    pub fn cell_width(&self) -> f64 {
        self.gx
    }

    /// Height of each cell (`G_y` in the paper).
    #[inline]
    pub fn cell_height(&self) -> f64 {
        self.gy
    }

    /// Cell id for column `cx`, row `cy` (row-major). Returns `None` out of
    /// range.
    #[inline]
    pub fn cell_at(&self, cx: u32, cy: u32) -> Option<CellId> {
        if cx < self.nx && cy < self.ny {
            Some(CellId(cy * self.nx + cx))
        } else {
            None
        }
    }

    /// `(column, row)` coordinates of a cell.
    #[inline]
    pub fn cell_coords(&self, id: CellId) -> (u32, u32) {
        (id.0 % self.nx, id.0 / self.nx)
    }

    /// The cell containing point `p`. Points outside the box are clamped to
    /// the nearest boundary cell, so every finite point maps to some cell
    /// (imprecise trajectories can wander slightly outside the nominal
    /// space; losing them to an error would bias the measure).
    pub fn locate(&self, p: Point2) -> CellId {
        let p = self.bbox.clamp(p);
        let cx = (((p.x - self.bbox.min().x) / self.gx) as u32).min(self.nx - 1);
        let cy = (((p.y - self.bbox.min().y) / self.gy) as u32).min(self.ny - 1);
        CellId(cy * self.nx + cx)
    }

    /// Center of a cell — the canonical pattern position for that cell.
    pub fn center(&self, id: CellId) -> Point2 {
        let (cx, cy) = self.cell_coords(id);
        Point2::new(self.center_x(cx), self.center_y(cy))
    }

    /// x coordinate of the centers of column `cx`.
    #[inline]
    pub fn center_x(&self, cx: u32) -> f64 {
        self.bbox.min().x + (cx as f64 + 0.5) * self.gx
    }

    /// y coordinate of the centers of row `cy`.
    #[inline]
    pub fn center_y(&self, cy: u32) -> f64 {
        self.bbox.min().y + (cy as f64 + 0.5) * self.gy
    }

    /// Iterator over every cell id, in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> {
        (0..self.num_cells()).map(CellId)
    }

    /// Cells whose centers lie within L∞ distance `radius` of point `p`,
    /// in row-major order: the rectangle [`Grid::span_within`] returns.
    /// Used for sparse scoring: only cells near a trajectory's snapshot mean
    /// contribute non-floor probability mass.
    pub fn cells_within(&self, p: Point2, radius: f64) -> Vec<CellId> {
        let (cols, rows) = self.span_within(p, radius);
        rows.flat_map(|cy| cols.clone().map(move |cx| CellId(cy * self.nx + cx)))
            .collect()
    }

    /// The columns and rows of the cells whose centers lie within L∞
    /// distance `radius` of `p`. An L∞ ball bounds each axis separately,
    /// so those cells are exactly `columns × rows`. Either range is empty
    /// when no center is that close, the radius is negative or NaN, or `p`
    /// is not finite.
    pub fn span_within(&self, p: Point2, radius: f64) -> (Range<u32>, Range<u32>) {
        if radius < 0.0 || radius.is_nan() || !p.is_finite() {
            return (0..0, 0..0);
        }
        let min = self.locate(Point2::new(p.x - radius, p.y - radius));
        let max = self.locate(Point2::new(p.x + radius, p.y + radius));
        let (cx0, cy0) = self.cell_coords(min);
        let (cx1, cy1) = self.cell_coords(max);
        // Tolerate FP rounding so cells exactly `radius` away are included.
        let r = radius * (1.0 + 1e-9) + 1e-12;
        let cols = trim(cx0..cx1 + 1, |cx| (self.center_x(cx) - p.x).abs() <= r);
        let rows = trim(cy0..cy1 + 1, |cy| (self.center_y(cy) - p.y).abs() <= r);
        (cols, rows)
    }
}

/// Shrinks `span` from both ends to the indices that pass `keep`. Centers
/// are monotone in their index, so along one axis the centers within a
/// distance of a point form one contiguous run, and trimming the ends
/// finds it exactly.
fn trim(span: Range<u32>, keep: impl Fn(u32) -> bool) -> Range<u32> {
    let Range { mut start, mut end } = span;
    while start < end && !keep(start) {
        start += 1;
    }
    while end > start && !keep(end - 1) {
        end -= 1;
    }
    start..end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_grid(n: u32) -> Grid {
        Grid::new(BBox::unit(), n, n).unwrap()
    }

    #[test]
    fn rejects_bad_dimensions() {
        assert_eq!(Grid::new(BBox::unit(), 0, 4), Err(GridError::ZeroCells));
        assert_eq!(
            Grid::new(BBox::unit(), 100_000, 100_000),
            Err(GridError::TooManyCells)
        );
    }

    #[test]
    fn locate_center_round_trip() {
        let g = unit_grid(10);
        for id in g.cells() {
            let c = g.center(id);
            assert_eq!(g.locate(c), id, "center of {id} must locate back to it");
        }
    }

    #[test]
    fn locate_clamps_outside_points() {
        let g = unit_grid(4);
        assert_eq!(g.locate(Point2::new(-5.0, -5.0)), CellId(0));
        assert_eq!(g.locate(Point2::new(5.0, 5.0)), CellId(15));
    }

    #[test]
    fn coords_round_trip() {
        let g = Grid::new(BBox::unit(), 7, 3).unwrap();
        for id in g.cells() {
            let (cx, cy) = g.cell_coords(id);
            assert_eq!(g.cell_at(cx, cy), Some(id));
        }
        assert_eq!(g.cell_at(7, 0), None);
        assert_eq!(g.cell_at(0, 3), None);
    }

    #[test]
    fn with_cell_size_never_exceeds_request() {
        // Paper §6.1: g_x = g_y = 1/1000 of the side of the space.
        let g = Grid::with_cell_size(BBox::unit(), 1e-3, 1e-3).unwrap();
        assert_eq!(g.nx(), 1000);
        assert!(g.cell_width() <= 1e-3 + 1e-15);
        // Non-dividing size rounds the count up.
        let g = Grid::with_cell_size(BBox::unit(), 0.3, 0.3).unwrap();
        assert_eq!(g.nx(), 4);
        assert!(g.cell_width() <= 0.3);
    }

    #[test]
    fn boundary_point_on_edge_maps_to_last_cell() {
        let g = unit_grid(4);
        // x == 1.0 is the right edge: must clamp into column 3, not overflow.
        assert_eq!(g.cell_coords(g.locate(Point2::new(1.0, 0.1))).0, 3);
    }

    #[test]
    fn cells_within_radius() {
        let g = unit_grid(10); // cells of 0.1, centers at 0.05, 0.15, ...
        let p = Point2::new(0.55, 0.55); // center of cell (5,5)
        let near = g.cells_within(p, 0.1);
        // L∞ ball of radius 0.1 around a center covers the 3×3 neighbourhood.
        assert_eq!(near.len(), 9);
        for id in &near {
            assert!(g.center(*id).linf_distance(p) <= 0.1 + 1e-12);
        }
        // Zero radius: only the cell itself.
        assert_eq!(g.cells_within(p, 0.0), vec![g.locate(p)]);
    }

    #[test]
    fn cells_within_at_corner_is_truncated() {
        let g = unit_grid(10);
        let p = Point2::new(0.05, 0.05);
        let near = g.cells_within(p, 0.1);
        assert_eq!(near.len(), 4); // 2×2 corner neighbourhood
    }

    #[test]
    fn cells_within_is_the_linf_filter() {
        // Against the per-cell definition, on a non-unit box with an offset
        // origin, for means inside and outside the box and radii from zero
        // to past the whole grid.
        let g = Grid::new(
            BBox::new(Point2::new(-2.0, 3.0), Point2::new(5.0, 4.5)).unwrap(),
            9,
            5,
        )
        .unwrap();
        let points = [
            Point2::new(-2.0, 3.0),
            Point2::new(0.61, 3.77),
            Point2::new(1.5, 3.9),
            Point2::new(5.0, 4.5),
            Point2::new(-2.3, 4.0),
            Point2::new(7.0, 1.0),
            Point2::new(2.0, 4.65),
        ];
        for p in points {
            for radius in [0.0, 0.2, 0.39, 0.7777, 1.5, 20.0] {
                let r = radius * (1.0 + 1e-9) + 1e-12;
                let want: Vec<CellId> = g
                    .cells()
                    .filter(|&id| g.center(id).linf_distance(p) <= r)
                    .collect();
                assert_eq!(
                    g.cells_within(p, radius),
                    want,
                    "p = {p:?}, radius = {radius}"
                );
            }
        }
        assert!(g.cells_within(Point2::new(0.0, 3.5), -1.0).is_empty());
        assert!(g.cells_within(Point2::new(f64::NAN, 3.5), 1.0).is_empty());
    }

    #[test]
    fn num_cells_matches_iteration() {
        let g = Grid::new(BBox::unit(), 6, 5).unwrap();
        assert_eq!(g.num_cells(), 30);
        assert_eq!(g.cells().count(), 30);
    }
}
