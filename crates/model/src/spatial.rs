//! A uniform-grid spatial index over points in the scenario plane.
//!
//! [`crate::CoverageMap`] sizes cells at (at least) the maximum coverage
//! radius, so every server whose disc can contain a query point lies within
//! Chebyshev distance 1 of the point's cell — a 3×3 candidate lookup
//! replaces the full `O(N)` server scan on every coverage query. The grid
//! is deliberately generic (it stores plain `u32` ids into a caller-owned
//! slice), so the same structure indexes both the static server sites and
//! the mobile user population.
//!
//! ## Geometry contract
//!
//! The grid covers the bounding box of the points it was built over, with
//! `floor(extent / cell) + 1` columns/rows per axis. Every build point's
//! cell therefore lies in range *without clamping*, which keeps the
//! neighbour invariant exact: two points within `r ≤ k·cell_size` of each
//! other (per axis) sit in cells at most `k` apart. Points inserted later
//! (users) may fall outside the box; they are clamped to the border cell,
//! which only moves them *towards* any in-range cell and so preserves the
//! invariant for queries centred on build points.

use crate::geometry::Point;

/// Hard ceiling on `cols × rows`. The builder enlarges the cell size past
/// the requested minimum rather than allocating an unbounded bucket array
/// (a tiny radius over a huge area would otherwise explode the grid);
/// larger cells are always safe, merely less selective.
const MAX_CELLS: usize = 16_384;

/// A bucketed uniform grid of `u32` ids keyed by position.
#[derive(Clone, Debug)]
pub struct SpatialGrid {
    origin: Point,
    cell_size: f64,
    cols: usize,
    rows: usize,
    buckets: Vec<Vec<u32>>,
}

impl SpatialGrid {
    /// Builds a grid over the bounding box of `points`, inserting every
    /// point under its slice index, with cells at least `min_cell_size` on
    /// a side. Returns `None` when the input cannot support an exact grid:
    /// no points, a non-finite point, a bounding box whose extent overflows
    /// f64, or a degenerate `min_cell_size` — callers then fall back to
    /// linear scans.
    pub fn build(points: &[Point], min_cell_size: f64) -> Option<Self> {
        if points.is_empty() || !(min_cell_size.is_finite() && min_cell_size > 0.0) {
            return None;
        }
        if points.iter().any(|p| !p.is_finite()) {
            return None;
        }
        let mut min = points[0];
        let mut max = points[0];
        for p in points {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
        let (width, height) = (max.x - min.x, max.y - min.y);
        if !(width.is_finite() && height.is_finite()) {
            return None; // finite points whose extent overflows f64
        }
        // Counted in f64, a huge extent cannot wrap; the loop enlarges the
        // cells until the count fits, so the casts below are exact.
        let dims = |cell: f64| ((width / cell).floor() + 1.0, (height / cell).floor() + 1.0);
        let mut cell_size = min_cell_size;
        let (mut cols, mut rows) = dims(cell_size);
        while cols * rows > MAX_CELLS as f64 {
            cell_size *= 2.0;
            (cols, rows) = dims(cell_size);
        }
        let (cols, rows) = (cols as usize, rows as usize);
        let mut grid =
            Self { origin: min, cell_size, cols, rows, buckets: vec![Vec::new(); cols * rows] };
        for (i, p) in points.iter().enumerate() {
            grid.insert(i as u32, *p);
        }
        Some(grid)
    }

    /// A grid with the same geometry (origin, cell size, dimensions) but no
    /// occupants — used to index a second population over the same plane.
    pub fn empty_like(&self) -> Self {
        Self {
            origin: self.origin,
            cell_size: self.cell_size,
            cols: self.cols,
            rows: self.rows,
            buckets: vec![Vec::new(); self.cols * self.rows],
        }
    }

    /// The (possibly enlarged) cell side length in metres.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Lower-left corner of the grid (the bounding-box minimum it was built
    /// over). Together with [`SpatialGrid::cell_size`], this pins the cell
    /// lattice in the plane — the shard planner aligns its cuts to it.
    #[inline]
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// Number of cell columns (x axis).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of cell rows (y axis).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of cells (`cols × rows`).
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.buckets.len()
    }

    /// Unclamped cell coordinates of a position (may lie outside the grid).
    #[inline]
    fn cell_coords(&self, p: Point) -> (i64, i64) {
        (
            ((p.x - self.origin.x) / self.cell_size).floor() as i64,
            ((p.y - self.origin.y) / self.cell_size).floor() as i64,
        )
    }

    /// Bucket index for a position, clamped into the grid.
    #[inline]
    fn clamped_bucket(&self, p: Point) -> usize {
        let (cx, cy) = self.cell_coords(p);
        let cx = cx.clamp(0, self.cols as i64 - 1) as usize;
        let cy = cy.clamp(0, self.rows as i64 - 1) as usize;
        cy * self.cols + cx
    }

    /// Inserts `id` at `p` (clamped into the grid) and returns the bucket
    /// index, which the caller must remember to [`SpatialGrid::remove`] the
    /// id later. Buckets stay sorted; double-insertion is a no-op.
    pub fn insert(&mut self, id: u32, p: Point) -> usize {
        let bucket = self.clamped_bucket(p);
        let list = &mut self.buckets[bucket];
        if let Err(pos) = list.binary_search(&id) {
            list.insert(pos, id);
        }
        bucket
    }

    /// Removes `id` from the given bucket (no-op if absent).
    pub fn remove(&mut self, bucket: usize, id: u32) {
        let list = &mut self.buckets[bucket];
        if let Ok(pos) = list.binary_search(&id) {
            list.remove(pos);
        }
    }

    /// Moves `id` from `bucket` to the bucket for `p` (clamped) and returns
    /// the new bucket index. A same-bucket move is a no-op — the common
    /// case for small mobility steps, worth skipping the two binary
    /// searches on the hot path.
    pub fn relocate(&mut self, bucket: usize, id: u32, p: Point) -> usize {
        let new_bucket = self.clamped_bucket(p);
        if new_bucket != bucket {
            self.remove(bucket, id);
            let list = &mut self.buckets[new_bucket];
            if let Err(pos) = list.binary_search(&id) {
                list.insert(pos, id);
            }
        }
        new_bucket
    }

    /// Appends every id stored in cells within Chebyshev distance `range`
    /// of `p`'s (unclamped) cell to `out`. Each id lives in exactly one
    /// bucket, so the result carries no duplicates, but ids arrive in
    /// row-major cell order — sort `out` when global order matters.
    pub fn gather(&self, p: Point, range: i64, out: &mut Vec<u32>) {
        let (cx, cy) = self.cell_coords(p);
        let x_lo = (cx - range).max(0);
        let x_hi = (cx + range).min(self.cols as i64 - 1);
        let y_lo = (cy - range).max(0);
        let y_hi = (cy + range).min(self.rows as i64 - 1);
        if x_lo > x_hi || y_lo > y_hi {
            return;
        }
        for y in y_lo..=y_hi {
            for x in x_lo..=x_hi {
                out.extend_from_slice(&self.buckets[y as usize * self.cols + x as usize]);
            }
        }
    }

    /// Packs the grid into an immutable CSR snapshot for hot query paths.
    pub fn freeze(&self) -> FrozenGrid {
        let mut starts = Vec::with_capacity(self.buckets.len() + 1);
        let mut ids = Vec::new();
        starts.push(0);
        for bucket in &self.buckets {
            ids.extend_from_slice(bucket);
            starts.push(ids.len() as u32);
        }
        FrozenGrid {
            origin: self.origin,
            cell_size: self.cell_size,
            cols: self.cols,
            rows: self.rows,
            starts,
            ids,
        }
    }
}

/// An immutable CSR snapshot of a [`SpatialGrid`]: identical geometry, with
/// every bucket packed into one contiguous id array. Cells are laid out
/// row-major, so a Chebyshev-`range` gather reads one *contiguous* id range
/// per cell row — the cache-friendly layout the per-event coverage queries
/// want for static populations (server sites).
#[derive(Clone, Debug)]
pub struct FrozenGrid {
    origin: Point,
    cell_size: f64,
    cols: usize,
    rows: usize,
    /// `starts[c]..starts[c + 1]` bounds cell `c`'s ids in `ids`.
    starts: Vec<u32>,
    ids: Vec<u32>,
}

impl FrozenGrid {
    /// Unclamped cell coordinates of a position (may lie outside the grid).
    #[inline]
    fn cell_coords(&self, p: Point) -> (i64, i64) {
        (
            ((p.x - self.origin.x) / self.cell_size).floor() as i64,
            ((p.y - self.origin.y) / self.cell_size).floor() as i64,
        )
    }

    /// Total number of cells (`cols × rows`).
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.starts.len() - 1
    }

    /// Cell index for a position, clamped into the grid. Clamping moves an
    /// out-of-box cell coordinate *towards* every in-range cell, so a
    /// neighbourhood query around the clamped cell still sees every stored
    /// id within `range × cell_size` of the position (per axis).
    #[inline]
    pub fn clamped_cell(&self, p: Point) -> usize {
        let (cx, cy) = self.cell_coords(p);
        let cx = cx.clamp(0, self.cols as i64 - 1) as usize;
        let cy = cy.clamp(0, self.rows as i64 - 1) as usize;
        cy * self.cols + cx
    }

    /// Precomputes, for every cell, the ids a Chebyshev-`range` gather
    /// centred on that cell would return, as a per-cell CSR (`starts`,
    /// `ids`) pair: entry `c`'s window is `ids[starts[c]..starts[c + 1]]`.
    /// Repeated point queries against a static population then become a
    /// single contiguous row scan — [`FrozenGrid::clamped_cell`] picks the
    /// row. Memory is `O((2·range + 1)² · N)`, independent of cell count.
    pub fn stencil(&self, range: i64) -> (Vec<u32>, Vec<u32>) {
        let mut starts = Vec::with_capacity(self.num_cells() + 1);
        let mut out = Vec::new();
        starts.push(0);
        for cy in 0..self.rows as i64 {
            for cx in 0..self.cols as i64 {
                let x_lo = (cx - range).max(0) as usize;
                let x_hi = (cx + range).min(self.cols as i64 - 1) as usize;
                let y_lo = (cy - range).max(0);
                let y_hi = (cy + range).min(self.rows as i64 - 1);
                for y in y_lo..=y_hi {
                    let row = y as usize * self.cols;
                    let lo = self.starts[row + x_lo] as usize;
                    let hi = self.starts[row + x_hi + 1] as usize;
                    out.extend_from_slice(&self.ids[lo..hi]);
                }
                starts.push(out.len() as u32);
            }
        }
        (starts, out)
    }

    /// Same contract as [`SpatialGrid::gather`], one slice copy per cell
    /// row of the query window.
    pub fn gather(&self, p: Point, range: i64, out: &mut Vec<u32>) {
        self.gather_map(p, range, out, |id| id);
    }

    /// Same cell windows as [`FrozenGrid::gather`], mapping every id
    /// through `f` into a caller-owned typed buffer — typed-id callers
    /// (e.g. `ServerId` wrappers) reuse their scratch without staging
    /// through a raw `u32` vector first.
    pub fn gather_map<T>(&self, p: Point, range: i64, out: &mut Vec<T>, f: impl Fn(u32) -> T) {
        let (cx, cy) = self.cell_coords(p);
        let x_lo = (cx - range).max(0);
        let x_hi = (cx + range).min(self.cols as i64 - 1);
        let y_lo = (cy - range).max(0);
        let y_hi = (cy + range).min(self.rows as i64 - 1);
        if x_lo > x_hi || y_lo > y_hi {
            return;
        }
        for y in y_lo..=y_hi {
            let row = y as usize * self.cols;
            let lo = self.starts[row + x_lo as usize] as usize;
            let hi = self.starts[row + x_hi as usize + 1] as usize;
            out.extend(self.ids[lo..hi].iter().copied().map(&f));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gathered(grid: &SpatialGrid, p: Point, range: i64) -> Vec<u32> {
        let mut out = Vec::new();
        grid.gather(p, range, &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn build_rejects_degenerate_input() {
        assert!(SpatialGrid::build(&[], 100.0).is_none());
        assert!(SpatialGrid::build(&[Point::new(0.0, 0.0)], 0.0).is_none());
        assert!(SpatialGrid::build(&[Point::new(0.0, 0.0)], f64::NAN).is_none());
        assert!(SpatialGrid::build(&[Point::new(f64::INFINITY, 0.0)], 100.0).is_none());
        // Finite points whose extent overflows f64, on either axis.
        for points in [
            [Point::new(-1e308, 0.0), Point::new(1e308, 0.0)],
            [Point::new(0.0, -1e308), Point::new(0.0, 1e308)],
        ] {
            assert!(SpatialGrid::build(&points, 100.0).is_none(), "{points:?}");
        }
    }

    #[test]
    fn far_apart_points_enlarge_the_cells_instead_of_wrapping() {
        let points = [Point::new(0.0, 0.0), Point::new(120.0, 80.0), Point::new(1e300, 1e300)];
        let grid = SpatialGrid::build(&points, 100.0).unwrap();
        assert!(grid.cols() >= 1 && grid.rows() >= 1 && grid.num_cells() <= MAX_CELLS);
        for (i, p) in points.iter().enumerate() {
            assert!(gathered(&grid, *p, 0).contains(&(i as u32)), "point {i} lost");
        }
    }

    #[test]
    fn every_build_point_is_found_in_its_own_neighbourhood() {
        let points: Vec<Point> = (0..40)
            .map(|i| Point::new((i as f64 * 37.0) % 500.0, (i as f64 * 91.0) % 300.0))
            .collect();
        let grid = SpatialGrid::build(&points, 60.0).unwrap();
        for (i, p) in points.iter().enumerate() {
            assert!(gathered(&grid, *p, 0).contains(&(i as u32)), "point {i} lost");
        }
    }

    #[test]
    fn neighbours_within_one_cell_are_gathered() {
        // Points within `cell_size` of each other (per axis) must be within
        // Chebyshev distance 1 in cell space.
        let points: Vec<Point> = (0..60)
            .map(|i| Point::new((i as f64 * 53.0) % 700.0, (i as f64 * 29.0) % 400.0))
            .collect();
        let cell = 80.0;
        let grid = SpatialGrid::build(&points, cell).unwrap();
        for p in &points {
            let near = gathered(&grid, *p, 1);
            for (i, q) in points.iter().enumerate() {
                if (p.x - q.x).abs() <= cell && (p.y - q.y).abs() <= cell {
                    assert!(near.contains(&(i as u32)), "missed neighbour {i} of {p:?}");
                }
            }
        }
    }

    #[test]
    fn out_of_box_queries_and_inserts_are_clamped_safely() {
        let points = vec![Point::new(0.0, 0.0), Point::new(200.0, 100.0)];
        let grid = SpatialGrid::build(&points, 100.0).unwrap();
        // A query far outside the box returns nothing at small range…
        assert!(gathered(&grid, Point::new(5_000.0, 5_000.0), 1).is_empty());
        // …and inserting an outside point clamps it to the border cell, from
        // which a neighbourhood query around the nearest corner finds it.
        let mut grid = grid;
        grid.insert(7, Point::new(250.0, 130.0));
        assert!(gathered(&grid, Point::new(200.0, 100.0), 1).contains(&7));
    }

    #[test]
    fn remove_uses_the_recorded_bucket() {
        let points = vec![Point::new(0.0, 0.0)];
        let mut grid = SpatialGrid::build(&points, 50.0).unwrap();
        let bucket = grid.insert(9, Point::new(10.0, 10.0));
        assert!(gathered(&grid, Point::new(10.0, 10.0), 0).contains(&9));
        grid.remove(bucket, 9);
        assert!(!gathered(&grid, Point::new(10.0, 10.0), 0).contains(&9));
    }

    #[test]
    fn relocate_moves_between_buckets_and_skips_same_cell_moves() {
        let points = vec![Point::new(0.0, 0.0), Point::new(400.0, 0.0)];
        let mut grid = SpatialGrid::build(&points, 100.0).unwrap();
        let b0 = grid.insert(5, Point::new(10.0, 10.0));
        // A small move within the same cell keeps the bucket.
        let b1 = grid.relocate(b0, 5, Point::new(20.0, 30.0));
        assert_eq!(b0, b1);
        assert!(gathered(&grid, Point::new(10.0, 10.0), 0).contains(&5));
        // A long move lands in a different bucket and leaves the old one.
        let b2 = grid.relocate(b1, 5, Point::new(390.0, 10.0));
        assert_ne!(b1, b2);
        assert!(!gathered(&grid, Point::new(10.0, 10.0), 0).contains(&5));
        assert!(gathered(&grid, Point::new(390.0, 10.0), 0).contains(&5));
    }

    #[test]
    fn frozen_gather_matches_the_mutable_grid() {
        let points: Vec<Point> = (0..80)
            .map(|i| Point::new((i as f64 * 37.0) % 900.0, (i as f64 * 91.0) % 500.0))
            .collect();
        let grid = SpatialGrid::build(&points, 75.0).unwrap();
        let frozen = grid.freeze();
        for p in points.iter().chain(&[Point::new(-300.0, 900.0), Point::new(2_000.0, -50.0)]) {
            for range in 0..=3 {
                let mut via_frozen = Vec::new();
                frozen.gather(*p, range, &mut via_frozen);
                via_frozen.sort_unstable();
                assert_eq!(via_frozen, gathered(&grid, *p, range), "at {p:?} range {range}");
            }
        }
    }

    #[test]
    fn stencil_rows_match_live_gathers() {
        let points: Vec<Point> = (0..70)
            .map(|i| Point::new((i as f64 * 61.0) % 800.0, (i as f64 * 23.0) % 450.0))
            .collect();
        let grid = SpatialGrid::build(&points, 90.0).unwrap();
        let frozen = grid.freeze();
        let (starts, ids) = frozen.stencil(1);
        assert_eq!(starts.len(), frozen.num_cells() + 1);
        // Every build point is in-box, so its stencil row (via the clamped
        // cell) must equal a live range-1 gather at the point exactly.
        for p in &points {
            let cell = frozen.clamped_cell(*p);
            let mut row = ids[starts[cell] as usize..starts[cell + 1] as usize].to_vec();
            row.sort_unstable();
            let mut live = Vec::new();
            frozen.gather(*p, 1, &mut live);
            live.sort_unstable();
            assert_eq!(row, live, "at {p:?}");
        }
        // An out-of-box query clamps to a border cell whose window is a
        // superset of the (empty or partial) unclamped gather.
        for p in [Point::new(-200.0, 600.0), Point::new(1_500.0, 200.0)] {
            let cell = frozen.clamped_cell(p);
            let row = &ids[starts[cell] as usize..starts[cell + 1] as usize];
            let mut live = Vec::new();
            frozen.gather(p, 1, &mut live);
            for id in &live {
                assert!(row.contains(id), "stencil missed {id} at {p:?}");
            }
        }
    }

    #[test]
    fn geometry_accessors_expose_the_lattice() {
        let points = vec![Point::new(10.0, 20.0), Point::new(310.0, 220.0)];
        let grid = SpatialGrid::build(&points, 100.0).unwrap();
        assert_eq!(grid.origin(), Point::new(10.0, 20.0));
        assert_eq!(grid.cell_size(), 100.0);
        assert_eq!(grid.cols(), 4); // floor(300 / 100) + 1
        assert_eq!(grid.rows(), 3); // floor(200 / 100) + 1
        assert_eq!(grid.num_cells(), grid.cols() * grid.rows());
    }

    #[test]
    fn cell_count_is_capped_for_tiny_cells() {
        let points: Vec<Point> =
            (0..50).map(|i| Point::new(i as f64 * 1_000.0, i as f64 * 700.0)).collect();
        let grid = SpatialGrid::build(&points, 0.001).unwrap();
        assert!(grid.num_cells() <= 16_384);
        assert!(grid.cell_size() > 0.001);
        // Neighbour invariant still holds at the enlarged cell size.
        for (i, p) in points.iter().enumerate() {
            assert!(gathered(&grid, *p, 0).contains(&(i as u32)), "point {i} lost");
        }
    }
}
