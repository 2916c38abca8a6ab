//! Real-valued 2-D grids over a metric region.
//!
//! A [`Grid2D`] is the concrete representation of a BLoc spatial likelihood
//! map: Eq. 17 of the paper evaluated at every point of a rectangular region
//! ("mapped onto the 2-D cartesian coordinates by a simple change of
//! coordinates", §5.3). Grids are row-major, indexed `(ix, iy)` with cell
//! centres at `origin + (ix + 0.5, iy + 0.5) · resolution`.

use crate::point::P2;

/// The geometry of a grid: where it sits in space and how fine it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// Lower-left corner of the covered region, metres.
    pub origin: P2,
    /// Cell edge length, metres.
    pub resolution: f64,
    /// Number of cells along x.
    pub nx: usize,
    /// Number of cells along y.
    pub ny: usize,
}

impl GridSpec {
    /// Builds a spec covering `[origin, origin + extent]` with cells of the
    /// given resolution; the cell counts round up so the region is covered.
    ///
    /// # Panics
    /// Panics if the resolution or extents are not strictly positive.
    pub fn covering(origin: P2, extent: P2, resolution: f64) -> Self {
        assert!(resolution > 0.0, "grid resolution must be positive");
        assert!(
            extent.x > 0.0 && extent.y > 0.0,
            "grid extent must be positive"
        );
        Self {
            origin,
            resolution,
            nx: (extent.x / resolution).ceil() as usize,
            ny: (extent.y / resolution).ceil() as usize,
        }
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// True when the grid has no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Centre of cell `(ix, iy)` in world coordinates.
    #[inline]
    pub fn cell_center(&self, ix: usize, iy: usize) -> P2 {
        P2::new(
            self.origin.x + (ix as f64 + 0.5) * self.resolution,
            self.origin.y + (iy as f64 + 0.5) * self.resolution,
        )
    }

    /// The cell containing world point `p`, if inside the grid.
    #[inline]
    pub fn cell_of(&self, p: P2) -> Option<(usize, usize)> {
        let fx = (p.x - self.origin.x) / self.resolution;
        let fy = (p.y - self.origin.y) / self.resolution;
        if fx < 0.0 || fy < 0.0 {
            return None;
        }
        let (ix, iy) = (fx as usize, fy as usize);
        (ix < self.nx && iy < self.ny).then_some((ix, iy))
    }

    /// Flat row-major index of `(ix, iy)`.
    #[inline]
    pub fn flat(&self, ix: usize, iy: usize) -> usize {
        debug_assert!(ix < self.nx && iy < self.ny);
        iy * self.nx + ix
    }

    /// A coarsened spec over the same region: the origin is kept and the
    /// resolution multiplied by `factor`; cell counts round up so the
    /// coarse grid covers at least the fine extent. Fine cell `(ix, iy)`
    /// falls inside coarse cell `(ix / factor, iy / factor)`.
    ///
    /// # Panics
    /// Panics when `factor == 0`.
    pub fn coarsen(&self, factor: usize) -> GridSpec {
        assert!(factor >= 1, "coarsening factor must be >= 1");
        GridSpec {
            origin: self.origin,
            resolution: self.resolution * factor as f64,
            nx: self.nx.div_ceil(factor),
            ny: self.ny.div_ceil(factor),
        }
    }

    /// An index-aligned sub-grid of `half_extent_m` metres around `center`,
    /// clamped to this grid's bounds. The patch reuses this grid's cell
    /// lattice exactly: patch cell `(j, k)` is parent cell
    /// `(j + x0, k + y0)`, so estimates refined on a patch can be snapped
    /// back onto parent cell centres with no resampling. A `center`
    /// outside the grid clamps to the nearest border cell; the patch is
    /// never empty (it is at least the 1×1 cell containing the clamped
    /// centre).
    ///
    /// # Panics
    /// Panics when the grid is empty.
    pub fn patch(&self, center: P2, half_extent_m: f64) -> GridPatch {
        assert!(!self.is_empty(), "cannot take a patch of an empty grid");
        let r = ((half_extent_m.max(0.0)) / self.resolution).ceil() as usize;
        let clamp_axis = |coord: f64, origin: f64, n: usize| -> usize {
            let f = (coord - origin) / self.resolution;
            if f <= 0.0 {
                0
            } else {
                (f.floor() as usize).min(n - 1)
            }
        };
        let cx = clamp_axis(center.x, self.origin.x, self.nx);
        let cy = clamp_axis(center.y, self.origin.y, self.ny);
        let x0 = cx.saturating_sub(r);
        let y0 = cy.saturating_sub(r);
        let x1 = cx.saturating_add(r).saturating_add(1).min(self.nx);
        let y1 = cy.saturating_add(r).saturating_add(1).min(self.ny);
        GridPatch {
            spec: GridSpec {
                origin: P2::new(
                    self.origin.x + x0 as f64 * self.resolution,
                    self.origin.y + y0 as f64 * self.resolution,
                ),
                resolution: self.resolution,
                nx: x1 - x0,
                ny: y1 - y0,
            },
            x0,
            y0,
        }
    }
}

/// An index-aligned rectangular sub-window of a parent [`GridSpec`],
/// produced by [`GridSpec::patch`]. Carries both the patch-local spec
/// (for evaluating kernels over just the window) and the exact index
/// offset back into the parent lattice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPatch {
    /// The patch-local grid geometry (same resolution as the parent).
    pub spec: GridSpec,
    /// Parent x-index of patch column 0.
    pub x0: usize,
    /// Parent y-index of patch row 0.
    pub y0: usize,
}

impl GridPatch {
    /// The window covering all of `spec` — what a full-grid evaluation
    /// passes where a patch would go.
    pub fn whole(spec: GridSpec) -> Self {
        Self { spec, x0: 0, y0: 0 }
    }

    /// True when the window's rows are whole rows of `parent`, so its
    /// cells sit contiguously in `parent`'s row-major order.
    #[inline]
    pub fn spans_rows_of(&self, parent: &GridSpec) -> bool {
        self.x0 == 0 && self.spec.nx == parent.nx
    }

    /// Flat `parent` index of the first cell of patch row `iy`.
    #[inline]
    pub fn parent_row_start(&self, parent: &GridSpec, iy: usize) -> usize {
        debug_assert!(iy < self.spec.ny && self.x0 + self.spec.nx <= parent.nx);
        (iy + self.y0) * parent.nx + self.x0
    }

    /// Maps patch-local cell `(ix, iy)` to the parent grid's indices.
    #[inline]
    pub fn to_parent(&self, ix: usize, iy: usize) -> (usize, usize) {
        debug_assert!(ix < self.spec.nx && iy < self.spec.ny);
        (ix + self.x0, iy + self.y0)
    }

    /// Maps parent cell indices into the patch, when covered.
    #[inline]
    pub fn from_parent(&self, ix: usize, iy: usize) -> Option<(usize, usize)> {
        let jx = ix.checked_sub(self.x0)?;
        let jy = iy.checked_sub(self.y0)?;
        (jx < self.spec.nx && jy < self.spec.ny).then_some((jx, jy))
    }

    /// Distance (in cells) from patch-local `(ix, iy)` to the nearest patch
    /// border that is *interior* to `parent` — i.e. a border created by the
    /// windowing, not one the parent grid shares. `usize::MAX` when every
    /// patch border coincides with a parent border (the patch spans the
    /// whole parent along both axes). A small value means a local maximum
    /// at this cell may be an artifact of the cut.
    pub fn interior_border_dist(&self, parent: &GridSpec, ix: usize, iy: usize) -> usize {
        debug_assert!(ix < self.spec.nx && iy < self.spec.ny);
        let mut d = usize::MAX;
        if self.x0 > 0 {
            d = d.min(ix);
        }
        if self.x0 + self.spec.nx < parent.nx {
            d = d.min(self.spec.nx - 1 - ix);
        }
        if self.y0 > 0 {
            d = d.min(iy);
        }
        if self.y0 + self.spec.ny < parent.ny {
            d = d.min(self.spec.ny - 1 - iy);
        }
        d
    }
}

/// A dense real-valued grid with [`GridSpec`] geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2D {
    spec: GridSpec,
    data: Vec<f64>,
}

impl Grid2D {
    /// A zero-filled grid.
    pub fn zeros(spec: GridSpec) -> Self {
        Self {
            spec,
            data: vec![0.0; spec.len()],
        }
    }

    /// Builds a grid by evaluating `f` at every cell centre.
    pub fn from_fn(spec: GridSpec, mut f: impl FnMut(P2) -> f64) -> Self {
        let mut g = Self::zeros(spec);
        for iy in 0..spec.ny {
            for ix in 0..spec.nx {
                let v = f(spec.cell_center(ix, iy));
                g.data[spec.flat(ix, iy)] = v;
            }
        }
        g
    }

    /// Builds a grid by evaluating `f` at every cell centre, splitting the
    /// rows across `threads` scoped threads (see [`crate::par`]).
    ///
    /// Unlike [`Self::from_fn`] the closure must be `Fn + Sync` so it can
    /// be shared across workers. Cell values are a pure function of the
    /// cell centre, so the result is bit-identical for every thread count;
    /// `threads <= 1` runs inline with no spawn overhead.
    ///
    /// The thread count is tuned down ([`crate::par::tuned_threads`])
    /// when the grid is too small to amortize spawns, and rows are
    /// grouped into multi-row chunks ([`crate::par::auto_chunk_len`]) so
    /// large grids hand each worker a few coarse pieces instead of one
    /// row at a time.
    pub fn from_fn_par(spec: GridSpec, threads: usize, f: impl Fn(P2) -> f64 + Sync) -> Self {
        Self::from_fn_par_window(spec, GridPatch::whole(spec), threads, f)
    }

    /// [`Self::from_fn_par`] over one window of `parent`: the result is
    /// shaped like `window.spec`, and cell `(ix, iy)` holds `f` at the
    /// **parent** cell centre `(ix + x0, iy + y0)` — bit-identical to the
    /// same cell of a full-`parent` fill.
    pub fn from_fn_par_window(
        parent: GridSpec,
        window: GridPatch,
        threads: usize,
        f: impl Fn(P2) -> f64 + Sync,
    ) -> Self {
        let mut g = Self::zeros(window.spec);
        let nx = window.spec.nx.max(1);
        // A cell evaluation is ~a few hundred ns worst case; 4096 cells
        // per shard keeps the spawn cost under a percent.
        let threads = crate::par::tuned_threads(g.data.len(), threads, 4096);
        let chunk = crate::par::auto_chunk_len(g.data.len(), nx, threads);
        crate::par::for_each_chunk_mut_named(
            "grid.fill",
            &mut g.data,
            chunk,
            threads,
            |start, row| {
                for (off, v) in row.iter_mut().enumerate() {
                    let idx = start + off;
                    *v = f(parent.cell_center(window.x0 + idx % nx, window.y0 + idx / nx));
                }
            },
        );
        g
    }

    /// The grid geometry.
    #[inline]
    pub fn spec(&self) -> GridSpec {
        self.spec
    }

    /// Cell value.
    #[inline]
    pub fn get(&self, ix: usize, iy: usize) -> f64 {
        self.data[self.spec.flat(ix, iy)]
    }

    /// Mutable cell access.
    #[inline]
    pub fn get_mut(&mut self, ix: usize, iy: usize) -> &mut f64 {
        &mut self.data[self.spec.flat(ix, iy)]
    }

    /// Sets a cell value.
    #[inline]
    pub fn set(&mut self, ix: usize, iy: usize, v: f64) {
        let i = self.spec.flat(ix, iy);
        self.data[i] = v;
    }

    /// Value at the cell containing world point `p`, if inside.
    pub fn at(&self, p: P2) -> Option<f64> {
        self.spec.cell_of(p).map(|(ix, iy)| self.get(ix, iy))
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Raw mutable row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Adds another grid cell-wise (the "sum likelihoods across anchors"
    /// step of §5.3).
    ///
    /// # Panics
    /// Panics if the specs differ.
    pub fn add_assign(&mut self, other: &Grid2D) {
        assert_eq!(self.spec, other.spec, "grid specs must match to combine");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Multiplies every cell by `k`.
    pub fn scale(&mut self, k: f64) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// The maximum cell value and its `(ix, iy)` index; `None` when empty.
    pub fn argmax(&self) -> Option<(usize, usize, f64)> {
        let (mut best, mut best_i) = (f64::NEG_INFINITY, None);
        for iy in 0..self.spec.ny {
            for ix in 0..self.spec.nx {
                let v = self.get(ix, iy);
                if v > best {
                    best = v;
                    best_i = Some((ix, iy));
                }
            }
        }
        best_i.map(|(ix, iy)| (ix, iy, best))
    }

    /// Sum of all cells.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Normalizes the grid so cells sum to 1 (probability mass); no-op for
    /// an all-zero grid.
    pub fn normalize_mass(&mut self) {
        let s = self.sum();
        if s > 0.0 {
            self.scale(1.0 / s);
        }
    }

    /// Normalizes so the maximum cell becomes 1; no-op for all-zero grids.
    pub fn normalize_peak(&mut self) {
        if let Some((_, _, m)) = self.argmax() {
            if m > 0.0 {
                self.scale(1.0 / m);
            }
        }
    }

    /// Bilinearly interpolated value at world point `p`. Points outside
    /// the grid (or within half a cell of the border) clamp to the nearest
    /// cell centre. `None` only when the grid is empty.
    pub fn bilinear(&self, p: P2) -> Option<f64> {
        if self.spec.is_empty() {
            return None;
        }
        let fx = (p.x - self.spec.origin.x) / self.spec.resolution - 0.5;
        let fy = (p.y - self.spec.origin.y) / self.spec.resolution - 0.5;
        let fx = fx.clamp(0.0, (self.spec.nx - 1) as f64);
        let fy = fy.clamp(0.0, (self.spec.ny - 1) as f64);
        let x0 = fx.floor() as usize;
        let y0 = fy.floor() as usize;
        let x1 = (x0 + 1).min(self.spec.nx - 1);
        let y1 = (y0 + 1).min(self.spec.ny - 1);
        let tx = fx - x0 as f64;
        let ty = fy - y0 as f64;
        let v00 = self.get(x0, y0);
        let v10 = self.get(x1, y0);
        let v01 = self.get(x0, y1);
        let v11 = self.get(x1, y1);
        Some(
            v00 * (1.0 - tx) * (1.0 - ty)
                + v10 * tx * (1.0 - ty)
                + v01 * (1.0 - tx) * ty
                + v11 * tx * ty,
        )
    }

    /// Copies the values under `patch` (a window of this grid's own spec)
    /// into a patch-shaped grid.
    ///
    /// # Panics
    /// Panics when the patch window does not fit inside this grid.
    pub fn extract(&self, patch: &GridPatch) -> Grid2D {
        assert!(
            patch.x0 + patch.spec.nx <= self.spec.nx && patch.y0 + patch.spec.ny <= self.spec.ny,
            "patch window must lie inside the parent grid"
        );
        let mut out = Grid2D::zeros(patch.spec);
        for iy in 0..patch.spec.ny {
            for ix in 0..patch.spec.nx {
                let (px, py) = patch.to_parent(ix, iy);
                out.set(ix, iy, self.get(px, py));
            }
        }
        out
    }

    /// Extracts the values in a circular window of half-width `radius`
    /// cells centred on `(cx, cy)`, clipped to the grid.
    ///
    /// This is the "circular neighborhood window of window size 7 × 7"
    /// (paper §7, radius 3) over which the multipath-rejection entropy is
    /// computed.
    pub fn circular_window(&self, cx: usize, cy: usize, radius: usize) -> Vec<f64> {
        let r = radius as isize;
        let r2 = r * r;
        let mut out = Vec::with_capacity((2 * radius + 1).pow(2));
        for dy in -r..=r {
            for dx in -r..=r {
                if dx * dx + dy * dy > r2 {
                    continue;
                }
                let x = cx as isize + dx;
                let y = cy as isize + dy;
                if x < 0 || y < 0 || x as usize >= self.spec.nx || y as usize >= self.spec.ny {
                    continue;
                }
                out.push(self.get(x as usize, y as usize));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec_3x2() -> GridSpec {
        GridSpec {
            origin: P2::new(-1.0, -1.0),
            resolution: 0.5,
            nx: 3,
            ny: 2,
        }
    }

    #[test]
    fn covering_rounds_up() {
        let s = GridSpec::covering(P2::ORIGIN, P2::new(1.0, 1.0), 0.3);
        assert_eq!((s.nx, s.ny), (4, 4));
    }

    #[test]
    fn cell_center_and_lookup_agree() {
        let s = spec_3x2();
        for iy in 0..s.ny {
            for ix in 0..s.nx {
                let c = s.cell_center(ix, iy);
                assert_eq!(s.cell_of(c), Some((ix, iy)));
            }
        }
    }

    #[test]
    fn out_of_bounds_is_none() {
        let s = spec_3x2();
        assert_eq!(s.cell_of(P2::new(-1.01, 0.0)), None);
        assert_eq!(s.cell_of(P2::new(10.0, 0.0)), None);
        assert_eq!(s.cell_of(P2::new(0.0, 0.01)), None); // just above top edge
    }

    #[test]
    fn from_fn_and_argmax() {
        let s = spec_3x2();
        let g = Grid2D::from_fn(s, |p| -(p.dist_sq(P2::new(0.25, -0.25))));
        let (ix, iy, _) = g.argmax().unwrap();
        assert_eq!(s.cell_center(ix, iy), P2::new(0.25, -0.25));
    }

    #[test]
    fn from_fn_par_matches_from_fn_for_any_thread_count() {
        let s = GridSpec {
            origin: P2::new(-1.0, 0.5),
            resolution: 0.21,
            nx: 13,
            ny: 9,
        };
        let f = |p: P2| (p.x * 1.7).sin() * (p.y * 0.9).cos() + p.x;
        let seq = Grid2D::from_fn(s, f);
        for threads in [1, 2, 3, 8] {
            let par = Grid2D::from_fn_par(s, threads, f);
            assert_eq!(seq, par, "threads = {threads} must be bit-identical");
        }
    }

    #[test]
    fn add_and_normalize() {
        let s = spec_3x2();
        let mut a = Grid2D::from_fn(s, |_| 1.0);
        let b = Grid2D::from_fn(s, |_| 2.0);
        a.add_assign(&b);
        assert_eq!(a.sum(), 3.0 * s.len() as f64);
        a.normalize_mass();
        assert!((a.sum() - 1.0).abs() < 1e-12);
        a.normalize_peak();
        assert!((a.argmax().unwrap().2 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "grid specs must match")]
    fn mismatched_add_panics() {
        let mut a = Grid2D::zeros(spec_3x2());
        let b = Grid2D::zeros(GridSpec::covering(P2::ORIGIN, P2::new(1.0, 1.0), 0.5));
        a.add_assign(&b);
    }

    #[test]
    fn circular_window_size_interior() {
        // 7×7 circular window (radius 3): 29 cells pass the dx²+dy² ≤ 9 test.
        let s = GridSpec {
            origin: P2::ORIGIN,
            resolution: 0.1,
            nx: 20,
            ny: 20,
        };
        let g = Grid2D::zeros(s);
        assert_eq!(g.circular_window(10, 10, 3).len(), 29);
    }

    #[test]
    fn circular_window_clips_at_edges() {
        let s = GridSpec {
            origin: P2::ORIGIN,
            resolution: 0.1,
            nx: 20,
            ny: 20,
        };
        let g = Grid2D::zeros(s);
        assert!(g.circular_window(0, 0, 3).len() < 29);
        assert!(!g.circular_window(0, 0, 3).is_empty());
    }

    #[test]
    fn bilinear_matches_cells_and_interpolates() {
        let s = GridSpec {
            origin: P2::ORIGIN,
            resolution: 1.0,
            nx: 3,
            ny: 3,
        };
        let g = Grid2D::from_fn(s, |p| p.x + 10.0 * p.y);
        // At a cell centre, bilinear equals the cell value.
        let c = s.cell_center(1, 1);
        assert!((g.bilinear(c).unwrap() - g.get(1, 1)).abs() < 1e-12);
        // Midway between two centres: the average.
        let mid = s.cell_center(0, 1).midpoint(s.cell_center(1, 1));
        let expect = (g.get(0, 1) + g.get(1, 1)) / 2.0;
        assert!((g.bilinear(mid).unwrap() - expect).abs() < 1e-12);
        // Outside clamps rather than extrapolating.
        let out = g.bilinear(P2::new(-5.0, -5.0)).unwrap();
        assert!((out - g.get(0, 0)).abs() < 1e-12);
    }

    #[test]
    fn coarsen_covers_and_maps_indices_odd_sizes() {
        // 13×9 at 0.21 m coarsened by 4 → 4×3 cells of 0.84 m covering at
        // least the fine extent, with fine (ix, iy) inside coarse
        // (ix/4, iy/4).
        let s = GridSpec {
            origin: P2::new(-1.0, 0.5),
            resolution: 0.21,
            nx: 13,
            ny: 9,
        };
        let c = s.coarsen(4);
        assert_eq!((c.nx, c.ny), (4, 3));
        assert_eq!(c.origin, s.origin);
        assert!((c.resolution - 0.84).abs() < 1e-15);
        assert!(c.nx as f64 * c.resolution >= s.nx as f64 * s.resolution - 1e-12);
        assert!(c.ny as f64 * c.resolution >= s.ny as f64 * s.resolution - 1e-12);
        for iy in 0..s.ny {
            for ix in 0..s.nx {
                let center = s.cell_center(ix, iy);
                assert_eq!(c.cell_of(center), Some((ix / 4, iy / 4)));
            }
        }
    }

    #[test]
    fn coarsen_by_one_is_identity() {
        let s = spec_3x2();
        assert_eq!(s.coarsen(1), s);
    }

    #[test]
    #[should_panic(expected = "factor must be >= 1")]
    fn coarsen_by_zero_panics() {
        let _ = spec_3x2().coarsen(0);
    }

    #[test]
    fn patch_interior_exact_index_mapping() {
        let s = GridSpec {
            origin: P2::new(-0.5, -0.5),
            resolution: 0.08,
            nx: 75,
            ny: 88,
        };
        let center = s.cell_center(40, 50);
        let p = s.patch(center, 0.4); // 0.4 / 0.08 = 5 cells each side
        assert_eq!((p.x0, p.y0), (35, 45));
        assert_eq!((p.spec.nx, p.spec.ny), (11, 11));
        // Round-trip index mapping and near-identical cell centres (the
        // patch origin is derived arithmetically, so centres agree to
        // floating-point rounding, not necessarily bit-for-bit).
        for iy in 0..p.spec.ny {
            for ix in 0..p.spec.nx {
                let (px, py) = p.to_parent(ix, iy);
                assert_eq!(p.from_parent(px, py), Some((ix, iy)));
                let a = p.spec.cell_center(ix, iy);
                let b = s.cell_center(px, py);
                assert!(a.dist(b) < 1e-10, "{a} vs {b}");
            }
        }
        // The centre cell maps back to the requested parent cell.
        assert_eq!(p.from_parent(40, 50), Some((5, 5)));
        assert_eq!(p.from_parent(0, 0), None);
    }

    #[test]
    fn patch_clamps_at_boundaries() {
        let s = GridSpec {
            origin: P2::ORIGIN,
            resolution: 0.1,
            nx: 20,
            ny: 10,
        };
        // Near the lower-left corner: the window clips to the grid.
        let p = s.patch(s.cell_center(1, 0), 0.3);
        assert_eq!((p.x0, p.y0), (0, 0));
        assert_eq!((p.spec.nx, p.spec.ny), (5, 4));
        // A centre outside the grid clamps to the border cell.
        let q = s.patch(P2::new(99.0, -99.0), 0.2);
        assert_eq!((q.x0, q.y0), (17, 0));
        assert_eq!((q.spec.nx, q.spec.ny), (3, 3));
        // Degenerate half-extent: the single containing cell.
        let r = s.patch(s.cell_center(7, 4), 0.0);
        assert_eq!((r.x0, r.y0, r.spec.nx, r.spec.ny), (7, 4, 1, 1));
        // Unbounded half-extent: the whole grid, no index overflow.
        let w = s.patch(s.cell_center(7, 4), f64::INFINITY);
        assert_eq!((w.x0, w.y0, w.spec.nx, w.spec.ny), (0, 0, 20, 10));
    }

    #[test]
    fn patch_interior_border_distance() {
        let s = GridSpec {
            origin: P2::ORIGIN,
            resolution: 0.1,
            nx: 20,
            ny: 10,
        };
        // Patch flush with the left and bottom parent borders: only its
        // right and top edges are interior cuts.
        let p = s.patch(s.cell_center(1, 1), 0.25);
        assert_eq!((p.x0, p.y0), (0, 0));
        let (nx, ny) = (p.spec.nx, p.spec.ny);
        assert_eq!(p.interior_border_dist(&s, 0, 0), (nx - 1).min(ny - 1));
        assert_eq!(p.interior_border_dist(&s, nx - 1, 0), 0);
        assert_eq!(p.interior_border_dist(&s, 0, ny - 1), 0);
        // A patch spanning the whole parent has no interior borders.
        let q = s.patch(s.cell_center(10, 5), 100.0);
        assert_eq!((q.spec.nx, q.spec.ny), (s.nx, s.ny));
        assert_eq!(q.interior_border_dist(&s, 3, 3), usize::MAX);
    }

    #[test]
    fn extract_copies_patch_values() {
        let s = GridSpec {
            origin: P2::ORIGIN,
            resolution: 0.5,
            nx: 9,
            ny: 7,
        };
        let g = Grid2D::from_fn(s, |p| p.x * 10.0 + p.y);
        let patch = s.patch(s.cell_center(4, 3), 0.75);
        let sub = g.extract(&patch);
        assert_eq!(sub.spec(), patch.spec);
        for iy in 0..patch.spec.ny {
            for ix in 0..patch.spec.nx {
                let (px, py) = patch.to_parent(ix, iy);
                assert_eq!(sub.get(ix, iy), g.get(px, py));
            }
        }
    }

    #[test]
    fn window_fill_reads_parent_cell_centres() {
        let s = GridSpec {
            origin: P2::new(-0.7, 0.3),
            resolution: 0.13,
            nx: 23,
            ny: 17,
        };
        let f = |p: P2| p.x * 7.0 + p.y;
        let full = Grid2D::from_fn_par(s, 1, f);
        let interior = s.patch(s.cell_center(11, 8), 0.5);
        for w in [
            interior,
            s.patch(P2::new(-9.0, 9.0), 0.3),
            GridPatch::whole(s),
        ] {
            // Bit-equal to the full fill restricted to the window.
            assert_eq!(Grid2D::from_fn_par_window(s, w, 2, f), full.extract(&w));
            for iy in 0..w.spec.ny {
                assert_eq!(w.parent_row_start(&s, iy), s.flat(w.x0, w.y0 + iy));
            }
        }
        assert!(GridPatch::whole(s).spans_rows_of(&s));
        assert!(!interior.spans_rows_of(&s));
    }

    proptest! {
        #[test]
        fn prop_patch_mapping_is_exact(
            cx in 0usize..23, cy in 0usize..17, half in 0.0..2.0f64
        ) {
            let s = GridSpec { origin: P2::new(-0.7, 0.3), resolution: 0.13, nx: 23, ny: 17 };
            let p = s.patch(s.cell_center(cx, cy), half);
            prop_assert!(p.spec.nx >= 1 && p.spec.ny >= 1);
            prop_assert!(p.x0 + p.spec.nx <= s.nx && p.y0 + p.spec.ny <= s.ny);
            // The requested centre cell is always covered.
            prop_assert!(p.from_parent(cx, cy).is_some());
            for iy in 0..p.spec.ny {
                for ix in 0..p.spec.nx {
                    let (px, py) = p.to_parent(ix, iy);
                    prop_assert_eq!(p.from_parent(px, py), Some((ix, iy)));
                    prop_assert!(p.spec.cell_center(ix, iy).dist(s.cell_center(px, py)) < 1e-9);
                }
            }
        }

        #[test]
        fn prop_bilinear_within_cell_bounds(x in 0.0..2.9f64, y in 0.0..2.9f64) {
            let s = GridSpec { origin: P2::ORIGIN, resolution: 1.0, nx: 3, ny: 3 };
            let g = Grid2D::from_fn(s, |p| (p.x * 1.3).sin() + (p.y * 0.7).cos());
            let v = g.bilinear(P2::new(x, y)).unwrap();
            let lo = g.data().iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = g.data().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            // Bilinear interpolation never over/undershoots the data range.
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
        }

        #[test]
        fn prop_cell_of_total_inside(x in 0.0..3.0f64, y in 0.0..2.0f64) {
            let s = GridSpec { origin: P2::ORIGIN, resolution: 0.25, nx: 12, ny: 8 };
            // Points strictly inside the covered region always map to a cell.
            prop_assume!(x < 3.0 && y < 2.0);
            let c = s.cell_of(P2::new(x, y));
            prop_assert!(c.is_some());
            let (ix, iy) = c.unwrap();
            let center = s.cell_center(ix, iy);
            prop_assert!((center.x - x).abs() <= s.resolution / 2.0 + 1e-12);
            prop_assert!((center.y - y).abs() <= s.resolution / 2.0 + 1e-12);
        }
    }
}
