//! Evaluation metrics: error summaries, CDFs and the spatial RMSE map.

use bloc_chan::geometry::Room;
use bloc_num::stats::{mean, median, percentile, std_dev, Ecdf};
use bloc_num::{Grid2D, GridSpec, P2};

/// Summary statistics of a localization-error sample (all metres).
#[derive(Debug, Clone)]
pub struct ErrorStats {
    /// Number of evaluated locations.
    pub n: usize,
    /// Median error — the paper's headline metric.
    pub median: f64,
    /// 90th-percentile error.
    pub p90: f64,
    /// Mean error.
    pub mean: f64,
    /// Standard deviation (the Fig. 10 error bars).
    pub std_dev: f64,
    /// The full empirical CDF (the Figs. 9/12 curves).
    pub ecdf: Ecdf,
}

impl ErrorStats {
    /// Summarizes a (finite) error sample.
    pub fn from_errors(errors: Vec<f64>) -> Self {
        Self {
            n: errors.len(),
            median: median(&errors),
            p90: percentile(&errors, 90.0),
            mean: mean(&errors),
            std_dev: std_dev(&errors),
            ecdf: Ecdf::new(errors),
        }
    }

    /// Renders the CDF sampled at `bins` points up to `max_err` as
    /// printable `(error, probability)` rows — the series a figure plots.
    pub fn cdf_rows(&self, max_err: f64, bins: usize) -> Vec<(f64, f64)> {
        self.ecdf
            .sample_curve(0.0, max_err, bins)
            .into_iter()
            .map(|p| (p.value, p.probability))
            .collect()
    }
}

/// Accumulates localization errors per spatial cell and reports per-cell
/// RMSE — paper Fig. 13 ("we plot the RMSE values at different locations
/// of the BLE tag within the environment").
#[derive(Debug, Clone)]
pub struct RmseMap {
    spec: GridSpec,
    sum_sq: Vec<f64>,
    count: Vec<u32>,
}

impl RmseMap {
    /// A map over `room` with the given cell size.
    pub fn for_room(room: &Room, cell: f64) -> Self {
        let spec = GridSpec::covering(P2::ORIGIN, P2::new(room.width, room.height), cell);
        Self {
            spec,
            sum_sq: vec![0.0; spec.len()],
            count: vec![0; spec.len()],
        }
    }

    /// Records one localization attempt: the true position and its error.
    /// Positions outside the map are ignored.
    pub fn record(&mut self, truth: P2, error: f64) {
        if let Some((ix, iy)) = self.spec.cell_of(truth) {
            let k = self.spec.flat(ix, iy);
            self.sum_sq[k] += error * error;
            self.count[k] += 1;
        }
    }

    /// Merges another map (parallel reduction).
    ///
    /// # Panics
    /// Panics on mismatched specs.
    pub fn merge(&mut self, other: &RmseMap) {
        assert_eq!(self.spec, other.spec, "RMSE maps must share a spec");
        for (a, b) in self.sum_sq.iter_mut().zip(&other.sum_sq) {
            *a += b;
        }
        for (a, b) in self.count.iter_mut().zip(&other.count) {
            *a += b;
        }
    }

    /// The per-cell RMSE grid (`NaN` for never-visited cells).
    pub fn rmse_grid(&self) -> Grid2D {
        let mut g = Grid2D::zeros(self.spec);
        for iy in 0..self.spec.ny {
            for ix in 0..self.spec.nx {
                let k = self.spec.flat(ix, iy);
                let v = if self.count[k] == 0 {
                    f64::NAN
                } else {
                    (self.sum_sq[k] / self.count[k] as f64).sqrt()
                };
                g.set(ix, iy, v);
            }
        }
        g
    }

    /// The grid geometry.
    pub fn spec(&self) -> GridSpec {
        self.spec
    }

    /// Mean RMSE over visited cells in a region predicate (e.g. corners vs
    /// centre — the Fig. 13 observation).
    pub fn mean_rmse_where(&self, mut pred: impl FnMut(P2) -> bool) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for iy in 0..self.spec.ny {
            for ix in 0..self.spec.nx {
                let k = self.spec.flat(ix, iy);
                if self.count[k] > 0 && pred(self.spec.cell_center(ix, iy)) {
                    total += (self.sum_sq[k] / self.count[k] as f64).sqrt();
                    n += 1;
                }
            }
        }
        if n == 0 {
            f64::NAN
        } else {
            total / n as f64
        }
    }
}

/// Serializes CDF rows as a two-column CSV (`error_m,probability`) for
/// external plotting.
pub fn cdf_to_csv(rows: &[(f64, f64)]) -> String {
    let mut out = String::from("error_m,probability\n");
    for (v, p) in rows {
        out.push_str(&format!("{v:.4},{p:.6}\n"));
    }
    out
}

/// Serializes a grid as CSV (`x_m,y_m,value`), skipping `NaN` cells — the
/// portable form of the Fig. 13 heat map.
pub fn grid_to_csv(grid: &Grid2D) -> String {
    let spec = grid.spec();
    let mut out = String::from("x_m,y_m,value\n");
    for iy in 0..spec.ny {
        for ix in 0..spec.nx {
            let v = grid.get(ix, iy);
            if v.is_finite() {
                let c = spec.cell_center(ix, iy);
                out.push_str(&format!("{:.3},{:.3},{v:.4}\n", c.x, c.y));
            }
        }
    }
    out
}

/// Renders a grid as a compact ASCII heat map (for figure binaries); `NaN`
/// cells print as spaces. Rows are printed top (max y) first.
pub fn ascii_heatmap(grid: &Grid2D, width_chars: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let spec = grid.spec();
    let step = (spec.nx / width_chars.max(1)).max(1);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in grid.data() {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() || hi <= lo {
        hi = lo + 1.0;
    }
    let mut out = String::new();
    let mut iy = spec.ny;
    while iy > 0 {
        iy = iy.saturating_sub(step);
        for ix in (0..spec.nx).step_by(step) {
            let v = grid.get(ix, iy);
            if v.is_finite() {
                // Finite cells always render visibly: index 1.. of the ramp.
                let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
                let idx = 1 + ((t * (RAMP.len() - 2) as f64).round() as usize).min(RAMP.len() - 2);
                out.push(RAMP[idx] as char);
            } else {
                out.push(' ');
            }
        }
        out.push('\n');
        if iy == 0 {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_stats_basics() {
        let s = ErrorStats::from_errors(vec![0.5, 1.0, 1.5, 2.0, 10.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 1.5);
        assert!(s.p90 > 2.0 && s.p90 <= 10.0);
        assert!(s.mean > s.median, "outlier pulls the mean up");
    }

    #[test]
    fn cdf_rows_monotone() {
        let s = ErrorStats::from_errors(vec![0.2, 0.4, 0.9, 1.3]);
        let rows = s.cdf_rows(2.0, 11);
        assert_eq!(rows.len(), 11);
        assert!(rows.windows(2).all(|w| w[1].1 >= w[0].1));
        assert_eq!(rows.last().unwrap().1, 1.0);
    }

    #[test]
    fn rmse_map_accumulates() {
        let room = Room::new(5.0, 6.0);
        let mut m = RmseMap::for_room(&room, 1.0);
        m.record(P2::new(0.5, 0.5), 1.0);
        m.record(P2::new(0.5, 0.5), 3.0);
        let g = m.rmse_grid();
        // RMS of {1, 3} = √5.
        assert!((g.get(0, 0) - 5f64.sqrt()).abs() < 1e-12);
        assert!(g.get(1, 1).is_nan(), "unvisited cells are NaN");
    }

    #[test]
    fn rmse_map_ignores_outside() {
        let room = Room::new(5.0, 6.0);
        let mut m = RmseMap::for_room(&room, 1.0);
        m.record(P2::new(-1.0, 0.0), 1.0);
        assert!(m.rmse_grid().data().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn rmse_merge_matches_sequential() {
        let room = Room::new(5.0, 6.0);
        let mut a = RmseMap::for_room(&room, 1.0);
        let mut b = RmseMap::for_room(&room, 1.0);
        let mut whole = RmseMap::for_room(&room, 1.0);
        for (k, &(x, y, e)) in [(1.0, 1.0, 0.5), (1.2, 1.1, 1.5), (3.0, 4.0, 2.0)]
            .iter()
            .enumerate()
        {
            let p = P2::new(x, y);
            whole.record(p, e);
            if k % 2 == 0 {
                a.record(p, e);
            } else {
                b.record(p, e);
            }
        }
        a.merge(&b);
        // Cell-wise comparison (NaN == NaN for unvisited cells).
        let ga = a.rmse_grid();
        let gw = whole.rmse_grid();
        for (x, y) in ga.data().iter().zip(gw.data()) {
            assert!(
                (x.is_nan() && y.is_nan()) || (x - y).abs() < 1e-12,
                "merged {x} vs sequential {y}"
            );
        }
    }

    #[test]
    fn mean_rmse_regions() {
        let room = Room::new(4.0, 4.0);
        let mut m = RmseMap::for_room(&room, 1.0);
        m.record(P2::new(0.5, 0.5), 2.0); // corner
        m.record(P2::new(2.5, 2.5), 0.5); // centre
        let corner = m.mean_rmse_where(|p| p.dist(P2::new(0.0, 0.0)) < 1.5);
        let center = m.mean_rmse_where(|p| p.dist(P2::new(2.0, 2.0)) < 1.5);
        assert!(corner > center);
    }

    #[test]
    fn csv_exports() {
        let s = ErrorStats::from_errors(vec![0.5, 1.0, 1.5]);
        let csv = cdf_to_csv(&s.cdf_rows(2.0, 5));
        assert!(csv.starts_with("error_m,probability"));
        assert_eq!(csv.lines().count(), 6);

        let room = Room::new(5.0, 6.0);
        let mut m = RmseMap::for_room(&room, 1.0);
        m.record(P2::new(0.5, 0.5), 1.0);
        let gcsv = grid_to_csv(&m.rmse_grid());
        assert_eq!(gcsv.lines().count(), 2, "header + the one visited cell");
        assert!(gcsv.contains("0.500,0.500"));
    }

    #[test]
    fn heatmap_renders() {
        let room = Room::new(5.0, 6.0);
        let mut m = RmseMap::for_room(&room, 0.5);
        m.record(P2::new(2.5, 3.0), 1.0);
        let art = ascii_heatmap(&m.rmse_grid(), 20);
        assert!(art.contains('\n'));
        assert!(
            art.chars().any(|c| c != ' ' && c != '\n'),
            "visited cell must render"
        );
    }
}
