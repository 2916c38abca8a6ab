//! Fig. 9(b): effect of the number of anchor points.
//!
//! Paper: with 3 anchors BLoc's median rises from 86 cm to 91.5 cm (p90
//! 170 → 175 cm); AoA rises 242 → 247 cm (p90 340 → 350); with 2 anchors
//! both degrade substantially. For the 3-anchor case the paper averages
//! over all anchor subsets; here subsets must retain anchor 0 (the
//! sounding's master — Eq. 10 references ĥ₀₀), so the average runs over
//! the three 0-containing subsets (recorded in EXPERIMENTS.md).

use std::sync::Arc;

use super::ExperimentSize;
use crate::dataset::sample_positions;
use crate::metrics::ErrorStats;
use crate::runner::{sweep, Method, SweepSpec};
use crate::scenario::Scenario;

/// Stats for one (method, anchor-count) cell.
#[derive(Debug, Clone)]
pub struct AnchorCountStats {
    /// Number of anchors used.
    pub n_anchors: usize,
    /// Pooled error statistics (across all evaluated subsets).
    pub stats: ErrorStats,
    /// Number of anchor subsets averaged.
    pub n_subsets: usize,
}

/// Result of the Fig. 9(b) experiment.
#[derive(Debug, Clone)]
pub struct Fig9bResult {
    /// BLoc, for 2/3/4 anchors.
    pub bloc: Vec<AnchorCountStats>,
    /// AoA baseline, for 2/3/4 anchors.
    pub aoa: Vec<AnchorCountStats>,
}

/// The anchor subsets evaluated per count (all must contain the master).
pub fn subsets_for(n: usize) -> Vec<Vec<usize>> {
    match n {
        4 => vec![vec![0, 1, 2, 3]],
        3 => vec![vec![0, 1, 2], vec![0, 1, 3], vec![0, 2, 3]],
        2 => vec![vec![0, 1], vec![0, 2], vec![0, 3]],
        _ => panic!("anchor counts evaluated: 2, 3, 4"),
    }
}

/// Runs the anchor-count ablation.
pub fn run(size: &ExperimentSize) -> Fig9bResult {
    let scenario = Scenario::paper_testbed(size.seed);
    let positions = sample_positions(&scenario.room, size.locations, size.seed ^ 0x9B);

    let mut bloc = Vec::new();
    let mut aoa = Vec::new();
    for n in [2usize, 3, 4] {
        let subsets = subsets_for(n);
        let mut bloc_errors = Vec::new();
        let mut aoa_errors = Vec::new();
        for subset in &subsets {
            let subset = subset.clone();
            let spec = SweepSpec {
                transform: Some(Arc::new(move |d: bloc_chan::sounder::SoundingData| {
                    d.with_anchor_subset(&subset)
                })),
                ..SweepSpec::standard(
                    &scenario,
                    &positions,
                    vec![Method::Bloc, Method::AoaBaseline],
                    size.seed,
                )
            };
            let out = sweep(&spec);
            bloc_errors.extend(out[0].stats.ecdf.sorted_values().iter().copied());
            aoa_errors.extend(out[1].stats.ecdf.sorted_values().iter().copied());
        }
        bloc.push(AnchorCountStats {
            n_anchors: n,
            stats: ErrorStats::from_errors(bloc_errors),
            n_subsets: subsets.len(),
        });
        aoa.push(AnchorCountStats {
            n_anchors: n,
            stats: ErrorStats::from_errors(aoa_errors),
            n_subsets: subsets.len(),
        });
    }
    Fig9bResult { bloc, aoa }
}

impl Fig9bResult {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig. 9b — effect of number of anchors (median / p90, m)\n");
        out.push_str("  anchors |        BLoc       |    AoA-baseline   | subsets\n");
        for (b, a) in self.bloc.iter().zip(&self.aoa) {
            out.push_str(&format!(
                "     {}    |  {:5.2} / {:5.2}    |  {:5.2} / {:5.2}    |   {}\n",
                b.n_anchors, b.stats.median, b.stats.p90, a.stats.median, a.stats.p90, b.n_subsets
            ));
        }
        out.push_str("  (paper, 4→3 anchors: BLoc 0.86→0.915 / 1.70→1.75; AoA 2.42→2.47 / 3.40→3.50;\n   2 anchors: significant increase for both)\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_enumeration() {
        assert_eq!(subsets_for(4).len(), 1);
        assert_eq!(subsets_for(3).len(), 3);
        assert_eq!(subsets_for(2).len(), 3);
        for n in [2, 3, 4] {
            for s in subsets_for(n) {
                assert!(s.contains(&0), "master must be in every subset");
                assert_eq!(s.len(), n);
            }
        }
    }

    #[test]
    fn fewer_anchors_do_not_improve_bloc() {
        let r = run(&ExperimentSize {
            locations: 24,
            seed: 2018,
        });
        let med = |v: &[AnchorCountStats], n: usize| {
            v.iter().find(|s| s.n_anchors == n).unwrap().stats.median
        };
        // 4 anchors ≤ 2 anchors (monotonicity at the ends; 3 vs 4 can be
        // within noise at smoke size).
        assert!(med(&r.bloc, 4) <= med(&r.bloc, 2) + 0.05);
        // 2-anchor BLoc degrades noticeably, as in the paper.
        assert!(med(&r.bloc, 2) > med(&r.bloc, 4));
    }
}
