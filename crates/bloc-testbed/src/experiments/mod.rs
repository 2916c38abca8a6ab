//! One module per paper figure (see DESIGN.md §4 for the experiment
//! index). Every module exposes `run(&ExperimentSize) -> …Result` where
//! the result is serializable and renders the same rows/series the paper
//! reports. The `bloc-bench` figure binaries run them at paper scale;
//! the integration tests run them at smoke scale.

pub mod degradation;
pub mod ext_fusion;
pub mod fig10_bandwidth;
pub mod fig11_interference;
pub mod fig12_multipath;
pub mod fig13_location;
pub mod fig4_gfsk;
pub mod fig6_likelihoods;
pub mod fig8a_csi_stability;
pub mod fig8b_offset_cancellation;
pub mod fig8c_profile;
pub mod fig9a_accuracy;
pub mod fig9b_anchors;
pub mod fig9c_antennas;

/// How large to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentSize {
    /// Number of tag locations evaluated.
    pub locations: usize,
    /// Master seed (scenario, dataset and soundings derive from it).
    pub seed: u64,
}

impl ExperimentSize {
    /// The paper's scale: 1700 locations.
    pub fn paper() -> Self {
        Self {
            locations: crate::dataset::PAPER_DATASET_SIZE,
            seed: 2018,
        }
    }

    /// A fast smoke scale for tests.
    pub fn smoke() -> Self {
        Self {
            locations: 48,
            seed: 2018,
        }
    }

    /// A custom location count at the standard seed.
    pub fn locations(n: usize) -> Self {
        Self {
            locations: n,
            seed: 2018,
        }
    }
}

/// Formats a `(value, probability)` CDF series as aligned text rows.
pub fn format_cdf(name: &str, rows: &[(f64, f64)]) -> String {
    let mut out = format!("  CDF [{name}] (error m → P(err ≤ x)):\n");
    for (v, p) in rows {
        out.push_str(&format!("    {v:5.2}  {p:6.3}\n"));
    }
    out
}
