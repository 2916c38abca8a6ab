//! RSSI fingerprint database with masked, distance-weighted KNN queries.
//!
//! The classic WiFi/BLE fingerprinting recipe (metre-class accuracy —
//! the 3.7 m regime of the RSSI-KNN literature) adapted to BLoc's
//! sounding format: a survey pass records, per training position, the
//! per-(band, anchor) mean `|ĥ|` in dB — an RSSI vector with one entry
//! per hop per anchor. A live query extracts the same features from a
//! possibly fault-ridden [`SoundingData`] and carries a **mask**: holes
//! (exactly-zero rows, the workspace-wide lost-packet convention) drop
//! out of the feature vector entirely, so the fingerprint distance is
//! evaluated only on the evidence that survived — the database does not
//! need to model the fault process at all.
//!
//! Matching runs on [`bloc_num::knn`] (deterministic, thread-count
//! independent); the estimate is the distance-weighted mean of the `k`
//! nearest surveyed positions, with the weighted spread reported as the
//! estimate's intrinsic uncertainty.

use bloc_chan::sounder::SoundingData;
use bloc_num::{knn, P2};

use super::FallbackError;

/// Weight regularizer: a zero-distance (exact duplicate) neighbour gets
/// weight `1/EPS` — enormous but finite, so ties between duplicates
/// still average instead of dividing by zero.
const WEIGHT_EPS: f64 = 1e-9;

/// Amplitude floor before the dB conversion (−240 dB), so a pathological
/// nonzero-but-denormal measurement cannot produce `-inf` features.
const AMP_FLOOR: f64 = 1e-12;

/// An offline-surveyed fingerprint database: one feature row (flat
/// `bands × anchors`, band-major) per surveyed position.
#[derive(Debug, Clone, PartialEq)]
pub struct FingerprintDb {
    n_bands: usize,
    n_anchors: usize,
    positions: Vec<P2>,
    features: Vec<f64>,
}

/// The result of one KNN query.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnEstimate {
    /// Distance-weighted mean of the `k` nearest surveyed positions.
    pub position: P2,
    /// Distance-weighted RMS spread of those positions about the mean,
    /// metres — the estimate's intrinsic uncertainty.
    pub spread_m: f64,
    /// The neighbours used: surveyed position and feature distance,
    /// nearest first.
    pub neighbors: Vec<(P2, f64)>,
    /// Feature dimensions that survived in the query (out of
    /// `bands × anchors`).
    pub surviving_dims: usize,
}

impl FingerprintDb {
    /// An empty database for soundings of `n_bands` hop slots over
    /// `n_anchors` anchors.
    pub fn new(n_bands: usize, n_anchors: usize) -> Self {
        Self {
            n_bands,
            n_anchors,
            positions: Vec::new(),
            features: Vec::new(),
        }
    }

    /// Surveyed positions in insertion order.
    pub fn positions(&self) -> &[P2] {
        &self.positions
    }

    /// Fingerprints stored.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when no fingerprint has been surveyed yet.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Feature dimensionality (`bands × anchors`).
    pub fn dims(&self) -> usize {
        self.n_bands * self.n_anchors
    }

    /// The flat feature matrix (row-major, one row per position) — for
    /// bit-identity regression tests.
    pub fn features(&self) -> &[f64] {
        &self.features
    }

    /// Extracts the fingerprint feature vector and survival mask from a
    /// sounding: per (band slot, anchor), the dB mean `|ĥ|` over the
    /// anchor's *surviving* antennas; the mask is false where no antenna
    /// survived (the hole is excluded from any distance).
    pub fn features_of(data: &SoundingData) -> (Vec<f64>, Vec<bool>) {
        let n_anchors = data.anchors.len();
        let dims = data.bands.len() * n_anchors;
        let mut values = Vec::with_capacity(dims);
        let mut mask = Vec::with_capacity(dims);
        for band in &data.bands {
            for i in 0..n_anchors {
                let mut sum = 0.0;
                let mut live = 0usize;
                if let Some(row) = band.tag_to_anchor.get(i) {
                    for h in row {
                        let a = h.abs();
                        if a > 0.0 && a.is_finite() {
                            sum += a;
                            live += 1;
                        }
                    }
                }
                if live > 0 {
                    let mean = (sum / live as f64).max(AMP_FLOOR);
                    values.push(20.0 * mean.log10());
                    mask.push(true);
                } else {
                    values.push(0.0);
                    mask.push(false);
                }
            }
        }
        (values, mask)
    }

    /// Surveys one training position: extracts the fingerprint of `data`
    /// and appends it.
    ///
    /// # Errors
    ///
    /// [`FallbackError::ShapeMismatch`] when the sounding's band/anchor
    /// shape disagrees with the database.
    pub fn insert(&mut self, position: P2, data: &SoundingData) -> Result<(), FallbackError> {
        self.check_shape(data)?;
        let (values, _) = Self::features_of(data);
        self.positions.push(position);
        self.features.extend_from_slice(&values);
        Ok(())
    }

    /// Appends an already-extracted feature row (the parallel survey
    /// builder extracts features in workers, then inserts in index order
    /// so builds are bit-identical across thread counts).
    ///
    /// # Errors
    ///
    /// [`FallbackError::ShapeMismatch`] when the row length is not the
    /// database dimensionality.
    pub fn insert_features(&mut self, position: P2, row: &[f64]) -> Result<(), FallbackError> {
        if row.len() != self.dims() {
            return Err(FallbackError::ShapeMismatch {
                expected: self.dims(),
                got: row.len(),
            });
        }
        self.positions.push(position);
        self.features.extend_from_slice(row);
        Ok(())
    }

    fn check_shape(&self, data: &SoundingData) -> Result<(), FallbackError> {
        let got = data.bands.len() * data.anchors.len();
        if got != self.dims() || data.anchors.len() != self.n_anchors {
            return Err(FallbackError::ShapeMismatch {
                expected: self.dims(),
                got,
            });
        }
        Ok(())
    }

    /// Distance-weighted KNN query against a live sounding: feature
    /// dimensions holed out by faults are excluded via the mask, `k` is
    /// clamped to the database size (a too-large `k` is a sane query, not
    /// an error), and neighbours are weighted `1/(d + ε)` — duplicate
    /// surveyed positions therefore collapse onto their shared location
    /// rather than dividing by zero.
    ///
    /// # Errors
    ///
    /// [`FallbackError::EmptyDatabase`] with nothing surveyed,
    /// [`FallbackError::ShapeMismatch`] on a wrong-shaped sounding, and
    /// [`FallbackError::NoSurvivingFeatures`] when every dimension of the
    /// query is masked (nothing to match on).
    pub fn query(
        &self,
        data: &SoundingData,
        k: usize,
        threads: usize,
    ) -> Result<KnnEstimate, FallbackError> {
        if self.is_empty() {
            return Err(FallbackError::EmptyDatabase);
        }
        self.check_shape(data)?;
        let (values, mask) = Self::features_of(data);
        let surviving_dims = mask.iter().filter(|&&m| m).count();
        if surviving_dims == 0 {
            return Err(FallbackError::NoSurvivingFeatures);
        }
        bloc_obs::counter("fallback.knn.queries").inc();
        bloc_obs::counter("fallback.knn.dims_surviving").add(surviving_dims as u64);
        let ranked = knn::k_nearest(
            &values,
            &mask,
            &self.features,
            self.dims(),
            k.max(1),
            threads,
        );
        if ranked.is_empty() {
            // Unreachable with surviving dims > 0 and a non-empty db,
            // but typed rather than trusted.
            return Err(FallbackError::NoSurvivingFeatures);
        }

        let mut wsum = 0.0;
        let mut px = 0.0;
        let mut py = 0.0;
        for n in &ranked {
            let w = 1.0 / (n.dist + WEIGHT_EPS);
            let p = self.positions[n.index];
            wsum += w;
            px += w * p.x;
            py += w * p.y;
        }
        let position = P2::new(px / wsum, py / wsum);
        let mut spread_sq = 0.0;
        for n in &ranked {
            let w = 1.0 / (n.dist + WEIGHT_EPS);
            spread_sq += w * self.positions[n.index].dist_sq(position);
        }
        let spread_m = (spread_sq / wsum).sqrt();
        Ok(KnnEstimate {
            position,
            spread_m,
            neighbors: ranked
                .iter()
                .map(|n| (self.positions[n.index], n.dist))
                .collect(),
            surviving_dims,
        })
    }
}
