//! Order statistics and output digests.

use bloc_num::P2;

/// The `q`-quantile (`0 ≤ q ≤ 1`) with linear interpolation between
/// order statistics (Hyndman–Fan type 7, as numpy's default); `NaN` for
/// no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of the largest `share` of the values (at least one); `NaN`
/// for no samples. Unlike a high quantile it moves smoothly when a
/// cluster of large values straddles the cut.
pub fn worst_mean(values: &[f64], share: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    let n = ((v.len() as f64 * share).round() as usize).clamp(1, v.len());
    v[..n].iter().sum::<f64>() / n as f64
}

/// FNV-1a over 64-bit words: the position digest every pass must
/// reproduce bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in one round: its identity, outcome kind and the exact bits
    /// of its position (if any).
    pub fn round(&mut self, id: (usize, u64, u64), kind: &str, position: Option<P2>) {
        self.word(id.0 as u64);
        self.word(id.1);
        self.word(id.2);
        for b in kind.bytes() {
            self.word(u64::from(b));
        }
        match position {
            Some(p) => {
                self.word(1);
                self.word(p.x.to_bits());
                self.word(p.y.to_bits());
            }
            None => self.word(0),
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_like_numpy() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn worst_mean_averages_the_largest_share() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(worst_mean(&v, 0.1), 19.5);
        assert_eq!(worst_mean(&[3.0], 0.1), 3.0);
        assert!(worst_mean(&[], 0.1).is_nan());
    }

    #[test]
    fn digest_sees_position_bits() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.round((0, 1, 2), "fix", Some(P2::new(1.0, 2.0)));
        b.round((0, 1, 2), "fix", Some(P2::new(1.0, 2.0 + 1e-15)));
        assert_ne!(a.value(), b.value());
    }
}
