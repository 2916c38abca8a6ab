//! The unified phasor-sweep core shared by the likelihood engine
//! (`bloc-core`, paper Eq. 17) and the channel-synthesis engine
//! (`bloc-chan`, paper Eq. 2).
//!
//! Both hot loops in the workspace are the same computation: a phase that
//! is **linear in frequency** (`φ(f) = w·f` with `w = ±2πd/c`) evaluated
//! over one sounding's band comb. On BLE's uniform 2 MHz comb the phasor
//! at band `k` is the base phasor times an integer power of one exact
//! comb-step phasor, so the whole sweep costs two `cis` calls (seed +
//! step) and then pure multiply-adds. [`CombPlan`] detects the comb once;
//! the two kernels below walk it:
//!
//! * [`write_comb_cells`] — the likelihood sum: SIMD lanes are the
//!   **antennas** of one (cell, anchor) pair. A lane's band sum
//!   `Σ_k α_k·e^{ιw·f_k}` is `seed·P(z)`, a polynomial in the comb step
//!   `z = e^{ιw·s}` whose coefficients are the channel weights, and
//!   Horner's rule evaluates it at one complex multiply-add per band —
//!   on a gapless comb as `E(z²) + z·O(z²)`, two independent chains.
//!   Two neighbouring cells share each pass over the weights, so four
//!   chains overlap their multiply latency. Each cell reduces to the
//!   Eq. 17 coherent/non-coherent combining value.
//! * [`sweep_tones_into`] — the synthesis recurrence: SIMD lanes are
//!   **four consecutive comb slots** of one propagation path; all paths
//!   accumulate into a dense slot buffer that is scattered back to
//!   sounding order.
//!
//! Each kernel is one generic body instantiated for both [`simd`] vector
//! implementations and runtime-dispatched ([`simd::active_level`]), so
//! the scalar fallback and the AVX2 path are bit-identical by
//! construction. Off-comb band sets fall back to per-band `cis` — still
//! exact, just not comb-accelerated.

use crate::complex::{self, C64};
use crate::simd::{self, Cx4, F64x4, ScalarX4, SimdLevel};

/// How far (in hertz) a band may sit off the comb and still count as on
/// it. BLE channel centres are exact megahertz multiples, so any real
/// deviation is a unit-test fabrication, not measurement noise.
pub const COMB_TOLERANCE_HZ: f64 = 1.0;

/// The frequency walk a recurrence kernel takes across surviving bands —
/// the one comb detector shared by the likelihood engine (`BandPlan`'s
/// former role) and the channel synthesizer (`FreqComb`'s former role).
///
/// Bands are visited in ascending frequency. When every band offset from
/// the lowest frequency is an integer multiple of one comb spacing (BLE:
/// 2 MHz), `gaps[k]` holds how many comb slots to advance from band
/// `k−1` to band `k` (first entry 0) and the rotation recurrence is
/// exact. Otherwise `step_hz` is 0 and kernels fall back to per-band
/// `cis`. Degenerate inputs (zero or one distinct frequency) are valid
/// but not a comb: the fallback handles them exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct CombPlan {
    /// Indices into the caller's band order, ascending frequency.
    pub order: Vec<usize>,
    /// Frequencies in plan (ascending) order, hertz.
    pub freqs: Vec<f64>,
    /// The lowest surviving frequency, hertz.
    pub base_hz: f64,
    /// Comb spacing, hertz; 0 when the bands are not on a uniform comb.
    pub step_hz: f64,
    /// Comb slots to advance per planned band; empty when `step_hz == 0`.
    pub gaps: Vec<u32>,
    /// Absolute comb slot of each planned band (`slots[k] = Σ gaps[..=k]`);
    /// empty when `step_hz == 0`. Lets the dense tone kernel scatter.
    pub slots: Vec<u32>,
}

impl CombPlan {
    /// Plans the walk for bands with the given centre frequencies (in
    /// their stored order).
    pub fn build(freqs_in_order: &[f64]) -> Self {
        let mut order: Vec<usize> = (0..freqs_in_order.len()).collect();
        order.sort_by(|&a, &b| freqs_in_order[a].total_cmp(&freqs_in_order[b]));
        let freqs: Vec<f64> = order.iter().map(|&k| freqs_in_order[k]).collect();
        let base_hz = freqs.first().copied().unwrap_or(0.0);

        // Candidate comb spacing: the smallest positive adjacent gap.
        let mut step_hz = f64::INFINITY;
        for w in freqs.windows(2) {
            let d = w[1] - w[0];
            if d > 0.0 {
                step_hz = step_hz.min(d);
            }
        }
        if !step_hz.is_finite() {
            // Zero or one distinct frequency: a degenerate (but valid)
            // comb — every gap is zero slots, and no recurrence applies.
            return Self {
                gaps: vec![0; freqs.len()],
                slots: vec![0; freqs.len()],
                order,
                freqs,
                base_hz,
                step_hz: 0.0,
            };
        }

        let mut gaps = Vec::with_capacity(freqs.len());
        let mut slots = Vec::with_capacity(freqs.len());
        let mut prev_slot: i64 = 0;
        for &f in &freqs {
            let raw = (f - base_hz) / step_hz;
            let rounded = raw.round();
            if ((f - base_hz) - rounded * step_hz).abs() > COMB_TOLERANCE_HZ
                || rounded < 0.0
                || rounded > u32::MAX as f64
            {
                // Off-comb band: no exact recurrence exists.
                return Self {
                    order,
                    freqs,
                    base_hz,
                    step_hz: 0.0,
                    gaps: Vec::new(),
                    slots: Vec::new(),
                };
            }
            let slot = rounded as i64;
            gaps.push((slot - prev_slot) as u32);
            slots.push(rounded as u32);
            prev_slot = slot;
        }
        Self {
            order,
            freqs,
            base_hz,
            step_hz,
            gaps,
            slots,
        }
    }

    /// True when the exact rotation recurrence applies.
    pub fn is_uniform_comb(&self) -> bool {
        self.step_hz > 0.0 && !self.gaps.is_empty()
    }

    /// Number of planned bands.
    pub fn n_bands(&self) -> usize {
        self.freqs.len()
    }

    /// Total comb slots spanned (highest slot + 1); 0 when off-comb.
    pub fn span(&self) -> usize {
        if !self.is_uniform_comb() {
            return 0;
        }
        self.slots.last().map_or(0, |&s| s as usize + 1)
    }

    /// True when every planned band advances exactly one comb slot (the
    /// BLE 37-channel case): the dense kernels skip the gap loop.
    pub fn is_dense(&self) -> bool {
        self.is_uniform_comb() && gaps_are_dense(&self.gaps)
    }
}

/// How the per-lane accumulators of one cell reduce to its likelihood
/// value — mirrors `bloc_core::likelihood::AntennaCombining` without the
/// dependency (lanes are antennas on the likelihood side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// `|Σ lanes|` — lanes sum coherently.
    Coherent,
    /// `Σ |lane|` — each lane contributes its magnitude.
    Noncoherent,
    /// `|Σ| + 0.5·Σ|·|` — the workspace's hybrid combining.
    Hybrid,
}

#[inline(always)]
fn combine_value(combine: Combine, coh_re: f64, coh_im: f64, non: f64) -> f64 {
    // `sqrt(re² + im²)` instead of `hypot`: the libm `hypot` guards
    // against overflow the likelihood magnitudes can't reach, and costs
    // more than the whole 37-band sum per cell.
    let coherent = (coh_re * coh_re + coh_im * coh_im).sqrt();
    match combine {
        Combine::Coherent => coherent,
        Combine::Noncoherent => non,
        Combine::Hybrid => coherent + 0.5 * non,
    }
}

/// Borrowed inputs for the likelihood cell kernel: one anchor's steering
/// phasors (cell-major) and channel weights (row-major), both padded to
/// `n_lanes` (a multiple of 4) with neutral lanes — weight 0, phasor 1 —
/// so padding contributes exact zeros.
#[derive(Debug, Clone, Copy)]
pub struct CellSweep<'a> {
    /// `e^{ιw·f_base}` real parts, `seed_re[cell·n_lanes + lane]`.
    pub seed_re: &'a [f64],
    /// Seed imaginary parts, same indexing.
    pub seed_im: &'a [f64],
    /// Comb step `z = e^{ιw·s}` real parts, same indexing.
    pub step_re: &'a [f64],
    /// Step imaginary parts, same indexing.
    pub step_im: &'a [f64],
    /// Channel weights `α`, `alpha_re[row·n_lanes + lane]`.
    pub alpha_re: &'a [f64],
    /// Weight imaginary parts, same indexing.
    pub alpha_im: &'a [f64],
    /// Lane stride — antennas rounded up to a multiple of 4.
    pub n_lanes: usize,
    /// Comb-slot advances per alpha row ([`CombPlan::gaps`]).
    pub gaps: &'a [u32],
    /// True when `gaps` is `[0, 1, 1, …]` ([`gaps_are_dense`]): every
    /// row is the next comb slot. The caller that laid the rows out
    /// decides this once; the kernel then takes its two-chain walk.
    pub dense: bool,
}

/// True when `gaps` walks a gapless comb, `[0, 1, 1, …]` — the layout
/// [`CellSweep::dense`] flags.
pub fn gaps_are_dense(gaps: &[u32]) -> bool {
    gaps.first() == Some(&0) && gaps[1..].iter().all(|&g| g == 1)
}

/// Lanes `lane0 .. lane0 + 4` of one alpha row.
#[inline(always)]
fn load_row<V: F64x4>(re: &[f64], im: &[f64], lane0: usize) -> Cx4<V> {
    Cx4 {
        re: V::load(&re[lane0..lane0 + 4]),
        im: V::load(&im[lane0..lane0 + 4]),
    }
}

/// The band sums `Σ_r α_r·z^r` of `K` cells over a gapless comb (`alpha`
/// holds exactly the comb's rows), by Horner's rule on the even and odd
/// rows: `E(z²) + z·O(z²)`. Each row costs one complex multiply-add per
/// cell, and the `2K` chains are independent, so their multiply latencies
/// overlap. An odd row count leaves the top row unpaired; it starts the
/// even chain.
#[inline(always)]
fn dense_sums<V: F64x4, const K: usize>(
    z: [Cx4<V>; K],
    alpha_re: &[f64],
    alpha_im: &[f64],
    nl: usize,
    lane0: usize,
) -> [Cx4<V>; K] {
    let mut z2 = z;
    for w in z2.iter_mut() {
        *w = w.mul(*w);
    }
    let pair_len = 2 * nl;
    let paired = alpha_re.len() / pair_len * pair_len;
    let (pairs_re, top_re) = alpha_re.split_at(paired);
    let (pairs_im, top_im) = alpha_im.split_at(paired);
    let mut pairs = pairs_re
        .chunks_exact(pair_len)
        .zip(pairs_im.chunks_exact(pair_len))
        .rev();
    let (mut even, mut odd) = if !top_re.is_empty() {
        (
            [load_row::<V>(top_re, top_im, lane0); K],
            [Cx4::<V>::zero(); K],
        )
    } else if let Some((re, im)) = pairs.next() {
        (
            [load_row::<V>(re, im, lane0); K],
            [load_row::<V>(&re[nl..], &im[nl..], lane0); K],
        )
    } else {
        return [Cx4::<V>::zero(); K];
    };
    for (re, im) in pairs {
        let (e_re, o_re) = re.split_at(nl);
        let (e_im, o_im) = im.split_at(nl);
        let a_e = load_row::<V>(e_re, e_im, lane0);
        let a_o = load_row::<V>(o_re, o_im, lane0);
        for c in 0..K {
            even[c] = even[c].mul(z2[c]).add(a_e);
            odd[c] = odd[c].mul(z2[c]).add(a_o);
        }
    }
    for c in 0..K {
        even[c] = even[c].add(z[c].mul(odd[c]));
    }
    even
}

/// The band sums `Σ_k α_k·z^{slot_k}` of `K` cells over a comb with
/// holes: one Horner chain per cell walks the rows top-down, adding each
/// row and then multiplying by `z` once per comb slot it advanced.
#[inline(always)]
fn gap_sums<V: F64x4, const K: usize>(
    z: [Cx4<V>; K],
    alpha_re: &[f64],
    alpha_im: &[f64],
    nl: usize,
    lane0: usize,
    gaps: &[u32],
) -> [Cx4<V>; K] {
    let rows = alpha_re.chunks_exact(nl).zip(alpha_im.chunks_exact(nl));
    let mut acc = [Cx4::<V>::zero(); K];
    for ((re, im), &gap) in rows.zip(gaps).rev() {
        let a = load_row::<V>(re, im, lane0);
        for v in acc.iter_mut() {
            *v = v.add(a);
        }
        for _ in 0..gap {
            for c in 0..K {
                acc[c] = acc[c].mul(z[c]);
            }
        }
    }
    acc
}

/// The combined Eq. 17 values of cells `cell0 .. cell0 + K`. Every cell
/// runs the same arithmetic whatever `K` is, so pairing cells never
/// changes a bit of any result.
#[inline(always)]
fn cell_values<V: F64x4, const K: usize>(
    s: &CellSweep<'_>,
    combine: Combine,
    cell0: usize,
) -> [f64; K] {
    let nl = s.n_lanes;
    let rows = s.gaps.len() * nl;
    let (alpha_re, alpha_im) = (&s.alpha_re[..rows], &s.alpha_im[..rows]);
    let mut coh_re = [0.0; K];
    let mut coh_im = [0.0; K];
    let mut non = [0.0; K];
    for lane0 in (0..nl).step_by(4) {
        let mut seed = [Cx4::<V>::zero(); K];
        let mut z = [Cx4::<V>::zero(); K];
        for c in 0..K {
            let at = (cell0 + c) * nl + lane0;
            seed[c] = Cx4 {
                re: V::load(&s.seed_re[at..]),
                im: V::load(&s.seed_im[at..]),
            };
            z[c] = Cx4 {
                re: V::load(&s.step_re[at..]),
                im: V::load(&s.step_im[at..]),
            };
        }
        let sums = if s.dense {
            dense_sums::<V, K>(z, alpha_re, alpha_im, nl, lane0)
        } else {
            gap_sums::<V, K>(z, alpha_re, alpha_im, nl, lane0, s.gaps)
        };
        for c in 0..K {
            let acc = seed[c].mul(sums[c]);
            coh_re[c] += acc.re.hsum();
            coh_im[c] += acc.im.hsum();
            non[c] += acc.abs().hsum();
        }
    }
    let mut values = [0.0; K];
    for c in 0..K {
        values[c] = combine_value(combine, coh_re[c], coh_im[c], non[c]);
    }
    values
}

#[inline(always)]
fn comb_cells_body<V: F64x4>(
    s: &CellSweep<'_>,
    combine: Combine,
    first_cell: usize,
    out: &mut [f64],
) {
    let mut pairs = out.chunks_exact_mut(2);
    let mut cell = first_cell;
    for pair in pairs.by_ref() {
        pair.copy_from_slice(&cell_values::<V, 2>(s, combine, cell));
        cell += 2;
    }
    if let [last] = pairs.into_remainder() {
        *last = cell_values::<V, 1>(s, combine, cell)[0];
    }
}

fn comb_cells_scalar(s: &CellSweep<'_>, combine: Combine, first_cell: usize, out: &mut [f64]) {
    comb_cells_body::<ScalarX4>(s, combine, first_cell, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn comb_cells_avx2(s: &CellSweep<'_>, combine: Combine, first_cell: usize, out: &mut [f64]) {
    comb_cells_body::<simd::AvxX4>(s, combine, first_cell, out);
}

/// [`write_comb_cells`] on an explicit vector level — what the
/// dispatch-equivalence tests drive so they never mutate process state.
#[allow(unsafe_code)]
pub fn write_comb_cells_at(
    level: SimdLevel,
    s: &CellSweep<'_>,
    combine: Combine,
    first_cell: usize,
    out: &mut [f64],
) {
    assert!(
        s.n_lanes >= 4 && s.n_lanes % 4 == 0,
        "lane stride must be a positive multiple of 4"
    );
    let needed = (first_cell + out.len()) * s.n_lanes;
    assert!(
        s.seed_re.len() >= needed
            && s.seed_im.len() >= needed
            && s.step_re.len() >= needed
            && s.step_im.len() >= needed,
        "steering tables shorter than the requested cell range"
    );
    let alpha_needed = s.gaps.len() * s.n_lanes;
    assert!(s.alpha_re.len() >= alpha_needed && s.alpha_im.len() >= alpha_needed);
    debug_assert_eq!(
        s.dense,
        gaps_are_dense(s.gaps),
        "dense flag disagrees with gaps"
    );
    match level {
        SimdLevel::Scalar => comb_cells_scalar(s, combine, first_cell, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `SimdLevel::Avx2` is only constructed behind a runtime
        // `is_x86_feature_detected!("avx2")` check (see `bloc_num::simd`).
        SimdLevel::Avx2 => unsafe { comb_cells_avx2(s, combine, first_cell, out) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 => comb_cells_scalar(s, combine, first_cell, out),
    }
}

/// Evaluates Eq. 17 for cells `first_cell .. first_cell + out.len()` of
/// one anchor map, writing each cell's combined likelihood value. Lanes
/// are antennas, each summing its bands by Horner's rule in the comb
/// step; a cell's value never depends on how the range is split. The
/// vector path is chosen once per call via [`simd::active_level`].
pub fn write_comb_cells(s: &CellSweep<'_>, combine: Combine, first_cell: usize, out: &mut [f64]) {
    write_comb_cells_at(simd::active_level(), s, combine, first_cell, out);
}

/// Borrowed inputs for the off-comb fallback: per-cell relative distances
/// instead of phasor tables (the phase is rebuilt per band with `cis` —
/// exact for any frequency set, just not recurrence-accelerated).
#[derive(Debug, Clone, Copy)]
pub struct OffCombSweep<'a> {
    /// Relative distances, `delta[cell·n_lanes + lane]`, metres; padding
    /// lanes hold 0.
    pub delta: &'a [f64],
    /// Channel weights `α`, `alpha_re[slot·n_lanes + lane]`; padding
    /// lanes hold 0.
    pub alpha_re: &'a [f64],
    /// Weight imaginary parts, same indexing.
    pub alpha_im: &'a [f64],
    /// Lane stride — antennas rounded up to a multiple of 4.
    pub n_lanes: usize,
    /// Band frequencies in plan order, hertz.
    pub freqs: &'a [f64],
    /// Phase slope per (metre · hertz): `±2π/c`.
    pub phase_per_hz: f64,
}

/// Evaluates the off-comb per-band-`cis` fallback over a cell range with
/// the same combining semantics as [`write_comb_cells`]. Scalar on every
/// dispatch level (the transcendental dominates, not the arithmetic).
/// Allocation-free, so callers may invoke it once per short row.
pub fn write_offcomb_cells(
    s: &OffCombSweep<'_>,
    combine: Combine,
    first_cell: usize,
    out: &mut [f64],
) {
    let nl = s.n_lanes;
    debug_assert!(s.alpha_re.len() >= s.freqs.len() * nl);
    for (k, v) in out.iter_mut().enumerate() {
        let cell = first_cell + k;
        let deltas = &s.delta[cell * nl..(cell + 1) * nl];
        let mut coh = complex::ZERO;
        let mut non = 0.0;
        for (j, &d) in deltas.iter().enumerate() {
            // Each lane's band sum is independent, so summing lane by
            // lane keeps every addition in band order.
            let mut acc = complex::ZERO;
            for (slot, &f) in s.freqs.iter().enumerate() {
                let row = slot * nl;
                let a = C64::new(s.alpha_re[row + j], s.alpha_im[row + j]);
                acc += a * C64::cis(s.phase_per_hz * d * f);
            }
            coh += acc;
            non += (acc.re * acc.re + acc.im * acc.im).sqrt();
        }
        *v = combine_value(combine, coh.re, coh.im, non);
    }
}

/// Reusable dense slot accumulators for [`sweep_tones_into`] — hold them
/// in the caller's scratch arena so warm sweeps allocate nothing.
#[derive(Debug, Default)]
pub struct ToneSweepScratch {
    lo_re: Vec<f64>,
    lo_im: Vec<f64>,
    hi_re: Vec<f64>,
    hi_im: Vec<f64>,
}

impl ToneSweepScratch {
    /// Empty scratch (buffers grow on first use and are then reused).
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, lanes: usize) {
        for buf in [
            &mut self.lo_re,
            &mut self.lo_im,
            &mut self.hi_re,
            &mut self.hi_im,
        ] {
            buf.clear();
            buf.resize(lanes, 0.0);
        }
    }
}

/// When a uniform comb's dense span exceeds this multiple of its band
/// count, the dense-slot kernel would mostly rotate through empty slots;
/// the per-band gap walk is used instead.
const DENSE_SPAN_FACTOR: usize = 4;

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tone_paths_body<V: F64x4>(
    lengths: &[f64],
    gains: &[C64],
    base_hz: f64,
    step_hz: f64,
    tone_offset_hz: f64,
    phase_per_metre_hz: f64,
    scratch: &mut ToneSweepScratch,
    n_quads: usize,
) {
    for (&len, &gain) in lengths.iter().zip(gains) {
        let w = phase_per_metre_hz * len;
        let step = C64::cis(w * step_hz);
        let tone = C64::cis(w * tone_offset_hz);
        let rot0 = C64::cis(w * base_hz);
        let lo = gain * tone.conj();
        let hi = gain * tone;
        // Lane seed: four consecutive comb slots of this path.
        let r1 = rot0 * step;
        let r2 = r1 * step;
        let r3 = r2 * step;
        let mut rot = Cx4::<V> {
            re: V::load(&[rot0.re, r1.re, r2.re, r3.re]),
            im: V::load(&[rot0.im, r1.im, r2.im, r3.im]),
        };
        let s2 = step * step;
        let s4 = s2 * s2;
        let step4 = Cx4::<V>::broadcast(s4.re, s4.im);
        let lo4 = Cx4::<V>::broadcast(lo.re, lo.im);
        let hi4 = Cx4::<V>::broadcast(hi.re, hi.im);
        for q in 0..n_quads {
            let at = q * 4;
            let lo_acc = Cx4 {
                re: V::load(&scratch.lo_re[at..]),
                im: V::load(&scratch.lo_im[at..]),
            };
            let hi_acc = Cx4 {
                re: V::load(&scratch.hi_re[at..]),
                im: V::load(&scratch.hi_im[at..]),
            };
            let lo_next = lo_acc.add(lo4.mul(rot));
            let hi_next = hi_acc.add(hi4.mul(rot));
            lo_next.re.store(&mut scratch.lo_re[at..]);
            lo_next.im.store(&mut scratch.lo_im[at..]);
            hi_next.re.store(&mut scratch.hi_re[at..]);
            hi_next.im.store(&mut scratch.hi_im[at..]);
            rot = rot.mul(step4);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn tone_paths_scalar(
    lengths: &[f64],
    gains: &[C64],
    base_hz: f64,
    step_hz: f64,
    tone_offset_hz: f64,
    phase_per_metre_hz: f64,
    scratch: &mut ToneSweepScratch,
    n_quads: usize,
) {
    tone_paths_body::<ScalarX4>(
        lengths,
        gains,
        base_hz,
        step_hz,
        tone_offset_hz,
        phase_per_metre_hz,
        scratch,
        n_quads,
    );
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn tone_paths_avx2(
    lengths: &[f64],
    gains: &[C64],
    base_hz: f64,
    step_hz: f64,
    tone_offset_hz: f64,
    phase_per_metre_hz: f64,
    scratch: &mut ToneSweepScratch,
    n_quads: usize,
) {
    tone_paths_body::<simd::AvxX4>(
        lengths,
        gains,
        base_hz,
        step_hz,
        tone_offset_hz,
        phase_per_metre_hz,
        scratch,
        n_quads,
    );
}

/// [`sweep_tones_into`] on an explicit vector level (for the dispatch
/// equivalence tests).
#[allow(unsafe_code)]
#[allow(clippy::too_many_arguments)]
pub fn sweep_tones_into_at(
    level: SimdLevel,
    plan: &CombPlan,
    tone_offset_hz: f64,
    phase_per_metre_hz: f64,
    lengths: &[f64],
    gains: &[C64],
    scratch: &mut ToneSweepScratch,
    out: &mut [[C64; 2]],
) {
    assert_eq!(lengths.len(), gains.len(), "path SoA arrays must match");
    assert_eq!(
        out.len(),
        plan.n_bands(),
        "out must hold one entry per band"
    );
    for v in out.iter_mut() {
        *v = [complex::ZERO; 2];
    }
    if !plan.is_uniform_comb() {
        // Off-comb (or degenerate) bands: exact per-band `cis`.
        for (&len, &gain) in lengths.iter().zip(gains) {
            let w = phase_per_metre_hz * len;
            for (k, &f) in plan.freqs.iter().enumerate() {
                let slot = &mut out[plan.order[k]];
                slot[0] += gain * C64::cis(w * (f - tone_offset_hz));
                slot[1] += gain * C64::cis(w * (f + tone_offset_hz));
            }
        }
        return;
    }
    let span = plan.span();
    if span > DENSE_SPAN_FACTOR * plan.n_bands().max(1) {
        // Too sparse for dense lanes: walk the gaps per path instead.
        for (&len, &gain) in lengths.iter().zip(gains) {
            let w = phase_per_metre_hz * len;
            let step = C64::cis(w * plan.step_hz);
            let tone = C64::cis(w * tone_offset_hz);
            let mut rot = C64::cis(w * plan.base_hz);
            let lo = gain * tone.conj();
            let hi = gain * tone;
            for (slot, &gap) in plan.gaps.iter().enumerate() {
                for _ in 0..gap {
                    rot *= step;
                }
                let o = &mut out[plan.order[slot]];
                o[0] += lo * rot;
                o[1] += hi * rot;
            }
        }
        return;
    }
    let n_quads = span.div_ceil(4);
    scratch.reset(n_quads * 4);
    match level {
        SimdLevel::Scalar => tone_paths_scalar(
            lengths,
            gains,
            plan.base_hz,
            plan.step_hz,
            tone_offset_hz,
            phase_per_metre_hz,
            scratch,
            n_quads,
        ),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `SimdLevel::Avx2` is only constructed behind a runtime
        // `is_x86_feature_detected!("avx2")` check (see `bloc_num::simd`).
        SimdLevel::Avx2 => unsafe {
            tone_paths_avx2(
                lengths,
                gains,
                plan.base_hz,
                plan.step_hz,
                tone_offset_hz,
                phase_per_metre_hz,
                scratch,
                n_quads,
            )
        },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 => tone_paths_scalar(
            lengths,
            gains,
            plan.base_hz,
            plan.step_hz,
            tone_offset_hz,
            phase_per_metre_hz,
            scratch,
            n_quads,
        ),
    }
    // Scatter dense slots back to the caller's sounding order (duplicate
    // frequencies land on the same dense slot and get identical values).
    for (k, &slot) in plan.slots.iter().enumerate() {
        let d = slot as usize;
        out[plan.order[k]] = [
            C64::new(scratch.lo_re[d], scratch.lo_im[d]),
            C64::new(scratch.hi_re[d], scratch.hi_im[d]),
        ];
    }
}

/// The vector levels this host can actually execute — what equivalence
/// suites iterate over so dispatch-path tests never construct a level
/// the CPU lacks (constructing [`SimdLevel::Avx2`] elsewhere is sound
/// only behind the same detection).
pub fn levels_to_test() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        levels.push(SimdLevel::Avx2);
    }
    levels
}

/// Evaluates the two GFSK tone channels `[h(f−δ), h(f+δ)]` of every band
/// for a whole path set (Eq. 2 with the geometry hoisted out): lanes are
/// four consecutive dense comb slots, every path's rotation chain
/// advances four slots per complex multiply, and the dense accumulators
/// scatter back to sounding order. `phase_per_metre_hz` is the phase
/// slope `w/d` (`bloc-chan` passes `−2π/c`).
pub fn sweep_tones_into(
    plan: &CombPlan,
    tone_offset_hz: f64,
    phase_per_metre_hz: f64,
    lengths: &[f64],
    gains: &[C64],
    scratch: &mut ToneSweepScratch,
    out: &mut [[C64; 2]],
) {
    sweep_tones_into_at(
        simd::active_level(),
        plan,
        tone_offset_hz,
        phase_per_metre_hz,
        lengths,
        gains,
        scratch,
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn rand_unit(seed: u64) -> f64 {
        (mix(seed) >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn comb_plan_detects_the_ble_comb() {
        let freqs: Vec<f64> = (0..10).map(|k| 2.402e9 + 2e6 * k as f64).collect();
        let plan = CombPlan::build(&freqs);
        assert!(plan.is_uniform_comb());
        assert!(plan.is_dense());
        assert_eq!(plan.base_hz, 2.402e9);
        assert_eq!(plan.step_hz, 2e6);
        assert_eq!(plan.gaps[0], 0);
        assert!(plan.gaps[1..].iter().all(|&g| g == 1));
        assert_eq!(plan.span(), 10);
    }

    #[test]
    fn comb_plan_sorts_and_rejects_non_combs() {
        let freqs = [2.410e9, 2.402e9, 2.416e9];
        let plan = CombPlan::build(&freqs);
        assert_eq!(plan.order, vec![1, 0, 2]);
        // 8 and 6 MHz adjacent gaps: 6 MHz does not divide 8 MHz.
        assert!(!plan.is_uniform_comb());
    }

    #[test]
    fn comb_plan_multi_slot_gaps() {
        let plan = CombPlan::build(&[2.402e9, 2.404e9, 2.412e9]);
        assert!(plan.is_uniform_comb());
        assert!(!plan.is_dense());
        assert_eq!(plan.gaps, vec![0, 1, 4]);
        assert_eq!(plan.slots, vec![0, 1, 5]);
        assert_eq!(plan.span(), 6);
    }

    #[test]
    fn comb_plan_degenerate_sizes() {
        assert!(!CombPlan::build(&[]).is_uniform_comb());
        let one = CombPlan::build(&[2.44e9]);
        assert!(!one.is_uniform_comb());
        assert_eq!(one.gaps, vec![0]);
        assert_eq!(one.base_hz, 2.44e9);
        // Duplicates of one frequency are degenerate too.
        assert!(!CombPlan::build(&[2.44e9, 2.44e9]).is_uniform_comb());
    }

    /// A randomized likelihood fixture: `cells` cells × `n_ant` antennas
    /// over a subset of the BLE comb, with the reference value computed
    /// per cell by naive per-band `cis`.
    struct Fixture {
        sweep_tables: (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>),
        alpha: (Vec<f64>, Vec<f64>),
        n_lanes: usize,
        n_ant: usize,
        gaps: Vec<u32>,
        /// The alpha row of each surviving band.
        rows: Vec<usize>,
        freqs: Vec<f64>,
        deltas: Vec<f64>,
    }

    /// A fixture on the gapless comb of `nb` bands.
    fn fixture(seed: u64, cells: usize, n_ant: usize, nb: usize) -> Fixture {
        let slots: Vec<u32> = (0..nb as u32).collect();
        fixture_on(seed, cells, n_ant, &slots, true)
    }

    /// A fixture whose bands survive at the ascending comb `slots`. Alpha
    /// rows are laid out either one per slot of the span, zero at the
    /// holes (`slot_rows`, the slot-dense layout), or one per surviving
    /// band (the gap layout).
    fn fixture_on(
        seed: u64,
        cells: usize,
        n_ant: usize,
        slots: &[u32],
        slot_rows: bool,
    ) -> Fixture {
        let n_lanes = n_ant.div_ceil(4) * 4;
        let base_hz = 2.402e9;
        let step_hz = 2e6;
        let freqs: Vec<f64> = slots
            .iter()
            .map(|&n| base_hz + step_hz * f64::from(n))
            .collect();
        let (gaps, rows): (Vec<u32>, Vec<usize>) = if slot_rows {
            let span = slots.last().map_or(0, |&n| n + 1);
            let gaps = (0..span).map(|r| u32::from(r > 0)).collect();
            (gaps, slots.iter().map(|&n| n as usize).collect())
        } else {
            let gaps = slots
                .iter()
                .scan(0, |prev, &n| Some(n - std::mem::replace(prev, n)))
                .collect();
            (gaps, (0..slots.len()).collect())
        };
        let tau_over_c = std::f64::consts::TAU / 299_792_458.0;
        let mut deltas = vec![0.0; cells * n_lanes];
        let (mut sre, mut sim) = (vec![1.0; cells * n_lanes], vec![0.0; cells * n_lanes]);
        let (mut tre, mut tim) = (vec![1.0; cells * n_lanes], vec![0.0; cells * n_lanes]);
        for c in 0..cells {
            for j in 0..n_ant {
                let d = rand_unit(seed ^ (c * 131 + j) as u64) * 20.0 - 10.0;
                let k = c * n_lanes + j;
                deltas[k] = d;
                let seed_p = C64::cis(tau_over_c * d * base_hz);
                let step_p = C64::cis(tau_over_c * d * step_hz);
                sre[k] = seed_p.re;
                sim[k] = seed_p.im;
                tre[k] = step_p.re;
                tim[k] = step_p.im;
            }
        }
        let mut are = vec![0.0; gaps.len() * n_lanes];
        let mut aim = vec![0.0; gaps.len() * n_lanes];
        for (s, &row) in rows.iter().enumerate() {
            for j in 0..n_ant {
                are[row * n_lanes + j] = rand_unit(seed ^ (s * 977 + j + 3) as u64) * 2.0 - 1.0;
                aim[row * n_lanes + j] = rand_unit(seed ^ (s * 977 + j + 71) as u64) * 2.0 - 1.0;
            }
        }
        Fixture {
            sweep_tables: (sre, sim, tre, tim),
            alpha: (are, aim),
            n_lanes,
            n_ant,
            gaps,
            rows,
            freqs,
            deltas,
        }
    }

    /// `nb` ascending comb slots, one drawn from each run of three, so
    /// holes of up to four slots separate survivors and the first band
    /// may sit above slot 0. Too sparse for the slot-dense layout.
    fn sparse_slots(seed: u64, nb: usize) -> Vec<u32> {
        (0..nb as u32)
            .map(|k| 3 * k + (mix(seed ^ u64::from(k)) % 3) as u32)
            .collect()
    }

    impl Fixture {
        fn cell_sweep(&self) -> CellSweep<'_> {
            CellSweep {
                seed_re: &self.sweep_tables.0,
                seed_im: &self.sweep_tables.1,
                step_re: &self.sweep_tables.2,
                step_im: &self.sweep_tables.3,
                alpha_re: &self.alpha.0,
                alpha_im: &self.alpha.1,
                n_lanes: self.n_lanes,
                gaps: &self.gaps,
                dense: gaps_are_dense(&self.gaps),
            }
        }

        /// Naive per-(cell, antenna, band) `cis` reference.
        fn reference(&self, combine: Combine, cell: usize) -> f64 {
            let tau_over_c = std::f64::consts::TAU / 299_792_458.0;
            let mut coh = complex::ZERO;
            let mut non = 0.0;
            for j in 0..self.n_ant {
                let d = self.deltas[cell * self.n_lanes + j];
                let mut acc = complex::ZERO;
                for (&row, &f) in self.rows.iter().zip(&self.freqs) {
                    let a = C64::new(
                        self.alpha.0[row * self.n_lanes + j],
                        self.alpha.1[row * self.n_lanes + j],
                    );
                    acc += a * C64::cis(tau_over_c * d * f);
                }
                coh += acc;
                non += acc.abs();
            }
            match combine {
                Combine::Coherent => coh.abs(),
                Combine::Noncoherent => non,
                Combine::Hybrid => coh.abs() + 0.5 * non,
            }
        }
    }

    #[test]
    fn comb_cells_match_reference_for_all_combinings() {
        let fx = fixture(11, 40, 4, 37);
        let sweep = fx.cell_sweep();
        for combine in [Combine::Coherent, Combine::Noncoherent, Combine::Hybrid] {
            let mut out = vec![0.0; 40];
            write_comb_cells(&sweep, combine, 0, &mut out);
            for (cell, &got) in out.iter().enumerate() {
                let want = fx.reference(combine, cell);
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "cell {cell} {combine:?}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn comb_cells_handle_non_multiple_of_four_antennas() {
        for n_ant in [1, 2, 3, 5, 6] {
            let fx = fixture(n_ant as u64 * 7 + 1, 12, n_ant, 21);
            let mut out = vec![0.0; 12];
            write_comb_cells(&fx.cell_sweep(), Combine::Hybrid, 0, &mut out);
            for (cell, &got) in out.iter().enumerate() {
                let want = fx.reference(Combine::Hybrid, cell);
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "n_ant {n_ant} cell {cell}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn dispatch_paths_are_bit_identical() {
        let levels = levels_to_test();
        let fx = fixture(23, 64, 4, 37);
        let mut reference: Option<Vec<u64>> = None;
        for &level in &levels {
            let mut out = vec![0.0; 64];
            write_comb_cells_at(level, &fx.cell_sweep(), Combine::Hybrid, 0, &mut out);
            let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(want) => assert_eq!(&bits, want, "level {level:?} diverged"),
            }
        }
    }

    #[test]
    fn horner_sums_match_per_band_cis_for_every_band_count() {
        // Odd counts leave the dense walk's top row unpaired; sparse
        // survivor masks run the gap walk, or the dense walk over zero
        // rows when laid out per slot.
        for nb in [1, 2, 3, 37, 38] {
            let sparse = sparse_slots(nb as u64, nb);
            let layouts = [
                ((0..nb as u32).collect::<Vec<_>>(), true),
                (sparse.clone(), false),
                (sparse, true),
            ];
            for (slots, slot_rows) in layouts {
                for n_ant in [4, 6] {
                    let fx = fixture_on(nb as u64 * 5 + 3, 9, n_ant, &slots, slot_rows);
                    if !slot_rows && nb > 1 {
                        assert!(!fx.cell_sweep().dense, "mask {slots:?} must walk gaps");
                    }
                    for level in levels_to_test() {
                        for combine in [Combine::Coherent, Combine::Hybrid] {
                            let mut out = vec![0.0; 9];
                            write_comb_cells_at(level, &fx.cell_sweep(), combine, 0, &mut out);
                            for (cell, &got) in out.iter().enumerate() {
                                let want = fx.reference(combine, cell);
                                assert!(
                                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                                    "{nb} bands {slots:?} rows {slot_rows} n_ant {n_ant} \
                                     cell {cell} {combine:?} {level:?}: {got} vs {want}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn any_split_of_a_cell_range_is_bit_identical() {
        // The kernel evaluates cells in pairs; a cell's value must not
        // depend on its partner, on its parity or on where a call starts,
        // because window maps rely on being the dense map restricted.
        const CELLS: usize = 41;
        let sparse = sparse_slots(7, 20);
        for (n_ant, slots, slot_rows) in [
            (4, (0..37).collect::<Vec<u32>>(), true),
            (8, (0..37).collect(), true),
            (4, sparse.clone(), false),
            (7, sparse, false),
        ] {
            let fx = fixture_on(n_ant as u64, CELLS, n_ant, &slots, slot_rows);
            let sweep = fx.cell_sweep();
            for level in levels_to_test() {
                let bits = |first: usize, len: usize| -> Vec<u64> {
                    let mut out = vec![0.0; len];
                    write_comb_cells_at(level, &sweep, Combine::Hybrid, first, &mut out);
                    out.iter().map(|v| v.to_bits()).collect()
                };
                for draw in 0..32u64 {
                    let h = mix(draw ^ (n_ant as u64) << 32);
                    let mut first = (h % CELLS as u64) as usize;
                    let mut len = 1 + ((h >> 16) % (CELLS - first) as u64) as usize;
                    // Half the draws force an odd start, half an odd length.
                    if draw % 2 == 0 && first % 2 == 0 && first + len < CELLS {
                        first += 1;
                    }
                    if draw % 2 == 1 && len % 2 == 0 {
                        len -= 1;
                    }
                    let whole = bits(first, len);
                    let per_cell: Vec<u64> =
                        (first..first + len).flat_map(|c| bits(c, 1)).collect();
                    assert_eq!(
                        whole, per_cell,
                        "{level:?} n_ant {n_ant} range {first}+{len}"
                    );
                    let mut split = Vec::with_capacity(len);
                    let mut at = first;
                    let mut cut = h;
                    while at < first + len {
                        cut = mix(cut);
                        let piece = 1 + (cut % 5) as usize;
                        let piece = piece.min(first + len - at);
                        split.extend(bits(at, piece));
                        at += piece;
                    }
                    assert_eq!(
                        whole, split,
                        "{level:?} n_ant {n_ant} sub-split of {first}+{len}"
                    );
                }
            }
        }
    }

    #[test]
    fn offcomb_cells_match_reference() {
        let fx = fixture(31, 20, 4, 15);
        let off = OffCombSweep {
            delta: &fx.deltas,
            alpha_re: &fx.alpha.0,
            alpha_im: &fx.alpha.1,
            n_lanes: fx.n_lanes,
            freqs: &fx.freqs,
            phase_per_hz: std::f64::consts::TAU / 299_792_458.0,
        };
        let mut out = vec![0.0; 20];
        write_offcomb_cells(&off, Combine::Hybrid, 0, &mut out);
        for (cell, &got) in out.iter().enumerate() {
            let want = fx.reference(Combine::Hybrid, cell);
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "cell {cell}: {got} vs {want}"
            );
        }
    }

    fn tone_reference(
        lengths: &[f64],
        gains: &[C64],
        freqs: &[f64],
        tone: f64,
        w_per_m: f64,
    ) -> Vec<[C64; 2]> {
        freqs
            .iter()
            .map(|&f| {
                let mut lo = complex::ZERO;
                let mut hi = complex::ZERO;
                for (&len, &g) in lengths.iter().zip(gains) {
                    lo += g * C64::cis(w_per_m * len * (f - tone));
                    hi += g * C64::cis(w_per_m * len * (f + tone));
                }
                [lo, hi]
            })
            .collect()
    }

    fn tone_fixture(seed: u64, n_paths: usize) -> (Vec<f64>, Vec<C64>) {
        let lengths: Vec<f64> = (0..n_paths)
            .map(|p| 1.0 + rand_unit(seed ^ p as u64) * 30.0)
            .collect();
        let gains: Vec<C64> = (0..n_paths)
            .map(|p| {
                C64::new(
                    rand_unit(seed ^ (p + 100) as u64) * 2.0 - 1.0,
                    rand_unit(seed ^ (p + 200) as u64) * 2.0 - 1.0,
                )
            })
            .collect();
        (lengths, gains)
    }

    #[test]
    fn tone_sweep_matches_per_band_cis() {
        let (lengths, gains) = tone_fixture(5, 24);
        // Sounding order shuffled, with a duplicate channel.
        let freqs = [2.426e9, 2.402e9, 2.480e9, 2.402e9, 2.404e9];
        let plan = CombPlan::build(&freqs);
        assert!(plan.is_uniform_comb());
        let w = -std::f64::consts::TAU / 299_792_458.0;
        let mut scratch = ToneSweepScratch::new();
        let mut out = vec![[complex::ZERO; 2]; freqs.len()];
        sweep_tones_into(&plan, 250e3, w, &lengths, &gains, &mut scratch, &mut out);
        let want = tone_reference(&lengths, &gains, &freqs, 250e3, w);
        let scale: f64 = want
            .iter()
            .flatten()
            .map(|h| h.abs())
            .fold(f64::MIN_POSITIVE, f64::max);
        for (k, (got, want)) in out.iter().zip(&want).enumerate() {
            for t in 0..2 {
                assert!(
                    (got[t] - want[t]).abs() <= 1e-12 * scale,
                    "band {k} tone {t}: {:?} vs {:?}",
                    got[t],
                    want[t]
                );
            }
        }
        assert_eq!(out[1], out[3], "duplicate channels get identical sweeps");
    }

    #[test]
    fn tone_sweep_off_comb_and_degenerate_fall_back() {
        let (lengths, gains) = tone_fixture(9, 7);
        let w = -std::f64::consts::TAU / 299_792_458.0;
        for freqs in [
            vec![2.402e9, 2.402e9 + 1.37e6, 2.402e9 + 3.91e6],
            vec![],
            vec![2.44e9],
            vec![2.44e9, 2.44e9],
        ] {
            let plan = CombPlan::build(&freqs);
            let mut scratch = ToneSweepScratch::new();
            let mut out = vec![[complex::ZERO; 2]; freqs.len()];
            sweep_tones_into(&plan, 250e3, w, &lengths, &gains, &mut scratch, &mut out);
            let want = tone_reference(&lengths, &gains, &freqs, 250e3, w);
            for (k, (got, want)) in out.iter().zip(&want).enumerate() {
                for t in 0..2 {
                    assert!(
                        (got[t] - want[t]).abs() <= 1e-9 * want[t].abs().max(1e-12),
                        "band {k} tone {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn tone_sweep_sparse_comb_uses_gap_walk_and_matches() {
        let (lengths, gains) = tone_fixture(13, 11);
        // Uniform 2 MHz comb but very sparse: span ≫ 4 × bands.
        let freqs = [2.402e9, 2.404e9, 2.480e9];
        let plan = CombPlan::build(&freqs);
        assert!(plan.is_uniform_comb());
        assert!(plan.span() > DENSE_SPAN_FACTOR * plan.n_bands());
        let w = -std::f64::consts::TAU / 299_792_458.0;
        let mut scratch = ToneSweepScratch::new();
        let mut out = vec![[complex::ZERO; 2]; freqs.len()];
        sweep_tones_into(&plan, 250e3, w, &lengths, &gains, &mut scratch, &mut out);
        let want = tone_reference(&lengths, &gains, &freqs, 250e3, w);
        for (k, (got, want)) in out.iter().zip(&want).enumerate() {
            for t in 0..2 {
                assert!(
                    (got[t] - want[t]).abs() <= 1e-12 * want[t].abs().max(1e-12),
                    "band {k} tone {t}"
                );
            }
        }
    }

    #[test]
    fn tone_sweep_dispatch_paths_are_bit_identical() {
        let (lengths, gains) = tone_fixture(17, 40);
        let freqs: Vec<f64> = (0..37).map(|k| 2.402e9 + 2e6 * k as f64).collect();
        let plan = CombPlan::build(&freqs);
        let w = -std::f64::consts::TAU / 299_792_458.0;
        let mut reference: Option<Vec<[C64; 2]>> = None;
        for &level in &levels_to_test() {
            let mut scratch = ToneSweepScratch::new();
            let mut out = vec![[complex::ZERO; 2]; freqs.len()];
            sweep_tones_into_at(
                level,
                &plan,
                250e3,
                w,
                &lengths,
                &gains,
                &mut scratch,
                &mut out,
            );
            match &reference {
                None => reference = Some(out),
                Some(want) => {
                    for (k, (got, want)) in out.iter().zip(want).enumerate() {
                        for t in 0..2 {
                            assert_eq!(
                                got[t].re.to_bits(),
                                want[t].re.to_bits(),
                                "band {k} tone {t} re ({level:?})"
                            );
                            assert_eq!(
                                got[t].im.to_bits(),
                                want[t].im.to_bits(),
                                "band {k} tone {t} im ({level:?})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tone_scratch_reuses_buffers() {
        let (lengths, gains) = tone_fixture(21, 5);
        let freqs: Vec<f64> = (0..37).map(|k| 2.402e9 + 2e6 * k as f64).collect();
        let plan = CombPlan::build(&freqs);
        let w = -std::f64::consts::TAU / 299_792_458.0;
        let mut scratch = ToneSweepScratch::new();
        let mut out = vec![[complex::ZERO; 2]; freqs.len()];
        sweep_tones_into(&plan, 250e3, w, &lengths, &gains, &mut scratch, &mut out);
        let cap = scratch.lo_re.capacity();
        let first = out.clone();
        sweep_tones_into(&plan, 250e3, w, &lengths, &gains, &mut scratch, &mut out);
        assert_eq!(scratch.lo_re.capacity(), cap, "warm sweep must not regrow");
        assert_eq!(out, first, "repeat sweep is bit-identical");
    }
}
