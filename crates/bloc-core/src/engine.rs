//! The fast likelihood engine: phasor-recurrence kernels, SoA channel
//! layout, geometry caching and parallel grid evaluation.
//!
//! Everything the localizer does reduces to evaluating Eq. 17,
//! `P_i(x) = |Σ_j Σ_k α^{f_k}_ij · e^{ι2πf_k Δ_ij(x)/c}|`, over a dense
//! 2-D grid. The naive evaluation (kept verbatim as [`ReferenceKernel`])
//! pays one `sin`+`cos` per (cell × antenna × band). This module layers
//! three optimizations on top, each independently verified against the
//! reference (see `tests/kernel_equivalence.rs`):
//!
//! 1. **Comb polynomial**: BLE's data channels sit on a uniform 2 MHz
//!    comb, so `f_k = f_base + n_k·s` with integer `n_k`, and
//!    `e^{ι2πf_kΔ/c} = e^{ι2πf_baseΔ/c} · z^{n_k}` with the comb step
//!    `z = e^{ι2πsΔ/c}`. Each (cell, antenna) band sum is therefore
//!    `seed · Σ_k α_k z^{n_k}`, a polynomial in `z` that Horner's rule
//!    evaluates at one complex multiply-add per band, after two `cis`
//!    calls per (cell, antenna) that the steering cache makes once. The
//!    identity is *exact* (no small-angle approximation); [`BandPlan`]
//!    detects the comb and the kernel falls back to per-band `cis` when
//!    surviving bands don't sit on one. The kernel itself lives in
//!    [`bloc_num::sweep`] — one SIMD implementation shared with the
//!    channel synthesizer — and [`RecurrenceKernel`] is the thin adapter
//!    that feeds it.
//! 2. **SoA layout + geometry cache**: [`SoaChannels`] re-packs the
//!    per-band `alpha[i][j]` tensor into the kernel's split re/im
//!    lane-padded layout, and [`SteeringCache`] memoizes the per-cell
//!    relative distances `Δ_ij(x)` (Eq. 14) and their seed/step phasors
//!    keyed by (grid, anchor geometry) — a deployment sounds thousands of
//!    times against the same grid, and the geometry never changes. A
//!    sub-window of a grid ([`LikelihoodEngine::window_likelihoods`], the
//!    hierarchy's seed windows and fine patches) reads that grid's tables
//!    in place.
//! 3. **Coarse parallelism**: the joint likelihood fans out across
//!    *anchors* and single-anchor maps across row *chunks*, both through
//!    [`bloc_num::par`] with work-size thresholding
//!    ([`bloc_num::par::tuned_threads`]) so small problems never pay
//!    spawn overhead — bit-identically for every thread count.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bloc_chan::AnchorArray;
use bloc_num::constants::SPEED_OF_LIGHT;
use bloc_num::sweep::{self, CellSweep, Combine, OffCombSweep};
use bloc_num::{Grid2D, GridPatch, GridSpec, C64, P2};

use crate::correction::CorrectedChannels;
use crate::likelihood::AntennaCombining;

/// The frequency walk a recurrence kernel takes across surviving bands —
/// now the workspace-wide [`bloc_num::sweep::CombPlan`]; the alias keeps
/// the engine's public vocabulary (`order` indexes
/// `CorrectedChannels::bands`).
pub use bloc_num::sweep::CombPlan as BandPlan;

/// Rounds an antenna count up to the kernel's 4-wide lane stride.
#[inline]
fn lane_stride(n_antennas: usize) -> usize {
    n_antennas.div_ceil(4).max(1) * 4
}

fn combine_of(combining: AntennaCombining) -> Combine {
    match combining {
        AntennaCombining::Coherent => Combine::Coherent,
        AntennaCombining::NoncoherentAntennas => Combine::Noncoherent,
        AntennaCombining::Hybrid => Combine::Hybrid,
    }
}

/// Corrected channels re-packed for the sweep kernel: per anchor, split
/// re/im row-major tensors padded to the 4-wide lane stride
/// (`alpha_re[i][row·n_lanes[i] + j]`, padding lanes exactly zero so
/// they contribute nothing). All antennas of a row sit adjacent, so the
/// kernel advances every antenna's Horner chain in lockstep — one SIMD
/// lane per antenna.
///
/// On a uniform comb whose occupied slots nearly fill its span (the BLE
/// data comb: 37 bands over 38 slots, one hole at the skipped
/// advertising channel), rows are laid out per **absolute comb slot**
/// with all-zero rows at the holes. The zero rows cost one multiply-add
/// each but let the kernel walk a gapless comb, which engages its
/// even/odd two-chain Horner walk — worth far more than the holes cost.
/// Sparse survivor sets (heavy dropout) and off-comb bands keep the
/// compact planned-order layout. [`SoaChannels::rebuild`] makes this
/// choice once per sounding and hands it to the kernel as
/// [`CellSweep::dense`].
#[derive(Debug, Clone)]
pub struct SoaChannels {
    /// The band walk shared by every slice.
    pub plan: BandPlan,
    /// Antennas per anchor.
    pub n_antennas: Vec<usize>,
    /// Lane stride per anchor (`n_antennas` rounded up to 4).
    n_lanes: Vec<usize>,
    /// `alpha_re[i][row·n_lanes[i] + j]` — row-major per anchor.
    alpha_re: Vec<Vec<f64>>,
    /// Imaginary parts, same indexing.
    alpha_im: Vec<Vec<f64>>,
    /// True when alpha rows are absolute comb slots (holes zero-filled)
    /// rather than planned-band order — the kernel's dense walk.
    slot_rows: bool,
    /// The slot advances handed to the kernel — `[0, 1, 1, …]` over the
    /// span under slot layout, [`CombPlan::gaps`] otherwise.
    kernel_gaps: Vec<u32>,
    /// Scratch for the band frequencies handed to the planner.
    freqs_scratch: Vec<f64>,
}

impl SoaChannels {
    /// An empty re-pack, ready for [`SoaChannels::rebuild`] — what the
    /// engine's scratch arena holds between calls.
    pub fn empty() -> Self {
        Self {
            plan: BandPlan::build(&[]),
            n_antennas: Vec::new(),
            n_lanes: Vec::new(),
            alpha_re: Vec::new(),
            alpha_im: Vec::new(),
            slot_rows: false,
            kernel_gaps: Vec::new(),
            freqs_scratch: Vec::new(),
        }
    }

    /// Re-packs `corrected` (masked entries stay exact zeros, so they
    /// still contribute nothing to the correlation sums).
    pub fn build(corrected: &CorrectedChannels) -> Self {
        let mut soa = Self::empty();
        soa.rebuild(corrected);
        soa
    }

    /// [`SoaChannels::build`] into `self`, reusing the tensor buffers —
    /// the warm-path entry: after the first sounding of a deployment no
    /// per-call tensor allocation remains.
    pub fn rebuild(&mut self, corrected: &CorrectedChannels) {
        self.freqs_scratch.clear();
        self.freqs_scratch
            .extend(corrected.bands.iter().map(|b| b.freq_hz));
        self.plan = BandPlan::build(&self.freqs_scratch);
        let nb = corrected.bands.len();
        let n = corrected.n_anchors();
        self.n_antennas.clear();
        self.n_antennas
            .extend(corrected.anchors.iter().map(|a| a.n_antennas));
        self.n_lanes.clear();
        self.n_lanes
            .extend(self.n_antennas.iter().map(|&nj| lane_stride(nj)));
        // Slot layout pays one zero row per comb hole; cap the overhead
        // at 25% extra rows before falling back to the compact walk.
        let span = self.plan.span();
        self.slot_rows = self.plan.is_uniform_comb() && span <= nb + nb / 4;
        let rows = if self.slot_rows { span } else { nb };
        self.kernel_gaps.clear();
        if self.slot_rows {
            self.kernel_gaps.extend((0..rows).map(|r| u32::from(r > 0)));
        } else {
            self.kernel_gaps.extend_from_slice(&self.plan.gaps);
        }
        self.alpha_re.resize_with(n, Vec::new);
        self.alpha_im.resize_with(n, Vec::new);
        for i in 0..n {
            let nj = self.n_antennas[i];
            let nl = self.n_lanes[i];
            let re = &mut self.alpha_re[i];
            let im = &mut self.alpha_im[i];
            re.clear();
            re.resize(rows * nl, 0.0);
            im.clear();
            im.resize(rows * nl, 0.0);
            for (k, &b) in self.plan.order.iter().enumerate() {
                let row = if self.slot_rows {
                    self.plan.slots[k] as usize
                } else {
                    k
                } * nl;
                for j in 0..nj {
                    let a = corrected.bands[b].alpha[i][j];
                    re[row + j] = a.re;
                    im[row + j] = a.im;
                }
            }
        }
    }

    /// The alpha tensor row holding planned band `k`.
    fn alpha_row(&self, k: usize) -> usize {
        if self.slot_rows {
            self.plan.slots[k] as usize
        } else {
            k
        }
    }

    /// Number of planned bands.
    pub fn n_bands(&self) -> usize {
        self.plan.freqs.len()
    }

    /// The antennas of anchor `i` at planned band `slot`, re-assembled
    /// from the split layout (a copy — layout inspection, not a hot
    /// path).
    pub fn band_antennas(&self, i: usize, slot: usize) -> Vec<C64> {
        let nj = self.n_antennas[i];
        let nl = self.n_lanes[i];
        let row = self.alpha_row(slot) * nl;
        (0..nj)
            .map(|j| C64::new(self.alpha_re[i][row + j], self.alpha_im[i][row + j]))
            .collect()
    }
}

/// Precomputed per-cell steering geometry for one (grid, deployment,
/// band-comb) triple: the relative distances
/// `Δ_ij(x) = d_ij(x) − d_00(x) − d^{i0}_{00}` of Eq. 14 for every cell
/// and every (anchor, antenna), plus — when the surviving bands form a
/// uniform comb — the two phasors the sweep kernel starts from,
/// `e^{ι2πf_baseΔ/c}` and `e^{ι2πsΔ/c}`. Hoisting the phasors into the
/// cache removes every transcendental call from the steady-state
/// per-sounding path: the warm kernel is pure complex multiply-adds.
#[derive(Debug)]
pub struct SteeringTables {
    spec: GridSpec,
    /// `delta[i][cell·n_lanes[i] + j]`, cell-major, lane-padded with 0.
    delta: Vec<Vec<f64>>,
    /// `e^{ι2πf_baseΔ/c}` real parts, same indexing; padding lanes hold
    /// the neutral phasor `1 + 0ι` (finite, so a zero alpha annihilates
    /// it exactly — garbage here could produce `0 × ∞ = NaN`).
    seed_re: Vec<Vec<f64>>,
    /// Seed imaginary parts.
    seed_im: Vec<Vec<f64>>,
    /// `e^{ι2πsΔ/c}` (comb-step rotation) real parts, same indexing.
    step_re: Vec<Vec<f64>>,
    /// Step imaginary parts.
    step_im: Vec<Vec<f64>>,
    n_antennas: Vec<usize>,
    n_lanes: Vec<usize>,
}

impl SteeringTables {
    /// Computes the tables — the one place per deployment that pays the
    /// per-cell distance arithmetic and phasor seeding. `base_hz` and
    /// `step_hz` are the [`BandPlan`] comb parameters (0 disables the
    /// phasor tables' usefulness but is still a valid build).
    pub fn build(
        spec: GridSpec,
        anchors: &[AnchorArray],
        master_anchor_dist: &[f64],
        base_hz: f64,
        step_hz: f64,
    ) -> Self {
        let n_cells = spec.len();
        let n_antennas: Vec<usize> = anchors.iter().map(|a| a.n_antennas).collect();
        let n_lanes: Vec<usize> = n_antennas.iter().map(|&nj| lane_stride(nj)).collect();
        let master0 = anchors
            .first()
            .map(|a| a.antenna(0))
            .unwrap_or(P2::new(0.0, 0.0));
        let tau_over_c = std::f64::consts::TAU / SPEED_OF_LIGHT;
        let mut delta = Vec::with_capacity(anchors.len());
        let mut seed_re = Vec::with_capacity(anchors.len());
        let mut seed_im = Vec::with_capacity(anchors.len());
        let mut step_re = Vec::with_capacity(anchors.len());
        let mut step_im = Vec::with_capacity(anchors.len());
        for (i, anchor) in anchors.iter().enumerate() {
            let positions = anchor.antennas();
            let d_i0 = master_anchor_dist[i];
            let nl = n_lanes[i];
            let mut d_table = vec![0.0; n_cells * nl];
            let mut sre = vec![1.0; n_cells * nl];
            let mut sim = vec![0.0; n_cells * nl];
            let mut rre = vec![1.0; n_cells * nl];
            let mut rim = vec![0.0; n_cells * nl];
            for iy in 0..spec.ny {
                for ix in 0..spec.nx {
                    let x = spec.cell_center(ix, iy);
                    let d_00 = x.dist(master0);
                    let cell = spec.flat(ix, iy);
                    for (j, &p) in positions.iter().enumerate() {
                        let d = x.dist(p) - d_00 - d_i0;
                        let w = tau_over_c * d;
                        let k = cell * nl + j;
                        d_table[k] = d;
                        let s = C64::cis(w * base_hz);
                        let r = C64::cis(w * step_hz);
                        sre[k] = s.re;
                        sim[k] = s.im;
                        rre[k] = r.re;
                        rim[k] = r.im;
                    }
                }
            }
            delta.push(d_table);
            seed_re.push(sre);
            seed_im.push(sim);
            step_re.push(rre);
            step_im.push(rim);
        }
        Self {
            spec,
            delta,
            seed_re,
            seed_im,
            step_re,
            step_im,
            n_antennas,
            n_lanes,
        }
    }

    /// The grid the tables were built for.
    pub fn spec(&self) -> GridSpec {
        self.spec
    }

    /// Approximate heap footprint of the tables (the payload vectors; the
    /// struct header is noise next to them). Feeds the
    /// `cache.steering.resident_bytes` gauge.
    pub fn approx_bytes(&self) -> usize {
        self.delta
            .iter()
            .chain(&self.seed_re)
            .chain(&self.seed_im)
            .chain(&self.step_re)
            .chain(&self.step_im)
            .map(|v| v.len() * 8)
            .sum()
    }

    /// The `Δ_ij` slice of one cell for anchor `i` (length = antennas of
    /// `i`, indexed by `j` — padding lanes excluded).
    #[inline]
    pub fn cell_deltas(&self, i: usize, cell: usize) -> &[f64] {
        let nl = self.n_lanes[i];
        &self.delta[i][cell * nl..cell * nl + self.n_antennas[i]]
    }

    /// The kernel-ready sweep view of anchor `i`: the cached phasor
    /// tables zipped with `soa`'s matching alpha tensor.
    fn cell_sweep<'a>(&'a self, soa: &'a SoaChannels, i: usize) -> CellSweep<'a> {
        debug_assert_eq!(self.n_lanes[i], soa.n_lanes[i]);
        CellSweep {
            seed_re: &self.seed_re[i],
            seed_im: &self.seed_im[i],
            step_re: &self.step_re[i],
            step_im: &self.step_im[i],
            alpha_re: &soa.alpha_re[i],
            alpha_im: &soa.alpha_im[i],
            n_lanes: self.n_lanes[i],
            gaps: &soa.kernel_gaps,
            dense: soa.slot_rows,
        }
    }

    /// The off-comb fallback view of anchor `i`.
    fn offcomb_sweep<'a>(&'a self, soa: &'a SoaChannels, i: usize) -> OffCombSweep<'a> {
        debug_assert_eq!(self.n_lanes[i], soa.n_lanes[i]);
        OffCombSweep {
            delta: &self.delta[i],
            alpha_re: &soa.alpha_re[i],
            alpha_im: &soa.alpha_im[i],
            n_lanes: self.n_lanes[i],
            freqs: &soa.plan.freqs,
            phase_per_hz: std::f64::consts::TAU / SPEED_OF_LIGHT,
        }
    }
}

/// A concurrency-safe memo of [`SteeringTables`] keyed by (grid spec,
/// anchor geometry, master-anchor distances). Clones share the underlying
/// map, so a localizer cloned across sweep workers computes each
/// deployment's geometry exactly once.
///
/// Telemetry follows the workspace cache convention
/// ([`bloc_obs::CacheStats`]): `cache.steering.{hits,misses,
/// invalidations,invalidations.<cause>,evicted}` counters plus
/// `cache.steering.resident_{entries,bytes}` gauges.
#[derive(Debug, Clone)]
pub struct SteeringCache {
    inner: Arc<Mutex<CacheInner>>,
    stats: bloc_obs::CacheStats,
}

/// One resident steering geometry plus the bookkeeping the LRU budget
/// needs: its payload size and the last access tick.
#[derive(Debug)]
struct CacheEntry {
    tables: Arc<SteeringTables>,
    bytes: usize,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<Vec<u64>, CacheEntry>,
    /// Monotone access clock; bumped on every lookup so eviction can
    /// order entries by recency without timestamps.
    tick: u64,
    /// Resident-byte ceiling; `None` (the default) never evicts.
    byte_budget: Option<usize>,
    /// Lookups that had to build their tables.
    misses: u64,
}

impl Default for SteeringCache {
    fn default() -> Self {
        Self {
            inner: Arc::default(),
            stats: bloc_obs::CacheStats::global("steering"),
        }
    }
}

fn push_f64(key: &mut Vec<u64>, v: f64) {
    key.push(v.to_bits());
}

fn cache_key(
    spec: GridSpec,
    anchors: &[AnchorArray],
    master_anchor_dist: &[f64],
    base_hz: f64,
    step_hz: f64,
) -> Vec<u64> {
    let mut key = Vec::with_capacity(8 + anchors.len() * 7 + master_anchor_dist.len());
    push_f64(&mut key, base_hz);
    push_f64(&mut key, step_hz);
    push_f64(&mut key, spec.origin.x);
    push_f64(&mut key, spec.origin.y);
    push_f64(&mut key, spec.resolution);
    key.push(spec.nx as u64);
    key.push(spec.ny as u64);
    key.extend_from_slice(&anchor_fingerprint(anchors));
    for &d in master_anchor_dist {
        push_f64(&mut key, d);
    }
    key
}

/// Offset of the anchor-geometry segment inside a cache key (after the
/// two comb frequencies and the five grid-spec words).
const KEY_ANCHOR_OFFSET: usize = 7;

/// The anchor-geometry words of a cache key: 6 per anchor, exactly as
/// [`cache_key`] lays them out. [`SteeringCache::invalidate_geometry`]
/// matches cached entries on this segment.
fn anchor_fingerprint(anchors: &[AnchorArray]) -> Vec<u64> {
    let mut fp = Vec::with_capacity(anchors.len() * 6);
    for a in anchors {
        push_f64(&mut fp, a.origin.x);
        push_f64(&mut fp, a.origin.y);
        push_f64(&mut fp, a.axis.x);
        push_f64(&mut fp, a.axis.y);
        push_f64(&mut fp, a.spacing);
        fp.push(a.n_antennas as u64);
    }
    fp
}

impl SteeringCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tables for this (grid, deployment, comb), computed on first
    /// use. Concurrent callers for the same key block on the build rather
    /// than duplicating it.
    pub fn tables(
        &self,
        spec: GridSpec,
        anchors: &[AnchorArray],
        master_anchor_dist: &[f64],
        base_hz: f64,
        step_hz: f64,
    ) -> Arc<SteeringTables> {
        let key = cache_key(spec, anchors, master_anchor_dist, base_hz, step_hz);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(hit) = inner.map.get_mut(&key) {
            hit.last_used = tick;
            self.stats.hit();
            return Arc::clone(&hit.tables);
        }
        self.stats.miss();
        inner.misses += 1;
        let built = Arc::new(SteeringTables::build(
            spec,
            anchors,
            master_anchor_dist,
            base_hz,
            step_hz,
        ));
        let bytes = built.approx_bytes();
        inner.map.insert(
            key.clone(),
            CacheEntry {
                tables: Arc::clone(&built),
                bytes,
                last_used: tick,
            },
        );
        self.enforce_budget(&mut inner, &key);
        self.publish_residency(&inner);
        built
    }

    /// Evicts least-recently-used entries until resident bytes fit the
    /// budget. The entry just inserted (`keep`) is never evicted — a
    /// single over-budget geometry stays resident so the current caller
    /// can still be served from cache; it becomes an eviction candidate
    /// on the next insert. Evictions are reported as invalidations with
    /// cause `capacity`.
    fn enforce_budget(&self, inner: &mut CacheInner, keep: &[u64]) {
        let Some(budget) = inner.byte_budget else {
            return;
        };
        let mut resident: usize = inner.map.values().map(|e| e.bytes).sum();
        let mut evicted = 0usize;
        while resident > budget && inner.map.len() > 1 {
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| k.as_slice() != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(entry) = inner.map.remove(&victim) {
                resident -= entry.bytes;
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.stats.invalidated("capacity", evicted);
        }
    }

    /// Pushes the current entry/byte residency to the gauges; callers
    /// hold the map lock.
    fn publish_residency(&self, inner: &CacheInner) {
        let bytes: usize = inner.map.values().map(|e| e.bytes).sum();
        self.stats.resident(inner.map.len(), bytes);
    }

    /// Caps resident steering payload bytes; `None` (the default) never
    /// evicts. Applies to every clone sharing this cache. With a budget
    /// set, each insert evicts least-recently-used geometries until the
    /// total fits (cause `capacity` in the telemetry), keeping venue-scale
    /// coarse+patch working sets bounded across fleet sites.
    pub fn set_byte_budget(&self, budget: Option<usize>) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.byte_budget = budget;
    }

    /// The configured resident-byte ceiling, if any.
    pub fn byte_budget(&self) -> Option<usize> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .byte_budget
    }

    /// Drops every cached deployment built for exactly this anchor
    /// geometry, returning how many entries were removed. The runtime
    /// supervisor calls this when an anchor is quarantined or
    /// re-admitted (and benches call it on a physical geometry swap), so
    /// the engine never serves steering tables for an anchor set that is
    /// no longer the one being localized against. Entries for *other*
    /// anchor subsets — including the new admitted set — are untouched.
    pub fn invalidate_geometry(&self, anchors: &[AnchorArray]) -> usize {
        self.invalidate_geometry_with_cause(anchors, "geometry")
    }

    /// [`SteeringCache::invalidate_geometry`] with the invalidation
    /// attributed to `cause` in `cache.steering.invalidations.<cause>`
    /// (the runtime supervisor passes `breaker`; benches on a physical
    /// geometry swap keep the default `geometry`).
    pub fn invalidate_geometry_with_cause(
        &self,
        anchors: &[AnchorArray],
        cause: &'static str,
    ) -> usize {
        let fp = anchor_fingerprint(anchors);
        // Every key for an n-anchor deployment has 7 + 6n + n words
        // (master distances trail the geometry), so length + segment
        // equality is an exact match, not a prefix heuristic.
        let expect_len = KEY_ANCHOR_OFFSET + fp.len() + anchors.len();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let before = inner.map.len();
        inner.map.retain(|key, _| {
            key.len() != expect_len
                || key[KEY_ANCHOR_OFFSET..KEY_ANCHOR_OFFSET + fp.len()] != fp[..]
        });
        let removed = before - inner.map.len();
        self.stats.invalidated(cause, removed);
        self.publish_residency(&inner);
        removed
    }

    /// Lookups on this cache (and its clones) that had to build their
    /// tables — this cache's share of the process-wide
    /// `cache.steering.misses` counter.
    pub fn misses(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).misses
    }

    /// Number of cached deployments.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Everything a kernel needs to evaluate one anchor map. The reference
/// kernel reads `corrected` directly; the fast kernels read the SoA and
/// steering layers.
pub struct KernelInputs<'a> {
    /// The corrected channels as produced by [`crate::correction`].
    pub corrected: &'a CorrectedChannels,
    /// The SoA re-pack of the same channels.
    pub soa: &'a SoaChannels,
    /// The per-cell steering geometry.
    pub tables: &'a SteeringTables,
    /// The index window of `tables.spec()` to evaluate —
    /// [`GridPatch::whole`] for a full map, a patch for the hierarchy's
    /// fine level. Maps are shaped like `window.spec` and read the tables
    /// in place: a window needs no tables of its own.
    pub window: GridPatch,
}

/// One interchangeable implementation of the Eq. 17 per-anchor map.
pub trait LikelihoodKernel: Send + Sync + std::fmt::Debug {
    /// A short name for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Evaluates anchor `i`'s likelihood map over `inputs.window` of
    /// `inputs.tables.spec()`, splitting rows across `threads`. Every cell
    /// must be bit-identical to the same parent cell of a full-grid map.
    fn anchor_map(
        &self,
        inputs: &KernelInputs<'_>,
        i: usize,
        combining: AntennaCombining,
        threads: usize,
    ) -> Grid2D;
}

/// The naive per-cell evaluation the workspace started with — one
/// `cis` per (cell, antenna, band), distances recomputed per cell. Kept
/// as ground truth for the equivalence suite and the perf baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceKernel;

impl LikelihoodKernel for ReferenceKernel {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn anchor_map(
        &self,
        inputs: &KernelInputs<'_>,
        i: usize,
        combining: AntennaCombining,
        threads: usize,
    ) -> Grid2D {
        let corrected = inputs.corrected;
        Grid2D::from_fn_par_window(inputs.tables.spec(), inputs.window, threads, |x| {
            crate::likelihood::reference_cell_value(corrected, i, combining, x)
        })
    }
}

/// The comb kernel: a thin adapter over
/// [`bloc_num::sweep::write_comb_cells`]. Per (cell, antenna) the cached
/// steering tables hold the seed `e^{ι2πf_baseΔ/c}` and the comb step
/// `z = e^{ι2πsΔ/c}`; the shared SIMD kernel evaluates every antenna's
/// band sum `seed · Σ_k α_k z^{n_k}` in 4-wide lanes by Horner's rule, one
/// complex multiply-add per band, two neighbouring cells per pass.
/// Off-comb band sets fall back to per-band `cis`
/// ([`sweep::write_offcomb_cells`]) with identical combining semantics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecurrenceKernel;

/// Minimum cells per shard before an anchor map fans out: one cell of a
/// 4-antenna anchor over the 38-slot BLE comb costs ~90 ns warm on the
/// two-cell Horner kernel (traced `corridor_track`, 2-core AVX2 host),
/// so a shard carries at least ~0.37 ms of work and handing it to a
/// worker stays a small fraction of that.
const MIN_CELLS_PER_SHARD: usize = 4096;

impl LikelihoodKernel for RecurrenceKernel {
    fn name(&self) -> &'static str {
        "recurrence"
    }

    fn anchor_map(
        &self,
        inputs: &KernelInputs<'_>,
        i: usize,
        combining: AntennaCombining,
        threads: usize,
    ) -> Grid2D {
        let soa = inputs.soa;
        let tables = inputs.tables;
        let parent = tables.spec();
        let window = inputs.window;
        let uniform = soa.plan.is_uniform_comb();
        let combine = combine_of(combining);
        let sweep_cells = |first_cell: usize, cells: &mut [f64]| {
            if uniform {
                // The cached seed/step phasors make this branch free of
                // transcendentals: pure complex multiply-adds.
                sweep::write_comb_cells(&tables.cell_sweep(soa, i), combine, first_cell, cells);
            } else {
                sweep::write_offcomb_cells(
                    &tables.offcomb_sweep(soa, i),
                    combine,
                    first_cell,
                    cells,
                );
            }
        };

        let mut out = Grid2D::zeros(window.spec);
        let n_cells = out.data().len();
        let nx = window.spec.nx.max(1);
        let threads = bloc_num::par::tuned_threads(n_cells, threads, MIN_CELLS_PER_SHARD);
        let chunk = bloc_num::par::auto_chunk_len(n_cells, nx, threads);
        // A window of whole parent rows (every full-grid map) is one
        // contiguous cell range; any narrower window runs once per row.
        let contiguous = window.spans_rows_of(&parent);
        bloc_num::par::for_each_chunk_mut_named(
            "likelihood",
            out.data_mut(),
            chunk,
            threads,
            |start, cells| {
                // Chunks are whole window rows (`auto_chunk_len` unit).
                debug_assert_eq!(start % nx, 0);
                let row0 = start / nx;
                if contiguous {
                    sweep_cells(window.parent_row_start(&parent, row0), cells);
                } else {
                    for (r, row) in cells.chunks_mut(nx).enumerate() {
                        sweep_cells(window.parent_row_start(&parent, row0 + r), row);
                    }
                }
            },
        );
        out
    }
}

/// The assembled engine: a kernel choice, a thread count, and a shared
/// [`SteeringCache`]. Cloning shares the cache (and the kernel), so a
/// localizer cloned per worker still computes each deployment's geometry
/// once.
#[derive(Debug, Clone)]
pub struct LikelihoodEngine {
    kernel: Arc<dyn LikelihoodKernel>,
    threads: usize,
    cache: SteeringCache,
    /// Warm-path scratch: the SoA re-pack of the previous call, reused so
    /// steady-state soundings allocate no channel tensors. Shared (like
    /// the cache) across clones; `take`/`put` keeps the lock out of the
    /// compute, and a concurrent second caller simply builds fresh.
    soa_arena: Arc<Mutex<Option<Box<SoaChannels>>>>,
}

impl Default for LikelihoodEngine {
    /// Recurrence kernel, single-threaded: the fastest configuration that
    /// composes safely with callers that already parallelize across
    /// soundings (the sweep runner, the ablations).
    fn default() -> Self {
        Self::recurrence()
    }
}

impl LikelihoodEngine {
    /// A single-threaded engine on the phasor-recurrence kernel.
    pub fn recurrence() -> Self {
        Self {
            kernel: Arc::new(RecurrenceKernel),
            threads: 1,
            cache: SteeringCache::new(),
            soa_arena: Arc::default(),
        }
    }

    /// A single-threaded engine on the naive reference kernel.
    pub fn reference() -> Self {
        Self {
            kernel: Arc::new(ReferenceKernel),
            threads: 1,
            cache: SteeringCache::new(),
            soa_arena: Arc::default(),
        }
    }

    /// Runs `f` on the SoA re-pack of `corrected` and `spec`'s steering
    /// tables: one re-pack and one table lookup however many maps `f`
    /// evaluates. The SoA scratch comes from (and returns to) the arena,
    /// so steady-state soundings allocate no channel tensors.
    fn with_inputs<R>(
        &self,
        corrected: &CorrectedChannels,
        spec: GridSpec,
        f: impl FnOnce(&SoaChannels, &SteeringTables) -> R,
    ) -> R {
        let taken = self
            .soa_arena
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        let mut soa = taken.unwrap_or_else(|| Box::new(SoaChannels::empty()));
        soa.rebuild(corrected);
        let tables = self.cache.tables(
            spec,
            &corrected.anchors,
            &corrected.master_anchor_dist,
            soa.plan.base_hz,
            soa.plan.step_hz,
        );
        let out = f(&soa, &tables);
        *self.soa_arena.lock().unwrap_or_else(|e| e.into_inner()) = Some(soa);
        out
    }

    /// Replaces the kernel.
    pub fn with_kernel(mut self, kernel: Arc<dyn LikelihoodKernel>) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets how many threads grid rows are split across (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The active kernel's name.
    pub fn kernel_name(&self) -> &'static str {
        self.kernel.name()
    }

    /// The shared steering cache (exposed for inspection/tests).
    pub fn cache(&self) -> &SteeringCache {
        &self.cache
    }

    /// Per-anchor likelihood map (Eq. 17 for anchor `i`) through the
    /// engine's kernel, cache and thread pool.
    pub fn anchor_likelihood(
        &self,
        corrected: &CorrectedChannels,
        i: usize,
        spec: GridSpec,
        combining: AntennaCombining,
    ) -> Grid2D {
        let whole = GridPatch::whole(spec);
        let mut maps = self.window_likelihoods(corrected, spec, &[whole], &[i], combining);
        maps.pop().unwrap_or_else(|| Grid2D::zeros(spec))
    }

    /// Every listed anchor's map over every index window of `spec` (a
    /// [`GridSpec::patch`]), in window-major order: `maps[w ·
    /// anchors.len() + k]` is anchor `anchors[k]` on `windows[w]`. Each
    /// map is shaped like its window's spec, and every cell is
    /// bit-identical to the same cell of the full [`Self::anchor_likelihood`]
    /// map: the kernel reads `spec`'s cached steering tables in place, so
    /// any number of windows share the one table per (grid, comb, anchor
    /// set). One SoA re-pack and one steering-table lookup serve the whole
    /// batch — the hierarchy asks for each level's maps in one call.
    ///
    /// # Panics
    ///
    /// When a window does not lie inside `spec`.
    pub fn window_likelihoods(
        &self,
        corrected: &CorrectedChannels,
        spec: GridSpec,
        windows: &[GridPatch],
        anchors: &[usize],
        combining: AntennaCombining,
    ) -> Vec<Grid2D> {
        // A window hanging off the right edge would silently wrap into the
        // next row's cells rather than fail a slice bound.
        assert!(
            windows
                .iter()
                .all(|w| w.x0 + w.spec.nx <= spec.nx && w.y0 + w.spec.ny <= spec.ny),
            "window must lie inside the grid"
        );
        let maps = self.with_inputs(corrected, spec, |soa, tables| {
            let mut maps = Vec::with_capacity(windows.len() * anchors.len());
            for &window in windows {
                let inputs = KernelInputs {
                    corrected,
                    soa,
                    tables,
                    window,
                };
                for &i in anchors {
                    maps.push(self.kernel.anchor_map(&inputs, i, combining, self.threads));
                }
            }
            maps
        });
        let cells: usize = windows.iter().map(|w| w.spec.len()).sum();
        bloc_obs::counter("engine.cells_evaluated").add((cells * anchors.len()) as u64);
        maps
    }

    /// The joint likelihood (per-anchor maps normalized, degradation-
    /// weighted, summed — see [`crate::likelihood::joint_likelihood`] for
    /// the weighting contract) with the SoA build and geometry lookup
    /// amortized across anchors.
    ///
    /// With more than one thread configured, parallelism fans out across
    /// *anchors* — whole independent maps, the coarsest unit available —
    /// rather than intra-map row shards: each worker computes one
    /// anchor's map serially, and the weighted sum then consumes them in
    /// anchor order, so the result stays bit-identical to the serial
    /// path.
    pub fn joint_likelihood(
        &self,
        corrected: &CorrectedChannels,
        spec: GridSpec,
        combining: AntennaCombining,
    ) -> Grid2D {
        let n = corrected.n_anchors();
        // Only anchors with surviving evidence get maps (the weighting
        // skips the rest), and each map is a full grid of kernel work —
        // one item per shard is already coarse enough to pay for itself.
        let alive: Vec<usize> = (0..n)
            .filter(|&i| corrected.surviving_fraction(i) > 0.0)
            .collect();
        let anchor_threads = bloc_num::par::tuned_threads(alive.len(), self.threads, 1);
        let joint = self.with_inputs(corrected, spec, |soa, tables| {
            let inputs = KernelInputs {
                corrected,
                soa,
                tables,
                window: GridPatch::whole(spec),
            };
            if anchor_threads > 1 {
                let maps = bloc_num::par::map_named(
                    "likelihood.anchors",
                    alive.len(),
                    anchor_threads,
                    |k| self.kernel.anchor_map(&inputs, alive[k], combining, 1),
                );
                let mut by_anchor: Vec<Option<Grid2D>> = (0..n).map(|_| None).collect();
                for (&i, map) in alive.iter().zip(maps) {
                    by_anchor[i] = Some(map);
                }
                crate::likelihood::weighted_joint(corrected, spec, |i| {
                    by_anchor[i]
                        .take()
                        .unwrap_or_else(|| self.kernel.anchor_map(&inputs, i, combining, 1))
                })
            } else {
                crate::likelihood::weighted_joint(corrected, spec, |i| {
                    self.kernel.anchor_map(&inputs, i, combining, self.threads)
                })
            }
        });
        // One kernel pass per alive anchor: the unit every dense-vs-
        // hierarchical reduction gate and per-round soak report counts.
        bloc_obs::counter("engine.cells_evaluated").add((spec.len() * alive.len()) as u64);
        joint
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn band_plan_detects_the_ble_comb() {
        // 2402, 2404, …: ascending 2 MHz comb.
        let freqs: Vec<f64> = (0..10).map(|k| 2.402e9 + 2e6 * k as f64).collect();
        let plan = BandPlan::build(&freqs);
        assert!(plan.is_uniform_comb());
        assert_eq!(plan.base_hz, 2.402e9);
        assert_eq!(plan.step_hz, 2e6);
        assert_eq!(plan.gaps[0], 0);
        assert!(plan.gaps[1..].iter().all(|&g| g == 1));
    }

    #[test]
    fn band_plan_sorts_and_handles_gaps() {
        // Shuffled order with a missing channel: gaps reflect the holes.
        let freqs = [2.410e9, 2.402e9, 2.416e9];
        let plan = BandPlan::build(&freqs);
        assert_eq!(plan.order, vec![1, 0, 2]);
        // Sorted gaps are 8 and 6 MHz: the candidate step is 6 MHz, which
        // does not divide 8 MHz, so no exact recurrence exists from these
        // gaps alone — BandPlan must fall back rather than mis-plan.
        assert!(!plan.is_uniform_comb());
        assert!(!BandPlan::build(&[2.402e9, 2.410e9, 2.416e9]).is_uniform_comb());
    }

    #[test]
    fn band_plan_uniform_with_adjacent_pair_present() {
        // As long as one adjacent pair exists, the 2 MHz step is found
        // and wider holes become multi-slot gaps.
        let freqs = [2.402e9, 2.404e9, 2.412e9];
        let plan = BandPlan::build(&freqs);
        assert!(plan.is_uniform_comb());
        assert_eq!(plan.gaps, vec![0, 1, 4]);
    }

    #[test]
    fn band_plan_degenerate_sizes() {
        assert!(!BandPlan::build(&[]).is_uniform_comb());
        let one = BandPlan::build(&[2.44e9]);
        assert!(!one.is_uniform_comb());
        assert_eq!(one.gaps, vec![0]);
        assert_eq!(one.base_hz, 2.44e9);
    }

    #[test]
    fn steering_cache_returns_the_same_tables() {
        let spec = GridSpec::covering(P2::new(0.0, 0.0), P2::new(2.0, 2.0), 0.5);
        let anchors = vec![
            AnchorArray::centered(0, P2::new(1.0, 0.0), P2::new(1.0, 0.0), 4),
            AnchorArray::centered(1, P2::new(0.0, 1.0), P2::new(0.0, 1.0), 4),
        ];
        let dists = vec![0.0, anchors[1].antenna(0).dist(anchors[0].antenna(0))];
        let (base, step) = (2.402e9, 2.0e6);
        let cache = SteeringCache::new();
        let a = cache.tables(spec, &anchors, &dists, base, step);
        let b = cache.tables(spec, &anchors, &dists, base, step);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(cache.len(), 1);

        // A different grid is a different deployment entry.
        let spec2 = GridSpec::covering(P2::new(0.0, 0.0), P2::new(2.0, 2.0), 0.25);
        let c = cache.tables(spec2, &anchors, &dists, base, step);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);

        // A different comb (phasor tables differ) is its own entry too.
        let e = cache.tables(spec, &anchors, &dists, base + 2.0e6, step);
        assert!(!Arc::ptr_eq(&a, &e));
        assert_eq!(cache.len(), 3);

        // Clones share the map.
        let clone = cache.clone();
        let d = clone.tables(spec, &anchors, &dists, base, step);
        assert!(Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn steering_cache_byte_budget_evicts_lru() {
        let anchors = vec![
            AnchorArray::centered(0, P2::new(1.0, 0.0), P2::new(1.0, 0.0), 4),
            AnchorArray::centered(1, P2::new(0.0, 1.0), P2::new(0.0, 1.0), 4),
        ];
        let dists = vec![0.0, anchors[1].antenna(0).dist(anchors[0].antenna(0))];
        let (base, step) = (2.402e9, 2.0e6);
        let spec_at = |res: f64| GridSpec::covering(P2::new(0.0, 0.0), P2::new(2.0, 2.0), res);

        let cache = SteeringCache::new();
        assert_eq!(cache.byte_budget(), None);
        let a = cache.tables(spec_at(0.5), &anchors, &dists, base, step);
        let b = cache.tables(spec_at(0.4), &anchors, &dists, base, step);
        assert_eq!(cache.len(), 2);
        // Size the budget so `a` plus the upcoming 0.25 m entry fit, but
        // all three do not.
        let c_bytes =
            SteeringTables::build(spec_at(0.25), &anchors, &dists, base, step).approx_bytes();
        cache.set_byte_budget(Some(a.approx_bytes() + c_bytes));
        // Touch `a` so the 0.4 m entry is the least recently used, then
        // insert a third: `b` must be the eviction victim.
        let a2 = cache.tables(spec_at(0.5), &anchors, &dists, base, step);
        assert!(Arc::ptr_eq(&a, &a2));
        let _c = cache.tables(spec_at(0.25), &anchors, &dists, base, step);
        assert_eq!(cache.len(), 2);
        let b2 = cache.tables(spec_at(0.4), &anchors, &dists, base, step);
        assert!(
            !Arc::ptr_eq(&b, &b2),
            "evicted entry must be rebuilt, not served stale"
        );

        // A single entry larger than the budget stays resident: the cache
        // never evicts below one geometry.
        cache.set_byte_budget(Some(1));
        let big = cache.tables(spec_at(0.1), &anchors, &dists, base, step);
        assert_eq!(cache.len(), 1);
        let big2 = cache.tables(spec_at(0.1), &anchors, &dists, base, step);
        assert!(Arc::ptr_eq(&big, &big2));
    }

    #[test]
    fn steering_tables_match_direct_geometry() {
        let spec = GridSpec::covering(P2::new(-0.5, -0.5), P2::new(3.0, 3.0), 0.7);
        let anchors = vec![
            AnchorArray::centered(0, P2::new(1.0, -0.4), P2::new(1.0, 0.0), 3),
            AnchorArray::centered(1, P2::new(-0.4, 1.0), P2::new(0.0, 1.0), 4),
        ];
        let master0 = anchors[0].antenna(0);
        let dists = vec![0.0, anchors[1].antenna(0).dist(master0)];
        let (base, step) = (2.402e9, 2.0e6);
        let tables = SteeringTables::build(spec, &anchors, &dists, base, step);
        let tau_over_c = std::f64::consts::TAU / SPEED_OF_LIGHT;
        for iy in 0..spec.ny {
            for ix in 0..spec.nx {
                let x = spec.cell_center(ix, iy);
                let cell = spec.flat(ix, iy);
                for (i, a) in anchors.iter().enumerate() {
                    let ds = tables.cell_deltas(i, cell);
                    let nl = tables.n_lanes[i];
                    assert_eq!(ds.len(), a.n_antennas);
                    for (j, &d) in ds.iter().enumerate() {
                        let manual = x.dist(a.antenna(j)) - x.dist(master0) - dists[i];
                        assert_eq!(d, manual, "cell ({ix},{iy}) anchor {i} ant {j}");
                        let k = cell * nl + j;
                        let seed = C64::new(tables.seed_re[i][k], tables.seed_im[i][k]);
                        let rot = C64::new(tables.step_re[i][k], tables.step_im[i][k]);
                        assert_eq!(seed, C64::cis(tau_over_c * d * base));
                        assert_eq!(rot, C64::cis(tau_over_c * d * step));
                    }
                    // Padding lanes stay neutral: zero delta, unit phasor
                    // — a zero alpha annihilates them exactly.
                    for j in a.n_antennas..nl {
                        let k = cell * nl + j;
                        assert_eq!(tables.delta[i][k], 0.0);
                        assert_eq!(
                            C64::new(tables.seed_re[i][k], tables.seed_im[i][k]),
                            C64::new(1.0, 0.0)
                        );
                        assert_eq!(
                            C64::new(tables.step_re[i][k], tables.step_im[i][k]),
                            C64::new(1.0, 0.0)
                        );
                    }
                }
            }
        }
    }
}
