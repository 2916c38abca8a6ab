//! The workloads: set-up, timed passes and traced passes.
//!
//! A *pass* serves every recorded round of a workload once, closed loop:
//! a tag's next round starts only when its previous round returned. Each
//! pass starts from fresh supervised sessions (or a fresh fleet) built
//! before its clock starts, and replays the soundings set-up recorded, so
//! every pass must reproduce set-up's outcomes bit for bit.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bloc_ble::channels::Channel;
use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig, SoundingData};
use bloc_chan::{AnchorArray, PathCache};
use bloc_core::engine::{LikelihoodEngine, SoaChannels, SteeringCache};
use bloc_core::fallback::FallbackStack;
use bloc_core::fleet::{sounding_seed, tag_seed, FleetDriver, SiteId, SiteSpec, TagId};
use bloc_core::hierarchical::HierarchicalConfig;
use bloc_core::runtime::{RoundOutcome, RuntimeConfig, SessionSupervisor};
use bloc_core::tracker::{FixDisposition, Tracker};
use bloc_core::{BlocConfig, BlocLocalizer, EstimateMode, FleetConfig, FleetSupervisor};
use bloc_core::{TagRound, TagRoundOutcome};
use bloc_num::seed::splitmix64;
use bloc_num::{GridSpec, P2};
use bloc_obs::{Registry, RunReport, Tracer};
use bloc_testbed::fleet::{FleetTestbed, FleetTestbedDriver};
use bloc_testbed::scenario::Scenario;
use bloc_testbed::train_fingerprint_db;

use crate::replay::{Key, Recorder, Recording};
use crate::stats::{median, Digest};
use crate::trace::{
    analyze, Span, TraceTotals, TracedKernel, BATCH, REPLAY_PRIORS, REPLAY_REFINE, REPLAY_TRACKER,
    ROUND,
};

/// Round period, seconds: the corridor walk is sampled every 0.25 s, and
/// the room and fleet sessions run on the same cadence.
pub const DT: f64 = 0.25;

/// Grid resolution of the fleet sites, metres: the robustness-scale grid
/// the fleet is served at.
pub const FLEET_RESOLUTION_M: f64 = 0.25;

/// Venue seeds: each workload serves one fixed deployment (the seeds the
/// repository's baselines use), and `--seed` draws the traffic — tag
/// positions, walks and every sounding's noise and faults. A fresh venue
/// per seed would make the accuracy tail a property of the venue draw
/// rather than of the program. This one is the corridor of the
/// hierarchical baseline.
const CORRIDOR_VENUE_SEED: u64 = 2026;
/// The fleet sites of the fleet soak.
const FLEET_VENUE_SEED: u64 = 2018;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 34.3×9.9 m corridor, hierarchical solver, walking tags.
    CorridorTrack,
    /// Four fleet sites under their fault menu, `nproc` workers.
    FleetFaults,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 2] = [Kind::CorridorTrack, Kind::FleetFaults];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CorridorTrack => "corridor_track",
            Kind::FleetFaults => "fleet_faults",
        }
    }

    /// The workload named `s`.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// How much one pass serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Tags (per site, on the fleet).
    pub tags: usize,
    /// Rounds per tag.
    pub rounds: u64,
}

impl Size {
    /// The measured size.
    pub fn full(kind: Kind) -> Size {
        match kind {
            // Three rounds: the first runs the full coarse→fine flow, the
            // next two are seeded from the track.
            Kind::CorridorTrack => Size {
                tags: 128,
                rounds: 3,
            },
            // 14 rounds cover the scheduled anchor-2 outage (rounds 4–10)
            // and the breaker cooldown after it.
            Kind::FleetFaults => Size {
                tags: 16,
                rounds: 14,
            },
        }
    }

    /// The self-test size.
    pub fn tiny(kind: Kind) -> Size {
        match kind {
            Kind::CorridorTrack => Size { tags: 1, rounds: 3 },
            Kind::FleetFaults => Size { tags: 2, rounds: 6 },
        }
    }
}

/// One round as the benchmark saw it.
#[derive(Debug, Clone, Copy)]
pub struct RoundObs {
    /// Wall time of the round, µs.
    pub latency_us: f64,
    /// The delivered estimate, if any.
    pub position: Option<P2>,
    /// The simulator's ground truth.
    pub truth: P2,
}

/// Everything one pass produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Every round, in serving order.
    pub rounds: Vec<RoundObs>,
    /// Σ wall time of the timed calls, seconds.
    pub wall_s: f64,
    /// Position digest of the rounds so far.
    digest: Digest,
    /// Wall time of each fleet batch, ms.
    pub batch_ms: Vec<f64>,
    /// Σ batch wall × workers, µs (fleet).
    pub worker_us: f64,
    /// Σ per-tag latency inside batches, µs (fleet).
    pub busy_us: f64,
    /// Native fixes.
    pub fixes: u64,
    /// Native fixes refined with fallback priors.
    pub refined: u64,
    /// Estimates offered to a tracker.
    pub offered: u64,
    /// Offers the innovation gate rejected.
    pub gated: u64,
    /// Sounding requests.
    pub requests: u64,
    /// Requests for soundings that were never recorded.
    pub misses: u64,
    /// Recorded soundings the pass never asked for.
    pub unconsumed: usize,
    /// Registry activity during the timed calls.
    pub counters: RunReport,
    /// Kernel calls (traced session passes).
    pub kernel_calls: u64,
    /// Per-layer totals (traced passes).
    pub trace: Option<TraceTotals>,
    /// The last fix of the first tag.
    pub probe: Option<ProbeFix>,
}

/// A fix to size the cold steering build on: its sounding, admitted
/// anchors and likelihood grid.
#[derive(Debug, Clone)]
pub struct ProbeFix {
    key: Key,
    admitted: Vec<usize>,
    spec: GridSpec,
}

impl PassOut {
    /// Position digest of the pass.
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }

    /// Position estimates delivered.
    pub fn delivered(&self) -> u64 {
        self.rounds.iter().filter(|r| r.position.is_some()).count() as u64
    }

    fn observe(
        &mut self,
        id: (usize, u64, u64),
        kind: &str,
        outcome: Option<&RoundOutcome>,
        position: Option<P2>,
        latency_us: f64,
        truth: P2,
    ) {
        self.digest.round(id, kind, position);
        self.rounds.push(RoundObs {
            latency_us,
            position,
            truth,
        });
        let disposition = match outcome {
            Some(RoundOutcome::Fix(f)) => {
                self.fixes += 1;
                if f.mode == EstimateMode::CsiFused {
                    self.refined += 1;
                }
                if id.0 == 0 && id.1 == 0 {
                    self.probe = Some(ProbeFix {
                        key: (id.0, id.1, id.2, f.attempts - 1),
                        admitted: f.admitted.clone(),
                        spec: f.estimate.likelihood.spec(),
                    });
                }
                Some(f.disposition)
            }
            Some(RoundOutcome::Degraded(d)) => Some(d.disposition),
            _ => None,
        };
        if let Some(d) = disposition {
            self.offered += 1;
            if matches!(d, FixDisposition::Rejected { .. }) {
                self.gated += 1;
            }
        }
    }
}

fn round_kind(outcome: &RoundOutcome) -> &'static str {
    match outcome {
        RoundOutcome::Fix(_) => "fix",
        RoundOutcome::Degraded(_) => "degraded",
        RoundOutcome::Deferred(_) => "deferred",
    }
}

/// `Tracker::offer` replayed on the round's estimate, from the tracker
/// state the round started with.
fn replay_tracker(mut tracker: Tracker, outcome: &RoundOutcome) {
    match outcome {
        RoundOutcome::Fix(f) => {
            let _span = Span::open(REPLAY_TRACKER);
            std::hint::black_box(tracker.offer(f.estimate.position, DT));
        }
        RoundOutcome::Degraded(d) => {
            let _span = Span::open(REPLAY_TRACKER);
            std::hint::black_box(tracker.offer_degraded(d.estimate.position, DT, d.sigma_m));
        }
        RoundOutcome::Deferred(_) => {}
    }
}

/// The fallback layer's calls replayed on the round's own inputs:
/// priors and refinement for a refined fix, the fallback-only estimate
/// for a degraded round.
fn replay_fallback(
    site: &SiteSpec,
    localizer: &BlocLocalizer,
    basis: &SoundingData,
    outcome: &RoundOutcome,
) {
    match outcome {
        RoundOutcome::Fix(f) if f.mode == EstimateMode::CsiFused => {
            let grid = f.estimate.likelihood.spec();
            let (fp, counts) = {
                let _span = Span::open(REPLAY_PRIORS);
                site.fallback.priors(basis, grid)
            };
            let mut priors = Vec::new();
            if let Some((bump, _)) = &fp {
                priors.push((bump, f.weights.fingerprint));
            }
            if let Some(c) = &counts {
                priors.push((&c.likelihood, f.weights.counts));
            }
            let refs: Vec<P2> = f
                .admitted
                .iter()
                .map(|&i| site.anchors[i].center())
                .collect();
            let est = f.estimate.clone();
            let _span = Span::open(REPLAY_REFINE);
            std::hint::black_box(localizer.refine_with_priors(est, &priors, f.weights.csi, &refs));
        }
        RoundOutcome::Degraded(_) => {
            let _span = Span::open(REPLAY_PRIORS);
            std::hint::black_box(site.fallback.estimate(basis, site.bloc.grid).ok());
        }
        _ => {}
    }
}

/// One cold `SteeringCache::tables` build on a workload's own grid.
#[derive(Debug, Clone)]
pub struct SteeringProbe {
    spec: GridSpec,
    anchors: Vec<AnchorArray>,
    master_anchor_dist: Vec<f64>,
    base_hz: f64,
    step_hz: f64,
}

impl SteeringProbe {
    fn new(
        localizer: &BlocLocalizer,
        data: &SoundingData,
        admitted: &[usize],
        spec: GridSpec,
    ) -> Option<Self> {
        let data = if admitted.len() == data.anchors.len() {
            data.clone()
        } else {
            data.with_anchor_subset(admitted)
        };
        let corrected = localizer.correct(&data).ok()?;
        let soa = SoaChannels::build(&corrected);
        Some(Self {
            spec,
            anchors: corrected.anchors.clone(),
            master_anchor_dist: corrected.master_anchor_dist.clone(),
            base_hz: soa.plan.base_hz,
            step_hz: soa.plan.step_hz,
        })
    }

    /// Median wall time of `reps` cold builds, ms.
    pub fn build_ms(&self, reps: usize) -> f64 {
        let times: Vec<f64> = (0..reps.max(1))
            .map(|_| {
                let cache = SteeringCache::new();
                let start = Instant::now();
                std::hint::black_box(cache.tables(
                    self.spec,
                    &self.anchors,
                    &self.master_anchor_dist,
                    self.base_hz,
                    self.step_hz,
                ));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&times)
    }
}

/// What set-up measured of the channel simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChanStats {
    /// Mean wall time of one live sounding, µs.
    pub sound_us: f64,
    /// Path-cache hit fraction while recording.
    pub path_hit_frac: f64,
}

/// A set-up workload, ready to replay.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Its size.
    pub size: Size,
    /// Worker threads of the timed passes.
    pub threads: usize,
    /// Channels sounded per fix (hops).
    pub hops: usize,
    /// Digest of the recording pass, which every replay must reproduce.
    pub reference: u64,
    /// The simulator's cost while recording.
    pub chan: ChanStats,
    /// The cold steering build probe.
    pub probe: Option<SteeringProbe>,
    recording: Recording,
    body: Body,
}

enum Body {
    Sessions(Sessions),
    Fleet(Fleet),
}

/// One supervised session per tag on one site.
struct Sessions {
    config: BlocConfig,
    n_anchors: usize,
    runtime: RuntimeConfig,
    /// Warmed by the recording pass; every pass's sessions share it.
    engine: LikelihoodEngine,
    /// Ground truth per tag per round.
    truths: Vec<Vec<P2>>,
    seed: u64,
}

/// The fleet: site specs and the fleet policy.
struct Fleet {
    specs: Vec<SiteSpec>,
    config: FleetConfig,
    tags_per_site: usize,
    rounds: u64,
    truths: HashMap<(usize, u64, u64), P2>,
}

/// The live simulator for session workloads.
struct LiveSounder<'a> {
    sounder: Sounder<'a>,
    channels: Vec<Channel>,
    truths: &'a [Vec<P2>],
    seed: u64,
}

impl FleetDriver for LiveSounder<'_> {
    fn sound(&self, site: SiteId, tag: TagId, round: u64, attempt: usize) -> SoundingData {
        let mut rng = StdRng::seed_from_u64(sounding_seed(self.seed, site, tag, round, attempt));
        let truth = self.truths[tag.0 as usize][round as usize];
        self.sounder.sound(truth, &self.channels, &mut rng)
    }
}

/// The live simulator for the fleet: each site's sounder under the
/// testbed's per-site fault menu, at the benchmark's tag positions.
struct FleetSounder<'a> {
    menu: FleetTestbedDriver<'a>,
    sounders: Vec<Sounder<'a>>,
    channels: &'a [Channel],
    truths: &'a HashMap<(usize, u64, u64), P2>,
    seed: u64,
}

impl FleetDriver for FleetSounder<'_> {
    fn sound(&self, site: SiteId, tag: TagId, round: u64, attempt: usize) -> SoundingData {
        let s = sounding_seed(self.seed, site, tag, round, attempt);
        let plan = self.menu.plan_for(site, round).with_seed(s);
        let mut rng = StdRng::seed_from_u64(s);
        let truth = self.truths[&(site.0, tag.0, round)];
        self.sounders[site.0]
            .clone()
            .with_faults(plan)
            .sound(truth, self.channels, &mut rng)
    }
}

fn path_hit_frac(report: &RunReport) -> f64 {
    let get = |n: &str| report.counters.get(n).copied().unwrap_or(0) as f64;
    crate::metrics::ratio(
        get("cache.path.hits"),
        get("cache.path.hits") + get("cache.path.misses"),
    )
}

/// `n` seeded positions stratified over `[x0, x1] × [y0, y1]`: one per
/// cell of a near-square grid of strata, uniform within its cell. Every
/// seed draws fresh positions, but each draw covers the whole venue, so
/// the error distribution does not hinge on how many tags a draw happened
/// to put near a reflector.
fn stratified(n: usize, (x0, x1): (f64, f64), (y0, y1): (f64, f64), rng: &mut StdRng) -> Vec<P2> {
    let (w, h) = (x1 - x0, y1 - y0);
    let nx = ((n as f64 * w / h).sqrt().round() as usize).clamp(1, n.max(1));
    let ny = n.div_ceil(nx);
    (0..n)
        .map(|k| {
            let (i, j) = ((k % nx) as f64, (k / nx) as f64);
            P2::new(
                x0 + w * (i + rng.gen_range(0.0..1.0)) / nx as f64,
                y0 + h * (j + rng.gen_range(0.0..1.0)) / ny as f64,
            )
        })
        .collect()
}

/// Tags walking along the aisle at 0.8–1.4 m/s, turning back 1 m before
/// the end walls.
fn walking_tags(width: f64, height: f64, size: Size, seed: u64) -> Vec<Vec<P2>> {
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x7761_6c6b));
    let (lo, hi) = (1.0, width - 1.0);
    let starts = stratified(size.tags, (lo, hi), (1.0, height - 1.0), &mut rng);
    starts
        .into_iter()
        .map(|start| {
            let speed = rng.gen_range(0.8..1.4);
            let dir = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            (0..size.rounds)
                .map(|r| {
                    // Walk on a loop of length 2·(hi − lo), folded back
                    // onto [lo, hi].
                    let span = hi - lo;
                    let s = (start.x - lo + dir * speed * r as f64 * DT).rem_euclid(2.0 * span);
                    let x = if s <= span { lo + s } else { hi - (s - span) };
                    P2::new(x, start.y)
                })
                .collect()
        })
        .collect()
}

impl Sessions {
    fn session(&self, tag: usize, engine: LikelihoodEngine) -> SessionSupervisor {
        let mut rc = self.runtime.clone();
        rc.retry.seed = tag_seed(self.seed, SiteId(0), TagId(tag as u64));
        let localizer = BlocLocalizer::new(self.config).with_engine(engine);
        SessionSupervisor::new(localizer, self.n_anchors, rc)
    }

    fn pass<D: FleetDriver>(&self, driver: &D, engine: LikelihoodEngine, traced: bool) -> PassOut {
        let mut sups: Vec<SessionSupervisor> = (0..self.truths.len())
            .map(|t| self.session(t, engine.clone()))
            .collect();
        let rounds = self.truths.first().map_or(0, Vec::len) as u64;
        let mut out = PassOut::default();
        let before = Registry::global().snapshot();
        for r in 0..rounds {
            for (t, sup) in sups.iter_mut().enumerate() {
                let tag = TagId(t as u64);
                let tracker = traced.then(|| sup.pipeline().tracker().clone());
                let span = traced.then(|| Span::open(ROUND));
                let start = Instant::now();
                let outcome = sup.run_round(DT, |attempt| driver.sound(SiteId(0), tag, r, attempt));
                let elapsed = start.elapsed();
                drop(span);
                if let Some(tracker) = tracker {
                    replay_tracker(tracker, &outcome);
                }
                out.wall_s += elapsed.as_secs_f64();
                out.observe(
                    (0, tag.0, r),
                    round_kind(&outcome),
                    Some(&outcome),
                    outcome.position(),
                    elapsed.as_secs_f64() * 1e6,
                    self.truths[t][r as usize],
                );
            }
        }
        out.counters = Registry::global().snapshot().diff(&before);
        out
    }

    /// The recording pass: each tag's session runs all its rounds on one
    /// of `threads` workers (sessions share nothing but the steering
    /// cache, whose contents do not depend on the order of lookups), and
    /// the outcomes are folded in serving order, so the digest equals a
    /// sequential pass's.
    fn record<D: FleetDriver>(&self, driver: &D, threads: usize) -> PassOut {
        let rounds = self.truths.first().map_or(0, Vec::len) as u64;
        let per_tag = bloc_num::par::map_named("bench.record", self.truths.len(), threads, |t| {
            let mut sup = self.session(t, self.engine.clone());
            (0..rounds)
                .map(|r| {
                    let start = Instant::now();
                    let outcome = sup.run_round(DT, |attempt| {
                        driver.sound(SiteId(0), TagId(t as u64), r, attempt)
                    });
                    (outcome, start.elapsed().as_secs_f64())
                })
                .collect::<Vec<_>>()
        });
        let mut out = PassOut::default();
        for r in 0..rounds as usize {
            for (t, tag_rounds) in per_tag.iter().enumerate() {
                let (outcome, secs) = &tag_rounds[r];
                out.wall_s += secs;
                out.observe(
                    (0, t as u64, r as u64),
                    round_kind(outcome),
                    Some(outcome),
                    outcome.position(),
                    secs * 1e6,
                    self.truths[t][r],
                );
            }
        }
        out
    }
}

impl Fleet {
    fn pass<D: FleetDriver>(
        &self,
        driver: &D,
        threads: usize,
        traced: Option<&Recording>,
    ) -> PassOut {
        let mut fleet = FleetSupervisor::new(FleetConfig {
            threads,
            ..self.config.clone()
        });
        let mut tags: Vec<(SiteId, TagId)> = Vec::new();
        for spec in &self.specs {
            let site = fleet.add_site(spec.clone());
            for _ in 0..self.tags_per_site {
                tags.push((site, fleet.register_tag(site)));
            }
        }
        // Refinement replays need each site's scoring configuration.
        let localizers: Vec<BlocLocalizer> = match traced {
            Some(_) => self
                .specs
                .iter()
                .map(|s| BlocLocalizer::new(s.bloc))
                .collect(),
            None => Vec::new(),
        };
        let mut out = PassOut::default();
        let before = Registry::global().snapshot();
        for r in 0..self.rounds {
            let trackers: Option<HashMap<u64, Tracker>> = traced.map(|_| {
                tags.iter()
                    .filter_map(|&(s, t)| {
                        fleet
                            .session(s, t)
                            .map(|sup| (t.0, sup.pipeline().tracker().clone()))
                    })
                    .collect()
            });
            let span = traced.is_some().then(|| Span::open(BATCH));
            let start = Instant::now();
            let report = fleet.run_batch(DT, driver);
            let elapsed = start.elapsed();
            drop(span);
            out.wall_s += elapsed.as_secs_f64();
            out.batch_ms.push(elapsed.as_secs_f64() * 1e3);
            out.worker_us += elapsed.as_secs_f64() * 1e6 * threads as f64;
            for TagRound {
                site,
                tag,
                outcome,
                latency_us,
            } in &report.outcomes
            {
                out.busy_us += *latency_us as f64;
                let round = match outcome {
                    TagRoundOutcome::Round(o) => Some(o),
                    _ => None,
                };
                let truth = self.truths[&(site.0, tag.0, r)];
                out.observe(
                    (site.0, tag.0, r),
                    outcome.kind(),
                    round,
                    outcome.position(),
                    *latency_us as f64,
                    truth,
                );
                if let (Some(rec), Some(o), Some(trackers)) = (traced, round, &trackers) {
                    if let Some(tracker) = trackers.get(&tag.0) {
                        replay_tracker(tracker.clone(), o);
                    }
                    if let Some(basis) = rec.get(&(site.0, tag.0, r, 0)) {
                        replay_fallback(&self.specs[site.0], &localizers[site.0], basis, o);
                    }
                }
            }
        }
        out.counters = Registry::global().snapshot().diff(&before);
        out
    }
}

impl Workload {
    /// Builds the scenario, surveys fingerprints (fleet), records every
    /// sounding of one live pass and warms the steering cache with it.
    pub fn setup(kind: Kind, seed: u64, size: Size) -> Workload {
        match kind {
            Kind::CorridorTrack => Self::setup_corridor(seed, size),
            Kind::FleetFaults => Self::setup_fleet(seed, size),
        }
    }

    fn setup_corridor(seed: u64, size: Size) -> Workload {
        let scenario = Scenario::corridor(CORRIDOR_VENUE_SEED);
        let truths = walking_tags(scenario.room.width, scenario.room.height, size, seed);
        let runtime = RuntimeConfig {
            hierarchical: Some(HierarchicalConfig::default()),
            ..RuntimeConfig::default()
        };
        let sessions = Sessions {
            config: scenario.bloc_config(),
            n_anchors: scenario.anchors.len(),
            runtime,
            engine: LikelihoodEngine::default(),
            truths,
            seed,
        };
        let channels = all_data_channels();
        let hops = channels.len();
        let recorder = Recorder::new(LiveSounder {
            sounder: scenario
                .sounder(SounderConfig::default())
                .with_path_cache(PathCache::new()),
            channels,
            truths: &sessions.truths,
            seed,
        });
        let before = Registry::global().snapshot();
        let reference = sessions.record(&recorder, bloc_num::par::max_threads());
        let path_hit_frac = path_hit_frac(&Registry::global().snapshot().diff(&before));
        let recording = recorder.finish();
        let localizer = BlocLocalizer::new(sessions.config);
        let probe = reference.probe.as_ref().and_then(|p| {
            SteeringProbe::new(&localizer, recording.get(&p.key)?, &p.admitted, p.spec)
        });
        Workload {
            kind: Kind::CorridorTrack,
            size,
            threads: 1,
            hops,
            reference: reference.digest(),
            chan: ChanStats {
                sound_us: recording.sound_us_mean,
                path_hit_frac,
            },
            probe,
            recording,
            body: Body::Sessions(sessions),
        }
    }

    fn setup_fleet(seed: u64, size: Size) -> Workload {
        let threads = bloc_num::par::max_threads();
        let mut testbed = FleetTestbed::standard(FLEET_VENUE_SEED);
        // The survey runs here rather than in `site_specs`, so set-up
        // stays within `nproc` threads (the database is bit-identical at
        // any thread count).
        testbed.with_fingerprints = false;
        let mut specs = testbed.site_specs(Some(FLEET_RESOLUTION_M));
        for (i, spec) in specs.iter_mut().enumerate() {
            let survey_seed = FLEET_VENUE_SEED ^ 0xF1F0 ^ i as u64;
            let db = train_fingerprint_db(&testbed.scenarios[i], 0.75, survey_seed, threads);
            spec.fallback = FallbackStack::clone(&spec.fallback).with_fingerprints(db);
        }
        // Tags orbit 0.2 m around stratified points of each room; tag ids
        // follow registration order (sites in order, then tags).
        let mut truths = HashMap::new();
        for (s, scenario) in testbed.scenarios.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x666c_6565 ^ s as u64));
            let (w, h) = (scenario.room.width, scenario.room.height);
            let centres = stratified(size.tags, (1.0, w - 1.0), (1.0, h - 1.0), &mut rng);
            for (k, c) in centres.into_iter().enumerate() {
                let tag = (s * size.tags + k) as u64;
                let phase = rng.gen_range(0.0..std::f64::consts::TAU);
                for r in 0..size.rounds {
                    let a = 0.37 * r as f64 + phase;
                    truths.insert(
                        (s, tag, r),
                        P2::new(c.x + 0.2 * a.cos(), c.y + 0.2 * a.sin()),
                    );
                }
            }
        }
        let fleet = Fleet {
            specs,
            config: FleetConfig {
                seed,
                ..FleetConfig::default()
            },
            tags_per_site: size.tags,
            rounds: size.rounds,
            truths,
        };
        let hops = testbed.channels.len();
        let recorder = Recorder::new(FleetSounder {
            menu: testbed.driver(),
            sounders: testbed
                .scenarios
                .iter()
                .zip(&testbed.path_caches)
                .map(|(sc, cache)| {
                    sc.sounder(SounderConfig::default())
                        .with_path_cache(cache.clone())
                })
                .collect(),
            channels: &testbed.channels,
            truths: &fleet.truths,
            seed,
        });
        let before = Registry::global().snapshot();
        // The reference pass runs on one worker; the timed passes must
        // match it bit for bit at `nproc`.
        let reference = fleet.pass(&recorder, 1, None);
        let path_hit_frac = path_hit_frac(&Registry::global().snapshot().diff(&before));
        let recording = recorder.finish();
        let probe = reference.probe.as_ref().and_then(|p| {
            let localizer = BlocLocalizer::new(fleet.specs[0].bloc);
            SteeringProbe::new(&localizer, recording.get(&p.key)?, &p.admitted, p.spec)
        });
        Workload {
            kind: Kind::FleetFaults,
            size,
            threads,
            hops,
            reference: reference.digest(),
            chan: ChanStats {
                sound_us: recording.sound_us_mean,
                path_hit_frac,
            },
            probe,
            recording,
            body: Body::Fleet(fleet),
        }
    }

    /// Soundings recorded in set-up.
    pub fn recorded(&self) -> usize {
        self.recording.len()
    }

    /// Drops one recorded sounding, so the next pass must miss.
    pub fn forget_sounding(&mut self, key: Key) -> bool {
        self.recording.remove(&key).is_some()
    }

    /// One replayed pass. `traced` runs the traced configuration: the
    /// benchmark's spans around rounds, kernel calls and replayed layer
    /// calls (they record only while the tracer is on).
    pub fn pass(&self, traced: bool) -> PassOut {
        let replay = self.recording.replay();
        let mut out = match &self.body {
            Body::Sessions(s) => {
                if traced {
                    let kernel = Arc::new(TracedKernel::default());
                    let engine = s.engine.clone().with_kernel(kernel.clone());
                    let mut out = s.pass(&replay, engine, true);
                    out.kernel_calls = kernel.calls();
                    out
                } else {
                    s.pass(&replay, s.engine.clone(), false)
                }
            }
            Body::Fleet(f) => f.pass(&replay, self.threads, traced.then_some(&self.recording)),
        };
        out.requests = replay.requests();
        out.misses = replay.misses();
        out.unconsumed = replay.unconsumed();
        out
    }

    /// Ring capacity (edges) one traced pass needs, counted on a traced-
    /// configuration pass with the tracer still off: every program span
    /// and executor shard it opened, every kernel call, round, batch and
    /// replayed call, with 2× headroom.
    pub fn trace_capacity(&self) -> usize {
        let out = self.pass(true);
        let mut spans: u64 = 0;
        for (name, h) in &out.counters.histograms {
            let shard = name.starts_with("par.")
                && name.ends_with(".busy_us")
                && name != "par.shard.busy_us";
            if name.starts_with("span.") || shard {
                spans += h.count;
            }
        }
        let rounds = out.rounds.len() as u64;
        spans += out.kernel_calls + out.batch_ms.len() as u64 + 5 * rounds;
        ((4 * spans) as usize).next_power_of_two().max(1 << 12)
    }

    /// Runs traced passes for at least `seconds` (at least one), with the
    /// ring cleared before and checked for wrap-around after each.
    pub fn traced_passes(&self, seconds: f64, capacity: usize) -> Result<Vec<PassOut>, String> {
        let tracer = Tracer::global();
        tracer.enable(capacity);
        let caller = bloc_obs::trace::thread_tid();
        let passes = for_about(seconds, || {
            tracer.clear();
            let mut out = self.pass(true);
            let (claimed, cap) = tracer.len();
            if claimed > cap as u64 {
                return Err(format!(
                    "trace ring wrapped ({claimed} edges into {cap} slots): refusing to report layer times"
                ));
            }
            out.trace = Some(analyze(tracer, &tracer.edges(), caller));
            Ok(out)
        });
        tracer.disable();
        tracer.clear();
        passes
    }

    /// Runs untraced passes for about `seconds`.
    pub fn passes(&self, seconds: f64) -> Vec<PassOut> {
        for_about(seconds, || Ok::<_, String>(self.pass(false))).unwrap_or_default()
    }
}

/// Runs `pass` until about `seconds` have gone: at least once, and again
/// only while the next pass would end nearer the target than this one.
fn for_about<E>(
    seconds: f64,
    mut pass: impl FnMut() -> Result<PassOut, E>,
) -> Result<Vec<PassOut>, E> {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        let before = start.elapsed().as_secs_f64();
        passes.push(pass()?);
        let now = start.elapsed().as_secs_f64();
        if now + (now - before) / 2.0 >= seconds {
            return Ok(passes);
        }
    }
}

/// Registry activity summed over passes.
#[derive(Debug, Default)]
pub struct Activity {
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Histogram `(count, sum)` totals.
    pub histograms: BTreeMap<String, (u64, u64)>,
}

impl Activity {
    /// Sums the registry activity of `passes`.
    pub fn of(passes: &[PassOut]) -> Activity {
        let mut a = Activity::default();
        for p in passes {
            for (k, v) in &p.counters.counters {
                *a.counters.entry(k.clone()).or_default() += v;
            }
            for (k, h) in &p.counters.histograms {
                let e = a.histograms.entry(k.clone()).or_default();
                e.0 += h.count;
                e.1 += h.sum;
            }
        }
        a
    }

    /// A counter's total (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Σ of every counter named `<prefix>…`.
    pub fn prefixed(&self, prefix: &str) -> f64 {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, &v)| v as f64)
            .sum()
    }

    /// Shard busy time over shard capacity (region wall × shards) across
    /// every named `par` region; 0 when no region ran.
    pub fn par_busy_frac(&self) -> f64 {
        let (mut busy, mut capacity) = (0.0, 0.0);
        for (name, &(shards, busy_us)) in &self.histograms {
            let Some(region) = name
                .strip_prefix("par.")
                .and_then(|n| n.strip_suffix(".busy_us"))
            else {
                continue;
            };
            if region == "shard" {
                continue;
            }
            let Some(&(regions, wall_us)) = self.histograms.get(&format!("par.{region}.wall_us"))
            else {
                continue;
            };
            if regions == 0 {
                continue;
            }
            busy += busy_us as f64;
            capacity += wall_us as f64 * shards as f64 / regions as f64;
        }
        crate::metrics::ratio(busy, capacity)
    }
}
