//! Benchmark-side spans and the per-layer self-time analysis.
//!
//! The traced pass records spans into the program's own
//! [`bloc_obs::Tracer`] ring: the program's spans (`correct`,
//! `likelihood`, `score_peaks`, `hier.*`, the fleet's per-tag lanes and
//! `par.*` shards) plus the benchmark's own around each round, each
//! kernel call ([`TracedKernel`]) and each replayed call to a layer that
//! has no span of its own (`bench.replay.*`). [`analyze`] rebuilds the
//! per-thread span trees from the edges and sums each layer's self time.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use bloc_core::engine::{KernelInputs, LikelihoodKernel, RecurrenceKernel};
use bloc_core::likelihood::AntennaCombining;
use bloc_num::Grid2D;
use bloc_obs::trace::TraceEdge;
use bloc_obs::Tracer;

/// One supervised session round (the benchmark's span around
/// `SessionSupervisor::run_round`).
pub const ROUND: &str = "bench.round";
/// One fleet batch (around `FleetSupervisor::run_batch`).
pub const BATCH: &str = "bench.batch";
/// One likelihood kernel call (the Eq. 17 sweep of one anchor map).
pub const KERNEL: &str = "bench.kernel";
/// `Tracker::offer` replayed on the round's fix.
pub const REPLAY_TRACKER: &str = "bench.replay.tracker";
/// `FallbackStack::priors` (or `estimate`, on a degraded round) replayed
/// on the round's attempt-0 sounding.
pub const REPLAY_PRIORS: &str = "bench.replay.priors";
/// `BlocLocalizer::refine_with_priors` replayed on the round's fix.
pub const REPLAY_REFINE: &str = "bench.replay.refine";

/// The layers self time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Eq. 10 offset correction.
    Correction,
    /// The likelihood engine: SoA build, steering lookup and the sweep.
    Engine,
    /// Eq. 18 peak scoring.
    Multipath,
    /// The coarse-to-fine solver's own work.
    Hierarchical,
    /// The gated tracker.
    Tracker,
    /// Fallback priors (and fallback-only estimates).
    Priors,
    /// Prior refinement of an unhealthy fix.
    Refine,
}

/// Number of [`Layer`] variants.
pub const N_LAYERS: usize = 7;

/// Where a span's time goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A round: closes an attribution scope.
    Round,
    /// A layer call inside a round.
    Layer(Layer),
    /// A replayed layer call outside any round: its own self time.
    Replay(Layer),
    /// An executor shard: its time stays with the enclosing span.
    Transparent,
    /// Anything else: its self time is unattributed.
    Other,
}

fn role_of(name: &str) -> Role {
    let leaf = name.rsplit('/').next().unwrap_or(name);
    match leaf {
        ROUND => Role::Round,
        KERNEL | "likelihood" => Role::Layer(Layer::Engine),
        "correct" => Role::Layer(Layer::Correction),
        "score_peaks" => Role::Layer(Layer::Multipath),
        "hier.localize" | "hier.localize_seeded" => Role::Layer(Layer::Hierarchical),
        REPLAY_TRACKER => Role::Replay(Layer::Tracker),
        REPLAY_PRIORS => Role::Replay(Layer::Priors),
        REPLAY_REFINE => Role::Replay(Layer::Refine),
        // The fleet's per-tag lanes are named `fleet.s<site>.t<tag>`.
        l if l.starts_with("fleet.s") => Role::Round,
        l if l.starts_with("par.") => Role::Transparent,
        _ => Role::Other,
    }
}

/// A span the benchmark opens around one call; records nothing while the
/// tracer is off.
pub struct Span(Option<u32>);

impl Span {
    /// Opens `name`.
    pub fn open(name: &str) -> Self {
        Self(Tracer::global().begin(name))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            Tracer::global().end(id);
        }
    }
}

/// The recurrence kernel with a [`KERNEL`] span around every map, so the
/// sweep is visible inside the hierarchy (which calls the engine without
/// a span of its own). Counts its calls so the trace ring can be sized.
#[derive(Debug, Default)]
pub struct TracedKernel {
    inner: RecurrenceKernel,
    calls: AtomicU64,
}

impl TracedKernel {
    /// Kernel calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl LikelihoodKernel for TracedKernel {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn anchor_map(
        &self,
        inputs: &KernelInputs<'_>,
        i: usize,
        combining: AntennaCombining,
        threads: usize,
    ) -> Grid2D {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let _span = Span::open(KERNEL);
        self.inner.anchor_map(inputs, i, combining, threads)
    }
}

/// Per-layer totals of one or more traced passes.
#[derive(Debug, Clone, Default)]
pub struct TraceTotals {
    /// Rounds (session rounds or fleet tag lanes) closed.
    pub rounds: u64,
    /// Σ round durations, ns.
    pub round_ns: u64,
    /// Σ self time per layer, ns, in-round spans plus replays.
    pub layer_ns: [u64; N_LAYERS],
    /// Replayed calls per layer.
    pub replays: [u64; N_LAYERS],
    /// Distinct threads other than the caller's that recorded edges.
    pub worker_threads: u64,
    /// End edges whose begin was not on top of the thread's stack.
    pub unmatched: u64,
}

impl TraceTotals {
    /// Self time of `layer`, ns.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.layer_ns[layer as usize]
    }

    /// Σ self time over every layer, ns.
    pub fn attributed_ns(&self) -> u64 {
        self.layer_ns.iter().sum()
    }

    /// Adds another pass's totals.
    pub fn absorb(&mut self, other: &TraceTotals) {
        self.rounds += other.rounds;
        self.round_ns += other.round_ns;
        self.worker_threads += other.worker_threads;
        self.unmatched += other.unmatched;
        add(&mut self.layer_ns, &other.layer_ns);
        add(&mut self.replays, &other.replays);
    }
}

fn add(into: &mut [u64; N_LAYERS], from: &[u64; N_LAYERS]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

struct Frame {
    name_id: u32,
    start_ns: u64,
    child_ns: u64,
    acc: [u64; N_LAYERS],
}

/// Rebuilds the span trees of `edges` per thread and sums self time per
/// layer. `caller_tid` is the benchmark's own thread; every other thread
/// that recorded an edge counts as a worker.
pub fn analyze(tracer: &Tracer, edges: &[TraceEdge], caller_tid: u32) -> TraceTotals {
    let mut roles: HashMap<u32, Role> = HashMap::new();
    let mut stacks: HashMap<u32, Vec<Frame>> = HashMap::new();
    let mut workers = BTreeSet::new();
    let mut t = TraceTotals::default();
    for e in edges {
        if e.tid != caller_tid {
            workers.insert(e.tid);
        }
        let stack = stacks.entry(e.tid).or_default();
        if e.begin {
            stack.push(Frame {
                name_id: e.name_id,
                start_ns: e.ts_ns,
                child_ns: 0,
                acc: [0; N_LAYERS],
            });
            continue;
        }
        if stack.last().map(|f| f.name_id) != Some(e.name_id) {
            t.unmatched += 1;
            continue;
        }
        let Some(f) = stack.pop() else { continue };
        let role = *roles.entry(e.name_id).or_insert_with(|| {
            tracer
                .name_of(e.name_id)
                .map_or(Role::Other, |n| role_of(&n))
        });
        let dur = e.ts_ns.saturating_sub(f.start_ns);
        let self_ns = dur.saturating_sub(f.child_ns);
        let parent = stack.last_mut();
        match role {
            Role::Round => {
                t.rounds += 1;
                t.round_ns += dur;
                add(&mut t.layer_ns, &f.acc);
                if let Some(p) = parent {
                    p.child_ns += dur;
                }
            }
            Role::Replay(layer) => {
                t.layer_ns[layer as usize] += self_ns;
                t.replays[layer as usize] += 1;
                if let Some(p) = parent {
                    p.child_ns += dur;
                }
            }
            Role::Transparent => {
                if let Some(p) = parent {
                    p.child_ns += f.child_ns;
                    add(&mut p.acc, &f.acc);
                }
            }
            Role::Layer(_) | Role::Other => {
                let mut acc = f.acc;
                if let Role::Layer(layer) = role {
                    acc[layer as usize] += self_ns;
                }
                if let Some(p) = parent {
                    p.child_ns += dur;
                    add(&mut p.acc, &acc);
                }
            }
        }
    }
    t.worker_threads = workers.len() as u64;
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(ticket: u64, ts_ns: u64, name_id: u32, tid: u32, begin: bool) -> TraceEdge {
        TraceEdge {
            ticket,
            ts_ns,
            name_id,
            tid,
            begin,
        }
    }

    #[test]
    fn self_time_excludes_children_and_shards_stay_with_their_parent() {
        let tracer = Tracer::new();
        tracer.enable(64);
        let round = tracer.intern(ROUND).unwrap();
        let localize = tracer.intern("localize").unwrap();
        let lik = tracer.intern("localize/likelihood").unwrap();
        let shard = tracer.intern("par.likelihood").unwrap();
        let kernel = tracer.intern(KERNEL).unwrap();
        let refine = tracer.intern(REPLAY_REFINE).unwrap();
        let score = tracer.intern("score_peaks").unwrap();
        let edges = vec![
            edge(0, 0, round, 1, true),
            edge(1, 10, localize, 1, true),
            edge(2, 20, lik, 1, true),
            edge(3, 30, shard, 1, true),
            edge(4, 40, kernel, 1, true),
            edge(5, 90, kernel, 1, false),
            edge(6, 95, shard, 1, false),
            edge(7, 100, lik, 1, false),
            edge(8, 120, localize, 1, false),
            edge(9, 130, round, 1, false),
            // A replay outside the round: its scoring child is excluded.
            edge(10, 200, refine, 1, true),
            edge(11, 210, score, 1, true),
            edge(12, 240, score, 1, false),
            edge(13, 250, refine, 1, false),
            // A worker thread's lone shard.
            edge(14, 300, shard, 2, true),
            edge(15, 310, shard, 2, false),
        ];
        let t = analyze(&tracer, &edges, 1);
        assert_eq!(t.rounds, 1);
        assert_eq!(t.round_ns, 130);
        // likelihood self (80 − 50 kernel) + kernel 50.
        assert_eq!(t.ns(Layer::Engine), 80);
        assert_eq!(t.ns(Layer::Refine), 20);
        assert_eq!(t.ns(Layer::Multipath), 0);
        assert_eq!(t.replays[Layer::Refine as usize], 1);
        assert_eq!(t.worker_threads, 1);
        assert_eq!(t.unmatched, 0);
    }
}
