//! Record-then-replay load generation.
//!
//! Set-up runs every workload once against the live simulator through a
//! [`Recorder`], which captures each `(site, tag, round, attempt)`
//! sounding the program asks for. Timed passes then serve soundings from
//! a [`Replay`] over that recording, so the channel simulator never runs
//! inside a timed region. A request the recording does not hold is a
//! replay miss: it is counted and the request panics, which fails the run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bloc_chan::sounder::SoundingData;
use bloc_core::fleet::{FleetDriver, SiteId, TagId};

/// One sounding request: `(site, tag, round, attempt)`.
pub type Key = (usize, u64, u64, usize);

/// Wraps a live [`FleetDriver`] and keeps a copy of every sounding it
/// hands out.
pub struct Recorder<D> {
    inner: D,
    store: Mutex<HashMap<Key, SoundingData>>,
    sound_ns: AtomicU64,
}

impl<D: FleetDriver> Recorder<D> {
    /// Records around `inner`.
    pub fn new(inner: D) -> Self {
        Self {
            inner,
            store: Mutex::new(HashMap::new()),
            sound_ns: AtomicU64::new(0),
        }
    }

    /// The finished recording.
    pub fn finish(self) -> Recording {
        let map = self
            .store
            .into_inner()
            .expect("recorder lock poisoned by a panicking sounder");
        let n = map.len().max(1) as f64;
        Recording {
            sound_us_mean: self.sound_ns.into_inner() as f64 / n / 1e3,
            map,
        }
    }
}

impl<D: FleetDriver> FleetDriver for Recorder<D> {
    fn sound(&self, site: SiteId, tag: TagId, round: u64, attempt: usize) -> SoundingData {
        let start = Instant::now();
        let data = self.inner.sound(site, tag, round, attempt);
        let ns = start.elapsed().as_nanos() as u64;
        self.sound_ns.fetch_add(ns, Ordering::Relaxed);
        self.store
            .lock()
            .expect("recorder lock poisoned by a panicking sounder")
            .insert((site.0, tag.0, round, attempt), data.clone());
        data
    }

    fn round_latency_us(&self, site: SiteId, tag: TagId, round: u64) -> u64 {
        self.inner.round_latency_us(site, tag, round)
    }
}

/// Every sounding one live pass requested.
pub struct Recording {
    map: HashMap<Key, SoundingData>,
    /// Mean wall time of one live sounding, µs.
    pub sound_us_mean: f64,
}

impl Recording {
    /// Soundings held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The recorded sounding for `key`, if any.
    pub fn get(&self, key: &Key) -> Option<&SoundingData> {
        self.map.get(key)
    }

    /// Drops one recorded sounding (used to prove a miss fails the run).
    pub fn remove(&mut self, key: &Key) -> Option<SoundingData> {
        self.map.remove(key)
    }

    /// A replay source for one pass. The per-pass copy is made here,
    /// before the timed region, so a request inside it only moves a
    /// sounding out of a map.
    pub fn replay(&self) -> Replay<'_> {
        Replay {
            recording: self,
            pending: Mutex::new(self.map.clone()),
            requests: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// Serves one pass's soundings from a [`Recording`].
pub struct Replay<'a> {
    recording: &'a Recording,
    pending: Mutex<HashMap<Key, SoundingData>>,
    requests: AtomicU64,
    misses: AtomicU64,
}

impl Replay<'_> {
    /// Serves the sounding for `key`. A key requested twice in one pass
    /// is served a second copy; a key never recorded is a miss.
    ///
    /// # Panics
    ///
    /// On a replay miss, after counting it.
    pub fn take(&self, key: Key) -> SoundingData {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let taken = self
            .pending
            .lock()
            .expect("replay lock poisoned")
            .remove(&key);
        if let Some(data) = taken {
            return data;
        }
        if let Some(data) = self.recording.get(&key) {
            return data.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        panic!("replay miss: sounding {key:?} was never recorded");
    }

    /// Requests served or refused so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests for soundings the recording does not hold.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Recorded soundings this pass never asked for.
    pub fn unconsumed(&self) -> usize {
        self.pending.lock().expect("replay lock poisoned").len()
    }
}

impl FleetDriver for Replay<'_> {
    fn sound(&self, site: SiteId, tag: TagId, round: u64, attempt: usize) -> SoundingData {
        self.take((site.0, tag.0, round, attempt))
    }
}
