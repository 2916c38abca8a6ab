//! Channel-selection algorithm #1: `unmapped_next = (unmapped + hop) mod 37`.
//!
//! Paper §2.1: "the master and slave hop through the 37 non-broadcast bands,
//! jumping by f_hop bands every time a packet is exchanged… Since the total
//! number of bands is prime (37), the transmissions will hop through all
//! available bands before repeating." §5.1 builds BLoc's 80 MHz bandwidth
//! stitching on exactly this property, so the hop engine is a first-class
//! substrate here, including the remapping step used when a channel map
//! blacklists channels (exercised by the Fig. 11 interference experiment).

use crate::access_address::AccessAddress;
use crate::channels::{Channel, ChannelMap};
use crate::error::BleError;
use bloc_num::constants::BLE_NUM_DATA_CHANNELS;

const N: u64 = BLE_NUM_DATA_CHANNELS as u64;

/// Validated hop increment (spec range 5..=16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopIncrement(u8);

impl HopIncrement {
    /// Validates a hop increment against the spec range 5..=16.
    pub fn new(hop: u8) -> Result<Self, BleError> {
        if (5..=16).contains(&hop) {
            Ok(Self(hop))
        } else {
            Err(BleError::InvalidHop(hop))
        }
    }

    /// The raw increment.
    pub fn get(self) -> u8 {
        self.0
    }
}

/// The hop state of one connection: produces the data channel used for each
/// successive connection event (channel-selection algorithm #1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopSequence {
    hop: HopIncrement,
    map: ChannelMap,
    last_unmapped: u8,
    /// Connection events elapsed (the first call to `next_channel` is
    /// event 0).
    pub event_counter: u64,
}

impl HopSequence {
    /// Creates the hop engine for a new connection.
    ///
    /// `first_unmapped` is the `lastUnmappedChannel` before the first event
    /// (spec initializes it to 0).
    pub fn new(hop: HopIncrement, map: ChannelMap, first_unmapped: u8) -> Result<Self, BleError> {
        if first_unmapped as usize >= BLE_NUM_DATA_CHANNELS {
            return Err(BleError::InvalidChannel(first_unmapped));
        }
        Ok(Self {
            hop,
            map,
            last_unmapped: first_unmapped,
            event_counter: 0,
        })
    }

    /// Creates the hop engine for a connection identified by its access
    /// address, seeding `lastUnmappedChannel` from the address value
    /// (`AA mod 37`). Both sides of a link derive the same starting
    /// channel from the AA alone, which is what makes closed-form
    /// re-synchronization after missed events possible: the whole
    /// schedule is a pure function of (AA, hop, event counter).
    pub fn for_connection(hop: HopIncrement, map: ChannelMap, aa: AccessAddress) -> Self {
        Self {
            hop,
            map,
            last_unmapped: (aa.value() as u64 % N) as u8,
            event_counter: 0,
        }
    }

    /// The channel map currently in force.
    pub fn channel_map(&self) -> ChannelMap {
        self.map
    }

    /// The `lastUnmappedChannel` the connection started from (the state
    /// at event 0), re-derived in closed form from the current state.
    pub fn first_unmapped(&self) -> u8 {
        let step = (self.hop.get() as u64 % N) * (self.event_counter % N) % N;
        ((self.last_unmapped as u64 + N - step) % N) as u8
    }

    /// The unmapped channel index when the event counter reads `event`,
    /// in closed form: `(first + event · hop) mod 37` — no replay of the
    /// intervening events. `unmapped_at(self.event_counter)` equals the
    /// current `lastUnmappedChannel`.
    pub fn unmapped_at(&self, event: u64) -> u8 {
        let step = (self.hop.get() as u64 % N) * (event % N) % N;
        ((self.first_unmapped() as u64 + step) % N) as u8
    }

    /// The data channel in use when the event counter reads `event`
    /// (what [`HopSequence::next_channel`] returned for that event),
    /// computed without mutating state. Event 0 is the pre-connection
    /// state: the mapped form of the starting channel.
    pub fn channel_at(&self, event: u64) -> Channel {
        self.map_unmapped(self.unmapped_at(event))
    }

    /// Re-synchronizes to an externally observed event counter (an
    /// anchor that missed packets, or whose counter drifted) by
    /// re-deriving `lastUnmappedChannel` in closed form instead of
    /// replaying — or aborting — the connection. Returns the data
    /// channel in force at that event.
    pub fn resync(&mut self, event: u64) -> Channel {
        self.last_unmapped = self.unmapped_at(event);
        self.event_counter = event;
        self.channel_at(event)
    }

    /// Applies a channel-map update (as the LL_CHANNEL_MAP_IND procedure
    /// would). Takes effect from the next event.
    pub fn set_channel_map(&mut self, map: ChannelMap) {
        self.map = map;
    }

    /// Advances to the next connection event and returns its data channel.
    ///
    /// Algorithm #1: `unmapped = (last + hop) mod 37`; if `unmapped` is in
    /// the channel map use it directly, otherwise remap via
    /// `usedChannels[unmapped mod numUsed]`.
    pub fn next_channel(&mut self) -> Channel {
        let unmapped = (self.last_unmapped + self.hop.get()) % BLE_NUM_DATA_CHANNELS as u8;
        self.last_unmapped = unmapped;
        self.event_counter += 1;
        self.map_unmapped(unmapped)
    }

    /// Applies the blacklist remap of algorithm #1 to an unmapped index.
    fn map_unmapped(&self, unmapped: u8) -> Channel {
        let candidate = Channel::data(unmapped).expect("mod 37 keeps index in range");
        if self.map.contains(candidate) {
            candidate
        } else {
            let used = self.map.used_channels();
            used[unmapped as usize % used.len()]
        }
    }

    /// The channels of the next `n` connection events, without mutating
    /// `self`.
    pub fn peek_schedule(&self, n: usize) -> Vec<Channel> {
        let mut clone = self.clone();
        (0..n).map(|_| clone.next_channel()).collect()
    }
}

/// Returns the number of distinct channels visited in one full cycle of 37
/// events — 37 for any valid hop, because 37 is prime. Exposed for tests
/// and documentation; BLoc's stitching (paper §5.1) depends on this being
/// the full set.
pub fn coverage(hop: HopIncrement) -> usize {
    let mut seen = [false; BLE_NUM_DATA_CHANNELS];
    let mut ch = 0u8;
    for _ in 0..BLE_NUM_DATA_CHANNELS {
        ch = (ch + hop.get()) % BLE_NUM_DATA_CHANNELS as u8;
        seen[ch as usize] = true;
    }
    seen.iter().filter(|&&s| s).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hop(h: u8) -> HopIncrement {
        HopIncrement::new(h).unwrap()
    }

    #[test]
    fn hop_range_validated() {
        assert!(HopIncrement::new(4).is_err());
        assert!(HopIncrement::new(17).is_err());
        assert!(HopIncrement::new(5).is_ok());
        assert!(HopIncrement::new(16).is_ok());
    }

    #[test]
    fn example_from_paper() {
        // Paper §2.1: "if the first transmission happens at channel 10, and
        // f_hop = 3, then the next transmission will be at channel 13."
        // (3 is outside the spec's 5..=16, so the paper's illustration uses
        // an illustrative hop; we check the arithmetic with hop = 5.)
        let mut seq = HopSequence::new(hop(5), ChannelMap::all(), 10).unwrap();
        assert_eq!(seq.next_channel().index(), 15);
        assert_eq!(seq.next_channel().index(), 20);
    }

    #[test]
    fn wraps_modulo_37() {
        let mut seq = HopSequence::new(hop(16), ChannelMap::all(), 30).unwrap();
        assert_eq!(seq.next_channel().index(), (30 + 16) % 37);
    }

    #[test]
    fn full_cycle_covers_all_37_channels() {
        // The property BLoc's 80 MHz stitching rests on (paper §5.1).
        for h in 5..=16 {
            assert_eq!(coverage(hop(h)), 37, "hop {h} must cover all data channels");
        }
    }

    #[test]
    fn remapping_respects_blacklist() {
        let map = ChannelMap::subsampled(2, 0).unwrap(); // even channels only
        let mut seq = HopSequence::new(hop(7), map, 0).unwrap();
        for _ in 0..200 {
            let c = seq.next_channel();
            assert!(map.contains(c), "scheduled blacklisted channel {c:?}");
        }
    }

    #[test]
    fn peek_schedule_is_pure() {
        let seq = HopSequence::new(hop(9), ChannelMap::all(), 3).unwrap();
        let a = seq.peek_schedule(10);
        let b = seq.peek_schedule(10);
        assert_eq!(a, b);
        assert_eq!(
            seq.event_counter, 0,
            "peeking must not advance the event counter"
        );
    }

    #[test]
    fn event_counter_advances() {
        let mut seq = HopSequence::new(hop(5), ChannelMap::all(), 0).unwrap();
        for k in 1..=5 {
            seq.next_channel();
            assert_eq!(seq.event_counter, k);
        }
    }

    #[test]
    fn channel_map_update_takes_effect() {
        let mut seq = HopSequence::new(hop(5), ChannelMap::all(), 0).unwrap();
        seq.next_channel();
        let restricted = ChannelMap::from_channels(&[1, 2, 3]).unwrap();
        seq.set_channel_map(restricted);
        for _ in 0..50 {
            assert!(restricted.contains(seq.next_channel()));
        }
    }

    #[test]
    fn invalid_start_channel_rejected() {
        assert!(HopSequence::new(hop(5), ChannelMap::all(), 37).is_err());
    }

    #[test]
    fn closed_form_matches_replay() {
        let map = ChannelMap::subsampled(2, 1).unwrap();
        let mut seq = HopSequence::new(hop(11), map, 7).unwrap();
        let reference = seq.clone();
        for event in 1..=200u64 {
            let stepped = seq.next_channel();
            assert_eq!(
                reference.channel_at(event),
                stepped,
                "closed form diverges at event {event}"
            );
            assert_eq!(reference.unmapped_at(event), seq.last_unmapped);
        }
    }

    #[test]
    fn resync_recovers_a_desynced_counter() {
        let mut truth = HopSequence::new(hop(9), ChannelMap::all(), 12).unwrap();
        for _ in 0..50 {
            truth.next_channel();
        }
        // A follower that missed 50 events re-derives the state from the
        // shared event counter instead of replaying or aborting.
        let mut follower = HopSequence::new(hop(9), ChannelMap::all(), 12).unwrap();
        follower.resync(truth.event_counter);
        assert_eq!(follower, truth);
        assert_eq!(follower.next_channel(), truth.next_channel());
    }

    #[test]
    fn first_unmapped_inverts_any_number_of_events() {
        let mut seq = HopSequence::new(hop(13), ChannelMap::all(), 29).unwrap();
        assert_eq!(seq.first_unmapped(), 29);
        for _ in 0..123 {
            seq.next_channel();
        }
        assert_eq!(seq.first_unmapped(), 29);
    }

    #[test]
    fn access_address_seeds_a_shared_start() {
        let aa = AccessAddress::new_data(0x8E89_BED7 ^ 0x5A5A_5A5A).unwrap();
        let a = HopSequence::for_connection(hop(7), ChannelMap::all(), aa);
        let b = HopSequence::for_connection(hop(7), ChannelMap::all(), aa);
        assert_eq!(a, b, "both link ends derive the same schedule");
        assert_eq!(a.first_unmapped() as u32, aa.value() % 37);
    }

    proptest! {
        #[test]
        fn prop_full_coverage_within_37_events(h in 5u8..=16, start in 0u8..37) {
            let mut seq = HopSequence::new(hop(h), ChannelMap::all(), start).unwrap();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..37 {
                seen.insert(seq.next_channel().index());
            }
            prop_assert_eq!(seen.len(), 37);
        }

        #[test]
        fn prop_schedule_deterministic(h in 5u8..=16, start in 0u8..37, n in 1usize..100) {
            let seq = HopSequence::new(hop(h), ChannelMap::all(), start).unwrap();
            prop_assert_eq!(seq.peek_schedule(n), seq.clone().peek_schedule(n));
        }
    }
}
