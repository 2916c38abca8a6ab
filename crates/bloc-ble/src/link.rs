//! A minimal-but-real BLE connection state machine.
//!
//! BLoc's deployment (paper §3): "The BLE tag connects to one of these
//! anchor points (we call the connected anchor point the master) while the
//! other anchor points passively listen." This module models that exchange:
//! advertising → `CONNECT_IND` → connection events, each event hopping to a
//! new data channel and carrying a master packet and a slave (tag) response
//! — the two transmissions whose channels BLoc measures.

use crate::access_address::AccessAddress;
use crate::channels::{Channel, ChannelMap};
use crate::control::ControlPdu;
use crate::error::BleError;
use crate::hopping::{HopIncrement, HopSequence};
use crate::locpacket::LocalizationPacket;
use crate::packet::Frame;
use crate::pdu::{AdvPdu, AdvPduType, ConnectInd, DataPdu, DeviceAddress, Llid};
use rand::Rng;

/// Link-layer role of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Connection initiator (BLoc's master anchor).
    Master,
    /// Advertiser that accepted the connection (the BLE tag).
    Slave,
}

/// Link-layer state (spec §4.5 state machine, the subset BLoc exercises).
#[derive(Debug, Clone, PartialEq)]
pub enum LinkState {
    /// Not transmitting or receiving.
    Standby,
    /// Broadcasting ADV_IND on the advertising channels.
    Advertising,
    /// Actively scanning: issuing SCAN_REQ to advertisers and collecting
    /// SCAN_RSP payloads (how a deployment inventories the tags around
    /// it before picking one to localize).
    Scanning,
    /// Listening for a specific advertiser to connect to.
    Initiating {
        /// The advertiser being pursued.
        peer: DeviceAddress,
    },
    /// In a connection.
    Connected {
        /// Our role in the connection.
        role: Role,
    },
}

/// A device's link layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkLayer {
    /// This device's address.
    pub address: DeviceAddress,
    /// Current state.
    pub state: LinkState,
}

impl LinkLayer {
    /// A device in standby.
    pub fn new(address: DeviceAddress) -> Self {
        Self {
            address,
            state: LinkState::Standby,
        }
    }

    /// Enters the advertising state (tag side).
    pub fn start_advertising(&mut self) -> Result<(), BleError> {
        match self.state {
            LinkState::Standby => {
                self.state = LinkState::Advertising;
                Ok(())
            }
            _ => Err(BleError::InvalidState("start_advertising")),
        }
    }

    /// Produces one ADV_IND PDU (valid only while advertising).
    pub fn advertise(&self) -> Result<AdvPdu, BleError> {
        match self.state {
            LinkState::Advertising => Ok(AdvPdu {
                pdu_type: AdvPduType::AdvInd,
                tx_add: false,
                rx_add: false,
                address: self.address,
                payload: vec![0x02, 0x01, 0x06], // Flags AD: LE General Discoverable
            }),
            _ => Err(BleError::InvalidState("advertise")),
        }
    }

    /// Enters the active-scanning state.
    pub fn start_scanning(&mut self) -> Result<(), BleError> {
        match self.state {
            LinkState::Standby => {
                self.state = LinkState::Scanning;
                Ok(())
            }
            _ => Err(BleError::InvalidState("start_scanning")),
        }
    }

    /// Scanner's reaction to an overheard ADV_IND: issue a SCAN_REQ to the
    /// advertiser (active scanning).
    pub fn scan_request(&self, adv: &AdvPdu) -> Result<AdvPdu, BleError> {
        if self.state != LinkState::Scanning {
            return Err(BleError::InvalidState("scan_request"));
        }
        if adv.pdu_type != AdvPduType::AdvInd && adv.pdu_type != AdvPduType::AdvScanInd {
            return Err(BleError::UnknownPduType(adv.pdu_type.code()));
        }
        Ok(AdvPdu {
            pdu_type: AdvPduType::ScanReq,
            tx_add: false,
            rx_add: false,
            // SCAN_REQ carries ScanA then AdvA; we model the scanner's
            // address field and keep the target in the payload.
            address: self.address,
            payload: adv.address.0.to_vec(),
        })
    }

    /// Advertiser's reaction to a SCAN_REQ addressed to it: a SCAN_RSP
    /// with the scan-response payload (e.g. a beacon's extra AD data).
    pub fn scan_response(
        &self,
        req: &AdvPdu,
        rsp_payload: Vec<u8>,
    ) -> Result<Option<AdvPdu>, BleError> {
        if self.state != LinkState::Advertising {
            return Err(BleError::InvalidState("scan_response"));
        }
        if req.pdu_type != AdvPduType::ScanReq {
            return Err(BleError::UnknownPduType(req.pdu_type.code()));
        }
        if req.payload != self.address.0 {
            return Ok(None); // addressed to someone else
        }
        Ok(Some(AdvPdu {
            pdu_type: AdvPduType::ScanRsp,
            tx_add: false,
            rx_add: false,
            address: self.address,
            payload: rsp_payload,
        }))
    }

    /// Enters the initiating state, pursuing `peer` (master-anchor side).
    pub fn start_initiating(&mut self, peer: DeviceAddress) -> Result<(), BleError> {
        match self.state {
            LinkState::Standby => {
                self.state = LinkState::Initiating { peer };
                Ok(())
            }
            _ => Err(BleError::InvalidState("start_initiating")),
        }
    }

    /// Initiator's reaction to an overheard ADV_IND: when it comes from the
    /// pursued peer, emit a `CONNECT_IND` and transition to Connected.
    /// Returns the connection handle and the CONNECT_IND PDU to transmit.
    pub fn on_adv_ind<R: Rng + ?Sized>(
        &mut self,
        adv: &AdvPdu,
        params: &ConnectionParams,
        rng: &mut R,
    ) -> Result<Option<(Connection, AdvPdu)>, BleError> {
        let LinkState::Initiating { peer } = self.state else {
            return Err(BleError::InvalidState("on_adv_ind"));
        };
        if adv.pdu_type != AdvPduType::AdvInd || adv.address != peer {
            return Ok(None); // not our peer; keep listening
        }
        let ll_data = ConnectInd {
            access_address: AccessAddress::generate(rng),
            crc_init: rng.gen::<u32>() & 0xFF_FFFF,
            win_size: 1,
            win_offset: 0,
            interval: params.interval_units,
            latency: 0,
            timeout: params.timeout_units,
            channel_map: params.channel_map,
            hop: params.hop,
            sca: 0,
        };
        let pdu = AdvPdu {
            pdu_type: AdvPduType::ConnectInd,
            tx_add: false,
            rx_add: false,
            address: self.address,
            payload: ll_data.encode(),
        };
        self.state = LinkState::Connected { role: Role::Master };
        let conn = Connection::new(ll_data, Role::Master)?;
        Ok(Some((conn, pdu)))
    }

    /// Advertiser's reaction to a received `CONNECT_IND`: accept and
    /// transition to Connected as slave.
    pub fn on_connect_ind(&mut self, pdu: &AdvPdu) -> Result<Connection, BleError> {
        if self.state != LinkState::Advertising {
            return Err(BleError::InvalidState("on_connect_ind"));
        }
        if pdu.pdu_type != AdvPduType::ConnectInd {
            return Err(BleError::UnknownPduType(pdu.pdu_type.code()));
        }
        let ll_data = ConnectInd::decode(&pdu.payload)?;
        self.state = LinkState::Connected { role: Role::Slave };
        Connection::new(ll_data, Role::Slave)
    }

    /// Overhearing anchors build a connection *follower* from the observed
    /// CONNECT_IND without being a party to it (paper §3: slave anchors
    /// "passively listen for communication between the tag and the
    /// anchor"). The follower tracks channels but never transmits.
    pub fn follow_connection(pdu: &AdvPdu) -> Result<Connection, BleError> {
        if pdu.pdu_type != AdvPduType::ConnectInd {
            return Err(BleError::UnknownPduType(pdu.pdu_type.code()));
        }
        let ll_data = ConnectInd::decode(&pdu.payload)?;
        // Followers are bookkept as slaves; they only ever observe.
        Connection::new(ll_data, Role::Slave)
    }

    /// Tears the link down to standby.
    pub fn disconnect(&mut self) {
        self.state = LinkState::Standby;
    }
}

/// Parameters the initiator chooses for a connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnectionParams {
    /// Connection interval in 1.25 ms units (7.5 ms .. 4 s per spec).
    pub interval_units: u16,
    /// Supervision timeout in 10 ms units.
    pub timeout_units: u16,
    /// Channel map for adaptive hopping.
    pub channel_map: ChannelMap,
    /// Hop increment.
    pub hop: HopIncrement,
}

impl ConnectionParams {
    /// BLoc's defaults: 7.5 ms interval (fastest allowed — the paper notes
    /// BLE "hops through all channels 40 times every second", §6), full
    /// channel map, hop 5.
    pub fn bloc_default() -> Self {
        Self {
            interval_units: 6, // 7.5 ms
            timeout_units: 100,
            channel_map: ChannelMap::all(),
            hop: HopIncrement::new(5).expect("5 is a valid hop"),
        }
    }
}

/// One connection event: the channel and the two framed packets exchanged
/// on it (master → slave, then slave → master — the two transmissions
/// BLoc's anchors measure CSI from, paper §5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionEvent {
    /// Event counter value (0-based).
    pub event: u64,
    /// Data channel used for the whole event.
    pub channel: Channel,
    /// Master's transmission.
    pub master_frame: Frame,
    /// Slave's (tag's) response.
    pub slave_frame: Frame,
}

/// An established connection (either party's view, or a follower's).
#[derive(Debug, Clone, PartialEq)]
pub struct Connection {
    /// Link data from the CONNECT_IND.
    pub params: ConnectInd,
    /// Our role.
    pub role: Role,
    hop: HopSequence,
    sn: bool,
    nesn: bool,
    /// A channel-map update awaiting its instant.
    pending_map: Option<(ChannelMap, u64)>,
}

impl Connection {
    fn new(params: ConnectInd, role: Role) -> Result<Self, BleError> {
        let hop = HopSequence::new(params.hop, params.channel_map, 0)?;
        Ok(Self {
            params,
            role,
            hop,
            sn: false,
            nesn: false,
            pending_map: None,
        })
    }

    /// Initiates an instant-synchronized channel-map update (the
    /// `LL_CHANNEL_MAP_IND` procedure): returns the control PDU to send to
    /// the peer and arms the local switch. The instant must lie in the
    /// future.
    pub fn schedule_channel_map(
        &mut self,
        map: ChannelMap,
        instant: u64,
    ) -> Result<ControlPdu, BleError> {
        if instant <= self.hop.event_counter {
            return Err(BleError::InvalidState(
                "schedule_channel_map: instant in the past",
            ));
        }
        self.pending_map = Some((map, instant));
        Ok(ControlPdu::ChannelMapInd {
            map,
            instant: instant as u16,
        })
    }

    /// Peer side: arms the switch from a received `LL_CHANNEL_MAP_IND`.
    pub fn on_channel_map_ind(&mut self, pdu: &ControlPdu) -> Result<(), BleError> {
        match pdu {
            ControlPdu::ChannelMapInd { map, instant } => {
                self.pending_map = Some((*map, *instant as u64));
                Ok(())
            }
            _ => Err(BleError::InvalidState(
                "on_channel_map_ind: not a map update",
            )),
        }
    }

    /// Applies a pending map whose instant has arrived (called at the top
    /// of every connection event).
    fn apply_pending_map(&mut self) {
        if let Some((map, instant)) = self.pending_map {
            if self.hop.event_counter >= instant {
                self.hop.set_channel_map(map);
                self.pending_map = None;
            }
        }
    }

    /// The channel of the next connection event, without advancing.
    pub fn peek_channel(&self) -> Channel {
        self.hop.peek_schedule(1)[0]
    }

    /// Number of completed connection events.
    pub fn events_elapsed(&self) -> u64 {
        self.hop.event_counter
    }

    /// Runs one connection event in which the master sends `master_payload`
    /// and the slave responds with `slave_payload` (both plain L2CAP-style
    /// data). Sequence numbers advance as if both packets were acked.
    pub fn advance_event(
        &mut self,
        master_payload: Vec<u8>,
        slave_payload: Vec<u8>,
    ) -> Result<ConnectionEvent, BleError> {
        self.apply_pending_map();
        let channel = self.hop.next_channel();
        let event = self.hop.event_counter - 1;

        let master_pdu = DataPdu {
            llid: Llid::DataStart,
            nesn: self.nesn,
            sn: self.sn,
            md: false,
            payload: master_payload,
        }
        .encode()?;
        let slave_pdu = DataPdu {
            llid: Llid::DataStart,
            nesn: !self.sn, // acks the master's SN
            sn: self.nesn,
            md: false,
            payload: slave_payload,
        }
        .encode()?;

        // Both sides saw each other's packet: toggle for the next event.
        self.sn = !self.sn;
        self.nesn = !self.nesn;

        Ok(ConnectionEvent {
            event,
            channel,
            master_frame: Frame::new(self.params.access_address, master_pdu, self.params.crc_init),
            slave_frame: Frame::new(self.params.access_address, slave_pdu, self.params.crc_init),
        })
    }

    /// Runs one **localization** connection event: both directions carry
    /// BLoc run-pattern payloads pre-whitened for the event's channel
    /// (paper §4). Returns the event plus the two localization packets with
    /// their stable-window metadata.
    pub fn advance_localization_event(
        &mut self,
        run_bits: usize,
        pairs: usize,
    ) -> Result<(ConnectionEvent, LocalizationPacket, LocalizationPacket), BleError> {
        self.apply_pending_map();
        let channel = self.hop.next_channel();
        let event = self.hop.event_counter - 1;

        let master_lp = LocalizationPacket::build(
            channel,
            self.params.access_address,
            self.params.crc_init,
            run_bits,
            pairs,
        )?;
        let slave_lp = LocalizationPacket::build(
            channel,
            self.params.access_address,
            self.params.crc_init,
            run_bits,
            pairs,
        )?;

        self.sn = !self.sn;
        self.nesn = !self.nesn;

        Ok((
            ConnectionEvent {
                event,
                channel,
                master_frame: master_lp.frame.clone(),
                slave_frame: slave_lp.frame.clone(),
            },
            master_lp,
            slave_lp,
        ))
    }

    /// Applies a channel-map update mid-connection (interference
    /// avoidance, paper §8.6).
    pub fn update_channel_map(&mut self, map: ChannelMap) {
        self.hop.set_channel_map(map);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::HashSet;

    fn tag_addr() -> DeviceAddress {
        DeviceAddress::new([0xC0, 1, 2, 3, 4, 5])
    }

    fn anchor_addr() -> DeviceAddress {
        DeviceAddress::new([0xC0, 9, 8, 7, 6, 5])
    }

    /// Full establishment dance: tag advertises, master initiates.
    fn establish() -> (Connection, Connection) {
        let mut rng = StdRng::seed_from_u64(42);
        let mut tag = LinkLayer::new(tag_addr());
        let mut master = LinkLayer::new(anchor_addr());

        tag.start_advertising().unwrap();
        master.start_initiating(tag_addr()).unwrap();

        let adv = tag.advertise().unwrap();
        let (master_conn, connect_ind) = master
            .on_adv_ind(&adv, &ConnectionParams::bloc_default(), &mut rng)
            .unwrap()
            .unwrap();
        let tag_conn = tag.on_connect_ind(&connect_ind).unwrap();
        (master_conn, tag_conn)
    }

    #[test]
    fn establishment_reaches_connected() {
        let (m, t) = establish();
        assert_eq!(m.role, Role::Master);
        assert_eq!(t.role, Role::Slave);
        assert_eq!(m.params, t.params, "both sides must agree on link data");
    }

    #[test]
    fn both_sides_hop_identically() {
        let (mut m, mut t) = establish();
        for _ in 0..50 {
            let me = m.advance_event(vec![1], vec![2]).unwrap();
            let te = t.advance_event(vec![1], vec![2]).unwrap();
            assert_eq!(me.channel, te.channel);
            assert_eq!(me.event, te.event);
        }
    }

    #[test]
    fn hop_covers_all_channels_in_37_events() {
        let (mut m, _) = establish();
        let mut seen = HashSet::new();
        for _ in 0..37 {
            seen.insert(m.advance_event(vec![], vec![]).unwrap().channel.index());
        }
        assert_eq!(
            seen.len(),
            37,
            "one full cycle must visit every data channel"
        );
    }

    #[test]
    fn follower_tracks_the_same_schedule() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut tag = LinkLayer::new(tag_addr());
        let mut master = LinkLayer::new(anchor_addr());
        tag.start_advertising().unwrap();
        master.start_initiating(tag_addr()).unwrap();
        let adv = tag.advertise().unwrap();
        let (mut mconn, connect_ind) = master
            .on_adv_ind(&adv, &ConnectionParams::bloc_default(), &mut rng)
            .unwrap()
            .unwrap();
        let mut follower = LinkLayer::follow_connection(&connect_ind).unwrap();
        for _ in 0..20 {
            let ev = mconn.advance_event(vec![], vec![]).unwrap();
            let fv = follower.advance_event(vec![], vec![]).unwrap();
            assert_eq!(ev.channel, fv.channel);
        }
    }

    #[test]
    fn adv_from_wrong_peer_ignored() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut master = LinkLayer::new(anchor_addr());
        master.start_initiating(tag_addr()).unwrap();
        let stranger = AdvPdu {
            pdu_type: AdvPduType::AdvInd,
            tx_add: false,
            rx_add: false,
            address: DeviceAddress::new([9; 6]),
            payload: vec![],
        };
        let out = master
            .on_adv_ind(&stranger, &ConnectionParams::bloc_default(), &mut rng)
            .unwrap();
        assert!(out.is_none());
        assert!(matches!(master.state, LinkState::Initiating { .. }));
    }

    #[test]
    fn invalid_transitions_error() {
        let mut dev = LinkLayer::new(tag_addr());
        assert!(dev.advertise().is_err(), "standby device cannot advertise");
        dev.start_advertising().unwrap();
        assert!(dev.start_advertising().is_err(), "double start must fail");
        assert!(
            dev.start_initiating(anchor_addr()).is_err(),
            "advertiser cannot initiate"
        );
    }

    #[test]
    fn sequence_numbers_alternate() {
        let (mut m, _) = establish();
        let e0 = m.advance_event(vec![], vec![]).unwrap();
        let e1 = m.advance_event(vec![], vec![]).unwrap();
        let h0 = e0.master_frame.pdu[0];
        let h1 = e1.master_frame.pdu[0];
        assert_ne!(h0 & 0x08, h1 & 0x08, "SN must toggle between events");
    }

    #[test]
    fn localization_event_produces_clean_runs() {
        let (mut m, _) = establish();
        let (ev, mlp, slp) = m.advance_localization_event(8, 4).unwrap();
        assert_eq!(mlp.channel, ev.channel);
        assert_eq!(slp.channel, ev.channel);
        assert_eq!(mlp.stable_windows(2).len(), 8);
        // And the frames decode as standard BLE.
        let bits = ev.master_frame.encode_bits(ev.channel);
        assert!(Frame::decode_bits(&bits, ev.channel, m.params.crc_init).is_ok());
    }

    #[test]
    fn channel_map_update_respected() {
        let (mut m, _) = establish();
        let restricted = ChannelMap::subsampled(4, 0).unwrap();
        m.update_channel_map(restricted);
        for _ in 0..40 {
            let ev = m.advance_event(vec![], vec![]).unwrap();
            assert!(restricted.contains(ev.channel));
        }
    }

    #[test]
    fn active_scanning_roundtrip() {
        // Scanner inventories an advertising beacon: ADV_IND → SCAN_REQ →
        // SCAN_RSP carrying extra data.
        let mut tag = LinkLayer::new(tag_addr());
        let mut scanner = LinkLayer::new(anchor_addr());
        tag.start_advertising().unwrap();
        scanner.start_scanning().unwrap();

        let adv = tag.advertise().unwrap();
        let req = scanner.scan_request(&adv).unwrap();
        assert_eq!(req.pdu_type, AdvPduType::ScanReq);
        let rsp = tag
            .scan_response(&req, b"BLoc tag v1".to_vec())
            .unwrap()
            .unwrap();
        assert_eq!(rsp.pdu_type, AdvPduType::ScanRsp);
        assert_eq!(rsp.address, tag_addr());
        assert_eq!(rsp.payload, b"BLoc tag v1");
    }

    #[test]
    fn scan_request_for_other_device_ignored() {
        let mut tag = LinkLayer::new(tag_addr());
        tag.start_advertising().unwrap();
        let req = AdvPdu {
            pdu_type: AdvPduType::ScanReq,
            tx_add: false,
            rx_add: false,
            address: anchor_addr(),
            payload: vec![9; 6], // someone else's AdvA
        };
        assert_eq!(tag.scan_response(&req, vec![]).unwrap(), None);
    }

    #[test]
    fn scanning_state_transitions_enforced() {
        let mut dev = LinkLayer::new(tag_addr());
        assert!(
            dev.scan_request(&AdvPdu {
                pdu_type: AdvPduType::AdvInd,
                tx_add: false,
                rx_add: false,
                address: anchor_addr(),
                payload: vec![],
            })
            .is_err(),
            "standby device cannot scan"
        );
        dev.start_scanning().unwrap();
        assert!(dev.start_scanning().is_err(), "double start must fail");
    }

    #[test]
    fn channel_map_update_honors_instant() {
        // The LL_CHANNEL_MAP_IND procedure: both sides switch maps on the
        // same connection event, never before the instant.
        let (mut m, mut t) = establish();
        let restricted = ChannelMap::subsampled(3, 0).unwrap();
        // Burn a few events first.
        for _ in 0..4 {
            m.advance_event(vec![], vec![]).unwrap();
            t.advance_event(vec![], vec![]).unwrap();
        }
        let pdu = m.schedule_channel_map(restricted, 10).unwrap();
        t.on_channel_map_ind(&pdu).unwrap();

        for _ in 4..20 {
            let me = m.advance_event(vec![], vec![]).unwrap();
            let te = t.advance_event(vec![], vec![]).unwrap();
            assert_eq!(me.channel, te.channel, "sides must stay in lockstep");
            if me.event >= 10 {
                assert!(
                    restricted.contains(me.channel),
                    "event {} must use the new map",
                    me.event
                );
            }
        }
    }

    #[test]
    fn past_instant_rejected() {
        let (mut m, _) = establish();
        for _ in 0..5 {
            m.advance_event(vec![], vec![]).unwrap();
        }
        assert!(m.schedule_channel_map(ChannelMap::all(), 3).is_err());
    }

    #[test]
    fn disconnect_returns_to_standby() {
        let mut dev = LinkLayer::new(tag_addr());
        dev.start_advertising().unwrap();
        dev.disconnect();
        assert_eq!(dev.state, LinkState::Standby);
        dev.start_advertising().unwrap(); // allowed again
    }
}
