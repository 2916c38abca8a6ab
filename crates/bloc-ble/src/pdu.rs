//! Link-layer PDUs: advertising PDUs (including `CONNECT_IND`) and data
//! PDUs.
//!
//! BLoc's traffic pattern (paper §3) is: the tag advertises, the master
//! anchor sends `CONNECT_IND`, and thereafter master and tag exchange data
//! PDUs every connection event while slave anchors overhear. This module
//! implements the wire format of exactly those PDUs:
//!
//! * advertising header: `type(4) | rfu(1) | ChSel(1) | TxAdd(1) | RxAdd(1)`
//!   then an 8-bit length;
//! * data header: `LLID(2) | NESN(1) | SN(1) | MD(1) | rfu(3)` then an 8-bit
//!   length (4.2-style extended length);
//! * the 34-byte `CONNECT_IND` payload carrying the access address, CRC
//!   init, hop increment and channel map that seed [`crate::hopping`].

use crate::access_address::AccessAddress;
use crate::channels::ChannelMap;
use crate::error::BleError;
use crate::hopping::HopIncrement;

/// A 48-bit Bluetooth device address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceAddress(pub [u8; 6]);

impl DeviceAddress {
    /// Builds an address from its colon-notation MSB-first bytes.
    pub const fn new(bytes: [u8; 6]) -> Self {
        Self(bytes)
    }
}

/// Advertising PDU types (the subset BLoc's deployment uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvPduType {
    /// Connectable undirected advertising — what an off-the-shelf BLE tag
    /// broadcasts.
    AdvInd,
    /// Non-connectable advertising (beacon mode).
    AdvNonconnInd,
    /// Scannable undirected advertising.
    AdvScanInd,
    /// Scan request from a scanner.
    ScanReq,
    /// Scan response from the advertiser.
    ScanRsp,
    /// Connection request from an initiator — carries the link parameters.
    ConnectInd,
}

impl AdvPduType {
    /// The 4-bit on-air type code.
    pub fn code(self) -> u8 {
        match self {
            Self::AdvInd => 0x0,
            Self::AdvNonconnInd => 0x2,
            Self::AdvScanInd => 0x6,
            Self::ScanReq => 0x3,
            Self::ScanRsp => 0x4,
            Self::ConnectInd => 0x5,
        }
    }

    /// Parses a 4-bit type code.
    pub fn from_code(code: u8) -> Result<Self, BleError> {
        Ok(match code {
            0x0 => Self::AdvInd,
            0x2 => Self::AdvNonconnInd,
            0x6 => Self::AdvScanInd,
            0x3 => Self::ScanReq,
            0x4 => Self::ScanRsp,
            0x5 => Self::ConnectInd,
            other => return Err(BleError::UnknownPduType(other)),
        })
    }
}

/// An advertising-channel PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvPdu {
    /// PDU type.
    pub pdu_type: AdvPduType,
    /// TxAdd flag (advertiser address is random).
    pub tx_add: bool,
    /// RxAdd flag (target address is random).
    pub rx_add: bool,
    /// Advertiser (or scanner, for ScanReq) address — the first 6 payload
    /// bytes of every advertising PDU we model.
    pub address: DeviceAddress,
    /// Remaining payload (AD structures, scan response data, or for
    /// `CONNECT_IND` the serialized [`ConnectInd`] link data).
    pub payload: Vec<u8>,
}

/// Maximum advertising payload after the address (spec: 31 bytes of AD
/// data; CONNECT_IND carries 28 bytes of LLData after the two addresses).
const MAX_ADV_PAYLOAD: usize = 255 - 6;

impl AdvPdu {
    /// Serializes header + payload (the byte string the CRC covers).
    pub fn encode(&self) -> Result<Vec<u8>, BleError> {
        if self.payload.len() > MAX_ADV_PAYLOAD {
            return Err(BleError::PayloadTooLong(self.payload.len()));
        }
        let len = 6 + self.payload.len();
        let header0 =
            self.pdu_type.code() | (u8::from(self.tx_add)) << 6 | (u8::from(self.rx_add)) << 7;
        let mut out = Vec::with_capacity(2 + len);
        out.push(header0);
        out.push(len as u8);
        out.extend_from_slice(&self.address.0);
        out.extend_from_slice(&self.payload);
        Ok(out)
    }

    /// Parses header + payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, BleError> {
        if bytes.len() < 2 {
            return Err(BleError::Truncated {
                expected: 2,
                actual: bytes.len(),
            });
        }
        let pdu_type = AdvPduType::from_code(bytes[0] & 0x0F)?;
        let tx_add = bytes[0] & 0x40 != 0;
        let rx_add = bytes[0] & 0x80 != 0;
        let len = bytes[1] as usize;
        if bytes.len() < 2 + len {
            return Err(BleError::Truncated {
                expected: 2 + len,
                actual: bytes.len(),
            });
        }
        if len < 6 {
            return Err(BleError::Truncated {
                expected: 8,
                actual: 2 + len,
            });
        }
        let mut address = [0u8; 6];
        address.copy_from_slice(&bytes[2..8]);
        Ok(Self {
            pdu_type,
            tx_add,
            rx_add,
            address: DeviceAddress(address),
            payload: bytes[8..2 + len].to_vec(),
        })
    }
}

/// LLID values of data-channel PDUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Llid {
    /// Continuation fragment of an L2CAP message (or empty PDU).
    DataContinuation,
    /// Start of an L2CAP message (BLoc's localization payloads travel as
    /// these).
    DataStart,
    /// LL control PDU.
    Control,
}

impl Llid {
    /// On-air 2-bit code.
    pub fn code(self) -> u8 {
        match self {
            Self::DataContinuation => 0b01,
            Self::DataStart => 0b10,
            Self::Control => 0b11,
        }
    }

    /// Parses the 2-bit code (0b00 is reserved).
    pub fn from_code(code: u8) -> Result<Self, BleError> {
        Ok(match code & 0b11 {
            0b01 => Self::DataContinuation,
            0b10 => Self::DataStart,
            0b11 => Self::Control,
            other => return Err(BleError::UnknownPduType(other)),
        })
    }
}

/// A data-channel PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPdu {
    /// Logical link ID.
    pub llid: Llid,
    /// Next expected sequence number (acknowledgement bit).
    pub nesn: bool,
    /// Sequence number.
    pub sn: bool,
    /// More data flag.
    pub md: bool,
    /// Payload bytes (≤ 255 with 4.2 extended length).
    pub payload: Vec<u8>,
}

impl DataPdu {
    /// An empty PDU (LLID = continuation, no payload) — what a device sends
    /// to keep the connection event alive.
    pub fn empty(nesn: bool, sn: bool) -> Self {
        Self {
            llid: Llid::DataContinuation,
            nesn,
            sn,
            md: false,
            payload: Vec::new(),
        }
    }

    /// Serializes header + payload.
    pub fn encode(&self) -> Result<Vec<u8>, BleError> {
        if self.payload.len() > 255 {
            return Err(BleError::PayloadTooLong(self.payload.len()));
        }
        let header0 = self.llid.code()
            | (u8::from(self.nesn)) << 2
            | (u8::from(self.sn)) << 3
            | (u8::from(self.md)) << 4;
        let mut out = Vec::with_capacity(2 + self.payload.len());
        out.push(header0);
        out.push(self.payload.len() as u8);
        out.extend_from_slice(&self.payload);
        Ok(out)
    }

    /// Parses header + payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, BleError> {
        if bytes.len() < 2 {
            return Err(BleError::Truncated {
                expected: 2,
                actual: bytes.len(),
            });
        }
        let llid = Llid::from_code(bytes[0])?;
        let len = bytes[1] as usize;
        if bytes.len() < 2 + len {
            return Err(BleError::Truncated {
                expected: 2 + len,
                actual: bytes.len(),
            });
        }
        Ok(Self {
            llid,
            nesn: bytes[0] & 0x04 != 0,
            sn: bytes[0] & 0x08 != 0,
            md: bytes[0] & 0x10 != 0,
            payload: bytes[2..2 + len].to_vec(),
        })
    }
}

/// The link data carried by a `CONNECT_IND` PDU: everything both sides (and
/// BLoc's overhearing anchors) need to follow the connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnectInd {
    /// Access address of the new connection.
    pub access_address: AccessAddress,
    /// CRC init value (24 bits).
    pub crc_init: u32,
    /// Transmit window size, 1.25 ms units.
    pub win_size: u8,
    /// Transmit window offset, 1.25 ms units.
    pub win_offset: u16,
    /// Connection interval, 1.25 ms units.
    pub interval: u16,
    /// Slave latency (events).
    pub latency: u16,
    /// Supervision timeout, 10 ms units.
    pub timeout: u16,
    /// Channel map in force at connection setup.
    pub channel_map: ChannelMap,
    /// Hop increment (5..=16).
    pub hop: HopIncrement,
    /// Master sleep-clock accuracy code (0..=7).
    pub sca: u8,
}

impl ConnectInd {
    /// Serialized LLData length (22 bytes: AA 4 + CRCInit 3 + WinSize 1 +
    /// WinOffset 2 + Interval 2 + Latency 2 + Timeout 2 + ChM 5 + Hop/SCA 1).
    pub const LL_DATA_LEN: usize = 22;

    /// Serializes the LLData block.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::LL_DATA_LEN);
        out.extend_from_slice(&self.access_address.to_bytes());
        out.extend_from_slice(&crate::crc::crc_to_bytes(self.crc_init));
        out.push(self.win_size);
        out.extend_from_slice(&self.win_offset.to_le_bytes());
        out.extend_from_slice(&self.interval.to_le_bytes());
        out.extend_from_slice(&self.latency.to_le_bytes());
        out.extend_from_slice(&self.timeout.to_le_bytes());
        let mask = self.channel_map.mask();
        out.extend_from_slice(&mask.to_le_bytes()[..5]);
        out.push((self.hop.get() & 0x1F) | (self.sca & 0x07) << 5);
        debug_assert_eq!(out.len(), Self::LL_DATA_LEN);
        out
    }

    /// Parses an LLData block.
    pub fn decode(bytes: &[u8]) -> Result<Self, BleError> {
        if bytes.len() < Self::LL_DATA_LEN {
            return Err(BleError::Truncated {
                expected: Self::LL_DATA_LEN,
                actual: bytes.len(),
            });
        }
        let access_address = AccessAddress::from_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let crc_init = crate::crc::crc_from_bytes([bytes[4], bytes[5], bytes[6]]);
        let win_size = bytes[7];
        let win_offset = u16::from_le_bytes([bytes[8], bytes[9]]);
        let interval = u16::from_le_bytes([bytes[10], bytes[11]]);
        let latency = u16::from_le_bytes([bytes[12], bytes[13]]);
        let timeout = u16::from_le_bytes([bytes[14], bytes[15]]);
        let mut mask_bytes = [0u8; 8];
        mask_bytes[..5].copy_from_slice(&bytes[16..21]);
        let mask = u64::from_le_bytes(mask_bytes) & ((1u64 << 37) - 1);
        let channels: Vec<u8> = (0..37).filter(|c| (mask >> c) & 1 == 1).collect();
        let channel_map = ChannelMap::from_channels(&channels)?;
        let hop = HopIncrement::new(bytes[21] & 0x1F)?;
        let sca = bytes[21] >> 5;
        Ok(Self {
            access_address,
            crc_init,
            win_size,
            win_offset,
            interval,
            latency,
            timeout,
            channel_map,
            hop,
            sca,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn addr(seed: u8) -> DeviceAddress {
        DeviceAddress::new([seed, 2, 3, 4, 5, 6])
    }

    #[test]
    fn adv_pdu_roundtrip() {
        let pdu = AdvPdu {
            pdu_type: AdvPduType::AdvInd,
            tx_add: true,
            rx_add: false,
            address: addr(1),
            payload: vec![0x02, 0x01, 0x06],
        };
        let bytes = pdu.encode().unwrap();
        assert_eq!(AdvPdu::decode(&bytes).unwrap(), pdu);
    }

    #[test]
    fn adv_pdu_all_types_roundtrip() {
        for t in [
            AdvPduType::AdvInd,
            AdvPduType::AdvNonconnInd,
            AdvPduType::AdvScanInd,
            AdvPduType::ScanReq,
            AdvPduType::ScanRsp,
            AdvPduType::ConnectInd,
        ] {
            assert_eq!(AdvPduType::from_code(t.code()).unwrap(), t);
        }
        assert!(AdvPduType::from_code(0xF).is_err());
    }

    #[test]
    fn adv_pdu_truncated_rejected() {
        let pdu = AdvPdu {
            pdu_type: AdvPduType::AdvInd,
            tx_add: false,
            rx_add: false,
            address: addr(7),
            payload: vec![1, 2, 3, 4],
        };
        let bytes = pdu.encode().unwrap();
        for cut in 0..bytes.len() {
            assert!(
                AdvPdu::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn data_pdu_roundtrip_with_flags() {
        for (nesn, sn, md) in [
            (false, false, false),
            (true, false, true),
            (false, true, false),
            (true, true, true),
        ] {
            let pdu = DataPdu {
                llid: Llid::DataStart,
                nesn,
                sn,
                md,
                payload: vec![0xFF; 10],
            };
            let bytes = pdu.encode().unwrap();
            assert_eq!(DataPdu::decode(&bytes).unwrap(), pdu);
        }
    }

    #[test]
    fn empty_data_pdu() {
        let pdu = DataPdu::empty(true, false);
        let bytes = pdu.encode().unwrap();
        assert_eq!(bytes.len(), 2);
        let back = DataPdu::decode(&bytes).unwrap();
        assert!(back.payload.is_empty());
        assert!(back.nesn && !back.sn);
    }

    #[test]
    fn oversized_payloads_rejected() {
        let pdu = DataPdu {
            llid: Llid::DataStart,
            nesn: false,
            sn: false,
            md: false,
            payload: vec![0; 256],
        };
        assert_eq!(pdu.encode(), Err(BleError::PayloadTooLong(256)));
    }

    #[test]
    fn reserved_llid_rejected() {
        assert!(Llid::from_code(0b00).is_err());
    }

    #[test]
    fn connect_ind_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let ci = ConnectInd {
            access_address: AccessAddress::generate(&mut rng),
            crc_init: 0xABCDEF,
            win_size: 2,
            win_offset: 10,
            interval: 24, // 30 ms
            latency: 0,
            timeout: 100,
            channel_map: ChannelMap::subsampled(2, 1).unwrap(),
            hop: HopIncrement::new(9).unwrap(),
            sca: 4,
        };
        let bytes = ci.encode();
        assert_eq!(bytes.len(), ConnectInd::LL_DATA_LEN);
        assert_eq!(ConnectInd::decode(&bytes).unwrap(), ci);
    }

    #[test]
    fn connect_ind_inside_adv_pdu() {
        let mut rng = StdRng::seed_from_u64(4);
        let ci = ConnectInd {
            access_address: AccessAddress::generate(&mut rng),
            crc_init: 0x123456,
            win_size: 1,
            win_offset: 0,
            interval: 6,
            latency: 0,
            timeout: 50,
            channel_map: ChannelMap::all(),
            hop: HopIncrement::new(5).unwrap(),
            sca: 0,
        };
        let pdu = AdvPdu {
            pdu_type: AdvPduType::ConnectInd,
            tx_add: false,
            rx_add: false,
            address: addr(9),
            payload: ci.encode(),
        };
        let decoded = AdvPdu::decode(&pdu.encode().unwrap()).unwrap();
        assert_eq!(ConnectInd::decode(&decoded.payload).unwrap(), ci);
    }

    proptest! {
        #[test]
        fn prop_data_pdu_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..256),
                                   nesn in any::<bool>(), sn in any::<bool>(), md in any::<bool>()) {
            let pdu = DataPdu { llid: Llid::DataStart, nesn, sn, md, payload };
            let bytes = pdu.encode().unwrap();
            prop_assert_eq!(DataPdu::decode(&bytes).unwrap(), pdu);
        }

        #[test]
        fn prop_adv_pdu_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..200),
                                  a in any::<[u8; 6]>()) {
            let pdu = AdvPdu {
                pdu_type: AdvPduType::AdvInd,
                tx_add: false,
                rx_add: true,
                address: DeviceAddress(a),
                payload,
            };
            let bytes = pdu.encode().unwrap();
            prop_assert_eq!(AdvPdu::decode(&bytes).unwrap(), pdu);
        }
    }
}
