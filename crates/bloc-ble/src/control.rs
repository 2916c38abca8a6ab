//! LL Control PDUs: the in-connection procedures BLoc's deployment
//! exercises.
//!
//! Two procedures matter for the paper's experiments: **channel map
//! updates** (`LL_CHANNEL_MAP_IND`) — how the interference-avoidance
//! blacklisting of §8.6 actually reaches the hop engine, synchronized to a
//! connection-event *instant* so master and slave switch maps on the same
//! event — and **termination** (`LL_TERMINATE_IND`). Control PDUs travel
//! as data-channel PDUs with `LLID = 0b11`.

use crate::channels::ChannelMap;
use crate::error::BleError;
use crate::pdu::{DataPdu, Llid};

/// A link-layer control PDU (the subset this stack implements).
#[derive(Debug, Clone, PartialEq)]
pub enum ControlPdu {
    /// `LL_CHANNEL_MAP_IND`: switch to `map` at connection event `instant`.
    ChannelMapInd {
        /// The new channel map.
        map: ChannelMap,
        /// Absolute connection-event counter at which the map takes
        /// effect.
        instant: u16,
    },
    /// `LL_TERMINATE_IND`: close the connection with a controller error
    /// code.
    TerminateInd {
        /// HCI-style error code (e.g. 0x13 = remote user terminated).
        error_code: u8,
    },
}

/// Opcode of `LL_CHANNEL_MAP_IND` (spec Vol 6 Part B §2.4.2).
pub const OPCODE_CHANNEL_MAP_IND: u8 = 0x01;
/// Opcode of `LL_TERMINATE_IND`.
pub const OPCODE_TERMINATE_IND: u8 = 0x02;

impl ControlPdu {
    /// Serializes the control payload (opcode + CtrData).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Self::ChannelMapInd { map, instant } => {
                let mut out = Vec::with_capacity(8);
                out.push(OPCODE_CHANNEL_MAP_IND);
                out.extend_from_slice(&map.mask().to_le_bytes()[..5]);
                out.extend_from_slice(&instant.to_le_bytes());
                out
            }
            Self::TerminateInd { error_code } => vec![OPCODE_TERMINATE_IND, *error_code],
        }
    }

    /// Parses a control payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, BleError> {
        match bytes.first() {
            Some(&OPCODE_CHANNEL_MAP_IND) => {
                if bytes.len() < 8 {
                    return Err(BleError::Truncated {
                        expected: 8,
                        actual: bytes.len(),
                    });
                }
                let mut mask_bytes = [0u8; 8];
                mask_bytes[..5].copy_from_slice(&bytes[1..6]);
                let mask = u64::from_le_bytes(mask_bytes) & ((1u64 << 37) - 1);
                let channels: Vec<u8> = (0..37u8).filter(|c| (mask >> c) & 1 == 1).collect();
                let map = ChannelMap::from_channels(&channels)?;
                let instant = u16::from_le_bytes([bytes[6], bytes[7]]);
                Ok(Self::ChannelMapInd { map, instant })
            }
            Some(&OPCODE_TERMINATE_IND) => {
                if bytes.len() < 2 {
                    return Err(BleError::Truncated {
                        expected: 2,
                        actual: bytes.len(),
                    });
                }
                Ok(Self::TerminateInd {
                    error_code: bytes[1],
                })
            }
            Some(&other) => Err(BleError::UnknownPduType(other)),
            None => Err(BleError::Truncated {
                expected: 1,
                actual: 0,
            }),
        }
    }

    /// Wraps this control payload in a data-channel PDU (`LLID = 0b11`).
    pub fn to_data_pdu(&self, nesn: bool, sn: bool) -> DataPdu {
        DataPdu {
            llid: Llid::Control,
            nesn,
            sn,
            md: false,
            payload: self.encode(),
        }
    }

    /// Extracts a control PDU from a data-channel PDU, if it is one.
    pub fn from_data_pdu(pdu: &DataPdu) -> Option<Result<Self, BleError>> {
        (pdu.llid == Llid::Control).then(|| Self::decode(&pdu.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn channel_map_ind_roundtrip() {
        let pdu = ControlPdu::ChannelMapInd {
            map: ChannelMap::subsampled(3, 1).unwrap(),
            instant: 1234,
        };
        assert_eq!(ControlPdu::decode(&pdu.encode()).unwrap(), pdu);
    }

    #[test]
    fn terminate_roundtrip() {
        let pdu = ControlPdu::TerminateInd { error_code: 0x13 };
        assert_eq!(ControlPdu::decode(&pdu.encode()).unwrap(), pdu);
    }

    #[test]
    fn travels_inside_data_pdu() {
        let ctrl = ControlPdu::ChannelMapInd {
            map: ChannelMap::all(),
            instant: 7,
        };
        let data = ctrl.to_data_pdu(true, false);
        assert_eq!(data.llid, Llid::Control);
        let bytes = data.encode().unwrap();
        let back = DataPdu::decode(&bytes).unwrap();
        let parsed = ControlPdu::from_data_pdu(&back)
            .expect("is control")
            .unwrap();
        assert_eq!(parsed, ctrl);
    }

    #[test]
    fn non_control_pdu_is_none() {
        let data = DataPdu {
            llid: Llid::DataStart,
            nesn: false,
            sn: false,
            md: false,
            payload: vec![1],
        };
        assert!(ControlPdu::from_data_pdu(&data).is_none());
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(matches!(
            ControlPdu::decode(&[]),
            Err(BleError::Truncated { .. })
        ));
        assert!(matches!(
            ControlPdu::decode(&[OPCODE_CHANNEL_MAP_IND, 1, 2]),
            Err(BleError::Truncated { .. })
        ));
        assert!(matches!(
            ControlPdu::decode(&[0x77]),
            Err(BleError::UnknownPduType(0x77))
        ));
        // A map with < 2 channels is invalid even if well-framed.
        let bad = [OPCODE_CHANNEL_MAP_IND, 0x01, 0, 0, 0, 0, 0, 0];
        assert!(matches!(
            ControlPdu::decode(&bad),
            Err(BleError::EmptyChannelMap)
        ));
    }

    proptest! {
        #[test]
        fn prop_channel_map_roundtrip(bits in proptest::collection::vec(0u8..37, 2..37),
                                      instant in any::<u16>()) {
            if let Ok(map) = ChannelMap::from_channels(&bits) {
                let pdu = ControlPdu::ChannelMapInd { map, instant };
                prop_assert_eq!(ControlPdu::decode(&pdu.encode()).unwrap(), pdu);
            }
        }
    }
}
