//! Whole air-interface frames: preamble · access address · whitened
//! (PDU ‖ CRC) — and their on-air bit representation.
//!
//! The GFSK PHY (the `bloc-phy` crate) modulates exactly the bit vector produced
//! here, so this module is the boundary between the link layer and the
//! radio. Bits go on air LSB-first within each byte, per the BLE spec.

use crate::access_address::AccessAddress;
use crate::channels::Channel;
use crate::crc::{crc24, crc_from_bytes, crc_to_bytes};
use crate::error::BleError;
use crate::whitening::Whitener;

/// A fully-framed BLE packet ready for modulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sync word of the frame.
    pub access_address: AccessAddress,
    /// Unwhitened PDU bytes (header + payload).
    pub pdu: Vec<u8>,
    /// CRC init used for this frame (advertising or connection CRCInit).
    pub crc_init: u32,
}

impl Frame {
    /// Builds a frame; the CRC is computed at encode time.
    pub fn new(access_address: AccessAddress, pdu: Vec<u8>, crc_init: u32) -> Self {
        Self {
            access_address,
            pdu,
            crc_init,
        }
    }

    /// Serializes to on-air bytes for transmission on `channel`:
    /// preamble, access address, whitened PDU, whitened CRC.
    pub fn encode(&self, channel: Channel) -> Vec<u8> {
        let crc = crc24(self.crc_init, &self.pdu);
        let mut scrambled = self.pdu.clone();
        scrambled.extend_from_slice(&crc_to_bytes(crc));
        Whitener::new(channel).process(&mut scrambled);

        let mut out = Vec::with_capacity(5 + scrambled.len());
        out.push(self.access_address.preamble());
        out.extend_from_slice(&self.access_address.to_bytes());
        out.extend_from_slice(&scrambled);
        out
    }

    /// Serializes to the on-air bit sequence (LSB-first per byte) — the
    /// input of the GFSK modulator.
    pub fn encode_bits(&self, channel: Channel) -> Vec<bool> {
        bytes_to_bits(&self.encode(channel))
    }

    /// Parses on-air bytes received on `channel`, validating preamble and
    /// CRC. The expected access address must be known (BLE receivers
    /// correlate against it; BLoc anchors overhear using the address from
    /// the observed `CONNECT_IND`).
    pub fn decode(bytes: &[u8], channel: Channel, crc_init: u32) -> Result<Self, BleError> {
        if bytes.len() < 5 + 2 + 3 {
            return Err(BleError::Truncated {
                expected: 10,
                actual: bytes.len(),
            });
        }
        let aa = AccessAddress::from_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]);
        if bytes[0] != aa.preamble() {
            return Err(BleError::BadPreamble);
        }
        let mut scrambled = bytes[5..].to_vec();
        Whitener::new(channel).process(&mut scrambled);
        // PDU length is in the (now clear) second header byte.
        let pdu_len = 2 + scrambled[1] as usize;
        if scrambled.len() < pdu_len + 3 {
            return Err(BleError::Truncated {
                expected: 5 + pdu_len + 3,
                actual: bytes.len(),
            });
        }
        let pdu = scrambled[..pdu_len].to_vec();
        let rx_crc = crc_from_bytes([
            scrambled[pdu_len],
            scrambled[pdu_len + 1],
            scrambled[pdu_len + 2],
        ]);
        let computed = crc24(crc_init, &pdu);
        if rx_crc != computed {
            return Err(BleError::CrcMismatch {
                received: rx_crc,
                computed,
            });
        }
        Ok(Self {
            access_address: aa,
            pdu,
            crc_init,
        })
    }

    /// Parses an on-air bit sequence (inverse of [`Self::encode_bits`]).
    pub fn decode_bits(bits: &[bool], channel: Channel, crc_init: u32) -> Result<Self, BleError> {
        Self::decode(&bits_to_bytes(bits), channel, crc_init)
    }

    /// The number of on-air bits this frame occupies.
    pub fn air_bits(&self) -> usize {
        (1 + 4 + self.pdu.len() + 3) * 8
    }
}

/// Expands bytes to bits, LSB-first within each byte (on-air order).
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in 0..8 {
            bits.push((b >> i) & 1 == 1);
        }
    }
    bits
}

/// Packs bits (LSB-first per byte) back into bytes; trailing bits that do
/// not fill a byte are dropped.
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    bits.chunks_exact(8)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0u8, |b, (i, &bit)| b | (u8::from(bit)) << i)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdu::{DataPdu, Llid};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn test_frame(payload: Vec<u8>) -> Frame {
        let mut rng = StdRng::seed_from_u64(11);
        let aa = AccessAddress::generate(&mut rng);
        let pdu = DataPdu {
            llid: Llid::DataStart,
            nesn: false,
            sn: false,
            md: false,
            payload,
        }
        .encode()
        .unwrap();
        Frame::new(aa, pdu, 0x55AA55)
    }

    fn ch(i: u8) -> Channel {
        Channel::new(i).unwrap()
    }

    #[test]
    fn frame_roundtrip() {
        let f = test_frame(vec![1, 2, 3, 4, 5]);
        let bytes = f.encode(ch(17));
        let back = Frame::decode(&bytes, ch(17), 0x55AA55).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn bit_roundtrip() {
        let f = test_frame(b"localization".to_vec());
        let bits = f.encode_bits(ch(3));
        assert_eq!(bits.len(), f.air_bits());
        let back = Frame::decode_bits(&bits, ch(3), 0x55AA55).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn wrong_channel_dewhitening_fails_crc() {
        let f = test_frame(vec![9; 20]);
        let bytes = f.encode(ch(5));
        let err = Frame::decode(&bytes, ch(6), 0x55AA55).unwrap_err();
        // De-whitening with the wrong seed garbles everything; the usual
        // symptom is a CRC mismatch (or an implausible length → truncated).
        assert!(
            matches!(
                err,
                BleError::CrcMismatch { .. } | BleError::Truncated { .. }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn corrupted_bit_fails_crc() {
        let f = test_frame(vec![0xAB; 8]);
        let mut bytes = f.encode(ch(0));
        bytes[9] ^= 0x10; // flip a payload bit
        assert!(matches!(
            Frame::decode(&bytes, ch(0), 0x55AA55),
            Err(BleError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn wrong_crc_init_fails() {
        let f = test_frame(vec![1, 2, 3]);
        let bytes = f.encode(ch(0));
        assert!(matches!(
            Frame::decode(&bytes, ch(0), 0x000001),
            Err(BleError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn bad_preamble_detected() {
        let f = test_frame(vec![7; 4]);
        let mut bytes = f.encode(ch(2));
        bytes[0] ^= 0xFF;
        assert_eq!(
            Frame::decode(&bytes, ch(2), 0x55AA55),
            Err(BleError::BadPreamble)
        );
    }

    #[test]
    fn short_input_truncated() {
        assert!(matches!(
            Frame::decode(&[0xAA, 1, 2], ch(0), 0),
            Err(BleError::Truncated { .. })
        ));
    }

    #[test]
    fn bits_bytes_helpers() {
        let bytes = vec![0b1010_0001, 0xFF, 0x00];
        let bits = bytes_to_bits(&bytes);
        assert_eq!(bits.len(), 24);
        assert!(bits[0]); // LSB of 0xA1 is 1
        assert!(!bits[1]);
        assert_eq!(bits_to_bytes(&bits), bytes);
    }

    proptest! {
        #[test]
        fn prop_frame_roundtrip_any_channel(payload in proptest::collection::vec(any::<u8>(), 0..100),
                                            chan in 0u8..40) {
            let f = test_frame(payload);
            let bits = f.encode_bits(ch(chan));
            let back = Frame::decode_bits(&bits, ch(chan), 0x55AA55).unwrap();
            prop_assert_eq!(back, f);
        }

        #[test]
        fn prop_bits_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            prop_assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
        }
    }
}
