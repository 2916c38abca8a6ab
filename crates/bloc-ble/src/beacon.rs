//! Advertising-data (AD) structures and beacon payloads.
//!
//! The commercial context of the paper (§1): "top technological companies
//! like Google, Apple, etc. have invested heavily in this domain through
//! iBeacons, Project Eddystone". BLoc localizes those very tags, so the
//! link layer here can parse and build their advertising payloads: the
//! generic length/type/data AD structure framing, Apple iBeacon frames,
//! and Google Eddystone-UID/-URL frames.

use crate::error::BleError;

/// Common AD types (Bluetooth Assigned Numbers §2.3).
pub mod ad_type {
    /// Flags.
    pub const FLAGS: u8 = 0x01;
    /// Complete list of 16-bit service UUIDs.
    pub const COMPLETE_16BIT_UUIDS: u8 = 0x03;
    /// Complete local name.
    pub const COMPLETE_LOCAL_NAME: u8 = 0x09;
    /// Service data, 16-bit UUID.
    pub const SERVICE_DATA_16BIT: u8 = 0x16;
    /// Manufacturer-specific data.
    pub const MANUFACTURER_DATA: u8 = 0xFF;
}

/// One AD structure: a type code and its data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdStructure {
    /// AD type code.
    pub ad_type: u8,
    /// Payload bytes (excludes the length and type bytes).
    pub data: Vec<u8>,
}

impl AdStructure {
    /// Serializes as `len | type | data`.
    pub fn encode(&self) -> Result<Vec<u8>, BleError> {
        if self.data.len() + 1 > 255 {
            return Err(BleError::PayloadTooLong(self.data.len()));
        }
        let mut out = Vec::with_capacity(2 + self.data.len());
        out.push((self.data.len() + 1) as u8);
        out.push(self.ad_type);
        out.extend_from_slice(&self.data);
        Ok(out)
    }
}

/// Parses a full AD payload into its structures. A zero length byte
/// terminates parsing (early-termination padding, per spec); running out
/// of bytes mid-structure is an error.
pub fn parse_ad(payload: &[u8]) -> Result<Vec<AdStructure>, BleError> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < payload.len() {
        let len = payload[i] as usize;
        if len == 0 {
            break;
        }
        if i + 1 + len > payload.len() {
            return Err(BleError::Truncated {
                expected: i + 1 + len,
                actual: payload.len(),
            });
        }
        out.push(AdStructure {
            ad_type: payload[i + 1],
            data: payload[i + 2..i + 1 + len].to_vec(),
        });
        i += 1 + len;
    }
    Ok(out)
}

/// Serializes a list of AD structures into one payload.
pub fn encode_ad(structures: &[AdStructure]) -> Result<Vec<u8>, BleError> {
    let mut out = Vec::new();
    for s in structures {
        out.extend(s.encode()?);
    }
    if out.len() > 31 {
        return Err(BleError::PayloadTooLong(out.len()));
    }
    Ok(out)
}

/// A recognized beacon frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Beacon {
    /// Apple iBeacon: 16-byte proximity UUID + major/minor + calibrated
    /// TX power at 1 m (dBm).
    IBeacon {
        /// Proximity UUID.
        uuid: [u8; 16],
        /// Major group id.
        major: u16,
        /// Minor id.
        minor: u16,
        /// Measured power at 1 m, dBm (signed).
        tx_power: i8,
    },
    /// Google Eddystone-UID: 10-byte namespace + 6-byte instance.
    EddystoneUid {
        /// Calibrated TX power at 0 m, dBm.
        tx_power: i8,
        /// Namespace id.
        namespace: [u8; 10],
        /// Instance id.
        instance: [u8; 6],
    },
    /// Google Eddystone-URL: compressed URL.
    EddystoneUrl {
        /// Calibrated TX power at 0 m, dBm.
        tx_power: i8,
        /// The expanded URL.
        url: String,
    },
}

const APPLE_COMPANY_ID: [u8; 2] = [0x4C, 0x00];
const EDDYSTONE_UUID: [u8; 2] = [0xAA, 0xFE];

/// Eddystone URL scheme prefixes (frame byte 0 of the encoded URL).
const URL_SCHEMES: [&str; 4] = ["http://www.", "https://www.", "http://", "https://"];
/// Eddystone URL expansion codes 0x00–0x0D.
const URL_EXPANSIONS: [&str; 14] = [
    ".com/", ".org/", ".edu/", ".net/", ".info/", ".biz/", ".gov/", ".com", ".org", ".edu", ".net",
    ".info", ".biz", ".gov",
];

impl Beacon {
    /// Builds the AD structures advertising this beacon.
    pub fn to_ad(&self) -> Result<Vec<AdStructure>, BleError> {
        let flags = AdStructure {
            ad_type: ad_type::FLAGS,
            data: vec![0x06],
        };
        match self {
            Beacon::IBeacon {
                uuid,
                major,
                minor,
                tx_power,
            } => {
                let mut data = Vec::with_capacity(25);
                data.extend_from_slice(&APPLE_COMPANY_ID);
                data.push(0x02); // iBeacon type
                data.push(0x15); // iBeacon length (21)
                data.extend_from_slice(uuid);
                data.extend_from_slice(&major.to_be_bytes());
                data.extend_from_slice(&minor.to_be_bytes());
                data.push(*tx_power as u8);
                Ok(vec![
                    flags,
                    AdStructure {
                        ad_type: ad_type::MANUFACTURER_DATA,
                        data,
                    },
                ])
            }
            Beacon::EddystoneUid {
                tx_power,
                namespace,
                instance,
            } => {
                let mut data = Vec::with_capacity(20);
                data.extend_from_slice(&EDDYSTONE_UUID);
                data.push(0x00); // UID frame
                data.push(*tx_power as u8);
                data.extend_from_slice(namespace);
                data.extend_from_slice(instance);
                data.extend_from_slice(&[0, 0]); // RFU
                Ok(vec![
                    AdStructure {
                        ad_type: ad_type::COMPLETE_16BIT_UUIDS,
                        data: EDDYSTONE_UUID.to_vec(),
                    },
                    AdStructure {
                        ad_type: ad_type::SERVICE_DATA_16BIT,
                        data,
                    },
                ])
            }
            Beacon::EddystoneUrl { tx_power, url } => {
                let mut data = Vec::new();
                data.extend_from_slice(&EDDYSTONE_UUID);
                data.push(0x10); // URL frame
                data.push(*tx_power as u8);
                data.extend(compress_url(url)?);
                Ok(vec![
                    AdStructure {
                        ad_type: ad_type::COMPLETE_16BIT_UUIDS,
                        data: EDDYSTONE_UUID.to_vec(),
                    },
                    AdStructure {
                        ad_type: ad_type::SERVICE_DATA_16BIT,
                        data,
                    },
                ])
            }
        }
    }

    /// Scans a parsed AD payload for a recognizable beacon frame.
    pub fn from_ad(structures: &[AdStructure]) -> Option<Beacon> {
        for s in structures {
            match s.ad_type {
                ad_type::MANUFACTURER_DATA => {
                    if let Some(b) = parse_ibeacon(&s.data) {
                        return Some(b);
                    }
                }
                ad_type::SERVICE_DATA_16BIT => {
                    if let Some(b) = parse_eddystone(&s.data) {
                        return Some(b);
                    }
                }
                _ => {}
            }
        }
        None
    }
}

fn parse_ibeacon(data: &[u8]) -> Option<Beacon> {
    if data.len() != 25 || data[..2] != APPLE_COMPANY_ID || data[2] != 0x02 || data[3] != 0x15 {
        return None;
    }
    let mut uuid = [0u8; 16];
    uuid.copy_from_slice(&data[4..20]);
    Some(Beacon::IBeacon {
        uuid,
        major: u16::from_be_bytes([data[20], data[21]]),
        minor: u16::from_be_bytes([data[22], data[23]]),
        tx_power: data[24] as i8,
    })
}

fn parse_eddystone(data: &[u8]) -> Option<Beacon> {
    if data.len() < 4 || data[..2] != EDDYSTONE_UUID {
        return None;
    }
    match data[2] {
        0x00 if data.len() >= 20 => {
            let mut namespace = [0u8; 10];
            namespace.copy_from_slice(&data[4..14]);
            let mut instance = [0u8; 6];
            instance.copy_from_slice(&data[14..20]);
            Some(Beacon::EddystoneUid {
                tx_power: data[3] as i8,
                namespace,
                instance,
            })
        }
        0x10 if data.len() >= 5 => {
            let scheme = *URL_SCHEMES.get(data[4] as usize)?;
            let mut url = String::from(scheme);
            for &b in &data[5..] {
                match URL_EXPANSIONS.get(b as usize) {
                    Some(exp) => url.push_str(exp),
                    None if (0x20..0x7F).contains(&b) => url.push(b as char),
                    None => return None,
                }
            }
            Some(Beacon::EddystoneUrl {
                tx_power: data[3] as i8,
                url,
            })
        }
        _ => None,
    }
}

/// Compresses a URL into the Eddystone-URL encoding. Errors when the
/// result would not fit the 17-byte frame budget.
fn compress_url(url: &str) -> Result<Vec<u8>, BleError> {
    let (scheme_code, rest) = URL_SCHEMES
        .iter()
        .enumerate()
        // Longest-prefix match: the "www." variants come first by length.
        .filter(|(_, s)| url.starts_with(**s))
        .max_by_key(|(_, s)| s.len())
        .map(|(i, s)| (i as u8, &url[s.len()..]))
        .ok_or(BleError::UnknownPduType(0x10))?;

    let mut out = vec![scheme_code];
    let mut rest = rest;
    'outer: while !rest.is_empty() {
        for (code, exp) in URL_EXPANSIONS.iter().enumerate() {
            // Prefer the '/'-suffixed expansions (they are earlier in the
            // table and one byte longer in text).
            if rest.starts_with(exp) {
                out.push(code as u8);
                rest = &rest[exp.len()..];
                continue 'outer;
            }
        }
        let c = rest.as_bytes()[0];
        if !(0x20..0x7F).contains(&c) {
            return Err(BleError::UnknownPduType(c));
        }
        out.push(c);
        rest = &rest[1..];
    }
    if out.len() > 18 {
        return Err(BleError::PayloadTooLong(out.len()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ad_roundtrip() {
        let structures = vec![
            AdStructure {
                ad_type: ad_type::FLAGS,
                data: vec![0x06],
            },
            AdStructure {
                ad_type: ad_type::COMPLETE_LOCAL_NAME,
                data: b"bloc-tag".to_vec(),
            },
        ];
        let bytes = encode_ad(&structures).unwrap();
        assert_eq!(parse_ad(&bytes).unwrap(), structures);
    }

    #[test]
    fn ad_zero_length_terminates() {
        let payload = [2, ad_type::FLAGS, 0x06, 0, 0xAB, 0xCD];
        let parsed = parse_ad(&payload).unwrap();
        assert_eq!(parsed.len(), 1, "zero length byte pads the rest");
    }

    #[test]
    fn ad_truncated_structure_errors() {
        let payload = [5, ad_type::FLAGS, 0x06]; // claims 5, has 2
        assert!(matches!(
            parse_ad(&payload),
            Err(BleError::Truncated { .. })
        ));
    }

    #[test]
    fn ibeacon_roundtrip() {
        let b = Beacon::IBeacon {
            uuid: [
                0xE2, 0xC5, 0x6D, 0xB5, 0xDF, 0xFB, 0x48, 0xD2, 0xB0, 0x60, 0xD0, 0xF5, 0xA7, 0x10,
                0x96, 0xE0,
            ],
            major: 1000,
            minor: 42,
            tx_power: -59,
        };
        let ad = b.to_ad().unwrap();
        let bytes = encode_ad(&ad).unwrap();
        assert!(bytes.len() <= 31, "iBeacon AD must fit legacy advertising");
        let parsed = Beacon::from_ad(&parse_ad(&bytes).unwrap()).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn eddystone_uid_roundtrip() {
        let b = Beacon::EddystoneUid {
            tx_power: -20,
            namespace: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            instance: [11, 12, 13, 14, 15, 16],
        };
        let ad = b.to_ad().unwrap();
        let parsed = Beacon::from_ad(&parse_ad(&encode_ad(&ad).unwrap()).unwrap()).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn eddystone_url_roundtrip() {
        for url in [
            "https://www.example.com/tag",
            "http://bloc.net",
            "https://a.org/x",
        ] {
            let b = Beacon::EddystoneUrl {
                tx_power: -10,
                url: url.to_string(),
            };
            let ad = b.to_ad().unwrap();
            let parsed = Beacon::from_ad(&parse_ad(&encode_ad(&ad).unwrap()).unwrap()).unwrap();
            assert_eq!(parsed, b, "{url}");
        }
    }

    #[test]
    fn url_compression_uses_expansions() {
        // "https://www." (1 scheme byte) + "example" + ".com/" (1 byte) + "t"
        let bytes = compress_url("https://www.example.com/t").unwrap();
        assert_eq!(bytes.len(), 1 + 7 + 1 + 1);
    }

    #[test]
    fn unknown_scheme_rejected() {
        assert!(compress_url("ftp://example.com").is_err());
        let b = Beacon::EddystoneUrl {
            tx_power: 0,
            url: "gopher://x".into(),
        };
        assert!(b.to_ad().is_err());
    }

    #[test]
    fn oversized_url_rejected() {
        let b = Beacon::EddystoneUrl {
            tx_power: 0,
            url: format!("https://{}.com", "x".repeat(40)),
        };
        assert!(b.to_ad().is_err());
    }

    #[test]
    fn non_beacon_ad_is_none() {
        let structures = vec![AdStructure {
            ad_type: ad_type::FLAGS,
            data: vec![0x06],
        }];
        assert_eq!(Beacon::from_ad(&structures), None);
        // Manufacturer data from another vendor:
        let other = vec![AdStructure {
            ad_type: ad_type::MANUFACTURER_DATA,
            data: vec![0xFF, 0xFF, 1, 2, 3],
        }];
        assert_eq!(Beacon::from_ad(&other), None);
    }

    proptest! {
        #[test]
        fn prop_ad_roundtrip(types in proptest::collection::vec(1u8..=255, 1..4),
                             lens in proptest::collection::vec(0usize..8, 1..4)) {
            let structures: Vec<AdStructure> = types
                .iter()
                .zip(&lens)
                .map(|(&t, &l)| AdStructure { ad_type: t, data: vec![0xA5; l] })
                .collect();
            if let Ok(bytes) = encode_ad(&structures) {
                prop_assert_eq!(parse_ad(&bytes).unwrap(), structures);
            }
        }

        #[test]
        fn prop_ibeacon_roundtrip(uuid in any::<[u8; 16]>(), major in any::<u16>(),
                                  minor in any::<u16>(), power in -100i8..20) {
            let b = Beacon::IBeacon { uuid, major, minor, tx_power: power };
            let ad = b.to_ad().unwrap();
            let parsed = Beacon::from_ad(&parse_ad(&encode_ad(&ad).unwrap()).unwrap()).unwrap();
            prop_assert_eq!(parsed, b);
        }
    }
}
