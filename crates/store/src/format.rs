//! The store's payload codec.
//!
//! ```text
//! payload := fingerprint:u64 incumbents columns        (version 2)
//!          | fingerprint:u64 incumbents                (version 1)
//! incumbents := count:u32 (width:u32 tams:u32 time:u64)*
//! columns := 0:u8
//!          | 1:u8 max_width:u32 cores:u32 breaks:u32
//!            (width:u32 time:u64{cores})*
//! ```
//!
//! Each payload travels in one record of the shared file envelope
//! ([`crate::envelope`]: header, length prefix, checksum and the
//! lenient decode loop). Integers are little-endian, and a payload that
//! does not decode exactly — a bad count, a zero width, trailing bytes
//! — is a corrupt record. Version-1 payloads decode through
//! [`crate::upgrade`].

use crate::columns::CostColumns;
use crate::envelope::{self, Decoded, FileKind, Reader};
use crate::upgrade;
use crate::version::VERSION_2;
use crate::{Incumbent, StoreError, StoredEntry};

/// Encodes the shared incumbent-list section of a payload — the whole
/// of a version-1 payload.
pub(crate) fn encode_incumbents(fingerprint: u64, incumbents: &[Incumbent], out: &mut Vec<u8>) {
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(incumbents.len() as u32).to_le_bytes());
    for inc in incumbents {
        out.extend_from_slice(&inc.width.to_le_bytes());
        out.extend_from_slice(&inc.tams.to_le_bytes());
        out.extend_from_slice(&inc.time.to_le_bytes());
    }
}

/// Encodes one entry's payload in the current layout.
pub(crate) fn encode_payload(fingerprint: u64, entry: &StoredEntry, out: &mut Vec<u8>) {
    encode_incumbents(fingerprint, &entry.incumbents, out);
    match &entry.columns {
        None => out.push(0),
        Some(columns) => {
            out.push(1);
            out.extend_from_slice(&columns.max_width().to_le_bytes());
            out.extend_from_slice(&(columns.num_cores() as u32).to_le_bytes());
            out.extend_from_slice(&(columns.breaks().len() as u32).to_le_bytes());
            for (width, column) in columns.breaks() {
                out.extend_from_slice(&width.to_le_bytes());
                for &time in column {
                    out.extend_from_slice(&time.to_le_bytes());
                }
            }
        }
    }
}

/// Decodes the shared incumbent-list section of a payload.
pub(crate) fn decode_incumbents(reader: &mut Reader<'_>) -> Option<(u64, Vec<Incumbent>)> {
    let fingerprint = reader.u64()?;
    let count = reader.u32()?;
    // An incumbent is 16 bytes; a count the remaining bytes cannot hold
    // is corrupt, and checking first keeps allocation proportional to
    // the actual input.
    if (count as usize).checked_mul(16)? > reader.remaining() {
        return None;
    }
    let mut incumbents = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let width = reader.u32()?;
        let tams = reader.u32()?;
        let time = reader.u64()?;
        if width == 0 {
            return None;
        }
        incumbents.push(Incumbent { width, tams, time });
    }
    Some((fingerprint, incumbents))
}

/// Decodes one payload in the **current** (version 2) layout. The whole
/// payload must be consumed — trailing bytes mean a corrupt record.
fn decode_payload_v2(payload: &[u8]) -> Option<(u64, StoredEntry)> {
    let mut reader = Reader::new(payload);
    let (fingerprint, incumbents) = decode_incumbents(&mut reader)?;
    let columns = match reader.u8()? {
        0 => None,
        1 => {
            let max_width = reader.u32()?;
            let cores = reader.u32()? as usize;
            let count = reader.u32()? as usize;
            let break_size = cores.checked_mul(8)?.checked_add(4)?;
            if count.checked_mul(break_size)? > reader.remaining() {
                return None;
            }
            let mut breaks = Vec::with_capacity(count);
            for _ in 0..count {
                let width = reader.u32()?;
                let mut column = Vec::with_capacity(cores);
                for _ in 0..cores {
                    column.push(reader.u64()?);
                }
                breaks.push((width, column));
            }
            Some(CostColumns::from_parts(max_width, breaks)?)
        }
        _ => return None,
    };
    (reader.remaining() == 0).then_some((
        fingerprint,
        StoredEntry {
            incumbents,
            columns,
        },
    ))
}

/// Decodes a store image through the envelope, dispatching each payload
/// on the declared version.
pub(crate) fn decode(bytes: &[u8]) -> Result<Decoded<(u64, StoredEntry)>, StoreError> {
    envelope::decode(FileKind::Store, bytes, |version, payload| {
        if version >= VERSION_2 {
            decode_payload_v2(payload)
        } else {
            upgrade::decode_payload_v1(payload)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::{CURRENT_VERSION, MAGIC};

    fn sample() -> Vec<(u64, StoredEntry)> {
        vec![
            (
                0xdead_beef,
                StoredEntry {
                    incumbents: vec![
                        Incumbent {
                            width: 16,
                            tams: 2,
                            time: 44545,
                        },
                        Incumbent {
                            width: 32,
                            tams: 3,
                            time: 21299,
                        },
                    ],
                    columns: CostColumns::from_parts(4, vec![(1, vec![9, 7]), (3, vec![5, 7])]),
                },
            ),
            (
                42,
                StoredEntry {
                    incumbents: vec![Incumbent {
                        width: 8,
                        tams: 1,
                        time: 999,
                    }],
                    columns: None,
                },
            ),
        ]
    }

    fn encode_sample(entries: &[(u64, StoredEntry)]) -> Vec<u8> {
        envelope::encode(FileKind::Store, CURRENT_VERSION, entries, |(f, e), out| {
            encode_payload(*f, e, out)
        })
    }

    #[test]
    fn roundtrip() {
        let entries = sample();
        let bytes = encode_sample(&entries);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.version, CURRENT_VERSION);
        assert!(decoded.warnings.is_empty(), "{:?}", decoded.warnings);
        assert_eq!(decoded.records, entries);
    }

    #[test]
    fn empty_and_garbage_open_empty_with_warnings() {
        for bytes in [&b""[..], b"not a store", b"tamstor"] {
            let decoded = decode(bytes).unwrap();
            assert!(decoded.records.is_empty());
            assert_eq!(decoded.warnings.len(), 1, "{bytes:?}");
        }
    }

    #[test]
    fn future_version_is_a_hard_error() {
        let mut bytes = Vec::from(MAGIC);
        bytes.extend_from_slice(&(CURRENT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(StoreError::FutureVersion { .. })
        ));
    }

    #[test]
    fn version_zero_opens_empty_with_warning() {
        let mut bytes = Vec::from(MAGIC);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let decoded = decode(&bytes).unwrap();
        assert!(decoded.records.is_empty());
        assert_eq!(decoded.warnings.len(), 1);
    }

    #[test]
    fn truncation_keeps_the_valid_prefix() {
        let entries = sample();
        let bytes = encode_sample(&entries);
        // Chop mid-way through the second record: the first survives.
        let cut = bytes.len() - 5;
        let decoded = decode(&bytes[..cut]).unwrap();
        assert_eq!(decoded.records.len(), 1);
        assert_eq!(decoded.records[0], entries[0]);
        assert_eq!(decoded.warnings.len(), 1);
    }

    #[test]
    fn bit_flip_fails_the_checksum() {
        let entries = sample();
        let mut bytes = encode_sample(&entries);
        // Flip a bit inside the first record's payload.
        bytes[20] ^= 0x10;
        let decoded = decode(&bytes).unwrap();
        assert!(decoded.records.is_empty(), "first record must be dropped");
        assert_eq!(decoded.warnings.len(), 1);
    }

    #[test]
    fn every_truncation_point_is_panic_free() {
        let bytes = encode_sample(&sample());
        for cut in 0..bytes.len() {
            let decoded = decode(&bytes[..cut]).unwrap();
            assert!(decoded.records.len() <= 2);
        }
    }
}
