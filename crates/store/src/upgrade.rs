//! Decoders for superseded store payload layouts.
//!
//! The store's decoder (`format.rs`) dispatches each record's payload
//! here when the header declares an old (but supported) version, so a
//! store written before a layout change keeps opening — the entries
//! surface in the current in-memory shape and the next save rewrites
//! the file at [`crate::version::CURRENT_VERSION`]. The records around
//! the payloads are framed by [`crate::envelope`], which no version has
//! changed. One function per retired version; nothing here is ever
//! removed, only added.

use crate::envelope::{self, FileKind, Reader};
use crate::format::{decode_incumbents, encode_incumbents};
use crate::version::VERSION_1;
use crate::{Incumbent, StoredEntry};

/// Version 1 payload: `fingerprint u64, count u32, (width u32, tams
/// u32, time u64)*` — incumbents only, no cost columns. Upgrading fills
/// `columns` with `None`; the columns rebuild lazily the first time the
/// SOC is served again.
pub(crate) fn decode_payload_v1(payload: &[u8]) -> Option<(u64, StoredEntry)> {
    let mut reader = Reader::new(payload);
    let (fingerprint, incumbents) = decode_incumbents(&mut reader)?;
    (reader.remaining() == 0).then_some((
        fingerprint,
        StoredEntry {
            incumbents,
            columns: None,
        },
    ))
}

/// Encodes a version-1 file image — test/fixture support only, so the
/// committed `tests/fixtures/v1.tamstore` can be regenerated and the
/// upgrade path exercised without carrying an old binary around.
pub fn encode_v1_for_tests(entries: &[(u64, Vec<Incumbent>)]) -> Vec<u8> {
    envelope::encode(
        FileKind::Store,
        VERSION_1,
        entries,
        |(fingerprint, incumbents), out| encode_incumbents(*fingerprint, incumbents, out),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::decode;

    #[test]
    fn v1_image_decodes_without_columns() {
        let incumbents = vec![
            Incumbent {
                width: 24,
                tams: 3,
                time: 30032,
            },
            Incumbent {
                width: 16,
                tams: 2,
                time: 44545,
            },
        ];
        let bytes = encode_v1_for_tests(&[(77, incumbents.clone())]);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.version, VERSION_1);
        assert!(decoded.warnings.is_empty(), "{:?}", decoded.warnings);
        assert_eq!(decoded.records.len(), 1);
        let (fingerprint, entry) = &decoded.records[0];
        assert_eq!(*fingerprint, 77);
        assert_eq!(entry.incumbents, incumbents);
        assert!(entry.columns.is_none(), "v1 carries no columns");
    }

    #[test]
    fn v1_trailing_bytes_are_corruption() {
        // A well-checksummed record with trailing junk is still corrupt.
        let bytes = envelope::encode(FileKind::Store, VERSION_1, [77], |fingerprint, out| {
            encode_incumbents(fingerprint, &[], out);
            out.push(0xAB);
        });
        let decoded = decode(&bytes).unwrap();
        assert!(decoded.records.is_empty());
        assert_eq!(decoded.warnings.len(), 1);
    }
}
