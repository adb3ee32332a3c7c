//! The file envelope the store and the request journal share — the one
//! module that knows how a file is headed and a record is framed.
//!
//! ```text
//! file   := magic:[u8; 8] version:u32 record*
//! record := len:u32 payload checksum:u64
//! ```
//!
//! Integers are little-endian; the checksum is FNV-1a (the constants of
//! [`Soc::fingerprint`](tamopt_soc::Soc::fingerprint)) over the payload.
//! The magic names the [`FileKind`]; the payload grammar belongs to the
//! kind and its version (`format.rs` for the store, [`crate::journal`]).
//! The decoder treats the bytes as untrusted: it never panics, a file
//! without a usable header starts fresh, and a torn or corrupt record
//! ends the scan with the whole records before it kept. Only a newer
//! version or the other kind's magic refuse to open, since rewriting
//! such a file would destroy it.

use crate::journal::{JOURNAL_MAGIC, JOURNAL_VERSION};
use crate::version::{CURRENT_VERSION, MAGIC};
use crate::StoreError;

/// Byte length of the file header: the 8-byte magic, then `version:u32`.
pub(crate) const HEADER_LEN: usize = 12;

/// The two kinds of file that share the envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// The warm-start store ([`crate::Store`]).
    Store,
    /// The write-ahead request journal ([`crate::Journal`]).
    Journal,
}

impl FileKind {
    /// The kind's magic, and the newest version this build reads (and
    /// the one it writes).
    fn magic_and_version(self) -> ([u8; 8], u32) {
        match self {
            FileKind::Store => (MAGIC, CURRENT_VERSION),
            FileKind::Journal => (JOURNAL_MAGIC, JOURNAL_VERSION),
        }
    }
}

impl std::fmt::Display for FileKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FileKind::Store => "store",
            FileKind::Journal => "journal",
        })
    }
}

/// FNV-1a 64-bit over `bytes` — the record checksum.
fn checksum(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// A bounds-checked cursor over untrusted bytes. Every accessor returns
/// `None` past the end instead of slicing out of range.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }
}

/// The header of a `kind` file declaring `version`.
pub(crate) fn header(kind: FileKind, version: u32) -> [u8; HEADER_LEN] {
    let mut out = [0; HEADER_LEN];
    out[..8].copy_from_slice(&kind.magic_and_version().0);
    out[8..].copy_from_slice(&version.to_le_bytes());
    out
}

/// Appends one record to `out`: `payload` writes its bytes straight
/// into `out`, and the length and checksum are sealed around them.
pub(crate) fn push_record(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    payload(out);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    let check = checksum(&out[start + 4..]);
    out.extend_from_slice(&check.to_le_bytes());
}

/// A whole `kind` image at `version`: the header, then one record per
/// item, its payload written by `payload`.
pub(crate) fn encode<T>(
    kind: FileKind,
    version: u32,
    records: impl IntoIterator<Item = T>,
    mut payload: impl FnMut(T, &mut Vec<u8>),
) -> Vec<u8> {
    let mut out = header(kind, version).to_vec();
    for record in records {
        push_record(&mut out, |out| payload(record, out));
    }
    out
}

/// What the envelope's lenient decoder recovered from an image.
#[derive(Debug)]
pub struct Decoded<T> {
    /// The version the header declares (the kind's current version when
    /// there is no usable header).
    pub version: u32,
    /// Recovered records, in file order.
    pub records: Vec<T>,
    /// Human-readable notes about anything dropped along the way.
    pub warnings: Vec<String>,
    /// Byte length of the valid prefix: `0` without a usable header,
    /// else the end of the last whole record.
    pub valid_len: usize,
}

/// Decodes a `kind` image leniently; `payload` decodes one checksummed
/// payload under the declared version, `None` meaning corrupt.
///
/// # Errors
///
/// [`StoreError::FutureVersion`] for a version newer than this build,
/// and [`StoreError::WrongKind`] for a file of the other kind.
pub(crate) fn decode<T>(
    kind: FileKind,
    bytes: &[u8],
    mut payload: impl FnMut(u32, &[u8]) -> Option<T>,
) -> Result<Decoded<T>, StoreError> {
    let (magic, current) = kind.magic_and_version();
    let other = match kind {
        FileKind::Store => FileKind::Journal,
        FileKind::Journal => FileKind::Store,
    };
    let mut reader = Reader::new(bytes);
    // `Err` is a file without a usable header, with its warning if any.
    let header = match (reader.take(8), reader.u32()) {
        // A missing journal reads as empty, so an empty journal is a
        // fresh one; the store tells a missing file apart, so an empty
        // store file is damage.
        _ if bytes.is_empty() => Err((kind == FileKind::Store).then(|| "file is empty".to_owned())),
        (Some(found), _) if found == other.magic_and_version().0 => {
            return Err(StoreError::WrongKind {
                expected: kind,
                found: other,
            })
        }
        (Some(found), version) if found == magic => match version {
            None => Err(Some("header is truncated".to_owned())),
            Some(0) => Err(Some("declares unknown version 0".to_owned())),
            Some(found) if found > current => {
                return Err(StoreError::FutureVersion {
                    found,
                    supported: current,
                })
            }
            Some(version) => Ok(version),
        },
        _ => {
            let name = String::from_utf8_lossy(&magic).replace('\0', "");
            Err(Some(format!("file has no {name} header")))
        }
    };
    let version = match header {
        Ok(version) => version,
        Err(warning) => {
            return Ok(Decoded {
                version: current,
                records: Vec::new(),
                warnings: Vec::from_iter(warning.map(|w| format!("{kind} {w}; starting fresh"))),
                valid_len: 0,
            })
        }
    };
    let mut decoded = Decoded {
        version,
        records: Vec::new(),
        warnings: Vec::new(),
        valid_len: HEADER_LEN,
    };
    while reader.remaining() > 0 {
        let record = (|| {
            let len = reader.u32()?;
            let bytes = reader.take(len as usize)?;
            let declared = reader.u64()?;
            if checksum(bytes) != declared {
                return None;
            }
            payload(version, bytes)
        })();
        let Some(record) = record else {
            let kept = decoded.records.len();
            decoded.warnings.push(format!(
                "{kind} record {kept} is torn or corrupt; keeping the {kept} record(s) \
                 before it and dropping the rest"
            ));
            break;
        };
        decoded.records.push(record);
        decoded.valid_len = bytes.len() - reader.remaining();
    }
    Ok(decoded)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A payload decoder that accepts any checksummed bytes.
    fn raw(_: u32, payload: &[u8]) -> Option<Vec<u8>> {
        Some(payload.to_vec())
    }

    /// Payloads of varied lengths, including an empty one.
    fn payloads() -> Vec<Vec<u8>> {
        vec![vec![7; 5], Vec::new(), (0..40).collect(), vec![1]]
    }

    fn current(kind: FileKind) -> u32 {
        kind.magic_and_version().1
    }

    fn other(kind: FileKind) -> FileKind {
        match kind {
            FileKind::Store => FileKind::Journal,
            FileKind::Journal => FileKind::Store,
        }
    }

    fn image(kind: FileKind) -> Vec<u8> {
        encode(kind, current(kind), payloads(), |p, out| {
            out.extend_from_slice(&p)
        })
    }

    #[test]
    fn whole_images_roundtrip_for_both_kinds() {
        for kind in [FileKind::Store, FileKind::Journal] {
            let bytes = image(kind);
            let decoded = decode(kind, &bytes, raw).unwrap();
            assert!(decoded.warnings.is_empty(), "{:?}", decoded.warnings);
            assert_eq!(decoded.version, current(kind));
            assert_eq!(decoded.records, payloads());
            assert_eq!(decoded.valid_len, bytes.len());
        }
    }

    #[test]
    fn every_cut_keeps_exactly_the_whole_records_before_it() {
        // Record `i` ends after its 4-byte length, payload and 8-byte
        // checksum.
        let mut ends = Vec::new();
        let mut end = HEADER_LEN;
        for payload in payloads() {
            end += 4 + payload.len() + 8;
            ends.push(end);
        }
        for kind in [FileKind::Store, FileKind::Journal] {
            let bytes = image(kind);
            assert_eq!(*ends.last().unwrap(), bytes.len());
            for cut in HEADER_LEN..=bytes.len() {
                let decoded = decode(kind, &bytes[..cut], raw).unwrap();
                let whole = ends.iter().filter(|&&end| end <= cut).count();
                assert_eq!(decoded.records, payloads()[..whole], "{kind} cut {cut}");
                let valid_len = if whole == 0 {
                    HEADER_LEN
                } else {
                    ends[whole - 1]
                };
                assert_eq!(decoded.valid_len, valid_len, "{kind} cut {cut}");
                let torn = usize::from(cut != valid_len);
                assert_eq!(decoded.warnings.len(), torn, "{kind} cut {cut}");
            }
            for cut in 1..HEADER_LEN {
                let decoded = decode(kind, &bytes[..cut], raw).unwrap();
                assert!(decoded.records.is_empty());
                assert_eq!(decoded.valid_len, 0);
                assert_eq!(decoded.warnings.len(), 1, "{kind} cut {cut}");
            }
        }
    }

    #[test]
    fn a_bad_checksum_or_payload_ends_the_scan() {
        let bytes = image(FileKind::Journal);
        // Flip a bit inside the first payload: nothing survives.
        let mut flipped = bytes.clone();
        flipped[HEADER_LEN + 4] ^= 0x10;
        let decoded = decode(FileKind::Journal, &flipped, raw).unwrap();
        assert!(decoded.records.is_empty());
        assert_eq!(decoded.valid_len, HEADER_LEN);
        assert_eq!(decoded.warnings.len(), 1);
        assert!(decoded.warnings[0].contains("torn or corrupt"));
        // A payload the kind rejects counts as corrupt too.
        let decoded = decode(FileKind::Journal, &bytes, |_, payload| {
            (!payload.is_empty()).then_some(())
        })
        .unwrap();
        assert_eq!(decoded.records.len(), 1);
        assert_eq!(decoded.valid_len, HEADER_LEN + 4 + 5 + 8);
        assert_eq!(decoded.warnings.len(), 1);
    }

    #[test]
    fn empty_files_warn_only_for_the_store() {
        let store = decode(FileKind::Store, b"", raw).unwrap();
        assert_eq!(store.warnings.len(), 1);
        let journal = decode(FileKind::Journal, b"", raw).unwrap();
        assert!(journal.warnings.is_empty());
        for decoded in [store, journal] {
            assert!(decoded.records.is_empty());
            assert_eq!(decoded.valid_len, 0);
        }
    }

    #[test]
    fn foreign_headers_and_version_zero_start_fresh() {
        for kind in [FileKind::Store, FileKind::Journal] {
            let zero = header(kind, 0);
            for bytes in [&b"not a tamopt file"[..], &zero[..7], &zero] {
                let decoded = decode(kind, bytes, raw).unwrap();
                assert!(decoded.records.is_empty());
                assert_eq!(decoded.version, current(kind));
                assert_eq!(decoded.valid_len, 0);
                assert_eq!(decoded.warnings.len(), 1, "{kind} {bytes:?}");
            }
        }
    }

    #[test]
    fn future_versions_and_the_other_kind_refuse_to_open() {
        for kind in [FileKind::Store, FileKind::Journal] {
            let future = header(kind, current(kind) + 1);
            assert!(matches!(
                decode(kind, &future, raw),
                Err(StoreError::FutureVersion { found, supported })
                    if found == supported + 1 && supported == current(kind)
            ));
            // The other kind's whole image, and its bare magic.
            let foreign = image(other(kind));
            for bytes in [&foreign[..], &foreign[..8]] {
                assert!(matches!(
                    decode(kind, bytes, raw),
                    Err(StoreError::WrongKind { expected, found })
                        if expected == kind && found == other(kind)
                ));
            }
        }
    }
}
