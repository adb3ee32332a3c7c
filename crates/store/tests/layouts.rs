//! Pins the current on-disk layouts on **committed** files: a
//! version-2 store (`tests/fixtures/v2.tamstore`) and a version-1
//! request journal (`tests/fixtures/v1.tamjrnl`).
//!
//! Each fixture is checked both ways: it decodes to the expected
//! values, and the public writers re-encode those values byte for byte
//! (`Store::to_bytes`, and `Journal::append` into a fresh file). A
//! round-trip test alone cannot catch an encoder and a decoder that
//! drift together; a committed image can. The fixtures are never
//! regenerated by CI — a layout change must bump the version instead.

use std::path::PathBuf;

use tamopt_store::journal::decode;
use tamopt_store::version::CURRENT_VERSION;
use tamopt_store::{
    CostColumns, Incumbent, Journal, JournalRecord, Store, StoreConfig, StoredEntry, SyncPolicy,
};
use tamopt_wrapper::TimeTable;

const D695: u64 = 0xf8a2_5b3d_a5f4_46ee;
const P93791: u64 = 0x57de_ea81_47b0_1db4;

fn store_fixture() -> &'static [u8] {
    include_bytes!("fixtures/v2.tamstore")
}

fn journal_fixture() -> &'static [u8] {
    include_bytes!("fixtures/v1.tamjrnl")
}

/// The fixture's two entries, least recently used first (file order).
fn store_entries() -> Vec<(u64, StoredEntry)> {
    vec![
        (
            D695,
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
                columns: Some(CostColumns::from_table(&TimeTable::from_matrix(vec![
                    vec![900, 700, 700, 400],
                    vec![500, 500, 300, 300],
                ]))),
            },
        ),
        (
            P93791,
            StoredEntry {
                incumbents: vec![Incumbent {
                    width: 64,
                    tams: 6,
                    time: 1_786_200,
                }],
                columns: None,
            },
        ),
    ]
}

fn journal_records() -> Vec<JournalRecord> {
    vec![
        JournalRecord::Submit {
            id: 0,
            client: Some(3),
            shard: Some(1),
            line: "p31108 24 4 kind=topk:3".to_owned(),
        },
        JournalRecord::Submit {
            id: 1,
            client: None,
            shard: None,
            line: "d695 32 6 priority=2".to_owned(),
        },
        JournalRecord::Cancel { id: 1 },
        JournalRecord::Sealed { id: 0 },
    ]
}

#[test]
fn committed_v2_store_decodes_to_the_expected_entries() {
    let store = Store::from_bytes(store_fixture(), StoreConfig::default()).unwrap();
    assert!(store.warnings().is_empty(), "{:?}", store.warnings());
    assert!(!store.is_dirty(), "a current-version image loads clean");
    let decoded: Vec<(u64, StoredEntry)> = store.iter().map(|(f, e)| (f, e.clone())).collect();
    assert_eq!(decoded, store_entries());
    assert_eq!(CURRENT_VERSION, 2, "the fixture pins version 2");
}

#[test]
fn committed_v2_store_reencodes_byte_for_byte() {
    let mut store = Store::in_memory(StoreConfig::default());
    for (fingerprint, entry) in store_entries() {
        store.adopt(fingerprint, entry);
    }
    assert_eq!(store.to_bytes(), store_fixture());
}

#[test]
fn committed_v1_journal_decodes_to_the_expected_records() {
    let decoded = decode(journal_fixture()).unwrap();
    assert!(decoded.warnings.is_empty(), "{:?}", decoded.warnings);
    assert_eq!(decoded.records, journal_records());
    assert_eq!(decoded.valid_len, journal_fixture().len());
}

#[test]
fn committed_v1_journal_reappends_byte_for_byte() {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "tamopt_layouts_test_{}.tamjrnl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut journal = Journal::open(&path, SyncPolicy::Never).unwrap().journal;
    for record in journal_records() {
        journal.append(&record).unwrap();
    }
    drop(journal);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(bytes, journal_fixture());
}
