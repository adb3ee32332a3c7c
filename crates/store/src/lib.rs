//! # tamopt_store — crash-safe persistent warm-start store
//!
//! The on-disk tier behind the service layer's in-memory warm cache:
//! a versioned, checksummed file mapping
//! [`Soc::fingerprint`](tamopt_soc::Soc::fingerprint) to everything a
//! later run can reuse — the recorded incumbents (every top-K entry and
//! swept frontier width, each a `(width, tams, time)` triple) and the
//! saturated effective-width cost columns of the SOC's
//! [`TimeTable`](tamopt_wrapper::TimeTable) (see [`CostColumns`]).
//!
//! Design points, in the order they matter:
//!
//! - **Crash safety.** [`Store::save`] writes the whole image to
//!   `<path>.tmp`, fsyncs, then renames over the store path — a crash
//!   at any instant leaves either the old file or the new one, never a
//!   torn hybrid. A leftover `.tmp` is simply ignored on open.
//! - **Corruption detection.** The store and the request [`journal`]
//!   share one file envelope ([`envelope`]): a magic and version
//!   header, then length-prefixed, FNV-1a-checksummed records, decoded
//!   by one lenient loop. Truncated or garbage files open as empty (or
//!   as the longest valid prefix) with [`Store::warnings`] explaining
//!   what was dropped — never a panic, whatever the bytes
//!   (fuzz-enforced). A journal opened as a store refuses to open
//!   ([`StoreError::WrongKind`]) and is left untouched.
//! - **Versioning.** An explicit header version
//!   ([`version::CURRENT_VERSION`]); old payload layouts decode through
//!   [`upgrade`], a *newer* layout refuses to open
//!   ([`StoreError::FutureVersion`]) so an old binary cannot silently
//!   rewrite — and downgrade — a new store.
//! - **Bounded size.** LRU-by-fingerprint eviction with a configurable
//!   entry cap ([`StoreConfig::max_entries`]); the file is written
//!   oldest-first so a reload under a smaller cap keeps the most
//!   recently used entries.
//! - **Single writer.** A sidecar `<path>.lock` makes a concurrent
//!   open of the same path an explicit [`StoreError::Locked`], not
//!   last-writer-wins corruption; [`break_lock`] removes one a crashed
//!   owner left behind.
//!
//! Warm data is purely work-saving: a seed changes how much of the
//! search is pruned, never which architecture wins, and the expanded
//! cost columns are bit-identical to a freshly built table — so a store
//! hit preserves the service layer's determinism contract (identical
//! winners and `PruneStats`-visible results, strictly fewer completed
//! evaluations).

#![warn(missing_docs)]

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

mod columns;
pub mod envelope;
mod format;
pub mod journal;
mod lock;
pub mod upgrade;
pub mod version;

pub use columns::CostColumns;
use envelope::FileKind;
pub use journal::{Journal, JournalRecord, OpenedJournal, RecoveredRequest, SyncPolicy};
pub use lock::break_lock;

/// One recorded incumbent: an architecture's testing time achieved at a
/// width with a TAM count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Incumbent {
    /// Total TAM width of the architecture.
    pub width: u32,
    /// Number of TAMs.
    pub tams: u32,
    /// SOC testing time (cycles).
    pub time: u64,
}

/// Everything the store knows about one SOC fingerprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoredEntry {
    /// Recorded incumbents, deduplicated by `(width, tams)` keeping the
    /// best time.
    pub incumbents: Vec<Incumbent>,
    /// The SOC's compressed cost table, when one has been recorded.
    pub columns: Option<CostColumns>,
}

/// Configuration of a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Maximum number of fingerprints kept; the least recently used is
    /// evicted first. `0` means unbounded.
    pub max_entries: usize,
    /// Whether [`Store::save`] fsyncs before the rename.
    /// [`SyncPolicy::Never`] skips the device barrier (the rename is
    /// still atomic, but a power loss can roll the file back); any
    /// other policy syncs — a whole-image save has no append interval
    /// to batch over.
    pub sync: SyncPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_entries: 1024,
            sync: SyncPolicy::Always,
        }
    }
}

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (reading, writing or renaming).
    Io(std::io::Error),
    /// Another process (or another handle in this one) holds the
    /// store's lock file.
    Locked {
        /// The lock file that already exists.
        path: PathBuf,
    },
    /// The file was written by a newer build; refusing to open it
    /// protects it from being rewritten in this build's older layout.
    FutureVersion {
        /// Version the file declares.
        found: u32,
        /// Newest version this build understands.
        supported: u32,
    },
    /// The file carries the other kind's magic (a journal opened as a
    /// store, or a store opened as a journal); refusing to open it
    /// protects it from being overwritten.
    WrongKind {
        /// The kind the caller asked to open.
        expected: FileKind,
        /// The kind the file's header declares.
        found: FileKind,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Locked { path } => write!(
                f,
                "store is locked by another process (lock file {}; remove it only if \
                 that process is gone)",
                path.display()
            ),
            StoreError::FutureVersion { found, supported } => write!(
                f,
                "store format version {found} is newer than this build supports \
                 (max {supported}); refusing to rewrite it"
            ),
            StoreError::WrongKind { expected, found } => write!(
                f,
                "the file is a tamopt {found}, not a {expected}; refusing to overwrite it"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// A store handle shared between a queue's dispatcher thread, which
/// records into it and snapshots it, and the caller that opened it. The
/// mutex is a leaf lock: holders only read or mutate the in-memory map
/// (or save it), never take another lock.
pub type SharedStore = Arc<Mutex<Store>>;

#[derive(Debug)]
struct Slot {
    entry: StoredEntry,
    /// Logical recency stamp (monotone per store; larger = more recent).
    last_used: u64,
}

/// The persistent warm-start store. See the crate docs for the design.
#[derive(Debug)]
pub struct Store {
    /// `None` for an in-memory store ([`Store::in_memory`] /
    /// [`Store::from_bytes`]); such a store's [`save`](Store::save) is
    /// a no-op.
    path: Option<PathBuf>,
    config: StoreConfig,
    slots: HashMap<u64, Slot>,
    clock: u64,
    warnings: Vec<String>,
    dirty: bool,
    /// Held for the lifetime of a path-backed store; dropping the store
    /// releases `<path>.lock`.
    _lock: Option<lock::LockGuard>,
}

impl Store {
    /// Opens (or creates) the store at `path`, acquiring its lock
    /// first. A missing file is an empty store; a corrupt one opens
    /// with whatever prefix survived and [`warnings`](Store::warnings)
    /// describing the rest.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when another handle holds the path,
    /// [`StoreError::FutureVersion`] for a file from a newer build,
    /// [`StoreError::WrongKind`] for a journal file, or
    /// [`StoreError::Io`] for filesystem failures other than the file
    /// not existing yet.
    pub fn open(path: impl Into<PathBuf>, config: StoreConfig) -> Result<Self, StoreError> {
        let path = path.into();
        let guard = lock::LockGuard::acquire(&path)?;
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(StoreError::Io(e)),
        };
        let mut store = match bytes {
            Some(bytes) => Self::from_bytes(&bytes, config)?,
            None => Self::in_memory(config),
        };
        store.path = Some(path);
        store._lock = Some(guard);
        Ok(store)
    }

    /// An empty in-memory store (no path, no lock; `save` is a no-op).
    pub fn in_memory(config: StoreConfig) -> Self {
        Store {
            path: None,
            config,
            slots: HashMap::new(),
            clock: 0,
            warnings: Vec::new(),
            dirty: false,
            _lock: None,
        }
    }

    /// Decodes a store image from bytes into an in-memory store — the
    /// unit-testable (and fuzzable) core of [`open`](Store::open).
    ///
    /// # Errors
    ///
    /// [`StoreError::FutureVersion`] or [`StoreError::WrongKind`] only;
    /// corruption degrades to warnings.
    pub fn from_bytes(bytes: &[u8], config: StoreConfig) -> Result<Self, StoreError> {
        let decoded = format::decode(bytes)?;
        let mut store = Self::in_memory(config);
        store.warnings = decoded.warnings;
        // File order is LRU order: adopting in order reassigns recency
        // stamps consistently, and the cap evicts the oldest head when
        // the file was written under a larger cap.
        for (fingerprint, entry) in decoded.records {
            store.adopt(fingerprint, entry);
        }
        // A rewrite is owed when the layout is old or anything was
        // dropped — the next save restores a clean current-version file.
        store.dirty = decoded.version != version::CURRENT_VERSION || !store.warnings.is_empty();
        Ok(store)
    }

    /// Encodes the current contents as a complete store image —
    /// exactly what [`save`](Store::save) writes. Entries are ordered
    /// least-recently-used first.
    pub fn to_bytes(&self) -> Vec<u8> {
        envelope::encode(
            FileKind::Store,
            version::CURRENT_VERSION,
            self.iter(),
            |(fingerprint, entry), out| format::encode_payload(fingerprint, entry, out),
        )
    }

    /// Fingerprints and slots ordered by recency, oldest first —
    /// the deterministic iteration order of the store.
    fn ordered_slots(&self) -> Vec<(u64, &Slot)> {
        let mut slots: Vec<(u64, &Slot)> = self
            .slots
            .iter()
            .map(|(fingerprint, slot)| (*fingerprint, slot))
            .collect();
        slots.sort_by_key(|(_, slot)| slot.last_used);
        slots
    }

    fn touch(&mut self, fingerprint: u64) {
        if let Some(slot) = self.slots.get_mut(&fingerprint) {
            self.clock += 1;
            slot.last_used = self.clock;
        }
    }

    fn slot_mut(&mut self, fingerprint: u64) -> &mut StoredEntry {
        self.clock += 1;
        let clock = self.clock;
        let slot = self.slots.entry(fingerprint).or_insert_with(|| Slot {
            entry: StoredEntry::default(),
            last_used: clock,
        });
        slot.last_used = clock;
        &mut slot.entry
    }

    fn evict_over_cap(&mut self) {
        let cap = self.config.max_entries;
        if cap == 0 {
            return;
        }
        while self.slots.len() > cap {
            // Recency stamps are unique (monotone clock), so the victim
            // is unambiguous; the fingerprint tie-break is pure defense.
            let victim = self
                .slots
                .iter()
                .map(|(fingerprint, slot)| (slot.last_used, *fingerprint))
                .min()
                .expect("len > cap >= 1")
                .1;
            self.slots.remove(&victim);
            self.dirty = true;
        }
    }

    /// Records an incumbent for `fingerprint`, deduplicating by
    /// `(width, tams)` and keeping the better time. Touches the entry's
    /// recency and evicts over the cap.
    pub fn record_incumbent(&mut self, fingerprint: u64, width: u32, tams: u32, time: u64) {
        let entry = self.slot_mut(fingerprint);
        match entry
            .incumbents
            .iter_mut()
            .find(|i| i.width == width && i.tams == tams)
        {
            Some(existing) => {
                if time < existing.time {
                    existing.time = time;
                    self.dirty = true;
                }
            }
            None => {
                entry.incumbents.push(Incumbent { width, tams, time });
                self.dirty = true;
            }
        }
        self.evict_over_cap();
    }

    /// Records the compressed cost table for `fingerprint`, keeping the
    /// wider of the existing and the new staircase.
    pub fn record_columns(&mut self, fingerprint: u64, columns: CostColumns) {
        let entry = self.slot_mut(fingerprint);
        let wider = entry
            .columns
            .as_ref()
            .is_none_or(|existing| columns.max_width() > existing.max_width());
        if wider {
            entry.columns = Some(columns);
            self.dirty = true;
        }
        self.evict_over_cap();
    }

    /// The entry for `fingerprint`, touching its recency.
    pub fn get(&mut self, fingerprint: u64) -> Option<&StoredEntry> {
        self.touch(fingerprint);
        self.slots.get(&fingerprint).map(|slot| &slot.entry)
    }

    /// The entry for `fingerprint` without touching recency.
    pub fn peek(&self, fingerprint: u64) -> Option<&StoredEntry> {
        self.slots.get(&fingerprint).map(|slot| &slot.entry)
    }

    /// All entries, least recently used first, recency untouched.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &StoredEntry)> {
        self.ordered_slots()
            .into_iter()
            .map(|(fingerprint, slot)| (fingerprint, &slot.entry))
    }

    /// Number of fingerprints stored.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Warnings accumulated while opening (corruption recovered from,
    /// layouts upgraded). Empty for a clean open.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Whether the in-memory state has diverged from the file since the
    /// last [`save`](Store::save) — the snapshot guard of the service
    /// layer's generation-barrier persistence.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// The backing path, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Atomically persists the current contents: write `<path>.tmp`,
    /// fsync, rename over `path`. A no-op for in-memory stores.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when writing or renaming fails; the previous
    /// file is untouched in that case.
    pub fn save(&mut self) -> Result<(), StoreError> {
        let Some(path) = self.path.clone() else {
            return Ok(());
        };
        let bytes = self.to_bytes();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            use std::io::Write as _;
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            if self.config.sync != SyncPolicy::Never {
                file.sync_all()?;
            }
        }
        std::fs::rename(&tmp, &path)?;
        self.dirty = false;
        Ok(())
    }

    /// Merges `entry` under `fingerprint` through the normal recording
    /// paths (dedup, recency, cap) — the bulk-load primitive used when
    /// adopting a decoded file or another store's contents.
    pub fn adopt(&mut self, fingerprint: u64, entry: StoredEntry) {
        for incumbent in entry.incumbents {
            self.record_incumbent(fingerprint, incumbent.width, incumbent.tams, incumbent.time);
        }
        if let Some(columns) = entry.columns {
            self.record_columns(fingerprint, columns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_eviction_drops_the_oldest() {
        let mut store = Store::in_memory(StoreConfig {
            max_entries: 2,
            ..StoreConfig::default()
        });
        store.record_incumbent(1, 8, 1, 100);
        store.record_incumbent(2, 8, 1, 200);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(store.get(1).is_some());
        store.record_incumbent(3, 8, 1, 300);
        assert_eq!(store.len(), 2);
        assert!(store.peek(1).is_some());
        assert!(store.peek(2).is_none(), "LRU entry must be evicted");
        assert!(store.peek(3).is_some());
    }

    #[test]
    fn incumbents_dedup_keeping_the_best() {
        let mut store = Store::in_memory(StoreConfig::default());
        store.record_incumbent(7, 16, 2, 500);
        store.record_incumbent(7, 16, 2, 400);
        store.record_incumbent(7, 16, 2, 450);
        let entry = store.peek(7).unwrap();
        assert_eq!(entry.incumbents.len(), 1);
        assert_eq!(entry.incumbents[0].time, 400);
    }

    #[test]
    fn bytes_roundtrip_preserves_lru_order() {
        let mut store = Store::in_memory(StoreConfig::default());
        store.record_incumbent(10, 8, 1, 1);
        store.record_incumbent(20, 8, 1, 2);
        assert!(store.get(10).is_some()); // 20 is now oldest
        let bytes = store.to_bytes();
        // Reload under a cap of 1: only the most recent (10) survives.
        let reloaded = Store::from_bytes(
            &bytes,
            StoreConfig {
                max_entries: 1,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        assert_eq!(reloaded.len(), 1);
        assert!(reloaded.peek(10).is_some());
    }

    #[test]
    fn in_memory_save_is_a_noop() {
        let mut store = Store::in_memory(StoreConfig::default());
        store.record_incumbent(1, 8, 1, 1);
        assert!(store.is_dirty());
        store.save().unwrap();
        assert!(store.path().is_none());
    }

    #[test]
    fn columns_keep_the_wider_staircase() {
        let mut store = Store::in_memory(StoreConfig::default());
        let narrow =
            CostColumns::from_table(&tamopt_wrapper::TimeTable::from_matrix(vec![vec![9, 5]]));
        let wide = CostColumns::from_table(&tamopt_wrapper::TimeTable::from_matrix(vec![vec![
            9, 5, 5, 4,
        ]]));
        store.record_columns(1, wide.clone());
        store.record_columns(1, narrow);
        assert_eq!(store.peek(1).unwrap().columns.as_ref(), Some(&wide));
    }
}
