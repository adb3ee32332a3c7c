//! Single-writer exclusion for a store or journal path.
//!
//! Neither file has an intra-file concurrency story — the store's whole
//! image is rewritten on save, the journal is appended by one daemon —
//! so two processes opening the same path must be an explicit error,
//! not silent last-writer-wins corruption. A sidecar `<path>.lock` file
//! created with `create_new` (atomic on every platform Rust targets) is
//! the mutex: whoever creates it owns the file until the guard drops. A
//! crash leaves the lock file behind; [`break_lock`] removes a stale
//! one after the operator has confirmed no other process is alive.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::StoreError;

/// The sidecar lock path of a store path: `<path>.lock`.
pub(crate) fn lock_path(store: &Path) -> PathBuf {
    let mut name = store.as_os_str().to_owned();
    name.push(".lock");
    PathBuf::from(name)
}

/// Removes the stale `<path>.lock` a crashed [`crate::Store`] or
/// [`crate::Journal`] owner left behind. Returns whether a lock file
/// existed. **Only** call this after confirming no live process owns
/// the path.
///
/// # Errors
///
/// [`std::io::Error`] for filesystem failures other than the lock not
/// existing.
pub fn break_lock(path: impl AsRef<Path>) -> std::io::Result<bool> {
    match std::fs::remove_file(lock_path(path.as_ref())) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

/// Holds `<path>.lock` for the lifetime of an open [`crate::Store`] or
/// [`crate::Journal`]; dropping the guard removes the file.
#[derive(Debug)]
pub(crate) struct LockGuard {
    path: PathBuf,
}

impl LockGuard {
    /// Atomically creates the lock file, failing with
    /// [`StoreError::Locked`] if it already exists.
    pub(crate) fn acquire(store: &Path) -> Result<Self, StoreError> {
        let path = lock_path(store);
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut file) => {
                // The owner's pid, purely for the human deciding whether
                // a leftover lock is stale.
                let _ = writeln!(file, "{}", std::process::id());
                Ok(LockGuard { path })
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                Err(StoreError::Locked { path })
            }
            Err(e) => Err(StoreError::Io(e)),
        }
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}
