//! The store's magic bytes and format versions — the values of the
//! header [`crate::envelope`] writes and checks.
//!
//! Every layout change bumps [`CURRENT_VERSION`] and adds a decoder to
//! [`crate::upgrade`] so files written by older binaries keep opening.
//! A file whose version is *newer* than this build refuses to open
//! ([`crate::StoreError::FutureVersion`]) instead of being silently
//! rewritten in the old layout — downgrading a store is a data-loss
//! decision the caller must make explicitly (delete the file).

/// The 8 magic bytes opening every store file.
pub const MAGIC: [u8; 8] = *b"tamstore";

/// Version 1: per-fingerprint incumbent lists only.
pub const VERSION_1: u32 = 1;

/// Version 2 (current): incumbents plus optional saturated
/// effective-width cost columns per fingerprint.
pub const VERSION_2: u32 = 2;

/// The version this build writes.
pub const CURRENT_VERSION: u32 = VERSION_2;
