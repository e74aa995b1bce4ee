//! # ipr-store — a versioned, crash-safe delta object store
//!
//! The paper's delta algebra (diff and composition) makes a version
//! history cheap to *store*: keep one full image and a chain of deltas,
//! rebuild any version by applying the chain. This crate turns that
//! into a durable on-disk artifact:
//!
//! * **Content addressing** — every object (full version or encoded
//!   delta) is named by the 128-bit strong hash of its bytes
//!   ([`Oid`]), so identical content deduplicates and damage is
//!   detectable by rehashing.
//! * **Crash-safe transactions** — all mutations stage into temp files
//!   and become visible through one atomic rename of the CRC-sealed
//!   manifest, whose generation is the only record of what committed.
//!   A crash at *any* instruction leaves the previous or the next
//!   committed state, never a blend; the CI `store-smoke` job proves
//!   this by killing a child process at every fsync/rename boundary and
//!   checking the reopened store.
//! * **Bounded chains** — [`Store::compact`] collapses reconstruction
//!   chains deeper than the configured cap into single composed deltas
//!   ([`ipr_pipeline::Engine::compose`]), trading bytes for bounded
//!   read cost, with byte-identical reconstruction before and after.
//! * **fsck** — [`fsck`](fsck()) sweeps marker, manifest, staging area
//!   and every object, classifies findings as repairable crash debris
//!   vs. real corruption, optionally repairs the former, and finishes
//!   with a full reconstruction check of every version.
//!
//! ```
//! use ipr_store::Store;
//!
//! let dir = ipr_store::scratch_dir(&std::env::temp_dir(), "doc");
//! let mut store = Store::init(&dir, 8)?;
//! let v1 = store.put(b"the first version of a file", None)?;
//! let v2 = store.put(b"the second version of a file", None)?;
//! assert_eq!(store.get(v2.oid)?, b"the second version of a file");
//! assert_eq!(store.get(v1.oid)?, b"the first version of a file");
//!
//! let report = ipr_store::fsck(store.root(), false)?;
//! assert!(report.is_clean());
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The on-disk format, the crash-safety argument and a worked `fsck`
//! example are documented in `docs/STORE.md`.

#![forbid(unsafe_code)]

pub mod fault;
pub mod fsck;
pub mod manifest;
pub mod oid;
pub mod store;
#[doc(hidden)]
pub mod txn;

pub use fsck::{fsck, Finding, FsckReport, Severity};
pub use manifest::{Chain, EdgeRecord, Manifest, ObjectKind, ObjectRecord, VersionRecord};
pub use oid::{Oid, ParseOidError};
pub use store::{scratch_dir, CompactReport, PutOutcome, Store, DEFAULT_DEPTH_CAP, STORE_FORMAT};

use std::fmt;
use std::io;

/// Any failure of a store operation.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure (including injected faults).
    Io(io::Error),
    /// Committed state on disk is damaged.
    Corrupt(String),
    /// No version matches the given id or prefix.
    UnknownVersion(String),
    /// An id prefix matches more than one version.
    AmbiguousPrefix(String),
    /// Invalid store configuration (e.g. a zero depth cap).
    Config(String),
    /// A delta failed to encode.
    Encode(ipr_delta::codec::EncodeError),
    /// A stored delta failed to decode.
    Decode(ipr_delta::codec::DecodeError),
    /// The engine failed to compose a delta chain.
    Engine(ipr_pipeline::EngineError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o: {e}"),
            StoreError::Corrupt(m) => write!(f, "store corrupt: {m}"),
            StoreError::UnknownVersion(id) => write!(f, "no version matches `{id}`"),
            StoreError::AmbiguousPrefix(p) => write!(f, "prefix `{p}` is ambiguous"),
            StoreError::Config(m) => write!(f, "store config: {m}"),
            StoreError::Encode(e) => write!(f, "delta encode: {e}"),
            StoreError::Decode(e) => write!(f, "delta decode: {e}"),
            StoreError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Encode(e) => Some(e),
            StoreError::Decode(e) => Some(e),
            StoreError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<ipr_delta::codec::EncodeError> for StoreError {
    fn from(e: ipr_delta::codec::EncodeError) -> Self {
        StoreError::Encode(e)
    }
}

impl From<ipr_delta::codec::DecodeError> for StoreError {
    fn from(e: ipr_delta::codec::DecodeError) -> Self {
        StoreError::Decode(e)
    }
}

impl From<ipr_pipeline::EngineError> for StoreError {
    fn from(e: ipr_pipeline::EngineError) -> Self {
        StoreError::Engine(e)
    }
}
