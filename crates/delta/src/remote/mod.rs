//! Remote differencing: block signatures, streaming delta generation
//! and content-defined chunking.
//!
//! Every differ in [`crate::diff`] needs both files in local memory —
//! fine on the build server, impossible in the fleet-update scenario
//! the paper targets, where the reference lives on the device and the
//! new version on a server. This module is the rsync-style answer
//! (docs/REMOTE.md is the full wire/protocol spec):
//!
//! 1. **Sign** — the reference holder splits its file into blocks
//!    ([`Chunking::Fixed`], [`Chunking::Auto`] sized to a signature
//!    byte budget, or content-defined [`Chunking::Cdc`]) and sends a
//!    [`Signature`]: per block, a weak 32-bit rolling checksum
//!    ([`weak_of`]) and a strong 128-bit hash ([`strong_of`]) — ~21
//!    bytes per block instead of the block itself.
//! 2. **Stream-diff** — [`generate_delta`] consumes the new version
//!    through any [`Read`](std::io::Read) against that signature and
//!    emits an ordinary [`DeltaScript`](crate::DeltaScript): resident
//!    memory is the signature plus one block-sized window, never either
//!    file. Weak hits are confirmed by the strong hash before a `copy`
//!    is emitted; everything else ships as coalesced literals.
//! 3. **Apply** — the script is write-ordered and exactly tiling, so
//!    it flows unchanged into scratch apply, in-place conversion
//!    (`convert_to_in_place`) and the engine/device stack.
//!
//! # Example
//!
//! ```
//! use ipr_delta::remote::{generate_delta, CdcParams, Chunking, Signature};
//!
//! // Pseudo-random content: Gear cuts need entropy to fire (on
//! // constant or short-period data every chunk hits `max` and CDC
//! // degenerates to fixed-size blocks, which do not resync).
//! let mut x = 0x2545_f491_4f6c_dd1du64;
//! let reference: Vec<u8> = (0..20_000)
//!     .map(|_| {
//!         x ^= x << 13;
//!         x ^= x >> 7;
//!         x ^= x << 17;
//!         (x >> 56) as u8
//!     })
//!     .collect();
//! let mut version = reference.clone();
//! version.splice(5_000..5_000, b"a small insertion".to_vec());
//!
//! // Device side: sign the reference (content-defined chunks).
//! let chunking = Chunking::Cdc(CdcParams { min: 64, avg: 256, max: 1024 });
//! let wire = Signature::build(&reference, chunking).unwrap().encode();
//!
//! // Server side: stream the new version against the signature.
//! let signature = Signature::decode(&wire).unwrap();
//! let script = generate_delta(&signature, &version[..]).unwrap();
//!
//! // The delta reconstructs the version; the insertion shifted every
//! // byte after it, yet only the edited chunk ships literally.
//! assert_eq!(ipr_delta::apply(&script, &reference).unwrap(), version);
//! assert!(script.added_bytes() < 2 * 1024);
//! ```
//!
//! Trace names (`remote.sign` / `remote.diff` spans, `remote.*`
//! counters) are part of the docs/OBSERVABILITY.md contract.

pub mod cdc;
mod generate;
pub mod scan;
mod signature;
mod strong;
mod weak;

pub use cdc::{cut_points, CdcParams, Chunker, GEAR};
pub use generate::{
    generate_delta, generate_delta_bytes, generate_delta_scalar, CrcReader, MatchTable,
};
pub use scan::{skip_misses, BatchSkip, WeakFilter};
pub use signature::{
    fixed_signature_wire_len, BlockSignature, Chunking, Layout, Signature, SignatureError,
    DEFAULT_BLOCK_LEN, DEFAULT_SIGNATURE_BUDGET, SIGNATURE_MAGIC,
};
pub use strong::strong_of;
pub use weak::{weak_of, RollingWeak};
