//! Delta-compression substrate for in-place reconstruction.
//!
//! This crate implements everything the Burns & Long PODC '98 paper assumes
//! from the delta-compression literature: the copy/add command model (§3),
//! differencing engines that produce delta scripts, codeword codecs in both
//! the offset-free and explicit-write-offset encodings the paper compares,
//! and scratch-space reconstruction.
//!
//! The in-place conversion algorithm itself lives in the `ipr-core` crate;
//! it consumes and produces this crate's [`DeltaScript`].
//!
//! # Example
//!
//! ```
//! use ipr_delta::diff::{Differ, GreedyDiffer};
//! use ipr_delta::codec::{decode, encode_checked, Format};
//! use ipr_delta::apply_verified;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let reference = b"In the beginning there was a reference file.".to_vec();
//! let version = b"In the end there was a version file.".to_vec();
//!
//! let script = GreedyDiffer::new(4).diff(&reference, &version);
//! let wire = encode_checked(&script, Format::Ordered, &version)?;
//!
//! let decoded = decode(&wire)?;
//! let rebuilt = apply_verified(&decoded.script, &reference, decoded.target_crc.unwrap())?;
//! assert_eq!(rebuilt, version);
//! # Ok(())
//! # }
//! ```

// Denied rather than forbidden: `checksum`'s call into the CRC-32 fold,
// after run-time feature detection, is the one exemption.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod apply;
mod command;
mod compose;
mod pool;
mod script;

pub mod checksum;
pub mod codec;
pub mod diff;
pub mod remote;
pub mod stats;
pub mod varint;

pub use apply::{apply, apply_verified, ApplyError};
pub use command::{Add, Command, Copy};
pub use compose::{compose, compose_chain, ComposeError};
pub use pool::ScriptPool;
pub use script::{DeltaScript, ScriptError};
