//! The reusable pipeline session layer: one [`Engine`] owning every
//! scratch arena of the diff → convert → apply pipeline.
//!
//! The lower crates expose each stage as a free function plus an optional
//! scratch-based core
//! ([`IndexedDiffer::diff_with`](ipr_delta::diff::IndexedDiffer::diff_with),
//! [`convert_in_place_pooled`](ipr_core::convert_in_place_pooled),
//! [`check_in_place_safe_with`](ipr_core::check_in_place_safe_with)
//! ahead of the serial [`apply_in_place`](ipr_core::apply_in_place)). The
//! engine composes those cores around long-lived storage — the
//! [`DiffScratch`](ipr_delta::diff::DiffScratch) arena with its
//! [`ScriptPool`](ipr_delta::ScriptPool), the CRWI/toposort buffers of
//! [`ConvertScratch`](ipr_core::ConvertScratch), the sorted write
//! intervals of the Equation 2 check — so a server preparing many
//! updates (or a patch tool applying a chain of them) touches the
//! allocator only while the arenas warm up, and not at all in steady
//! state.
//!
//! The diff's reference index outlives the call too. The engine keeps a
//! copy of the reference it indexed, and a diff whose reference bytes
//! equal that copy, checked exactly (length, then every byte), scans
//! the index already built instead of building it again: a server
//! fanning releases out from one fielded image indexes it once (see
//! [`Engine`'s index reuse](Engine#index-reuse)). What an engine
//! retains in steady state is the index of its longest reference,
//! about 3.4 B per reference byte for the default differ at p = 8,
//! build scratch included, plus the copy at 1 B per byte, plus the
//! pooled script storage and conversion buffers of its largest delta.
//!
//! Stage outputs are byte-identical to the legacy free-function pipeline:
//! the free functions *are* thin wrappers over the same cores with
//! throwaway scratch (validated continuously by the `engine` fuzz
//! oracle).
//!
//! ```
//! use ipr_pipeline::Engine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let v1: Vec<u8> = (0..=255).cycle().take(8192).collect();
//! let mut v2 = v1.clone();
//! v2.rotate_left(1024);
//!
//! let mut engine = Engine::new();
//! let delta = engine.update(&v1, &v2)?; // diff + convert + encode
//!
//! let mut buf = v1.clone(); // the device's only storage
//! engine.apply_in_place(&delta.script, &mut buf)?;
//! assert_eq!(buf, v2);
//! engine.recycle(delta); // storage feeds the next update
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod stream;

pub use engine::{Engine, EngineConfig, InPlaceDelta};
pub use error::EngineError;
pub use stream::DeltaStream;
