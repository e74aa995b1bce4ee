//! In-place reconstruction of delta compressed files — the primary
//! contribution of Burns & Long, PODC 1998.
//!
//! A delta file normally needs scratch space to apply: its copy commands
//! read the reference file while the version file materializes elsewhere.
//! This crate post-processes a delta so it can rebuild the new version *in
//! the storage the old version occupies*:
//!
//! * [`CrwiGraph`] encodes potential write-before-read conflicts between
//!   copy commands as a digraph (§4.2);
//! * [`sort_breaking_cycles`] topologically sorts it, deleting vertices
//!   per a [`CyclePolicy`] when cycles block progress (§4.2, §5);
//! * [`convert_to_in_place`] runs the full algorithm: reorder copies,
//!   convert deleted copies to adds, move adds last (§4);
//! * [`apply_in_place`] / [`apply_in_place_buffered`] rebuild the version
//!   serially in a single buffer (§4.1's directional overlapped copies);
//! * [`check_in_place_safe`] verifies the paper's Equation 2, and
//!   [`check_in_place_safe_with`] gives the same verdict through a
//!   reusable buffer, for callers that check every script they apply.
//!
//! # Example
//!
//! ```
//! use ipr_delta::diff::{Differ, GreedyDiffer};
//! use ipr_core::{apply_in_place, convert_to_in_place, ConversionConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let reference: Vec<u8> = (0..=255).cycle().take(8192).collect();
//! let mut version = reference.clone();
//! version.rotate_left(1024); // a block move: creates conflicts
//!
//! let script = GreedyDiffer::default().diff(&reference, &version);
//! let outcome = convert_to_in_place(&script, &reference, &ConversionConfig::default())?;
//!
//! let mut buf = reference.clone(); // the device's only storage
//! apply_in_place(&outcome.script, &mut buf)?;
//! assert_eq!(buf, version);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod apply;
mod convert;
mod crwi;
mod policy;
mod toposort;
mod verify;

pub mod resumable;
pub mod spill;

pub use analysis::CrwiStats;
pub use apply::{apply_in_place, apply_in_place_buffered, required_capacity, InPlaceApplyError};
pub use convert::{
    convert_in_place_pooled, convert_to_in_place, ConversionConfig, ConversionReport, ConvertError,
    ConvertScratch, InPlaceOutcome,
};
pub use crwi::CrwiGraph;
pub use ipr_digraph::{Interval, IntervalSet};
pub use policy::CyclePolicy;
pub use toposort::{
    is_valid_outcome, sort_breaking_cycles, sort_breaking_cycles_into, SortOutcome, SortScratch,
    SortStats,
};
pub use verify::{
    check_in_place_safe, check_in_place_safe_with, count_wr_conflicts, is_in_place_safe,
    list_wr_conflicts, Conflict, WrViolation,
};
