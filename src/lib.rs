//! Facade crate re-exporting the workspace: see the README below, which
//! doubles as this crate's documentation (its quickstart compiles as a
//! doctest).
#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]

pub use ipr_core as core;
pub use ipr_delta as delta;
pub use ipr_device as device;
pub use ipr_digraph as digraph;
pub use ipr_fuzz as fuzz;
pub use ipr_pipeline as pipeline;
pub use ipr_store as store;
pub use ipr_trace as trace;
pub use ipr_workloads as workloads;

mod error;

pub use error::{Error, Stage};
pub use ipr_pipeline::{Engine, EngineConfig, EngineError, InPlaceDelta};
