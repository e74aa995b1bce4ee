//! Constrained-device substrate: the environment the paper's algorithm
//! targets.
//!
//! * [`Device`] — fixed-capacity storage with no scratch space and a
//!   run-time write-before-read fault detector;
//! * [`Channel`] — deterministic bandwidth/latency model for
//!   transfer-time results;
//! * [`update`] — download-then-apply installation
//!   ([`update::install_update`]) with CRC verification, and
//!   [`stream`] — the checkpointed streaming install.
//!
//! The server side prepares a payload with
//! [`Engine::update`](ipr_pipeline::Engine::update); this crate holds
//! device-side code only.
//!
//! # Example
//!
//! ```
//! use ipr_device::{update, Channel, Device};
//! use ipr_pipeline::Engine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let v1 = vec![0u8; 2048];
//! let mut v2 = v1.clone(); v2[100] = 1;
//!
//! let upd = Engine::new().update(&v1, &v2)?;
//!
//! let mut dev = Device::new(2048);
//! dev.flash(&v1)?;
//! update::install_update(&mut dev, &upd.payload, Channel::dialup())?;
//! assert_eq!(dev.image(), &v2[..]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod device;

pub mod flash;
pub mod stream;
pub mod update;

pub use channel::{Channel, LossyChannel, TransferReport};
pub use device::{Device, DeviceError, UpdateSession, UpdateStats};
pub use stream::{
    stream_install, CheckpointError, InstallCheckpoint, StreamProgress, StreamReport,
};
