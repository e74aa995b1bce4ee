//! The facade's unified error type: one enum wrapping every per-module
//! error of the workspace, tagged with pipeline-stage provenance.

use ipr_core::{ConvertError, InPlaceApplyError};
use ipr_delta::codec::{DecodeError, EncodeError};
use ipr_delta::{ApplyError, ComposeError, ScriptError};
use ipr_pipeline::EngineError;
use std::fmt;

/// The pipeline stage an [`Error`] originated from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Stage {
    /// Script construction / invariant validation.
    Validation,
    /// Serializing a script to wire bytes.
    Encoding,
    /// Parsing wire bytes back into a script.
    Decoding,
    /// Composing consecutive deltas.
    Composition,
    /// In-place conversion (CRWI build, cycle-breaking sort, emission).
    Conversion,
    /// Applying a script (scratch-space or in place), including the
    /// Equation 2 check that guards in-place application.
    Application,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Validation => "validation",
            Stage::Encoding => "encoding",
            Stage::Decoding => "decoding",
            Stage::Composition => "composition",
            Stage::Conversion => "conversion",
            Stage::Application => "application",
        })
    }
}

/// Unified error over the whole workspace: wraps each module's error enum
/// so callers driving the full pipeline match a single type. The wrapped
/// error stays reachable through [`std::error::Error::source`], so
/// existing `source()` chains (e.g. `ConvertError` →
/// `ComponentTooLarge`) are preserved, one level deeper.
///
/// ```
/// use ipr::{Error, Stage};
/// use ipr::delta::{Command, DeltaScript};
///
/// let err: Error = DeltaScript::new(4, 8, vec![Command::copy(0, 0, 4)])
///     .unwrap_err()
///     .into();
/// assert_eq!(err.stage(), Stage::Validation);
/// assert!(err.to_string().contains("validation"));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Script invariants violated ([`ScriptError`]).
    Script(ScriptError),
    /// Scratch-space application failed ([`ApplyError`]).
    Apply(ApplyError),
    /// Encoding failed ([`EncodeError`]).
    Encode(EncodeError),
    /// Decoding failed ([`DecodeError`]).
    Decode(DecodeError),
    /// Delta composition failed ([`ComposeError`]).
    Compose(ComposeError),
    /// In-place conversion failed ([`ConvertError`]).
    Convert(ConvertError),
    /// Serial in-place application failed ([`InPlaceApplyError`]).
    InPlaceApply(InPlaceApplyError),
    /// An [`Engine`](ipr_pipeline::Engine) entry point failed
    /// ([`EngineError`]).
    Engine(EngineError),
}

impl Error {
    /// The pipeline stage this error came from. [`Error::Engine`] reports
    /// the stage of the wrapped failure, not a separate "engine" stage.
    #[must_use]
    pub fn stage(&self) -> Stage {
        match self {
            Error::Script(_) => Stage::Validation,
            Error::Encode(_) => Stage::Encoding,
            Error::Decode(_) => Stage::Decoding,
            Error::Compose(_) => Stage::Composition,
            Error::Convert(_) => Stage::Conversion,
            Error::Apply(_) | Error::InPlaceApply(_) => Stage::Application,
            Error::Engine(e) => match e {
                EngineError::Convert(_) => Stage::Conversion,
                EngineError::Encode(_) => Stage::Encoding,
                EngineError::Compose(_) => Stage::Composition,
                EngineError::Apply(_) | EngineError::Unsafe(_) => Stage::Application,
            },
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stage = self.stage();
        match self {
            Error::Script(e) => write!(f, "{stage} failed: {e}"),
            Error::Apply(e) => write!(f, "{stage} failed: {e}"),
            Error::Encode(e) => write!(f, "{stage} failed: {e}"),
            Error::Decode(e) => write!(f, "{stage} failed: {e}"),
            Error::Compose(e) => write!(f, "{stage} failed: {e}"),
            Error::Convert(e) => write!(f, "{stage} failed: {e}"),
            Error::InPlaceApply(e) => write!(f, "{stage} failed: {e}"),
            Error::Engine(e) => write!(f, "{stage} failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Script(e) => Some(e),
            Error::Apply(e) => Some(e),
            Error::Encode(e) => Some(e),
            Error::Decode(e) => Some(e),
            Error::Compose(e) => Some(e),
            Error::Convert(e) => Some(e),
            Error::InPlaceApply(e) => Some(e),
            Error::Engine(e) => Some(e),
        }
    }
}

macro_rules! impl_from {
    ($($variant:ident($ty:ty)),* $(,)?) => {
        $(impl From<$ty> for Error {
            fn from(e: $ty) -> Self {
                Error::$variant(e)
            }
        })*
    };
}

impl_from!(
    Script(ScriptError),
    Apply(ApplyError),
    Encode(EncodeError),
    Decode(DecodeError),
    Compose(ComposeError),
    Convert(ConvertError),
    InPlaceApply(InPlaceApplyError),
    Engine(EngineError),
);
