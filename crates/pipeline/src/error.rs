//! The engine's single error type.

use ipr_core::{ConvertError, InPlaceApplyError, WrViolation};
use ipr_delta::codec::EncodeError;
use ipr_delta::ComposeError;
use std::fmt;

/// Any failure of an [`Engine`](crate::Engine) entry point, tagged with
/// the stage that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// In-place conversion failed.
    Convert(ConvertError),
    /// Encoding the converted script failed.
    Encode(EncodeError),
    /// A delta chain was not consecutive.
    Compose(ComposeError),
    /// In-place application failed.
    Apply(InPlaceApplyError),
    /// The script violates Equation 2 (some command reads bytes an
    /// earlier command wrote), so applying it in place would corrupt the
    /// buffer; nothing was written. Convert it first.
    Unsafe(WrViolation),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Convert(e) => write!(f, "conversion failed: {e}"),
            EngineError::Encode(e) => write!(f, "encoding failed: {e}"),
            EngineError::Compose(e) => write!(f, "composition failed: {e}"),
            EngineError::Apply(e) => write!(f, "application failed: {e}"),
            EngineError::Unsafe(v) => write!(
                f,
                "script violates Equation 2 ({v}); convert before applying in place"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Convert(e) => Some(e),
            EngineError::Encode(e) => Some(e),
            EngineError::Compose(e) => Some(e),
            EngineError::Apply(e) => Some(e),
            EngineError::Unsafe(v) => Some(v),
        }
    }
}

impl From<ConvertError> for EngineError {
    fn from(e: ConvertError) -> Self {
        EngineError::Convert(e)
    }
}

impl From<EncodeError> for EngineError {
    fn from(e: EncodeError) -> Self {
        EngineError::Encode(e)
    }
}

impl From<ComposeError> for EngineError {
    fn from(e: ComposeError) -> Self {
        EngineError::Compose(e)
    }
}

impl From<InPlaceApplyError> for EngineError {
    fn from(e: InPlaceApplyError) -> Self {
        EngineError::Apply(e)
    }
}
