//! Error type for property compilation.

use std::error::Error;
use std::fmt;

/// Failure while compiling an assertion into a monitor.
///
/// In the evaluation flow these map to the tool's *elaboration failure*
/// verdict (the paper scores them as syntax failures): referencing an
/// unknown signal, exceeding engine limits, or using a construct outside
/// the supported subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The assertion references a signal that does not exist in the
    /// testbench/design scope.
    UnknownSignal(String),
    /// A construct outside the supported subset.
    Unsupported(String),
    /// The property requires a longer horizon than the engine allows.
    HorizonExceeded {
        /// Horizon the property needs.
        needed: u32,
        /// The engine's maximum horizon.
        max: u32,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::UnknownSignal(s) => write!(f, "unknown signal '{s}'"),
            EncodeError::Unsupported(s) => write!(f, "unsupported construct: {s}"),
            EncodeError::HorizonExceeded { needed, max } => {
                write!(
                    f,
                    "property needs horizon {needed}, engine maximum is {max}"
                )
            }
        }
    }
}

impl Error for EncodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            EncodeError::UnknownSignal("ghost".into()).to_string(),
            "unknown signal 'ghost'"
        );
        assert!(EncodeError::HorizonExceeded {
            needed: 99,
            max: 64
        }
        .to_string()
        .contains("99"));
    }
}
