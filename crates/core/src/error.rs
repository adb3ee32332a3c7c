use std::error::Error;
use std::fmt;

use tamopt_assign::AssignError;
use tamopt_partition::PartitionError;
use tamopt_wrapper::WrapperError;

/// Top-level error type of the `tamopt` facade.
///
/// Wraps the layer-specific errors so that [`crate::CoOptimizer::run`]
/// has a single error channel.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TamOptError {
    /// Wrapper design failed (zero width).
    Wrapper(WrapperError),
    /// Assignment solving failed.
    Assign(AssignError),
    /// Partition optimization failed (validation or solver).
    Partition(PartitionError),
    /// A frontier sweep specification produced no widths: zero stride,
    /// an empty range, or a range starting at width 0.
    InvalidFrontier {
        /// Inclusive sweep start.
        min_width: u32,
        /// Inclusive sweep end.
        max_width: u32,
        /// Sweep stride.
        step: u32,
    },
}

impl fmt::Display for TamOptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TamOptError::Wrapper(e) => write!(f, "wrapper design: {e}"),
            TamOptError::Assign(e) => write!(f, "core assignment: {e}"),
            TamOptError::Partition(e) => write!(f, "partition optimization: {e}"),
            TamOptError::InvalidFrontier {
                min_width,
                max_width,
                step,
            } => write!(
                f,
                "invalid frontier sweep {min_width}..={max_width} step {step}"
            ),
        }
    }
}

impl Error for TamOptError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TamOptError::Wrapper(e) => Some(e),
            TamOptError::Assign(e) => Some(e),
            TamOptError::Partition(e) => Some(e),
            TamOptError::InvalidFrontier { .. } => None,
        }
    }
}

impl From<WrapperError> for TamOptError {
    fn from(e: WrapperError) -> Self {
        TamOptError::Wrapper(e)
    }
}

impl From<AssignError> for TamOptError {
    fn from(e: AssignError) -> Self {
        TamOptError::Assign(e)
    }
}

impl From<PartitionError> for TamOptError {
    fn from(e: PartitionError) -> Self {
        TamOptError::Partition(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = TamOptError::from(WrapperError::ZeroWidth);
        assert!(e.to_string().contains("wrapper design"));
        assert!(Error::source(&e).is_some());
        let e = TamOptError::from(AssignError::NoTams);
        assert!(e.to_string().contains("core assignment"));
        let e = TamOptError::from(PartitionError::ZeroWidth);
        assert!(e.to_string().contains("partition"));
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<TamOptError>();
    }
}
