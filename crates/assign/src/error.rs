use std::error::Error;
use std::fmt;

/// Error type for core-assignment solving.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AssignError {
    /// A TAM set was built with no TAMs.
    NoTams,
    /// A TAM of width zero was supplied.
    ZeroWidthTam {
        /// Index of the offending TAM.
        index: usize,
    },
    /// A TAM is wider than the width range covered by the time table.
    WidthOutOfTable {
        /// Index of the offending TAM.
        index: usize,
        /// Its width.
        width: u32,
        /// Maximum width covered by the table.
        max_width: u32,
    },
    /// The cost matrix is empty or ragged.
    MalformedCosts,
}

impl fmt::Display for AssignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignError::NoTams => f.write_str("tam set is empty"),
            AssignError::ZeroWidthTam { index } => {
                write!(f, "tam #{index} has width zero")
            }
            AssignError::WidthOutOfTable {
                index,
                width,
                max_width,
            } => write!(
                f,
                "tam #{index} of width {width} exceeds the time table's maximum width {max_width}"
            ),
            AssignError::MalformedCosts => f.write_str("cost matrix is empty or ragged"),
        }
    }
}

impl Error for AssignError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(AssignError::NoTams.to_string().contains("empty"));
        assert!(AssignError::WidthOutOfTable {
            index: 1,
            width: 99,
            max_width: 64
        }
        .to_string()
        .contains("99"));
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<AssignError>();
    }
}
