use crate::AssignError;

/// A set of test access mechanisms (TAMs), each with a fixed width in
/// wires — the *test bus model* of the paper.
///
/// TAM indices are positions in this set; widths need not be sorted, but
/// [`TamSet::new`] keeps the order given (the paper writes partitions
/// in ascending width order, e.g. `9+16+23`).
///
/// # Example
///
/// ```
/// use tamopt_assign::TamSet;
///
/// # fn main() -> Result<(), tamopt_assign::AssignError> {
/// let tams = TamSet::new([9, 16, 23])?;
/// assert_eq!(tams.len(), 3);
/// assert_eq!(tams.total_width(), 48);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TamSet {
    widths: Vec<u32>,
}

impl TamSet {
    /// Builds a TAM set from widths.
    ///
    /// # Errors
    ///
    /// [`AssignError::NoTams`] for an empty set,
    /// [`AssignError::ZeroWidthTam`] for any zero width.
    pub fn new<I: IntoIterator<Item = u32>>(widths: I) -> Result<Self, AssignError> {
        let widths: Vec<u32> = widths.into_iter().collect();
        if widths.is_empty() {
            return Err(AssignError::NoTams);
        }
        if let Some(index) = widths.iter().position(|&w| w == 0) {
            return Err(AssignError::ZeroWidthTam { index });
        }
        Ok(TamSet { widths })
    }

    /// Number of TAMs.
    pub fn len(&self) -> usize {
        self.widths.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.widths.is_empty()
    }

    /// Width of TAM `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn width(&self, index: usize) -> u32 {
        self.widths[index]
    }

    /// All widths, in TAM order.
    pub fn widths(&self) -> &[u32] {
        &self.widths
    }

    /// Sum of the widths (the SOC's total TAM width `W`).
    pub fn total_width(&self) -> u32 {
        self.widths.iter().sum()
    }
}

impl std::fmt::Display for TamSet {
    /// Formats as the paper's partition notation, e.g. `9+16+23`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for w in &self.widths {
            if !first {
                f.write_str("+")?;
            }
            write!(f, "{w}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_accesses() {
        let t = TamSet::new([8, 16, 32]).unwrap();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.width(1), 16);
        assert_eq!(t.widths(), &[8, 16, 32]);
        assert_eq!(t.total_width(), 56);
    }

    #[test]
    fn rejects_empty_and_zero() {
        assert_eq!(TamSet::new([]).unwrap_err(), AssignError::NoTams);
        assert_eq!(
            TamSet::new([4, 0, 2]).unwrap_err(),
            AssignError::ZeroWidthTam { index: 1 }
        );
    }

    #[test]
    fn displays_partition_notation() {
        assert_eq!(TamSet::new([9, 16, 23]).unwrap().to_string(), "9+16+23");
        assert_eq!(TamSet::new([5]).unwrap().to_string(), "5");
    }
}
