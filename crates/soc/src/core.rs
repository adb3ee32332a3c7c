use crate::SocError;

/// Classification of a core by its test interface, following the paper's
/// split of the Philips SOCs into *scan-testable logic cores* and
/// *memory cores*.
///
/// The classification is derived, not stored: a core with at least one
/// internal scan chain is [`Logic`](CoreKind::Logic), otherwise it is
/// [`Memory`](CoreKind::Memory) (tested through its functional terminals
/// only, as the paper's memory cores with “0 scan chains” are).
///
/// # Example
///
/// ```
/// use tamopt_soc::{Core, CoreKind};
///
/// # fn main() -> Result<(), tamopt_soc::SocError> {
/// let logic = Core::builder("l").inputs(4).outputs(4).scan_chains([16]).patterns(10).build()?;
/// let mem = Core::builder("m").inputs(20).outputs(16).patterns(4096).build()?;
/// assert_eq!(logic.kind(), CoreKind::Logic);
/// assert_eq!(mem.kind(), CoreKind::Memory);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoreKind {
    /// Scan-testable logic core (one or more internal scan chains).
    Logic,
    /// Memory (or otherwise non-scan) core tested via functional
    /// terminals only.
    Memory,
}

impl std::fmt::Display for CoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreKind::Logic => f.write_str("logic"),
            CoreKind::Memory => f.write_str("memory"),
        }
    }
}

/// Test data of one embedded core: functional terminals, internal scan
/// chains and test-pattern count.
///
/// This is exactly the per-core information consumed by the
/// `Design_wrapper` algorithm (problem *P_W* of the paper) and therefore
/// by every higher-level optimization. Construct cores through
/// [`Core::builder`], which validates the data.
///
/// # Example
///
/// ```
/// use tamopt_soc::Core;
///
/// # fn main() -> Result<(), tamopt_soc::SocError> {
/// let core = Core::builder("s9234")
///     .inputs(36)
///     .outputs(39)
///     .scan_chains([54, 53, 52, 52])
///     .patterns(105)
///     .build()?;
/// assert_eq!(core.scan_cells(), 211);
/// assert_eq!(core.input_cells(), 36);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Core {
    name: String,
    inputs: u32,
    outputs: u32,
    bidirs: u32,
    scan_chains: Vec<u32>,
    patterns: u64,
}

impl Core {
    /// Starts building a core named `name`.
    pub fn builder(name: impl Into<String>) -> CoreBuilder {
        CoreBuilder {
            name: name.into(),
            inputs: 0,
            outputs: 0,
            bidirs: 0,
            scan_chains: Vec::new(),
            patterns: 1,
        }
    }

    /// The core's name, unique within its [`Soc`](crate::Soc).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of functional input terminals.
    pub fn inputs(&self) -> u32 {
        self.inputs
    }

    /// Number of functional output terminals.
    pub fn outputs(&self) -> u32 {
        self.outputs
    }

    /// Number of functional bidirectional terminals.
    pub fn bidirs(&self) -> u32 {
        self.bidirs
    }

    /// Lengths of the core-internal scan chains, in scan cells.
    pub fn scan_chains(&self) -> &[u32] {
        &self.scan_chains
    }

    /// Number of test patterns applied to this core.
    pub fn patterns(&self) -> u64 {
        self.patterns
    }

    /// Derived classification; see [`CoreKind`].
    pub fn kind(&self) -> CoreKind {
        if self.scan_chains.is_empty() {
            CoreKind::Memory
        } else {
            CoreKind::Logic
        }
    }

    /// Total number of internal scan cells (sum of chain lengths).
    pub fn scan_cells(&self) -> u64 {
        self.scan_chains.iter().map(|&l| u64::from(l)).sum()
    }

    /// Number of wrapper *input* cells required: functional inputs plus
    /// bidirectional terminals (a bidir needs a wrapper cell on both the
    /// stimulus and the response path).
    pub fn input_cells(&self) -> u32 {
        self.inputs + self.bidirs
    }

    /// Number of wrapper *output* cells required: functional outputs
    /// plus bidirectional terminals.
    pub fn output_cells(&self) -> u32 {
        self.outputs + self.bidirs
    }

    /// Total functional terminal count (`inputs + outputs + bidirs`),
    /// the "Functional I/Os" column of the paper's Tables 4, 8 and 14.
    pub fn io_terminals(&self) -> u32 {
        self.inputs + self.outputs + self.bidirs
    }

    /// Bits of test data shifted per pattern if the whole core were one
    /// chain: terminal cells plus scan cells. Used by the complexity
    /// number of [`crate::complexity`].
    pub fn test_bits_per_pattern(&self) -> u64 {
        u64::from(self.io_terminals()) + self.scan_cells()
    }
}

impl std::fmt::Display for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}): {} in, {} out, {} bidir, {} scan chains ({} cells), {} patterns",
            self.name,
            self.kind(),
            self.inputs,
            self.outputs,
            self.bidirs,
            self.scan_chains.len(),
            self.scan_cells(),
            self.patterns
        )
    }
}

/// Builder for [`Core`]; created by [`Core::builder`].
///
/// All counts default to zero and `patterns` defaults to 1.
#[derive(Debug, Clone)]
pub struct CoreBuilder {
    name: String,
    inputs: u32,
    outputs: u32,
    bidirs: u32,
    scan_chains: Vec<u32>,
    patterns: u64,
}

impl CoreBuilder {
    /// Sets the number of functional input terminals.
    pub fn inputs(mut self, inputs: u32) -> Self {
        self.inputs = inputs;
        self
    }

    /// Sets the number of functional output terminals.
    pub fn outputs(mut self, outputs: u32) -> Self {
        self.outputs = outputs;
        self
    }

    /// Sets the number of bidirectional terminals.
    pub fn bidirs(mut self, bidirs: u32) -> Self {
        self.bidirs = bidirs;
        self
    }

    /// Sets the internal scan-chain lengths (replacing any previous set).
    pub fn scan_chains<I: IntoIterator<Item = u32>>(mut self, lengths: I) -> Self {
        self.scan_chains = lengths.into_iter().collect();
        self
    }

    /// Appends one internal scan chain of length `len`.
    pub fn scan_chain(mut self, len: u32) -> Self {
        self.scan_chains.push(len);
        self
    }

    /// Sets the test-pattern count.
    pub fn patterns(mut self, patterns: u64) -> Self {
        self.patterns = patterns;
        self
    }

    /// Validates and builds the [`Core`].
    ///
    /// # Errors
    ///
    /// * [`SocError::InvalidName`] if the name is empty or contains
    ///   whitespace;
    /// * [`SocError::ZeroPatterns`] if the pattern count is zero;
    /// * [`SocError::ZeroLengthScanChain`] if any chain length is zero;
    /// * [`SocError::EmptyCore`] if the core has neither terminals nor
    ///   scan cells.
    pub fn build(self) -> Result<Core, SocError> {
        if self.name.is_empty() || self.name.chars().any(char::is_whitespace) {
            return Err(SocError::InvalidName { name: self.name });
        }
        if self.patterns == 0 {
            return Err(SocError::ZeroPatterns { name: self.name });
        }
        if let Some(index) = self.scan_chains.iter().position(|&l| l == 0) {
            return Err(SocError::ZeroLengthScanChain {
                name: self.name,
                index,
            });
        }
        if self.inputs == 0 && self.outputs == 0 && self.bidirs == 0 && self.scan_chains.is_empty()
        {
            return Err(SocError::EmptyCore { name: self.name });
        }
        Ok(Core {
            name: self.name,
            inputs: self.inputs,
            outputs: self.outputs,
            bidirs: self.bidirs,
            scan_chains: self.scan_chains,
            patterns: self.patterns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logic() -> Core {
        Core::builder("l")
            .inputs(3)
            .outputs(5)
            .bidirs(2)
            .scan_chains([10, 8, 8])
            .patterns(100)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_roundtrip() {
        let c = logic();
        assert_eq!(c.name(), "l");
        assert_eq!(c.inputs(), 3);
        assert_eq!(c.outputs(), 5);
        assert_eq!(c.bidirs(), 2);
        assert_eq!(c.scan_chains(), &[10, 8, 8]);
        assert_eq!(c.patterns(), 100);
    }

    #[test]
    fn derived_quantities() {
        let c = logic();
        assert_eq!(c.scan_cells(), 26);
        assert_eq!(c.input_cells(), 5);
        assert_eq!(c.output_cells(), 7);
        assert_eq!(c.io_terminals(), 10);
        assert_eq!(c.test_bits_per_pattern(), 36);
        assert_eq!(c.kind(), CoreKind::Logic);
    }

    #[test]
    fn memory_kind_for_scanless_core() {
        let m = Core::builder("m")
            .inputs(8)
            .outputs(8)
            .patterns(9)
            .build()
            .unwrap();
        assert_eq!(m.kind(), CoreKind::Memory);
        assert_eq!(m.scan_cells(), 0);
    }

    #[test]
    fn rejects_zero_patterns() {
        let err = Core::builder("c")
            .inputs(1)
            .patterns(0)
            .build()
            .unwrap_err();
        assert_eq!(err, SocError::ZeroPatterns { name: "c".into() });
    }

    #[test]
    fn rejects_zero_length_chain() {
        let err = Core::builder("c")
            .scan_chains([4, 0, 2])
            .patterns(1)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SocError::ZeroLengthScanChain {
                name: "c".into(),
                index: 1
            }
        );
    }

    #[test]
    fn rejects_empty_core() {
        let err = Core::builder("c").patterns(5).build().unwrap_err();
        assert_eq!(err, SocError::EmptyCore { name: "c".into() });
    }

    #[test]
    fn rejects_bad_names() {
        assert!(matches!(
            Core::builder("").inputs(1).build(),
            Err(SocError::InvalidName { .. })
        ));
        assert!(matches!(
            Core::builder("a b").inputs(1).build(),
            Err(SocError::InvalidName { .. })
        ));
    }

    #[test]
    fn scan_chain_appends() {
        let c = Core::builder("c")
            .scan_chain(5)
            .scan_chain(7)
            .patterns(2)
            .build()
            .unwrap();
        assert_eq!(c.scan_chains(), &[5, 7]);
    }

    #[test]
    fn display_is_informative() {
        let s = logic().to_string();
        assert!(s.contains("logic"));
        assert!(s.contains("3 in"));
        assert!(s.contains("26 cells"));
    }
}
