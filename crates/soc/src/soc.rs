use crate::{complexity, Core, CoreKind, SocError};

/// A system-on-chip under test: a named, ordered collection of embedded
/// [`Core`]s.
///
/// Core order matters: the paper's *core assignment vectors* (notation of
/// its reference [5]) index cores by position, so all solvers in the
/// workspace identify cores by their index in this collection.
///
/// # Example
///
/// ```
/// use tamopt_soc::benchmarks;
///
/// let d695 = benchmarks::d695();
/// assert_eq!(d695.num_cores(), 10);
/// // The complexity number is what names the SOC.
/// assert!((600..800).contains(&d695.complexity_number()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Soc {
    name: String,
    cores: Vec<Core>,
}

impl Soc {
    /// Starts building an SOC named `name`.
    pub fn builder(name: impl Into<String>) -> SocBuilder {
        SocBuilder {
            name: name.into(),
            cores: Vec::new(),
        }
    }

    /// The SOC's name (e.g. `d695`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of embedded cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The cores, in assignment-vector order.
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// The core at `index`, if any.
    pub fn core(&self, index: usize) -> Option<&Core> {
        self.cores.get(index)
    }

    /// Looks a core up by name.
    pub fn core_by_name(&self, name: &str) -> Option<(usize, &Core)> {
        self.cores
            .iter()
            .enumerate()
            .find(|(_, c)| c.name() == name)
    }

    /// Iterates over the cores in assignment-vector order.
    pub fn iter(&self) -> std::slice::Iter<'_, Core> {
        self.cores.iter()
    }

    /// Number of cores of the given kind.
    pub fn count_kind(&self, kind: CoreKind) -> usize {
        self.cores.iter().filter(|c| c.kind() == kind).count()
    }

    /// The SOC test-complexity number of the paper's reference [8]; see
    /// [`complexity::complexity_number`].
    pub fn complexity_number(&self) -> u64 {
        complexity::complexity_number(self)
    }

    /// A content fingerprint of the SOC: equal SOCs (name and full core
    /// data) hash equal, structurally different SOCs virtually never
    /// collide.
    ///
    /// The hash is a hand-rolled **FNV-1a** over a canonical, explicit
    /// field ordering (name, core count, then per core: name, inputs,
    /// outputs, bidirs, scan chains, patterns — every variable-length
    /// field length-prefixed). It is therefore **stable across process
    /// restarts, builds and machines**, unlike `DefaultHasher` — the
    /// property persisted caches (e.g. serializing the service layer's
    /// warm-start cache across daemon restarts) depend on.
    pub fn fingerprint(&self) -> u64 {
        let mut hasher = Fnv1a::new();
        hasher.write_str(&self.name);
        hasher.write_u64(self.cores.len() as u64);
        for core in &self.cores {
            hasher.write_str(core.name());
            hasher.write_u32(core.inputs());
            hasher.write_u32(core.outputs());
            hasher.write_u32(core.bidirs());
            hasher.write_u64(core.scan_chains().len() as u64);
            for &chain in core.scan_chains() {
                hasher.write_u32(chain);
            }
            hasher.write_u64(core.patterns());
        }
        hasher.finish()
    }
}

/// 64-bit FNV-1a with explicit length prefixes for variable-length
/// fields, so field boundaries can never alias ("ab" + "c" vs "a" +
/// "bc"). Kept private: the only contract is [`Soc::fingerprint`].
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u32(&mut self, value: u32) {
        self.write_bytes(&value.to_le_bytes());
    }

    fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    fn write_str(&mut self, value: &str) {
        self.write_u64(value.len() as u64);
        self.write_bytes(value.as_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl<'a> IntoIterator for &'a Soc {
    type Item = &'a Core;
    type IntoIter = std::slice::Iter<'a, Core>;

    fn into_iter(self) -> Self::IntoIter {
        self.cores.iter()
    }
}

impl std::fmt::Display for Soc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "soc {} ({} cores: {} logic, {} memory; complexity {})",
            self.name,
            self.num_cores(),
            self.count_kind(CoreKind::Logic),
            self.count_kind(CoreKind::Memory),
            self.complexity_number()
        )?;
        for core in &self.cores {
            writeln!(f, "  {core}")?;
        }
        Ok(())
    }
}

/// Builder for [`Soc`]; created by [`Soc::builder`].
#[derive(Debug, Clone)]
pub struct SocBuilder {
    name: String,
    cores: Vec<Core>,
}

impl SocBuilder {
    /// Appends one core.
    pub fn core(mut self, core: Core) -> Self {
        self.cores.push(core);
        self
    }

    /// Appends many cores.
    pub fn cores<I: IntoIterator<Item = Core>>(mut self, cores: I) -> Self {
        self.cores.extend(cores);
        self
    }

    /// Validates and builds the [`Soc`].
    ///
    /// # Errors
    ///
    /// * [`SocError::InvalidName`] if the SOC name is empty or contains
    ///   whitespace;
    /// * [`SocError::EmptySoc`] if no cores were added;
    /// * [`SocError::DuplicateCoreName`] if two cores share a name.
    pub fn build(self) -> Result<Soc, SocError> {
        if self.name.is_empty() || self.name.chars().any(char::is_whitespace) {
            return Err(SocError::InvalidName { name: self.name });
        }
        if self.cores.is_empty() {
            return Err(SocError::EmptySoc { name: self.name });
        }
        let mut seen = std::collections::HashSet::new();
        for core in &self.cores {
            if !seen.insert(core.name()) {
                return Err(SocError::DuplicateCoreName {
                    name: core.name().to_owned(),
                });
            }
        }
        Ok(Soc {
            name: self.name,
            cores: self.cores,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(name: &str, patterns: u64) -> Core {
        Core::builder(name)
            .inputs(4)
            .outputs(4)
            .patterns(patterns)
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_indexes() {
        let soc = Soc::builder("s")
            .core(core("a", 1))
            .core(core("b", 2))
            .build()
            .unwrap();
        assert_eq!(soc.num_cores(), 2);
        assert_eq!(soc.core(1).unwrap().name(), "b");
        assert!(soc.core(2).is_none());
        let (idx, c) = soc.core_by_name("a").unwrap();
        assert_eq!(idx, 0);
        assert_eq!(c.patterns(), 1);
        assert!(soc.core_by_name("zz").is_none());
    }

    #[test]
    fn rejects_empty_soc() {
        assert_eq!(
            Soc::builder("s").build().unwrap_err(),
            SocError::EmptySoc { name: "s".into() }
        );
    }

    #[test]
    fn rejects_duplicate_core_names() {
        let err = Soc::builder("s")
            .core(core("a", 1))
            .core(core("a", 2))
            .build()
            .unwrap_err();
        assert_eq!(err, SocError::DuplicateCoreName { name: "a".into() });
    }

    #[test]
    fn rejects_whitespace_soc_name() {
        assert!(matches!(
            Soc::builder("a b").core(core("a", 1)).build(),
            Err(SocError::InvalidName { .. })
        ));
    }

    #[test]
    fn iteration_orders_match() {
        let soc = Soc::builder("s")
            .cores([core("a", 1), core("b", 1)])
            .build()
            .unwrap();
        let names: Vec<_> = soc.iter().map(Core::name).collect();
        assert_eq!(names, ["a", "b"]);
        let names2: Vec<_> = (&soc).into_iter().map(Core::name).collect();
        assert_eq!(names, names2);
    }

    #[test]
    fn kind_counts() {
        let logic = Core::builder("l")
            .scan_chains([4])
            .inputs(1)
            .patterns(1)
            .build()
            .unwrap();
        let soc = Soc::builder("s")
            .core(core("m", 1))
            .core(logic)
            .build()
            .unwrap();
        assert_eq!(soc.count_kind(CoreKind::Memory), 1);
        assert_eq!(soc.count_kind(CoreKind::Logic), 1);
    }

    #[test]
    fn fingerprint_separates_content_not_instances() {
        let a = Soc::builder("s").core(core("a", 7)).build().unwrap();
        let same = Soc::builder("s").core(core("a", 7)).build().unwrap();
        assert_eq!(a.fingerprint(), same.fingerprint(), "content-addressed");
        let renamed = Soc::builder("t").core(core("a", 7)).build().unwrap();
        let grown = Soc::builder("s")
            .core(core("a", 7))
            .core(core("b", 2))
            .build()
            .unwrap();
        assert_ne!(a.fingerprint(), renamed.fingerprint());
        assert_ne!(a.fingerprint(), grown.fingerprint());
    }

    #[test]
    fn fingerprint_is_process_restart_stable() {
        // FNV-1a over canonical fields has no per-process seed, so these
        // golden values hold across restarts, builds and machines — the
        // contract persisted warm caches rely on. If this test fails,
        // the canonical serialization changed and any persisted cache
        // keyed on the old fingerprints must be invalidated.
        assert_eq!(
            crate::benchmarks::d695().fingerprint(),
            0xf8a2_5b3d_a5f4_46ee
        );
        assert_eq!(
            crate::benchmarks::p93791().fingerprint(),
            0x57de_ea81_47b0_1db4
        );
    }

    #[test]
    fn fingerprint_length_prefixes_prevent_field_aliasing() {
        // Same concatenated bytes, different field boundaries: "ab"+1
        // chain vs "a"+2 chains must not collide.
        let a = Soc::builder("s")
            .core(
                Core::builder("ab")
                    .inputs(1)
                    .patterns(1)
                    .scan_chains([7])
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap();
        let b = Soc::builder("s")
            .core(
                Core::builder("a")
                    .inputs(1)
                    .patterns(1)
                    .scan_chains([7, 7])
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn display_lists_cores() {
        let soc = Soc::builder("s").core(core("a", 1)).build().unwrap();
        let text = soc.to_string();
        assert!(text.contains("soc s"));
        assert!(text.contains("  a "));
    }

    #[test]
    fn debug_output_names_the_core() {
        let soc = Soc::builder("s").core(core("a", 7)).build().unwrap();
        assert!(format!("{soc:?}").contains("name: \"a\""));
    }
}
