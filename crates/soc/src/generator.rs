//! Seeded synthetic SOC generation from published per-core data ranges.
//!
//! The paper evaluates on three proprietary Philips SOCs (`p21241`,
//! `p31108`, `p93791`) whose full per-core test data was never published;
//! the paper gives only core counts and *ranges* (its Tables 4, 8
//! and 14). This module generates deterministic synthetic SOCs whose
//! cores are drawn from exactly those ranges and whose total test-data
//! volume is calibrated to the SOC *name number* (the complexity number
//! of [`crate::complexity`]), which pins the overall workload size.
//!
//! Every algorithm in the paper consumes only (patterns, functional
//! terminals, scan-chain lengths) per core, so a generator faithful to
//! the published ranges preserves the behaviour the experiments probe:
//! the mix of many wide shallow memory cores vs. few deep scan cores,
//! which TAM widths saturate, and where heuristic/exact gaps appear.
//!
//! # Example
//!
//! ```
//! use tamopt_soc::generator::{CoreClass, SocSpec};
//!
//! # fn main() -> Result<(), tamopt_soc::SocError> {
//! let spec = SocSpec::new("toy", 42)
//!     .class(CoreClass::logic("logic", 3, (10, 100), (20, 60), (1, 4), (8, 32)))
//!     .class(CoreClass::memory("mem", 2, (100, 1000), (10, 40)))
//!     .target_complexity(500);
//! let soc = spec.generate()?;
//! assert_eq!(soc.num_cores(), 5);
//! // Deterministic: same spec, same SOC.
//! assert_eq!(spec.generate()?, soc);
//! # Ok(())
//! # }
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Core, CoreKind, Soc, SocError};

/// A class of cores sharing data ranges — one row of the paper's
/// Tables 4, 8, 14 (“Logic cores” / “Memory cores”).
///
/// All ranges are inclusive `(min, max)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreClass {
    /// Name prefix for generated cores (`<prefix><index>`).
    pub prefix: String,
    /// How many cores of this class to generate.
    pub count: usize,
    /// Test-pattern count range (drawn log-uniformly — pattern counts in
    /// the published tables span two orders of magnitude).
    pub patterns: (u64, u64),
    /// Functional terminal count range (inputs + outputs + bidirs).
    pub io_terminals: (u32, u32),
    /// Scan-chain count range; `(0, 0)` for memory cores.
    pub scan_chains: (u32, u32),
    /// Scan-chain length range (ignored when `scan_chains == (0, 0)`).
    pub scan_length: (u32, u32),
}

impl CoreClass {
    /// Convenience constructor for a scan-testable logic class.
    pub fn logic(
        prefix: impl Into<String>,
        count: usize,
        patterns: (u64, u64),
        io_terminals: (u32, u32),
        scan_chains: (u32, u32),
        scan_length: (u32, u32),
    ) -> Self {
        CoreClass {
            prefix: prefix.into(),
            count,
            patterns,
            io_terminals,
            scan_chains,
            scan_length,
        }
    }

    /// Convenience constructor for a memory (scan-less) class.
    pub fn memory(
        prefix: impl Into<String>,
        count: usize,
        patterns: (u64, u64),
        io_terminals: (u32, u32),
    ) -> Self {
        CoreClass {
            prefix: prefix.into(),
            count,
            patterns,
            io_terminals,
            scan_chains: (0, 0),
            scan_length: (0, 0),
        }
    }

    fn validate(&self) -> Result<(), SocError> {
        let bad = |message: String| Err(SocError::InvalidSpec { message });
        if self.count == 0 {
            return bad(format!("class `{}` has count 0", self.prefix));
        }
        if self.patterns.0 == 0 || self.patterns.0 > self.patterns.1 {
            return bad(format!(
                "class `{}` has an invalid pattern range",
                self.prefix
            ));
        }
        if self.io_terminals.0 > self.io_terminals.1 {
            return bad(format!(
                "class `{}` has an invalid terminal range",
                self.prefix
            ));
        }
        if self.scan_chains.0 > self.scan_chains.1 {
            return bad(format!(
                "class `{}` has an invalid scan-chain range",
                self.prefix
            ));
        }
        if self.scan_chains.1 > 0
            && (self.scan_length.0 == 0 || self.scan_length.0 > self.scan_length.1)
        {
            return bad(format!(
                "class `{}` has an invalid scan-length range",
                self.prefix
            ));
        }
        if self.io_terminals.1 == 0 && self.scan_chains.1 == 0 {
            return bad(format!(
                "class `{}` would generate empty cores",
                self.prefix
            ));
        }
        Ok(())
    }
}

/// Deterministic specification of a synthetic SOC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocSpec {
    name: String,
    seed: u64,
    classes: Vec<CoreClass>,
    target_complexity: Option<u64>,
}

impl SocSpec {
    /// Starts a spec for an SOC named `name`, generated from `seed`.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        SocSpec {
            name: name.into(),
            seed,
            classes: Vec::new(),
            target_complexity: None,
        }
    }

    /// Adds a core class.
    pub fn class(mut self, class: CoreClass) -> Self {
        self.classes.push(class);
        self
    }

    /// Calibrates the generated SOC's [complexity
    /// number](crate::complexity::complexity_number) to `target` by
    /// rescaling pattern counts within each class's range.
    pub fn target_complexity(mut self, target: u64) -> Self {
        self.target_complexity = Some(target);
        self
    }

    /// Generates the SOC. Deterministic in the spec (same spec ⇒ same
    /// SOC, independent of platform).
    ///
    /// # Errors
    ///
    /// [`SocError::InvalidSpec`] for inconsistent ranges or an empty
    /// class list, plus any [`Core`]/[`Soc`] builder error.
    pub fn generate(&self) -> Result<Soc, SocError> {
        if self.classes.is_empty() {
            return Err(SocError::InvalidSpec {
                message: "no core classes".into(),
            });
        }
        for class in &self.classes {
            class.validate()?;
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut drafts: Vec<Draft> = Vec::new();
        for class in &self.classes {
            for i in 1..=class.count {
                drafts.push(Draft::sample(class, i, &mut rng));
            }
        }
        if let Some(target) = self.target_complexity {
            calibrate(&mut drafts, target);
        }
        let cores = drafts
            .into_iter()
            .map(Draft::build)
            .collect::<Result<Vec<_>, _>>()?;
        Soc::builder(self.name.clone()).cores(cores).build()
    }
}

struct Draft {
    name: String,
    inputs: u32,
    outputs: u32,
    scan_chains: Vec<u32>,
    patterns: u64,
    pattern_range: (u64, u64),
    length_range: (u32, u32),
    io_range: (u32, u32),
    chain_range: (u32, u32),
}

impl Draft {
    fn sample(class: &CoreClass, index: usize, rng: &mut StdRng) -> Draft {
        let io = sample_u32(class.io_terminals, rng);
        // Split terminals into inputs/outputs with a mild bias spread;
        // the algorithms only care about the two cell counts.
        let in_frac = rng.gen_range(0.35..=0.65);
        let inputs = ((f64::from(io) * in_frac).round() as u32).min(io);
        let outputs = io - inputs;
        let chains = sample_u32(class.scan_chains, rng);
        let scan_chains = if chains == 0 {
            Vec::new()
        } else {
            // Real scan stitching balances chains around a common target
            // length; draw the target log-uniformly, then jitter ±10 %.
            let mean = sample_log_u64(
                (
                    u64::from(class.scan_length.0),
                    u64::from(class.scan_length.1),
                ),
                rng,
            ) as f64;
            (0..chains)
                .map(|_| {
                    let jitter = rng.gen_range(0.9..=1.1);
                    let len = (mean * jitter).round() as u32;
                    len.clamp(class.scan_length.0.max(1), class.scan_length.1)
                })
                .collect()
        };
        let patterns = sample_log_u64(class.patterns, rng);
        Draft {
            name: format!("{}{}", class.prefix, index),
            inputs,
            outputs,
            scan_chains,
            patterns,
            pattern_range: class.patterns,
            length_range: class.scan_length,
            io_range: class.io_terminals,
            chain_range: class.scan_chains,
        }
    }

    fn bits_per_pattern(&self) -> u64 {
        u64::from(self.inputs + self.outputs)
            + self.scan_chains.iter().map(|&l| u64::from(l)).sum::<u64>()
    }

    fn build(self) -> Result<Core, SocError> {
        Core::builder(self.name)
            .inputs(self.inputs)
            .outputs(self.outputs)
            .scan_chains(self.scan_chains)
            .patterns(self.patterns)
            .build()
    }
}

/// Rescales pattern counts (within each draft's class range) so the total
/// test-data volume approaches `target * 1000` bits. If pattern scaling
/// alone saturates at the range bounds, scan-chain lengths and functional
/// terminal counts are also rescaled (within their class ranges) —
/// terminal scaling is the only volume knob for memory cores, whose
/// bits-per-pattern is pure I/O. A final residual fix greedily spreads
/// the remaining gap over the cores with the most slack.
fn calibrate(drafts: &mut [Draft], target: u64) {
    let target_bits = target as f64 * 1000.0;
    for round in 0..36 {
        let current: u64 = drafts
            .iter()
            .map(|d| d.patterns * d.bits_per_pattern())
            .sum();
        if current == 0 {
            return;
        }
        let ratio = target_bits / current as f64;
        if (ratio - 1.0).abs() < 0.002 {
            break;
        }
        // Cycle the three knobs — patterns, scan structure, functional
        // terminals — so calibration escapes saturation of any one knob
        // at its range bound.
        match round % 3 {
            0 => {
                for d in drafts.iter_mut() {
                    let scaled = (d.patterns as f64 * ratio).round() as u64;
                    d.patterns = scaled.clamp(d.pattern_range.0, d.pattern_range.1).max(1);
                }
            }
            1 => {
                for d in drafts.iter_mut() {
                    if d.scan_chains.is_empty() {
                        continue;
                    }
                    let (lo, hi) = (d.length_range.0.max(1), d.length_range.1);
                    let mut desired: u64 = 0;
                    let mut current: u64 = 0;
                    for len in &mut d.scan_chains {
                        let scaled = (f64::from(*len) * ratio).round() as u64;
                        desired += scaled;
                        *len = (scaled.min(u64::from(hi)) as u32).max(lo);
                        current += u64::from(*len);
                    }
                    // Length scaling saturates at the class bound; the
                    // chain *count* (also a published range) absorbs the
                    // rest. Only deficits of at least one minimum-length
                    // chain are absorbed, so pushes never overshoot
                    // (chains are never removed again).
                    let mut deficit = desired.saturating_sub(current);
                    while deficit >= u64::from(lo) && (d.scan_chains.len() as u32) < d.chain_range.1
                    {
                        let len = deficit.min(u64::from(hi)) as u32;
                        d.scan_chains.push(len);
                        deficit -= u64::from(len);
                    }
                }
            }
            _ => {
                for d in drafts.iter_mut() {
                    if d.io_range.1 == 0 {
                        continue;
                    }
                    // Never scale down to 0 terminals: a terminal-free
                    // memory core is invalid, and a zero would disable
                    // this knob (and the core) for good. A core that
                    // legitimately has 0 terminals only gains one when
                    // volume must grow.
                    let io = d.inputs + d.outputs;
                    let scaled = if io == 0 {
                        if ratio > 1.0 {
                            1
                        } else {
                            continue;
                        }
                    } else {
                        (f64::from(io) * ratio).round() as u32
                    };
                    let new_io = scaled.clamp(d.io_range.0.max(1), d.io_range.1);
                    let in_frac = if io == 0 {
                        0.5
                    } else {
                        f64::from(d.inputs) / f64::from(io)
                    };
                    d.inputs = ((f64::from(new_io) * in_frac).round() as u32).min(new_io);
                    d.outputs = new_io - d.inputs;
                }
            }
        }
    }
    // Residual fix: greedily spread the remaining gap over the cores with
    // the widest pattern headroom in the needed direction, one core per
    // pass, until the residual is absorbed or no core can move.
    for _ in 0..drafts.len() {
        let current: i128 = drafts
            .iter()
            .map(|d| (d.patterns * d.bits_per_pattern()) as i128)
            .sum();
        let residual = target_bits as i128 - current;
        if residual == 0 {
            return;
        }
        // Only cores that can actually move: positive pattern headroom in
        // the needed direction, and a bits-per-pattern no larger than the
        // residual (otherwise `delta` rounds to zero).
        let headroom = |d: &Draft| {
            if residual > 0 {
                (d.pattern_range.1 - d.patterns) as i128
            } else {
                (d.patterns - d.pattern_range.0) as i128
            }
        };
        let best = drafts
            .iter_mut()
            .filter(|d| {
                let bpp = d.bits_per_pattern() as i128;
                bpp > 0 && bpp <= residual.abs() && headroom(d) > 0
            })
            .max_by_key(|d| headroom(d) * d.bits_per_pattern() as i128);
        let Some(d) = best else { return };
        let bpp = d.bits_per_pattern() as i128;
        let delta = residual / bpp;
        let new = (d.patterns as i128 + delta).max(1) as u64;
        let clamped = new.clamp(d.pattern_range.0, d.pattern_range.1).max(1);
        if clamped == d.patterns {
            return;
        }
        d.patterns = clamped;
    }
}

fn sample_u32(range: (u32, u32), rng: &mut StdRng) -> u32 {
    if range.0 == range.1 {
        range.0
    } else {
        rng.gen_range(range.0..=range.1)
    }
}

/// Log-uniform integer sample over an inclusive range; degenerates to the
/// point for `min == max`.
fn sample_log_u64(range: (u64, u64), rng: &mut StdRng) -> u64 {
    let (min, max) = (range.0.max(1), range.1.max(1));
    if min >= max {
        return min;
    }
    let lo = (min as f64).ln();
    let hi = (max as f64).ln();
    let v = rng.gen_range(lo..=hi).exp().round() as u64;
    v.clamp(min, max)
}

/// Observed min/max statistics of one core kind within an SOC — the
/// "Number range" rows of the paper's Tables 4, 8 and 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindRanges {
    /// Number of cores of this kind.
    pub count: usize,
    /// (min, max) test patterns.
    pub patterns: (u64, u64),
    /// (min, max) functional terminals.
    pub io_terminals: (u32, u32),
    /// (min, max) scan-chain count.
    pub scan_chains: (usize, usize),
    /// (min, max) individual scan-chain length, if any chains exist.
    pub scan_length: Option<(u32, u32)>,
}

/// Summarizes the per-kind data ranges of `soc` (reproduces the range
/// tables of the paper). Returns `None` if the SOC has no core of `kind`.
pub fn summarize(soc: &Soc, kind: CoreKind) -> Option<KindRanges> {
    let cores: Vec<_> = soc.iter().filter(|c| c.kind() == kind).collect();
    if cores.is_empty() {
        return None;
    }
    let patterns = (
        cores.iter().map(|c| c.patterns()).min().expect("non-empty"),
        cores.iter().map(|c| c.patterns()).max().expect("non-empty"),
    );
    let io = (
        cores
            .iter()
            .map(|c| c.io_terminals())
            .min()
            .expect("non-empty"),
        cores
            .iter()
            .map(|c| c.io_terminals())
            .max()
            .expect("non-empty"),
    );
    let chains = (
        cores
            .iter()
            .map(|c| c.scan_chains().len())
            .min()
            .expect("non-empty"),
        cores
            .iter()
            .map(|c| c.scan_chains().len())
            .max()
            .expect("non-empty"),
    );
    let lengths: Vec<u32> = cores
        .iter()
        .flat_map(|c| c.scan_chains().iter().copied())
        .collect();
    let scan_length = if lengths.is_empty() {
        None
    } else {
        Some((
            lengths.iter().copied().min().expect("non-empty"),
            lengths.iter().copied().max().expect("non-empty"),
        ))
    };
    Some(KindRanges {
        count: cores.len(),
        patterns,
        io_terminals: io,
        scan_chains: chains,
        scan_length,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_spec() -> SocSpec {
        SocSpec::new("toy", 7)
            .class(CoreClass::logic(
                "l",
                4,
                (10, 500),
                (20, 100),
                (1, 8),
                (10, 50),
            ))
            .class(CoreClass::memory("m", 3, (100, 5000), (12, 60)))
    }

    #[test]
    fn deterministic_generation() {
        let a = toy_spec().generate().unwrap();
        let b = toy_spec().generate().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = toy_spec().generate().unwrap();
        let b = SocSpec::new("toy", 8)
            .class(CoreClass::logic(
                "l",
                4,
                (10, 500),
                (20, 100),
                (1, 8),
                (10, 50),
            ))
            .class(CoreClass::memory("m", 3, (100, 5000), (12, 60)))
            .generate()
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn respects_ranges() {
        let soc = toy_spec().generate().unwrap();
        for c in soc.iter().filter(|c| c.name().starts_with('l')) {
            assert!((10..=500).contains(&c.patterns()), "{c}");
            assert!((20..=100).contains(&c.io_terminals()), "{c}");
            assert!((1..=8).contains(&c.scan_chains().len()), "{c}");
            for &len in c.scan_chains() {
                assert!((10..=50).contains(&len), "{c}");
            }
        }
        for c in soc.iter().filter(|c| c.name().starts_with('m')) {
            assert!(c.scan_chains().is_empty());
            assert!((100..=5000).contains(&c.patterns()));
        }
    }

    #[test]
    fn calibration_hits_target_complexity() {
        let soc = toy_spec().target_complexity(400).generate().unwrap();
        let c = soc.complexity_number();
        let err = (c as f64 - 400.0).abs() / 400.0;
        assert!(err < 0.05, "complexity {c} not within 5% of 400");
    }

    #[test]
    fn rejects_empty_spec() {
        assert!(matches!(
            SocSpec::new("x", 1).generate(),
            Err(SocError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn rejects_invalid_ranges() {
        let spec =
            SocSpec::new("x", 1).class(CoreClass::logic("l", 1, (10, 5), (1, 2), (1, 1), (1, 1)));
        assert!(matches!(spec.generate(), Err(SocError::InvalidSpec { .. })));
        let spec = SocSpec::new("x", 1).class(CoreClass::memory("m", 0, (1, 2), (1, 2)));
        assert!(matches!(spec.generate(), Err(SocError::InvalidSpec { .. })));
        let spec = SocSpec::new("x", 1).class(CoreClass::memory("m", 1, (1, 2), (0, 0)));
        assert!(matches!(spec.generate(), Err(SocError::InvalidSpec { .. })));
    }

    #[test]
    fn summarize_reports_observed_ranges() {
        let soc = toy_spec().generate().unwrap();
        let logic = summarize(&soc, CoreKind::Logic).unwrap();
        assert_eq!(logic.count, 4);
        assert!(logic.scan_length.is_some());
        let mem = summarize(&soc, CoreKind::Memory).unwrap();
        assert_eq!(mem.count, 3);
        assert_eq!(mem.scan_chains, (0, 0));
        assert!(mem.scan_length.is_none());
    }

    #[test]
    fn summarize_none_for_absent_kind() {
        let spec = SocSpec::new("x", 1).class(CoreClass::memory("m", 2, (1, 9), (4, 9)));
        let soc = spec.generate().unwrap();
        assert!(summarize(&soc, CoreKind::Logic).is_none());
    }
}
