//! Plain-text `.soc` exchange format.
//!
//! The ITC'02 SOC Test Benchmarks (which later published the paper's
//! `d695` and `p93791`) distribute SOC test data as plain-text `.soc`
//! files. This module implements a compact, documented dialect carrying
//! exactly the fields the co-optimization algorithms consume, with a
//! strict parser ([`parse_soc`]) and a round-tripping writer
//! ([`write_soc`]).
//!
//! # Grammar
//!
//! ```text
//! file       := soc-line core-block*
//! soc-line   := "soc" NAME
//! core-block := "core" NAME field* "end"
//! field      := "inputs" INT | "outputs" INT | "bidirs" INT
//!             | "patterns" INT | "scanchains" INT*
//! ```
//!
//! * `#` starts a comment that runs to end-of-line;
//! * tokens are separated by ASCII whitespace (space, tab, form feed,
//!   carriage return); any other character, non-ASCII spaces included,
//!   is part of a token;
//! * lines holding only ASCII whitespace are blank and ignored;
//!   indentation is free-form;
//! * omitted fields default to 0 (`patterns` defaults to 1);
//! * a repeated field within one core block is an error.
//!
//! # Example
//!
//! ```
//! use tamopt_soc::format::{parse_soc, write_soc};
//!
//! # fn main() -> Result<(), tamopt_soc::SocError> {
//! let text = "\
//! soc demo
//! core cpu
//!   inputs 32
//!   outputs 32
//!   patterns 120
//!   scanchains 40 40 38
//! end
//! core rom
//!   inputs 18
//!   outputs 16
//!   patterns 4096
//! end
//! ";
//! let soc = parse_soc(text)?;
//! assert_eq!(soc.num_cores(), 2);
//! assert_eq!(parse_soc(&write_soc(&soc))?, soc);
//! # Ok(())
//! # }
//! ```

use std::fmt::Write as _;

use crate::{Core, Soc, SocError};

/// Parses an SOC from the `.soc` dialect described in the
/// [module documentation](self).
///
/// # Errors
///
/// Returns [`SocError::Parse`] with a 1-based line number for any
/// syntactic problem, and the builder errors of [`Core`] / [`Soc`]
/// (e.g. [`SocError::DuplicateCoreName`]) for semantic ones.
pub fn parse_soc(text: &str) -> Result<Soc, SocError> {
    let mut soc_name: Option<String> = None;
    let mut cores: Vec<Core> = Vec::new();
    let mut current: Option<CoreDraft> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let mut tokens = line.split_ascii_whitespace();
        let Some(keyword) = tokens.next() else {
            continue;
        };
        match keyword {
            "soc" => {
                if soc_name.is_some() {
                    return err(line_no, "duplicate `soc` line");
                }
                if current.is_some() {
                    return err(line_no, "`soc` line inside a core block");
                }
                let name = tokens
                    .next()
                    .ok_or_else(|| parse_err(line_no, "missing soc name"))?;
                expect_end(&mut tokens, line_no)?;
                soc_name = Some(name.to_owned());
            }
            "core" => {
                if soc_name.is_none() {
                    return err(line_no, "`core` before `soc` line");
                }
                if current.is_some() {
                    return err(line_no, "nested `core` block (missing `end`?)");
                }
                let name = tokens
                    .next()
                    .ok_or_else(|| parse_err(line_no, "missing core name"))?;
                expect_end(&mut tokens, line_no)?;
                current = Some(CoreDraft::new(name));
            }
            "end" => {
                expect_end(&mut tokens, line_no)?;
                let draft = current
                    .take()
                    .ok_or_else(|| parse_err(line_no, "`end` outside a core block"))?;
                cores.push(draft.build()?);
            }
            "inputs" | "outputs" | "bidirs" | "patterns" => {
                let draft = current
                    .as_mut()
                    .ok_or_else(|| parse_err(line_no, "field outside a core block"))?;
                let value = parse_int(&mut tokens, line_no, keyword)?;
                expect_end(&mut tokens, line_no)?;
                draft.set_scalar(keyword, value, line_no)?;
            }
            "scanchains" => {
                let draft = current
                    .as_mut()
                    .ok_or_else(|| parse_err(line_no, "field outside a core block"))?;
                if draft.scan_chains.is_some() {
                    return err(line_no, "duplicate `scanchains` field");
                }
                let mut lengths = Vec::with_capacity(tokens.clone().count());
                for tok in tokens {
                    let len: u32 = tok.parse().map_err(|_| {
                        parse_err(line_no, format!("invalid scan-chain length `{tok}`"))
                    })?;
                    lengths.push(len);
                }
                draft.scan_chains = Some(lengths);
            }
            other => {
                return err(line_no, format!("unknown keyword `{other}`"));
            }
        }
    }
    if current.is_some() {
        return err(
            text.lines().count(),
            "unterminated core block (missing `end`)",
        );
    }
    let name = soc_name.ok_or_else(|| parse_err(1, "missing `soc` line"))?;
    Soc::builder(name).cores(cores).build()
}

/// Serializes an SOC to the `.soc` dialect. The output round-trips
/// through [`parse_soc`].
pub fn write_soc(soc: &Soc) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# complexity number: {}", soc.complexity_number());
    let _ = writeln!(out, "soc {}", soc.name());
    for core in soc {
        let _ = writeln!(out, "core {}", core.name());
        if core.inputs() > 0 {
            let _ = writeln!(out, "  inputs {}", core.inputs());
        }
        if core.outputs() > 0 {
            let _ = writeln!(out, "  outputs {}", core.outputs());
        }
        if core.bidirs() > 0 {
            let _ = writeln!(out, "  bidirs {}", core.bidirs());
        }
        let _ = writeln!(out, "  patterns {}", core.patterns());
        if !core.scan_chains().is_empty() {
            let _ = write!(out, "  scanchains");
            for len in core.scan_chains() {
                let _ = write!(out, " {len}");
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "end");
    }
    out
}

struct CoreDraft {
    name: String,
    inputs: Option<u64>,
    outputs: Option<u64>,
    bidirs: Option<u64>,
    patterns: Option<u64>,
    scan_chains: Option<Vec<u32>>,
}

impl CoreDraft {
    fn new(name: &str) -> Self {
        CoreDraft {
            name: name.to_owned(),
            inputs: None,
            outputs: None,
            bidirs: None,
            patterns: None,
            scan_chains: None,
        }
    }

    fn set_scalar(&mut self, field: &str, value: u64, line: usize) -> Result<(), SocError> {
        let slot = match field {
            "inputs" => &mut self.inputs,
            "outputs" => &mut self.outputs,
            "bidirs" => &mut self.bidirs,
            "patterns" => &mut self.patterns,
            _ => unreachable!("caller matched the field name"),
        };
        if slot.is_some() {
            return err(line, format!("duplicate `{field}` field"));
        }
        *slot = Some(value);
        Ok(())
    }

    fn build(self) -> Result<Core, SocError> {
        let as_u32 = |v: Option<u64>| v.unwrap_or(0).min(u64::from(u32::MAX)) as u32;
        Core::builder(self.name)
            .inputs(as_u32(self.inputs))
            .outputs(as_u32(self.outputs))
            .bidirs(as_u32(self.bidirs))
            .patterns(self.patterns.unwrap_or(1))
            .scan_chains(self.scan_chains.unwrap_or_default())
            .build()
    }
}

fn parse_int<'a, I: Iterator<Item = &'a str>>(
    tokens: &mut I,
    line: usize,
    field: &str,
) -> Result<u64, SocError> {
    let tok = tokens
        .next()
        .ok_or_else(|| parse_err(line, format!("missing `{field}` value")))?;
    tok.parse()
        .map_err(|_| parse_err(line, format!("invalid `{field}` value `{tok}`")))
}

fn expect_end<'a, I: Iterator<Item = &'a str>>(
    tokens: &mut I,
    line: usize,
) -> Result<(), SocError> {
    match tokens.next() {
        None => Ok(()),
        Some(extra) => err(line, format!("unexpected trailing token `{extra}`")),
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> SocError {
    SocError::Parse {
        line,
        message: message.into(),
    }
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, SocError> {
    Err(parse_err(line, message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn parses_minimal_soc() {
        let soc = parse_soc("soc s\ncore c\n inputs 1\nend\n").unwrap();
        assert_eq!(soc.name(), "s");
        assert_eq!(soc.core(0).unwrap().inputs(), 1);
        assert_eq!(soc.core(0).unwrap().patterns(), 1);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# header\nsoc s # trailing\n\ncore c\n inputs 2 # two\nend\n";
        let soc = parse_soc(text).unwrap();
        assert_eq!(soc.core(0).unwrap().inputs(), 2);
    }

    #[test]
    fn scanchains_parse_multiple_lengths() {
        let soc = parse_soc("soc s\ncore c\n patterns 5\n scanchains 3 2 1\nend\n").unwrap();
        assert_eq!(soc.core(0).unwrap().scan_chains(), &[3, 2, 1]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_soc("soc s\ncore c\n inputs\nend\n").unwrap_err();
        assert_eq!(
            err,
            SocError::Parse {
                line: 3,
                message: "missing `inputs` value".into()
            }
        );
    }

    #[test]
    fn only_ascii_whitespace_separates_tokens() {
        let soc = parse_soc("soc s\r\ncore\tc\n\x0c inputs  2 \nend\n").unwrap();
        assert_eq!(soc.core(0).unwrap().inputs(), 2);
        assert_eq!(
            parse_soc("soc s\ncore c\n inputs\u{a0}2\nend\n"),
            Err(SocError::Parse {
                line: 3,
                message: "unknown keyword `inputs\u{a0}2`".into()
            })
        );
    }

    #[test]
    fn rejects_unknown_keyword() {
        assert!(matches!(
            parse_soc("soc s\nwombat\n"),
            Err(SocError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn rejects_duplicate_fields() {
        assert!(matches!(
            parse_soc("soc s\ncore c\n inputs 1\n inputs 2\nend\n"),
            Err(SocError::Parse { line: 4, .. })
        ));
    }

    #[test]
    fn rejects_missing_end() {
        assert!(matches!(
            parse_soc("soc s\ncore c\n inputs 1\n"),
            Err(SocError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_field_outside_core() {
        assert!(matches!(
            parse_soc("soc s\ninputs 3\n"),
            Err(SocError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn rejects_core_before_soc() {
        assert!(matches!(
            parse_soc("core c\nend\n"),
            Err(SocError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn rejects_duplicate_soc_line() {
        assert!(matches!(
            parse_soc("soc a\nsoc b\n"),
            Err(SocError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn rejects_trailing_tokens() {
        assert!(matches!(
            parse_soc("soc s extra\n"),
            Err(SocError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn roundtrips_all_benchmarks() {
        for soc in benchmarks::all() {
            let text = write_soc(&soc);
            let parsed = parse_soc(&text).unwrap();
            assert_eq!(parsed, soc, "round-trip failed for {}", soc.name());
        }
    }

    #[test]
    fn semantic_errors_surface_from_builders() {
        let err = parse_soc("soc s\ncore a\n inputs 1\nend\ncore a\n inputs 2\nend\n").unwrap_err();
        assert_eq!(err, SocError::DuplicateCoreName { name: "a".into() });
    }
}
