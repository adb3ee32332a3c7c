//! Shared parsing for the `tamopt` command-line surfaces: the
//! `--threads` / `--time-limit` flag values (also used by the
//! `tamopt_bench` experiment harness so the two flag grammars cannot
//! drift apart), the batch-manifest request grammar and the serve
//! line protocol.
//!
//! The request-line parsers live here — not in the binary — so every
//! untrusted input surface is a library function: the binary, the
//! tests and the fuzz harness (`examples/fuzz.rs`) all exercise the
//! exact same code. SOC lookup is abstracted behind a [`SocResolver`]
//! because only the binary should touch the filesystem; library
//! callers pass a closure over [`tamopt_soc::benchmarks`] or an
//! in-memory table.

use std::time::Duration;

use tamopt_engine::SearchBudget;
use tamopt_service::{NetDirective, Request, RequestKind};
use tamopt_soc::Soc;

/// Maps a SOC name from a request line to a loaded [`Soc`]: the binary
/// resolves benchmark names and `.soc` paths, tests and fuzzers resolve
/// from memory.
pub type SocResolver<'a> = &'a dyn Fn(&str) -> Result<Soc, String>;

/// Parses a `--threads` value: a worker count, with `0` meaning one
/// thread per available CPU.
///
/// # Errors
///
/// A human-readable message for non-numeric input.
///
/// # Example
///
/// ```
/// assert_eq!(tamopt::cli::parse_threads("4"), Ok(4));
/// assert!(tamopt::cli::parse_threads("x").is_err());
/// ```
pub fn parse_threads(value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| "invalid --threads value".to_owned())
}

/// Parses a `--time-limit` value in (possibly fractional) seconds.
///
/// # Errors
///
/// A human-readable message for non-numeric, negative or non-finite
/// input.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// assert_eq!(
///     tamopt::cli::parse_time_limit("2.5"),
///     Ok(Duration::from_millis(2500))
/// );
/// assert!(tamopt::cli::parse_time_limit("-1").is_err());
/// assert!(tamopt::cli::parse_time_limit("inf").is_err());
/// ```
pub fn parse_time_limit(value: &str) -> Result<Duration, String> {
    let seconds: f64 = value
        .parse()
        .map_err(|_| "invalid --time-limit value".to_owned())?;
    // try_from (not from): enormous finite values must be a usage error,
    // not a panic.
    Duration::try_from_secs_f64(seconds).map_err(|_| "invalid --time-limit value".to_owned())
}

/// Parses one request line — `<soc> <width> <max-tams> [key=value]…` —
/// shared by the batch manifest and the serve protocol. The optional
/// pairs are `min-tams`, `priority`, `time-limit`, `node-budget` and
/// `kind` (`point` | `topk:K` | `frontier:LO..HI:STEP`, whose `HI`
/// must equal the positional `<width>`).
///
/// # Errors
///
/// A human-readable message naming the offending field.
pub fn parse_request_line(line: &str, resolve: SocResolver) -> Result<Request, String> {
    let mut fields = line.split_whitespace();
    let soc_name = fields.next().ok_or_else(|| "empty request".to_owned())?;
    let width: u32 = fields
        .next()
        .ok_or_else(|| "missing <width>".to_owned())?
        .parse()
        .map_err(|_| "invalid <width>".to_owned())?;
    let max_tams: u32 = fields
        .next()
        .ok_or_else(|| "missing <max-tams>".to_owned())?
        .parse()
        .map_err(|_| "invalid <max-tams>".to_owned())?;
    let soc = resolve(soc_name)?;
    let mut request = Request::new(soc, width)
        .map_err(|e| e.to_string())?
        .max_tams(max_tams);
    for option in fields {
        let (key, value) = option
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got `{option}`"))?;
        request = match key {
            "min-tams" => request.min_tams(
                value
                    .parse()
                    .map_err(|_| "invalid min-tams value".to_owned())?,
            ),
            "priority" => request.priority(
                value
                    .parse()
                    .map_err(|_| "invalid priority value".to_owned())?,
            ),
            "time-limit" => request.time_limit(parse_time_limit(value)?),
            "node-budget" => {
                let nodes: u64 = value
                    .parse()
                    .map_err(|_| "invalid node-budget value".to_owned())?;
                request.budget(SearchBudget::node_limited(nodes))
            }
            "kind" => {
                let kind: RequestKind = value.parse().map_err(|e| format!("{e}"))?;
                if let RequestKind::Frontier { max_width, .. } = kind {
                    // The positional <width> sizes the shared time
                    // table; a mismatched sweep maximum would silently
                    // re-size it, so demand they agree.
                    if max_width != width {
                        return Err(format!(
                            "frontier maximum {max_width} must equal the request width {width}"
                        ));
                    }
                }
                request.kind(kind)
            }
            other => return Err(format!("unknown option `{other}`")),
        };
    }
    Ok(request)
}

/// Parses a request manifest: one request per line, `#` comments.
///
/// # Errors
///
/// The first offending line's [`parse_request_line`] message, prefixed
/// with its 1-based line number; an empty manifest is an error too.
pub fn parse_manifest(text: &str, resolve: SocResolver) -> Result<Vec<Request>, String> {
    let mut requests = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or_default().trim();
        if line.is_empty() {
            continue;
        }
        let request = parse_request_line(line, resolve)
            .map_err(|message| format!("manifest line {}: {message}", number + 1))?;
        requests.push(request);
    }
    if requests.is_empty() {
        return Err("manifest contains no requests".to_owned());
    }
    Ok(requests)
}

/// The directive part of one serve line: the text before any `#`
/// comment, trimmed. Empty for blank and comment-only lines.
pub fn directive_text(raw: &str) -> &str {
    raw.split('#').next().unwrap_or_default().trim()
}

/// Parses one serve stdin line into an optional `@<generation>` tag —
/// the generation barrier a trace event applies at, a lower bound — and
/// a directive; comments and blank lines yield `Ok(None)`. A tagged
/// `Cancel` names a trace-global id, an untagged one a session-local id.
///
/// # Errors
///
/// A human-readable message naming the offending token.
#[allow(clippy::type_complexity)]
pub fn parse_serve_line(
    raw: &str,
    resolve: SocResolver,
) -> Result<Option<(Option<u32>, NetDirective)>, String> {
    let line = directive_text(raw);
    if line.is_empty() {
        return Ok(None);
    }
    let (tag, rest) = match line.strip_prefix('@') {
        Some(tagged) => {
            let (tag, rest) = tagged
                .split_once(char::is_whitespace)
                .ok_or_else(|| "missing directive after @<generation>".to_owned())?;
            let generation: u32 = tag
                .parse()
                .map_err(|_| format!("invalid generation tag `@{tag}`"))?;
            (Some(generation), rest.trim())
        }
        None => (None, line),
    };
    if rest == "stats" {
        return Ok(Some((tag, NetDirective::Stats)));
    }
    let directive = match rest.strip_prefix("cancel") {
        Some(id) if id.starts_with(char::is_whitespace) => {
            let id: usize = id
                .trim()
                .parse()
                .map_err(|_| format!("invalid cancel id `{}`", id.trim()))?;
            NetDirective::Cancel(id)
        }
        _ => NetDirective::Submit(parse_request_line(rest, resolve)?),
    };
    Ok(Some((tag, directive)))
}

/// Parses one line of a live session — `tamopt serve`'s stdin live mode
/// or one of its socket connections — and clamps a submission's node
/// budget to `max_budget` (`--max-budget`).
///
/// # Errors
///
/// As [`parse_serve_line`], and for an `@<generation>` tag: tags belong
/// to trace replay only.
pub fn parse_session_line(
    raw: &str,
    resolve: SocResolver,
    max_budget: Option<u64>,
) -> Result<Option<NetDirective>, String> {
    match parse_serve_line(raw, resolve)? {
        None => Ok(None),
        Some((Some(_), _)) => Err(
            "@<generation> tags are only valid in a trace, where every stdin line is tagged"
                .to_owned(),
        ),
        Some((None, NetDirective::Submit(mut request))) => {
            clamp_budget(&mut request, max_budget);
            Ok(Some(NetDirective::Submit(request)))
        }
        Some((None, directive)) => Ok(Some(directive)),
    }
}

/// Applies the server-side `--max-budget` clamp to one request: the
/// request keeps its own node budget if tighter, graceful degradation
/// instead of refusal otherwise.
pub fn clamp_budget(request: &mut Request, max_budget: Option<u64>) {
    if let Some(nodes) = max_budget {
        request.budget = request.budget.clone().and_node_budget(nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamopt_soc::benchmarks;

    /// The in-memory resolver of the tests (and the fuzz harness):
    /// benchmark names only, no filesystem.
    fn resolve(name: &str) -> Result<Soc, String> {
        match name {
            "d695" => Ok(benchmarks::d695()),
            "p21241" => Ok(benchmarks::p21241()),
            "p31108" => Ok(benchmarks::p31108()),
            "p93791" => Ok(benchmarks::p93791()),
            other => Err(format!("unknown SOC `{other}`")),
        }
    }

    #[test]
    fn parses_a_manifest() {
        let requests = parse_manifest(
            "# comment\n\
             d695   32 6\n\
             \n\
             p31108 32 4 priority=1 min-tams=2  # trailing comment\n\
             d695   16 2 node-budget=100\n",
            &resolve,
        )
        .unwrap();
        assert_eq!(requests.len(), 3);
        assert_eq!(requests[0].width, 32);
        assert_eq!(requests[0].max_tams, 6);
        assert_eq!(requests[0].priority, 0);
        assert_eq!(requests[1].soc.name(), "p31108");
        assert_eq!(requests[1].priority, 1);
        assert_eq!(requests[1].min_tams, 2);
        assert_eq!(requests[2].budget.node_budget(), Some(100));
    }

    #[test]
    fn manifest_errors_name_the_line() {
        let fail = |text: &str| parse_manifest(text, &resolve).unwrap_err();
        assert!(fail("").contains("no requests"));
        assert!(fail("d695\n").contains("line 1"));
        assert!(fail("d695 32\n").contains("max-tams"));
        assert!(fail("d695 32 4 bogus\n").contains("key=value"));
        assert!(fail("d695 32 4 zoom=1\n").contains("unknown option"));
        assert!(fail("nope.soc 32 4\n").contains("line 1"));
    }

    #[test]
    fn parses_kinds_in_request_lines() {
        let r = parse_request_line("d695 32 6 kind=topk:4", &resolve).unwrap();
        assert_eq!(r.kind, RequestKind::TopK { k: 4 });
        let r = parse_request_line("d695 64 6 kind=frontier:16..64:8", &resolve).unwrap();
        assert_eq!(
            r.kind,
            RequestKind::Frontier {
                min_width: 16,
                max_width: 64,
                step: 8
            }
        );
        assert_eq!(r.width, 64);
        // The sweep maximum must agree with the positional width.
        assert!(
            parse_request_line("d695 32 6 kind=frontier:16..64:8", &resolve)
                .unwrap_err()
                .contains("must equal")
        );
        assert!(parse_request_line("d695 32 6 kind=topk:0", &resolve).is_err());
        assert!(parse_request_line("d695 32 6 kind=bogus", &resolve).is_err());
        // Width 0 is rejected at request construction now.
        assert!(parse_request_line("d695 0 6", &resolve)
            .unwrap_err()
            .contains("width"));
    }

    #[test]
    fn parses_serve_lines() {
        assert!(parse_serve_line("# comment", &resolve).unwrap().is_none());
        assert!(parse_serve_line("   ", &resolve).unwrap().is_none());
        let (tag, line) = parse_serve_line("d695 32 6 priority=2", &resolve)
            .unwrap()
            .unwrap();
        assert!(tag.is_none());
        match line {
            NetDirective::Submit(request) => {
                assert_eq!(request.width, 32);
                assert_eq!(request.priority, 2);
            }
            other => panic!("expected a submit, got {other:?}"),
        }
        let (tag, line) = parse_serve_line("@3 cancel 7 # trailing", &resolve)
            .unwrap()
            .unwrap();
        assert_eq!(tag, Some(3));
        assert!(matches!(line, NetDirective::Cancel(7)));
        let (tag, line) = parse_serve_line("@0 d695 16 2", &resolve).unwrap().unwrap();
        assert_eq!(tag, Some(0));
        assert!(matches!(line, NetDirective::Submit(_)));
    }

    #[test]
    fn parses_stats_lines() {
        let (tag, line) = parse_serve_line("stats  # comment", &resolve)
            .unwrap()
            .unwrap();
        assert!(tag.is_none());
        assert!(matches!(line, NetDirective::Stats));
        let (tag, line) = parse_serve_line("@2 stats", &resolve).unwrap().unwrap();
        assert_eq!(tag, Some(2));
        assert!(matches!(line, NetDirective::Stats));
    }

    #[test]
    fn serve_line_errors_are_precise() {
        let fail = |raw: &str| parse_serve_line(raw, &resolve).unwrap_err();
        assert!(fail("@x d695 16 2").contains("generation tag"));
        assert!(fail("@1/x d695 16 2").contains("invalid generation tag `@1/x`"));
        assert!(fail("@x/0 d695 16 2").contains("generation tag"));
        assert!(fail("@5").contains("missing directive"));
        assert!(fail("cancel seven").contains("invalid cancel id"));
        assert!(fail("d695 16").contains("max-tams"));
        // `cancel` with no id falls through to request parsing and
        // errors there (no SOC named `cancel`).
        assert!(parse_serve_line("cancel", &resolve).is_err());
    }

    #[test]
    fn session_lines_reject_tags_and_clamp_budgets() {
        let parse = |raw: &str| parse_session_line(raw, &resolve, Some(500));
        assert!(parse("@0 d695 16 2").unwrap_err().contains("trace"));
        assert!(matches!(
            parse("cancel 3"),
            Ok(Some(NetDirective::Cancel(3)))
        ));
        let budget = |raw: &str| match parse(raw) {
            Ok(Some(NetDirective::Submit(request))) => request.budget.node_budget(),
            other => panic!("expected a submit, got {other:?}"),
        };
        assert_eq!(budget("d695 16 2"), Some(500), "clamped to --max-budget");
        assert_eq!(
            budget("d695 16 2 node-budget=100"),
            Some(100),
            "own budget is tighter"
        );
    }

    #[test]
    fn threads_parse() {
        assert_eq!(parse_threads("0"), Ok(0));
        assert_eq!(parse_threads("16"), Ok(16));
        assert!(parse_threads("").is_err());
        assert!(parse_threads("-1").is_err());
        assert!(parse_threads("four").is_err());
    }

    #[test]
    fn time_limit_parse() {
        assert_eq!(parse_time_limit("0"), Ok(Duration::ZERO));
        assert_eq!(parse_time_limit("1.5"), Ok(Duration::from_millis(1500)));
        assert!(parse_time_limit("nan").is_err());
        assert!(
            parse_time_limit("1e20").is_err(),
            "overflow is an error, not a panic"
        );
        assert!(parse_time_limit("inf").is_err());
        assert!(parse_time_limit("-0.1").is_err());
        assert!(parse_time_limit("abc").is_err());
    }
}
