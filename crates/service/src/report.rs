//! Batch outcomes and their deterministic JSON rendering.

use std::fmt::Write as _;
use std::time::Duration;

use tamopt_partition::CoOptimization;

use crate::request::RequestKind;

/// Version of the JSON-lines wire format written by
/// [`RequestOutcome::to_json_line`]. Every line carries it as its
/// leading `"v"` field so stream consumers can check compatibility
/// before parsing anything else.
pub const WIRE_VERSION: u32 = 1;

/// How one request in a batch ended.
///
/// The JSON wire encoding is the lower-case [`RequestStatus::as_str`]
/// name, written by [`BatchReport::to_json`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStatus {
    /// The partition scan covered its whole space (the final exact step
    /// may still be unproven — see
    /// [`CoOptimization::final_step_optimal`]).
    Complete,
    /// Dispatched, but truncated by a deadline or node budget: the
    /// result covers a prefix of the scan and is valid.
    Partial,
    /// Truncated because a cancellation flag on this request's own
    /// budget was tripped — the [`tamopt_engine::CancelHandle`] its
    /// queue handed out, or one attached before submission; the result
    /// is partial but valid.
    Cancelled,
    /// Never dispatched — the batch-global budget ran out first.
    Skipped,
    /// Never dispatched — evicted by overload protection: the backlog
    /// was at its [`max_pending`](crate::LiveConfig::max_pending) cap
    /// and this request had the lowest aged effective priority; see
    /// [`RequestOutcome::error`] for the shedding note.
    Shed,
    /// The request itself was invalid (e.g. zero width); see
    /// [`RequestOutcome::error`].
    Failed,
}

impl RequestStatus {
    /// The stable lower-case name used in JSON reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            RequestStatus::Complete => "complete",
            RequestStatus::Partial => "partial",
            RequestStatus::Cancelled => "cancelled",
            RequestStatus::Skipped => "skipped",
            RequestStatus::Shed => "shed",
            RequestStatus::Failed => "failed",
        }
    }
}

impl std::fmt::Display for RequestStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One entry of a request's [`RequestOutcome::results`] payload: a
/// ranked architecture (top-K) or a swept width (frontier). Point
/// queries carry exactly one entry.
#[derive(Debug, Clone)]
pub struct ResultEntry {
    /// Total TAM width of this entry — the request's width except for
    /// frontier sweeps, where each entry has its own.
    pub width: u32,
    /// The co-optimized architecture.
    pub result: CoOptimization,
    /// Bottleneck lower bound at `width` (frontier entries only).
    pub lower_bound: Option<u64>,
}

/// The outcome of one request, in submission order within
/// [`BatchReport::outcomes`].
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Submission index within the batch.
    pub index: usize,
    /// The client that submitted the request, when it arrived over the
    /// network front-end ([`crate::net::NetServer`]). `None` for
    /// batches, local queues and trace replay — and then absent from
    /// the JSON renderings, so all single-client output is
    /// byte-identical to earlier wire versions.
    pub client: Option<usize>,
    /// The shard that executed the request, when its queue stamps
    /// shards ([`crate::LiveConfig::shards`] is `Some`). `None` for
    /// plain batches and unstamped queues — and then absent from the
    /// JSON renderings, so all unsharded output is byte-identical to
    /// earlier wire versions.
    pub shard: Option<usize>,
    /// Name of the request's SOC.
    pub soc: String,
    /// Requested total TAM width.
    pub width: u32,
    /// Requested smallest TAM count.
    pub min_tams: u32,
    /// Requested largest TAM count.
    pub max_tams: u32,
    /// Scheduling priority the request ran under.
    pub priority: i32,
    /// The query kind the request ran as.
    pub kind: RequestKind,
    /// How the request ended.
    pub status: RequestStatus,
    /// The headline co-optimization result (`None` for skipped and
    /// failed requests): the single result of a point query, the rank-1
    /// entry of a top-K query, the best (widest-preferring only on
    /// strictly better times) point of a frontier sweep.
    pub result: Option<CoOptimization>,
    /// The full result payload: one entry for a point query, `k` ranked
    /// entries for top-K, one entry per swept width for a frontier.
    /// Empty for skipped and failed requests.
    pub results: Vec<ResultEntry>,
    /// The failure message for [`RequestStatus::Failed`].
    pub error: Option<String>,
}

impl RequestOutcome {
    /// SOC testing time of the headline architecture, if the request
    /// produced one.
    pub fn soc_time(&self) -> Option<u64> {
        self.result.as_ref().map(CoOptimization::soc_time)
    }

    /// Renders the outcome as one compact JSON line — the streaming wire
    /// format of the live daemon (`tamopt serve`), versioned by the
    /// leading `"v"` field ([`WIRE_VERSION`]).
    ///
    /// Deliberately free of wall-clock quantities: every line of the
    /// stream is **deterministic** for a fixed submission trace, so two
    /// serve runs diff clean without any filtering. The trailing newline
    /// is included. Non-point kinds append a `"results"` array with one
    /// `{rank, width, soc_time, num_tams, tams[, lower_bound]}` object
    /// per entry; the headline fields (`soc_time`, `tams`, …) always
    /// describe [`RequestOutcome::result`].
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(out, "{{\"v\": {}, \"id\": {}", WIRE_VERSION, self.index);
        if let Some(client) = self.client {
            let _ = write!(out, ", \"client\": {client}");
        }
        if let Some(shard) = self.shard {
            let _ = write!(out, ", \"shard\": {shard}");
        }
        let _ = write!(
            out,
            ", \"soc\": {}, \"width\": {}, \"min_tams\": {}, \
             \"max_tams\": {}, \"priority\": {}, \"kind\": {}, \"status\": {}",
            json_string(&self.soc),
            self.width,
            self.min_tams,
            self.max_tams,
            self.priority,
            json_string(&self.kind.label()),
            json_string(self.status.as_str()),
        );
        match (&self.result, &self.error) {
            (Some(co), _) => {
                let _ = write!(
                    out,
                    ", \"soc_time\": {}, \"heuristic_time\": {}, \"tams\": {}, \
                     \"assignment\": {}, \"final_step_optimal\": {}, \
                     \"evaluate_complete\": {}, \"stats\": {{\"enumerated\": {}, \
                     \"completed\": {}, \"aborted\": {}}}",
                    co.soc_time(),
                    co.heuristic.soc_time(),
                    json_u32_array(co.tams.widths()),
                    json_usize_array(co.optimized.assignment()),
                    co.final_step_optimal,
                    co.evaluate_complete,
                    co.stats.enumerated,
                    co.stats.completed,
                    co.stats.aborted,
                );
                if self.kind != RequestKind::Point {
                    out.push_str(", \"results\": [");
                    for (rank, entry) in self.results.iter().enumerate() {
                        if rank > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(
                            out,
                            "{{\"rank\": {}, \"width\": {}, \"soc_time\": {}, \
                             \"num_tams\": {}, \"tams\": {}",
                            rank + 1,
                            entry.width,
                            entry.result.soc_time(),
                            entry.result.tams.len(),
                            json_u32_array(entry.result.tams.widths()),
                        );
                        if let Some(bound) = entry.lower_bound {
                            let _ = write!(out, ", \"lower_bound\": {bound}");
                        }
                        out.push('}');
                    }
                    out.push(']');
                }
            }
            (None, Some(message)) => {
                let _ = write!(out, ", \"error\": {}", json_string(message));
            }
            (None, None) => {}
        }
        out.push_str("}\n");
        out
    }
}

/// Everything a queue run produced, outcomes in submission order
/// regardless of priorities, completion order or thread count. The live
/// dispatcher assembles it for every front-end: a
/// [`LiveQueue`](crate::LiveQueue) at shutdown or after a replay, and a
/// [`crate::Batch::run`], which is a replay of the batch with every
/// request submitted at generation 0.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-request outcomes, indexed by submission order.
    pub outcomes: Vec<RequestOutcome>,
    /// Whether every request was dispatched (no
    /// [`RequestStatus::Skipped`] outcome). Individual requests may
    /// still be partial or failed — inspect their statuses.
    pub complete: bool,
    /// Wall-clock time of the whole batch.
    pub wall_time: Duration,
}

impl BatchReport {
    /// Number of outcomes with the given status.
    pub fn count(&self, status: RequestStatus) -> usize {
        self.outcomes.iter().filter(|o| o.status == status).count()
    }

    /// Renders the report as pretty-printed JSON.
    ///
    /// The rendering is **deterministic** — fixed key order, integer
    /// quantities, stable status names — except for wall-clock
    /// durations, which are integers of milliseconds on lines whose key
    /// starts with `wall_clock`. Filtering those lines (e.g.
    /// `grep -v wall_clock`) therefore yields byte-identical reports
    /// across thread counts.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"tamopt.batch-report/v1\",\n");
        let _ = writeln!(out, "  \"complete\": {},", self.complete);
        let _ = writeln!(out, "  \"requests\": [");
        for (i, outcome) in self.outcomes.iter().enumerate() {
            let comma = if i + 1 < self.outcomes.len() { "," } else { "" };
            write_outcome(&mut out, outcome, comma);
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"wall_clock_ms\": {}", self.wall_time.as_millis());
        out.push_str("}\n");
        out
    }
}

fn write_outcome(out: &mut String, outcome: &RequestOutcome, comma: &str) {
    out.push_str("    {\n");
    let _ = writeln!(out, "      \"index\": {},", outcome.index);
    if let Some(client) = outcome.client {
        let _ = writeln!(out, "      \"client\": {client},");
    }
    if let Some(shard) = outcome.shard {
        let _ = writeln!(out, "      \"shard\": {shard},");
    }
    let _ = writeln!(out, "      \"soc\": {},", json_string(&outcome.soc));
    let _ = writeln!(out, "      \"width\": {},", outcome.width);
    let _ = writeln!(out, "      \"min_tams\": {},", outcome.min_tams);
    let _ = writeln!(out, "      \"max_tams\": {},", outcome.max_tams);
    let _ = writeln!(out, "      \"priority\": {},", outcome.priority);
    let _ = writeln!(
        out,
        "      \"kind\": {},",
        json_string(&outcome.kind.label())
    );
    match (&outcome.result, &outcome.error) {
        (Some(co), _) => {
            let _ = writeln!(
                out,
                "      \"status\": {},",
                json_string(outcome.status.as_str())
            );
            let _ = writeln!(out, "      \"soc_time\": {},", co.soc_time());
            let _ = writeln!(
                out,
                "      \"heuristic_time\": {},",
                co.heuristic.soc_time()
            );
            let _ = writeln!(out, "      \"tams\": {},", json_u32_array(co.tams.widths()));
            let _ = writeln!(
                out,
                "      \"assignment\": {},",
                json_usize_array(co.optimized.assignment())
            );
            let _ = writeln!(
                out,
                "      \"final_step_optimal\": {},",
                co.final_step_optimal
            );
            let _ = writeln!(
                out,
                "      \"evaluate_complete\": {},",
                co.evaluate_complete
            );
            let _ = writeln!(
                out,
                "      \"stats\": {{ \"enumerated\": {}, \"completed\": {}, \"aborted\": {} }},",
                co.stats.enumerated, co.stats.completed, co.stats.aborted
            );
            if outcome.kind != RequestKind::Point {
                let _ = writeln!(out, "      \"results\": [");
                for (rank, entry) in outcome.results.iter().enumerate() {
                    let comma = if rank + 1 < outcome.results.len() {
                        ","
                    } else {
                        ""
                    };
                    let mut line = format!(
                        "{{ \"rank\": {}, \"width\": {}, \"soc_time\": {}, \
                         \"num_tams\": {}, \"tams\": {}",
                        rank + 1,
                        entry.width,
                        entry.result.soc_time(),
                        entry.result.tams.len(),
                        json_u32_array(entry.result.tams.widths()),
                    );
                    if let Some(bound) = entry.lower_bound {
                        let _ = write!(line, ", \"lower_bound\": {bound}");
                    }
                    let _ = writeln!(out, "        {line} }}{comma}");
                }
                let _ = writeln!(out, "      ],");
            }
            let _ = writeln!(
                out,
                "      \"wall_clock_evaluate_ms\": {},",
                co.evaluate_time.as_millis()
            );
            let _ = writeln!(
                out,
                "      \"wall_clock_final_ms\": {}",
                co.final_time.as_millis()
            );
        }
        (None, Some(message)) => {
            let _ = writeln!(
                out,
                "      \"status\": {},",
                json_string(outcome.status.as_str())
            );
            let _ = writeln!(out, "      \"error\": {}", json_string(message));
        }
        (None, None) => {
            let _ = writeln!(
                out,
                "      \"status\": {}",
                json_string(outcome.status.as_str())
            );
        }
    }
    let _ = writeln!(out, "    }}{comma}");
}

/// Escapes `value` as a JSON string literal (quotes included).
pub(crate) fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_u32_array(values: &[u32]) -> String {
    let items: Vec<String> = values.iter().map(u32::to_string).collect();
    format!("[{}]", items.join(", "))
}

fn json_usize_array(values: &[usize]) -> String {
    let items: Vec<String> = values.iter().map(usize::to_string).collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn arrays_render_compactly() {
        assert_eq!(json_u32_array(&[8, 12, 12]), "[8, 12, 12]");
        assert_eq!(json_usize_array(&[]), "[]");
    }

    #[test]
    fn json_lines_are_compact_and_wall_clock_free() {
        let outcome = RequestOutcome {
            index: 3,
            client: None,
            shard: None,
            soc: "d695".to_owned(),
            width: 16,
            min_tams: 1,
            max_tams: 2,
            priority: 7,
            kind: RequestKind::Point,
            status: RequestStatus::Skipped,
            result: None,
            results: Vec::new(),
            error: None,
        };
        let line = outcome.to_json_line();
        assert!(line.ends_with("}\n"));
        assert_eq!(line.lines().count(), 1, "exactly one line");
        assert!(line.starts_with("{\"v\": 1, "), "version field leads");
        assert!(line.contains("\"id\": 3"));
        assert!(line.contains("\"kind\": \"point\""));
        assert!(line.contains("\"status\": \"skipped\""));
        assert!(!line.contains("wall_clock"));
        assert!(!line.contains("shard"), "unsharded lines carry no stamp");
        assert!(!line.contains("client"), "local lines carry no stamp");
        let sharded = RequestOutcome {
            shard: Some(2),
            ..outcome.clone()
        };
        assert!(
            sharded
                .to_json_line()
                .starts_with("{\"v\": 1, \"id\": 3, \"shard\": 2, "),
            "the shard stamp follows the id"
        );
        let networked = RequestOutcome {
            client: Some(4),
            shard: Some(2),
            ..outcome.clone()
        };
        assert!(
            networked
                .to_json_line()
                .starts_with("{\"v\": 1, \"id\": 3, \"client\": 4, \"shard\": 2, "),
            "the client stamp sits between the id and the shard"
        );
        let failed = RequestOutcome {
            status: RequestStatus::Failed,
            error: Some("zero width".to_owned()),
            ..outcome
        };
        assert!(failed.to_json_line().contains("\"error\": \"zero width\""));
    }

    #[test]
    fn status_names_are_stable() {
        for (status, name) in [
            (RequestStatus::Complete, "complete"),
            (RequestStatus::Partial, "partial"),
            (RequestStatus::Cancelled, "cancelled"),
            (RequestStatus::Skipped, "skipped"),
            (RequestStatus::Shed, "shed"),
            (RequestStatus::Failed, "failed"),
        ] {
            assert_eq!(status.as_str(), name);
            assert_eq!(status.to_string(), name);
        }
    }
}
