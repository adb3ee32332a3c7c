//! Deterministic multi-client chaos replay.
//!
//! The live front-end ([`crate::net`]) is inherently racy: outcome
//! interleavings across sockets depend on the scheduler. This module is
//! its deterministic twin — the multi-client extension of
//! [`LiveQueue::replay`]: every client is a **script** of
//! generation-tagged raw protocol lines plus an optional mid-run
//! disconnect, and [`replay`] compiles the scripts into one [`Trace`],
//! replayed by [`LiveQueue::replay`], with exactly the semantics the
//! socket server applies live:
//!
//! * submissions get global ids in merge order (generation, then
//!   client, then script position) and local per-client ids in script
//!   order;
//! * malformed lines, out-of-namespace cancels and unsupported verbs
//!   are answered with the same versioned [`error_line`]s the server
//!   sends, collected per client;
//! * a disconnect at generation `g` cancels every outstanding
//!   submission of that client at `g` — queued ones surface as
//!   `cancelled`, a dispatched one finishes truncated at the barrier
//!   and still records into the shared warm cache — and the client's
//!   remaining script is discarded, exactly as if the connection
//!   dropped;
//! * the replayed outcome stream is split into per-client transcripts,
//!   each line stamped `"client": C` and renumbered to the client's
//!   local namespace.
//!
//! Because the whole scenario becomes one replay trace, every
//! transcript and the final report are **byte-identical across thread
//! counts** — the contract asserted by the chaos suite and
//! `examples/chaos.rs` over threads {1, 2, 8}.

use std::collections::HashSet;

use crate::live::{LiveConfig, LiveQueue, Trace};
use crate::net::{error_line, Frame, LineFramer, NetDirective, Refusal};
use crate::report::{BatchReport, RequestOutcome};

/// One scripted client: generation-tagged protocol lines and an
/// optional disconnect. Generations are lower bounds exactly as in
/// [`Trace`]; events keep script order within a generation.
#[derive(Debug, Clone, Default)]
pub struct ClientScript {
    events: Vec<(u32, ScriptEvent)>,
}

#[derive(Debug, Clone)]
enum ScriptEvent {
    Line(String),
    Disconnect,
}

impl ClientScript {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one raw protocol line arriving at generation barrier
    /// `generation` (newline not required).
    pub fn line_at(mut self, generation: u32, line: impl Into<String>) -> Self {
        self.events
            .push((generation, ScriptEvent::Line(line.into())));
        self
    }

    /// Drops the client's connection at generation barrier
    /// `generation`: outstanding submissions are cancelled and the rest
    /// of the script (if any) never arrives.
    pub fn disconnect_at(mut self, generation: u32) -> Self {
        self.events.push((generation, ScriptEvent::Disconnect));
        self
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the script holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A whole scenario: one script per client, client ids by position.
#[derive(Debug, Clone, Default)]
pub struct ChaosScenario {
    /// Per-client scripts; client `C` is `clients[C]`.
    pub clients: Vec<ClientScript>,
}

impl ChaosScenario {
    /// A scenario over the given client scripts.
    pub fn new(clients: Vec<ClientScript>) -> Self {
        ChaosScenario { clients }
    }
}

/// Everything one client observed: protocol responses (error lines,
/// in script order) and its outcome lines (client-stamped, local ids,
/// in stream order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientTranscript {
    /// Versioned error lines answering this client's malformed input.
    pub responses: Vec<String>,
    /// The client's outcome lines, exactly as the server would emit
    /// them (all of them — transport truncation after a real disconnect
    /// is not modeled here).
    pub outcomes: Vec<String>,
}

/// The result of a chaos [`replay`].
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Per-client transcripts, indexed like
    /// [`ChaosScenario::clients`].
    pub transcripts: Vec<ClientTranscript>,
    /// The final report: global submission order, client-stamped.
    pub report: BatchReport,
}

impl ChaosOutcome {
    /// The report rendered as JSON minus `wall_clock*` lines — the
    /// byte-comparable portion.
    pub fn stable_report(&self) -> String {
        self.report
            .to_json()
            .lines()
            .filter(|l| !l.contains("wall_clock"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Compiled per-client state while merging scripts into one trace.
struct ClientState {
    /// Local id → global id.
    globals: Vec<usize>,
    /// Global ids already cancelled (explicitly or by disconnect).
    cancelled: HashSet<usize>,
    disconnected: bool,
    responses: Vec<String>,
}

/// Replays a multi-client scenario deterministically and returns the
/// per-client transcripts plus the client-stamped final report.
///
/// `parser` maps raw lines to directives, exactly as the injected
/// [`crate::net::LineParser`] does for the socket server.
/// Lines are pushed through the same [`LineFramer`] the server uses, so
/// embedded newlines and oversized scripted lines behave identically.
pub fn replay(
    scenario: &ChaosScenario,
    config: LiveConfig,
    parser: &dyn Fn(&str) -> Result<Option<NetDirective>, String>,
) -> ChaosOutcome {
    // Merge the scripts: stable order by (generation, client, script
    // position). `sort_by_key` is stable, and scripts are flattened in
    // (client, position) order, so sorting by generation alone keeps
    // the tiebreak.
    let mut merged: Vec<(u32, usize, &ScriptEvent)> = Vec::new();
    for (client, script) in scenario.clients.iter().enumerate() {
        for (generation, event) in &script.events {
            merged.push((*generation, client, event));
        }
    }
    merged.sort_by_key(|&(generation, _, _)| generation);

    let mut states: Vec<ClientState> = scenario
        .clients
        .iter()
        .map(|_| ClientState {
            globals: Vec::new(),
            cancelled: HashSet::new(),
            disconnected: false,
            responses: Vec::new(),
        })
        .collect();

    // Compile to one trace; global ids are assigned by submission order
    // within it, matching Trace numbering.
    let mut trace = Trace::new();
    let mut next_global = 0usize;
    // Global id → client, for splitting the stream afterwards.
    let mut owner: Vec<usize> = Vec::new();
    // Global id → local id within its client.
    let mut local_of: Vec<usize> = Vec::new();

    for (generation, client, event) in merged {
        if states[client].disconnected {
            continue;
        }
        match event {
            ScriptEvent::Disconnect => {
                let state = &mut states[client];
                state.disconnected = true;
                for &global in &state.globals {
                    if state.cancelled.insert(global) {
                        trace = trace.cancel_at(generation, global);
                    }
                }
            }
            ScriptEvent::Line(raw) => {
                // The same framing as the socket path: a scripted
                // "line" may contain embedded newlines or exceed the
                // frame limit, and must behave identically.
                let mut framer = LineFramer::new();
                let mut frames = framer.push(raw.as_bytes());
                frames.extend(framer.finish());
                for frame in frames {
                    let text = match frame {
                        Frame::Oversized => {
                            let line = Refusal::Oversized.error_line(client);
                            states[client].responses.push(line);
                            continue;
                        }
                        Frame::Line(text) => text,
                    };
                    match parser(&text) {
                        Err(detail) => {
                            let line = Refusal::Parse(detail).error_line(client);
                            states[client].responses.push(line);
                        }
                        Ok(None) => {}
                        Ok(Some(NetDirective::Submit(request))) => {
                            let global = next_global;
                            next_global += 1;
                            trace = trace.submit_at(generation, request);
                            states[client].globals.push(global);
                            owner.push(client);
                            local_of.push(states[client].globals.len() - 1);
                        }
                        Ok(Some(NetDirective::Cancel(local))) => {
                            let state = &mut states[client];
                            if local >= state.globals.len() {
                                let refusal = Refusal::UnknownId {
                                    id: local,
                                    submitted: state.globals.len(),
                                };
                                state.responses.push(refusal.error_line(client));
                            } else {
                                let global = state.globals[local];
                                if state.cancelled.insert(global) {
                                    trace = trace.cancel_at(generation, global);
                                }
                            }
                        }
                        Ok(Some(NetDirective::Stats)) => {
                            states[client].responses.push(error_line(
                                client,
                                "unsupported",
                                "stats is a live-only verb; replay has no queue to inspect",
                            ));
                        }
                    }
                }
            }
        }
    }

    let (stream, mut report) = LiveQueue::replay(trace, config);

    let mut transcripts: Vec<ClientTranscript> = states
        .into_iter()
        .map(|state| ClientTranscript {
            responses: state.responses,
            outcomes: Vec::new(),
        })
        .collect();
    for outcome in stream {
        let client = owner[outcome.index];
        let line = stamp(outcome, client, &local_of);
        transcripts[client].outcomes.push(line);
    }
    for outcome in &mut report.outcomes {
        outcome.client = Some(owner[outcome.index]);
    }

    ChaosOutcome {
        transcripts,
        report,
    }
}

/// Renders `outcome` as the line the server would send to `client`:
/// client-stamped, index renumbered to the client's namespace.
fn stamp(mut outcome: RequestOutcome, client: usize, local_of: &[usize]) -> String {
    outcome.client = Some(client);
    outcome.index = local_of[outcome.index];
    outcome.to_json_line()
}
