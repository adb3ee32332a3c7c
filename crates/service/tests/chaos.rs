//! Chaos-replay determinism: multi-client scenarios with injected
//! disconnects, malformed lines and namespace violations must replay
//! byte-identically across threads {1, 2, 8} × shards {flat, 1, 2, 4},
//! and a client's disconnect must be indistinguishable (to its
//! siblings) from explicit cancellation at the same point.

use tamopt_service::chaos::{replay, ChaosScenario, ClientScript};
use tamopt_service::{LiveConfig, NetDirective, Request};
use tamopt_soc::benchmarks;

/// The minimal test grammar: `<soc> <width> <max-tams> [priority=P]`,
/// `cancel <id>`, `stats`, `#` comments — a stand-in for the CLI
/// grammar, which lives above this crate.
fn parse(line: &str) -> Result<Option<NetDirective>, String> {
    let line = line.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let first = parts.next().unwrap();
    if first == "stats" {
        return Ok(Some(NetDirective::Stats));
    }
    if first == "cancel" {
        let id = parts
            .next()
            .ok_or_else(|| "cancel needs an id".to_owned())?
            .parse()
            .map_err(|_| "invalid cancel id".to_owned())?;
        return Ok(Some(NetDirective::Cancel(id)));
    }
    let soc = match first {
        "d695" => benchmarks::d695(),
        "p31108" => benchmarks::p31108(),
        other => return Err(format!("unknown soc `{other}`")),
    };
    let width: u32 = parts
        .next()
        .ok_or_else(|| "missing width".to_owned())?
        .parse()
        .map_err(|_| "invalid width".to_owned())?;
    let max_tams: u32 = parts
        .next()
        .ok_or_else(|| "missing max-tams".to_owned())?
        .parse()
        .map_err(|_| "invalid max-tams".to_owned())?;
    let mut request = Request::new(soc, width)
        .map_err(|e| e.to_string())?
        .max_tams(max_tams);
    for kv in parts {
        match kv.strip_prefix("priority=") {
            Some(p) => {
                request = request.priority(p.parse().map_err(|_| "invalid priority".to_owned())?);
            }
            None => return Err(format!("unknown key `{kv}`")),
        }
    }
    Ok(Some(NetDirective::Submit(request)))
}

/// A scenario exercising every chaos ingredient: concurrent clients,
/// generation-tagged interleavings, a mid-run disconnect, malformed
/// lines, an out-of-namespace cancel and an unsupported verb.
fn chaos_scenario() -> ChaosScenario {
    ChaosScenario::new(vec![
        // Client 0: a steady submitter across generations.
        ClientScript::new()
            .line_at(0, "d695 16 2")
            .line_at(0, "p31108 24 3")
            .line_at(2, "d695 24 3 priority=5"),
        // Client 1: submits twice, then drops mid-run.
        ClientScript::new()
            .line_at(0, "d695 32 6")
            .line_at(0, "d695 12 2")
            .disconnect_at(1)
            .line_at(2, "d695 8 1"), // never arrives
        // Client 2: hostile input — the connection must survive it all.
        ClientScript::new()
            .line_at(0, "definitely not a request")
            .line_at(0, "d695 16 2 priority=1")
            .line_at(1, "cancel 7") // outside its namespace
            .line_at(1, "stats") // unsupported in replay
            .line_at(1, "cancel 0"), // in-namespace, may already be done
    ])
}

#[test]
fn chaos_replay_is_byte_identical_across_threads_and_shards() {
    let scenario = chaos_scenario();
    for shards in [None, Some(1), Some(2), Some(4)] {
        let reference = replay(
            &scenario,
            LiveConfig {
                shards,
                ..LiveConfig::with_threads(1)
            },
            &parse,
        );
        assert_eq!(reference.transcripts.len(), 3);
        // The reference itself is sane: client 1's dropped submission
        // never ran, client 2 got its three error lines.
        assert_eq!(
            reference.report.outcomes.len(),
            6,
            "five surviving submissions + client 2's one (shards {shards:?})"
        );
        let responses: Vec<&str> = reference.transcripts[2]
            .responses
            .iter()
            .map(String::as_str)
            .collect();
        assert_eq!(responses.len(), 3);
        assert!(responses[0].contains("\"error\": \"parse\""));
        assert!(responses[1].contains("\"error\": \"unknown-id\""));
        assert!(responses[2].contains("\"error\": \"unsupported\""));
        for threads in [2, 8] {
            let run = replay(
                &scenario,
                LiveConfig {
                    shards,
                    ..LiveConfig::with_threads(threads)
                },
                &parse,
            );
            assert_eq!(
                run.transcripts, reference.transcripts,
                "transcripts drifted at threads {threads}, shards {shards:?}"
            );
            assert_eq!(
                run.stable_report(),
                reference.stable_report(),
                "report drifted at threads {threads}, shards {shards:?}"
            );
        }
    }
}

#[test]
fn outcome_lines_carry_client_stamps_and_local_ids() {
    let scenario = ChaosScenario::new(vec![
        ClientScript::new()
            .line_at(0, "d695 16 2")
            .line_at(0, "d695 12 2"),
        ClientScript::new().line_at(0, "p31108 24 3"),
    ]);
    let out = replay(&scenario, LiveConfig::with_threads(1), &parse);
    assert_eq!(out.transcripts[0].outcomes.len(), 2);
    assert_eq!(out.transcripts[1].outcomes.len(), 1);
    for (local, line) in out.transcripts[0].outcomes.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"v\": 1, \"id\": {local}, \"client\": 0, ")),
            "client 0 line {local}: {line}"
        );
    }
    assert!(out.transcripts[1].outcomes[0].starts_with("{\"v\": 1, \"id\": 0, \"client\": 1, "));
    // The report keeps global ids, stamped with their clients.
    let stamps: Vec<Option<usize>> = out.report.outcomes.iter().map(|o| o.client).collect();
    assert_eq!(stamps, vec![Some(0), Some(0), Some(1)]);
    assert!(out.report.to_json().contains("\"client\": 1,"));
}

#[test]
fn oversized_scripted_lines_get_an_error_and_the_client_survives() {
    let huge = "x".repeat(tamopt_service::MAX_LINE_LEN + 1);
    let scenario = ChaosScenario::new(vec![ClientScript::new()
        .line_at(0, huge)
        .line_at(0, "d695 16 2")]);
    let out = replay(&scenario, LiveConfig::with_threads(1), &parse);
    assert_eq!(out.transcripts[0].responses.len(), 1);
    assert!(out.transcripts[0].responses[0].contains("\"error\": \"oversized\""));
    assert_eq!(out.transcripts[0].outcomes.len(), 1, "the follow-up ran");
}

/// Satellite: a client dropping while its work is dispatched must be
/// invisible to siblings — byte-identical to a run where that client
/// explicitly cancelled everything at the same generation and sent
/// nothing more.
#[test]
fn disconnect_mid_run_is_indistinguishable_from_explicit_cancels_for_siblings() {
    let sibling = ClientScript::new()
        .line_at(0, "d695 16 2")
        .line_at(1, "p31108 24 3")
        .line_at(3, "d695 24 3");
    // Scenario A: client 1 disconnects at generation 1 — its first
    // request is already dispatched (generation 0 dispatches one
    // request), the second is still queued, the third never arrives.
    let dropped = ClientScript::new()
        .line_at(0, "d695 32 6")
        .line_at(0, "d695 12 2")
        .disconnect_at(1)
        .line_at(3, "d695 8 1");
    // Scenario B: same client, but the disconnect is spelled out as
    // explicit in-namespace cancels at the same generation, and the
    // post-disconnect submission simply does not exist.
    let cancelled = ClientScript::new()
        .line_at(0, "d695 32 6")
        .line_at(0, "d695 12 2")
        .line_at(1, "cancel 0")
        .line_at(1, "cancel 1");
    for shards in [None, Some(2)] {
        for threads in [1, 2] {
            let config = LiveConfig {
                shards,
                ..LiveConfig::with_threads(threads)
            };
            let a = replay(
                &ChaosScenario::new(vec![sibling.clone(), dropped.clone()]),
                config.clone(),
                &parse,
            );
            let b = replay(
                &ChaosScenario::new(vec![sibling.clone(), cancelled.clone()]),
                config,
                &parse,
            );
            assert_eq!(
                a.transcripts[0], b.transcripts[0],
                "sibling transcript perturbed by the disconnect \
                 (threads {threads}, shards {shards:?})"
            );
            // The dropped client's own outcomes match too: a disconnect
            // is exactly cancel-everything at that generation.
            assert_eq!(a.transcripts[1].outcomes, b.transcripts[1].outcomes);
        }
    }
}
