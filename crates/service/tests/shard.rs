//! Integration tests of the fingerprint-sharded daemon: shard-tagged
//! trace replay determinism over the full threads × shards grid,
//! routing and work stealing, cross-shard warm sharing, and live-mode
//! facade behavior.

use tamopt_service::{
    LiveConfig, LiveQueue, Request, RequestOutcome, RequestStatus, ServeQueue, ShardTrace,
    ShardedQueue, Trace,
};
use tamopt_soc::benchmarks;

/// Renders a streamed outcome sequence as its wire format (the JSON
/// lines `tamopt serve --shards N` prints) — the canonical comparison
/// key, shard stamps included.
fn stream_text(outcomes: &[RequestOutcome]) -> String {
    outcomes.iter().map(RequestOutcome::to_json_line).collect()
}

/// Strips the wall-clock lines a pretty report may vary on.
fn stable_lines(report_json: &str) -> String {
    report_json
        .lines()
        .filter(|line| !line.contains("wall_clock"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A mixed-kind trace exercising hash routing, an explicit pin, work
/// stealing (several submissions of one hot fingerprint), a mid-run
/// priority jump and a cancellation — the sharded analogue of the flat
/// suite's `mixed_trace`.
fn mixed_shard_trace() -> ShardTrace {
    ShardTrace::new()
        .submit_at(0, Request::new(benchmarks::d695(), 16).unwrap().max_tams(2)) // id 0
        .submit_at(
            0,
            Request::new(benchmarks::d695(), 32)
                .unwrap()
                .max_tams(6)
                .top_k(3),
        ) // id 1
        .submit_pinned_at(
            0,
            1,
            Request::new(benchmarks::p21241(), 24).unwrap().max_tams(3),
        ) // id 2: pinned
        .submit_at(
            0,
            Request::new(benchmarks::d695(), 24)
                .unwrap()
                .max_tams(3)
                .frontier(8..=24, 8),
        ) // id 3: stolen once d695's home shard backs up
        .submit_at(
            1,
            Request::new(benchmarks::p31108(), 24)
                .unwrap()
                .max_tams(3)
                .priority(5),
        ) // id 4
        .submit_at(1, Request::new(benchmarks::d695(), 32).unwrap().max_tams(6)) // id 5
        // Same barrier as its submission, so it lands before dispatch;
        // the cancel routes to whichever shard owns id 5.
        .cancel_at(1, 5usize)
}

#[test]
fn sharded_replays_are_thread_count_invariant_at_every_shard_count() {
    // The full acceptance grid: shards {1, 2, 4} × threads {1, 2, 8}.
    // For each shard count, the stream (shard stamps included) and the
    // stable report must be byte-identical across thread counts.
    for shards in [1, 2, 4] {
        let (ref_stream, ref_report) =
            ShardedQueue::replay(mixed_shard_trace(), LiveConfig::with_threads(1), shards);
        assert_eq!(ref_report.outcomes.len(), 6, "one outcome per submission");
        let ref_stream_text = stream_text(&ref_stream);
        let ref_report_text = stable_lines(&ref_report.to_json());
        for threads in [2, 8] {
            let (stream, report) = ShardedQueue::replay(
                mixed_shard_trace(),
                LiveConfig::with_threads(threads),
                shards,
            );
            assert_eq!(
                stream_text(&stream),
                ref_stream_text,
                "shards {shards}, threads {threads}"
            );
            assert_eq!(
                stable_lines(&report.to_json()),
                ref_report_text,
                "shards {shards}, threads {threads}"
            );
        }
    }
}

#[test]
fn every_outcome_is_shard_stamped_with_global_ids() {
    let shards = 4;
    let (stream, report) = ShardedQueue::replay(mixed_shard_trace(), LiveConfig::default(), shards);
    assert_eq!(stream.len(), 6);
    for outcome in &stream {
        let shard = outcome.shard.expect("sharded outcomes carry their shard");
        assert!(shard < shards, "stamp {shard} out of range");
        assert!(outcome
            .to_json_line()
            .contains(&format!("\"id\": {}, \"shard\": {shard}, ", outcome.index)));
    }
    // The report is in global submission order, exactly one per id.
    let ids: Vec<usize> = report.outcomes.iter().map(|o| o.index).collect();
    assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    assert_eq!(report.count(RequestStatus::Cancelled), 1);
}

#[test]
fn pinned_submissions_land_on_their_shard_and_pins_wrap() {
    let trace = ShardTrace::new()
        .submit_pinned_at(
            0,
            1,
            Request::new(benchmarks::d695(), 16).unwrap().max_tams(2),
        )
        // Pin 5 on 4 shards wraps to shard 1 as well.
        .submit_pinned_at(
            0,
            5,
            Request::new(benchmarks::d695(), 16).unwrap().max_tams(2),
        );
    let (stream, _) = ShardedQueue::replay(trace, LiveConfig::default(), 4);
    assert_eq!(stream[0].shard, Some(1));
    assert_eq!(stream[1].shard, Some(1));
}

#[test]
fn work_stealing_spreads_a_hot_fingerprint_across_shards() {
    // Six submissions of one SOC all hash to one home shard; with the
    // steal margin at 2, a drained neighbor must take some of them.
    let mut trace = ShardTrace::new();
    for _ in 0..6 {
        trace = trace.submit_at(0, Request::new(benchmarks::d695(), 16).unwrap().max_tams(2));
    }
    let (stream, report) = ShardedQueue::replay(trace, LiveConfig::default(), 2);
    let shards: std::collections::BTreeSet<usize> =
        stream.iter().map(|o| o.shard.unwrap()).collect();
    assert_eq!(shards.len(), 2, "stealing must engage both shards");
    assert_eq!(report.count(RequestStatus::Complete), 6);
}

#[test]
fn single_shard_replay_matches_the_flat_queue_modulo_stamps() {
    // shards = 1 is the flat daemon plus shard stamps: same events give
    // the same results, statuses and prune counters.
    let flat_trace = Trace::new()
        .submit_at(0, Request::new(benchmarks::d695(), 32).unwrap().max_tams(6))
        .submit_at(0, Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
        .submit_at(
            1,
            Request::new(benchmarks::p31108(), 24).unwrap().max_tams(3),
        );
    let shard_trace = ShardTrace::new()
        .submit_at(0, Request::new(benchmarks::d695(), 32).unwrap().max_tams(6))
        .submit_at(0, Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
        .submit_at(
            1,
            Request::new(benchmarks::p31108(), 24).unwrap().max_tams(3),
        );
    let (_, flat) = LiveQueue::replay(flat_trace, LiveConfig::default());
    let (_, sharded) = ShardedQueue::replay(shard_trace, LiveConfig::default(), 1);
    assert_eq!(flat.outcomes.len(), sharded.outcomes.len());
    for (a, b) in flat.outcomes.iter().zip(&sharded.outcomes) {
        assert_eq!(a.shard, None, "the flat queue never stamps");
        assert_eq!(b.shard, Some(0));
        assert_eq!(a.status, b.status);
        let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(a.tams, b.tams);
        assert_eq!(a.optimized, b.optimized);
        assert_eq!(a.stats, b.stats);
    }
}

#[test]
fn warm_incumbents_transfer_across_shards() {
    // The same request pinned to two *different* shards: the second
    // dispatch seeds its τ bound from the first shard's outcome through
    // the shared cache — identical winner, strictly fewer completed
    // evaluations. (Shards replay in shard-id order, so shard 0 feeds
    // shard 1.)
    let request = || Request::new(benchmarks::d695(), 32).unwrap().max_tams(4);
    let trace = || {
        ShardTrace::new()
            .submit_pinned_at(0, 0, request())
            .submit_pinned_at(0, 1, request())
    };
    let (_, warm) = ShardedQueue::replay(trace(), LiveConfig::default(), 2);
    let cold_config = LiveConfig {
        warm_start: false,
        ..LiveConfig::default()
    };
    let (_, cold) = ShardedQueue::replay(trace(), cold_config, 2);
    for report in [&warm, &cold] {
        assert_eq!(report.count(RequestStatus::Complete), 2);
    }
    let warm_second = warm.outcomes[1].result.as_ref().unwrap();
    let cold_second = cold.outcomes[1].result.as_ref().unwrap();
    assert_eq!(warm.outcomes[1].shard, Some(1), "pin respected");
    assert_eq!(warm_second.tams, cold_second.tams, "identical winner");
    assert_eq!(warm_second.optimized, cold_second.optimized);
    assert!(
        warm_second.stats.completed < cold_second.stats.completed,
        "cross-shard warm hit must prune: {:?} vs {:?}",
        warm_second.stats,
        cold_second.stats
    );
}

#[test]
fn sharded_live_queue_streams_routes_and_seals() {
    let queue = ShardedQueue::start(LiveConfig::default(), 2);
    assert_eq!(queue.shard_count(), 2);
    let (id0, _) = queue
        .submit(Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
        .unwrap();
    let (id1, _) = queue
        .submit(Request::new(benchmarks::p21241(), 24).unwrap().max_tams(3))
        .unwrap();
    assert_eq!((id0.index(), id1.index()), (0, 1), "global ids");
    assert_eq!(queue.submitted(), 2);
    let mut streamed = [
        queue.recv_outcome().expect("first outcome"),
        queue.recv_outcome().expect("second outcome"),
    ];
    streamed.sort_by_key(|o| o.index);
    assert_eq!(streamed[0].index, 0);
    assert!(streamed[0].shard.is_some());
    let report = queue.shutdown().expect("first shutdown yields the report");
    assert_eq!(report.outcomes.len(), 2);
    assert!(report.complete);
    let ids: Vec<usize> = report.outcomes.iter().map(|o| o.index).collect();
    assert_eq!(ids, vec![0, 1], "merged report is in global order");
    // Sealed: no more submissions, no second report.
    assert!(queue
        .submit(Request::new(benchmarks::d695(), 8).unwrap())
        .is_err());
    assert!(queue.shutdown().is_none());
}

#[test]
fn sharded_cancel_routes_to_the_owning_shard() {
    let queue = ShardedQueue::start(LiveConfig::default(), 2);
    // A long request keeps one shard busy while we cancel a queued one
    // behind it (the same fingerprint routes both to the same shard).
    queue
        .submit(Request::new(benchmarks::p31108(), 32).unwrap().max_tams(4))
        .unwrap();
    let (victim, _) = queue
        .submit(Request::new(benchmarks::p31108(), 48).unwrap().max_tams(6))
        .unwrap();
    assert!(queue.cancel(victim));
    assert!(
        !queue.cancel(tamopt_service::RequestId::from(99)),
        "unknown global ids are reported, not panicked on"
    );
    let report = queue.shutdown().expect("report");
    assert_eq!(report.outcomes[0].status, RequestStatus::Complete);
    assert_eq!(report.outcomes[1].status, RequestStatus::Cancelled);
}

#[test]
fn sharded_stats_report_per_shard_backlogs_with_global_ids() {
    // No submissions yet: every shard reports an empty backlog.
    let queue = ShardedQueue::start(LiveConfig::default(), 3);
    let stats = queue.stats();
    assert_eq!(stats.shards.len(), 3);
    for (i, s) in stats.shards.iter().enumerate() {
        assert_eq!(s.shard, i);
        assert_eq!(s.outstanding, 0);
        assert!(s.queue.pending.is_empty());
    }
    let json = stats.to_json();
    for key in [
        "\"shards\": [",
        "\"shard\": 0",
        "\"shard\": 2",
        "\"outstanding\": 0",
        "\"pending_count\": 0",
        "\"queue\": {",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    assert!(!json.contains("wall_clock"), "stats stay wall-clock free");
    queue.shutdown();
}

#[test]
fn empty_sharded_trace_produces_a_valid_empty_report() {
    let (stream, report) = ShardedQueue::replay(ShardTrace::new(), LiveConfig::default(), 4);
    assert!(stream.is_empty());
    assert!(report.outcomes.is_empty());
    assert!(report.complete);
}

/// Trace case 30 of `cargo run --example fuzz -- --seed 1`: id 1 is
/// pinned to shard 2 and cancelled at generation 2.
fn fuzz_seed1_case30_trace() -> ShardTrace {
    let request = |soc, width, max_tams, priority| {
        Request::new(soc, width)
            .unwrap()
            .max_tams(max_tams)
            .priority(priority)
    };
    ShardTrace::new()
        .submit_pinned_at(0, 0, request(benchmarks::p21241(), 23, 1, 0)) // id 0
        .submit_pinned_at(0, 2, request(benchmarks::d695(), 22, 1, 0)) // id 1
        .submit_pinned_at(0, 2, request(benchmarks::p21241(), 14, 3, 8)) // id 2
        .submit_at(1, request(benchmarks::d695(), 11, 2, 3)) // id 3
        .cancel_at(2, 1usize)
        .submit_at(2, request(benchmarks::p31108(), 10, 3, 0)) // id 4
}

/// Status and winner of every id: the outcome line without its shard
/// stamp and prune counters, in submission order.
fn winners_by_id(mut outcomes: Vec<RequestOutcome>) -> Vec<(RequestStatus, String)> {
    outcomes.sort_by_key(|outcome| outcome.index);
    outcomes
        .iter()
        .map(|outcome| {
            let line = outcome.to_json_line();
            let head = line.split(", \"stats\": ").next().unwrap_or(&line);
            let winner = match (head.find(", \"shard\": "), head.find(", \"soc\": ")) {
                (Some(start), Some(end)) => format!("{}{}", &head[..start], &head[end..]),
                _ => head.to_owned(),
            };
            (outcome.status, winner)
        })
        .collect()
}

#[test]
fn cancel_timing_may_differ_across_shard_shapes_but_winners_do_not() {
    // Generation clocks are per shard. The flat queue has not dispatched
    // id 1 when its cancel lands at generation 2; at 2 and 4 shards its
    // shard already has, so it completes there.
    let cancelled = 1;
    let config = || LiveConfig::with_threads(1);
    let (flat, _) = ServeQueue::replay(fuzz_seed1_case30_trace(), config(), None);
    let flat = winners_by_id(flat);
    assert_eq!(flat[cancelled].0, RequestStatus::Cancelled);
    let mut completed = Vec::new();
    for shards in [1, 2, 4] {
        let (outcomes, _) = ShardedQueue::replay(fuzz_seed1_case30_trace(), config(), shards);
        let sharded = winners_by_id(outcomes);
        assert_eq!(sharded.len(), flat.len());
        for (id, (outcome, expected)) in sharded.iter().zip(&flat).enumerate() {
            // One shard matches flat for every id; more shards for the
            // ids the trace never cancels.
            if shards == 1 || id != cancelled {
                assert_eq!(outcome, expected, "id {id} at {shards} shards");
            }
        }
        if shards > 1 {
            assert_eq!(
                sharded[cancelled].0,
                RequestStatus::Complete,
                "{shards} shards"
            );
        }
        if sharded[cancelled].0 == RequestStatus::Complete {
            completed.push(sharded[cancelled].1.clone());
        }
    }
    // Wherever the cancelled id completes, its winner is the same.
    assert_eq!(completed.len(), 2);
    assert_eq!(completed[0], completed[1]);
}
