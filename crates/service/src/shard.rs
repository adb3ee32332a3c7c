//! Fingerprint routing: which shard of a [`LiveQueue`] runs a
//! submission.
//!
//! One dispatcher serializes all dispatch decisions; under heavy traffic
//! that thread becomes the bottleneck long before the worker pool does.
//! A [`LiveQueue`] with [`LiveConfig::shards`] set to `Some(n)` runs `n`
//! shards — each with its own dispatcher, pool and generation clock —
//! and routes every submission by its SOC's
//! [`fingerprint`](tamopt_soc::Soc::fingerprint) hash, so repeat requests
//! for the same chip land on the same shard and keep hitting its
//! locality. All shards share **one** warm-start incumbent cache, so an
//! incumbent discovered on any shard seeds every later request for that
//! SOC regardless of where it routes.
//!
//! # Routing and work stealing
//!
//! The home shard of a request is `fingerprint % N`. Routing is decided
//! once, at submission time, by `route`: when the home shard already
//! holds [`STEAL_MARGIN`] more requests than the least-loaded shard, the
//! request is *stolen* by that least-loaded shard (lowest shard id on
//! ties) — a drained shard never idles while another's backlog grows. A
//! pinned submission ([`Trace::submit_pinned_at`],
//! [`LiveQueue::submit_pinned`]) goes to shard `pin % N` instead. Live, a
//! shard's load is its in-flight count (pending plus dispatched).
//!
//! # Determinism
//!
//! [`LiveQueue::replay`] splits the trace up front into one sub-trace per
//! shard on load counters that only grow as the split proceeds, so the
//! whole routing (and therefore each shard's sub-trace) is a pure
//! function of the trace — thread counts cannot change it. Each
//! sub-trace event carries the global id the queue gave its submission.
//! The shards then replay one after another in shard-id order over the
//! shared warm cache, so the cache state each shard starts from is
//! itself deterministic, and the stream is the per-shard streams
//! concatenated in shard-id order. One shard sees the whole trace, so an
//! unstamped queue replays exactly like one stamped shard, minus the
//! stamps.
//!
//! [`LiveQueue`]: crate::LiveQueue
//! [`LiveQueue::replay`]: crate::LiveQueue::replay
//! [`LiveQueue::submit_pinned`]: crate::LiveQueue::submit_pinned
//! [`LiveConfig::shards`]: crate::LiveConfig::shards

use std::collections::VecDeque;

use crate::live::{QueueStats, Trace, TraceAction};
use crate::Request;

/// How many more routed requests than the least-loaded shard a
/// request's home shard must already hold before the request is stolen
/// by the least-loaded shard. Margin 1 would reduce fingerprint routing
/// to round-robin and destroy same-SOC locality; a small margin keeps
/// locality while bounding skew.
pub const STEAL_MARGIN: usize = 2;

/// One event of a shard's sub-trace: a [`Trace`] event routed to the
/// shard, its submission already numbered with its global id.
#[derive(Debug)]
pub(crate) struct ShardEvent {
    pub(crate) generation: u32,
    pub(crate) action: ShardAction,
}

/// The action of a [`ShardEvent`].
#[derive(Debug)]
pub(crate) enum ShardAction {
    /// Submit the request under this global id.
    Submit(usize, Request),
    /// Cancel the submission with this global id.
    Cancel(usize),
}

/// The deterministic routing decision: `fingerprint`'s home shard, or
/// the least-loaded shard (lowest id on ties) when the home shard is
/// ahead of it by at least [`STEAL_MARGIN`] routed requests.
fn route(fingerprint: u64, loads: &[usize]) -> usize {
    let home = (fingerprint % loads.len() as u64) as usize;
    let (steal, min_load) = loads
        .iter()
        .copied()
        .enumerate()
        .min_by_key(|&(shard, load)| (load, shard))
        .expect("a queue has at least one shard");
    if loads[home] >= min_load + STEAL_MARGIN {
        steal
    } else {
        home
    }
}

/// The shard a submission goes to: `pin % N` when pinned (bypassing
/// hash routing and stealing), [`route`] otherwise.
pub(crate) fn place(fingerprint: u64, pin: Option<usize>, loads: &[usize]) -> usize {
    match pin {
        Some(pin) => pin % loads.len(),
        None => route(fingerprint, loads),
    }
}

/// Splits `trace` into `shards` sub-traces. Submissions are numbered
/// 0, 1, 2, … in trace order and placed on load counters that only
/// grow. A cancel goes to the shard that owns its id; a cancel of an id
/// not submitted yet is dropped — a no-op, exactly as an unknown handle
/// is when the event applies.
pub(crate) fn split(trace: Trace, shards: usize) -> Vec<VecDeque<ShardEvent>> {
    let mut loads = vec![0; shards];
    // Global id → shard.
    let mut owner: Vec<usize> = Vec::new();
    let mut subs: Vec<VecDeque<ShardEvent>> = (0..shards).map(|_| VecDeque::new()).collect();
    for event in trace.events {
        let (shard, action) = match event.action {
            TraceAction::Submit(request) => {
                let shard = place(request.soc.fingerprint(), event.shard, &loads);
                loads[shard] += 1;
                owner.push(shard);
                (shard, ShardAction::Submit(owner.len() - 1, request))
            }
            TraceAction::Cancel(id) => match owner.get(id.index()) {
                Some(&shard) => (shard, ShardAction::Cancel(id.index())),
                None => continue,
            },
        };
        subs[shard].push_back(ShardEvent {
            generation: event.generation,
            action,
        });
    }
    subs
}

/// The backlog snapshot of one shard, as reported by
/// [`LiveQueue::stats`](crate::LiveQueue::stats).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard id.
    pub shard: usize,
    /// Submissions in flight on this shard (pending or executing) — the
    /// live load the steal decision reads.
    pub outstanding: usize,
    /// The shard's own snapshot: generation clock, aging rate and the
    /// pending backlog with aged effective priorities.
    pub queue: QueueStats,
}

/// A point-in-time snapshot of every shard's backlog — the sharded
/// `stats` verb of `tamopt serve`, making queue skew observable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedStats {
    /// One entry per shard, in shard-id order.
    pub shards: Vec<ShardStats>,
}

impl ShardedStats {
    /// The snapshot as one deterministic, compact JSON object: per
    /// shard its id, outstanding count, pending count and the shard's
    /// own stats object (see [`QueueStats::to_json`]).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"shards\": [");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"shard\": {}, \"outstanding\": {}, \"pending_count\": {}, \"queue\": {}}}",
                s.shard,
                s.outstanding,
                s.queue.pending.len(),
                s.queue.to_json(),
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamopt_soc::benchmarks;

    #[test]
    fn routing_prefers_home_until_the_margin() {
        // Home shard = fingerprint % 2.
        let fp = benchmarks::d695().fingerprint();
        let home = (fp % 2) as usize;
        let other = 1 - home;
        let mut loads = vec![0usize; 2];
        assert_eq!(route(fp, &loads), home);
        loads[home] = STEAL_MARGIN - 1;
        assert_eq!(route(fp, &loads), home, "below the margin: stay home");
        loads[home] = STEAL_MARGIN;
        assert_eq!(route(fp, &loads), other, "at the margin: steal");
        loads[other] = 1;
        assert_eq!(route(fp, &loads), home, "margin is relative to the min");
    }

    #[test]
    fn stealing_breaks_ties_by_lowest_shard_id() {
        let fp = benchmarks::d695().fingerprint();
        let shards = 4;
        let home = (fp % shards as u64) as usize;
        let mut loads = vec![0usize; shards];
        loads[home] = STEAL_MARGIN;
        let stolen = route(fp, &loads);
        let expected = (0..shards).find(|&s| s != home || loads[s] == 0).unwrap();
        assert_eq!(stolen, expected);
    }

    #[test]
    fn pins_wrap_and_bypass_stealing() {
        assert_eq!(
            place(0, Some(4), &[10, 0]),
            0,
            "pin 4 % 2 shards = shard 0, stealing ignored"
        );
    }

    #[test]
    fn split_numbers_submissions_globally_and_sends_cancels_to_their_owner() {
        let request = || Request::new(benchmarks::d695(), 16).unwrap();
        let trace = Trace::new()
            .submit_pinned_at(0, 1, request())
            .submit_pinned_at(0, 2, request())
            .submit_pinned_at(1, 3, request())
            .cancel_at(2, 2)
            .cancel_at(2, 9);
        let ids = |events: &VecDeque<ShardEvent>| -> Vec<(u32, String)> {
            events
                .iter()
                .map(|e| match &e.action {
                    ShardAction::Submit(id, _) => (e.generation, format!("submit {id}")),
                    ShardAction::Cancel(id) => (e.generation, format!("cancel {id}")),
                })
                .collect()
        };
        let subs = split(trace, 2);
        assert_eq!(ids(&subs[0]), vec![(0, "submit 1".to_owned())]);
        assert_eq!(
            ids(&subs[1]),
            vec![
                (0, "submit 0".to_owned()),
                (1, "submit 2".to_owned()),
                (2, "cancel 2".to_owned()),
            ],
            "the cancel of unsubmitted id 9 is dropped"
        );
    }
}
