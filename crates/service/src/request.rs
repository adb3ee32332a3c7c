//! One co-optimization job in a batch queue.

use std::fmt;
use std::ops::RangeInclusive;
use std::str::FromStr;
use std::time::Duration;

use tamopt_engine::SearchBudget;
use tamopt_soc::Soc;

/// What a [`Request`] asks for — the typed query kind.
///
/// The wire spelling (manifest `kind=` values, serve line protocol,
/// JSON `"kind"` field) is produced by [`RequestKind::label`] and parsed
/// by its [`FromStr`] implementation:
///
/// | kind | spelling |
/// |---|---|
/// | [`Point`](RequestKind::Point) | `point` |
/// | [`TopK`](RequestKind::TopK) | `topk:4` |
/// | [`Frontier`](RequestKind::Frontier) | `frontier:16..64:8` |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RequestKind {
    /// The classic single query: one `(SOC, W)`, one best architecture.
    #[default]
    Point,
    /// The `k` best architectures of one scan, ranked by final testing
    /// time.
    TopK {
        /// How many architectures to keep (≥ 1).
        k: usize,
    },
    /// A testing-time-versus-width sweep over
    /// `min_width..=max_width` in strides of `step`, sharing warm-start
    /// bounds across widths. The request's
    /// own `width` must equal `max_width` (it sizes the shared wrapper
    /// time table).
    Frontier {
        /// Inclusive sweep start (≥ 1).
        min_width: u32,
        /// Inclusive sweep end (the request's `width`).
        max_width: u32,
        /// Sweep stride (≥ 1).
        step: u32,
    },
}

impl RequestKind {
    /// The stable wire spelling of this kind (see the type-level table).
    pub fn label(&self) -> String {
        match self {
            RequestKind::Point => "point".to_owned(),
            RequestKind::TopK { k } => format!("topk:{k}"),
            RequestKind::Frontier {
                min_width,
                max_width,
                step,
            } => format!("frontier:{min_width}..{max_width}:{step}"),
        }
    }
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

impl FromStr for RequestKind {
    type Err = RequestError;

    /// Parses the wire spelling: `point`, `topk:K`, or
    /// `frontier:LO..HI:STEP`.
    fn from_str(s: &str) -> Result<Self, RequestError> {
        let bad = || RequestError::BadKind(s.to_owned());
        if s == "point" {
            return Ok(RequestKind::Point);
        }
        if let Some(k) = s.strip_prefix("topk:") {
            let k: usize = k.parse().map_err(|_| bad())?;
            if k == 0 {
                return Err(bad());
            }
            return Ok(RequestKind::TopK { k });
        }
        if let Some(spec) = s.strip_prefix("frontier:") {
            let (range, step) = spec.rsplit_once(':').ok_or_else(bad)?;
            let (lo, hi) = range.split_once("..").ok_or_else(bad)?;
            let min_width: u32 = lo.parse().map_err(|_| bad())?;
            let max_width: u32 = hi.parse().map_err(|_| bad())?;
            let step: u32 = step.parse().map_err(|_| bad())?;
            if step == 0 || min_width == 0 || min_width > max_width {
                return Err(bad());
            }
            return Ok(RequestKind::Frontier {
                min_width,
                max_width,
                step,
            });
        }
        Err(bad())
    }
}

/// Why a [`Request`] could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RequestError {
    /// The total TAM width was zero — no architecture exists, so the
    /// request is rejected at construction rather than failing at
    /// dispatch.
    ZeroWidth,
    /// A [`RequestKind`] wire spelling did not parse (unknown kind,
    /// malformed numbers, zero `k`/`step`, or an empty sweep range).
    BadKind(String),
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::ZeroWidth => f.write_str("total tam width is zero"),
            RequestError::BadKind(spec) => write!(f, "invalid request kind {spec:?}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// One wrapper/TAM co-optimization request: an SOC, its total TAM width,
/// the TAM-count range to explore, the query [`RequestKind`], a
/// per-request budget and a scheduling priority.
///
/// Requests are plain data; submission to a [`crate::Batch`] assigns the
/// submission index and the cancellation handle.
#[derive(Debug, Clone)]
pub struct Request {
    /// The SOC to co-optimize.
    pub soc: Soc,
    /// Total TAM width `W` in wires (≥ 1, enforced by
    /// [`Request::new`]). For [`RequestKind::Frontier`] this is the
    /// sweep's maximum width.
    pub width: u32,
    /// Smallest TAM count to consider (≥ 1).
    pub min_tams: u32,
    /// Largest TAM count to consider (inclusive).
    pub max_tams: u32,
    /// What the request asks for (default [`RequestKind::Point`]).
    pub kind: RequestKind,
    /// Per-request budget, intersected with the batch's global budget at
    /// dispatch. A node budget here counts the request's own step-1
    /// partitions.
    pub budget: SearchBudget,
    /// Scheduling priority: higher priorities are dispatched first;
    /// ties keep submission order. Priority affects only *when* a
    /// request runs (and therefore which requests still fit under a
    /// global deadline) — never its result.
    pub priority: i32,
}

impl Request {
    /// A request for `soc` at `width` wires with the same defaults as
    /// [`tamopt`'s `CoOptimizer`](https://docs.rs/tamopt): a
    /// [`RequestKind::Point`] query over TAM counts 1 to
    /// `min(10, width)`, unlimited budget, priority 0.
    ///
    /// # Errors
    ///
    /// [`RequestError::ZeroWidth`] if `width == 0`.
    pub fn new(soc: Soc, width: u32) -> Result<Self, RequestError> {
        if width == 0 {
            return Err(RequestError::ZeroWidth);
        }
        Ok(Request {
            soc,
            width,
            min_tams: 1,
            max_tams: 10.min(width),
            kind: RequestKind::Point,
            budget: SearchBudget::unlimited(),
            priority: 0,
        })
    }

    /// Sets the largest TAM count to consider.
    pub fn max_tams(mut self, max_tams: u32) -> Self {
        self.max_tams = max_tams;
        self
    }

    /// Sets the smallest TAM count to consider (default 1).
    pub fn min_tams(mut self, min_tams: u32) -> Self {
        self.min_tams = min_tams;
        self
    }

    /// Fixes the TAM count (problem *P_PAW*).
    pub fn exact_tams(mut self, tams: u32) -> Self {
        self.min_tams = tams;
        self.max_tams = tams;
        self
    }

    /// Asks for the `k` best architectures instead of one
    /// ([`RequestKind::TopK`]). `k = 1` is bit-identical to the default
    /// point query.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` — parse wire input through
    /// [`RequestKind::from_str`] instead, which rejects it as an error.
    pub fn top_k(mut self, k: usize) -> Self {
        assert!(k > 0, "a top-k request needs k >= 1");
        self.kind = RequestKind::TopK { k };
        self
    }

    /// Asks for a width sweep `widths` in strides of `step`
    /// ([`RequestKind::Frontier`]), and aligns the request's `width`
    /// with the sweep maximum (which sizes the shared time table).
    /// Degenerate sweeps (zero step, empty or zero-starting range) are
    /// reported as a failed outcome at dispatch, mirroring the wire
    /// path where the spec arrives pre-parsed.
    pub fn frontier(mut self, widths: RangeInclusive<u32>, step: u32) -> Self {
        let (min_width, max_width) = (*widths.start(), *widths.end());
        self.kind = RequestKind::Frontier {
            min_width,
            max_width,
            step,
        };
        self.width = max_width.max(1);
        self
    }

    /// Replaces the query kind wholesale (parsed wire input).
    pub fn kind(mut self, kind: RequestKind) -> Self {
        if let RequestKind::Frontier { max_width, .. } = kind {
            self.width = max_width.max(1);
        }
        self.kind = kind;
        self
    }

    /// Replaces the per-request budget.
    pub fn budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Tightens the per-request budget by a wall-clock limit counted
    /// from **now** (budgets carry absolute deadlines).
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.budget = self.budget.and_time_limit(limit);
        self
    }

    /// Sets the scheduling priority (default 0; higher runs earlier).
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamopt_soc::benchmarks;

    #[test]
    fn defaults_mirror_the_co_optimizer() {
        let r = Request::new(benchmarks::d695(), 24).unwrap();
        assert_eq!((r.min_tams, r.max_tams), (1, 10));
        assert_eq!(r.kind, RequestKind::Point);
        assert_eq!(r.priority, 0);
        assert!(r.budget.deadline().is_none());
        // Narrow widths clamp the default TAM range.
        assert_eq!(Request::new(benchmarks::d695(), 4).unwrap().max_tams, 4);
    }

    #[test]
    fn zero_width_is_rejected_at_construction() {
        assert_eq!(
            Request::new(benchmarks::d695(), 0).unwrap_err(),
            RequestError::ZeroWidth
        );
    }

    #[test]
    fn builders_compose() {
        let r = Request::new(benchmarks::d695(), 32)
            .unwrap()
            .min_tams(2)
            .max_tams(6)
            .priority(3)
            .time_limit(Duration::from_secs(60));
        assert_eq!((r.min_tams, r.max_tams), (2, 6));
        assert_eq!(r.priority, 3);
        assert!(r.budget.deadline().is_some());
        let fixed = Request::new(benchmarks::d695(), 32).unwrap().exact_tams(4);
        assert_eq!((fixed.min_tams, fixed.max_tams), (4, 4));
    }

    #[test]
    fn kind_builders_set_the_kind() {
        let r = Request::new(benchmarks::d695(), 32).unwrap().top_k(4);
        assert_eq!(r.kind, RequestKind::TopK { k: 4 });
        assert_eq!(r.width, 32);
        let r = Request::new(benchmarks::d695(), 16)
            .unwrap()
            .frontier(16..=64, 8);
        assert_eq!(
            r.kind,
            RequestKind::Frontier {
                min_width: 16,
                max_width: 64,
                step: 8
            }
        );
        assert_eq!(r.width, 64, "frontier aligns the width to the sweep max");
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn top_k_zero_panics() {
        let _ = Request::new(benchmarks::d695(), 16).unwrap().top_k(0);
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in [
            RequestKind::Point,
            RequestKind::TopK { k: 4 },
            RequestKind::Frontier {
                min_width: 16,
                max_width: 64,
                step: 8,
            },
        ] {
            assert_eq!(kind.label().parse::<RequestKind>().unwrap(), kind);
        }
    }

    #[test]
    fn bad_kind_spellings_are_rejected() {
        for spec in [
            "",
            "pointy",
            "topk:",
            "topk:0",
            "topk:x",
            "frontier:16..64",
            "frontier:64..16:8",
            "frontier:0..16:8",
            "frontier:16..64:0",
            "frontier:16:64:8",
        ] {
            assert!(
                matches!(spec.parse::<RequestKind>(), Err(RequestError::BadKind(_))),
                "{spec:?} must be rejected"
            );
        }
    }
}
