//! Span arithmetic over a service run's trace: self times, and the totals
//! per span name that the per-layer metrics are built from.
//!
//! The service replay records its control loop on track 0 and each job's
//! lifecycle on track `job + 1`; within a track spans nest strictly, and a
//! snapshot sorted by `(track, seq)` lists every span before its children.

use std::collections::{BTreeMap, HashMap};

/// The timing-relevant part of one recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanTime {
    pub track: u64,
    pub depth: u32,
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
}

impl SpanTime {
    fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

impl From<&cv_obs::trace::Span> for SpanTime {
    fn from(s: &cv_obs::trace::Span) -> SpanTime {
        SpanTime {
            track: s.track,
            depth: s.depth,
            name: s.name.clone(),
            start_us: s.start_us,
            dur_us: s.dur_us,
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children on the same track. `spans` must be in
/// `(track, seq)` order, as [`cv_obs::Tracer::spans`] returns them.
pub fn self_times_us(spans: &[SpanTime]) -> Vec<u64> {
    let mut out = Vec::with_capacity(spans.len());
    for (i, parent) in spans.iter().enumerate() {
        let (lo, hi) = (parent.start_us, parent.end_us());
        let mut covered = 0u64;
        // Children arrive in start order; merge their clipped intervals so
        // overlapping or out-of-bounds children are never double-counted.
        let mut run: Option<(u64, u64)> = None;
        for child in spans[i + 1..]
            .iter()
            .take_while(|c| c.track == parent.track && c.depth > parent.depth)
            .filter(|c| c.depth == parent.depth + 1)
        {
            let (s, e) = (child.start_us.clamp(lo, hi), child.end_us().clamp(lo, hi));
            match run {
                Some((rs, re)) if s <= re => run = Some((rs, re.max(e))),
                _ => {
                    if let Some((rs, re)) = run {
                        covered += re - rs;
                    }
                    run = Some((s, e));
                }
            }
        }
        if let Some((rs, re)) = run {
            covered += re - rs;
        }
        out.push(parent.dur_us - covered.min(parent.dur_us));
    }
    out
}

/// Physical operator kinds the executor reports spans for
/// (`PhysicalPlan::kind_name`).
pub const OPERATORS: [&str; 13] = [
    "TableScan",
    "ViewScan",
    "Filter",
    "Project",
    "HashJoin",
    "MergeJoin",
    "LoopJoin",
    "HashAggregate",
    "Sort",
    "Limit",
    "Union",
    "Udo",
    "Spool",
];

/// Per-name totals of one trace, split by scope: the control loop (track 0)
/// and job lifecycles (every other track).
#[derive(Clone, Debug, Default)]
pub struct SpanTotals {
    /// Σ duration of track-0 spans, by name.
    pub loop_us: BTreeMap<String, u64>,
    /// Σ duration of job-track spans, by name.
    pub job_us: BTreeMap<String, u64>,
    /// Σ self time of job-track spans, by name.
    pub job_self_us: BTreeMap<String, u64>,
    /// Each job track's `execute` span duration.
    pub execute_us_by_track: HashMap<u64, u64>,
    /// Σ time from a `semantic-consider` span to the prover's verdict
    /// (`semantic-veto` / `semantic-prove`) that follows it on the same
    /// track. A proof the cost gate then declines emits no verdict and is
    /// not timed.
    pub prove_us: u64,
}

impl SpanTotals {
    pub fn from_spans(spans: &[SpanTime]) -> SpanTotals {
        let selfs = self_times_us(spans);
        let mut t = SpanTotals::default();
        for (i, s) in spans.iter().enumerate() {
            if s.track == 0 {
                *t.loop_us.entry(s.name.clone()).or_default() += s.dur_us;
                continue;
            }
            *t.job_us.entry(s.name.clone()).or_default() += s.dur_us;
            *t.job_self_us.entry(s.name.clone()).or_default() += selfs[i];
            if s.name == "execute" {
                *t.execute_us_by_track.entry(s.track).or_default() += s.dur_us;
            }
            if s.name == "semantic-consider" {
                if let Some(next) = spans.get(i + 1) {
                    let verdict = next.name == "semantic-veto" || next.name == "semantic-prove";
                    if verdict && next.track == s.track {
                        t.prove_us += next.start_us.saturating_sub(s.start_us);
                    }
                }
            }
        }
        t
    }

    pub fn loop_s(&self, name: &str) -> f64 {
        us_to_s(self.loop_us.get(name).copied().unwrap_or(0))
    }

    pub fn job_s(&self, name: &str) -> f64 {
        us_to_s(self.job_us.get(name).copied().unwrap_or(0))
    }

    pub fn job_self_s(&self, name: &str) -> f64 {
        us_to_s(self.job_self_us.get(name).copied().unwrap_or(0))
    }

    /// Σ operator self time over every kind in [`OPERATORS`].
    pub fn operator_self_us(&self) -> u64 {
        OPERATORS.iter().map(|k| self.job_self_us.get(*k).copied().unwrap_or(0)).sum()
    }
}

pub fn us_to_s(us: u64) -> f64 {
    us as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: u64, depth: u32, name: &str, start_us: u64, dur_us: u64) -> SpanTime {
        SpanTime { track, depth, name: name.to_string(), start_us, dur_us }
    }

    #[test]
    fn self_time_subtracts_only_direct_children_on_the_same_track() {
        let spans = vec![
            span(0, 0, "day", 0, 100),
            span(0, 1, "ingest", 10, 30),
            span(0, 1, "analysis", 50, 20),
            span(1, 0, "job", 5, 90),
            span(1, 1, "execute", 10, 60),
            span(1, 2, "HashJoin", 12, 50),
            span(1, 3, "TableScan", 15, 10),
            span(1, 3, "TableScan", 30, 5),
            span(1, 1, "commit", 75, 10),
        ];
        let selfs = self_times_us(&spans);
        // day: 100 − (30 + 20); track 1 never counts against track 0.
        assert_eq!(selfs[0], 50);
        assert_eq!(selfs[1], 30);
        // job: 90 − execute 60 − commit 10; grandchildren are not
        // subtracted twice.
        assert_eq!(selfs[3], 20);
        // execute: 60 − HashJoin 50.
        assert_eq!(selfs[4], 10);
        // HashJoin: 50 − both scans.
        assert_eq!(selfs[5], 35);
        assert_eq!(&selfs[6..], &[10, 5, 10]);
    }

    #[test]
    fn self_time_clips_and_merges_child_intervals() {
        let spans = vec![
            span(2, 0, "execute", 100, 50),
            // Overlaps the next child and starts before the parent.
            span(2, 1, "Filter", 90, 30),
            span(2, 1, "Project", 110, 20),
            // Runs past the parent's end.
            span(2, 1, "Sort", 140, 40),
        ];
        let selfs = self_times_us(&spans);
        // Covered: [100, 130) ∪ [140, 150) = 40 of 50.
        assert_eq!(selfs[0], 10);
    }

    #[test]
    fn totals_split_scopes_and_time_prover_verdicts() {
        let spans = vec![
            span(0, 0, "day", 0, 1000),
            span(0, 1, "compile", 0, 400),
            span(1, 0, "job", 0, 900),
            span(1, 1, "compile", 0, 400),
            span(1, 2, "optimize", 100, 300),
            span(1, 3, "semantic-consider", 120, 0),
            span(1, 3, "semantic-veto", 150, 0),
            span(1, 3, "semantic-consider", 200, 0),
            span(1, 3, "view-match", 260, 0),
            span(1, 1, "execute", 450, 400),
            span(1, 2, "Filter", 460, 300),
            span(1, 3, "TableScan", 470, 100),
        ];
        let t = SpanTotals::from_spans(&spans);
        assert_eq!(t.loop_us["compile"], 400);
        assert_eq!(t.job_us["compile"], 400);
        assert_eq!(t.job_self_us["compile"], 100);
        assert_eq!(t.execute_us_by_track[&1], 400);
        // Only the consider → veto pair is a timed verdict.
        assert_eq!(t.prove_us, 30);
        assert_eq!(t.operator_self_us(), 200 + 100);
        assert!(t.operator_self_us() <= t.job_us["execute"]);
    }
}
