//! The correctness verdict over all replays of a run.

use cv_common::hash::Sig128;
use cv_common::ids::JobId;
use std::collections::BTreeMap;

/// What a replay contributes to the verdict.
#[derive(Clone, Debug, Default)]
pub struct ReplayResults {
    pub traced: bool,
    /// Jobs the service reported as failed.
    pub failed_jobs: u64,
    pub digests: BTreeMap<JobId, Sig128>,
    /// Per-job simulated (processing, latency) seconds.
    pub sim: BTreeMap<JobId, (f64, f64)>,
    /// Layer invariants a traced replay broke.
    pub broken_invariants: Vec<String>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// Jobs attempted, summed over replays.
    pub attempted: u64,
    /// Jobs that failed, whose digest differs from the oracle's, or whose
    /// simulated figures moved where they must repeat exactly.
    pub failed: u64,
    /// Jobs whose simulated figures differ from the first replay's.
    pub sim_moved: u64,
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// (failed jobs + digest mismatches + moved simulated figures) ÷ jobs
    /// attempted.
    pub fn failed_jobs_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn same_bits(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits()
}

/// Count, per job, how `r` departs from `reference`: jobs missing from
/// either side count once.
fn departures<V>(
    reference: &BTreeMap<JobId, V>,
    r: &BTreeMap<JobId, V>,
    same: impl Fn(&V, &V) -> bool,
) -> u64 {
    let moved = reference.iter().filter(|(job, x)| !r.get(job).is_some_and(|y| same(x, y))).count();
    let extra = r.keys().filter(|job| !reference.contains_key(job)).count();
    (moved + extra) as u64
}

/// Check every replay: digests against the oracle, simulated per-job
/// figures against the first replay (binding only when `sim_must_repeat`),
/// and the traced replays' layer invariants.
pub fn check(
    oracle: &BTreeMap<JobId, Sig128>,
    replays: &[ReplayResults],
    sim_must_repeat: bool,
) -> Verdict {
    let mut v = Verdict { attempted: 0, failed: 0, sim_moved: 0, problems: Vec::new() };
    let Some(first) = replays.first() else {
        v.problems.push("no replay ran".to_string());
        return v;
    };
    for (i, r) in replays.iter().enumerate() {
        let jobs = oracle.len().max(r.digests.len()) as u64;
        let mismatched = departures(oracle, &r.digests, |a, b| a == b);
        let sim_moved = departures(&first.sim, &r.sim, |a, b| same_bits(*a, *b));
        let bad = r.failed_jobs + mismatched + if sim_must_repeat { sim_moved } else { 0 };
        v.attempted += jobs;
        v.failed += bad.min(jobs);
        v.sim_moved += sim_moved;
        let at = format!("replay {i} ({})", if r.traced { "traced" } else { "untraced" });
        if r.failed_jobs > 0 {
            v.problems.push(format!("{at}: {} jobs failed", r.failed_jobs));
        }
        if mismatched > 0 {
            v.problems.push(format!("{at}: {mismatched} digests differ from the oracle"));
        }
        if sim_must_repeat && sim_moved > 0 {
            v.problems.push(format!("{at}: simulated figures of {sim_moved} jobs moved"));
        }
        for b in &r.broken_invariants {
            v.problems.push(format!("{at}: invariant broken: {b}"));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay(digests: &[(u64, u128)], sim: &[(u64, f64)]) -> ReplayResults {
        ReplayResults {
            digests: digests.iter().map(|&(j, d)| (JobId(j), Sig128(d))).collect(),
            sim: sim.iter().map(|&(j, s)| (JobId(j), (s, 2.0 * s))).collect(),
            ..ReplayResults::default()
        }
    }

    fn oracle() -> BTreeMap<JobId, Sig128> {
        [(0, 10), (1, 11), (2, 12)].into_iter().map(|(j, d)| (JobId(j), Sig128(d))).collect()
    }

    #[test]
    fn matching_replays_are_correct() {
        let r = replay(&[(0, 10), (1, 11), (2, 12)], &[(0, 1.0), (1, 2.0), (2, 3.0)]);
        let v = check(&oracle(), &[r.clone(), r], true);
        assert_eq!((v.attempted, v.failed, v.sim_moved), (6, 0, 0));
        assert!(v.correct());
    }

    #[test]
    fn a_digest_mismatch_or_missing_job_fails_the_run() {
        let good = replay(&[(0, 10), (1, 11), (2, 12)], &[(0, 1.0)]);
        let wrong = replay(&[(0, 10), (1, 99)], &[(0, 1.0)]);
        let v = check(&oracle(), &[good, wrong], true);
        // Job 1 differs and job 2 is missing.
        assert_eq!(v.failed, 2);
        assert!(!v.correct());
        assert!((v.failed_jobs_ratio() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn moved_simulated_figures_bind_only_where_they_must_repeat() {
        let digests = [(0, 10), (1, 11), (2, 12)];
        let a = replay(&digests, &[(0, 1.0), (1, 2.0)]);
        let b = replay(&digests, &[(0, 1.0), (1, 2.0 + 1e-9)]);
        let strict = check(&oracle(), &[a.clone(), b.clone()], true);
        assert_eq!((strict.failed, strict.sim_moved), (1, 1));
        assert!(!strict.correct());
        let scheduled = check(&oracle(), &[a, b], false);
        assert_eq!((scheduled.failed, scheduled.sim_moved), (0, 1));
        assert!(scheduled.correct());
    }

    #[test]
    fn failed_jobs_and_broken_invariants_fail_the_run() {
        let mut r = replay(&[(0, 10), (1, 11), (2, 12)], &[]);
        r.failed_jobs = 1;
        assert_eq!(check(&oracle(), &[r.clone()], true).failed, 1);
        r.failed_jobs = 0;
        r.broken_invariants.push("operator self time exceeds execute spans".into());
        let v = check(&oracle(), &[r], true);
        assert_eq!(v.failed, 0);
        assert!(!v.correct());
        assert!(!check(&oracle(), &[], true).correct());
    }
}
