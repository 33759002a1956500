//! `cv-perfbench` — the repository benchmark.
//!
//! ```text
//! cv-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the named workload with data drawn from the seed, then replays
//! it through the concurrent service (`run_workload_service_with_store`)
//! again and again for `--seconds`, each replay on a freshly set-up store.
//! Every replay's per-job result digests are checked against the sequential
//! no-reuse oracle (`run_workload` with CloudViews off, run after the timed
//! replays), and its simulated per-job processing and latency against the
//! first replay's.
//!
//! `--trace 0` reports the end-to-end metrics of untraced replays.
//! `--trace 1` alternates untraced and traced replays; the traced ones carry
//! a `ServiceObs` and a timing wrapper around the store, and their span
//! tree is split into per-layer metrics whose invariants are checked.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Exit status: 0 when every check passed, 1 when one failed or the run
//! could not complete, 2 on bad arguments.
//!

mod host;
mod layers;
mod report;
mod spans;
mod stats;
mod timed_store;
mod verdict;
mod workloads;

use crate::host::HostRecord;
use crate::layers::{check_invariants, per_layer, TracedRun};
use crate::report::{ReplayFigures, Reported};
use crate::timed_store::TimedStore;
use crate::verdict::ReplayResults;
use crate::workloads::{BenchStore, WorkloadSpec, DAYS};
use cv_common::json::{Json, JsonMap};
use cv_workload::{run_workload, run_workload_service_with_store, ServiceObs, ServiceOutcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Stand-alone set-ups timed before each replay, on top of the one the
/// replay does itself, so that the set-up median rests on many samples
/// spread over the whole run.
const EXTRA_SETUPS: usize = 10;

struct Args {
    spec: &'static WorkloadSpec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be between 1 and 600".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workloads::find(&name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Scratch space under the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = Path::new(".perfbench_work").join(format!("run-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too unless another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

struct Bench {
    spec: &'static WorkloadSpec,
    seed: u64,
    work: WorkDir,
    stores_opened: usize,
}

impl Bench {
    /// Workload generation plus store open: everything before the replay
    /// call.
    fn setup(&mut self) -> cv_common::Result<(cv_workload::Workload, BenchStore, f64)> {
        let dir = self.work.0.join(format!("store-{}", self.stores_opened));
        self.stores_opened += 1;
        let started = Instant::now();
        let workload = self.spec.workload(self.seed);
        let store = self.spec.open_store(&dir)?;
        Ok((workload, store, started.elapsed().as_secs_f64()))
    }

    fn replay(&mut self, traced: bool) -> cv_common::Result<(ReplayFigures, ReplayResults)> {
        let (workload, store, setup_s) = self.setup()?;
        let cfg = self.spec.replay_config();
        let svc = self.spec.service_config();
        let replayed = if traced {
            let obs = ServiceObs::new();
            let timed = TimedStore::new(store.shared());
            let started = Instant::now();
            let outcome =
                run_workload_service_with_store(&workload, &cfg, &svc, &timed, Some(&obs));
            let replay_s = started.elapsed().as_secs_f64();
            let timings = timed.timings();
            drop(timed);
            let outcome = outcome?;
            let recover_s = store.close_and_time_recovery()?;
            let run =
                TracedRun { outcome: &outcome, obs: &obs, store: &timings, replay_s, recover_s };
            let (layers, inputs) = per_layer(&run);
            summarize(outcome, traced, setup_s, replay_s, layers, check_invariants(&inputs))
        } else {
            let started = Instant::now();
            let outcome =
                run_workload_service_with_store(&workload, &cfg, &svc, store.shared(), None);
            let replay_s = started.elapsed().as_secs_f64();
            store.close();
            summarize(outcome?, traced, setup_s, replay_s, Vec::new(), Vec::new())
        };
        Ok(replayed)
    }
}

fn summarize(
    outcome: ServiceOutcome,
    traced: bool,
    setup_s: f64,
    replay_s: f64,
    layers: Vec<layers::LayerMetric>,
    broken_invariants: Vec<String>,
) -> (ReplayFigures, ReplayResults) {
    let svc = &outcome.service;
    let totals = outcome.ledger.totals();
    let figures = ReplayFigures {
        traced,
        setup_s,
        replay_s,
        serving_s: svc.compile_wall_seconds + svc.exec_wall_seconds + svc.commit_wall_seconds,
        jobs_completed: outcome.result_digests.len(),
        latencies_ms: svc.latencies_ms.iter().map(|(_, ms)| *ms).collect(),
        sim_processing_s: totals.processing_seconds,
        sim_latency_s: totals.latency_seconds,
        layers,
    };
    let sim = outcome
        .ledger
        .records()
        .iter()
        .map(|r| (r.result.job, (r.result.processing_seconds, r.result.latency().seconds())))
        .collect();
    let results = ReplayResults {
        traced,
        failed_jobs: outcome.failed_jobs,
        digests: outcome.result_digests,
        sim,
        broken_invariants,
    };
    (figures, results)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn run(args: &Args) -> cv_common::Result<ExitCode> {
    let spec = args.spec;
    let host = HostRecord::measure();
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: rev {} date {} nproc {} effective_parallelism {:.3}",
        host.git_rev, host.date, host.nproc, host.effective_parallelism
    );
    println!("workload: {}", spec.describe());

    let work = WorkDir::create()
        .map_err(|e| cv_common::CvError::internal(format!("scratch directory: {e}")))?;
    let mut bench = Bench { spec, seed: args.seed, work, stores_opened: 0 };

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut setups = Vec::new();
    let mut figures = Vec::new();
    let mut results = Vec::new();
    loop {
        for traced in [false, true].into_iter().take(if args.trace { 2 } else { 1 }) {
            for _ in 0..EXTRA_SETUPS {
                let (_, store, setup_s) = bench.setup()?;
                store.close();
                setups.push(setup_s);
            }
            let (f, r) = bench.replay(traced)?;
            figures.push(f);
            results.push(r);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let peak_rss = peak_rss_mb().unwrap_or(0.0);
    setups.extend(figures.iter().map(|f| f.setup_s));

    // The oracle runs after the timed replays so that its memory does not
    // count towards their peak.
    let oracle_started = Instant::now();
    let oracle =
        run_workload(&spec.workload(args.seed), &cv_workload::DriverConfig::baseline(DAYS))?;
    let oracle_s = oracle_started.elapsed().as_secs_f64();
    let mut verdict = verdict::check(&oracle.result_digests, &results, spec.sim_repeats_exactly());
    if oracle.failed_jobs > 0 {
        verdict.problems.push(format!("the no-reuse oracle failed {} jobs", oracle.failed_jobs));
    }

    let untraced: Vec<&ReplayFigures> = figures.iter().filter(|f| !f.traced).collect();
    let traced: Vec<&ReplayFigures> = figures.iter().filter(|f| f.traced).collect();
    let e2e = report::end_to_end(&untraced, &setups, peak_rss);
    let layers = report::per_layer(&traced, &untraced);
    let shown: &[Reported] = if args.trace { &layers } else { &e2e };
    report::print_table(shown);
    println!(
        "correctness: {} jobs attempted over {} replays, {} failed (failed_jobs_ratio {}); \
         oracle {} jobs in {oracle_s:.3} s",
        verdict.attempted,
        results.len(),
        verdict.failed,
        verdict.failed_jobs_ratio(),
        oracle.result_digests.len()
    );
    if !spec.sim_repeats_exactly() {
        println!(
            "  simulated figures moved for {} job replays (view reads are priced by buffer-pool \
             residency, which follows the realized schedule; not gated)",
            verdict.sim_moved
        );
    }
    for p in &verdict.problems {
        println!("  FAILED: {p}");
    }

    let mut record = JsonMap::new();
    record.insert("host", host.to_json());
    record.insert("workload", spec.name);
    record.insert("seed", args.seed);
    record.insert("replays", results.len() as u64);
    record.insert("jobs_attempted", verdict.attempted);
    record.insert("jobs_failed", verdict.failed);
    record.insert("failed_jobs_ratio", verdict.failed_jobs_ratio());
    record.insert("sim_jobs_moved", verdict.sim_moved);
    let mut all = JsonMap::new();
    for r in e2e.iter().chain(&layers) {
        all.insert(r.name.as_str(), report::record_json(r));
    }
    record.insert("metrics", Json::Obj(all));
    println!("record: {}", Json::Obj(record).to_string_compact());

    let correct = verdict.correct();
    let result = report::result_json(correct, verdict.attempted, verdict.failed, shown);
    println!("{}", result.to_string_compact());
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cv-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("cv-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
