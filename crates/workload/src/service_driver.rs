//! Concurrent (service-mode) workload driver.
//!
//! The sequential [`crate::driver`] replays one job at a time; this driver
//! replays the same workload the way the paper's production service runs it
//! (§2.1): many jobs from many virtual clusters execute *concurrently*
//! against shared reuse state — a sharded view store, the insights service,
//! and the single-flight materialization registry that turns Fig. 9's
//! concurrent-duplicate opportunity into realized savings.
//!
//! The steps every job takes in both drivers — ingest, admission, commit,
//! cooked-output publish, view announce, analysis and the run roll-up —
//! live in [`crate::lifecycle`]. This module is the service's runner plus
//! what only it does: waves, single-flight promises and claims, the epoch
//! index, pool execution, the day-end announce, and the `(submit, job)`
//! ordered cluster replay.
//!
//! # The three-phase wave protocol
//!
//! Each day's due jobs are split into waves (dataset producers before their
//! consumers) and every wave runs three phases:
//!
//! 1. **Compile (sequential, job order)** — annotate, rewrite the reuse
//!    context against the single-flight registry (an in-flight build of a
//!    wanted signature becomes a *promised* view plus a scheduling
//!    dependency on its builder; a flight already published becomes
//!    ordinary reuse), optimize under the insights creation locks, claim
//!    flights for the views this job will build.
//! 2. **Execute (parallel)** — the work-stealing pool runs every compiled
//!    plan; dependency gating holds consumers until their builders finish,
//!    so pipelined reads hit a sealed view, never a blocked wait (the
//!    single-flight `wait` remains as safety net). Builders seal into the
//!    shared store immediately and resolve their flights. Pool tasks touch
//!    only the engine, the store and the flight registry — never the
//!    insights service.
//! 3. **Commit (sequential, job order)** — the shared commit, then realized
//!    pipelining savings, the cooked-output publish, and the day's sealed
//!    views queued for the day-end announce.
//!
//! Because every phase that touches shared metadata is sequential in job
//! order and execution itself is deterministic per plan, the per-job result
//! digests are byte-identical for any worker count and any seed — and with
//! one worker the realized schedule *is* the submission order.
//!
//! Cluster-side accounting (latency, containers, retries) is replayed at
//! the end through [`merge_completions`], which sorts job specs by
//! `(submit, job)` before feeding the simulator — concurrent completion
//! order can never leak into the metrics (the monotonic-submission fix).

use crate::driver::{DriverConfig, IvmMode};
use crate::generator::Workload;
use crate::lifecycle::{due_jobs, report_json, seal_view, Executed, Lifecycle, SealedView};
use crate::service_obs::{job_track, ServiceObs};
use crate::templates::JobTemplate;
use cv_cluster::metrics::{MetricsLedger, RobustnessStats};
use cv_cluster::sim::{ClusterConfig, ClusterSim, JobSpec};
use cv_cluster::stage::build_stages;
use cv_common::hash::Sig128;
use cv_common::ids::JobId;
use cv_common::json::Json;
use cv_common::{json, CvError, FaultPlan, Result, SimDay, SimTime};
use cv_core::insights::UsageEvent;
use cv_core::repository::{JobMeta, SubexpressionRepo};
use cv_data::sharded::ShardedViewStore;
use cv_data::store_api::SharedViewStore;
use cv_data::viewstore::ViewStoreStats;
use cv_engine::engine::QueryEngine;
use cv_engine::exec::{ExecOutcome, OpStateSource, PendingView};
use cv_engine::optimizer::{AlwaysGrant, ReuseContext, SemanticGrant, ViewMeta};
use cv_engine::physical::PhysicalPlan;
use cv_engine::signature::SubexprInfo;
use cv_service::{
    run_tasks, FlightOutcome, PipelinedViewSource, PoolConfig, PromisedView, ServiceStats,
    SingleFlight, TaskSpec,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Service-layer knobs on top of [`DriverConfig`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the execution pool.
    pub workers: usize,
    /// Lock stripes in the shared view store.
    pub store_shards: usize,
    /// Max concurrently admitted jobs per virtual cluster.
    pub vc_inflight_limit: usize,
    /// Bound on each VC's deferred queue (backpressure on the submitter).
    pub queue_cap: usize,
    /// Open-loop pacing: wall-clock microseconds of release gap per
    /// sim-hour between consecutive submissions. 0 = closed loop (release
    /// everything immediately, the pool's admission control is the only
    /// throttle).
    pub pacing_us_per_sim_hour: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            store_shards: cv_data::sharded::DEFAULT_SHARDS,
            vc_inflight_limit: 4,
            queue_cap: 32,
            pacing_us_per_sim_hour: 0,
        }
    }
}

/// Service-side counters for one run.
#[derive(Clone, Debug, Default)]
pub struct ServiceReport {
    pub workers: usize,
    pub shards: usize,
    /// Jobs whose execution read at least one view built by a concurrent
    /// job in the same epoch.
    pub pipelined_jobs: u64,
    pub pipelined_reads: u64,
    pub flight_waits: u64,
    pub duplicate_materializations: u64,
    /// Sealed chunks builders streamed into the flight registry pre-commit.
    pub chunks_spooled: u64,
    /// Promised reads served by reassembling a builder's chunk stream.
    pub chunk_assembled_reads: u64,
    /// Work units of recomputation avoided by pipelining — compare against
    /// `pipelining_savings_bound` (the Fig. 9 opportunity).
    pub realized_pipelining_savings: f64,
    pub steals: u64,
    pub admission_deferrals: u64,
    pub max_inflight: usize,
    /// Peak total parked tasks across all per-VC deferred queues.
    pub max_queue_depth: usize,
    /// Wall-clock seconds spent inside the execution pool, measured from
    /// the same ready-barrier epoch as `parallel_wall_seconds` through
    /// worker teardown. This is *not* the speedup denominator —
    /// `parallel_wall_seconds` is.
    pub exec_wall_seconds: f64,
    /// Wall-clock seconds of the parallel phase proper, summed over waves:
    /// batch epoch (all workers up and parked) → last task completion.
    pub parallel_wall_seconds: f64,
    /// Wall-clock seconds of the sequential compile phase (phase A).
    pub compile_wall_seconds: f64,
    /// Wall-clock seconds of the sequential commit phase (phase C).
    pub commit_wall_seconds: f64,
    /// Pool overhead: `exec_wall − parallel_wall`, i.e. worker teardown
    /// after the last task. Both terms share the ready-barrier epoch, so
    /// this is the pool's true residue and stays below the parallel phase
    /// itself (the old caller-clock measure also counted thread spawn
    /// before the barrier and could exceed the parallel wall).
    pub pool_overhead_seconds: f64,
    /// Per-worker seconds spent inside task closures, summed over waves.
    pub worker_busy_seconds: Vec<f64>,
    /// Per-job wall latency (release → completion) in milliseconds, sorted
    /// by job id.
    pub latencies_ms: Vec<(JobId, f64)>,
    /// Operator-state cache outcome (all-zero when the cache is disabled).
    pub op_state: OpStateReport,
}

/// Operator-state cache counters for one run, merged from the cache's own
/// stats and the per-job executor metrics.
#[derive(Clone, Debug, Default)]
pub struct OpStateReport {
    /// Cache was configured with a nonzero budget.
    pub enabled: bool,
    /// Breaker states restored instead of rebuilt.
    pub hits: u64,
    /// Of `hits`, those where the publisher was a *different* job — the
    /// cross-job reuse the ci gate asserts on.
    pub cross_job_hits: u64,
    pub misses: u64,
    pub published: u64,
    pub evicted: u64,
    /// Waits on an in-flight build that degraded to an inline rebuild
    /// (builder abandoned, or wait timed out).
    pub degraded_waits: u64,
    /// Entries dropped by quarantine / GDPR purge coupling.
    pub purged: u64,
    pub resident_bytes: u64,
    /// Modeled work units of skipped builds, summed over hits.
    pub build_work_avoided: f64,
    /// Measured wall seconds of skipped builds, summed over hits.
    pub build_wall_avoided: f64,
}

impl OpStateReport {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    pub fn to_json(&self) -> Json {
        json!({
            "enabled": self.enabled,
            "hits": self.hits,
            "cross_job_hits": self.cross_job_hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate(),
            "published": self.published,
            "evicted": self.evicted,
            "degraded_waits": self.degraded_waits,
            "purged": self.purged,
            "resident_bytes": self.resident_bytes,
            "build_work_avoided": self.build_work_avoided,
            "build_wall_avoided_seconds": self.build_wall_avoided,
        })
    }
}

impl ServiceReport {
    pub fn to_json(&self) -> Json {
        let idle: Vec<f64> = self
            .worker_busy_seconds
            .iter()
            .map(|b| (self.parallel_wall_seconds - b).max(0.0))
            .collect();
        json!({
            "workers": self.workers,
            "shards": self.shards,
            "pipelined_jobs": self.pipelined_jobs,
            "pipelined_reads": self.pipelined_reads,
            "flight_waits": self.flight_waits,
            "duplicate_materializations": self.duplicate_materializations,
            "chunks_spooled": self.chunks_spooled,
            "chunk_assembled_reads": self.chunk_assembled_reads,
            "realized_pipelining_savings": self.realized_pipelining_savings,
            "steals": self.steals,
            "admission_deferrals": self.admission_deferrals,
            "max_inflight": self.max_inflight,
            "max_queue_depth": self.max_queue_depth,
            "exec_wall_seconds": self.exec_wall_seconds,
            "phase_wall_seconds": json!({
                "compile": self.compile_wall_seconds,
                "execute_parallel": self.parallel_wall_seconds,
                "execute_pool": self.exec_wall_seconds,
                "commit": self.commit_wall_seconds,
                "pool_overhead": self.pool_overhead_seconds,
            }),
            "worker_busy_seconds": Json::Arr(
                self.worker_busy_seconds.iter().map(|b| Json::from(*b)).collect()
            ),
            "worker_idle_seconds": Json::Arr(idle.into_iter().map(Json::from).collect()),
            "op_state": self.op_state.to_json(),
        })
    }
}

/// Everything a service run produces: the sequential driver's outcome
/// fields plus the service counters.
#[derive(Debug)]
pub struct ServiceOutcome {
    pub ledger: MetricsLedger,
    pub repo: SubexpressionRepo,
    pub usage: Vec<UsageEvent>,
    pub view_store_stats: ViewStoreStats,
    pub result_digests: BTreeMap<JobId, Sig128>,
    pub failed_jobs: u64,
    pub selection_history: Vec<(SimDay, usize)>,
    pub gdpr_purged_views: u64,
    pub robustness: RobustnessStats,
    pub service: ServiceReport,
    /// Durable-store IO counters (`None` when the run used the in-memory
    /// sharded store).
    pub store_io: Option<cv_data::store_api::StoreIoStats>,
}

impl ServiceOutcome {
    /// The run's JSON report: the sequential driver's shape with the
    /// service counters in place of the IVM section.
    pub fn report_json(&self) -> Json {
        report_json(
            &self.ledger,
            self.failed_jobs,
            &self.robustness,
            self.store_io.as_ref(),
            ("service", self.service.to_json()),
        )
    }
}

/// One compiled job awaiting (or back from) pool execution.
struct CompiledTask {
    meta: JobMeta,
    use_cv: bool,
    matched: Vec<Sig128>,
    /// Of `matched`, views served through a certified semantic
    /// (compensated) substitution.
    compensated: usize,
    built: Vec<Sig128>,
    /// Defining plans of the views this job builds, for semantic serving
    /// after the seal.
    built_plans: Vec<(Sig128, std::sync::Arc<cv_engine::plan::LogicalPlan>)>,
    subexprs: Vec<SubexprInfo>,
    output_dataset: Option<String>,
}

/// How one pending view's seal went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SealState {
    /// Sealed into the store; announce at the epoch boundary.
    Published,
    /// Dropped (write fault or quarantine race); release the creation lock.
    Dropped,
    /// The signature was already live — a duplicate materialization the
    /// single-flight layer exists to prevent.
    Duplicate,
}

struct SealReport {
    /// The view as sealed; its defining plan is attached at commit.
    view: SealedView,
    state: SealState,
}

/// What a pool task ships back to the commit phase.
struct TaskDone {
    exec: ExecOutcome,
    stages: cv_cluster::stage::StageGraph,
    served: Vec<Sig128>,
    seals: Vec<SealReport>,
}

/// A view claimed (or sealed) earlier today, advertised by template
/// signature for the widened semantic match. The day-end insights announce
/// is useless for same-day reuse — by the time it lands, the cooked
/// datasets have rotated — so the epoch index is what lets a later job's
/// containment prover see views built minutes earlier by a concurrent job.
struct EpochView {
    strict: Sig128,
    plan: std::sync::Arc<cv_engine::plan::LogicalPlan>,
    rows: u64,
    bytes: u64,
}

/// Run a workload through the concurrent service.
///
/// Determinism contract: for a fixed workload and [`DriverConfig`], the
/// per-job `result_digests` are identical for every `svc.workers` value —
/// and identical to the sequential [`crate::driver::run_workload`] digests
/// (reuse and scheduling never change results).
pub fn run_workload_service(
    workload: &Workload,
    cfg: &DriverConfig,
    svc: &ServiceConfig,
) -> Result<ServiceOutcome> {
    run_workload_service_obs(workload, cfg, svc, None)
}

/// [`run_workload_service`] with observability attached: when `obs` is
/// `Some`, the run records spans (driver loop on track 0, each job's
/// lifecycle on track `job_id + 1`) and metrics into the given
/// [`ServiceObs`]. With `None` the instrumentation collapses to a handful
/// of branch tests — no clock reads, no allocation, no virtual calls.
pub fn run_workload_service_obs(
    workload: &Workload,
    cfg: &DriverConfig,
    svc: &ServiceConfig,
    obs: Option<&ServiceObs>,
) -> Result<ServiceOutcome> {
    // The engine's own store stays empty; all view traffic goes through the
    // shared sharded store.
    let store = ShardedViewStore::new(cfg.view_ttl, svc.store_shards);
    run_workload_service_with_store(workload, cfg, svc, &store, obs)
}

/// [`run_workload_service_obs`] against a caller-provided shared store —
/// the seam that lets the concurrent service run on the durable
/// (disk-backed) store. The caller owns the store's lifecycle: opening,
/// recovery, and final checkpoint.
///
/// Byte-budget crash injection (`FaultPlan::crash_after_bytes`) is rejected
/// here: a mid-write crash poisons the store while other workers hold
/// compiled plans against it, and the service has no coordinated
/// stop-the-world recovery. Crash sweeps run through the sequential driver.
pub fn run_workload_service_with_store(
    workload: &Workload,
    cfg: &DriverConfig,
    svc: &ServiceConfig,
    store: &dyn SharedViewStore,
    obs: Option<&ServiceObs>,
) -> Result<ServiceOutcome> {
    if cfg.faults.crash_after_bytes.is_some() {
        return Err(CvError::internal(
            "crash_after_bytes is a sequential-driver fault: the concurrent service \
             cannot coordinate recovery across in-flight workers",
        ));
    }
    if cfg.ivm == IvmMode::Maintain {
        return Err(CvError::internal(
            "ivm Maintain is a sequential-driver mode: the concurrent service has no \
             incremental-maintenance path (Ingest is supported)",
        ));
    }
    let mut core = Lifecycle::new(workload, cfg, store, false);
    if let Some(o) = obs {
        core.engine.optimizer.set_obs(o.optimizer_sink.clone());
    }
    let flights = SingleFlight::new();
    let stats = ServiceStats::default();
    let mut specs_for_sim: Vec<JobSpec> = Vec::new();
    let mut pipelined_jobs = 0u64;
    let mut steals = 0u64;
    let mut admission_deferrals = 0u64;
    let mut max_inflight = 0usize;
    let mut max_queue_depth = 0usize;
    let mut exec_wall = Duration::ZERO;
    let mut parallel_wall = Duration::ZERO;
    let mut compile_wall = Duration::ZERO;
    let mut commit_wall = Duration::ZERO;
    let mut worker_busy: Vec<Duration> = Vec::new();
    let mut latencies_ms: Vec<(JobId, f64)> = Vec::new();
    let mut op_work_avoided = 0.0f64;
    let mut op_wall_avoided = 0.0f64;

    for day in (0..cfg.days).map(SimDay) {
        if let Some(o) = obs {
            o.tracer.begin(0, "day");
        }

        // Hygiene once per day (the sequential driver evicts before every
        // job; reads re-check expiry themselves, so only eviction-counter
        // timing differs — see DESIGN.md §9).
        store.evict_expired(day.start())?;
        core.insights.expire(day.start());
        core.start_day(day, obs)?;

        // Wave split: dataset producers run (and publish to the catalog)
        // before any consumer compiles. The generator schedules cooking
        // well before analytics; verify that holds so the split never
        // reorders jobs relative to the sequential driver.
        let due = due_jobs(workload, day);
        let first_consumer =
            due.iter().position(|t| t.output_dataset().is_none()).unwrap_or(due.len());
        if due[first_consumer..].iter().any(|t| t.output_dataset().is_some()) {
            return Err(CvError::constraint(
                "wave partition would reorder jobs: a dataset producer submits after a consumer",
            ));
        }
        let (wave0, wave1) = due.split_at(first_consumer);

        let mut day_seals: Vec<SealedView> = Vec::new();
        // Template → views built earlier today, for the semantic cascade.
        let mut epoch_views: HashMap<Sig128, Vec<EpochView>> = HashMap::new();
        for wave in [wave0, wave1] {
            if wave.is_empty() {
                continue;
            }
            let report = run_wave(WaveCtx {
                core: &mut core,
                flights: &flights,
                stats: &stats,
                wave,
                day,
                svc,
                day_seals: &mut day_seals,
                epoch_views: &mut epoch_views,
                specs_for_sim: &mut specs_for_sim,
                pipelined_jobs: &mut pipelined_jobs,
                obs,
            })?;
            steals += report.steals;
            admission_deferrals += report.admission_deferrals;
            max_inflight = max_inflight.max(report.max_inflight);
            max_queue_depth = max_queue_depth.max(report.max_queue_depth);
            exec_wall += report.exec_wall;
            parallel_wall += report.parallel_wall;
            compile_wall += report.compile_wall;
            commit_wall += report.commit_wall;
            op_work_avoided += report.op_state_work_avoided;
            op_wall_avoided += report.op_state_wall_avoided;
            if worker_busy.len() < report.worker_busy.len() {
                worker_busy.resize(report.worker_busy.len(), Duration::ZERO);
            }
            for (acc, d) in worker_busy.iter_mut().zip(&report.worker_busy) {
                *acc += *d;
            }
            latencies_ms.extend(
                report.latencies.into_iter().map(|(job, d)| (job, d.as_secs_f64() * 1000.0)),
            );
        }

        // Day end: announce the views sealed this day to the insights
        // service, in job order (the sequential driver announces at the
        // simulator's seal events; the digest contract is unaffected, only
        // the announce instant differs — DESIGN.md §9).
        if let Some(o) = obs {
            o.tracer.begin(0, "announce");
        }
        let n_seals = day_seals.len() as u64;
        for seal in day_seals {
            core.announce(seal);
        }
        flights.clear();
        if let Some(o) = obs {
            o.tracer.end_with(0, &[("seals", n_seals)]);
        }

        core.analyze(day, obs);
        if let Some(o) = obs {
            o.tracer.end_with(0, &[("day", u64::from(day.index()))]);
        }
    }

    // Cluster-side accounting, merged deterministically.
    let end = core.finish(&merge_completions(specs_for_sim, &cfg.cluster, &cfg.faults)?);

    let snap = stats.snapshot();
    latencies_ms.sort_by_key(|a| a.0);
    let op_state = match &end.op_state {
        Some(s) => OpStateReport {
            enabled: true,
            hits: s.hits,
            cross_job_hits: s.cross_job_hits,
            misses: s.misses,
            published: s.published,
            evicted: s.evicted,
            degraded_waits: s.degraded_waits,
            purged: s.purged,
            resident_bytes: s.resident_bytes,
            build_work_avoided: op_work_avoided,
            build_wall_avoided: op_wall_avoided,
        },
        None => OpStateReport::default(),
    };
    let service = ServiceReport {
        workers: svc.workers,
        shards: store.n_shards(),
        pipelined_jobs,
        pipelined_reads: snap.pipelined_reads,
        flight_waits: snap.flight_waits,
        duplicate_materializations: snap.duplicate_materializations,
        chunks_spooled: flights.stats().chunks_buffered,
        chunk_assembled_reads: snap.chunk_assembled_reads,
        realized_pipelining_savings: snap.realized_savings,
        steals,
        admission_deferrals,
        max_inflight,
        max_queue_depth,
        exec_wall_seconds: exec_wall.as_secs_f64(),
        parallel_wall_seconds: parallel_wall.as_secs_f64(),
        compile_wall_seconds: compile_wall.as_secs_f64(),
        commit_wall_seconds: commit_wall.as_secs_f64(),
        pool_overhead_seconds: exec_wall.saturating_sub(parallel_wall).as_secs_f64(),
        worker_busy_seconds: worker_busy.iter().map(Duration::as_secs_f64).collect(),
        latencies_ms,
        op_state,
    };

    if let Some(o) = obs {
        let m = &o.metrics;
        let fl = flights.stats();
        m.add("flight.claims", fl.claims);
        m.add("flight.waits", fl.waits);
        m.add("flight.resolves", fl.resolves);
        m.add("flight.chunks_buffered", fl.chunks_buffered);
        m.add("service.chunk_assembled_reads", snap.chunk_assembled_reads);
        let st = &end.view_store_stats;
        m.add("store.views_created", st.views_created);
        m.add("store.views_reused", st.views_reused);
        m.add("store.read_misses", st.read_misses);
        m.add("store.bytes_written", st.bytes_written);
        m.add("store.bytes_served", st.bytes_served);
        if let Some(io) = &end.store_io {
            m.add("store.page_cache_hits", io.page_cache_hits);
            m.add("store.page_cache_misses", io.page_cache_misses);
            m.add("store.pages_evicted", io.pages_evicted);
            m.add("store.wal_fsyncs", io.wal_fsyncs);
            m.add("store.wal_records_written", io.wal_records_written);
            m.add("store.wal_records_replayed", io.wal_records_replayed);
            m.add("store.recoveries", io.recoveries);
            m.add("store.checkpoints", io.checkpoints);
        }
        m.add("service.pipelined_jobs", pipelined_jobs);
        m.add("service.pipelined_reads", snap.pipelined_reads);
        m.add("service.flight_waits", snap.flight_waits);
        m.add("service.duplicate_materializations", snap.duplicate_materializations);
        m.set("pool.workers", svc.workers as u64);
        m.add("pool.steals", steals);
        m.add("pool.admission_deferrals", admission_deferrals);
        m.gauge("pool.max_inflight").set_max(max_inflight as u64);
        m.gauge("pool.max_queue_depth").set_max(max_queue_depth as u64);
        for (i, busy) in worker_busy.iter().enumerate() {
            m.add(&format!("pool.worker{i}.busy_us"), busy.as_micros() as u64);
        }
        m.add("phase.compile_us", compile_wall.as_micros() as u64);
        m.add("phase.parallel_us", parallel_wall.as_micros() as u64);
        m.add("phase.commit_us", commit_wall.as_micros() as u64);
        m.add("phase.pool_us", exec_wall.as_micros() as u64);
        // Cache-side op_state counters (the per-op hit/miss/publish
        // counters come from each task's ExecSink).
        m.add("op_state.cross_job_hits", service.op_state.cross_job_hits);
        m.add("op_state.evicted", service.op_state.evicted);
        m.add("op_state.degraded_waits", service.op_state.degraded_waits);
        m.add("op_state.purged", service.op_state.purged);
        m.gauge("op_state.resident_bytes").set_max(service.op_state.resident_bytes);
    }

    Ok(ServiceOutcome {
        ledger: end.ledger,
        repo: end.repo,
        usage: end.usage,
        view_store_stats: end.view_store_stats,
        result_digests: end.result_digests,
        failed_jobs: end.failed_jobs,
        selection_history: end.selection_history,
        gdpr_purged_views: end.gdpr_purged_views,
        robustness: end.robustness,
        store_io: end.store_io,
        service,
    })
}

/// Everything one wave needs (bundled to keep `run_wave` callable).
struct WaveCtx<'a, 'r, 'w> {
    core: &'a mut Lifecycle<'r>,
    flights: &'a SingleFlight,
    stats: &'a ServiceStats,
    wave: &'a [&'w JobTemplate],
    day: SimDay,
    svc: &'a ServiceConfig,
    day_seals: &'a mut Vec<SealedView>,
    epoch_views: &'a mut HashMap<Sig128, Vec<EpochView>>,
    specs_for_sim: &'a mut Vec<JobSpec>,
    pipelined_jobs: &'a mut u64,
    obs: Option<&'a ServiceObs>,
}

struct WaveReport {
    steals: u64,
    admission_deferrals: u64,
    max_inflight: usize,
    max_queue_depth: usize,
    /// Total pool wall (ready barrier → worker teardown).
    exec_wall: Duration,
    /// Parallel phase proper (batch epoch → last completion).
    parallel_wall: Duration,
    compile_wall: Duration,
    commit_wall: Duration,
    worker_busy: Vec<Duration>,
    latencies: Vec<(JobId, Duration)>,
    /// Skipped-build credit summed from the wave's executor metrics.
    op_state_work_avoided: f64,
    op_state_wall_avoided: f64,
}

fn run_wave(ctx: WaveCtx<'_, '_, '_>) -> Result<WaveReport> {
    let WaveCtx {
        core,
        flights,
        stats,
        wave,
        day,
        svc,
        day_seals,
        epoch_views,
        specs_for_sim,
        pipelined_jobs,
        obs,
    } = ctx;
    let store = core.store;

    // ---- Phase A: compile sequentially, in job order. ----
    let compile_started = Instant::now();
    if let Some(o) = obs {
        o.tracer.begin(0, "compile");
    }
    let mut compiled: Vec<CompiledTask> = Vec::new();
    // Owned per-task execution inputs, moved into pool closures.
    let mut exec_inputs: Vec<(PhysicalPlan, HashSet<Sig128>, Vec<JobId>)> = Vec::new();

    for template in wave {
        let meta = core.admit(template, day);
        let (job, submit) = (meta.job, meta.submit);
        let track = job_track(job);
        if let Some(o) = obs {
            o.tracer.begin(track, "job");
            o.tracer.begin(track, "compile");
            o.optimizer_sink.set_track(track);
        }
        let use_cv = core.use_cloudviews(submit);

        let compile = (|| -> Result<(CompiledTask, PhysicalPlan, HashSet<Sig128>, Vec<JobId>)> {
            let engine = &core.engine;
            let plan = template.build_plan(engine, day)?;
            if let Some(o) = obs {
                o.tracer.begin(track, "normalize");
            }
            let subexprs = engine.subexpressions(&plan);
            if let Some(o) = obs {
                let n = subexprs.as_ref().map_or(0, |s| s.len() as u64);
                o.tracer.end_with(track, &[("subexprs", n)]);
            }
            let subexprs = subexprs?;
            let mut reuse = if use_cv {
                core.insights.annotate(meta.vc, job, &subexprs, submit).0
            } else {
                ReuseContext::empty()
            };

            // Flight-state rewrite: reconcile the wanted builds against the
            // in-flight registry before optimizing.
            let mut promised: HashSet<Sig128> = HashSet::new();
            let mut deps: Vec<JobId> = Vec::new();
            if use_cv {
                let mut wanted: Vec<Sig128> = reuse.to_build.iter().copied().collect();
                wanted.sort();
                for sig in wanted {
                    if let Some((builder, pv)) = flights.promise(sig) {
                        // A concurrent job is building it: plan against the
                        // promised statistics and pipeline from the builder.
                        reuse.to_build.remove(&sig);
                        reuse.available.insert(sig, ViewMeta::hot(pv.rows, pv.bytes));
                        promised.insert(sig);
                        if !deps.contains(&builder) {
                            deps.push(builder);
                        }
                    } else if let Some(outcome) = flights.outcome(sig) {
                        match outcome {
                            FlightOutcome::Published => {
                                // Built earlier this epoch (e.g. by wave 0):
                                // ordinary reuse with the sealed statistics.
                                if let Some((rows, bytes, _)) = store.peek_meta(sig, submit) {
                                    reuse.to_build.remove(&sig);
                                    reuse.available.insert(sig, ViewMeta::hot(rows, bytes));
                                }
                            }
                            // Failed builds released their creation lock in
                            // the commit phase; leave the signature in
                            // to_build so this job may rebuild it.
                            FlightOutcome::Failed => {}
                        }
                    }
                }
            }

            // Widened (semantic) serving within the epoch: views claimed or
            // sealed earlier today whose *template* matches one of this
            // job's subexpressions become semantic grants. The containment
            // prover — not this index — decides admissibility; unproven
            // grants cost nothing.
            if use_cv {
                for sub in &subexprs {
                    if reuse.available.contains_key(&sub.strict) {
                        continue;
                    }
                    let Some(views) = epoch_views.get(&sub.template) else { continue };
                    for v in views {
                        if v.strict == sub.strict || reuse.available.contains_key(&v.strict) {
                            continue;
                        }
                        reuse.semantic.entry(v.strict).or_insert_with(|| SemanticGrant {
                            plan: v.plan.clone(),
                            meta: ViewMeta::hot(v.rows, v.bytes),
                            template: sub.template,
                        });
                    }
                }
            }

            if let Some(o) = obs {
                o.tracer.begin(track, "optimize");
            }
            let compiled_job = if use_cv {
                engine.optimize(&plan, &reuse, &mut core.insights.locker())
            } else {
                engine.optimize(&plan, &reuse, &mut AlwaysGrant)
            };
            if let Some(o) = obs {
                match &compiled_job {
                    Ok(c) => o.tracer.end_with(
                        track,
                        &[
                            ("matched", c.outcome.matched_views.len() as u64),
                            ("built", c.outcome.built_views.len() as u64),
                        ],
                    ),
                    Err(_) => o.tracer.end_with(track, &[("failed", 1)]),
                }
            }
            let compiled_job = compiled_job?;

            let built = compiled_job.outcome.built_views.clone();
            for sig in &built {
                let promise = spool_promise(&compiled_job.outcome.physical, *sig);
                if flights.claim(*sig, job, promise) {
                    // Advertise the claim by template so later jobs today
                    // can reach it through the containment prover.
                    if let Some((_, plan)) =
                        compiled_job.outcome.built_plans.iter().find(|(s, _)| s == sig)
                    {
                        if let Some(template) = cv_engine::signature::template_signature(
                            plan,
                            &engine.optimizer.cfg.sig,
                        ) {
                            epoch_views.entry(template).or_default().push(EpochView {
                                strict: *sig,
                                plan: plan.clone(),
                                rows: promise.rows,
                                bytes: promise.bytes,
                            });
                        }
                    }
                }
            }

            // Compensated substitutions against a still-in-flight builder
            // pipeline exactly like exact promised reads: record the
            // dependency so the scheduler gates execution, and the sig so
            // the view source blocks (and falls back) correctly.
            for (view_sig, _) in &compiled_job.outcome.compensated_views {
                if let Some((builder, _)) = flights.promise(*view_sig) {
                    if builder != job {
                        promised.insert(*view_sig);
                        if !deps.contains(&builder) {
                            deps.push(builder);
                        }
                    }
                }
            }

            let task = CompiledTask {
                meta,
                use_cv,
                matched: compiled_job.outcome.matched_views.clone(),
                compensated: compiled_job.outcome.compensated_views.len(),
                built,
                built_plans: compiled_job.outcome.built_plans.clone(),
                subexprs,
                output_dataset: template.output_dataset().map(str::to_string),
            };
            Ok((task, compiled_job.outcome.physical, promised, deps))
        })();

        match compile {
            Ok((task, physical, promised, deps)) => {
                if let Some(o) = obs {
                    o.tracer.end_with(
                        track,
                        &[
                            ("matched", task.matched.len() as u64),
                            ("built", task.built.len() as u64),
                            ("promised", promised.len() as u64),
                            ("deps", deps.len() as u64),
                        ],
                    );
                }
                compiled.push(task);
                exec_inputs.push((physical, promised, deps));
            }
            Err(_) => {
                if let Some(o) = obs {
                    // Close the compile span, then the job span.
                    o.tracer.end_with(track, &[("failed", 1)]);
                    o.tracer.end_with(track, &[("failed", 1)]);
                }
                core.failed_jobs += 1;
            }
        }
    }
    if let Some(o) = obs {
        o.tracer.end_with(0, &[("jobs", wave.len() as u64), ("compiled", compiled.len() as u64)]);
    }
    let compile_wall = compile_started.elapsed();

    // ---- Phase B: execute in parallel. ----
    let pool_cfg = PoolConfig {
        workers: svc.workers,
        vc_inflight_limit: svc.vc_inflight_limit,
        queue_cap: svc.queue_cap,
    };
    // Open-loop release gaps scaled from sim-time submission deltas.
    let gaps: Vec<Duration> = if svc.pacing_us_per_sim_hour == 0 {
        vec![Duration::ZERO; compiled.len()]
    } else {
        let mut gaps = Vec::with_capacity(compiled.len());
        let mut prev: Option<f64> = None;
        for t in &compiled {
            let s = t.meta.submit.seconds();
            let gap = prev.map_or(0.0, |p| (s - p).max(0.0) / 3600.0);
            gaps.push(Duration::from_micros((gap * svc.pacing_us_per_sim_hour as f64) as u64));
            prev = Some(s);
        }
        gaps
    };

    let (tx, rx) = mpsc::channel::<(JobId, Result<TaskDone>)>();
    let mut tasks: Vec<TaskSpec<'_>> = Vec::new();
    let engine: &QueryEngine = &core.engine;
    for (task, (physical, promised, deps)) in compiled.iter().zip(exec_inputs) {
        let job = task.meta.job;
        let vc = task.meta.vc;
        let submit = task.meta.submit;
        let built = task.built.clone();
        let tx = tx.clone();
        let exec_sink = obs.map(|o| o.exec_sink(job_track(job)));
        // Per-job view of the shared op-state cache: the tag lets the cache
        // attribute hits on another job's published state as cross-job.
        let tagged = core.op_states_for(job);
        tasks.push(TaskSpec {
            job,
            vc,
            deps,
            run: Box::new(move || {
                if let Some(sink) = &exec_sink {
                    sink.begin_execute();
                }
                let src = PipelinedViewSource::new(store, flights, stats, promised);
                // The flight registry doubles as the spool sink: each
                // sealed chunk of a claimed build streams to it pre-commit
                // so blocked consumers can assemble the view directly.
                let res = engine.execute_with_states(
                    &physical,
                    &src,
                    submit,
                    exec_sink.as_ref().map(|s| &**s as &dyn cv_engine::obs::ObsSink),
                    Some(flights as &dyn cv_engine::SpoolSink),
                    tagged.as_ref().map(|t| t as &dyn OpStateSource),
                );
                let served = src.into_served();
                let done = res.and_then(|exec| {
                    let mut seals = Vec::new();
                    let mut resolved: HashSet<Sig128> = HashSet::new();
                    for pv in &exec.pending_views {
                        let state = seal_pending(store, stats, pv, job, vc, submit);
                        let outcome = match state {
                            SealState::Published | SealState::Duplicate => FlightOutcome::Published,
                            SealState::Dropped => FlightOutcome::Failed,
                        };
                        flights.resolve(pv.sig, outcome);
                        resolved.insert(pv.sig);
                        seals.push(SealReport {
                            view: SealedView::new(pv, job, vc, submit, None),
                            state,
                        });
                    }
                    for sig in &built {
                        if !resolved.contains(sig) {
                            flights.resolve(*sig, FlightOutcome::Failed);
                        }
                    }
                    let stages = build_stages(&physical, &exec.metrics.op_profiles)?;
                    stats.jobs_completed.fetch_add(1, Ordering::Relaxed);
                    Ok(TaskDone { exec, stages, served, seals })
                });
                if done.is_err() {
                    // Exec (or stage-build) failure: every claimed flight
                    // must resolve so pipelined consumers fall back.
                    for sig in &built {
                        flights.resolve(*sig, FlightOutcome::Failed);
                    }
                }
                if let Some(sink) = &exec_sink {
                    match &done {
                        Ok(d) => sink.end_execute(&[
                            ("rows", d.exec.table.num_rows() as u64),
                            ("served", d.served.len() as u64),
                            ("seals", d.seals.len() as u64),
                        ]),
                        Err(_) => sink.end_execute(&[("failed", 1)]),
                    }
                }
                let _ = tx.send((job, done));
            }),
        });
    }
    drop(tx);

    if let Some(o) = obs {
        o.tracer.begin(0, "execute");
    }
    // Pool wall comes from the report's ready-barrier epoch, not a caller
    // clock around `run_tasks`: the caller's clock also counts thread spawn
    // and OS scheduling noise *before* the barrier, which once made
    // "overhead" (exec − parallel) exceed the parallel phase itself.
    let report = run_tasks(&pool_cfg, tasks, &gaps);
    let exec_wall = report.total_wall;
    if let Some(o) = obs {
        o.tracer.end_with(0, &[("tasks", compiled.len() as u64)]);
    }

    let mut results: HashMap<JobId, Result<TaskDone>> = HashMap::new();
    for (job, done) in rx.try_iter() {
        results.insert(job, done);
    }

    // ---- Phase C: commit sequentially, in job order. ----
    let commit_started = Instant::now();
    let mut op_work = 0.0f64;
    let mut op_wall = 0.0f64;
    if let Some(o) = obs {
        o.tracer.begin(0, "commit");
    }
    for task in &compiled {
        let job = task.meta.job;
        let track = job_track(job);
        if let Some(o) = obs {
            o.tracer.begin(track, "commit");
        }
        match results.remove(&job) {
            Some(Ok(done)) => {
                let n_seals = done.seals.len() as u64;
                op_work += done.exec.metrics.op_state_work_avoided;
                op_wall += done.exec.metrics.op_state_wall_avoided;
                specs_for_sim.push(core.commit(Executed {
                    meta: task.meta,
                    use_cv: task.use_cv,
                    subexprs: &task.subexprs,
                    exec: &done.exec,
                    matched: &task.matched,
                    compensated: task.compensated,
                    built: task.built.len(),
                    stages: done.stages,
                })?);

                // Realized pipelining savings: each read served from a view
                // a concurrent job built avoided recomputing that
                // subexpression (the view's observed production work).
                if !done.served.is_empty() {
                    *pipelined_jobs += 1;
                    for sig in &done.served {
                        if let Some(work) = store.observed_work(*sig) {
                            stats.add_realized_savings(work);
                        }
                    }
                }

                core.publish_output(
                    task.output_dataset.as_deref(),
                    &done.exec.table,
                    task.meta.submit,
                )?;

                for seal in done.seals {
                    match seal.state {
                        SealState::Published => {
                            let plan = task
                                .built_plans
                                .iter()
                                .find(|(sig, _)| *sig == seal.view.strict)
                                .map(|(_, p)| p.clone());
                            day_seals.push(SealedView { plan, ..seal.view });
                        }
                        // Write fault / quarantine race / duplicate: the
                        // view was never (newly) advertised — release the
                        // creation lock so a later job can rebuild.
                        SealState::Dropped | SealState::Duplicate => {
                            core.release_locks([seal.view.strict]);
                        }
                    }
                }

                if let Some(o) = obs {
                    // Close the commit span, then the job span opened at
                    // compile time.
                    o.tracer.end_with(track, &[("seals", n_seals)]);
                    o.tracer.end(track);
                }
            }
            Some(Err(_)) | None => {
                core.failed_jobs += 1;
                core.release_locks(task.built.iter().copied());
                if let Some(o) = obs {
                    o.tracer.end_with(track, &[("failed", 1)]);
                    o.tracer.end_with(track, &[("failed", 1)]);
                }
            }
        }
    }
    if let Some(o) = obs {
        o.tracer.end_with(0, &[("jobs", compiled.len() as u64)]);
    }
    let commit_wall = commit_started.elapsed();

    Ok(WaveReport {
        steals: report.steals,
        admission_deferrals: report.admission_deferrals,
        max_inflight: report.max_inflight,
        max_queue_depth: report.max_queue_depth,
        exec_wall,
        parallel_wall: report.parallel_wall,
        compile_wall,
        commit_wall,
        worker_busy: report.worker_busy,
        latencies: report.latencies,
        op_state_work_avoided: op_work,
        op_state_wall_avoided: op_wall,
    })
}

/// Seal one pending view into the shared store, classifying the outcome.
fn seal_pending(
    store: &dyn SharedViewStore,
    stats: &ServiceStats,
    pv: &PendingView,
    job: JobId,
    vc: cv_common::ids::VcId,
    now: SimTime,
) -> SealState {
    if store.contains(pv.sig) {
        // Another materialization already landed — exactly what the
        // single-flight registry plus the insights creation locks prevent.
        stats.duplicate_materializations.fetch_add(1, Ordering::Relaxed);
        return SealState::Duplicate;
    }
    match seal_view(store, pv, job, vc, now, None) {
        Ok(true) => SealState::Published,
        Ok(false) | Err(_) => SealState::Dropped,
    }
}

/// Promised statistics for a claimed build: the spool's own estimate.
fn spool_promise(plan: &PhysicalPlan, target: Sig128) -> PromisedView {
    if let PhysicalPlan::Spool { sig, est, .. } = plan {
        if *sig == target {
            return PromisedView {
                rows: est.rows.max(0.0) as u64,
                bytes: est.bytes.max(0.0) as u64,
            };
        }
    }
    for child in plan.children() {
        let p = spool_promise(child, target);
        if p.rows != 0 || p.bytes != 0 {
            return p;
        }
    }
    PromisedView::default()
}

/// Deterministically merge concurrently completed jobs into the cluster
/// simulator and drain it.
///
/// The simulator rejects submissions that move time backwards, and the
/// sequential driver relied on processing jobs in submission order to
/// satisfy that. Under concurrent execution, completion order is
/// schedule-dependent — so the merge sorts by `(submit, job)` first, making
/// the cluster-side metrics a pure function of the job set regardless of
/// which worker finished when.
pub fn merge_completions(
    mut specs: Vec<JobSpec>,
    cluster: &ClusterConfig,
    faults: &FaultPlan,
) -> Result<ClusterSim> {
    specs.sort_by(|a, b| a.submit.seconds().total_cmp(&b.submit.seconds()).then(a.job.cmp(&b.job)));
    let mut sim = ClusterSim::new(cluster.clone());
    sim.set_fault_plan(faults.clone());
    for spec in specs {
        // Advance to the submission instant, as the sequential driver does
        // between jobs. ViewSealed events are ignored: the service sealed
        // views at execution time.
        let _ = sim.run_until(spec.submit);
        sim.submit(spec)?;
    }
    let _ = sim.run_to_completion();
    Ok(sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_workload;
    use crate::generator::{generate_workload, WorkloadConfig};
    use crate::lifecycle::ledger;
    use cv_cluster::stage::{Stage, StageGraph};
    use cv_common::ids::{TemplateId, VcId};

    fn small_workload() -> Workload {
        generate_workload(WorkloadConfig {
            scale: 0.05,
            n_analytics: 12,
            ..WorkloadConfig::default()
        })
    }

    fn quick_cluster() -> ClusterConfig {
        ClusterConfig { total_containers: 200, ..ClusterConfig::default() }
    }

    /// Workload whose dimension tables clear the nested-loop threshold, so
    /// joins against `users`/`part` lower to hash joins and publish build
    /// states (see the sequential driver's `join_heavy_workload`).
    fn join_heavy_workload() -> Workload {
        generate_workload(WorkloadConfig {
            scale: 0.25,
            n_analytics: 12,
            ..WorkloadConfig::default()
        })
    }

    fn spec(job: u64, submit_hours: f64, work: f64) -> JobSpec {
        let stages = StageGraph {
            stages: vec![Stage {
                id: 0,
                kind: "Extract".to_string(),
                work,
                partitions: 4,
                deps: vec![],
                seals_view: None,
                checkpointed: false,
            }],
        };
        JobSpec {
            job: JobId(job),
            vc: VcId(job % 2),
            template: TemplateId(job),
            submit: SimTime::EPOCH + cv_common::SimDuration::from_hours(submit_hours),
            stages,
        }
    }

    /// Satellite fix: the merge must produce identical cluster metrics no
    /// matter what order concurrent completions arrive in — and must not
    /// trip the simulator's monotonic-submission check.
    #[test]
    fn merge_is_completion_order_insensitive() {
        let in_order: Vec<JobSpec> = (0..6).map(|i| spec(i, i as f64, 50.0 + i as f64)).collect();
        let mut shuffled = in_order.clone();
        shuffled.reverse();
        shuffled.swap(1, 4);

        let cluster = quick_cluster();
        let run = |specs: Vec<JobSpec>| {
            let sim = merge_completions(specs, &cluster, &FaultPlan::none()).unwrap();
            let mut rb = RobustnessStats::default();
            (ledger(&sim, &mut HashMap::new(), &mut rb), rb)
        };
        let (a, rb_a) = run(in_order);
        let (b, rb_b) = run(shuffled);

        assert_eq!(a.len(), 6);
        assert_eq!(a.totals(), b.totals());
        assert_eq!(rb_a.stage_retries, rb_b.stage_retries);
        let lat_a: Vec<f64> = a.records().iter().map(|r| r.result.finish.seconds()).collect();
        let lat_b: Vec<f64> = b.records().iter().map(|r| r.result.finish.seconds()).collect();
        assert_eq!(lat_a, lat_b, "per-job finish times must not depend on arrival order");
    }

    /// The determinism contract, cheap edition: a 1-worker service run
    /// produces exactly the sequential driver's per-job digests — also
    /// under delta ingestion, where both drivers ingest and publish the
    /// same change feeds.
    #[test]
    fn one_worker_matches_sequential_digests() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(2);
        cfg.cluster = quick_cluster();
        let ingest = DriverConfig { ivm: IvmMode::Ingest, ..cfg.clone() };
        for cfg in [cfg, ingest] {
            let seq = run_workload(&w, &cfg).unwrap();
            let svc = ServiceConfig { workers: 1, ..ServiceConfig::default() };
            let out = run_workload_service(&w, &cfg, &svc).unwrap();
            assert_eq!(out.failed_jobs, 0, "{:?}", cfg.ivm);
            assert_eq!(out.result_digests, seq.result_digests, "{:?}", cfg.ivm);
            assert_eq!(out.service.duplicate_materializations, 0);
        }
    }

    /// Multi-worker runs must agree with the 1-worker run bit-for-bit.
    #[test]
    fn worker_count_never_changes_results() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(2);
        cfg.cluster = quick_cluster();
        let one = run_workload_service(
            &w,
            &cfg,
            &ServiceConfig { workers: 1, ..ServiceConfig::default() },
        )
        .unwrap();
        let four = run_workload_service(
            &w,
            &cfg,
            &ServiceConfig { workers: 4, ..ServiceConfig::default() },
        )
        .unwrap();
        assert_eq!(one.result_digests, four.result_digests);
        assert_eq!(one.failed_jobs, 0);
        assert_eq!(four.failed_jobs, 0);
        assert_eq!(four.service.duplicate_materializations, 0);
        assert_eq!(one.ledger.totals(), four.ledger.totals());
    }

    /// The chunking contract end-to-end: the streaming granularity must
    /// never leak into results. Sequential runs at a tiny, the default, and
    /// an effectively-monolithic chunk size — and a concurrent run at the
    /// tiny size — all produce the same per-job digests.
    #[test]
    fn chunk_size_never_changes_results() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(2);
        cfg.cluster = quick_cluster();
        let baseline = run_workload(&w, &cfg).unwrap();

        for chunk_size in [7, usize::MAX] {
            let mut c = cfg.clone();
            c.chunk_size = chunk_size;
            let out = run_workload(&w, &c).unwrap();
            assert_eq!(
                out.result_digests, baseline.result_digests,
                "sequential digests diverged at chunk_size {chunk_size}"
            );
        }

        let mut c = cfg.clone();
        c.chunk_size = 7;
        let svc = run_workload_service(&w, &c, &ServiceConfig::default()).unwrap();
        assert_eq!(svc.failed_jobs, 0);
        assert_eq!(
            svc.result_digests, baseline.result_digests,
            "service digests diverged at chunk_size 7"
        );
    }

    /// The concurrent service on the disk-backed sharded store must agree
    /// with the in-memory store bit-for-bit, and report its IO counters.
    #[test]
    fn durable_store_service_matches_memory_service() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(2);
        cfg.cluster = quick_cluster();
        let svc = ServiceConfig { workers: 4, ..ServiceConfig::default() };
        let mem = run_workload_service(&w, &cfg, &svc).unwrap();

        let dir = std::env::temp_dir().join(format!("cv-svc-durable-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = cv_store::ShardedDurableViewStore::open(
            dir.clone(),
            cfg.view_ttl,
            svc.store_shards,
            cv_store::DurableStoreOptions::default(),
        )
        .unwrap();
        let durable = run_workload_service_with_store(&w, &cfg, &svc, &store, None).unwrap();
        store.checkpoint_now().unwrap();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(durable.result_digests, mem.result_digests);
        assert_eq!(durable.failed_jobs, 0);
        assert_eq!(durable.service.duplicate_materializations, 0);
        let io = durable.store_io.expect("durable service run reports io stats");
        assert!(io.bytes_written_durably > 0, "nothing reached disk");
        assert!(io.wal_records_written > 0, "no WAL records written");
    }

    /// Tentpole contract: the shared operator-state cache may shift build
    /// work between jobs but never moves a digest — at one worker and at
    /// several, against the cache-off reference.
    #[test]
    fn op_state_cache_never_changes_service_digests() {
        let w = join_heavy_workload();
        let mut cfg = DriverConfig::enabled(2);
        cfg.cluster = quick_cluster();
        let off = run_workload_service(
            &w,
            &cfg,
            &ServiceConfig { workers: 1, ..ServiceConfig::default() },
        )
        .unwrap();
        assert!(!off.service.op_state.enabled);

        let on_cfg = DriverConfig { op_state_budget_bytes: 64 << 20, ..cfg.clone() };
        for workers in [1usize, 4] {
            let svc = ServiceConfig { workers, ..ServiceConfig::default() };
            let on = run_workload_service(&w, &on_cfg, &svc).unwrap();
            assert_eq!(on.failed_jobs, 0);
            assert_eq!(
                on.result_digests, off.result_digests,
                "cache changed digests at {workers} workers"
            );
            let os = &on.service.op_state;
            assert!(os.enabled);
            assert!(os.published > 0, "no breaker state published at {workers} workers: {os:?}");
            assert!(os.hits > 0, "nothing restored at {workers} workers: {os:?}");
            assert!(
                os.cross_job_hits > 0,
                "recurring jobs must hit other jobs' state at {workers} workers: {os:?}"
            );
            assert!(os.build_wall_avoided >= 0.0 && os.build_work_avoided > 0.0, "{os:?}");
        }
    }

    /// GDPR regression, service edition: the forget-request purges cached
    /// operator state (the rotated guid already invalidates the keys; the
    /// purge frees the bytes) and digests still match the cache-off run.
    #[test]
    fn service_gdpr_purge_evicts_operator_state() {
        let w = join_heavy_workload();
        let mut cfg = DriverConfig::enabled(3);
        cfg.cluster = quick_cluster();
        cfg.gdpr_every_days = Some(1);
        let svc = ServiceConfig { workers: 4, ..ServiceConfig::default() };
        let on_cfg = DriverConfig { op_state_budget_bytes: 64 << 20, ..cfg.clone() };
        let on = run_workload_service(&w, &on_cfg, &svc).unwrap();
        assert_eq!(on.failed_jobs, 0);
        let off = run_workload_service(&w, &cfg, &svc).unwrap();
        assert_eq!(on.result_digests, off.result_digests);
        let os = &on.service.op_state;
        assert!(os.purged > 0, "forget-request must purge operator state: {os:?}");
    }

    /// Byte-budget crash plans and incremental maintenance are
    /// sequential-driver features: the service entry point must refuse
    /// them instead of wedging mid-recovery or silently maintaining nothing.
    #[test]
    fn service_rejects_crash_budget_plans() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(1);
        cfg.cluster = quick_cluster();
        let crash = DriverConfig {
            faults: FaultPlan::seeded(1).with_crash_after_bytes(1024),
            ..cfg.clone()
        };
        let maintain = DriverConfig { ivm: IvmMode::Maintain, ..cfg };
        for (cfg, expected) in [(crash, "crash_after_bytes"), (maintain, "Maintain")] {
            let dir = std::env::temp_dir()
                .join(format!("cv-svc-reject-test-{expected}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = cv_store::ShardedDurableViewStore::open(
                dir.clone(),
                cfg.view_ttl,
                4,
                cv_store::DurableStoreOptions::default(),
            )
            .unwrap();
            let err =
                run_workload_service_with_store(&w, &cfg, &ServiceConfig::default(), &store, None)
                    .unwrap_err();
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
            assert!(err.to_string().contains(expected), "unexpected error: {err}");
        }
    }
}
