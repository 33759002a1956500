//! The sequential workload driver: replays the paper's deployment window
//! one job at a time, with the cluster simulator advancing inline.
//!
//! The steps every job takes in both drivers — ingest, admission, commit,
//! cooked-output publish, view announce, analysis and the run roll-up —
//! live in [`crate::lifecycle`]. What this driver adds is its runner and
//! the behaviour only it has (DESIGN.md §9):
//!
//! * **Early sealing.** Before each job the inline [`ClusterSim`] advances
//!   to the submission instant; every `ViewSealed` event seals its view at
//!   the producing stage's finish time and announces it at once, so a job
//!   submitted minutes later can already reuse it (paper §2.3).
//! * **Per-job eviction** of expired views, in the store and the serving
//!   index.
//! * **Residency-aware costing.** Views whose pages are not in the buffer
//!   pool pay the cold-read multiplier at compile time.
//! * **Incremental maintenance** (`IvmMode::Maintain`): tracked recurring
//!   templates are advanced from yesterday's state instead of re-executed.
//! * **Crash retry.** A simulated store crash is absorbed once per
//!   mutation by recovering the store in place.
//!
//! A baseline run (`cloudviews: None`) executes the identical workload with
//! annotations disabled — the pre-production methodology behind Table 1.

use crate::generator::Workload;
use crate::lifecycle::{digest_table, due_jobs, report_json, Executed, Lifecycle, SealedView};
use crate::templates::JobTemplate;
use cv_cluster::metrics::{MetricsLedger, RobustnessStats};
use cv_cluster::sim::{ClusterConfig, ClusterSim, SimEvent};
use cv_cluster::stage::{build_stages, StageGraph};
use cv_common::hash::Sig128;
use cv_common::ids::{JobId, VcId, VersionGuid};
use cv_common::json::Json;
use cv_common::{json, FaultPlan, Result, SimDay, SimDuration};
use cv_core::controls::Controls;
use cv_core::insights::UsageEvent;
use cv_core::repository::{JobMeta, SubexpressionRepo};
use cv_data::sharded::ShardedViewStore;
use cv_data::store_api::{SharedViewStore, StoreIoStats};
use cv_data::viewstore::ViewStoreStats;
use cv_engine::engine::QueryEngine;
use cv_engine::exec::{ExecOutcome, OpStateSource, PendingView};
use cv_engine::optimizer::{AlwaysGrant, OptimizeOutcome, OptimizerConfig, ReuseContext};
use cv_engine::plan::LogicalPlan;
use cv_engine::signature::{plan_signature, SigMode, SubexprInfo};
use cv_ivm::{IvmEngine, IvmStats, Maintain};
use cv_store::{DurableStoreOptions, DurableViewStore};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;

/// Which selection algorithm the feedback loop runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectorKind {
    LabelPropagation,
    Greedy,
    Exact,
}

/// CloudViews configuration for an enabled run.
#[derive(Clone, Debug)]
pub struct SelectionKnobs {
    pub selector: SelectorKind,
    pub storage_budget_bytes: u64,
    pub max_views: Option<usize>,
    pub min_frequency: u64,
    pub schedule_aware: bool,
    pub per_vc: bool,
    /// Re-run workload analysis every N days.
    pub analysis_every_days: u32,
    /// Trailing window the analysis looks at.
    pub analysis_window_days: u32,
}

impl Default for SelectionKnobs {
    fn default() -> Self {
        SelectionKnobs {
            selector: SelectorKind::LabelPropagation,
            storage_budget_bytes: 256 * 1024 * 1024,
            max_views: None,
            min_frequency: 2,
            schedule_aware: true,
            per_vc: false,
            analysis_every_days: 1,
            analysis_window_days: 7,
        }
    }
}

/// Where materialized views live for the run.
#[derive(Clone, Debug, Default)]
pub enum StoreBackend {
    /// An in-memory view store (the default; no durability, no page cache,
    /// no crash surface).
    #[default]
    Memory,
    /// The disk-backed [`DurableViewStore`]: WAL + pages + checkpoints
    /// under `dir`. Reopening an existing directory recovers the views a
    /// previous run left behind (restart-and-resume).
    Durable { dir: PathBuf, opts: DurableStoreOptions },
}

impl StoreBackend {
    /// The durable backend under `dir` with default options.
    pub fn durable(dir: impl Into<PathBuf>) -> StoreBackend {
        StoreBackend::Durable { dir: dir.into(), opts: DurableStoreOptions::default() }
    }

    /// Open the run's store. Every driver call after this goes through the
    /// returned [`SharedViewStore`], whatever the backend.
    fn open(&self, ttl: SimDuration) -> Result<Box<dyn SharedViewStore>> {
        Ok(match self {
            StoreBackend::Memory => Box::new(ShardedViewStore::new(ttl, 1)),
            StoreBackend::Durable { dir, opts } => {
                Box::new(DurableViewStore::open(dir, ttl, opts.clone())?)
            }
        })
    }
}

/// How the driver treats daily regeneration and recurring views.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IvmMode {
    /// Plain bulk regeneration: no change feeds, no maintenance (the
    /// paper's deployment — every view dies with its input GUIDs).
    #[default]
    Off,
    /// Delta-producing ingestion (append-mostly facts, churned dimensions,
    /// diffed cooked outputs) but every job still executes in full — the
    /// control leg for digest-parity comparisons against `Maintain`.
    Ingest,
    /// Delta ingestion plus incremental maintenance: certified recurring
    /// aggregate views are advanced from yesterday's state and re-published
    /// under today's strict signature instead of being rebuilt.
    Maintain,
}

/// Full driver configuration.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    pub days: u32,
    /// `Some(..)` enables the CloudViews feedback loop.
    pub cloudviews: Option<SelectionKnobs>,
    pub cluster: ClusterConfig,
    pub controls: Controls,
    pub view_ttl: SimDuration,
    pub optimizer: OptimizerConfig,
    /// Issue a GDPR forget-request every N days (None = never).
    pub gdpr_every_days: Option<u32>,
    /// Deterministic fault-injection plan (default: no faults — a pure
    /// overlay that leaves every run bit-identical).
    pub faults: FaultPlan,
    /// View-store backend (in-memory by default).
    pub store: StoreBackend,
    /// Incremental view maintenance mode (off by default).
    pub ivm: IvmMode,
    /// Rows per execution chunk (morsel). Results are byte-identical at
    /// every value; this only moves the streaming granularity.
    pub chunk_size: usize,
    /// Resident-bytes budget for the operator-state cache (hash-join
    /// builds, aggregate states, sort runs keyed by input signature — keys
    /// embed the scanned GUIDs, so rotated inputs self-invalidate). 0
    /// disables it. Results are byte-identical at every budget.
    pub op_state_budget_bytes: u64,
}

impl DriverConfig {
    pub fn baseline(days: u32) -> DriverConfig {
        DriverConfig {
            days,
            cloudviews: None,
            cluster: ClusterConfig::default(),
            controls: Controls::opt_out(),
            view_ttl: SimDuration::from_days(7.0),
            optimizer: OptimizerConfig::default(),
            gdpr_every_days: None,
            faults: FaultPlan::none(),
            store: StoreBackend::Memory,
            ivm: IvmMode::Off,
            chunk_size: cv_data::chunk::DEFAULT_CHUNK_SIZE,
            op_state_budget_bytes: 0,
        }
    }

    pub fn enabled(days: u32) -> DriverConfig {
        DriverConfig { cloudviews: Some(SelectionKnobs::default()), ..DriverConfig::baseline(days) }
    }
}

/// Everything a driver run produces.
#[derive(Debug)]
pub struct DriverOutcome {
    pub ledger: MetricsLedger,
    pub repo: SubexpressionRepo,
    pub usage: Vec<UsageEvent>,
    pub view_store_stats: ViewStoreStats,
    /// Order-insensitive digest of each job's result, for cross-run
    /// correctness checks (reuse must never change results).
    pub result_digests: BTreeMap<JobId, Sig128>,
    /// Jobs that failed to compile/execute (should be zero).
    pub failed_jobs: u64,
    /// (analysis day, #views selected) per analysis run.
    pub selection_history: Vec<(SimDay, usize)>,
    /// Views purged by GDPR input rotations.
    pub gdpr_purged_views: u64,
    /// Fault-layer roll-up: every degradation the run absorbed.
    pub robustness: RobustnessStats,
    /// Durable-store IO counters (`None` for in-memory runs).
    pub store_io: Option<StoreIoStats>,
    /// Incremental-maintenance counters (`None` unless `ivm: Maintain`).
    pub ivm: Option<IvmStats>,
    /// Operator-state cache counters (`None` when the cache is disabled).
    pub op_state: Option<cv_service::OpStateCacheStats>,
}

impl DriverOutcome {
    /// The run's JSON report: headline totals, robustness counters, the
    /// store section and the IVM counters.
    pub fn report_json(&self) -> Json {
        report_json(
            &self.ledger,
            self.failed_jobs,
            &self.robustness,
            self.store_io.as_ref(),
            ("ivm", self.ivm.as_ref().map_or(Json::Null, ivm_stats_json)),
        )
    }
}

/// JSON shape for the IVM counters (shared by the driver report and the
/// `cv-analyze --ivm` harness).
pub fn ivm_stats_json(s: &IvmStats) -> Json {
    let mut vetoes = cv_common::json::JsonMap::new();
    for (code, n) in &s.vetoes {
        vetoes.insert(*code, *n);
    }
    let mut reasons = cv_common::json::JsonMap::new();
    for (label, n) in &s.rebuild_reasons {
        reasons.insert(*label, *n);
    }
    json!({
        "maintained": s.maintained,
        "rebuilt": s.rebuilt,
        "refused": s.refused,
        "vetoes_by_code": Json::Obj(vetoes),
        "rebuild_reasons": Json::Obj(reasons),
        "rows_maintained": s.rows_maintained,
        "rows_bootstrap": s.rows_bootstrap,
        "rows_rebuild_baseline": s.rows_rebuild_baseline,
    })
}

/// A view built by an executed job, waiting for the simulator's seal event.
struct PendingSeal {
    view: PendingView,
    job: JobId,
    vc: VcId,
    /// The view's defining plan, captured at build time (see
    /// [`SealedView::plan`]).
    plan: Option<Arc<LogicalPlan>>,
}

/// Run a workload under the given configuration.
pub fn run_workload(workload: &Workload, cfg: &DriverConfig) -> Result<DriverOutcome> {
    // A durable directory that already holds views recovers whatever a
    // previous (or crashed) run left behind.
    let store = cfg.store.open(cfg.view_ttl)?;
    let mut core = Lifecycle::new(workload, cfg, &*store, true);
    let mut sim = ClusterSim::new(cfg.cluster.clone());
    sim.set_fault_plan(cfg.faults.clone());
    let mut pending: HashMap<Sig128, PendingSeal> = HashMap::new();
    let mut ivm = (cfg.ivm == IvmMode::Maintain).then(|| IvmEngine::new(&cfg.optimizer));

    for day in (0..cfg.days).map(SimDay) {
        apply_seal_events(&mut core, &sim.run_until(day.start()), &mut pending)?;
        core.start_day(day, None)?;

        for template in due_jobs(workload, day) {
            // Advance the simulator to the submission instant, sealing any
            // views whose producing stages completed (early sealing).
            let submit = template.submit_time(day);
            apply_seal_events(&mut core, &sim.run_until(submit), &mut pending)?;
            core.retry(|s| s.evict_expired(submit))?;
            core.insights.expire(submit);
            let meta = core.admit(template, day);

            // Incremental maintenance: a tracked recurring template whose
            // inputs changed only through intact delta chains is advanced
            // from yesterday's state instead of re-executed. Fallbacks
            // (broken chain, plan drift, costed out) drop through to the
            // normal execution path below and re-track afterwards.
            if let Some(iv) = ivm.as_mut() {
                match try_ivm_maintain(iv, &mut core, template, day, meta.job) {
                    Ok(Some(digest)) => {
                        core.result_digests.insert(meta.job, digest);
                        continue;
                    }
                    Ok(None) => {}
                    Err(_) => {
                        core.failed_jobs += 1;
                        continue;
                    }
                }
            }

            let use_cv = core.use_cloudviews(submit);
            let Ok(one) = run_one_job(&mut core, template, day, meta, use_cv) else {
                core.failed_jobs += 1;
                continue;
            };
            let spec = core.commit(Executed {
                meta,
                use_cv,
                subexprs: &one.subexprs,
                exec: &one.exec,
                matched: &one.outcome.matched_views,
                compensated: one.outcome.compensated_views.len(),
                built: one.outcome.built_views.len(),
                stages: one.stages,
            })?;
            // Start (or resume) maintaining this template's view: the CV07x
            // gate refuses non-maintainable plans and the refusal is
            // counted, exactly like CV06x vetoes.
            if let Some(iv) = ivm.as_mut() {
                ivm_track(iv, &core.engine, template, day);
            }
            let mut built_plans: HashMap<_, _> = one.outcome.built_plans.into_iter().collect();
            for pv in one.exec.pending_views {
                let plan = built_plans.remove(&pv.sig);
                pending.insert(pv.sig, PendingSeal { view: pv, job: meta.job, vc: meta.vc, plan });
            }
            sim.submit(spec)?;
        }

        core.analyze(day, None);
    }

    // Drain the simulator.
    apply_seal_events(&mut core, &sim.run_to_completion(), &mut pending)?;
    // Final checkpoint: a later run reopening the directory recovers from
    // the checkpoint instead of a long WAL replay.
    core.retry(|s| s.checkpoint_now())?;
    let end = core.finish(&sim);
    Ok(DriverOutcome {
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
        ivm: ivm.map(|iv| iv.stats),
        op_state: end.op_state,
    })
}

/// Attempt to maintain a tracked view for `template`. Returns the result
/// digest when the view was maintained (the job is done without
/// executing); `None` falls through to normal execution.
fn try_ivm_maintain(
    ivm: &mut IvmEngine,
    core: &mut Lifecycle<'_>,
    template: &JobTemplate,
    day: SimDay,
    job: JobId,
) -> Result<Option<Sig128>> {
    let Ok(plan) = template.build_plan(&core.engine, day) else {
        return Ok(None);
    };
    let sig_cfg = core.engine.optimizer.cfg.sig.clone();
    let Some(tsig) = plan_signature(&plan, &sig_cfg, SigMode::Recurring) else {
        return Ok(None);
    };
    if !ivm.is_tracked(tsig) {
        return Ok(None);
    }
    let mv = match ivm.maintain(tsig, &plan, &core.engine.catalog) {
        Maintain::Maintained(mv) => mv,
        Maintain::NotTracked | Maintain::Rebuild { .. } => return Ok(None),
    };
    let submit = template.submit_time(day);
    // A maintained cooking job still publishes its output dataset.
    core.publish_output(template.output_dataset(), &mv.table, submit)?;
    // Re-publish under today's strict signature so exact and containment
    // matching serve the maintained view exactly like a rebuilt one.
    if core.cfg.cloudviews.is_some() {
        if let (Some(strict), Some(recurring)) = (
            plan_signature(&mv.plan, &sig_cfg, SigMode::Strict),
            plan_signature(&mv.plan, &sig_cfg, SigMode::Recurring),
        ) {
            let pv = PendingView {
                sig: strict,
                recurring_sig: recurring,
                input_guids: scan_guids(&mv.plan),
                schema: mv.table.schema().clone(),
                data: mv.table.clone(),
                production_work: mv.rows_touched as f64,
                write_work: 0.0,
            };
            if core.seal(&pv, job, template.vc, submit)? {
                core.announce(SealedView::new(&pv, job, template.vc, submit, Some(mv.plan)));
            }
        }
    }
    Ok(Some(digest_table(&mv.table)))
}

/// Track (or re-track after a fallback) the template's view. Refusals are
/// recorded in the engine's veto counters; failures to bootstrap are
/// silently skipped — the template simply stays untracked.
fn ivm_track(ivm: &mut IvmEngine, engine: &QueryEngine, template: &JobTemplate, day: SimDay) {
    let Ok(plan) = template.build_plan(engine, day) else { return };
    let Some(tsig) = plan_signature(&plan, &engine.optimizer.cfg.sig, SigMode::Recurring) else {
        return;
    };
    if ivm.is_tracked(tsig) {
        return;
    }
    let _ = ivm.track(tsig, &plan, &engine.catalog);
}

fn scan_guids(plan: &Arc<LogicalPlan>) -> Vec<VersionGuid> {
    fn go(p: &Arc<LogicalPlan>, out: &mut Vec<VersionGuid>) {
        if let LogicalPlan::Scan { guid, .. } = &**p {
            out.push(*guid);
        }
        for c in p.children() {
            go(c, out);
        }
    }
    let mut v = Vec::new();
    go(plan, &mut v);
    v
}

struct OneJob {
    subexprs: Vec<SubexprInfo>,
    outcome: OptimizeOutcome,
    exec: ExecOutcome,
    stages: StageGraph,
}

/// Compile, execute and publish one job.
fn run_one_job(
    core: &mut Lifecycle<'_>,
    template: &JobTemplate,
    day: SimDay,
    meta: JobMeta,
    use_cv: bool,
) -> Result<OneJob> {
    let plan = template.build_plan(&core.engine, day)?;
    let subexprs = core.engine.subexpressions(&plan)?;
    let mut reuse = if use_cv {
        core.insights.annotate(meta.vc, meta.job, &subexprs, meta.submit).0
    } else {
        ReuseContext::empty()
    };
    // Residency-aware costing: views whose pages are not in the buffer
    // pool pay the cold-read multiplier in the optimizer's reuse-vs-
    // recompute comparison (an in-memory store is always resident).
    for (sig, view) in reuse.available.iter_mut() {
        view.cold = !core.store.is_resident(*sig);
    }

    let compiled = if use_cv {
        core.engine.optimize(&plan, &reuse, &mut core.insights.locker())?
    } else {
        core.engine.optimize(&plan, &reuse, &mut AlwaysGrant)?
    };
    let built = &compiled.outcome.built_views;
    let states = core.op_states_for(meta.job);
    let exec = core
        .engine
        .execute_with_states(
            &compiled.outcome.physical,
            core.store,
            meta.submit,
            None,
            None,
            states.as_ref().map(|t| t as &dyn OpStateSource),
        )
        .inspect_err(|_| core.release_locks(built.iter().copied()))?;
    core.publish_output(template.output_dataset(), &exec.table, meta.submit)?;
    let stages = build_stages(&compiled.outcome.physical, &exec.metrics.op_profiles)?;
    Ok(OneJob { subexprs, outcome: compiled.outcome, exec, stages })
}

/// Seal the pending views whose producing stages completed in `events`
/// (early sealing) and announce each one that landed.
fn apply_seal_events(
    core: &mut Lifecycle<'_>,
    events: &[SimEvent],
    pending: &mut HashMap<Sig128, PendingSeal>,
) -> Result<()> {
    for ev in events {
        if let SimEvent::ViewSealed { sig, at, .. } = ev {
            let Some(seal) = pending.remove(sig) else { continue };
            if core.seal(&seal.view, seal.job, seal.vc, *at)? {
                core.announce(SealedView::new(&seal.view, seal.job, seal.vc, *at, seal.plan));
            } else {
                // Injected write failure: the half-materialized view was
                // discarded and must never be advertised.
                core.release_locks([seal.view.sig]);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_workload, WorkloadConfig};

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

    /// Workload big enough that dimension tables clear the nested-loop
    /// threshold: joins against `users`/`part` lower to *hash* joins, whose
    /// build states are what the operator-state cache keys on. At
    /// `small_workload` scale every dim is ~20 rows, every join is a loop
    /// join, and no build state would ever be published.
    fn join_heavy_workload() -> Workload {
        generate_workload(WorkloadConfig {
            scale: 0.25,
            n_analytics: 12,
            ..WorkloadConfig::default()
        })
    }

    #[test]
    fn baseline_run_completes_all_jobs() {
        let w = small_workload();
        let mut cfg = DriverConfig::baseline(3);
        cfg.cluster = quick_cluster();
        let out = run_workload(&w, &cfg).unwrap();
        assert_eq!(out.failed_jobs, 0);
        // 4 cooking + ~12 analytics daily-ish over 3 days.
        assert!(out.ledger.len() >= 30, "{} jobs", out.ledger.len());
        assert!(out.repo.len() > 100);
        assert!(out.usage.is_empty(), "baseline must not touch insights");
        assert_eq!(out.view_store_stats.views_created, 0);
    }

    #[test]
    fn enabled_run_builds_and_reuses_views() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(4);
        cfg.cluster = quick_cluster();
        let out = run_workload(&w, &cfg).unwrap();
        assert_eq!(out.failed_jobs, 0);
        assert!(
            out.view_store_stats.views_created > 0,
            "no views materialized: {:?}",
            out.selection_history
        );
        let reused =
            out.usage.iter().filter(|u| u.kind == cv_core::insights::UsageKind::Reused).count();
        assert!(reused > 0, "views never reused (created {})", out.view_store_stats.views_created);
        // Reuse also shows up in the per-job data plane.
        let matched: usize = out.ledger.records().iter().map(|r| r.data.views_matched).sum();
        assert_eq!(matched, reused);
        assert!(!out.selection_history.is_empty());
    }

    #[test]
    fn reuse_never_changes_results() {
        let w = small_workload();
        let mut base_cfg = DriverConfig::baseline(4);
        base_cfg.cluster = quick_cluster();
        let mut on_cfg = DriverConfig::enabled(4);
        on_cfg.cluster = quick_cluster();
        let base = run_workload(&w, &base_cfg).unwrap();
        let on = run_workload(&w, &on_cfg).unwrap();
        assert_eq!(base.result_digests.len(), on.result_digests.len());
        for (job, digest) in &base.result_digests {
            assert_eq!(
                on.result_digests.get(job),
                Some(digest),
                "job {job} result changed under reuse"
            );
        }
    }

    #[test]
    fn enabled_run_saves_processing_time() {
        let w = small_workload();
        let mut base_cfg = DriverConfig::baseline(5);
        base_cfg.cluster = quick_cluster();
        let mut on_cfg = DriverConfig::enabled(5);
        on_cfg.cluster = quick_cluster();
        let base = run_workload(&w, &base_cfg).unwrap();
        let on = run_workload(&w, &on_cfg).unwrap();
        let base_total = base.ledger.totals();
        let on_total = on.ledger.totals();
        assert!(
            on_total.processing_seconds < base_total.processing_seconds,
            "processing with reuse {} !< baseline {}",
            on_total.processing_seconds,
            base_total.processing_seconds
        );
        assert!(on_total.input_bytes < base_total.input_bytes);
    }

    #[test]
    fn semantic_compensation_fires_and_preserves_results() {
        let w = generate_workload(WorkloadConfig {
            scale: 0.05,
            n_analytics: 24,
            ..WorkloadConfig::default()
        });
        let mut cfg = DriverConfig::enabled(4);
        cfg.cluster = quick_cluster();
        let on = run_workload(&w, &cfg).unwrap();
        assert_eq!(on.failed_jobs, 0);
        let totals = on.ledger.totals();
        assert!(
            totals.views_reused_semantic > 0,
            "no compensated (semantic) hits in {} total reuses",
            totals.views_reused
        );
        assert!(totals.views_reused_semantic <= totals.views_reused);

        // Switching the widened path off must only change *how much* is
        // reused — never any job's result bytes.
        let mut off_cfg = cfg.clone();
        off_cfg.optimizer.enable_semantic_match = false;
        let off = run_workload(&w, &off_cfg).unwrap();
        assert_eq!(off.ledger.totals().views_reused_semantic, 0);
        assert_eq!(on.result_digests, off.result_digests);
    }

    #[test]
    fn gdpr_purges_views() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(6);
        cfg.cluster = quick_cluster();
        cfg.gdpr_every_days = Some(2);
        let out = run_workload(&w, &cfg).unwrap();
        assert_eq!(out.failed_jobs, 0);
        // The users dataset shrinks over time; views over it get purged at
        // least once in 6 days if any were built over `users`.
        // (Not asserted >0: selection may not pick user-joined views.)
        let _ = out.gdpr_purged_views;
    }

    /// Tentpole contract, sequential edition: the operator-state cache may
    /// only move work accounting — per-job result digests are byte-identical
    /// cache-on vs cache-off, and the recurring second day restores state
    /// published by (differently-numbered) first-day jobs.
    #[test]
    fn op_state_cache_keeps_digests_and_reuses_across_days() {
        let w = join_heavy_workload();
        let mut cfg = DriverConfig::enabled(2);
        cfg.cluster = quick_cluster();
        let off = run_workload(&w, &cfg).unwrap();
        assert!(off.op_state.is_none());

        let mut on_cfg = cfg.clone();
        on_cfg.op_state_budget_bytes = 64 << 20;
        let on = run_workload(&w, &on_cfg).unwrap();
        assert_eq!(on.failed_jobs, 0);
        assert_eq!(on.result_digests, off.result_digests, "cache changed result bytes");
        let stats = on.op_state.expect("cache enabled");
        assert!(stats.published > 0, "no breaker state ever published: {stats:?}");
        assert!(stats.hits > 0, "nothing restored from cache: {stats:?}");
        assert!(
            stats.cross_job_hits > 0,
            "a recurring day-2 job (new job id) must hit day-1 state: {stats:?}"
        );
    }

    /// GDPR regression: a forget-request against `users` must also evict
    /// cached operator state derived from it, without moving any digest.
    #[test]
    fn gdpr_purge_evicts_operator_state() {
        let w = join_heavy_workload();
        let mut cfg = DriverConfig::enabled(3);
        cfg.cluster = quick_cluster();
        cfg.gdpr_every_days = Some(1);
        cfg.op_state_budget_bytes = 64 << 20;
        let on = run_workload(&w, &cfg).unwrap();
        assert_eq!(on.failed_jobs, 0);

        let mut off_cfg = cfg.clone();
        off_cfg.op_state_budget_bytes = 0;
        let off = run_workload(&w, &off_cfg).unwrap();
        assert_eq!(on.result_digests, off.result_digests, "cache changed result bytes");

        let stats = on.op_state.expect("cache enabled");
        assert!(
            stats.purged > 0,
            "the forget-request must purge user-derived operator state: {stats:?}"
        );
    }

    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cv-driver-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_store_run_matches_memory_run() {
        let w = small_workload();
        let mut mem_cfg = DriverConfig::enabled(3);
        mem_cfg.cluster = quick_cluster();
        let dir = temp_store_dir("parity");
        let mut disk_cfg = mem_cfg.clone();
        disk_cfg.store = StoreBackend::durable(&dir);

        let mem = run_workload(&w, &mem_cfg).unwrap();
        let disk = run_workload(&w, &disk_cfg).unwrap();
        assert_eq!(disk.failed_jobs, 0);
        // Durability must never change results or reuse behavior.
        assert_eq!(mem.result_digests, disk.result_digests);
        assert_eq!(mem.view_store_stats.views_created, disk.view_store_stats.views_created);
        let io = disk.store_io.expect("durable run reports io stats");
        assert!(io.wal_records_written > 0);
        assert!(io.bytes_written_durably > 0);
        assert!(mem.store_io.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_store_resumes_across_restart() {
        let w = small_workload();
        let dir = temp_store_dir("resume");
        let mut cfg = DriverConfig::enabled(3);
        cfg.cluster = quick_cluster();
        cfg.store = StoreBackend::durable(&dir);
        let first = run_workload(&w, &cfg).unwrap();
        assert!(first.view_store_stats.views_created > 0);

        // Second run over the same directory: the store recovers the views
        // the first run sealed (restart-and-resume), and the recovery is
        // visible in the io counters.
        let second = run_workload(&w, &cfg).unwrap();
        assert_eq!(second.failed_jobs, 0);
        let io = second.store_io.expect("durable run reports io stats");
        assert!(io.recoveries > 0, "reopening a populated dir must count as recovery");
        assert!(second.robustness.store_recoveries > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_budget_run_recovers_and_keeps_digests() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(3);
        cfg.cluster = quick_cluster();
        let baseline_dir = temp_store_dir("crash-base");
        cfg.store = StoreBackend::durable(&baseline_dir);
        let baseline = run_workload(&w, &cfg).unwrap();
        let budget = baseline.store_io.as_ref().unwrap().bytes_written_durably;
        assert!(budget > 0);

        // Crash mid-run at half the durable byte budget; the driver must
        // recover in place and finish with byte-identical per-job digests.
        let crash_dir = temp_store_dir("crash-kill");
        let mut crash_cfg = cfg.clone();
        crash_cfg.store = StoreBackend::durable(&crash_dir);
        crash_cfg.faults = FaultPlan::seeded(7).with_crash_after_bytes(budget / 2);
        let crashed = run_workload(&w, &crash_cfg).unwrap();
        assert_eq!(crashed.robustness.store_crashes, 1, "the crash budget must trip once");
        assert!(crashed.robustness.store_recoveries > 0);
        assert_eq!(crashed.failed_jobs, 0);
        assert_eq!(baseline.result_digests, crashed.result_digests);
        std::fs::remove_dir_all(&baseline_dir).unwrap();
        std::fs::remove_dir_all(&crash_dir).unwrap();
    }

    #[test]
    fn ivm_maintains_views_without_changing_digests() {
        let w = small_workload();
        let mut on_cfg = DriverConfig::enabled(4);
        on_cfg.cluster = quick_cluster();
        on_cfg.ivm = IvmMode::Maintain;
        let mut off_cfg = on_cfg.clone();
        off_cfg.ivm = IvmMode::Ingest;

        let on = run_workload(&w, &on_cfg).unwrap();
        let off = run_workload(&w, &off_cfg).unwrap();
        assert_eq!(on.failed_jobs, 0);
        assert_eq!(off.failed_jobs, 0);
        assert!(off.ivm.is_none());

        let stats = on.ivm.as_ref().expect("maintain mode reports stats");
        assert!(stats.maintained > 0, "no views maintained: {stats:?}");
        assert!(
            stats.rows_maintained < stats.rows_rebuild_baseline,
            "maintenance touched {} rows but the rebuild baseline is only {}",
            stats.rows_maintained,
            stats.rows_rebuild_baseline
        );

        // Maintained views must be byte-identical to full re-execution:
        // every per-job digest matches the ingest-only control run.
        assert_eq!(on.result_digests.len(), off.result_digests.len());
        for (job, digest) in &off.result_digests {
            assert_eq!(
                on.result_digests.get(job),
                Some(digest),
                "job {job} result changed under incremental maintenance"
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let w = small_workload();
        let mut cfg = DriverConfig::enabled(3);
        cfg.cluster = quick_cluster();
        let a = run_workload(&w, &cfg).unwrap();
        let b = run_workload(&w, &cfg).unwrap();
        assert_eq!(a.result_digests, b.result_digests);
        assert_eq!(a.view_store_stats, b.view_store_stats);
        assert_eq!(a.ledger.totals(), b.ledger.totals());
    }
}
