//! The job lifecycle both workload drivers share (paper §2.3).
//!
//! Every CloudViews job takes the same steps whichever driver replays it:
//! the day's raw datasets are ingested, the job is admitted and compiled
//! with the insights-service annotations, its views are built or matched
//! under the view-creation locks, it is executed and committed, its
//! sealed views are announced, and the repository analysis feeds the next
//! selection. [`Lifecycle`] owns the run state those steps mutate — the
//! engine, the insights service, the workload repository, the per-job
//! data plane and digests, the robustness counters and the operator-state
//! cache — and performs each shared step exactly once:
//!
//! 1. [`Lifecycle::new`] — engine setup (chunk size, the analyzer as
//!    containment prover and plan verifier, the op-state cache and its
//!    warm states).
//! 2. [`Lifecycle::start_day`] — raw-dataset ingest (delta-producing iff
//!    IVM is on) and the day's GDPR forget-request.
//! 3. [`due_jobs`], [`Lifecycle::admit`] and [`Lifecycle::use_cloudviews`]
//!    — submission order, job ids, and the metadata-outage fallback.
//! 4. [`Lifecycle::publish_output`] — a cooking job's output becomes the
//!    next version of its shared dataset.
//! 5. [`Lifecycle::commit`] — repository log, result digest, quarantine
//!    propagation, robustness counters, data plane and reuse usage.
//! 6. [`Lifecycle::announce`] — a sealed view is registered with the
//!    insights service.
//! 7. [`Lifecycle::analyze`] and [`Lifecycle::finish`] — selection on
//!    the analysis cadence, then the ledger and store roll-ups; and
//!    [`report_json`] for both drivers' reports.
//!
//! The drivers keep only their runner and the divergences DESIGN.md §9
//! declares deliberate: when a view becomes visible (early sealing at
//! simulator events vs. the service's day-end announce), eviction cadence,
//! residency-aware costing, IVM maintenance and crash retry (sequential),
//! waves, single-flight and the epoch index (service).

use crate::driver::{DriverConfig, IvmMode, SelectionKnobs, SelectorKind};
use crate::generator::Workload;
use crate::schemas::raw_specs;
use crate::service_obs::ServiceObs;
use crate::templates::JobTemplate;
use cv_cluster::metrics::{DataPlane, JobRecord, MetricsLedger, RobustnessStats};
use cv_cluster::sim::{ClusterConfig, ClusterSim, JobSpec};
use cv_cluster::stage::StageGraph;
use cv_common::hash::{Sig128, StableHasher};
use cv_common::ids::{JobId, VcId};
use cv_common::json::{Json, ToJson};
use cv_common::rng::DetRng;
use cv_common::{json, Result, SimDay, SimDuration, SimTime};
use cv_core::insights::{InsightsService, UsageEvent, ViewInfo};
use cv_core::repository::{JobMeta, SubexpressionRepo};
use cv_core::selection::{
    apply_schedule_awareness, select_per_vc, ExactSelector, GreedySelector,
    LabelPropagationSelector, SelectionConstraints, ViewSelector,
};
use cv_data::store_api::{SharedViewStore, StoreIoStats};
use cv_data::table::Table;
use cv_data::value::Value;
use cv_data::viewstore::ViewStoreStats;
use cv_engine::engine::QueryEngine;
use cv_engine::exec::{ExecOutcome, PendingView};
use cv_engine::plan::LogicalPlan;
use cv_engine::signature::{template_signature, SubexprInfo};
use cv_service::{OpStateCache, OpStateCacheStats, TaggedOpStates};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The run state of one workload replay, shared by both drivers.
pub(crate) struct Lifecycle<'r> {
    pub cfg: &'r DriverConfig,
    workload: &'r Workload,
    pub engine: QueryEngine,
    /// Owned outright: both drivers touch it only from the driver thread
    /// (the service's pool tasks never capture it), and the creation locks
    /// carry their own mutex.
    pub insights: InsightsService,
    /// All view traffic; the engine's own store stays empty.
    pub store: &'r dyn SharedViewStore,
    op_states: Option<Arc<OpStateCache>>,
    repo: SubexpressionRepo,
    data_plane: HashMap<JobId, DataPlane>,
    pub result_digests: BTreeMap<JobId, Sig128>,
    robustness: RobustnessStats,
    pub failed_jobs: u64,
    selection_history: Vec<(SimDay, usize)>,
    gdpr_purged_views: u64,
    next_job: u64,
    /// Absorb one simulated store crash per mutation (the sequential driver
    /// only; the service rejects crash plans).
    crash_retry: bool,
}

/// An executed job, handed to [`Lifecycle::commit`].
pub(crate) struct Executed<'a> {
    pub meta: JobMeta,
    /// CloudViews served this job (enabled, and no metadata outage).
    pub use_cv: bool,
    pub subexprs: &'a [SubexprInfo],
    pub exec: &'a ExecOutcome,
    pub matched: &'a [Sig128],
    /// Of `matched`, the compensated (semantic) substitutions.
    pub compensated: usize,
    pub built: usize,
    pub stages: StageGraph,
}

/// A view that landed in the store, awaiting its insights announce.
pub(crate) struct SealedView {
    pub strict: Sig128,
    pub recurring: Sig128,
    pub rows: u64,
    pub bytes: u64,
    pub job: JobId,
    pub vc: VcId,
    pub at: SimTime,
    /// The defining (normalized, view-free) plan, so the view can be
    /// served for semantic matching, not just exact-signature lookup.
    pub plan: Option<Arc<LogicalPlan>>,
}

impl SealedView {
    pub fn new(
        pv: &PendingView,
        job: JobId,
        vc: VcId,
        at: SimTime,
        plan: Option<Arc<LogicalPlan>>,
    ) -> SealedView {
        SealedView {
            strict: pv.sig,
            recurring: pv.recurring_sig,
            rows: pv.data.num_rows() as u64,
            bytes: pv.data.byte_size(),
            job,
            vc,
            at,
            plan,
        }
    }
}

/// What both drivers' outcomes carry, rolled up at the end of a run.
pub(crate) struct RunEnd {
    pub ledger: MetricsLedger,
    pub repo: SubexpressionRepo,
    pub usage: Vec<UsageEvent>,
    pub view_store_stats: ViewStoreStats,
    pub result_digests: BTreeMap<JobId, Sig128>,
    pub failed_jobs: u64,
    pub selection_history: Vec<(SimDay, usize)>,
    pub gdpr_purged_views: u64,
    pub robustness: RobustnessStats,
    pub store_io: Option<StoreIoStats>,
    pub op_state: Option<OpStateCacheStats>,
}

impl<'r> Lifecycle<'r> {
    pub fn new(
        workload: &'r Workload,
        cfg: &'r DriverConfig,
        store: &'r dyn SharedViewStore,
        crash_retry: bool,
    ) -> Lifecycle<'r> {
        let mut engine = QueryEngine::with_config(cfg.optimizer.clone());
        // In the service, jobs already run one per pool worker, so chunks
        // stream inside each job serially.
        engine.chunk_size = cfg.chunk_size.max(1);
        let analyzer = Arc::new(cv_analyzer::Analyzer::new(&cfg.optimizer));
        // The analyzer is always the containment prover: semantic (widened)
        // view matches only happen when it certifies them.
        engine.optimizer.set_prover(analyzer.clone());
        if cfg.optimizer.verify_plans {
            // Audit every optimized plan; a corrupted rewrite fails the job
            // with a CV0xx diagnostic instead of sealing bad results.
            engine.optimizer.set_verifier(analyzer);
        }
        // Operator-state cache: recurring jobs skip rebuilding breaker
        // state whose inputs didn't rotate (keys embed the scanned GUIDs).
        // Warm-aware planning may flip a merge-join pick back to hash when
        // the build side is resident (byte-safe: all join algorithms agree).
        let op_states = (cfg.op_state_budget_bytes > 0)
            .then(|| Arc::new(OpStateCache::with_budget(cfg.op_state_budget_bytes)));
        if let Some(cache) = &op_states {
            engine.optimizer.set_warm_states(cache.clone());
        }
        store.set_fault_plan(cfg.faults.clone());
        Lifecycle {
            cfg,
            workload,
            engine,
            insights: InsightsService::new(cfg.controls.clone()),
            store,
            op_states,
            repo: SubexpressionRepo::new(),
            data_plane: HashMap::new(),
            result_digests: BTreeMap::new(),
            robustness: RobustnessStats::default(),
            failed_jobs: 0,
            selection_history: Vec::new(),
            gdpr_purged_views: 0,
            next_job: 0,
            crash_retry,
        }
    }

    /// Run a store mutation under this run's crash policy (see
    /// [`with_crash_retry`]).
    pub fn retry<T>(&mut self, op: impl Fn(&dyn SharedViewStore) -> Result<T>) -> Result<T> {
        with_crash_retry(self.store, self.crash_retry.then_some(&mut self.robustness), op)
    }

    /// Seal one pending view (see [`seal_view`]) under this run's crash
    /// policy.
    pub fn seal(&mut self, pv: &PendingView, job: JobId, vc: VcId, at: SimTime) -> Result<bool> {
        seal_view(self.store, pv, job, vc, at, self.crash_retry.then_some(&mut self.robustness))
    }

    /// Day start: bulk-regenerate the raw datasets due today (same rng,
    /// same tables, same GUID rotations in both drivers), then apply the
    /// day's GDPR forget-request. Under IVM the regeneration produces
    /// deltas: facts append the day's rows, dimensions churn in place, and
    /// the catalog records the signed change feed for maintenance.
    pub fn start_day(&mut self, day: SimDay, obs: Option<&ServiceObs>) -> Result<()> {
        let (seed, scale) = (self.workload.config.seed, self.workload.config.scale);
        let catalog = &mut self.engine.catalog;
        if let Some(o) = obs {
            o.tracer.begin(0, "ingest");
        }
        let mut regenerated = 0u64;
        for spec in raw_specs() {
            if !day.index().is_multiple_of(spec.update_every_days) {
                continue;
            }
            regenerated += 1;
            let mut rng = data_rng(seed, spec.name, day);
            match catalog.id_of(spec.name) {
                Some(id) if self.cfg.ivm != IvmMode::Off => {
                    let prev = catalog.get(id)?.data().clone();
                    let (table, delta) = spec.generate_delta(&mut rng, scale, day, &prev);
                    catalog.bulk_update_delta(id, table, delta, day.start())?;
                }
                Some(id) => {
                    catalog.bulk_update(id, spec.generate(&mut rng, scale, day), day.start())?;
                }
                None => {
                    catalog.register(
                        spec.name,
                        spec.generate(&mut rng, scale, day),
                        day.start(),
                    )?;
                }
            }
        }
        if let Some(o) = obs {
            o.tracer.end_with(0, &[("datasets", regenerated)]);
        }
        if let Some(every) = self.cfg.gdpr_every_days {
            if day.index() > 0 && day.index().is_multiple_of(every) {
                self.gdpr_purged_views += self.apply_gdpr(day)? as u64;
            }
        }
        Ok(())
    }

    /// Apply one GDPR forget-request: pick a deterministic user id, delete
    /// it from `users`, rotate the GUID, and purge every view derived from
    /// the retired version from the store, the serving index and the
    /// operator-state cache (§4).
    fn apply_gdpr(&mut self, day: SimDay) -> Result<usize> {
        let Some(id) = self.engine.catalog.id_of("users") else {
            return Ok(0);
        };
        let mut rng = data_rng(self.workload.config.seed, "gdpr", day);
        let victim = rng.range_i64(0, 40);
        let outcome =
            self.engine.catalog.gdpr_forget(id, "u_id", &Value::Int(victim), day.start())?;
        let stale = self.store.sigs_with_input(outcome.old_guid);
        let purged = self.retry(|s| s.purge_input(outcome.old_guid, day.start()))?;
        self.insights.purge_sigs(&stale);
        // Operator-state coupling: the rotated guid already invalidates the
        // keys, but eager purge frees the budget and drops any state whose
        // bytes were derived from the forgotten rows.
        if let Some(cache) = &self.op_states {
            cache.purge_input("users");
            cache.purge_sigs(&stale);
        }
        Ok(purged)
    }

    /// Admit the next job: hand out its id and build its repository record.
    pub fn admit(&mut self, template: &JobTemplate, day: SimDay) -> JobMeta {
        let job = JobId(self.next_job);
        self.next_job += 1;
        JobMeta {
            job,
            template: template.id,
            pipeline: template.pipeline,
            vc: template.vc,
            user: template.user,
            submit: template.submit_time(day),
        }
    }

    /// Whether CloudViews serves a job submitted at `submit`. During a
    /// metadata-repository outage the annotation service is unreachable,
    /// so the optimizer degrades to a baseline no-reuse plan (graceful
    /// degradation — the job must still run, just without CloudViews).
    pub fn use_cloudviews(&mut self, submit: SimTime) -> bool {
        let enabled = self.cfg.cloudviews.is_some();
        let metadata_down = enabled && self.cfg.faults.metadata_down(submit);
        if metadata_down {
            self.robustness.metadata_outage_jobs += 1;
        }
        enabled && !metadata_down
    }

    /// The shared operator-state cache tagged with `job`, so hits against
    /// another job's published state count as cross-job reuse.
    pub fn op_states_for(&self, job: JobId) -> Option<TaggedOpStates> {
        self.op_states.as_ref().map(|c| TaggedOpStates::new(c.clone(), job.0))
    }

    /// A cooking job publishes its output as the next version of a shared
    /// dataset. Under delta ingestion the update is diffed so views over
    /// cooked outputs keep an intact delta chain.
    pub fn publish_output(
        &mut self,
        output: Option<&str>,
        table: &Table,
        at: SimTime,
    ) -> Result<()> {
        let Some(output) = output else { return Ok(()) };
        let catalog = &mut self.engine.catalog;
        match catalog.id_of(output) {
            Some(id) if self.cfg.ivm != IvmMode::Off => {
                catalog.bulk_update_diff(id, table.clone(), at)?;
            }
            Some(id) => {
                catalog.bulk_update(id, table.clone(), at)?;
            }
            None => {
                catalog.register(output, table.clone(), at)?;
            }
        }
        Ok(())
    }

    /// Commit an executed job and return its simulator spec. Any read-side
    /// fault quarantines the signature in the store, the serving index and
    /// the operator-state cache for the rest of the run: the engine
    /// recomputes instead of retrying a bad artifact.
    pub fn commit(&mut self, job: Executed<'_>) -> Result<JobSpec> {
        let Executed { meta, use_cv, subexprs, exec, matched, compensated, built, stages } = job;
        let metrics = &exec.metrics;
        self.repo.log_job(meta, subexprs, Some(&metrics.op_profiles));
        self.result_digests.insert(meta.job, digest_table(&exec.table));
        for sig in &metrics.quarantined_sigs {
            self.retry(|s| s.quarantine(*sig))?;
            self.insights.quarantine(*sig);
        }
        if let Some(cache) = &self.op_states {
            if !metrics.quarantined_sigs.is_empty() {
                cache.purge_sigs(&metrics.quarantined_sigs);
            }
        }
        let dp = DataPlane::from_exec(metrics, matched.len(), compensated, built);
        self.robustness.fallbacks_recompute += dp.fallbacks_recompute;
        self.robustness.view_read_failures += metrics.view_read_failures;
        self.robustness.view_corruptions += metrics.view_corruptions;
        self.robustness.view_expiry_races += metrics.view_expiry_races;
        self.data_plane.insert(meta.job, dp);
        if use_cv && !matched.is_empty() {
            self.insights.record_reuse(matched, meta.job, meta.submit);
        }
        Ok(JobSpec {
            job: meta.job,
            vc: meta.vc,
            template: meta.template,
            submit: meta.submit,
            stages,
        })
    }

    /// Release the creation locks of views a job will never seal (its
    /// execution failed, or the half-materialized view was dropped), so a
    /// later job can rebuild them.
    pub fn release_locks(&self, sigs: impl IntoIterator<Item = Sig128>) {
        for sig in sigs {
            self.insights.release_lock(sig);
        }
    }

    /// Register a sealed view with the insights service (releasing its
    /// creation lock); the template signature makes it servable by the
    /// widened semantic match.
    pub fn announce(&mut self, v: SealedView) {
        let template =
            v.plan.as_ref().and_then(|p| template_signature(p, &self.engine.optimizer.cfg.sig));
        self.insights.report_sealed(
            ViewInfo {
                strict: v.strict,
                recurring: v.recurring,
                rows: v.rows,
                bytes: v.bytes,
                sealed_at: v.at,
                expires: v.at + self.cfg.view_ttl,
                vc: v.vc,
                template,
                plan: v.plan,
            },
            v.job,
        );
    }

    /// Day end: workload analysis and selection publish, on the configured
    /// cadence — the paper's feedback loop.
    pub fn analyze(&mut self, day: SimDay, obs: Option<&ServiceObs>) {
        let Some(knobs) = &self.cfg.cloudviews else { return };
        if !(day.index() + 1).is_multiple_of(knobs.analysis_every_days) {
            return;
        }
        if let Some(o) = obs {
            o.tracer.begin(0, "analysis");
        }
        let n = run_analysis(&self.repo, &mut self.insights, knobs, day, &self.cfg.cluster);
        self.selection_history.push((day, n));
        if let Some(o) = obs {
            o.tracer.end_with(0, &[("selected", n as u64)]);
        }
    }

    /// Run end: the ledger from the drained simulator, plus the store's
    /// counters rolled into the robustness stats.
    pub fn finish(mut self, sim: &ClusterSim) -> RunEnd {
        let ledger = ledger(sim, &mut self.data_plane, &mut self.robustness);
        let store_stats = self.store.stats();
        self.robustness.view_write_failures = store_stats.write_failures;
        self.robustness.views_quarantined = store_stats.views_quarantined;
        let store_io = self.store.io_stats();
        if let Some(io) = &store_io {
            self.robustness.store_recoveries += io.recoveries;
            self.robustness.wal_records_replayed += io.wal_records_replayed;
            self.robustness.wal_records_skipped += io.wal_records_skipped;
        }
        RunEnd {
            ledger,
            usage: self.insights.usage_log().to_vec(),
            repo: self.repo,
            view_store_stats: store_stats,
            result_digests: self.result_digests,
            failed_jobs: self.failed_jobs,
            selection_history: self.selection_history,
            gdpr_purged_views: self.gdpr_purged_views,
            robustness: self.robustness,
            store_io,
            op_state: self.op_states.map(|c| c.stats()),
        }
    }
}

/// A day's due jobs in submission order (ties by template id), so job ids
/// line up one-to-one across drivers.
pub(crate) fn due_jobs(workload: &Workload, day: SimDay) -> Vec<&JobTemplate> {
    let mut due: Vec<&JobTemplate> = workload.templates.iter().filter(|t| t.due_on(day)).collect();
    due.sort_by(|a, b| {
        a.submit_time(day).seconds().total_cmp(&b.submit_time(day).seconds()).then(a.id.cmp(&b.id))
    });
    due
}

/// Turn a drained simulator's job results into the run's ledger, folding
/// each job's retries, preemptions and restarts into `robustness`.
pub(crate) fn ledger(
    sim: &ClusterSim,
    data_plane: &mut HashMap<JobId, DataPlane>,
    robustness: &mut RobustnessStats,
) -> MetricsLedger {
    let mut ledger = MetricsLedger::new();
    for result in sim.results() {
        robustness.stage_retries += result.stage_retries as u64;
        robustness.preemptions += result.preemptions as u64;
        robustness.backoff_seconds += result.backoff_seconds;
        robustness.job_restarts += result.restarts as u64;
        let data = data_plane.remove(&result.job).unwrap_or_default();
        ledger.add(JobRecord { result: result.clone(), data });
    }
    ledger
}

/// The run report both drivers write (the shape `BENCH_*.json`
/// trajectories track): headline totals, the robustness counters, the
/// durable store's IO section, and last the driver's own `section`.
pub(crate) fn report_json(
    ledger: &MetricsLedger,
    failed_jobs: u64,
    robustness: &RobustnessStats,
    store_io: Option<&StoreIoStats>,
    (name, section): (&str, Json),
) -> Json {
    let totals = ledger.totals();
    let mut out = json!({
        "jobs": totals.jobs,
        "failed_jobs": failed_jobs,
        "latency_seconds": totals.latency_seconds,
        "processing_seconds": totals.processing_seconds,
        "bonus_seconds": totals.bonus_seconds,
        "containers": totals.containers,
        "input_bytes": totals.input_bytes,
        "views_built": totals.views_built,
        "views_reused": totals.views_reused,
        "views_reused_exact": totals.views_reused - totals.views_reused_semantic,
        "views_reused_semantic": totals.views_reused_semantic,
        "robustness": robustness.to_json(),
        "store": match store_io {
            Some(io) => json!({
                "page_cache_hits": io.page_cache_hits,
                "page_cache_misses": io.page_cache_misses,
                "page_cache_hit_rate": io.page_cache_hit_rate(),
                "pages_evicted": io.pages_evicted,
                "wal_fsyncs": io.wal_fsyncs,
                "wal_records_written": io.wal_records_written,
                "wal_records_replayed": io.wal_records_replayed,
                "wal_records_skipped": io.wal_records_skipped,
                "recoveries": io.recoveries,
                "checkpoints": io.checkpoints,
                "bytes_written_durably": io.bytes_written_durably,
            }),
            None => Json::Null,
        },
    });
    if let Json::Obj(map) = &mut out {
        map.insert(name, section);
    }
    out
}

/// Run a store mutation. With `crashes` set — the sequential driver only —
/// one simulated crash ([`CvError::is_crash`](cv_common::CvError::is_crash))
/// is absorbed: the store recovers in place (WAL + checkpoint replay) and
/// the mutation is retried once. Replay is idempotent, so a retried
/// mutation that already committed before the crash is a no-op.
fn with_crash_retry<T>(
    store: &dyn SharedViewStore,
    crashes: Option<&mut RobustnessStats>,
    op: impl Fn(&dyn SharedViewStore) -> Result<T>,
) -> Result<T> {
    match (op(store), crashes) {
        (Err(e), Some(robustness)) if e.is_crash() => {
            robustness.store_crashes += 1;
            store.recover_in_place()?;
            op(store)
        }
        (other, _) => other,
    }
}

/// Seal one pending view (the job-manager step, at the producing stage's
/// finish time under early sealing, paper §2.3) and report whether it
/// landed. Both drivers seal through here. An injected write failure is
/// absorbed — the half-materialized view is discarded, the job already
/// succeeded — and the store drops a quarantined signature silently, so
/// landing is re-checked with `contains`. Callers announce only views
/// that landed. `crashes` as in [`with_crash_retry`].
pub(crate) fn seal_view(
    store: &dyn SharedViewStore,
    pv: &PendingView,
    job: JobId,
    vc: VcId,
    now: SimTime,
    crashes: Option<&mut RobustnessStats>,
) -> Result<bool> {
    match with_crash_retry(store, crashes, |s| s.insert(pv.to_view(job, vc, now))) {
        Ok(()) => Ok(store.contains(pv.sig)),
        Err(e) if e.is_fault() => Ok(false),
        Err(e) => Err(e),
    }
}

/// Deterministic per-(dataset, day) data stream, independent of everything
/// else — baseline and enabled runs see byte-identical inputs.
pub(crate) fn data_rng(seed: u64, dataset: &str, day: SimDay) -> DetRng {
    let mut h = StableHasher::with_domain("workload-data");
    h.write_u64(seed);
    h.write_str(dataset);
    h.write_u64(day.index() as u64);
    DetRng::seed(h.finish64())
}

/// Order-insensitive digest of a job's result, for cross-run correctness
/// checks (reuse must never change results).
pub(crate) fn digest_table(t: &Table) -> Sig128 {
    let mut h = StableHasher::with_domain("result-digest");
    for row in t.canonical_rows() {
        h.write_str(&row);
    }
    h.finish128()
}

fn run_analysis(
    repo: &SubexpressionRepo,
    insights: &mut InsightsService,
    knobs: &SelectionKnobs,
    day: SimDay,
    cluster: &ClusterConfig,
) -> usize {
    let from = SimDay(day.index().saturating_sub(knobs.analysis_window_days - 1));
    let window = repo.window(from, SimDay(day.index() + 1));
    let mut problem = cv_core::build_problem(&window, knobs.min_frequency);
    if knobs.schedule_aware {
        problem = apply_schedule_awareness(
            &problem,
            cluster.default_vc_guaranteed as f64 * cluster.container_speed,
            SimDuration::from_secs(60.0),
        );
    }
    let constraints = SelectionConstraints {
        storage_budget_bytes: knobs.storage_budget_bytes,
        max_views: knobs.max_views,
        min_utility: 0.0,
    };
    let selector: Box<dyn ViewSelector> = match knobs.selector {
        SelectorKind::LabelPropagation => Box::new(LabelPropagationSelector::default()),
        SelectorKind::Greedy => Box::new(GreedySelector),
        SelectorKind::Exact => Box::new(ExactSelector { max_candidates: 24 }),
    };
    insights.reset_selection();
    if knobs.per_vc {
        let (_, per_vc) = select_per_vc(selector.as_ref(), &problem, &HashMap::new(), &constraints);
        let mut total = 0;
        for (vc, sel) in per_vc {
            total += sel.len();
            insights.publish_selection(Some(vc), sel.chosen);
        }
        total
    } else {
        let selection = selector.select(&problem, &constraints);
        let n = selection.len();
        insights.publish_selection(None, selection.chosen);
        n
    }
}
