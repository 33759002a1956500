//! Single-node vectorized executor; morsel-driven under a parallel runner.
//!
//! Executes physical plans over the in-memory catalog, producing the result
//! table plus the runtime telemetry the rest of the system feeds on:
//!
//! * per-operator **work units** (cost-model formulas charged on *actual*
//!   row/byte counts) — the cluster simulator turns these into
//!   container-seconds;
//! * **input bytes** (paper Fig. 7b) and **total data read** including
//!   intermediates (Fig. 7c);
//! * executed **join-algorithm counts** (Fig. 9);
//! * **pending views** captured by spool operators, to be sealed by the job
//!   manager (early sealing happens in the cluster layer).
//!
//! # Morsel execution
//!
//! Serial execution — every context [`ExecContext::new`] builds — runs each
//! operator over its whole input. Only [`ExecContext::with_chunking`] asks
//! for morsels: streamable operators (filter, project, the hash-join
//! *probe* side, and both the evaluation phase and the final merge
//! emission of hash aggregation) then cut their input into fixed-size
//! chunks, copy each out with [`Table::slice`], fan the chunks through the
//! context's [`MorselRunner`] (the service's pool runner spreads one heavy
//! query across workers) and reassemble the outputs with
//! [`Table::from_chunks`]. Pipeline breakers — sorts, join build sides,
//! merge/loop joins, unions, UDOs, spools, aggregate accumulation — always
//! see whole tables. Breaker states (join builds, finished aggregate/sort
//! output) can additionally be restored from an [`OpStateSource`] instead
//! of rebuilt; see [`opstate`].
//!
//! The work ledger charges morsel dispatch for the chunks a
//! [`DEFAULT_CHUNK_SIZE`] split would produce, whatever the context
//! actually runs (see `ledger_chunks`), so work units — and the
//! simulated cluster figures built on them — are the same at every chunk
//! size too.
//!
//! Two invariants keep results *byte-identical* at every chunk size and
//! worker count:
//!
//! * operator outputs are **normalized** (all-true validity bitmaps
//!   dropped) at chunk-reassembly boundaries, so buffer representation
//!   never depends on how the row stream was cut;
//! * chains containing nondeterministic functions (`RANDOM()`,
//!   `NEW_GUID()`) are **never chunked**: they evaluate whole, in row
//!   order, against the shared [`EvalCtx`] counter, reproducing the
//!   monolithic sequence exactly.

mod keys;
pub mod morsel;
pub mod opstate;

use crate::cost::CostModel;
use crate::expr::eval::{eval, eval_predicate, EvalCtx};
use crate::expr::{AggExpr, AggFunc, ScalarExpr};
use crate::obs::ObsSink;
use crate::physical::{JoinAlgo, JoinAlgoCounts, PhysicalPlan};
use crate::plan::JoinKind;
use crate::udo::UdoRegistry;
use cv_common::hash::Sig128;
use cv_common::ids::{JobId, VcId, VersionGuid};
use cv_common::{CvError, Result, SimTime};
use cv_data::catalog::DatasetCatalog;
use cv_data::chunk::{chunk_ranges, DEFAULT_CHUNK_SIZE};
use cv_data::column::{Column, ColumnBuilder, ColumnData};
use cv_data::schema::{Schema, SchemaRef};
use cv_data::table::Table;
use cv_data::value::Value;
use cv_data::viewstore::{MaterializedView, ViewSource};
use keys::KeyCols;
pub use morsel::{MorselRunner, SerialRunner};
pub use opstate::{OpState, OpStateAcquire, OpStateEntry, OpStateSource};
use std::collections::HashMap;
use std::sync::Arc;

/// Receives sealed view chunks as a spool produces them, before the view is
/// sealed into the store — the single-flight layer hands them to concurrent
/// consumers that would otherwise wait for the full materialization.
pub trait SpoolSink: Sync {
    /// Chunk `chunk` of the view `sig`; `last` marks the final chunk.
    fn publish_chunk(&self, sig: Sig128, chunk: &Table, last: bool);
}

/// Execution context: read access to storage plus the evaluation state.
///
/// Views come in through the [`ViewSource`] trait object so the same
/// executor runs against a plain `ViewStore`, the service layer's sharded
/// store, or a pipelining wrapper over in-flight materializations.
pub struct ExecContext<'a> {
    pub catalog: &'a DatasetCatalog,
    pub views: &'a dyn ViewSource,
    pub udos: &'a UdoRegistry,
    pub now: SimTime,
    pub eval: EvalCtx,
    /// Rows per morsel for streamable operators; `usize::MAX` (the
    /// default) runs every operator over its whole input.
    pub chunk_size: usize,
    /// Fans per-chunk work across workers; [`SerialRunner`] by default.
    pub runner: Arc<dyn MorselRunner>,
    /// Receives sealed view chunks as spools produce them.
    pub spool_sink: Option<&'a dyn SpoolSink>,
    /// Per-operator observability hooks; `None` keeps the hot path free of
    /// timing calls entirely (a single branch per operator).
    pub obs: Option<&'a dyn ObsSink>,
    /// Operator-state cache for pipeline breakers (hash-join builds,
    /// aggregate states, sort runs); `None` disables reuse entirely.
    pub op_states: Option<&'a dyn OpStateSource>,
}

impl<'a> ExecContext<'a> {
    pub fn new(
        catalog: &'a DatasetCatalog,
        views: &'a dyn ViewSource,
        udos: &'a UdoRegistry,
        now: SimTime,
    ) -> ExecContext<'a> {
        let eval = EvalCtx::new((now.seconds() / 86_400.0) as i32);
        ExecContext {
            catalog,
            views,
            udos,
            now,
            eval,
            chunk_size: usize::MAX,
            runner: Arc::new(SerialRunner),
            spool_sink: None,
            obs: None,
            op_states: None,
        }
    }

    pub fn with_obs(mut self, obs: &'a dyn ObsSink) -> ExecContext<'a> {
        self.obs = Some(obs);
        self
    }

    /// Ask for morsels: streamable operators split their input into
    /// `chunk_size`-row chunks and fan them through `runner` (the service
    /// layer plugs in its pool-backed runner here). The only way to get
    /// chunked execution; results and the work ledger do not depend on it.
    pub fn with_chunking(
        mut self,
        chunk_size: usize,
        runner: Arc<dyn MorselRunner>,
    ) -> ExecContext<'a> {
        self.chunk_size = chunk_size.max(1);
        self.runner = runner;
        self
    }

    pub fn with_spool_sink(mut self, sink: &'a dyn SpoolSink) -> ExecContext<'a> {
        self.spool_sink = Some(sink);
        self
    }

    pub fn with_op_states(mut self, src: &'a dyn OpStateSource) -> ExecContext<'a> {
        self.op_states = Some(src);
        self
    }
}

/// Profile of one executed operator.
#[derive(Clone, Debug)]
pub struct OpProfile {
    pub kind: &'static str,
    pub rows_out: u64,
    pub bytes_out: u64,
    pub work: f64,
    pub partitions: usize,
    /// Set for spool operators: the view being materialized.
    pub spool_sig: Option<Sig128>,
}

/// Aggregate runtime metrics of one job execution.
#[derive(Clone, Debug, Default)]
pub struct ExecMetrics {
    /// Bytes read from base datasets (paper Fig. 7b "input size").
    pub input_bytes: u64,
    /// Bytes read from materialized views.
    pub view_bytes_read: u64,
    /// All bytes flowing into operators, incl. intermediates (Fig. 7c).
    pub data_read_bytes: u64,
    /// Bytes written by spools to the view store.
    pub bytes_written_views: u64,
    pub rows_out: u64,
    /// Total work units (≈ container-seconds at unit speed).
    pub total_work: f64,
    pub join_algos: JoinAlgoCounts,
    pub op_profiles: Vec<OpProfile>,
    /// ViewScans that degraded to recomputing their original subexpression
    /// because the view was missing, corrupt, or failed to read.
    pub fallbacks_recompute: u64,
    /// Injected storage read failures observed at ViewScans.
    pub view_read_failures: u64,
    /// Checksum mismatches (torn writes) observed at ViewScans.
    pub view_corruptions: u64,
    /// Views that expired between optimizer match and executor read.
    pub view_expiry_races: u64,
    /// View reads served cold (pages faulted in from disk rather than the
    /// store's buffer pool). Always 0 for in-memory stores.
    pub view_cold_reads: u64,
    /// Signatures to quarantine after this execution: every read-side
    /// failure lands here; the driver denylists them in the view store and
    /// the insights service.
    pub quarantined_sigs: Vec<Sig128>,
    /// Pipeline-breaker states restored from the operator-state cache.
    pub op_state_hits: u64,
    /// Breaker keys that were derivable but not resident (built inline,
    /// published when this execution held the claim).
    pub op_state_misses: u64,
    /// States this execution built and published to the cache.
    pub op_state_published: u64,
    /// Work units of skipped builds, credited from each hit entry's
    /// recorded build cost.
    pub op_state_work_avoided: f64,
    /// Measured wall seconds of skipped builds (the `build_wall_avoided`
    /// currency in BENCH reports).
    pub op_state_wall_avoided: f64,
}

/// A view captured by a spool, not yet sealed into the store.
#[derive(Clone, Debug)]
pub struct PendingView {
    pub sig: Sig128,
    pub recurring_sig: Sig128,
    pub input_guids: Vec<VersionGuid>,
    pub schema: SchemaRef,
    pub data: Table,
    /// Work units the producing subtree cost — the "accurate statistics"
    /// stored with the view.
    pub production_work: f64,
    /// Work of the spool write itself (materialization overhead).
    pub write_work: f64,
}

impl PendingView {
    /// The view to seal, created by `job` in `vc` at `now`. The store fills
    /// in `rows`, `bytes`, `expires` (from its TTL) and `checksum`.
    pub fn to_view(&self, job: JobId, vc: VcId, now: SimTime) -> MaterializedView {
        MaterializedView {
            strict_sig: self.sig,
            recurring_sig: self.recurring_sig,
            schema: self.schema.clone(),
            data: self.data.clone(),
            rows: 0,
            bytes: 0,
            created: now,
            expires: now,
            creator_job: job,
            vc,
            input_guids: self.input_guids.clone(),
            observed_work: self.production_work,
            checksum: 0,
        }
    }
}

/// Result of executing one physical plan.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    pub table: Table,
    pub metrics: ExecMetrics,
    pub pending_views: Vec<PendingView>,
}

/// Execute a physical plan.
pub fn execute(
    plan: &PhysicalPlan,
    ctx: &mut ExecContext<'_>,
    model: &CostModel,
) -> Result<ExecOutcome> {
    let mut metrics = ExecMetrics::default();
    let mut pending = Vec::new();
    let table = exec_node(plan, ctx, model, &mut metrics, &mut pending)?;
    metrics.rows_out = table.num_rows() as u64;
    Ok(ExecOutcome { table, metrics, pending_views: pending })
}

fn record(
    metrics: &mut ExecMetrics,
    plan: &PhysicalPlan,
    out: &Table,
    work: f64,
    spool_sig: Option<Sig128>,
) {
    metrics.total_work += work;
    metrics.op_profiles.push(OpProfile {
        kind: plan.kind_name(),
        rows_out: out.num_rows() as u64,
        bytes_out: out.byte_size(),
        work,
        partitions: plan.partitions(),
        spool_sig,
    });
}

/// Morsels the work ledger charges for a streamed input of `rows` rows:
/// the chunks a [`DEFAULT_CHUNK_SIZE`] split would produce, or one for a
/// nondeterministic chain (which never splits). The charge is nominal —
/// it does not follow the context's chunk size — so serial whole-input
/// execution and every chunked run book the same work: the cluster
/// simulator, and through it the golden paper artifacts, price jobs from
/// this ledger.
fn ledger_chunks(rows: usize, deterministic: bool) -> usize {
    if deterministic {
        rows.div_ceil(DEFAULT_CHUNK_SIZE).max(1)
    } else {
        1
    }
}

/// Run a transform over the input: whole, or — when the context asks for
/// morsels — sliced into chunks fanned out through the context's
/// [`MorselRunner`] and reassembled in chunk order. The output is
/// normalized either way. Returns the table and the [`ledger_chunks`]
/// charge.
///
/// When `deterministic` is false — the operator's expressions contain
/// `RANDOM()`/`NEW_GUID()` — the input always runs as one chunk evaluated
/// against the shared [`EvalCtx`], so the per-row nondeterminism counter
/// advances in exactly the whole-input order regardless of the configured
/// chunk size or worker count.
fn stream_chunks(
    input: &Table,
    ctx: &mut ExecContext<'_>,
    deterministic: bool,
    transform: &(dyn Fn(&Table, &mut EvalCtx) -> Result<Table> + Sync),
) -> Result<(Table, usize)> {
    let charged = ledger_chunks(input.num_rows(), deterministic);
    let chunk_size = if deterministic { ctx.chunk_size } else { usize::MAX };
    let ranges = chunk_ranges(input.num_rows(), chunk_size);
    if ranges.len() == 1 {
        return Ok((transform(input, &mut ctx.eval)?.normalized(), charged));
    }
    let base_eval = ctx.eval.clone();
    let outputs = morsel::run_indexed(ctx.runner.as_ref(), ranges.len(), &|i| {
        let (off, len) = ranges[i];
        transform(&input.slice(off, len), &mut base_eval.clone())
    });
    let chunks = outputs.into_iter().collect::<Result<Vec<Table>>>()?;
    let schema = chunks[0].schema().clone();
    Ok((Table::from_chunks(schema, &chunks)?, charged))
}

/// Dispatch one operator, emitting [`ObsSink`] events around the recursion
/// when a sink is installed. `op_started` fires preorder and `op_finished`
/// postorder, so a sink that maps them onto span begin/end reconstructs the
/// exact plan-tree nesting. With `obs: None` this is a single branch — no
/// clock reads, no virtual calls.
fn exec_node(
    plan: &PhysicalPlan,
    ctx: &mut ExecContext<'_>,
    model: &CostModel,
    metrics: &mut ExecMetrics,
    pending: &mut Vec<PendingView>,
) -> Result<Table> {
    let Some(obs) = ctx.obs else {
        return exec_node_inner(plan, ctx, model, metrics, pending);
    };
    let kind = plan.kind_name();
    obs.op_started(kind);
    let started = std::time::Instant::now();
    let result = exec_node_inner(plan, ctx, model, metrics, pending);
    let ns = started.elapsed().as_nanos() as u64;
    match &result {
        Ok(table) => obs.op_finished(kind, table.num_rows() as u64, table.byte_size(), ns),
        Err(_) => obs.op_finished(kind, 0, 0, ns),
    }
    result
}

fn exec_node_inner(
    plan: &PhysicalPlan,
    ctx: &mut ExecContext<'_>,
    model: &CostModel,
    metrics: &mut ExecMetrics,
    pending: &mut Vec<PendingView>,
) -> Result<Table> {
    match plan {
        PhysicalPlan::TableScan { dataset, guid, .. } => {
            let ds = ctx.catalog.get_by_name(dataset)?;
            if ds.current_guid() != *guid {
                return Err(CvError::exec(format!(
                    "stale plan: dataset `{dataset}` was regenerated since compilation"
                )));
            }
            let table = ds.data().clone();
            let bytes = table.byte_size();
            metrics.input_bytes += bytes;
            metrics.data_read_bytes += bytes;
            let work = model.scan(bytes as f64).total();
            record(metrics, plan, &table, work, None);
            Ok(table)
        }
        PhysicalPlan::ViewScan { sig, fallback, .. } => {
            use cv_data::viewstore::{ViewReadFault, ViewTemperature};
            match ctx.views.read_view_traced(*sig, ctx.now) {
                Ok(Some((table, temperature))) => {
                    let bytes = table.byte_size();
                    metrics.view_bytes_read += bytes;
                    metrics.data_read_bytes += bytes;
                    let work = match temperature {
                        ViewTemperature::Hot => model.view_scan(bytes as f64).total(),
                        ViewTemperature::Cold => {
                            metrics.view_cold_reads += 1;
                            model.view_scan_cold(bytes as f64).total()
                        }
                    };
                    record(metrics, plan, &table, work, None);
                    return Ok(table);
                }
                // Plain miss (expired, purged, quarantined earlier): fall
                // through to the recompute fallback without quarantining.
                Ok(None) => {}
                // Read-side failure: a view must never fail the job.
                // Quarantine the signature, then degrade to recompute.
                Err(fault) => {
                    match fault {
                        ViewReadFault::ReadError => metrics.view_read_failures += 1,
                        ViewReadFault::Corrupt => metrics.view_corruptions += 1,
                        ViewReadFault::ExpiryRace => metrics.view_expiry_races += 1,
                    }
                    metrics.quarantined_sigs.push(*sig);
                }
            }
            let Some(fb) = fallback else {
                return Err(CvError::exec(format!(
                    "materialized view {} unavailable at execution and the plan \
                     carries no recompute fallback",
                    sig.short()
                )));
            };
            metrics.fallbacks_recompute += 1;
            // Execute the fallback subtree, then collapse its operator
            // profiles into this single ViewScan profile: the stage builder
            // zips profiles 1:1 against the plan tree, which still sees a
            // leaf here. The subtree's work/bytes have already accumulated
            // into the aggregate metrics (the recomputation really ran).
            let profiles_before = metrics.op_profiles.len();
            let table = exec_node(fb, ctx, model, metrics, pending)?;
            let sub_work: f64 = metrics.op_profiles.drain(profiles_before..).map(|p| p.work).sum();
            metrics.op_profiles.push(OpProfile {
                kind: plan.kind_name(),
                rows_out: table.num_rows() as u64,
                bytes_out: table.byte_size(),
                work: sub_work,
                partitions: plan.partitions(),
                spool_sig: None,
            });
            Ok(table)
        }
        PhysicalPlan::Filter { predicate, input, .. } => {
            let in_table = exec_node(input, ctx, model, metrics, pending)?;
            metrics.data_read_bytes += in_table.byte_size();
            let (out, chunks) =
                stream_chunks(&in_table, ctx, predicate.is_deterministic(), &|t, ec| {
                    let mask = eval_predicate(predicate, t, ec)?;
                    t.filter(&mask)
                })?;
            let work = model.filter(in_table.num_rows() as f64).total()
                + model.morsel_dispatch(chunks as f64).total();
            record(metrics, plan, &out, work, None);
            Ok(out)
        }
        PhysicalPlan::Project { exprs, schema, input, .. } => {
            let in_table = exec_node(input, ctx, model, metrics, pending)?;
            metrics.data_read_bytes += in_table.byte_size();
            let det = exprs.iter().all(|(e, _)| e.is_deterministic());
            let (out, chunks) = stream_chunks(&in_table, ctx, det, &|t, ec| {
                let mut columns = Vec::with_capacity(exprs.len());
                for (e, _) in exprs {
                    columns.push(eval(e, t, ec)?);
                }
                Table::new(schema.clone(), columns)
            })?;
            let work = model.project(in_table.num_rows() as f64, exprs.len()).total()
                + model.morsel_dispatch(chunks as f64).total();
            record(metrics, plan, &out, work, None);
            Ok(out)
        }
        PhysicalPlan::Join { algo, kind, on, left, right, swapped, .. } => {
            let l = exec_node(left, ctx, model, metrics, pending)?;
            // Operator-state reuse applies to the hash build side only:
            // derive the build key and ask the source before executing the
            // right subtree at all.
            let mut acq = acquire_breaker(ctx, metrics, "join_build", || match algo {
                JoinAlgo::Hash => opstate::join_build_key(right, on),
                _ => None,
            });
            if let Some(jb) = restore_state(ctx, metrics, right, &acq, |s| match s {
                OpState::JoinBuild(jb) => Some(jb),
                _ => None,
            })? {
                metrics.data_read_bytes += l.byte_size() + jb.table.byte_size();
                let (out, probe_chunks) = hash_join_probe(&l, jb, on, *kind, ctx)?;
                let out = restore_swapped_columns(out, *swapped, l.schema().len())?;
                metrics.join_algos.hash += 1;
                let (ln, rn) = (l.num_rows() as f64, jb.table.num_rows() as f64);
                let work = model.hash_join_warm(rn, ln).total()
                    + model.morsel_dispatch(probe_chunks as f64).total();
                record(metrics, plan, &out, work, None);
                return Ok(out);
            }
            let build_work_before = metrics.total_work;
            let build_started = std::time::Instant::now();
            let r = exec_node(right, ctx, model, metrics, pending)?;
            metrics.data_read_bytes += l.byte_size() + r.byte_size();
            let (out, probe_chunks) = match algo {
                JoinAlgo::Hash => {
                    let state = Arc::new(OpState::JoinBuild(build_join_state(&r, on)?));
                    if acq.claimed() {
                        let build_wall = build_started.elapsed().as_secs_f64();
                        let build_work = metrics.total_work - build_work_before
                            + model.hash_build(r.num_rows() as f64).total();
                        acq.publish(ctx, metrics, right, state.clone(), build_work, build_wall);
                    }
                    let OpState::JoinBuild(jb) = &*state else { unreachable!() };
                    hash_join_probe(&l, jb, on, *kind, ctx)?
                }
                JoinAlgo::Merge => (merge_join(&l, &r, on, *kind)?, 1),
                JoinAlgo::Loop => (loop_join(&l, &r, on, *kind)?, 1),
            };
            let out = restore_swapped_columns(out, *swapped, l.schema().len())?;
            match algo {
                JoinAlgo::Hash => metrics.join_algos.hash += 1,
                JoinAlgo::Merge => metrics.join_algos.merge += 1,
                JoinAlgo::Loop => metrics.join_algos.loop_ += 1,
            }
            let (ln, rn) = (l.num_rows() as f64, r.num_rows() as f64);
            let work = match algo {
                JoinAlgo::Hash => model.hash_join(rn, ln),
                JoinAlgo::Merge => model.merge_join(ln, rn),
                JoinAlgo::Loop => model.nested_loop_join(ln, rn),
            }
            .total()
                + model.morsel_dispatch(probe_chunks as f64).total();
            record(metrics, plan, &out, work, None);
            Ok(out)
        }
        PhysicalPlan::HashAggregate { group_by, aggs, schema, input, .. } => {
            let mut acq = acquire_breaker(ctx, metrics, "agg_state", || {
                opstate::agg_state_key(input, group_by, aggs)
            });
            if let Some(out) = restore_table_state(ctx, metrics, input, &acq, |s| match s {
                OpState::AggOutput(t) => Some(t),
                _ => None,
            })? {
                record(metrics, plan, &out, 0.0, None);
                return Ok(out);
            }
            let build_work_before = metrics.total_work;
            let build_started = std::time::Instant::now();
            let in_table = exec_node(input, ctx, model, metrics, pending)?;
            metrics.data_read_bytes += in_table.byte_size();
            let (out, chunks) = hash_aggregate(&in_table, group_by, aggs, schema, ctx)?;
            let work = model.hash_aggregate(in_table.num_rows() as f64, aggs.len()).total()
                + model.morsel_dispatch(chunks as f64).total();
            record(metrics, plan, &out, work, None);
            if acq.claimed() {
                let build_wall = build_started.elapsed().as_secs_f64();
                let build_work = metrics.total_work - build_work_before;
                let state = Arc::new(OpState::AggOutput(out.clone()));
                acq.publish(ctx, metrics, input, state, build_work, build_wall);
            }
            Ok(out)
        }
        PhysicalPlan::Sort { keys, input, .. } => {
            let mut acq =
                acquire_breaker(ctx, metrics, "sort_run", || opstate::sort_state_key(input, keys));
            if let Some(out) = restore_table_state(ctx, metrics, input, &acq, |s| match s {
                OpState::SortRun(t) => Some(t),
                _ => None,
            })? {
                record(metrics, plan, &out, 0.0, None);
                return Ok(out);
            }
            let build_work_before = metrics.total_work;
            let build_started = std::time::Instant::now();
            let in_table = exec_node(input, ctx, model, metrics, pending)?;
            metrics.data_read_bytes += in_table.byte_size();
            let mut resolved = Vec::with_capacity(keys.len());
            for (name, asc) in keys {
                let idx = in_table
                    .schema()
                    .index_of(name)
                    .ok_or_else(|| CvError::exec(format!("sort key `{name}` missing")))?;
                resolved.push((idx, *asc));
            }
            let out = in_table.sort_by(&resolved)?;
            let work = model.sort(in_table.num_rows() as f64).total();
            record(metrics, plan, &out, work, None);
            if acq.claimed() {
                let build_wall = build_started.elapsed().as_secs_f64();
                let build_work = metrics.total_work - build_work_before;
                let state = Arc::new(OpState::SortRun(out.clone()));
                acq.publish(ctx, metrics, input, state, build_work, build_wall);
            }
            Ok(out)
        }
        PhysicalPlan::Limit { n, input, .. } => {
            let in_table = exec_node(input, ctx, model, metrics, pending)?;
            // A prefix slice: the whole input is shared by reference, a
            // proper prefix is one range copy.
            let out = in_table.slice(0, in_table.num_rows().min(*n)).normalized();
            record(metrics, plan, &out, model.limit().total(), None);
            Ok(out)
        }
        PhysicalPlan::Union { inputs, .. } => {
            let mut iter = inputs.iter();
            let first = iter.next().ok_or_else(|| CvError::exec("empty UNION"))?;
            let mut acc = exec_node(first, ctx, model, metrics, pending)?;
            for i in iter {
                let t = exec_node(i, ctx, model, metrics, pending)?;
                acc = acc.concat(&t)?;
            }
            metrics.data_read_bytes += acc.byte_size();
            let work = model.union(acc.num_rows() as f64).total();
            record(metrics, plan, &acc, work, None);
            Ok(acc)
        }
        PhysicalPlan::Udo { spec, input, .. } => {
            let in_table = exec_node(input, ctx, model, metrics, pending)?;
            metrics.data_read_bytes += in_table.byte_size();
            let out = ctx.udos.apply(spec, &in_table)?;
            let work = model.udo(in_table.num_rows() as f64).total();
            record(metrics, plan, &out, work, None);
            Ok(out)
        }
        PhysicalPlan::Spool { sig, recurring_sig, input_guids, input, .. } => {
            let work_before = metrics.total_work;
            let in_table = exec_node(input, ctx, model, metrics, pending)?;
            let production_work = metrics.total_work - work_before;
            let bytes = in_table.byte_size();
            let write_work = model.spool(in_table.num_rows() as f64, bytes as f64).total();
            metrics.bytes_written_views += bytes;
            // Hand sealed chunks to concurrent consumers as they are
            // produced — the single-flight layer buffers them so a job
            // waiting on this view can start before the store commit.
            if let Some(sink) = ctx.spool_sink {
                let ranges = chunk_ranges(in_table.num_rows(), ctx.chunk_size);
                let last = ranges.len() - 1;
                for (i, &(off, len)) in ranges.iter().enumerate() {
                    sink.publish_chunk(*sig, &in_table.slice(off, len), i == last);
                }
            }
            pending.push(PendingView {
                sig: *sig,
                recurring_sig: *recurring_sig,
                input_guids: input_guids.clone(),
                schema: in_table.schema().clone(),
                data: in_table.clone(),
                production_work,
                write_work,
            });
            record(metrics, plan, &in_table, write_work, Some(*sig));
            Ok(in_table)
        }
    }
}

/// One breaker's cache negotiation: the derived key (if the subtree is
/// reuse-safe and a source is installed), a resident hit, or a
/// single-flight claim obligating this execution to publish. The claim is
/// a guard: dropping it unpublished — any error between acquire and
/// publish — abandons the key, so waiters degrade to inline builds
/// instead of waiting on a build that will never land.
struct BreakerAcq<'a> {
    key: Option<Sig128>,
    kind: &'static str,
    hit: Option<Arc<OpStateEntry>>,
    /// The source this execution holds the claim on, until published.
    claim: Option<&'a dyn OpStateSource>,
}

impl BreakerAcq<'_> {
    fn claimed(&self) -> bool {
        self.claim.is_some()
    }

    /// Publish a freshly built breaker state under the held claim.
    fn publish(
        &mut self,
        ctx: &ExecContext<'_>,
        metrics: &mut ExecMetrics,
        subtree: &PhysicalPlan,
        state: Arc<OpState>,
        build_work: f64,
        build_wall: f64,
    ) {
        let (Some(src), Some(key)) = (self.claim.take(), self.key) else { return };
        let (dep_sigs, scan_deps) = opstate::state_deps(subtree);
        let bytes = state_bytes(&state);
        let kind = state.kind();
        metrics.op_state_published += 1;
        if let Some(obs) = ctx.obs {
            obs.op_state_published(kind, bytes);
        }
        src.publish(
            key,
            OpStateEntry { state, bytes, build_work, build_wall, dep_sigs, scan_deps },
        );
    }
}

impl Drop for BreakerAcq<'_> {
    fn drop(&mut self) {
        if let (Some(src), Some(key)) = (self.claim.take(), self.key) {
            src.abandon(key);
        }
    }
}

fn acquire_breaker<'a>(
    ctx: &ExecContext<'a>,
    metrics: &mut ExecMetrics,
    kind: &'static str,
    derive_key: impl FnOnce() -> Option<Sig128>,
) -> BreakerAcq<'a> {
    let mut acq = BreakerAcq { key: None, kind, hit: None, claim: None };
    let Some(src) = ctx.op_states else { return acq };
    let Some(key) = derive_key() else { return acq };
    acq.key = Some(key);
    match src.acquire(key) {
        OpStateAcquire::Hit(e) => acq.hit = Some(e),
        OpStateAcquire::Build { claimed } => {
            acq.claim = claimed.then_some(src);
            metrics.op_state_misses += 1;
            if let Some(obs) = ctx.obs {
                obs.op_state_miss(kind);
            }
        }
    }
    acq
}

/// Take a resident hit whose state `pick` accepts: guid validation (a
/// restored state must still raise the stale-plan error the skipped scans
/// would have), hit accounting, and placeholder profiles for the skipped
/// subtree. Returns `Ok(None)` when there is no usable hit.
fn restore_state<'s, T>(
    ctx: &ExecContext<'_>,
    metrics: &mut ExecMetrics,
    subtree: &PhysicalPlan,
    acq: &'s BreakerAcq<'_>,
    pick: impl FnOnce(&'s OpState) -> Option<&'s T>,
) -> Result<Option<&'s T>> {
    let Some(entry) = &acq.hit else { return Ok(None) };
    let Some(state) = pick(&entry.state) else { return Ok(None) };
    opstate::validate_scan_guids(subtree, ctx.catalog)?;
    metrics.op_state_hits += 1;
    metrics.op_state_work_avoided += entry.build_work;
    metrics.op_state_wall_avoided += entry.build_wall;
    if let Some(obs) = ctx.obs {
        obs.op_state_hit(acq.kind, acq.key.expect("hit implies key"));
    }
    // The stage builder zips profiles 1:1 against the plan tree: emit
    // zero-work placeholders for the skipped subtree, in the same
    // postorder execution would have.
    push_skipped_profiles(subtree, metrics);
    Ok(Some(state))
}

/// Restore a whole-table breaker state (aggregate output, sort run).
fn restore_table_state(
    ctx: &ExecContext<'_>,
    metrics: &mut ExecMetrics,
    subtree: &PhysicalPlan,
    acq: &BreakerAcq<'_>,
    pick: impl FnOnce(&OpState) -> Option<&Table>,
) -> Result<Option<Table>> {
    let Some(table) = restore_state(ctx, metrics, subtree, acq, pick)? else { return Ok(None) };
    metrics.data_read_bytes += table.byte_size();
    Ok(Some(table.clone()))
}

fn state_bytes(state: &OpState) -> u64 {
    match state {
        OpState::JoinBuild(jb) => jb.byte_size(),
        OpState::AggOutput(t) | OpState::SortRun(t) => t.byte_size(),
    }
}

/// Emit zero-work placeholder profiles for a subtree a cache hit skipped,
/// in the postorder execution would have produced, so the cluster stage
/// builder's 1:1 profile/plan zip still holds. Skipped subtrees never
/// contain spools (their keys are underivable), so no spool profile or
/// pending view can be lost here.
fn push_skipped_profiles(plan: &PhysicalPlan, metrics: &mut ExecMetrics) {
    for c in plan.children() {
        push_skipped_profiles(c, metrics);
    }
    metrics.op_profiles.push(OpProfile {
        kind: plan.kind_name(),
        rows_out: 0,
        bytes_out: 0,
        work: 0.0,
        partitions: plan.partitions(),
        spool_sig: None,
    });
}

/// Hash-table keys coming out of the key kernel are already
/// avalanche-mixed, so the join/aggregate maps use them verbatim instead of
/// paying SipHash per lookup. Public because snapshot types in
/// [`opstate`] carry these maps across executions.
#[derive(Default)]
pub struct PreHashed(u64);

impl std::hash::Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("PreHashed maps only take u64 keys")
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

pub type PreHashedMap<V> = HashMap<u64, V, std::hash::BuildHasherDefault<PreHashed>>;

/// Row-at-a-time key equality — reference semantics, kept for `loop_join`
/// (the differential baseline the vectorized paths are tested against).
fn keys_equal(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.sql_eq(y) == Some(true))
}

/// Resolve join key columns to indices.
fn resolve_keys(
    left: &Table,
    right: &Table,
    on: &[(String, String)],
) -> Result<(Vec<usize>, Vec<usize>)> {
    let mut l = Vec::with_capacity(on.len());
    let mut r = Vec::with_capacity(on.len());
    for (lk, rk) in on {
        l.push(
            left.schema()
                .index_of(lk)
                .ok_or_else(|| CvError::exec(format!("left join key `{lk}` missing")))?,
        );
        r.push(
            right
                .schema()
                .index_of(rk)
                .ok_or_else(|| CvError::exec(format!("right join key `{rk}` missing")))?,
        );
    }
    Ok((l, r))
}

fn key_row(t: &Table, cols: &[usize], row: usize) -> Vec<Value> {
    cols.iter().map(|&c| t.column(c).value(row)).collect()
}

/// Assemble join output from matched index pairs. `right_idx == usize::MAX`
/// marks a left-outer miss (right side padded with NULLs).
fn build_join_output(
    left: &Table,
    right: &Table,
    pairs: &[(usize, usize)],
    kind: JoinKind,
) -> Result<Table> {
    let left_idx: Vec<usize> = pairs.iter().map(|&(l, _)| l).collect();
    let right_idx: Vec<usize> = pairs.iter().map(|&(_, r)| r).collect();
    join_output_from_indices(left, right, &left_idx, &right_idx, kind)
}

/// Rotate a side-swapped join's output columns back into the logical
/// order. The lowered plan emits `lowered_left ++ lowered_right`; for a
/// swapped join that is `logical_right ++ logical_left`, so the first
/// `probe_width` columns move to the back. Column handles are shared, so
/// this is O(columns), not O(rows).
fn restore_swapped_columns(out: Table, swapped: bool, probe_width: usize) -> Result<Table> {
    if !swapped {
        return Ok(out);
    }
    let fields: Vec<_> = out.schema().fields()[probe_width..]
        .iter()
        .chain(&out.schema().fields()[..probe_width])
        .cloned()
        .collect();
    let mut columns = out.columns()[probe_width..].to_vec();
    columns.extend_from_slice(&out.columns()[..probe_width]);
    Table::new(Schema::new(fields)?.into_ref(), columns)
}

fn join_output_from_indices(
    left: &Table,
    right: &Table,
    left_idx: &[usize],
    right_idx: &[usize],
    kind: JoinKind,
) -> Result<Table> {
    let left_part = left.take(left_idx)?;
    if kind == JoinKind::Semi {
        return Ok(left_part);
    }
    // Typed padded gather: `usize::MAX` indices become NULL rows directly,
    // without materializing a copy of the right table first.
    let schema = left.schema().join(right.schema())?.into_ref();
    let mut columns = left_part.columns().to_vec();
    for col in right.columns() {
        columns.push(col.take_padded(right_idx, usize::MAX));
    }
    Table::new(schema, columns)
}

/// The finished hash-join build side — a pipeline-breaker state the
/// operator-state cache can snapshot and restore: the materialized build
/// table, its resolved key column indices, and the hash→rows map.
#[derive(Debug)]
pub struct JoinBuildState {
    pub table: Table,
    pub key_cols: Vec<usize>,
    pub ht: PreHashedMap<Vec<usize>>,
}

impl JoinBuildState {
    /// Approximate resident bytes: the table plus hash-map overhead.
    pub fn byte_size(&self) -> u64 {
        self.table.byte_size() + self.ht.len() as u64 * 48
    }
}

/// Build side is a pipeline breaker: hash the build table column-wise in
/// one pass and construct the lookup map before any probe chunk runs.
fn build_join_state(right: &Table, on: &[(String, String)]) -> Result<JoinBuildState> {
    let mut rk = Vec::with_capacity(on.len());
    for (_, name) in on {
        rk.push(
            right
                .schema()
                .index_of(name)
                .ok_or_else(|| CvError::exec(format!("right join key `{name}` missing")))?,
        );
    }
    let rkeys = KeyCols::from_table(right, &rk);
    let (rh, rvalid) = rkeys.join_hashes();
    let mut ht: PreHashedMap<Vec<usize>> = PreHashedMap::default();
    for row in 0..right.num_rows() {
        if rvalid[row] {
            ht.entry(rh[row]).or_default().push(row);
        }
    }
    Ok(JoinBuildState { table: right.clone(), key_cols: rk, ht })
}

/// The probe side streams the left input (see [`stream_chunks`]) against
/// the (possibly restored) build state. Each chunk emits its own output
/// slice (chunk-local left rows ascending, candidates ascending), so
/// chunk-order reassembly reproduces the whole-input emit order exactly.
fn hash_join_probe(
    left: &Table,
    state: &JoinBuildState,
    on: &[(String, String)],
    kind: JoinKind,
    ctx: &mut ExecContext<'_>,
) -> Result<(Table, usize)> {
    let mut lk = Vec::with_capacity(on.len());
    for (name, _) in on {
        lk.push(
            left.schema()
                .index_of(name)
                .ok_or_else(|| CvError::exec(format!("left join key `{name}` missing")))?,
        );
    }
    let right = &state.table;
    let rkeys = KeyCols::from_table(right, &state.key_cols);
    let ht = &state.ht;
    let probe = |chunk: &Table| -> Result<Table> {
        let lkeys = KeyCols::from_table(chunk, &lk);
        let (lh, lvalid) = lkeys.join_hashes();
        let mut left_idx: Vec<usize> = Vec::new();
        let mut right_idx: Vec<usize> = Vec::new();
        for lrow in 0..chunk.num_rows() {
            let mut matched = false;
            if lvalid[lrow] {
                if let Some(cands) = ht.get(&lh[lrow]) {
                    for &rrow in cands {
                        if lkeys.rows_eq_sql(lrow, &rkeys, rrow) {
                            match kind {
                                JoinKind::Semi => {
                                    matched = true;
                                    break;
                                }
                                _ => {
                                    left_idx.push(lrow);
                                    right_idx.push(rrow);
                                    matched = true;
                                }
                            }
                        }
                    }
                }
            }
            match kind {
                JoinKind::Semi if matched => {
                    left_idx.push(lrow);
                    right_idx.push(usize::MAX);
                }
                JoinKind::Left if !matched => {
                    left_idx.push(lrow);
                    right_idx.push(usize::MAX);
                }
                _ => {}
            }
        }
        join_output_from_indices(chunk, right, &left_idx, &right_idx, kind)
    };
    stream_chunks(left, ctx, true, &|chunk, _| probe(chunk))
}

fn loop_join(
    left: &Table,
    right: &Table,
    on: &[(String, String)],
    kind: JoinKind,
) -> Result<Table> {
    let (lk, rk) = resolve_keys(left, right, on)?;
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for lrow in 0..left.num_rows() {
        let lkey = key_row(left, &lk, lrow);
        let mut matched = false;
        for rrow in 0..right.num_rows() {
            if keys_equal(&lkey, &key_row(right, &rk, rrow)) {
                match kind {
                    JoinKind::Semi => {
                        matched = true;
                        break;
                    }
                    _ => {
                        pairs.push((lrow, rrow));
                        matched = true;
                    }
                }
            }
        }
        match kind {
            JoinKind::Semi if matched => pairs.push((lrow, usize::MAX)),
            JoinKind::Left if !matched => pairs.push((lrow, usize::MAX)),
            _ => {}
        }
    }
    build_join_output(left, right, &pairs, kind)
}

fn merge_join(
    left: &Table,
    right: &Table,
    on: &[(String, String)],
    kind: JoinKind,
) -> Result<Table> {
    let (lk, rk) = resolve_keys(left, right, on)?;
    let lkeys = KeyCols::from_table(left, &lk);
    let rkeys = KeyCols::from_table(right, &rk);
    // Sort both sides by key; keep a mapping back to original row ids so the
    // output is assembled against the *original* tables.
    let lsorted: Vec<usize> = sorted_indices(left, &lk);
    let rsorted: Vec<usize> = sorted_indices(right, &rk);

    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < lsorted.len() {
        let lrow0 = lsorted[i];
        if lkeys.has_null(lrow0) {
            // NULL keys never match.
            if kind != JoinKind::Inner && kind != JoinKind::Semi {
                pairs.push((lrow0, usize::MAX));
            }
            i += 1;
            continue;
        }
        // Advance right to the first key ≥ the current left key.
        while j < rsorted.len()
            && (rkeys.has_null(rsorted[j]) || rkeys.cmp_rows(rsorted[j], &lkeys, lrow0).is_lt())
        {
            j += 1;
        }
        // Collect the right group equal to the current left key.
        let mut j_end = j;
        while j_end < rsorted.len() && rkeys.cmp_rows(rsorted[j_end], &lkeys, lrow0).is_eq() {
            j_end += 1;
        }
        // Emit for every left row in this equal group.
        let mut i_end = i;
        while i_end < lsorted.len() && lkeys.cmp_rows(lsorted[i_end], &lkeys, lrow0).is_eq() {
            i_end += 1;
        }
        for &lrow in &lsorted[i..i_end] {
            if j_end > j {
                match kind {
                    JoinKind::Semi => pairs.push((lrow, usize::MAX)),
                    _ => {
                        for &rrow in &rsorted[j..j_end] {
                            pairs.push((lrow, rrow));
                        }
                    }
                }
            } else if kind == JoinKind::Left {
                pairs.push((lrow, usize::MAX));
            }
        }
        i = i_end;
    }
    // Keep output order deterministic (by left row id, then right row id).
    pairs.sort_unstable();
    build_join_output(left, right, &pairs, kind)
}

fn sorted_indices(t: &Table, keys: &[usize]) -> Vec<usize> {
    let kc = KeyCols::from_table(t, keys);
    let mut idx: Vec<usize> = (0..t.num_rows()).collect();
    idx.sort_by(|&a, &b| kc.cmp_rows(a, &kc, b));
    idx
}

/// Numeric widening matching `Value::as_f64` (Int, Float, Date → f64).
#[inline]
fn num_at(col: &Column, row: usize) -> Option<f64> {
    match col.data() {
        ColumnData::Int(v) => Some(v[row] as f64),
        ColumnData::Float(v) => Some(v[row]),
        ColumnData::Date(v) => Some(v[row] as f64),
        _ => None,
    }
}

/// One aggregate's argument columns across all input chunks. Accumulators
/// address cells as `(chunk, row)` pairs so MIN/MAX can keep a handle to
/// the best cell without copying values out of chunk buffers.
struct ArgView<'a> {
    by_chunk: &'a [Vec<Option<Column>>],
    agg: usize,
}

impl ArgView<'_> {
    fn at(&self, chunk: usize) -> Option<&Column> {
        self.by_chunk[chunk][self.agg].as_ref()
    }
}

/// One aggregate accumulator. Updates read typed cells straight off the
/// per-chunk argument columns — no per-row [`Value`] boxing, no string
/// rendering.
enum Acc {
    Count(i64),
    /// DISTINCT keyed on typed value hashes from the key-hash kernel, not
    /// on string rendering (which conflated distinct values that happen to
    /// render alike).
    Distinct(std::collections::HashSet<u64>),
    /// SUM over INT accumulates in checked i64 — overflow is an execution
    /// error, not a silent drift through f64 rounding.
    SumInt {
        total: i64,
        any: bool,
    },
    SumFloat {
        total: f64,
        any: bool,
        int_out: bool,
    },
    MinRow(Option<(usize, usize)>),
    MaxRow(Option<(usize, usize)>),
    Avg {
        total: f64,
        count: i64,
    },
}

impl Acc {
    fn new(func: AggFunc, int_out: bool, arg_dtype: Option<cv_data::value::DataType>) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::CountDistinct => Acc::Distinct(Default::default()),
            AggFunc::Sum => {
                if int_out && arg_dtype == Some(cv_data::value::DataType::Int) {
                    Acc::SumInt { total: 0, any: false }
                } else {
                    Acc::SumFloat { total: 0.0, any: false, int_out }
                }
            }
            AggFunc::Min => Acc::MinRow(None),
            AggFunc::Max => Acc::MaxRow(None),
            AggFunc::Avg => Acc::Avg { total: 0.0, count: 0 },
        }
    }

    fn update(&mut self, arg: &ArgView<'_>, cell: (usize, usize)) -> Result<()> {
        let (chunk, row) = cell;
        match self {
            Acc::Count(c) => {
                // COUNT(*) gets None arg (count every row); COUNT(x) counts
                // non-null x.
                match arg.at(chunk) {
                    None => *c += 1,
                    Some(col) if !col.is_null(row) => *c += 1,
                    _ => {}
                }
            }
            Acc::Distinct(set) => {
                if let Some(col) = arg.at(chunk) {
                    if !col.is_null(row) {
                        set.insert(keys::value_hash(col, row));
                    }
                }
            }
            Acc::SumInt { total, any } => {
                if let Some(col) = arg.at(chunk) {
                    if !col.is_null(row) {
                        *total = total
                            .checked_add(col.ints()[row])
                            .ok_or_else(|| CvError::exec("SUM(INT) overflow"))?;
                        *any = true;
                    }
                }
            }
            Acc::SumFloat { total, any, .. } => {
                if let Some(col) = arg.at(chunk) {
                    if !col.is_null(row) {
                        if let Some(f) = num_at(col, row) {
                            *total += f;
                            *any = true;
                        }
                    }
                }
            }
            Acc::MinRow(best) => {
                if let Some(col) = arg.at(chunk) {
                    if !col.is_null(row)
                        && best.is_none_or(|(bc, br)| {
                            keys::cmp_cells(col, row, arg.at(bc).expect("best cell column"), br)
                                .is_lt()
                        })
                    {
                        *best = Some(cell);
                    }
                }
            }
            Acc::MaxRow(best) => {
                if let Some(col) = arg.at(chunk) {
                    if !col.is_null(row)
                        && best.is_none_or(|(bc, br)| {
                            keys::cmp_cells(col, row, arg.at(bc).expect("best cell column"), br)
                                .is_gt()
                        })
                    {
                        *best = Some(cell);
                    }
                }
            }
            Acc::Avg { total, count } => {
                if let Some(col) = arg.at(chunk) {
                    if !col.is_null(row) {
                        if let Some(f) = num_at(col, row) {
                            *total += f;
                            *count += 1;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Read out the final value. Takes `&self` so the chunked output
    /// emitter can finish groups from shared state in parallel.
    fn finish(&self, arg: &ArgView<'_>) -> Value {
        match self {
            Acc::Count(c) => Value::Int(*c),
            Acc::Distinct(set) => Value::Int(set.len() as i64),
            Acc::SumInt { total, any } => {
                if *any {
                    Value::Int(*total)
                } else {
                    Value::Null
                }
            }
            Acc::SumFloat { total, any, int_out } => {
                if !*any {
                    Value::Null
                } else if *int_out {
                    Value::Int(*total as i64)
                } else {
                    Value::Float(*total)
                }
            }
            Acc::MinRow(best) | Acc::MaxRow(best) => match best {
                Some((chunk, row)) => arg.at(*chunk).map_or(Value::Null, |col| col.value(*row)),
                None => Value::Null,
            },
            Acc::Avg { total, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(total / *count as f64)
                }
            }
        }
    }
}

fn hash_aggregate(
    input: &Table,
    group_by: &[(ScalarExpr, String)],
    aggs: &[AggExpr],
    schema: &SchemaRef,
    ctx: &mut ExecContext<'_>,
) -> Result<(Table, usize)> {
    // Phase 1 — evaluate group keys and aggregate arguments, whole or
    // chunk-at-a-time (the parallelizable part, fanned through the morsel
    // runner). Phase 2 — accumulate serially in global row order, so
    // order-sensitive accumulation (float SUM/AVG) produces the whole-input
    // bit pattern at every chunk size and worker count. The ledger charge
    // is the `ledger_chunks` of the input plus that of the emitted groups,
    // less one.
    let det = group_by.iter().all(|(e, _)| e.is_deterministic())
        && aggs.iter().all(AggExpr::is_deterministic);
    let chunk_size = if det { ctx.chunk_size } else { usize::MAX };
    let ranges = chunk_ranges(input.num_rows(), chunk_size);

    let eval_chunk = |t: &Table, ec: &mut EvalCtx| -> Result<(Vec<Column>, Vec<Option<Column>>)> {
        let keys: Result<Vec<_>> = group_by.iter().map(|(e, _)| eval(e, t, ec)).collect();
        let args: Result<Vec<Option<_>>> =
            aggs.iter().map(|a| a.arg.as_ref().map(|e| eval(e, t, ec)).transpose()).collect();
        Ok((keys?, args?))
    };
    let evaluated: Vec<(Vec<Column>, Vec<Option<Column>>)> = if ranges.len() == 1 {
        vec![eval_chunk(input, &mut ctx.eval)?]
    } else {
        let base_eval = ctx.eval.clone();
        morsel::run_indexed(ctx.runner.as_ref(), ranges.len(), &|i| {
            let (off, len) = ranges[i];
            eval_chunk(&input.slice(off, len), &mut base_eval.clone())
        })
        .into_iter()
        .collect::<Result<Vec<_>>>()?
    };
    let (keys_by_chunk, args_by_chunk): (Vec<Vec<Column>>, Vec<Vec<Option<Column>>>) =
        evaluated.into_iter().unzip();

    // SUM over an INT input produces INT; detect from the output schema.
    let int_sum: Vec<bool> = aggs
        .iter()
        .enumerate()
        .map(|(i, _)| schema.field(group_by.len() + i).dtype == cv_data::value::DataType::Int)
        .collect();
    let arg_dtypes: Vec<Option<cv_data::value::DataType>> =
        args_by_chunk[0].iter().map(|c| c.as_ref().map(Column::dtype)).collect();
    let new_accs = || -> Vec<Acc> {
        aggs.iter().enumerate().map(|(i, a)| Acc::new(a.func, int_sum[i], arg_dtypes[i])).collect()
    };

    // Groups remember their first input cell (chunk, row); key output
    // columns are rebuilt from those representative cells at the end — no
    // per-row key boxing.
    struct Group {
        first: (usize, usize),
        accs: Vec<Acc>,
    }
    let kcs: Vec<KeyCols<'_>> = keys_by_chunk
        .iter()
        .zip(&ranges)
        .map(|(cols, &(_, len))| KeyCols::new(cols.iter().collect(), len))
        .collect();
    let mut groups: Vec<Group> = Vec::new();
    let mut index: PreHashedMap<Vec<usize>> = PreHashedMap::default();
    for (c, kc) in kcs.iter().enumerate() {
        let hashes = kc.group_hashes();
        for (row, &h) in hashes.iter().enumerate() {
            let slot = index.entry(h).or_default();
            let gid = slot
                .iter()
                .copied()
                .find(|&g| {
                    let (gc, gr) = groups[g].first;
                    kcs[gc].rows_eq_group(gr, kc, row)
                })
                .unwrap_or_else(|| {
                    let gid = groups.len();
                    groups.push(Group { first: (c, row), accs: new_accs() });
                    slot.push(gid);
                    gid
                });
            for (i, acc) in groups[gid].accs.iter_mut().enumerate() {
                acc.update(&ArgView { by_chunk: &args_by_chunk, agg: i }, (c, row))?;
            }
        }
    }

    // Global aggregate over empty input still yields one group.
    if groups.is_empty() && group_by.is_empty() {
        groups.push(Group { first: (0, 0), accs: new_accs() });
    }

    // Canonical output order: sort group ids by their representative key
    // cells ascending (NULLs first), the exact order `Table::sort_by` over
    // the key columns produces. First-encounter order is an artifact of
    // input row order; sorting makes aggregate output a pure function of
    // the input *multiset*, so an incrementally maintained aggregate
    // (cv-ivm) emitted from group state is byte-identical to inline
    // execution. Distinct groups never compare equal, so the order is
    // total and stability is irrelevant.
    let mut order: Vec<usize> = (0..groups.len()).collect();
    if !group_by.is_empty() {
        order.sort_by(|&a, &b| {
            let (ac, ar) = groups[a].first;
            let (bc, br) = groups[b].first;
            for (ka, kb) in keys_by_chunk[ac].iter().zip(&keys_by_chunk[bc]).take(group_by.len()) {
                let o = keys::cmp_cells(ka, ar, kb, br);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    // Final merge, whole or chunk-at-a-time: each output chunk rebuilds its
    // slice of key columns from representative cells and finishes its
    // accumulators independently, then chunk-order reassembly normalizes —
    // no materialize-then-sort. Builders produce the canonical
    // validity form, so output bytes are independent of which chunk a
    // representative landed in and of the emit fan-out.
    let emit = |off: usize, len: usize| -> Result<Table> {
        let mut columns: Vec<Column> = Vec::with_capacity(schema.len());
        for (k, key0) in keys_by_chunk[0].iter().enumerate().take(group_by.len()) {
            let mut b = ColumnBuilder::with_capacity(key0.dtype(), len);
            for &g in &order[off..off + len] {
                let (gc, gr) = groups[g].first;
                b.push(&keys_by_chunk[gc][k].value(gr))?;
            }
            columns.push(b.finish());
        }
        for i in 0..aggs.len() {
            let mut b = ColumnBuilder::with_capacity(schema.field(group_by.len() + i).dtype, len);
            let view = ArgView { by_chunk: &args_by_chunk, agg: i };
            for &g in &order[off..off + len] {
                b.push(&groups[g].accs[i].finish(&view))?;
            }
            columns.push(b.finish());
        }
        Table::new(schema.clone(), columns)
    };
    let out_ranges = chunk_ranges(order.len(), chunk_size);
    let out_chunks: Vec<Table> = if out_ranges.len() == 1 {
        vec![emit(out_ranges[0].0, out_ranges[0].1)?]
    } else {
        morsel::run_indexed(ctx.runner.as_ref(), out_ranges.len(), &|i| {
            let (off, len) = out_ranges[i];
            emit(off, len)
        })
        .into_iter()
        .collect::<Result<Vec<_>>>()?
    };
    let out = Table::from_chunks(schema.clone(), &out_chunks)?;
    let charged = ledger_chunks(input.num_rows(), det) + ledger_chunks(order.len(), det) - 1;
    Ok((out, charged))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::optimizer::{AlwaysGrant, Optimizer, OptimizerConfig, ReuseContext};
    use crate::plan::{LogicalPlan, PlanBuilder};
    use cv_data::schema::{Field, Schema};
    use cv_data::value::DataType;
    use cv_data::viewstore::ViewStore;
    use std::sync::Arc;

    fn setup() -> (DatasetCatalog, ViewStore, UdoRegistry) {
        let mut cat = DatasetCatalog::new();
        let sales = Schema::new(vec![
            Field::new("s_cust", DataType::Int),
            Field::new("price", DataType::Float),
            Field::new("qty", DataType::Int),
        ])
        .unwrap()
        .into_ref();
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                vec![Value::Int(i % 10), Value::Float((i % 7) as f64 + 0.5), Value::Int(i % 5)]
            })
            .collect();
        cat.register("sales", Table::from_rows(sales, &rows).unwrap(), SimTime::EPOCH).unwrap();
        let cust =
            Schema::new(vec![Field::new("c_id", DataType::Int), Field::new("seg", DataType::Str)])
                .unwrap()
                .into_ref();
        let crows: Vec<Vec<Value>> = (0..10)
            .map(|i| {
                vec![Value::Int(i), Value::Str(if i % 2 == 0 { "asia" } else { "emea" }.into())]
            })
            .collect();
        cat.register("customer", Table::from_rows(cust, &crows).unwrap(), SimTime::EPOCH).unwrap();
        (cat, ViewStore::with_default_ttl(), UdoRegistry::with_builtins())
    }

    fn try_run(
        plan: &Arc<LogicalPlan>,
        cat: &DatasetCatalog,
        views: &ViewStore,
        udos: &UdoRegistry,
    ) -> Result<ExecOutcome> {
        let opt = Optimizer::new(OptimizerConfig::default());
        let stats =
            |name: &str| cat.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64));
        let out = opt.optimize(plan, &ReuseContext::empty(), &stats, &mut AlwaysGrant).unwrap();
        let mut ctx = ExecContext::new(cat, views, udos, SimTime::EPOCH);
        execute(&out.physical, &mut ctx, &opt.cfg.cost)
    }

    fn run(
        plan: &Arc<LogicalPlan>,
        cat: &DatasetCatalog,
        views: &ViewStore,
        udos: &UdoRegistry,
    ) -> ExecOutcome {
        try_run(plan, cat, views, udos).unwrap()
    }

    #[test]
    fn scan_filter_project() {
        let (cat, views, udos) = setup();
        let plan = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .filter(col("qty").gt(lit(2)))
            .unwrap()
            .project(vec![(col("s_cust"), "c"), (col("price").mul(lit(2.0)), "p2")])
            .unwrap()
            .build();
        let out = run(&plan, &cat, &views, &udos);
        // qty in {3,4} → 40 of 100 rows.
        assert_eq!(out.table.num_rows(), 40);
        assert_eq!(out.table.schema().names(), vec!["c", "p2"]);
        assert!(out.metrics.input_bytes > 0);
        assert!(out.metrics.total_work > 0.0);
    }

    fn join_plan(cat: &DatasetCatalog, kind: JoinKind) -> Arc<LogicalPlan> {
        PlanBuilder::scan(cat, "sales")
            .unwrap()
            .join(PlanBuilder::scan(cat, "customer").unwrap(), &[("s_cust", "c_id")], kind)
            .unwrap()
            .build()
    }

    #[test]
    fn all_join_algorithms_agree() {
        let (cat, views, udos) = setup();
        let logical = join_plan(&cat, JoinKind::Inner);
        let stats =
            |name: &str| cat.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64));
        let opt = Optimizer::new(OptimizerConfig::default());
        let physical = opt
            .to_physical(&crate::normalize::normalize(&logical, &opt.cfg.sig).unwrap(), &stats)
            .unwrap();

        // Execute the same join with each algorithm forced.
        fn force(p: &PhysicalPlan, algo: JoinAlgo) -> PhysicalPlan {
            match p.clone() {
                PhysicalPlan::Join { kind, on, left, right, est, partitions, swapped, .. } => {
                    PhysicalPlan::Join {
                        algo,
                        kind,
                        on,
                        left: Box::new(force(&left, algo)),
                        right: Box::new(force(&right, algo)),
                        est,
                        partitions,
                        swapped,
                    }
                }
                other => other,
            }
        }
        let model = CostModel::default();
        let mut results = Vec::new();
        for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::Loop] {
            let forced = force(&physical, algo);
            let mut ctx = ExecContext::new(&cat, &views, &udos, SimTime::EPOCH);
            let out = execute(&forced, &mut ctx, &model).unwrap();
            assert_eq!(out.table.num_rows(), 100, "{algo:?} row count");
            results.push(out.table.canonical_rows());
        }
        assert_eq!(results[0], results[1], "hash vs merge");
        assert_eq!(results[0], results[2], "hash vs loop");
    }

    #[test]
    fn left_join_pads_nulls() {
        let (mut cat, views, udos) = setup();
        // Customer table with ids 0..10, sales referencing 0..10 → add a
        // sale with customer id 99 (no match).
        let sales = cat.get_by_name("sales").unwrap().data().clone();
        let extra = Table::from_rows(
            sales.schema().clone(),
            &[vec![Value::Int(99), Value::Float(1.0), Value::Int(1)]],
        )
        .unwrap();
        let id = cat.id_of("sales").unwrap();
        cat.bulk_update(id, sales.concat(&extra).unwrap(), SimTime::EPOCH).unwrap();

        let plan = join_plan(&cat, JoinKind::Left);
        let out = run(&plan, &cat, &views, &udos);
        assert_eq!(out.table.num_rows(), 101);
        let seg_idx = out.table.schema().index_of("seg").unwrap();
        let nulls = (0..out.table.num_rows())
            .filter(|&i| out.table.column(seg_idx).value(i).is_null())
            .count();
        assert_eq!(nulls, 1);
    }

    #[test]
    fn semi_join_keeps_left_schema() {
        let (cat, views, udos) = setup();
        let plan = join_plan(&cat, JoinKind::Semi);
        let out = run(&plan, &cat, &views, &udos);
        assert_eq!(out.table.schema().names(), vec!["s_cust", "price", "qty"]);
        assert_eq!(out.table.num_rows(), 100); // every sale has a customer
    }

    #[test]
    fn aggregation_results() {
        let (cat, views, udos) = setup();
        let plan = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .aggregate(
                vec![(col("s_cust"), "cust")],
                vec![
                    AggExpr::new(AggFunc::Sum, col("qty"), "total_qty"),
                    AggExpr::new(AggFunc::Avg, col("price"), "avg_price"),
                    AggExpr::count_star("n"),
                ],
            )
            .unwrap()
            .sort(&[("cust", true)])
            .unwrap()
            .build();
        let out = run(&plan, &cat, &views, &udos);
        assert_eq!(out.table.num_rows(), 10);
        // Each customer id occurs 10 times.
        let n_idx = out.table.schema().index_of("n").unwrap();
        for i in 0..10 {
            assert_eq!(out.table.column(n_idx).value(i), Value::Int(10));
        }
        // SUM over INT stays INT.
        let tq = out.table.schema().index_of("total_qty").unwrap();
        assert_eq!(out.table.schema().field(tq).dtype, DataType::Int);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let (cat, views, udos) = setup();
        let plan = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .filter(col("qty").gt(lit(1_000_000)))
            .unwrap()
            .aggregate(
                vec![],
                vec![AggExpr::count_star("n"), AggExpr::new(AggFunc::Sum, col("qty"), "s")],
            )
            .unwrap()
            .build();
        let out = run(&plan, &cat, &views, &udos);
        assert_eq!(out.table.num_rows(), 1);
        assert_eq!(out.table.row(0)[0], Value::Int(0));
        assert!(out.table.row(0)[1].is_null());
    }

    #[test]
    fn count_distinct() {
        let (cat, views, udos) = setup();
        let plan = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .aggregate(vec![], vec![AggExpr::new(AggFunc::CountDistinct, col("s_cust"), "d")])
            .unwrap()
            .build();
        let out = run(&plan, &cat, &views, &udos);
        assert_eq!(out.table.row(0)[0], Value::Int(10));
    }

    #[test]
    fn sum_int_overflow_is_an_error() {
        let (mut cat, views, udos) = setup();
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap().into_ref();
        let rows: Vec<Vec<Value>> = vec![vec![Value::Int(i64::MAX)], vec![Value::Int(1)]];
        cat.register("big", Table::from_rows(schema, &rows).unwrap(), SimTime::EPOCH).unwrap();
        let plan = PlanBuilder::scan(&cat, "big")
            .unwrap()
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, col("x"), "s")])
            .unwrap()
            .build();
        let err = try_run(&plan, &cat, &views, &udos).unwrap_err();
        assert!(err.to_string().contains("overflow"), "unexpected error: {err}");
    }

    #[test]
    fn count_distinct_uses_typed_equality() {
        let (mut cat, views, udos) = setup();
        let schema = Schema::new(vec![Field::new("f", DataType::Float)]).unwrap().into_ref();
        let vals = [0.0_f64, -0.0, 2.5, f64::NAN, -f64::NAN];
        let rows: Vec<Vec<Value>> = vals.iter().map(|&v| vec![Value::Float(v)]).collect();
        cat.register("fl", Table::from_rows(schema, &rows).unwrap(), SimTime::EPOCH).unwrap();
        let plan = PlanBuilder::scan(&cat, "fl")
            .unwrap()
            .aggregate(vec![], vec![AggExpr::new(AggFunc::CountDistinct, col("f"), "d")])
            .unwrap()
            .build();
        let out = run(&plan, &cat, &views, &udos);
        // The old string-keyed set counted -0.0 and 0.0 separately; typed
        // hashing collapses the zero signs and all NaN payloads: {0, 2.5, NaN}.
        assert_eq!(out.table.row(0)[0], Value::Int(3));
    }

    #[test]
    fn union_and_limit() {
        let (cat, views, udos) = setup();
        let a = PlanBuilder::scan(&cat, "sales").unwrap();
        let b = PlanBuilder::scan(&cat, "sales").unwrap();
        let plan = a.union(b).unwrap().limit(150).build();
        let out = run(&plan, &cat, &views, &udos);
        assert_eq!(out.table.num_rows(), 150);
    }

    #[test]
    fn spool_captures_pending_view() {
        let (cat, views, udos) = setup();
        let opt = Optimizer::new(OptimizerConfig::default());
        let stats =
            |name: &str| cat.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64));
        let logical = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .filter(col("qty").gt(lit(2)))
            .unwrap()
            .build();
        let normalized = crate::normalize::normalize(&logical, &opt.cfg.sig).unwrap();
        let sig = crate::signature::plan_signature(
            &normalized,
            &opt.cfg.sig,
            crate::signature::SigMode::Strict,
        )
        .unwrap();
        let mut reuse = ReuseContext::empty();
        reuse.to_build.insert(sig);
        let out = opt.optimize(&logical, &reuse, &stats, &mut AlwaysGrant).unwrap();
        assert_eq!(out.built_views, vec![sig]);

        let mut ctx = ExecContext::new(&cat, &views, &udos, SimTime::EPOCH);
        let exec_out = execute(&out.physical, &mut ctx, &opt.cfg.cost).unwrap();
        assert_eq!(exec_out.pending_views.len(), 1);
        let pv = &exec_out.pending_views[0];
        assert_eq!(pv.sig, sig);
        assert_eq!(pv.data.num_rows(), 40);
        assert!(pv.production_work > 0.0);
        assert!(exec_out.metrics.bytes_written_views > 0);
        // Result identical to the view contents (spool is pass-through).
        assert_eq!(exec_out.table.canonical_rows(), pv.data.canonical_rows());
    }

    #[test]
    fn viewscan_executes_from_store() {
        let (cat, mut views, udos) = setup();
        let (sig, data) = {
            let plan = PlanBuilder::scan(&cat, "sales")
                .unwrap()
                .filter(col("qty").gt(lit(2)))
                .unwrap()
                .build();
            let out = run(&plan, &cat, &views, &udos);
            (Sig128(42), out.table)
        };
        views
            .insert(cv_data::viewstore::MaterializedView {
                strict_sig: sig,
                recurring_sig: sig,
                schema: data.schema().clone(),
                data: data.clone(),
                rows: 0,
                bytes: 0,
                created: SimTime::EPOCH,
                expires: SimTime::EPOCH,
                creator_job: cv_common::ids::JobId(0),
                vc: cv_common::ids::VcId(0),
                input_guids: vec![],
                observed_work: 1.0,
                checksum: 0,
            })
            .unwrap();
        let physical = PhysicalPlan::ViewScan {
            sig,
            schema: data.schema().clone(),
            est: crate::stats::Statistics::accurate(40.0, 100.0),
            partitions: 1,
            fallback: None,
        };
        let model = CostModel::default();
        let mut ctx = ExecContext::new(&cat, &views, &udos, SimTime::EPOCH);
        let out = execute(&physical, &mut ctx, &model).unwrap();
        assert_eq!(out.table.canonical_rows(), data.canonical_rows());
        assert!(out.metrics.view_bytes_read > 0);
        assert_eq!(out.metrics.input_bytes, 0);

        // Missing view → execution error.
        let physical2 = PhysicalPlan::ViewScan {
            sig: Sig128(999),
            schema: data.schema().clone(),
            est: crate::stats::Statistics::accurate(1.0, 1.0),
            partitions: 1,
            fallback: None,
        };
        let mut ctx2 = ExecContext::new(&cat, &views, &udos, SimTime::EPOCH);
        assert!(execute(&physical2, &mut ctx2, &model).is_err());
    }

    #[test]
    fn viewscan_falls_back_to_recompute_on_read_fault() {
        use cv_common::{FaultPlan, FaultPoint};
        let (cat, mut views, udos) = setup();
        let logical = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .filter(col("qty").gt(lit(2)))
            .unwrap()
            .build();
        let expected = run(&logical, &cat, &views, &udos).table;

        // Seal a view for the subexpression, then make every read fail.
        views
            .insert(cv_data::viewstore::MaterializedView {
                strict_sig: Sig128(77),
                recurring_sig: Sig128(77),
                schema: expected.schema().clone(),
                data: expected.clone(),
                rows: 0,
                bytes: 0,
                created: SimTime::EPOCH,
                expires: SimTime::EPOCH,
                creator_job: cv_common::ids::JobId(0),
                vc: cv_common::ids::VcId(0),
                input_guids: vec![],
                observed_work: 1.0,
                checksum: 0,
            })
            .unwrap();
        views.set_fault_plan(FaultPlan::seeded(1).with_rate(FaultPoint::ViewRead, 0.9));
        // Under a 0.9 read-fail rate the decision for this sig may still be
        // "serve"; scan seeds until the fault actually fires so the test is
        // deterministic and meaningful.
        let mut seed = 1u64;
        while !views
            .fault_plan()
            .fires(FaultPoint::ViewRead, &[Sig128(77).0 as u64, (Sig128(77).0 >> 64) as u64])
        {
            seed += 1;
            views.set_fault_plan(FaultPlan::seeded(seed).with_rate(FaultPoint::ViewRead, 0.9));
        }

        let opt = Optimizer::new(OptimizerConfig::default());
        let stats =
            |name: &str| cat.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64));
        let fallback = opt.to_physical(&logical, &stats).unwrap();
        let physical = PhysicalPlan::ViewScan {
            sig: Sig128(77),
            schema: expected.schema().clone(),
            est: crate::stats::Statistics::accurate(40.0, 100.0),
            partitions: 1,
            fallback: Some(Box::new(fallback)),
        };
        let model = CostModel::default();
        let mut ctx = ExecContext::new(&cat, &views, &udos, SimTime::EPOCH);
        let out = execute(&physical, &mut ctx, &model).unwrap();

        // Correct answer via recomputation, counted as a degradation.
        assert_eq!(out.table.canonical_rows(), expected.canonical_rows());
        assert_eq!(out.metrics.fallbacks_recompute, 1);
        assert_eq!(out.metrics.view_read_failures, 1);
        assert_eq!(out.metrics.quarantined_sigs, vec![Sig128(77)]);
        assert!(out.metrics.input_bytes > 0, "fallback re-read the base table");
        // The fallback subtree collapsed into one ViewScan profile, so the
        // profile list still zips 1:1 with the plan the stage builder sees.
        assert_eq!(out.metrics.op_profiles.len(), 1);
        assert_eq!(out.metrics.op_profiles[0].kind, "ViewScan");
        assert!(out.metrics.op_profiles[0].work > 0.0);
    }

    #[test]
    fn stale_scan_guid_rejected() {
        let (mut cat, views, udos) = setup();
        let plan = PlanBuilder::scan(&cat, "sales").unwrap().build();
        let opt = Optimizer::new(OptimizerConfig::default());
        let stats =
            |name: &str| cat.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64));
        let out = opt.optimize(&plan, &ReuseContext::empty(), &stats, &mut AlwaysGrant).unwrap();
        // Bulk-update between compile and execute.
        let id = cat.id_of("sales").unwrap();
        let data = cat.get(id).unwrap().data().clone();
        cat.bulk_update(id, data, SimTime::from_days(1.0)).unwrap();
        let mut ctx = ExecContext::new(&cat, &views, &udos, SimTime::from_days(1.0));
        let err = execute(&out.physical, &mut ctx, &opt.cfg.cost).unwrap_err();
        assert!(err.to_string().contains("stale plan"));
    }

    #[test]
    fn udo_in_pipeline() {
        let (mut cat, views, udos) = setup();
        let events = Schema::new(vec![
            Field::new("user_agent", DataType::Str),
            Field::new("ip_hash", DataType::Int),
        ])
        .unwrap()
        .into_ref();
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| {
                vec![
                    Value::Str(if i % 2 == 0 { "Chrome/1" } else { "Firefox/2" }.into()),
                    Value::Int(i),
                ]
            })
            .collect();
        cat.register("events", Table::from_rows(events, &rows).unwrap(), SimTime::EPOCH).unwrap();
        let plan = PlanBuilder::scan(&cat, "events")
            .unwrap()
            .udo(crate::udo::UdoSpec::new("parse_user_agent"), &udos)
            .unwrap()
            .filter(col("browser").eq(lit("chrome")))
            .unwrap()
            .build();
        let out = run(&plan, &cat, &views, &udos);
        assert_eq!(out.table.num_rows(), 10);
    }

    #[test]
    fn metrics_data_read_exceeds_input() {
        let (cat, views, udos) = setup();
        let plan = join_plan(&cat, JoinKind::Inner);
        let out = run(&plan, &cat, &views, &udos);
        assert!(out.metrics.data_read_bytes >= out.metrics.input_bytes);
        assert_eq!(out.metrics.join_algos.total(), 1);
        assert!(!out.metrics.op_profiles.is_empty());
    }

    // ---- chunked morsel-driven execution ----

    fn optimize_physical(
        plan: &Arc<LogicalPlan>,
        cat: &DatasetCatalog,
    ) -> (PhysicalPlan, CostModel) {
        let opt = Optimizer::new(OptimizerConfig::default());
        let stats =
            |name: &str| cat.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64));
        let out = opt.optimize(plan, &ReuseContext::empty(), &stats, &mut AlwaysGrant).unwrap();
        (out.physical, opt.cfg.cost)
    }

    fn exec_chunked(
        physical: &PhysicalPlan,
        model: &CostModel,
        cat: &DatasetCatalog,
        views: &ViewStore,
        udos: &UdoRegistry,
        chunk_size: usize,
        vectorized: bool,
    ) -> Table {
        exec_outcome(physical, model, cat, views, udos, chunk_size, vectorized).table
    }

    /// `chunk_size == usize::MAX` runs the default whole-input context.
    fn exec_outcome(
        physical: &PhysicalPlan,
        model: &CostModel,
        cat: &DatasetCatalog,
        views: &ViewStore,
        udos: &UdoRegistry,
        chunk_size: usize,
        vectorized: bool,
    ) -> ExecOutcome {
        let mut ctx = ExecContext::new(cat, views, udos, SimTime::EPOCH);
        if chunk_size != usize::MAX {
            ctx = ctx.with_chunking(chunk_size, Arc::new(SerialRunner));
        }
        ctx.eval.vectorized = vectorized;
        execute(physical, &mut ctx, model).unwrap()
    }

    /// Byte-level equality: values, buffer contents, validity bitmaps and
    /// total byte size — strictly stronger than `canonical_rows`.
    fn assert_byte_identical(a: &Table, b: &Table, what: &str) {
        assert_eq!(a.num_rows(), b.num_rows(), "{what}: row count");
        assert_eq!(a.byte_size(), b.byte_size(), "{what}: byte size");
        for ci in 0..a.num_columns() {
            assert_eq!(
                format!("{:?}", a.column(ci).data()),
                format!("{:?}", b.column(ci).data()),
                "{what}: col {ci} buffer"
            );
            assert_eq!(
                a.column(ci).validity().map(|v| v.to_bools()),
                b.column(ci).validity().map(|v| v.to_bools()),
                "{what}: col {ci} validity"
            );
        }
    }

    /// The differential property test: a DetRng-generated input (nulls
    /// included, 103 rows — not divisible by any tested chunk size) through
    /// filter → project → join → aggregate must be byte-for-byte identical
    /// at every chunk size, with the vectorized kernels on and off — and
    /// book the same work, in total and per operator, as the whole-input
    /// run: the ledger charges nominal morsels, not executed ones.
    #[test]
    fn chunked_execution_is_byte_identical_at_every_chunk_size() {
        let mut rng = cv_common::DetRng::seed(42);
        let mut cat = DatasetCatalog::new();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("tag", DataType::Str),
        ])
        .unwrap()
        .into_ref();
        let rows: Vec<Vec<Value>> = (0..103)
            .map(|_| {
                vec![
                    if rng.chance(0.15) { Value::Null } else { Value::Int(rng.range_i64(0, 10)) },
                    if rng.chance(0.1) { Value::Null } else { Value::Float(rng.next_f64() * 9.0) },
                    Value::Str(format!("t{}", rng.range_u64(0, 4))),
                ]
            })
            .collect();
        cat.register("facts", Table::from_rows(schema, &rows).unwrap(), SimTime::EPOCH).unwrap();
        let dim =
            Schema::new(vec![Field::new("d_id", DataType::Int), Field::new("w", DataType::Float)])
                .unwrap()
                .into_ref();
        let drows: Vec<Vec<Value>> =
            (0..10).map(|i| vec![Value::Int(i), Value::Float(i as f64 * 0.5)]).collect();
        cat.register("dim", Table::from_rows(dim, &drows).unwrap(), SimTime::EPOCH).unwrap();
        let views = ViewStore::with_default_ttl();
        let udos = UdoRegistry::with_builtins();

        let plan = PlanBuilder::scan(&cat, "facts")
            .unwrap()
            .filter(col("v").gt(lit(1.0)))
            .unwrap()
            .join(PlanBuilder::scan(&cat, "dim").unwrap(), &[("k", "d_id")], JoinKind::Left)
            .unwrap()
            .aggregate(
                vec![(col("tag"), "tag")],
                vec![
                    AggExpr::new(AggFunc::Sum, col("v"), "sv"),
                    AggExpr::new(AggFunc::Min, col("w"), "mw"),
                    AggExpr::count_star("n"),
                ],
            )
            .unwrap()
            .build();
        let (physical, model) = optimize_physical(&plan, &cat);
        for vectorized in [true, false] {
            let whole =
                exec_outcome(&physical, &model, &cat, &views, &udos, usize::MAX, vectorized);
            assert!(whole.table.num_rows() > 0);
            for chunk_size in [1, 3, 7, 50, 2048] {
                let chunked =
                    exec_outcome(&physical, &model, &cat, &views, &udos, chunk_size, vectorized);
                let what = format!("chunk {chunk_size} vectorized {vectorized}");
                assert_byte_identical(&chunked.table, &whole.table, &what);
                assert_eq!(chunked.metrics.total_work, whole.metrics.total_work, "{what}");
                let work =
                    |m: &ExecMetrics| m.op_profiles.iter().map(|p| p.work).collect::<Vec<_>>();
                assert_eq!(work(&chunked.metrics), work(&whole.metrics), "{what}");
            }
        }
    }

    /// A predicate that wipes out entire chunks must not disturb
    /// reassembly: empty chunks concatenate away.
    #[test]
    fn fully_masked_chunks_reassemble_cleanly() {
        let (cat, views, udos) = setup();
        // qty == i % 5: rows 0..50 with qty < 100 all pass, but qty > 3
        // keeps 20 of 100 rows in bursts, leaving many chunks empty at
        // chunk size 3.
        let plan = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .filter(col("qty").gt(lit(3)))
            .unwrap()
            .build();
        let (physical, model) = optimize_physical(&plan, &cat);
        let mono = exec_chunked(&physical, &model, &cat, &views, &udos, usize::MAX, true);
        assert_eq!(mono.num_rows(), 20);
        for chunk_size in [1, 3, 5, 99] {
            let chunked = exec_chunked(&physical, &model, &cat, &views, &udos, chunk_size, true);
            assert_byte_identical(&chunked, &mono, &format!("chunk {chunk_size}"));
        }
        // A predicate no row satisfies: every chunk comes back empty.
        let none = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .filter(col("qty").gt(lit(100)))
            .unwrap()
            .build();
        let (physical, model) = optimize_physical(&none, &cat);
        for chunk_size in [1, 7, usize::MAX] {
            let out = exec_chunked(&physical, &model, &cat, &views, &udos, chunk_size, true);
            assert_eq!(out.num_rows(), 0, "chunk {chunk_size}");
            assert_eq!(out.num_columns(), 3);
        }
    }

    /// Chunks whose join/group keys are entirely NULL stream through the
    /// hash-join probe and the aggregate without producing matches or
    /// spurious groups — and stay byte-identical to monolithic execution.
    #[test]
    fn all_null_key_chunks_through_join_and_aggregate() {
        let mut cat = DatasetCatalog::new();
        let schema =
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("x", DataType::Int)])
                .unwrap()
                .into_ref();
        // Rows 4..12 (two whole chunks at size 4) carry NULL keys.
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| {
                let key = if (4..12).contains(&i) { Value::Null } else { Value::Int(i % 3) };
                vec![key, Value::Int(i)]
            })
            .collect();
        cat.register("t", Table::from_rows(schema, &rows).unwrap(), SimTime::EPOCH).unwrap();
        let dim =
            Schema::new(vec![Field::new("d", DataType::Int), Field::new("lbl", DataType::Str)])
                .unwrap()
                .into_ref();
        let drows: Vec<Vec<Value>> =
            (0..3).map(|i| vec![Value::Int(i), Value::Str(format!("d{i}"))]).collect();
        cat.register("dim", Table::from_rows(dim, &drows).unwrap(), SimTime::EPOCH).unwrap();
        let views = ViewStore::with_default_ttl();
        let udos = UdoRegistry::with_builtins();

        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi] {
            let plan = PlanBuilder::scan(&cat, "t")
                .unwrap()
                .join(PlanBuilder::scan(&cat, "dim").unwrap(), &[("k", "d")], kind)
                .unwrap()
                .build();
            let (physical, model) = optimize_physical(&plan, &cat);
            let mono = exec_chunked(&physical, &model, &cat, &views, &udos, usize::MAX, true);
            for chunk_size in [1, 4, 6] {
                let chunked =
                    exec_chunked(&physical, &model, &cat, &views, &udos, chunk_size, true);
                assert_byte_identical(&chunked, &mono, &format!("{kind:?} chunk {chunk_size}"));
            }
            // NULL keys never match: inner/semi drop them, left pads.
            match kind {
                JoinKind::Inner | JoinKind::Semi => assert_eq!(mono.num_rows(), 12),
                _ => assert_eq!(mono.num_rows(), 20),
            }
        }

        let agg = PlanBuilder::scan(&cat, "t")
            .unwrap()
            .aggregate(vec![(col("k"), "k")], vec![AggExpr::new(AggFunc::Sum, col("x"), "sx")])
            .unwrap()
            .build();
        let (physical, model) = optimize_physical(&agg, &cat);
        let mono = exec_chunked(&physical, &model, &cat, &views, &udos, usize::MAX, true);
        // Groups: NULL, 0, 1, 2 — all NULL keys collapse into one group.
        assert_eq!(mono.num_rows(), 4);
        for chunk_size in [1, 4, 6] {
            let chunked = exec_chunked(&physical, &model, &cat, &views, &udos, chunk_size, true);
            assert_byte_identical(&chunked, &mono, &format!("agg chunk {chunk_size}"));
        }
    }

    /// Nondeterministic expressions collapse to a single chunk and advance
    /// the shared per-row counter in monolithic order — the result is the
    /// same at every configured chunk size.
    #[test]
    fn nondeterministic_exprs_never_chunk() {
        let (cat, views, udos) = setup();
        let rand = ScalarExpr::Func { func: crate::expr::FuncKind::RandomNext, args: vec![] };
        let plan = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .project(vec![(col("s_cust"), "c"), (rand, "r")])
            .unwrap()
            .build();
        let (physical, model) = optimize_physical(&plan, &cat);
        let mono = exec_chunked(&physical, &model, &cat, &views, &udos, usize::MAX, true);
        for chunk_size in [1, 7, 64] {
            let chunked = exec_chunked(&physical, &model, &cat, &views, &udos, chunk_size, true);
            assert_byte_identical(&chunked, &mono, &format!("nd chunk {chunk_size}"));
        }
        // Sanity: the column really is nondeterministic per row.
        let r_idx = mono.schema().index_of("r").unwrap();
        let distinct: std::collections::HashSet<String> =
            (0..mono.num_rows()).map(|i| format!("{:?}", mono.column(r_idx).value(i))).collect();
        assert!(distinct.len() > 1, "RANDOM_NEXT must vary across rows");
    }

    /// The morsel runner really receives one task per chunk (the tentpole's
    /// parallelism seam): a counting runner observes the fan-out.
    #[test]
    fn morsel_runner_sees_one_task_per_chunk() {
        struct CountingRunner(std::sync::atomic::AtomicUsize);
        impl MorselRunner for CountingRunner {
            fn run(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
                self.0.fetch_add(tasks, std::sync::atomic::Ordering::Relaxed);
                for i in 0..tasks {
                    task(i);
                }
            }
        }
        let (cat, views, udos) = setup();
        let plan = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .filter(col("qty").gt(lit(0)))
            .unwrap()
            .build();
        let (physical, model) = optimize_physical(&plan, &cat);
        let runner = Arc::new(CountingRunner(std::sync::atomic::AtomicUsize::new(0)));
        let mut ctx =
            ExecContext::new(&cat, &views, &udos, SimTime::EPOCH).with_chunking(30, runner.clone());
        let out = execute(&physical, &mut ctx, &model).unwrap();
        assert_eq!(out.table.num_rows(), 80);
        // 100 rows at chunk size 30 → 4 morsels through the runner.
        assert_eq!(runner.0.load(std::sync::atomic::Ordering::Relaxed), 4);
    }

    /// Minimal in-memory `OpStateSource` for executor-level tests: always
    /// grants the claim on a miss, keeps published entries forever.
    #[derive(Debug, Default)]
    struct MemOpStates {
        entries: std::sync::Mutex<std::collections::HashMap<Sig128, Arc<OpStateEntry>>>,
        abandoned: std::sync::atomic::AtomicU64,
    }

    impl OpStateSource for MemOpStates {
        fn acquire(&self, key: Sig128) -> OpStateAcquire {
            match self.entries.lock().unwrap().get(&key) {
                Some(e) => OpStateAcquire::Hit(e.clone()),
                None => OpStateAcquire::Build { claimed: true },
            }
        }
        fn publish(&self, key: Sig128, entry: OpStateEntry) {
            self.entries.lock().unwrap().insert(key, Arc::new(entry));
        }
        fn abandon(&self, _key: Sig128) {
            self.abandoned.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        fn is_warm(&self, key: Sig128) -> bool {
            self.entries.lock().unwrap().contains_key(&key)
        }
    }

    fn exec_with_states(
        physical: &PhysicalPlan,
        model: &CostModel,
        cat: &DatasetCatalog,
        views: &ViewStore,
        udos: &UdoRegistry,
        states: Option<&dyn OpStateSource>,
    ) -> Result<ExecOutcome> {
        let mut ctx = ExecContext::new(cat, views, udos, SimTime::EPOCH)
            .with_chunking(16, Arc::new(SerialRunner));
        ctx.op_states = states;
        execute(physical, &mut ctx, model)
    }

    fn force_hash(p: &PhysicalPlan) -> PhysicalPlan {
        match p.clone() {
            PhysicalPlan::Join { kind, on, left, right, est, partitions, swapped, .. } => {
                PhysicalPlan::Join {
                    algo: JoinAlgo::Hash,
                    kind,
                    on,
                    left: Box::new(force_hash(&left)),
                    right: Box::new(force_hash(&right)),
                    est,
                    partitions,
                    swapped,
                }
            }
            other => other,
        }
    }

    #[test]
    fn join_build_state_is_reused_across_executions() {
        let (cat, views, udos) = setup();
        let plan = join_plan(&cat, JoinKind::Inner);
        let (physical, model) = optimize_physical(&plan, &cat);
        let physical = force_hash(&physical);

        let states = MemOpStates::default();
        let cold = exec_with_states(&physical, &model, &cat, &views, &udos, Some(&states)).unwrap();
        assert_eq!(cold.metrics.op_state_hits, 0);
        assert_eq!(cold.metrics.op_state_misses, 1);
        assert_eq!(cold.metrics.op_state_published, 1);

        let warm = exec_with_states(&physical, &model, &cat, &views, &udos, Some(&states)).unwrap();
        assert_eq!(warm.metrics.op_state_hits, 1);
        assert_eq!(warm.metrics.op_state_published, 0);
        assert!(warm.metrics.op_state_work_avoided > 0.0, "hit must credit the skipped build");

        // The tentpole invariant: the cache never moves bytes.
        let off = exec_with_states(&physical, &model, &cat, &views, &udos, None).unwrap();
        assert_byte_identical(&warm.table, &off.table, "hash join warm vs cache-off");
        assert_byte_identical(&cold.table, &off.table, "hash join cold vs cache-off");

        // The skipped build side still yields placeholder profiles, so the
        // stage builder's 1:1 plan/profile zip survives a hit.
        assert_eq!(warm.metrics.op_profiles.len(), off.metrics.op_profiles.len());
        let kinds = |m: &ExecMetrics| m.op_profiles.iter().map(|p| p.kind).collect::<Vec<_>>();
        assert_eq!(kinds(&warm.metrics), kinds(&off.metrics));
        // And the warm run did measurably less work.
        assert!(warm.metrics.total_work < off.metrics.total_work);
    }

    #[test]
    fn aggregate_and_sort_states_are_reused() {
        let (cat, views, udos) = setup();
        let agg = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .aggregate(
                vec![(col("s_cust"), "c")],
                vec![AggExpr::new(AggFunc::Sum, col("qty"), "sq")],
            )
            .unwrap()
            .build();
        let sort =
            PlanBuilder::scan(&cat, "sales").unwrap().sort(&[("price", false)]).unwrap().build();
        for plan in [agg, sort] {
            let (physical, model) = optimize_physical(&plan, &cat);
            let states = MemOpStates::default();
            let cold =
                exec_with_states(&physical, &model, &cat, &views, &udos, Some(&states)).unwrap();
            assert_eq!(cold.metrics.op_state_published, 1);
            let warm =
                exec_with_states(&physical, &model, &cat, &views, &udos, Some(&states)).unwrap();
            assert_eq!(warm.metrics.op_state_hits, 1);
            let off = exec_with_states(&physical, &model, &cat, &views, &udos, None).unwrap();
            assert_byte_identical(&warm.table, &off.table, "state restore vs cache-off");
            assert_eq!(warm.metrics.op_profiles.len(), off.metrics.op_profiles.len());
        }
    }

    /// A hit for a stale plan must raise the exact error the cache-off
    /// execution would: the entry key pins the old guid, but the plan is
    /// stale either way — the cache must not mask that.
    #[test]
    fn stale_plan_hit_raises_the_same_error_as_cache_off() {
        let (mut cat, views, udos) = setup();
        let agg = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .aggregate(
                vec![(col("s_cust"), "c")],
                vec![AggExpr::new(AggFunc::Sum, col("qty"), "sq")],
            )
            .unwrap()
            .build();
        let (physical, model) = optimize_physical(&agg, &cat);
        let states = MemOpStates::default();
        exec_with_states(&physical, &model, &cat, &views, &udos, Some(&states)).unwrap();

        // Rotate the input under the already-compiled plan.
        let id = cat.id_of("sales").unwrap();
        let data = cat.get(id).unwrap().data().clone();
        cat.bulk_update(id, data, SimTime::from_days(1.0)).unwrap();

        let err_off =
            exec_with_states(&physical, &model, &cat, &views, &udos, None).unwrap_err().to_string();
        let err_on = exec_with_states(&physical, &model, &cat, &views, &udos, Some(&states))
            .unwrap_err()
            .to_string();
        assert!(err_off.contains("stale plan"), "baseline error: {err_off}");
        assert_eq!(err_on, err_off, "cache-on must surface the identical stale-plan error");
    }

    /// A failed build under a held claim abandons the key instead of
    /// leaving waiters stuck — observed through the test source's counter.
    #[test]
    fn failed_build_abandons_the_claim() {
        let (mut cat, views, udos) = setup();
        let join = join_plan(&cat, JoinKind::Inner);
        let (physical, model) = optimize_physical(&join, &cat);
        let physical = force_hash(&physical);
        // Rotate only the build (right) side so the probe-side scan
        // succeeds and the failure happens while the claim is held.
        fn build_side_dataset(p: &PhysicalPlan) -> Option<String> {
            if let PhysicalPlan::Join { right, .. } = p {
                let mut node: &PhysicalPlan = right;
                loop {
                    if let PhysicalPlan::TableScan { dataset, .. } = node {
                        return Some(dataset.clone());
                    }
                    node = *node.children().first()?;
                }
            }
            p.children().iter().find_map(|c| build_side_dataset(c))
        }
        let build_ds = build_side_dataset(&physical).unwrap();
        let id = cat.id_of(&build_ds).unwrap();
        let data = cat.get(id).unwrap().data().clone();
        cat.bulk_update(id, data, SimTime::from_days(1.0)).unwrap();
        let states = MemOpStates::default();
        let err = exec_with_states(&physical, &model, &cat, &views, &udos, Some(&states))
            .unwrap_err()
            .to_string();
        assert!(err.contains("stale plan"), "unexpected error: {err}");
        assert!(states.entries.lock().unwrap().is_empty(), "nothing published");
        assert!(
            states.abandoned.load(std::sync::atomic::Ordering::Relaxed) >= 1,
            "claim must be released on failure"
        );
    }
}
