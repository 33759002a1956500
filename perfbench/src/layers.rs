//! Per-layer metrics of one traced replay, and the invariants that tie them
//! to each other and to the end-to-end replay time.
//!
//! Layer names follow the crates: `workload` (the replay's phases and the
//! synthetic load generator), `engine`, `analyzer`, `core`, `store` (the
//! `data`/`store` view stores), `service`, `cluster` and `obs`.

use crate::spans::{us_to_s, SpanTime, SpanTotals, OPERATORS};
use crate::stats::percentile;
use crate::timed_store::StoreTimings;
use cv_workload::{ServiceObs, ServiceOutcome};

/// One named per-layer value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything a traced replay leaves behind.
pub struct TracedRun<'a> {
    pub outcome: &'a ServiceOutcome,
    pub obs: &'a ServiceObs,
    pub store: &'a StoreTimings,
    /// Wall time of the replay call.
    pub replay_s: f64,
    /// Wall time of reopening the durable store afterwards.
    pub recover_s: Option<f64>,
}

/// The raw sums the invariants compare, kept in the units they were
/// measured in so that no rounding can make a true relation fail.
#[derive(Clone, Debug, PartialEq)]
pub struct InvariantInputs {
    pub phase_walls_s: f64,
    pub day_spans_s: f64,
    pub replay_s: f64,
    pub operator_self_us: u64,
    pub execute_us: u64,
    pub page_cache_hits: u64,
    pub page_cache_misses: u64,
    pub page_reads: u64,
}

/// The layer invariants; each violated one is returned as a message.
pub fn check_invariants(i: &InvariantInputs) -> Vec<String> {
    let mut broken = Vec::new();
    if i.phase_walls_s > i.replay_s {
        broken.push(format!(
            "compile + execute-pool + commit walls ({:.6} s) exceed the replay ({:.6} s)",
            i.phase_walls_s, i.replay_s
        ));
    }
    if i.day_spans_s > i.replay_s {
        broken.push(format!(
            "day spans ({:.6} s) exceed the replay ({:.6} s)",
            i.day_spans_s, i.replay_s
        ));
    }
    if i.operator_self_us > i.execute_us {
        broken.push(format!(
            "operator self time ({} us) exceeds execute spans ({} us)",
            i.operator_self_us, i.execute_us
        ));
    }
    if i.page_cache_hits + i.page_cache_misses != i.page_reads {
        broken.push(format!(
            "page-cache hits {} + misses {} != pages read {}",
            i.page_cache_hits, i.page_cache_misses, i.page_reads
        ));
    }
    broken
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Compute the per-layer metrics (without `obs.overhead_ratio`, which needs
/// the untraced replays) and the invariant inputs of one traced replay.
pub fn per_layer(run: &TracedRun<'_>) -> (Vec<LayerMetric>, InvariantInputs) {
    let spans: Vec<SpanTime> = run.obs.tracer.spans().iter().map(SpanTime::from).collect();
    let t = SpanTotals::from_spans(&spans);
    let svc = &run.outcome.service;
    let totals = run.outcome.ledger.totals();
    let m = &run.obs.metrics;
    let io = run.outcome.store_io.clone().unwrap_or_default();
    let mut out = Vec::new();
    let mut put = |name: &str, unit: &'static str, value: f64| {
        out.push(LayerMetric { name: name.to_string(), unit, value });
    };

    // workload: the load generator and the replay's three phases.
    put("workload.ingest_s", "s", t.loop_s("ingest"));
    put("workload.compile_phase_s", "s", svc.compile_wall_seconds);
    put("workload.execute_phase_s", "s", svc.exec_wall_seconds);
    put("workload.commit_phase_s", "s", svc.commit_wall_seconds);

    // engine: per-job compile (parse, bind, annotate: the span's self
    // time), normalize + signatures, optimize, execute and operator self.
    let execute_s = t.job_s("execute");
    let rows = m.counter("executor.rows").get() as f64;
    put("engine.compile_s", "s", t.job_self_s("compile"));
    put("engine.normalize_s", "s", t.job_s("normalize"));
    put("engine.optimize_s", "s", t.job_s("optimize"));
    put("engine.execute_s", "s", execute_s);
    put("engine.rows", "count", rows);
    put("engine.bytes", "B", m.counter("executor.bytes").get() as f64);
    put("engine.rows_per_s", "1/s", ratio(rows, execute_s));
    for op in OPERATORS {
        put(&format!("engine.self_s.{op}"), "s", t.job_self_s(op));
    }

    // analyzer: the containment prover behind semantic matching.
    let considered = m.counter("optimizer.semantic_considered").get() as f64;
    let proven = m.counter("optimizer.semantic_proven").get() as f64;
    put("analyzer.semantic_considered", "count", considered);
    put("analyzer.semantic_proven", "count", proven);
    put("analyzer.proven_ratio", "ratio", ratio(proven, considered));
    put("analyzer.prove_s", "s", us_to_s(t.prove_us));

    // core: repository analysis + view selection, and what it yielded.
    put("core.analysis_s", "s", t.loop_s("analysis"));
    put("core.views_built", "count", totals.views_built as f64);
    put("core.views_reused", "count", totals.views_reused as f64);
    put(
        "core.reuse_per_build",
        "ratio",
        ratio(totals.views_reused as f64, totals.views_built as f64),
    );

    // store: the timing wrapper plus the durable store's IO counters.
    let st = run.store;
    put("store.read_calls", "count", st.read_calls as f64);
    put("store.read_s", "s", st.read_s);
    put("store.insert_calls", "count", st.insert_calls as f64);
    put("store.insert_s", "s", st.insert_s);
    put("store.maintenance_s", "s", st.maintenance_s);
    put("store.page_cache_hit_rate", "ratio", io.page_cache_hit_rate());
    put("store.pages_evicted", "count", io.pages_evicted as f64);
    put("store.wal_fsyncs", "count", io.wal_fsyncs as f64);
    put("store.checkpoints", "count", io.checkpoints as f64);
    put(
        "store.write_amp",
        "ratio",
        ratio(io.bytes_written_durably as f64, run.outcome.view_store_stats.bytes_written as f64),
    );
    put("store.recover_s", "s", run.recover_s.unwrap_or(0.0));

    // service: the worker pool and the single-flight registry.
    let busy: f64 = svc.worker_busy_seconds.iter().sum();
    let idle: f64 =
        svc.worker_busy_seconds.iter().map(|b| (svc.parallel_wall_seconds - b).max(0.0)).sum();
    let queue_wait_ms: Vec<f64> = svc
        .latencies_ms
        .iter()
        .map(|(job, ms)| {
            let exec_us = t.execute_us_by_track.get(&(job.0 + 1)).copied().unwrap_or(0);
            (ms - exec_us as f64 / 1e3).max(0.0)
        })
        .collect();
    put("service.worker_busy_s", "s", busy);
    put("service.worker_idle_s", "s", idle);
    put("service.pool_overhead_s", "s", svc.pool_overhead_seconds);
    put(
        "service.queue_wait_ms_p50",
        "ms",
        percentile(&queue_wait_ms, 50.0).map_or(0.0, |p| p.value),
    );
    put("service.steals", "count", svc.steals as f64);
    put("service.admission_deferrals", "count", svc.admission_deferrals as f64);
    put("service.flight_waits", "count", svc.flight_waits as f64);
    put("service.pipelined_reads", "count", svc.pipelined_reads as f64);
    put("service.duplicate_materializations", "count", svc.duplicate_materializations as f64);

    // cluster: everything in the replay call outside the day loop — the
    // simulated-cluster drain and the final roll-ups.
    let day_spans_s = t.loop_s("day");
    put("cluster.replay_s", "s", (run.replay_s - day_spans_s).max(0.0));

    let inputs = InvariantInputs {
        phase_walls_s: svc.compile_wall_seconds + svc.exec_wall_seconds + svc.commit_wall_seconds,
        day_spans_s,
        replay_s: run.replay_s,
        operator_self_us: t.operator_self_us(),
        execute_us: t.job_us.get("execute").copied().unwrap_or(0),
        page_cache_hits: io.page_cache_hits,
        page_cache_misses: io.page_cache_misses,
        page_reads: st.page_reads,
    };
    (out, inputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holding() -> InvariantInputs {
        InvariantInputs {
            phase_walls_s: 1.5,
            day_spans_s: 1.9,
            replay_s: 2.0,
            operator_self_us: 900,
            execute_us: 1_000,
            page_cache_hits: 220,
            page_cache_misses: 1_327,
            page_reads: 1_547,
        }
    }

    #[test]
    fn invariants_hold_on_consistent_inputs() {
        assert!(check_invariants(&holding()).is_empty());
        // Equality is allowed everywhere.
        let tight = InvariantInputs {
            phase_walls_s: 2.0,
            day_spans_s: 2.0,
            operator_self_us: 1_000,
            ..holding()
        };
        assert!(check_invariants(&tight).is_empty());
    }

    #[test]
    fn each_broken_invariant_is_reported() {
        let phases = InvariantInputs { phase_walls_s: 2.1, ..holding() };
        assert_eq!(check_invariants(&phases).len(), 1);
        let days = InvariantInputs { day_spans_s: 2.5, ..holding() };
        assert_eq!(check_invariants(&days).len(), 1);
        let ops = InvariantInputs { operator_self_us: 1_001, ..holding() };
        assert!(check_invariants(&ops)[0].contains("operator self"));
        let pages = InvariantInputs { page_reads: 1_546, ..holding() };
        assert!(check_invariants(&pages)[0].contains("page-cache"));
        let all = InvariantInputs {
            phase_walls_s: 3.0,
            day_spans_s: 3.0,
            operator_self_us: 2_000,
            page_reads: 0,
            ..holding()
        };
        assert_eq!(check_invariants(&all).len(), 4);
    }
}
