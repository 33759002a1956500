//! `cv-serve` — drive the concurrent query service and check its contracts.
//!
//! Runs the same multi-day workload three ways: through the sequential
//! driver (the reference), through the service with 1 worker, and through
//! the service with N workers — then verifies the tentpole guarantees:
//!
//! * **Determinism** — per-job result digests are byte-identical across all
//!   three runs, for any seed and any worker count.
//! * **Single flight** — the duplicate-materialization counter is 0.
//! * **No lost jobs** — every job completes under concurrency.
//!
//! It also reports throughput (jobs/sec of wall time inside the execution
//! pool), latency percentiles, and the pipelining ledger: the realized
//! concurrent-reuse savings next to the Fig. 9 `pipelining_savings_bound`
//! opportunity. Exit code is non-zero iff any contract is violated.
//!
//! The speedup assertion is host-aware: on a single-hardware-thread box a
//! thread pool cannot beat one worker, so `--min-speedup auto` only
//! enforces the bound when the host has parallelism to give. The digest
//! checks are unconditional — they are the correctness gate.
//!
//! The speedup denominator is the **parallel-phase wall** (batch epoch →
//! last task completion, from `PoolReport::parallel_wall`), not the whole
//! pool wall: per-wave worker spawn/join is fixed overhead that used to be
//! billed to the parallel run and produced a phantom slowdown.
//!
//! With `--trace` the N-worker run records cv-obs spans and writes a Chrome
//! trace (`chrome://tracing` / Perfetto) merging the service spans (pid 1)
//! with the simulated-cluster timeline (pid 2); the 1-worker run is traced
//! too and the deterministic span *structure* of both runs must match —
//! worker count may move timings, never the tree.
//!
//! A fourth leg runs the N-worker service against the **durable**
//! (disk-backed) sharded view store and holds it to the same digest
//! contract; its WAL/page-cache counters land in the bench report's
//! `store` section. `--store-dir` pins the store directory (default: a
//! fresh temp directory, removed afterwards).
//!
//! A fifth leg is the **morsel scaling curve**: one heavy
//! filter→join→aggregate query has its chunks fanned across the service
//! pool at 1/2/4/8 workers (`cv_workload::run_morsel_scaling`). Digests
//! must match the whole-input serial run at every point; on hosts with 4+
//! hardware threads the 4-worker point must beat 1 worker by more than
//! 1.5×. The workload legs run every job serially, each operator over its
//! whole input; only this leg cuts a query into morsels.
//!
//! A sixth leg (opt-in via `--op-state-cache`) exercises the
//! **operator-state cache**: the same workload runs with breaker-state
//! reuse enabled at 1 worker and at N workers, against a cache-off
//! sequential reference. The leg runs at `max(--scale, 0.25)` so the
//! dimension tables clear the nested-loop threshold and joins actually
//! build hash state (at tiny scales every join is a loop join and there
//! is no state to cache). Contracts: digests byte-identical cache-on vs
//! cache-off at both worker counts, at least one *cross-job* state hit,
//! and positive build wall avoided. `--op-state-budget` sizes the cache.
//!
//! Usage:
//!   cv-serve [--days N] [--scale F] [--seed N] [--analytics N]
//!            [--workers N] [--shards N]
//!            [--mode closed|open] [--min-speedup auto|F]
//!            [--morsel-rows N] [--op-state-cache] [--op-state-budget N]
//!            [--store-dir PATH] [--json PATH]
//!            [--bench PATH] [--trace PATH] [--metrics PATH]

use cv_common::json::{json, Json};
use cv_common::Sig128;
use cv_data::store_api::SharedViewStore;
use cv_extensions::concurrent::pipelining_savings_bound;
use cv_obs::chrome_trace;
use cv_store::{DurableStoreOptions, ShardedDurableViewStore};
use cv_workload::{
    generate_workload, run_workload, run_workload_service, run_workload_service_obs,
    run_workload_service_with_store, DriverConfig, ServiceConfig, ServiceObs, ServiceOutcome,
    WorkloadConfig,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    days: u32,
    scale: f64,
    seed: u64,
    analytics: usize,
    workers: usize,
    shards: usize,
    open_loop: bool,
    min_speedup: Option<f64>, // None = auto
    morsel_rows: usize,
    op_state_cache: bool,
    op_state_budget: u64,
    store_dir: Option<String>,
    json_path: Option<String>,
    bench_path: Option<String>,
    trace_path: Option<String>,
    metrics_path: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        days: 4,
        scale: 0.05,
        seed: 7,
        analytics: 24,
        workers: 8,
        shards: 16,
        open_loop: false,
        min_speedup: None,
        morsel_rows: 480_000,
        op_state_cache: false,
        op_state_budget: 64 << 20,
        store_dir: None,
        json_path: None,
        bench_path: None,
        trace_path: None,
        metrics_path: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--days" => {
                let v = it.next().ok_or("--days needs a value")?;
                args.days = v.parse().map_err(|_| format!("bad --days value `{v}`"))?;
            }
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                args.scale = v.parse().map_err(|_| format!("bad --scale value `{v}`"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed value `{v}`"))?;
            }
            "--analytics" => {
                let v = it.next().ok_or("--analytics needs a value")?;
                args.analytics = v.parse().map_err(|_| format!("bad --analytics value `{v}`"))?;
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                args.workers = v.parse().map_err(|_| format!("bad --workers value `{v}`"))?;
                if args.workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                args.shards = v.parse().map_err(|_| format!("bad --shards value `{v}`"))?;
            }
            "--mode" => {
                let v = it.next().ok_or("--mode needs closed|open")?;
                args.open_loop = match v.as_str() {
                    "closed" => false,
                    "open" => true,
                    other => return Err(format!("bad --mode value `{other}`")),
                };
            }
            "--min-speedup" => {
                let v = it.next().ok_or("--min-speedup needs auto|F")?;
                args.min_speedup = if v == "auto" {
                    None
                } else {
                    Some(v.parse().map_err(|_| format!("bad --min-speedup value `{v}`"))?)
                };
            }
            "--morsel-rows" => {
                let v = it.next().ok_or("--morsel-rows needs a value")?;
                args.morsel_rows =
                    v.parse().map_err(|_| format!("bad --morsel-rows value `{v}`"))?;
                if args.morsel_rows == 0 {
                    return Err("--morsel-rows must be at least 1".to_string());
                }
            }
            "--op-state-cache" => args.op_state_cache = true,
            "--op-state-budget" => {
                let v = it.next().ok_or("--op-state-budget needs a byte count")?;
                args.op_state_budget =
                    v.parse().map_err(|_| format!("bad --op-state-budget value `{v}`"))?;
                if args.op_state_budget == 0 {
                    return Err("--op-state-budget must be at least 1 byte".to_string());
                }
            }
            "--store-dir" => args.store_dir = Some(it.next().ok_or("--store-dir needs a path")?),
            "--json" => args.json_path = Some(it.next().ok_or("--json needs a path")?),
            "--bench" => args.bench_path = Some(it.next().ok_or("--bench needs a path")?),
            "--trace" => args.trace_path = Some(it.next().ok_or("--trace needs a path")?),
            "--metrics" => args.metrics_path = Some(it.next().ok_or("--metrics needs a path")?),
            "--help" | "-h" => {
                println!(
                    "cv-serve: concurrent query-service benchmark + correctness gate\n\n\
                     options:\n  --days N          simulated days (default 4)\n  \
                     --scale F         workload data scale (default 0.05)\n  \
                     --seed N          workload seed (default 7)\n  \
                     --analytics N     analytics templates (default 24)\n  \
                     --workers N       service worker threads (default 8)\n  \
                     --shards N        view-store lock stripes (default 16)\n  \
                     --mode M          closed|open load generation (default closed)\n  \
                     --min-speedup S   auto, or a required N-worker/1-worker ratio\n  \
                     --morsel-rows N   rows in the morsel-scaling query (default 480000)\n  \
                     --op-state-cache  run the operator-state-cache leg (reuse breaker\n                    \
                     states across jobs; digests must not move)\n  \
                     --op-state-budget N  operator-state cache budget in bytes\n                    \
                     (default 67108864)\n  \
                     --store-dir P     directory for the durable-store leg (default:\n                    \
                     a fresh temp directory, removed afterwards)\n  \
                     --json PATH       write the full JSON report to PATH\n  \
                     --bench PATH      write BENCH_service.json-style summary to PATH\n  \
                     --trace PATH      write a Chrome trace of the N-worker run to PATH\n  \
                     --metrics PATH    write the cv-obs metrics dump to PATH"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn percentile_ms(latencies: &[(cv_common::ids::JobId, f64)], p: f64) -> f64 {
    let mut samples: Vec<f64> = latencies.iter().map(|(_, ms)| *ms).collect();
    cv_cluster::metrics::percentile(&mut samples, p)
}

/// Order-insensitive checksum over every per-job digest, for the report.
fn digest_checksum(digests: &std::collections::BTreeMap<cv_common::ids::JobId, Sig128>) -> String {
    let mut h = cv_common::hash::StableHasher::with_domain("digest-checksum");
    for (job, sig) in digests {
        h.write_u64(job.0);
        h.write_u128(sig.0);
    }
    format!("{:032x}", h.finish128().0)
}

/// Throughput over the parallel-phase wall (the speedup-relevant measure);
/// falls back to the whole pool wall only if the parallel wall is empty.
fn jobs_per_sec(out: &ServiceOutcome) -> f64 {
    let wall = if out.service.parallel_wall_seconds > 0.0 {
        out.service.parallel_wall_seconds
    } else {
        out.service.exec_wall_seconds
    };
    if wall <= 0.0 {
        0.0
    } else {
        out.ledger.len() as f64 / wall
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cv-serve: {e}");
            return ExitCode::from(2);
        }
    };

    let workload = generate_workload(WorkloadConfig {
        seed: args.seed,
        scale: args.scale,
        n_analytics: args.analytics,
        ..WorkloadConfig::default()
    });
    let mut cfg = DriverConfig::enabled(args.days);
    cfg.cluster.total_containers = 200;

    let svc = |workers: usize| ServiceConfig {
        workers,
        store_shards: args.shards,
        pacing_us_per_sim_hour: if args.open_loop { 200 } else { 0 },
        ..ServiceConfig::default()
    };

    println!(
        "cv-serve: {} day(s) at scale {}, seed {}, {} workers, {} shards, {} loop",
        args.days,
        args.scale,
        args.seed,
        args.workers,
        args.shards,
        if args.open_loop { "open" } else { "closed" }
    );

    let observing = args.trace_path.is_some() || args.metrics_path.is_some();
    let obs_one = observing.then(ServiceObs::new);
    let obs_many = observing.then(ServiceObs::new);

    let sequential = run_workload(&workload, &cfg).expect("sequential reference run");
    let one = run_workload_service_obs(&workload, &cfg, &svc(1), obs_one.as_ref())
        .expect("1-worker service run");
    let many = run_workload_service_obs(&workload, &cfg, &svc(args.workers), obs_many.as_ref())
        .expect("N-worker service run");

    // ---- Durable-store leg: same service, disk-backed sharded store. ----
    let (store_root, ephemeral_store) = match &args.store_dir {
        Some(dir) => (PathBuf::from(dir), false),
        None => (std::env::temp_dir().join(format!("cv-serve-store-{}", std::process::id())), true),
    };
    let _ = std::fs::remove_dir_all(&store_root);
    let store = ShardedDurableViewStore::open(
        store_root.clone(),
        cfg.view_ttl,
        args.shards,
        DurableStoreOptions::default(),
    )
    .expect("open durable view store");
    let durable =
        run_workload_service_with_store(&workload, &cfg, &svc(args.workers), &store, None)
            .expect("durable-store service run");
    store.checkpoint_now().expect("final durable checkpoint");
    let store_io = store.io_stats().expect("the durable store reports IO counters");
    drop(store);
    if ephemeral_store {
        let _ = std::fs::remove_dir_all(&store_root);
    }

    // ---- Morsel scaling leg: one heavy query, chunks across the pool. ----
    let morsel_counts: Vec<usize> =
        [1usize, 2, 4, 8].into_iter().filter(|&w| w == 1 || w <= args.workers).collect();
    let morsel = cv_workload::run_morsel_scaling(args.seed, args.morsel_rows, &morsel_counts, 3)
        .expect("morsel scaling benchmark");

    // ---- Operator-state cache leg (opt-in): reuse breaker states. ----
    // Runs at a scale where the dimension tables clear the nested-loop
    // threshold — otherwise no join builds hash state and the cache has
    // nothing to do. Cache-off sequential is the digest reference.
    let op_leg = args.op_state_cache.then(|| {
        let op_scale = args.scale.max(0.25);
        let op_workload = generate_workload(WorkloadConfig {
            seed: args.seed,
            scale: op_scale,
            n_analytics: args.analytics,
            ..WorkloadConfig::default()
        });
        let reference = run_workload(&op_workload, &cfg).expect("op-state cache-off reference");
        let on_cfg = DriverConfig { op_state_budget_bytes: args.op_state_budget, ..cfg.clone() };
        let on_1 = run_workload_service(&op_workload, &on_cfg, &svc(1))
            .expect("op-state 1-worker cache-on run");
        let on_n = run_workload_service(&op_workload, &on_cfg, &svc(args.workers))
            .expect("op-state N-worker cache-on run");
        (op_scale, reference, on_1, on_n)
    });

    // ---- Contracts. ----
    let mut problems: Vec<String> = Vec::new();
    let durable_digests_match = durable.result_digests == sequential.result_digests;
    if !durable_digests_match {
        problems.push("durable-store digests diverge from the sequential driver".to_string());
    }
    if durable.failed_jobs > 0 {
        problems.push(format!("{} job(s) failed on the durable store", durable.failed_jobs));
    }
    if durable.service.duplicate_materializations > 0 {
        problems.push(format!(
            "{} duplicate materialization(s) on the durable store — single flight failed",
            durable.service.duplicate_materializations
        ));
    }
    if one.failed_jobs > 0 || many.failed_jobs > 0 {
        problems.push(format!(
            "failed jobs: {} (1-worker), {} ({}-worker)",
            one.failed_jobs, many.failed_jobs, args.workers
        ));
    }
    if one.result_digests != sequential.result_digests {
        problems.push("1-worker digests diverge from the sequential driver".to_string());
    }
    if many.result_digests != one.result_digests {
        problems.push(format!("{}-worker digests diverge from the 1-worker run", args.workers));
    }
    if many.service.duplicate_materializations > 0 {
        problems.push(format!(
            "{} duplicate materialization(s) — single flight failed",
            many.service.duplicate_materializations
        ));
    }
    if let (Some(o1), Some(on)) = (&obs_one, &obs_many) {
        // Worker count may move span timings, never the span tree.
        if o1.tracer.structure_json() != on.tracer.structure_json() {
            problems
                .push(format!("trace structure diverges between 1 and {} workers", args.workers));
        }
        if o1.tracer.unbalanced_ends() + on.tracer.unbalanced_ends() > 0 {
            problems.push("unbalanced span begin/end pairs in the tracer".to_string());
        }
    }

    let jps_1 = jobs_per_sec(&one);
    let jps_n = jobs_per_sec(&many);
    let speedup = if jps_1 > 0.0 { jps_n / jps_1 } else { 0.0 };
    let host_parallelism =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let required_speedup = match args.min_speedup {
        Some(f) => Some(f),
        // auto: a pool cannot outrun one worker without hardware threads to
        // run on; enforce only where the comparison is meaningful.
        None if host_parallelism >= 2 => Some(1.0),
        None => None,
    };
    match required_speedup {
        Some(min) if speedup < min => problems.push(format!(
            "speedup {speedup:.2}x below required {min:.2}x ({jps_n:.2} vs {jps_1:.2} jobs/sec)"
        )),
        Some(_) => {}
        None => {
            println!("  [speedup check skipped: host has {host_parallelism} hardware thread(s)]")
        }
    }

    // Morsel gates: digest parity is unconditional; the intra-query
    // speedup bound only binds where the host has cores to scale onto.
    if !morsel.digests_agree() {
        problems.push("morsel scaling digests diverge from the serial execution".to_string());
    }
    let morsel_speedup = morsel.speedup_at(4);
    if host_parallelism >= 4 && morsel_counts.iter().any(|&w| w >= 4) {
        match morsel_speedup {
            Some(s) if s > 1.5 => {}
            Some(s) => {
                problems.push(format!("morsel speedup {s:.2}x at 4+ workers below required 1.50x"))
            }
            None => problems.push("morsel scaling curve missing its endpoints".to_string()),
        }
    } else {
        println!(
            "  [morsel speedup check skipped: host has {host_parallelism} hardware thread(s)]"
        );
    }

    // Op-state cache contracts: reuse may only move wall time, never
    // bytes — and it has to actually fire (cross-job) to prove the
    // recurring-job reuse the leg exists for.
    if let Some((_, reference, on_1, on_n)) = &op_leg {
        let st = &on_n.service.op_state;
        if on_1.result_digests != reference.result_digests {
            problems.push("op-state 1-worker digests diverge from the cache-off run".to_string());
        }
        if on_n.result_digests != reference.result_digests {
            problems.push(format!(
                "op-state {}-worker digests diverge from the cache-off run",
                args.workers
            ));
        }
        if on_1.failed_jobs > 0 || on_n.failed_jobs > 0 {
            problems.push(format!(
                "op-state leg failed jobs: {} (1-worker), {} ({}-worker)",
                on_1.failed_jobs, on_n.failed_jobs, args.workers
            ));
        }
        if st.cross_job_hits == 0 {
            problems.push("op-state cache saw no cross-job hits — reuse never fired".to_string());
        }
        if st.build_wall_avoided <= 0.0 {
            problems.push("op-state cache avoided no build wall time".to_string());
        }
    }

    // Pool accounting contract: overhead is the pool's residue around the
    // parallel phase and must never dominate it (both terms now share the
    // ready-barrier epoch).
    if many.service.parallel_wall_seconds > 0.0
        && many.service.pool_overhead_seconds >= many.service.parallel_wall_seconds
    {
        problems.push(format!(
            "pool overhead {:.4}s is not below the parallel wall {:.4}s",
            many.service.pool_overhead_seconds, many.service.parallel_wall_seconds
        ));
    }

    let bound = pipelining_savings_bound(&many.repo, many.ledger.records());
    let realized = many.service.realized_pipelining_savings;
    let s = &many.service;
    println!(
        "\n  jobs                        {}\n  \
         parallel wall (1w / {}w)    {:.3}s / {:.3}s\n  \
         pool wall (1w / {}w)        {:.3}s / {:.3}s\n  \
         phase wall ({}w)            compile {:.3}s / execute {:.3}s / commit {:.3}s (pool overhead {:.3}s)\n  \
         jobs/sec (1w / {}w)         {:.2} / {:.2}  (speedup {:.2}x)\n  \
         latency p50/p95/p99         {:.2} / {:.2} / {:.2} ms\n  \
         pipelined jobs / reads      {} / {}\n  flight waits                {}\n  \
         duplicate materializations  {}\n  realized pipelining savings {:.3} work units\n  \
         opportunity bound (Fig. 9)  {:.3} work units\n  \
         steals / deferrals          {} / {}\n  max inflight / queue depth  {} / {}",
        many.ledger.len(),
        args.workers,
        one.service.parallel_wall_seconds,
        many.service.parallel_wall_seconds,
        args.workers,
        one.service.exec_wall_seconds,
        many.service.exec_wall_seconds,
        args.workers,
        s.compile_wall_seconds,
        s.parallel_wall_seconds,
        s.commit_wall_seconds,
        s.pool_overhead_seconds,
        args.workers,
        jps_1,
        jps_n,
        speedup,
        percentile_ms(&s.latencies_ms, 50.0),
        percentile_ms(&s.latencies_ms, 95.0),
        percentile_ms(&s.latencies_ms, 99.0),
        s.pipelined_jobs,
        s.pipelined_reads,
        s.flight_waits,
        s.duplicate_materializations,
        realized,
        bound,
        s.steals,
        s.admission_deferrals,
        s.max_inflight,
        s.max_queue_depth
    );
    let curve: Vec<String> = morsel
        .points
        .iter()
        .map(|p| format!("{}w {:.1}ms", p.workers, p.wall_seconds * 1e3))
        .collect();
    println!(
        "  morsel scaling ({} rows, chunk {}, {} chunks)  {}  digests {}",
        morsel.rows,
        morsel.chunk_size,
        morsel.chunks,
        curve.join(" / "),
        if morsel.digests_agree() { "match" } else { "DIVERGE" }
    );
    println!(
        "  durable store ({}w)         {} WAL records / {} fsyncs / {} checkpoints, \
         cache hit rate {:.2}, digests {}",
        args.workers,
        store_io.wal_records_written,
        store_io.wal_fsyncs,
        store_io.checkpoints,
        store_io.page_cache_hit_rate(),
        if durable_digests_match { "match" } else { "DIVERGE" }
    );

    if let Some((op_scale, reference, on_1, on_n)) = &op_leg {
        let st = &on_n.service.op_state;
        let parity = on_1.result_digests == reference.result_digests
            && on_n.result_digests == reference.result_digests;
        println!(
            "  op-state cache (scale {}, {}w)   {} hits ({} cross-job) / {} misses \
             (rate {:.2}), {} published / {} evicted, {} B resident, \
             build wall avoided {:.2}ms, digests vs cache-off {}",
            op_scale,
            args.workers,
            st.hits,
            st.cross_job_hits,
            st.misses,
            st.hit_rate(),
            st.published,
            st.evicted,
            st.resident_bytes,
            st.build_wall_avoided * 1e3,
            if parity { "match" } else { "DIVERGE" }
        );
    }

    let digests_match = many.result_digests == sequential.result_digests;
    let scaling = match morsel.to_json() {
        Json::Obj(mut m) => {
            m.insert("speedup_at_4w", morsel_speedup.unwrap_or(0.0));
            m.insert(
                "speedup_gate_enforced",
                host_parallelism >= 4 && morsel_counts.iter().any(|&w| w >= 4),
            );
            Json::Obj(m)
        }
        other => other,
    };
    let bench = json!({
        "workload": json!({
            "days": args.days,
            "scale": args.scale,
            "seed": args.seed,
            "analytics": args.analytics as u64,
            "jobs": many.ledger.len() as u64,
            "mode": if args.open_loop { "open" } else { "closed" },
        }),
        "workers": args.workers as u64,
        "shards": s.shards as u64,
        "scaling": scaling,
        "exec_wall_seconds_1w": one.service.exec_wall_seconds,
        "exec_wall_seconds_nw": many.service.exec_wall_seconds,
        "parallel_wall_seconds_1w": one.service.parallel_wall_seconds,
        "parallel_wall_seconds_nw": many.service.parallel_wall_seconds,
        "phase_wall_seconds": json!({
            "compile": s.compile_wall_seconds,
            "execute_parallel": s.parallel_wall_seconds,
            "execute_pool": s.exec_wall_seconds,
            "commit": s.commit_wall_seconds,
            "pool_overhead": s.pool_overhead_seconds,
        }),
        "worker_busy_seconds": Json::Arr(
            s.worker_busy_seconds.iter().map(|b| Json::from(*b)).collect()
        ),
        "jobs_per_sec_1w": jps_1,
        "jobs_per_sec_nw": jps_n,
        "speedup": speedup,
        "latency_ms": json!({
            "p50": percentile_ms(&s.latencies_ms, 50.0),
            "p95": percentile_ms(&s.latencies_ms, 95.0),
            "p99": percentile_ms(&s.latencies_ms, 99.0),
        }),
        "pipelining": json!({
            "realized_savings": realized,
            "opportunity_bound": bound,
            "pipelined_jobs": s.pipelined_jobs,
            "pipelined_reads": s.pipelined_reads,
            "flight_waits": s.flight_waits,
            "duplicate_materializations": s.duplicate_materializations,
            "chunks_spooled": s.chunks_spooled,
            "chunk_assembled_reads": s.chunk_assembled_reads,
        }),
        "digest_checksum": digest_checksum(&many.result_digests),
        "digests_match_sequential": digests_match,
        "op_state": match &op_leg {
            Some((op_scale, reference, on_1, on_n)) => {
                match on_n.service.op_state.to_json() {
                    Json::Obj(mut m) => {
                        m.insert("scale", *op_scale);
                        m.insert("budget_bytes", args.op_state_budget);
                        m.insert("hits_1w", on_1.service.op_state.hits);
                        m.insert(
                            "digests_match_off_1w",
                            on_1.result_digests == reference.result_digests,
                        );
                        m.insert(
                            "digests_match_off_nw",
                            on_n.result_digests == reference.result_digests,
                        );
                        m.insert("digest_checksum_off", digest_checksum(&reference.result_digests));
                        m.insert("digest_checksum_on_1w", digest_checksum(&on_1.result_digests));
                        m.insert("digest_checksum_on_nw", digest_checksum(&on_n.result_digests));
                        Json::Obj(m)
                    }
                    other => other,
                }
            }
            None => json!({ "enabled": false }),
        },
        "store": json!({
            "page_cache_hits": store_io.page_cache_hits,
            "page_cache_misses": store_io.page_cache_misses,
            "page_cache_hit_rate": store_io.page_cache_hit_rate(),
            "pages_evicted": store_io.pages_evicted,
            "wal_fsyncs": store_io.wal_fsyncs,
            "wal_records_written": store_io.wal_records_written,
            "wal_records_replayed": store_io.wal_records_replayed,
            "recoveries": store_io.recoveries,
            "checkpoints": store_io.checkpoints,
            "bytes_written_durably": store_io.bytes_written_durably,
            "digests_match_sequential": durable_digests_match,
        }),
        "host_parallelism": host_parallelism as u64,
    });

    if let Some(path) = &args.bench_path {
        if let Err(e) = std::fs::write(path, bench.to_string_pretty()) {
            eprintln!("cv-serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\n[bench report] {path}");
    }
    if let Some(path) = &args.json_path {
        let full = match many.report_json() {
            Json::Obj(mut map) => {
                map.insert("bench", bench.clone());
                Json::Obj(map)
            }
            other => other,
        };
        if let Err(e) = std::fs::write(path, full.to_string_pretty()) {
            eprintln!("cv-serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("[json report] {path}");
    }
    if args.bench_path.is_none() && args.json_path.is_none() {
        println!("\n{}", bench.to_string_compact());
    }

    if let Some(path) = &args.trace_path {
        let obs = obs_many.as_ref().expect("--trace implies observability");
        // pid 1 = the live service run, pid 2 = the simulated cluster
        // replay, merged into one Chrome trace file.
        let mut events = obs.tracer.chrome_events(1);
        let results: Vec<_> = many.ledger.records().iter().map(|r| r.result.clone()).collect();
        events.extend(cv_cluster::timeline::chrome_events(&results, 2));
        let n_events = events.len();
        let trace = chrome_trace(events);
        let text = trace.to_string_pretty();
        if Json::parse(&text).ok().as_ref() != Some(&trace) {
            eprintln!("cv-serve: trace JSON failed the parse-back self-check");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("cv-serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("[chrome trace] {path} ({n_events} events)");
    }
    if let Some(path) = &args.metrics_path {
        let obs = obs_many.as_ref().expect("--metrics implies observability");
        if let Err(e) = std::fs::write(path, obs.metrics.to_json().to_string_pretty()) {
            eprintln!("cv-serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("[metrics] {path}");
    }

    if problems.is_empty() {
        println!(
            "\ncv-serve: all contracts hold — digests identical across drivers and worker counts"
        );
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("cv-serve: VIOLATION: {p}");
        }
        ExitCode::FAILURE
    }
}
