//! Microbenchmarks for the hot paths CloudViews adds to the compiler:
//! signature computation, plan normalization, view matching (the paper's
//! claim: "lightweight hash equality checks" instead of containment, §2.4),
//! view selection, executor kernels.
//!
//! Self-contained harness (no external bench framework): each case is
//! warmed up, then timed over enough iterations to fill a fixed
//! measurement window, reporting mean ns/iter.

use cv_common::ids::{JobId, VcId};
use cv_common::{Sig128, SimTime};
use cv_core::selection::{LabelPropagationSelector, SelectionConstraints, ViewSelector};
use cv_data::schema::{Field, Schema};
use cv_data::table::Table;
use cv_data::value::{DataType, Value};
use cv_engine::engine::QueryEngine;
use cv_engine::expr::{col, lit};
use cv_engine::normalize::normalize;
use cv_engine::optimizer::{AlwaysGrant, ReuseContext, ViewMeta};
use cv_engine::plan::{JoinKind, LogicalPlan, PlanBuilder};
use cv_engine::signature::{enumerate_subexpressions, plan_signature, SigMode, SignatureConfig};
use cv_engine::sql::{compile_sql, Params};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WARMUP: Duration = Duration::from_millis(200);
const MEASURE: Duration = Duration::from_secs(1);

/// Time `f` for roughly [`MEASURE`] and print mean ns/iter.
fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < WARMUP {
        black_box(f());
        warm_iters += 1;
    }
    // Aim for the measurement window based on the warmed-up rate.
    let per_iter = WARMUP.as_nanos().max(1) / u128::from(warm_iters.max(1));
    let target = (MEASURE.as_nanos() / per_iter.max(1)).clamp(10, 10_000_000) as u64;
    let start = Instant::now();
    for _ in 0..target {
        black_box(f());
    }
    let elapsed = start.elapsed();
    let ns = elapsed.as_nanos() as f64 / target as f64;
    println!("  {name:<44} {ns:>14.0} ns/iter  ({target} iters)");
}

fn bench_engine() -> QueryEngine {
    let mut e = QueryEngine::new();
    let sales = Schema::new(vec![
        Field::new("s_cust", DataType::Int),
        Field::new("price", DataType::Float),
        Field::new("qty", DataType::Int),
    ])
    .unwrap()
    .into_ref();
    let rows: Vec<Vec<Value>> = (0..10_000)
        .map(|i| vec![Value::Int(i % 500), Value::Float((i % 97) as f64), Value::Int(i % 7)])
        .collect();
    e.catalog.register("sales", Table::from_rows(sales, &rows).unwrap(), SimTime::EPOCH).unwrap();
    let cust =
        Schema::new(vec![Field::new("c_id", DataType::Int), Field::new("seg", DataType::Str)])
            .unwrap()
            .into_ref();
    let crows: Vec<Vec<Value>> = (0..500)
        .map(|i| vec![Value::Int(i), Value::Str(if i % 2 == 0 { "asia" } else { "emea" }.into())])
        .collect();
    e.catalog
        .register("customer", Table::from_rows(cust, &crows).unwrap(), SimTime::EPOCH)
        .unwrap();
    e
}

const QUERY: &str = "SELECT seg, AVG(price * qty) AS rev, COUNT(*) AS n \
    FROM sales JOIN customer ON s_cust = c_id \
    WHERE qty > 2 AND seg = 'asia' GROUP BY seg";

fn deep_plan(e: &QueryEngine) -> Arc<LogicalPlan> {
    // A plan several joins deep for signature/normalization stress.
    let mut b = PlanBuilder::scan(&e.catalog, "sales").unwrap();
    b = b
        .join(
            PlanBuilder::scan(&e.catalog, "customer").unwrap(),
            &[("s_cust", "c_id")],
            JoinKind::Inner,
        )
        .unwrap()
        .filter(col("seg").eq(lit("asia")).and(col("qty").gt(lit(1))))
        .unwrap();
    b.build()
}

fn signatures() {
    let e = bench_engine();
    let plan = deep_plan(&e);
    let cfg = SignatureConfig::default();
    bench("signature/plan_signature", || plan_signature(black_box(&plan), &cfg, SigMode::Strict));
    bench("signature/enumerate_subexpressions", || {
        enumerate_subexpressions(black_box(&plan), &cfg)
    });
}

fn normalization() {
    let e = bench_engine();
    let plan = deep_plan(&e);
    let cfg = SignatureConfig::default();
    bench("normalize/plan", || normalize(black_box(&plan), &cfg).unwrap());
}

fn sql_frontend() {
    let e = bench_engine();
    bench("sql/parse_and_bind", || {
        compile_sql(black_box(QUERY), &e.catalog, &Params::none()).unwrap()
    });
}

fn view_matching() {
    let e = bench_engine();
    let plan = e.compile_sql(QUERY, &Params::none()).unwrap();
    // 256 irrelevant annotations + one real: matching stays a hash probe.
    let mut reuse = ReuseContext::empty();
    for i in 0..256u64 {
        reuse.available.insert(Sig128(i as u128), ViewMeta::hot(1, 1));
    }
    let subs = e.subexpressions(&plan).unwrap();
    let target = subs.iter().max_by_key(|s| s.node_count).unwrap();
    reuse.available.insert(target.strict, ViewMeta::hot(100, 4_000));
    bench("optimizer/view_match_256_annotations", || {
        e.optimize(black_box(&plan), &reuse, &mut AlwaysGrant).unwrap()
    });
    let empty = ReuseContext::empty();
    bench("optimizer/no_annotations", || {
        e.optimize(black_box(&plan), &empty, &mut AlwaysGrant).unwrap()
    });
}

fn executor() {
    let e = bench_engine();
    let plan = e.compile_sql(QUERY, &Params::none()).unwrap();
    let compiled = e.optimize(&plan, &ReuseContext::empty(), &mut AlwaysGrant).unwrap();
    bench("exec/join_agg_10k_rows", || {
        e.execute(black_box(&compiled.outcome.physical), SimTime::EPOCH).unwrap()
    });
}

fn selection() {
    // Selection over a problem harvested from a tiny driver run.
    let workload = cv_workload::generate_workload(cv_workload::WorkloadConfig {
        scale: 0.05,
        n_analytics: 16,
        ..Default::default()
    });
    let cfg = cv_workload::DriverConfig::baseline(3);
    let out = cv_workload::run_workload(&workload, &cfg).unwrap();
    let problem = cv_core::build_problem(&out.repo, 2);
    let constraints = SelectionConstraints::default();
    bench("selection/label_propagation", || {
        LabelPropagationSelector::default().select(black_box(&problem), &constraints)
    });
}

fn end_to_end() {
    // Full compile→optimize→execute→seal cycle, as the driver runs it.
    bench("engine/run_sql_end_to_end", || {
        let mut e = bench_engine();
        e.run_sql(QUERY, &Params::none(), &ReuseContext::empty(), JobId(1), VcId(0), SimTime::EPOCH)
            .unwrap()
    });
}

fn main() {
    println!("cv-bench microbenchmarks (mean over ~{}s window per case)", MEASURE.as_secs());
    signatures();
    normalization();
    sql_frontend();
    view_matching();
    executor();
    selection();
    end_to_end();
}
