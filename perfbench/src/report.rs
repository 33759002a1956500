//! Turning a run's replays into named metrics, and printing them.

use crate::layers::LayerMetric;
use crate::stats::{median, percentile, quartiles};
use cv_common::json::{Json, JsonMap};

/// The timing side of one replay.
#[derive(Clone, Debug, Default)]
pub struct ReplayFigures {
    pub traced: bool,
    /// Workload generation + store open before this replay.
    pub setup_s: f64,
    /// The whole replay call.
    pub replay_s: f64,
    /// Compile + execute-pool + commit phase walls.
    pub serving_s: f64,
    pub jobs_completed: usize,
    pub latencies_ms: Vec<f64>,
    pub sim_processing_s: f64,
    pub sim_latency_s: f64,
    /// Per-layer metrics (traced replays only).
    pub layers: Vec<LayerMetric>,
}

/// One reported metric: its value, unit, and the samples behind it.
#[derive(Clone, Debug)]
pub struct Reported {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
    pub note: String,
}

/// Median over the replays of a per-replay figure.
fn per_replay(
    name: &str,
    unit: &'static str,
    replays: &[&ReplayFigures],
    f: impl Fn(&ReplayFigures) -> f64,
    note: &str,
) -> Reported {
    let samples: Vec<f64> = replays.iter().map(|r| f(r)).collect();
    Reported {
        name: name.to_string(),
        unit,
        value: median(&samples).unwrap_or(0.0),
        samples,
        note: note.to_string(),
    }
}

/// The end-to-end metrics, from the untraced replays.
pub fn end_to_end(untraced: &[&ReplayFigures], setups: &[f64], peak_rss_mb: f64) -> Vec<Reported> {
    let n = untraced.len();
    let pct = |name: &str, p: f64| -> Reported {
        let nearest =
            |r: &ReplayFigures| percentile(&r.latencies_ms, p).expect("a replay completes jobs");
        let (jobs, beyond) = untraced.first().map_or((0, 0), |r| {
            let q = nearest(r);
            (q.samples, q.beyond)
        });
        let note = format!(
            "median over {n} replays of the nearest-rank p{p} of {jobs} job latencies \
             ({beyond} beyond the rank)"
        );
        per_replay(name, "ms", untraced, |r| nearest(r).value, &note)
    };
    let over = format!("median over {n} replays");
    let sim = format!("{over}; simulated, repeats exactly on the in-memory store");
    vec![
        per_replay(
            "jobs_per_s",
            "1/s",
            untraced,
            |r| r.jobs_completed as f64 / r.serving_s,
            &format!("{over} of jobs / (compile + execute-pool + commit wall)"),
        ),
        per_replay(
            "replay_s",
            "s",
            untraced,
            |r| r.replay_s,
            &format!("{over} of the replay call"),
        ),
        pct("job_latency_p50_ms", 50.0),
        pct("job_latency_p99_ms", 99.0),
        Reported {
            name: "setup_s".to_string(),
            unit: "s",
            value: median(setups).unwrap_or(0.0),
            samples: setups.to_vec(),
            note: format!("median over {} workload generations + store opens", setups.len()),
        },
        Reported {
            name: "peak_rss_mb".to_string(),
            unit: "MiB",
            value: peak_rss_mb,
            samples: vec![peak_rss_mb],
            note: "VmHWM after the untraced replays, before the oracle runs".to_string(),
        },
        per_replay("sim_processing_s", "s", untraced, |r| r.sim_processing_s, &sim),
        per_replay("sim_latency_s", "s", untraced, |r| r.sim_latency_s, &sim),
    ]
}

/// The per-layer metrics, from the traced replays, plus the tracing
/// overhead against the untraced ones.
pub fn per_layer(traced: &[&ReplayFigures], untraced: &[&ReplayFigures]) -> Vec<Reported> {
    let Some(first) = traced.first() else {
        return Vec::new();
    };
    let note = format!("median over {} traced replays", traced.len());
    let mut out: Vec<Reported> = first
        .layers
        .iter()
        .enumerate()
        .map(|(i, m)| per_replay(&m.name, m.unit, traced, |r| r.layers[i].value, &note))
        .collect();
    let times = |rs: &[&ReplayFigures]| rs.iter().map(|r| r.replay_s).collect::<Vec<_>>();
    let overhead = match (median(&times(traced)), median(&times(untraced))) {
        (Some(t), Some(u)) if u > 0.0 => t / u,
        _ => 0.0,
    };
    out.push(Reported {
        name: "obs.overhead_ratio".to_string(),
        unit: "ratio",
        value: overhead,
        samples: vec![overhead],
        note: format!(
            "median traced replay_s ({}) / median untraced replay_s ({})",
            traced.len(),
            untraced.len()
        ),
    });
    out
}

pub fn print_table(metrics: &[Reported]) {
    for r in metrics {
        println!(
            "  {:<36} {:>16.6} {:<6} n={:<4} {}",
            r.name,
            r.value,
            r.unit,
            r.samples.len(),
            r.note
        );
    }
}

/// A metric with everything behind it, for the `record:` line.
pub fn record_json(r: &Reported) -> Json {
    let mut m = JsonMap::new();
    m.insert("value", r.value);
    m.insert("unit", r.unit);
    m.insert("samples", r.samples.len() as u64);
    m.insert("values", r.samples.clone());
    if let (Some(lo), Some(hi)) =
        (r.samples.iter().copied().reduce(f64::min), r.samples.iter().copied().reduce(f64::max))
    {
        m.insert("min", lo);
        m.insert("max", hi);
    }
    if let Some((q1, q3)) = quartiles(&r.samples) {
        m.insert("q1", q1);
        m.insert("q3", q3);
    }
    m.insert("note", r.note.as_str());
    Json::Obj(m)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> Json {
    let mut by_name = JsonMap::new();
    for r in metrics {
        let mut m = JsonMap::new();
        m.insert("value", r.value);
        m.insert("unit", r.unit);
        by_name.insert(r.name.as_str(), Json::Obj(m));
    }
    let mut result = JsonMap::new();
    result.insert("correct", correct);
    result.insert("attempted", attempted.max(1));
    result.insert("failed", failed);
    result.insert("metrics", Json::Obj(by_name));
    Json::Obj(result)
}
