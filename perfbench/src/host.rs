//! The host record printed with every result: revision, date, advertised
//! threads, and the parallelism two CPU-bound threads actually get.

use cv_common::json;
use cv_common::json::Json;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

#[derive(Clone, Debug)]
pub struct HostRecord {
    /// Commit of the measured tree, or "unknown" outside a git checkout.
    pub git_rev: String,
    /// UTC timestamp, ISO 8601.
    pub date: String,
    /// `std::thread::available_parallelism()`.
    pub nproc: usize,
    /// 2 × (one spin alone) ÷ (two spins at once): 2.0 on two free cores,
    /// 1.0 when two threads share one core.
    pub effective_parallelism: f64,
}

impl HostRecord {
    pub fn to_json(&self) -> Json {
        json!({
            "git_rev": self.git_rev.as_str(),
            "date": self.date.as_str(),
            "nproc": self.nproc as u64,
            "effective_parallelism": self.effective_parallelism,
        })
    }

    pub fn measure() -> HostRecord {
        HostRecord {
            git_rev: git_rev(Path::new(".")),
            date: utc_iso8601(SystemTime::now()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            effective_parallelism: effective_parallelism(),
        }
    }
}

/// Resolve `HEAD` from the `.git` directory without running git.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Format a system time as `YYYY-MM-DDTHH:MM:SSZ`.
pub fn utc_iso8601(t: SystemTime) -> String {
    let secs = t.duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let (y, m, d) = civil_from_days(days as i64);
    format!("{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z", rem / 3600, rem % 3600 / 60, rem % 60)
}

/// Days since 1970-01-01 → (year, month, day), proleptic Gregorian
/// (Howard Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = yoe + era * 400 + i64::from(m <= 2);
    (y, m, d)
}

/// A fixed amount of integer work that the compiler cannot fold away.
fn spin(iters: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x)
}

fn time_spin(iters: u64) -> Duration {
    let started = Instant::now();
    spin(iters);
    started.elapsed()
}

/// Calibrate a spin to ~40 ms on one thread, then compare the best of three
/// single runs against the best of three runs of two concurrent copies.
fn effective_parallelism() -> f64 {
    let mut iters = 1u64 << 16;
    while time_spin(iters) < Duration::from_millis(40) && iters < 1 << 34 {
        iters *= 2;
    }
    let single = (0..3).map(|_| time_spin(iters)).min().expect("three runs");
    let pair = (0..3)
        .map(|_| {
            let started = Instant::now();
            std::thread::scope(|s| {
                let a = s.spawn(|| spin(iters));
                let b = s.spawn(|| spin(iters));
                a.join().expect("spin thread panicked");
                b.join().expect("spin thread panicked");
            });
            started.elapsed()
        })
        .min()
        .expect("three runs");
    2.0 * single.as_secs_f64() / pair.as_secs_f64().max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates_round_trip_known_days() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(59), (1970, 3, 1));
        assert_eq!(civil_from_days(11_016), (2000, 2, 29));
        let t = UNIX_EPOCH + Duration::from_secs(1_792_222_000);
        assert_eq!(utc_iso8601(t), "2026-10-17T07:26:40Z");
    }
}
