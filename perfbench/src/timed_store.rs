//! A timing wrapper around any [`SharedViewStore`].
//!
//! Every trait method delegates to the wrapped store — the ones with
//! default bodies (`is_empty`, `io_stats`, `is_resident`,
//! `read_view_traced`) too — so costing, residency hints and hot/cold read
//! accounting are exactly the wrapped store's. The wrapper only adds wall
//! clocks and call counts around the read, seal and maintenance paths.

use cv_common::ids::{VcId, VersionGuid};
use cv_common::{FaultPlan, Result, Sig128, SimDuration, SimTime};
use cv_data::store_api::{SharedViewStore, StoreIoStats};
use cv_data::table::Table;
use cv_data::viewstore::{
    MaterializedView, ViewReadFault, ViewSource, ViewStoreStats, ViewTemperature,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Call counts and wall time of one store path.
#[derive(Debug, Default)]
struct PathTimer {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl PathTimer {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        // Statistics only: Relaxed publishes nothing else.
        self.ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn snapshot(&self) -> (u64, f64) {
        (self.calls.load(Ordering::Relaxed), self.ns.load(Ordering::Relaxed) as f64 / 1e9)
    }
}

/// What the wrapper saw over one replay.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StoreTimings {
    pub read_calls: u64,
    pub read_s: f64,
    pub insert_calls: u64,
    pub insert_s: f64,
    /// Expiry eviction, input/VC purges and quarantines.
    pub maintenance_s: f64,
    /// Pages the served views span, counted independently of the store's
    /// buffer pool (0 for backends without pages).
    pub page_reads: u64,
}

pub struct TimedStore<'a> {
    inner: &'a dyn SharedViewStore,
    /// Page-backed stores only: pages per sealed view, for `page_reads`.
    paged: bool,
    pages_by_sig: Mutex<HashMap<Sig128, u64>>,
    page_reads: AtomicU64,
    read: PathTimer,
    insert: PathTimer,
    maintenance: PathTimer,
}

impl<'a> TimedStore<'a> {
    pub fn new(inner: &'a dyn SharedViewStore) -> TimedStore<'a> {
        TimedStore {
            inner,
            paged: inner.io_stats().is_some(),
            pages_by_sig: Mutex::new(HashMap::new()),
            page_reads: AtomicU64::new(0),
            read: PathTimer::default(),
            insert: PathTimer::default(),
            maintenance: PathTimer::default(),
        }
    }

    pub fn timings(&self) -> StoreTimings {
        let (read_calls, read_s) = self.read.snapshot();
        let (insert_calls, insert_s) = self.insert.snapshot();
        let (_, maintenance_s) = self.maintenance.snapshot();
        StoreTimings {
            read_calls,
            read_s,
            insert_calls,
            insert_s,
            maintenance_s,
            page_reads: self.page_reads.load(Ordering::Relaxed),
        }
    }

    fn count_pages_served(&self, sig: Sig128) {
        if !self.paged {
            return;
        }
        let pages = self.pages_by_sig.lock().expect("page map lock poisoned").get(&sig).copied();
        self.page_reads.fetch_add(pages.unwrap_or(0), Ordering::Relaxed);
    }
}

impl ViewSource for TimedStore<'_> {
    fn read_view(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<Table>, ViewReadFault> {
        let out = self.read.time(|| self.inner.read_view(sig, now));
        if matches!(out, Ok(Some(_))) {
            self.count_pages_served(sig);
        }
        out
    }

    fn read_view_traced(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<(Table, ViewTemperature)>, ViewReadFault> {
        let out = self.read.time(|| self.inner.read_view_traced(sig, now));
        if matches!(out, Ok(Some(_))) {
            self.count_pages_served(sig);
        }
        out
    }
}

impl SharedViewStore for TimedStore<'_> {
    fn insert(&self, view: MaterializedView) -> Result<()> {
        let sig = view.strict_sig;
        // The durable store encodes a view into this page chain on seal;
        // the same encoding here counts its pages outside the timed call.
        let pages = self.paged.then(|| {
            let blob = cv_store::codec::encode_table(&view.data);
            cv_store::page::chunk_payload(&blob).len() as u64
        });
        let out = self.insert.time(|| self.inner.insert(view));
        if let (Ok(()), Some(pages)) = (&out, pages) {
            self.pages_by_sig.lock().expect("page map lock poisoned").insert(sig, pages);
        }
        out
    }
    fn contains(&self, sig: Sig128) -> bool {
        self.inner.contains(sig)
    }
    fn contains_live(&self, sig: Sig128, now: SimTime) -> bool {
        self.inner.contains_live(sig, now)
    }
    fn is_quarantined(&self, sig: Sig128) -> bool {
        self.inner.is_quarantined(sig)
    }
    fn quarantine(&self, sig: Sig128) -> Result<bool> {
        self.maintenance.time(|| self.inner.quarantine(sig))
    }
    fn peek_meta(&self, sig: Sig128, now: SimTime) -> Option<(u64, u64, f64)> {
        self.inner.peek_meta(sig, now)
    }
    fn observed_work(&self, sig: Sig128) -> Option<f64> {
        self.inner.observed_work(sig)
    }
    fn evict_expired(&self, now: SimTime) -> Result<usize> {
        self.maintenance.time(|| self.inner.evict_expired(now))
    }
    fn purge_input(&self, guid: VersionGuid, now: SimTime) -> Result<usize> {
        self.maintenance.time(|| self.inner.purge_input(guid, now))
    }
    fn purge_vc(&self, vc: VcId, now: SimTime) -> Result<usize> {
        self.maintenance.time(|| self.inner.purge_vc(vc, now))
    }
    fn sigs_with_input(&self, guid: VersionGuid) -> Vec<Sig128> {
        self.inner.sigs_with_input(guid)
    }
    fn stats(&self) -> ViewStoreStats {
        self.inner.stats()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn total_storage(&self) -> u64 {
        self.inner.total_storage()
    }
    fn storage_used(&self, vc: VcId) -> u64 {
        self.inner.storage_used(vc)
    }
    fn n_shards(&self) -> usize {
        self.inner.n_shards()
    }
    fn ttl(&self) -> SimDuration {
        self.inner.ttl()
    }
    fn set_fault_plan(&self, plan: FaultPlan) {
        self.inner.set_fault_plan(plan)
    }
    fn io_stats(&self) -> Option<StoreIoStats> {
        self.inner.io_stats()
    }
    fn is_resident(&self, sig: Sig128) -> bool {
        self.inner.is_resident(sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_data::sharded::ShardedViewStore;
    use cv_store::{DurableStoreOptions, ShardedDurableViewStore};
    use cv_workload::{
        generate_workload, run_workload_service_with_store, DriverConfig, ServiceConfig,
        ServiceObs, ServiceOutcome, Workload, WorkloadConfig,
    };

    fn small_workload() -> Workload {
        generate_workload(WorkloadConfig {
            scale: 0.05,
            n_analytics: 12,
            ..WorkloadConfig::default()
        })
    }

    fn sim_bits(out: &ServiceOutcome) -> Vec<(u64, u64, u64)> {
        out.ledger
            .records()
            .iter()
            .map(|r| {
                let latency = r.result.latency().seconds();
                (r.result.job.0, r.result.processing_seconds.to_bits(), latency.to_bits())
            })
            .collect()
    }

    #[test]
    fn timing_the_store_changes_no_result() {
        let w = small_workload();
        let cfg = DriverConfig::enabled(3);
        let svc = ServiceConfig { workers: 2, ..ServiceConfig::default() };
        let plain_store = ShardedViewStore::new(cfg.view_ttl, svc.store_shards);
        let plain = run_workload_service_with_store(&w, &cfg, &svc, &plain_store, None)
            .expect("untimed replay");

        let inner = ShardedViewStore::new(cfg.view_ttl, svc.store_shards);
        let timed = TimedStore::new(&inner);
        let obs = ServiceObs::new();
        let traced = run_workload_service_with_store(&w, &cfg, &svc, &timed, Some(&obs))
            .expect("timed, traced replay");

        assert_eq!(traced.failed_jobs, 0);
        assert_eq!(traced.result_digests, plain.result_digests);
        assert_eq!(sim_bits(&traced), sim_bits(&plain));
        let t = timed.timings();
        let stats = inner.stats();
        assert!(stats.views_reused > 0, "the workload reuses no view");
        assert_eq!(t.insert_calls, stats.views_created);
        assert!(t.read_calls >= stats.views_reused);
        // The in-memory store has no pages.
        assert_eq!((t.page_reads, timed.io_stats()), (0, None));
    }

    #[test]
    fn page_reads_equal_buffer_pool_hits_plus_misses() {
        // Views of several pages each, so a one-page pool must miss
        // whatever the schedule.
        let w = generate_workload(WorkloadConfig {
            scale: 0.5,
            n_analytics: 12,
            ..WorkloadConfig::default()
        });
        let cfg = DriverConfig::enabled(3);
        // One shard with a one-page pool: most reads go to disk.
        let svc = ServiceConfig { workers: 1, store_shards: 1, ..ServiceConfig::default() };
        let dir = std::env::temp_dir().join(format!("cv-perfbench-pages-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurableStoreOptions { cache_pages: 1, checkpoint_every: 64 };
        let store = ShardedDurableViewStore::open(&dir, cfg.view_ttl, 1, opts).expect("open store");
        let timed = TimedStore::new(&store);
        let out = run_workload_service_with_store(&w, &cfg, &svc, &timed, None).expect("replay");
        let t = timed.timings();
        let io = timed.io_stats().expect("the durable store reports IO");
        drop(timed);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(out.failed_jobs, 0);
        assert!(t.page_reads > 0, "no view page was read");
        assert!(io.page_cache_misses > 0, "a one-page pool never missed: {io:?}, {t:?}");
        assert_eq!(io.page_cache_hits + io.page_cache_misses, t.page_reads);
    }
}
