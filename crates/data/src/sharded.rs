//! Signature-striped front over N independently locked view stores.
//!
//! The service layer (cv-service) runs many jobs concurrently against shared
//! reuse state; one lock around the whole store would serialize every view
//! read. [`Sharded`] splits the signature space across N shards, each a
//! complete [`SharedViewStore`] with its own lock, so every single-store
//! semantic — TTL, quarantine, GDPR purge, checksums, fault injection —
//! holds per shard. Fault decisions are keyed purely by signature, so the
//! same fault plan installed in every shard fires identically to one
//! unsharded store.
//!
//! One generic type serves both backends: [`ShardedViewStore`] stripes
//! in-memory [`ViewStore`]s, and cv-store's `ShardedDurableViewStore`
//! stripes disk-backed stores (opened through [`OpenShard`], one
//! `shard-XXX` subdirectory each). Routing is [`shard_of`], a pure function
//! of the signature bits, so a view lands on the same shard index in every
//! run, at any thread count, on either backend.

use crate::store_api::{SharedViewStore, StoreIoStats};
use crate::table::Table;
use crate::viewstore::{
    MaterializedView, ViewReadFault, ViewSource, ViewStore, ViewStoreStats, ViewTemperature,
};
use cv_common::ids::{VcId, VersionGuid};
use cv_common::{FaultPlan, Result, Sig128, SimDuration, SimTime};
use std::path::PathBuf;
use std::sync::RwLock;

/// Default shard count; enough stripes that 8–16 workers rarely collide.
pub const DEFAULT_SHARDS: usize = 16;

/// Deterministic shard routing: the shard index of `sig` among `n_shards`
/// (at least 1).
pub fn shard_of(sig: Sig128, n_shards: usize) -> usize {
    let mixed = (sig.0 as u64) ^ ((sig.0 >> 64) as u64);
    (mixed % n_shards as u64) as usize
}

/// N shard stores behind one signature-routed front. All methods take
/// `&self`; each shard locks internally, so the front is shareable across
/// worker threads behind a plain reference or `Arc`.
#[derive(Debug)]
pub struct Sharded<S> {
    shards: Vec<S>,
}

/// Lock-striped in-memory view store.
pub type ShardedViewStore = Sharded<RwLock<ViewStore>>;

impl<S> Sharded<S> {
    /// The shards: shard `i` serves the signatures [`shard_of`] routes to
    /// `i`.
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    fn shard_for(&self, sig: Sig128) -> &S {
        &self.shards[shard_of(sig, self.shards.len())]
    }
}

impl ShardedViewStore {
    pub fn new(ttl: SimDuration, n_shards: usize) -> ShardedViewStore {
        Sharded { shards: (0..n_shards.max(1)).map(|_| RwLock::new(ViewStore::new(ttl))).collect() }
    }
}

/// A shard store that lives in a directory of its own.
pub trait OpenShard: Sized {
    type Options: Clone;
    /// Open (creating if absent) the shard rooted at `dir`, recovering any
    /// state a previous run left there.
    fn open_shard(dir: PathBuf, ttl: SimDuration, opts: Self::Options) -> Result<Self>;
}

impl<S: OpenShard> Sharded<S> {
    /// Open `n_shards` stores under `dir/shard-XXX`, recovering each.
    pub fn open(
        dir: impl Into<PathBuf>,
        ttl: SimDuration,
        n_shards: usize,
        opts: S::Options,
    ) -> Result<Sharded<S>> {
        let dir = dir.into();
        let shards = (0..n_shards.max(1))
            .map(|i| S::open_shard(dir.join(format!("shard-{i:03}")), ttl, opts.clone()))
            .collect::<Result<Vec<_>>>()?;
        Ok(Sharded { shards })
    }
}

impl<S: SharedViewStore> ViewSource for Sharded<S> {
    fn read_view(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<Table>, ViewReadFault> {
        self.shard_for(sig).read_view(sig, now)
    }

    fn read_view_traced(
        &self,
        sig: Sig128,
        now: SimTime,
    ) -> std::result::Result<Option<(Table, ViewTemperature)>, ViewReadFault> {
        self.shard_for(sig).read_view_traced(sig, now)
    }
}

/// Per-signature calls go to one shard; aggregate calls visit every shard
/// in index order and sum (or merge) what they return.
impl<S: SharedViewStore> SharedViewStore for Sharded<S> {
    fn insert(&self, view: MaterializedView) -> Result<()> {
        self.shard_for(view.strict_sig).insert(view)
    }
    fn contains(&self, sig: Sig128) -> bool {
        self.shard_for(sig).contains(sig)
    }
    fn contains_live(&self, sig: Sig128, now: SimTime) -> bool {
        self.shard_for(sig).contains_live(sig, now)
    }
    fn is_quarantined(&self, sig: Sig128) -> bool {
        self.shard_for(sig).is_quarantined(sig)
    }
    fn quarantine(&self, sig: Sig128) -> Result<bool> {
        self.shard_for(sig).quarantine(sig)
    }
    fn peek_meta(&self, sig: Sig128, now: SimTime) -> Option<(u64, u64, f64)> {
        self.shard_for(sig).peek_meta(sig, now)
    }
    fn observed_work(&self, sig: Sig128) -> Option<f64> {
        self.shard_for(sig).observed_work(sig)
    }
    fn evict_expired(&self, now: SimTime) -> Result<usize> {
        self.shards.iter().map(|s| s.evict_expired(now)).sum()
    }
    fn purge_input(&self, guid: VersionGuid, now: SimTime) -> Result<usize> {
        self.shards.iter().map(|s| s.purge_input(guid, now)).sum()
    }
    fn purge_vc(&self, vc: VcId, now: SimTime) -> Result<usize> {
        self.shards.iter().map(|s| s.purge_vc(vc, now)).sum()
    }
    fn sigs_with_input(&self, guid: VersionGuid) -> Vec<Sig128> {
        let mut out: Vec<Sig128> =
            self.shards.iter().flat_map(|s| s.sigs_with_input(guid)).collect();
        out.sort();
        out
    }
    fn stats(&self) -> ViewStoreStats {
        let mut total = ViewStoreStats::default();
        for s in &self.shards {
            total.merge(&s.stats());
        }
        total
    }
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }
    fn total_storage(&self) -> u64 {
        self.shards.iter().map(|s| s.total_storage()).sum()
    }
    fn storage_used(&self, vc: VcId) -> u64 {
        self.shards.iter().map(|s| s.storage_used(vc)).sum()
    }
    fn n_shards(&self) -> usize {
        self.shards.len()
    }
    fn ttl(&self) -> SimDuration {
        self.shards[0].ttl()
    }
    fn set_fault_plan(&self, plan: FaultPlan) {
        for s in &self.shards {
            s.set_fault_plan(plan.clone());
        }
    }
    fn io_stats(&self) -> Option<StoreIoStats> {
        self.shards.iter().filter_map(|s| s.io_stats()).reduce(|mut total, io| {
            total.merge(&io);
            total
        })
    }
    fn is_resident(&self, sig: Sig128) -> bool {
        self.shard_for(sig).is_resident(sig)
    }
    fn recover_in_place(&self) -> Result<()> {
        self.shards.iter().try_for_each(|s| s.recover_in_place())
    }
    fn checkpoint_now(&self) -> Result<()> {
        self.shards.iter().try_for_each(|s| s.checkpoint_now())
    }
}
