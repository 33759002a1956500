//! The one sharded front, `Sharded<S>`, checked over both of its backends:
//! in-memory shards (`ShardedViewStore`) and durable shards
//! (`ShardedDurableViewStore`). Every check runs once per backend.

use cv_common::ids::{JobId, VcId, VersionGuid};
use cv_common::{Sig128, SimDuration, SimTime};
use cv_data::schema::{Field, Schema};
use cv_data::sharded::{shard_of, Sharded, ShardedViewStore};
use cv_data::store_api::SharedViewStore;
use cv_data::table::Table;
use cv_data::value::{DataType, Value};
use cv_data::viewstore::MaterializedView;
use cv_store::{DurableStoreOptions, ShardedDurableViewStore};
use std::path::PathBuf;

fn view(sig: u128, vc: u64, rows: i64) -> MaterializedView {
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap().into_ref();
    let data = Table::from_rows(
        schema.clone(),
        &(0..rows).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(),
    )
    .unwrap();
    MaterializedView {
        strict_sig: Sig128(sig),
        recurring_sig: Sig128(sig ^ 0xffff),
        schema,
        data,
        rows: 0,
        bytes: 0,
        created: SimTime::EPOCH,
        expires: SimTime::EPOCH,
        creator_job: JobId(1),
        vc: VcId(vc),
        input_guids: vec![VersionGuid(42)],
        observed_work: 10.0,
        checksum: 0,
    }
}

fn ttl() -> SimDuration {
    SimDuration::from_days(7.0)
}

/// A sharded front that also reports which shard holds a signature.
trait Striped: SharedViewStore {
    fn shard_holding(&self, sig: Sig128) -> Option<usize>;
    fn nonempty_shards(&self) -> usize;
}

impl<S: SharedViewStore> Striped for Sharded<S> {
    fn shard_holding(&self, sig: Sig128) -> Option<usize> {
        self.shards().iter().position(|s| s.contains(sig))
    }
    fn nonempty_shards(&self) -> usize {
        self.shards().iter().filter(|s| !s.is_empty()).count()
    }
}

/// A durable store directory, deleted when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("cv-sharded-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open_durable(dir: &TempDir, n_shards: usize) -> ShardedDurableViewStore {
    ShardedDurableViewStore::open(&dir.0, ttl(), n_shards, DurableStoreOptions::default())
        .expect("open durable shards")
}

/// Run `check` against a fresh `n_shards` store of each backend.
fn for_each_backend(tag: &str, n_shards: usize, check: impl Fn(&str, &dyn Striped)) {
    check("memory", &ShardedViewStore::new(ttl(), n_shards));
    let dir = TempDir::new(tag);
    check("durable", &open_durable(&dir, n_shards));
}

#[test]
fn views_distribute_across_shards_and_read_back() {
    for_each_backend("distribute", 4, |backend, store| {
        for sig in 1..=64u128 {
            store.insert(view(sig, 0, 3)).unwrap();
        }
        assert_eq!(store.len(), 64, "{backend}");
        for sig in 1..=64u128 {
            assert!(store.read_view(Sig128(sig), SimTime::EPOCH).unwrap().is_some(), "{backend}");
        }
        let stats = store.stats();
        assert_eq!((stats.views_created, stats.views_reused), (64, 64), "{backend}");
        assert!(store.nonempty_shards() > 1, "{backend}: only one shard used");
    });
}

#[test]
fn routing_is_deterministic() {
    for_each_backend("routing", 8, |backend, store| {
        for sig in 1..=32u128 {
            store.insert(view(sig, 0, 2)).unwrap();
            let want = shard_of(Sig128(sig), 8);
            assert_eq!(store.shard_holding(Sig128(sig)), Some(want), "{backend} sig {sig}");
        }
    });
}

#[test]
fn both_backends_route_a_signature_to_the_same_shard() {
    // Signatures spread over all 128 bits, so both halves feed the routing.
    let sigs: Vec<Sig128> = (1..=48u128)
        .map(|i| Sig128(i.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c834)))
        .collect();
    let memory = ShardedViewStore::new(ttl(), 8);
    let dir = TempDir::new("parity");
    let durable = open_durable(&dir, 8);
    for sig in &sigs {
        memory.insert(view(sig.0, 0, 2)).unwrap();
        durable.insert(view(sig.0, 0, 2)).unwrap();
    }
    let shards_of = |store: &dyn Striped| -> Vec<Option<usize>> {
        sigs.iter().map(|&sig| store.shard_holding(sig)).collect()
    };
    let on_memory = shards_of(&memory);
    assert_eq!(on_memory, shards_of(&durable));
    assert!(memory.nonempty_shards() > 1, "the signatures all routed to one shard");
    // A reopened directory recovers every view into the shard it left.
    drop(durable);
    assert_eq!(on_memory, shards_of(&open_durable(&dir, 8)));
}

#[test]
fn quarantine_and_purge_span_shards() {
    for_each_backend("purge", 4, |backend, store| {
        for sig in 1..=16u128 {
            store.insert(view(sig, 3, 3)).unwrap();
        }
        assert!(store.quarantine(Sig128(5)).unwrap(), "{backend}");
        assert!(store.is_quarantined(Sig128(5)), "{backend}");
        assert!(store.read_view(Sig128(5), SimTime::EPOCH).unwrap().is_none(), "{backend}");
        // A quarantined signature is silently dropped on re-insert.
        store.insert(view(5, 3, 3)).unwrap();
        assert!(!store.contains(Sig128(5)), "{backend}");
        assert_eq!(store.len(), 15, "{backend}");
        // All remaining views share input GUID 42; GDPR purges them all.
        assert_eq!(store.sigs_with_input(VersionGuid(42)).len(), 15, "{backend}");
        assert_eq!(store.purge_input(VersionGuid(42), SimTime::EPOCH).unwrap(), 15, "{backend}");
        assert_eq!((store.len(), store.storage_used(VcId(3))), (0, 0), "{backend}");
    });
}

#[test]
fn concurrent_readers_and_writers_smoke() {
    for_each_backend("concurrent", 8, |backend, store| {
        std::thread::scope(|s| {
            for t in 0..4u128 {
                s.spawn(move || {
                    for i in 0..25u128 {
                        let sig = t * 100 + i + 1;
                        store.insert(view(sig, t as u64, 2)).unwrap();
                        let read = store.read_view(Sig128(sig), SimTime::EPOCH).unwrap();
                        assert!(read.is_some(), "{backend}");
                    }
                });
            }
        });
        assert_eq!(store.len(), 100, "{backend}");
        let stats = store.stats();
        assert_eq!((stats.views_created, stats.views_reused), (100, 100), "{backend}");
    });
}
