//! In-memory data layer for the CloudViews reproduction.
//!
//! This crate plays the role of the Cosmos store + ADLS in the paper:
//!
//! * typed scalar [`value::Value`]s and [`schema::Schema`]s,
//! * columnar [`column::Column`]s with validity bitmaps, the
//!   [`table::Table`] abstraction the executor operates on, and
//!   [`chunk::chunk_ranges`] — the row ranges a parallel runner's morsels
//!   cover,
//! * a [`catalog::DatasetCatalog`] of *versioned* shared datasets — Cosmos
//!   datasets are bulk-regenerated (never updated in place), each
//!   regeneration minting a fresh GUID that strict signatures hash,
//! * a [`viewstore::ViewStore`] holding materialized common subexpressions
//!   with TTL expiry (paper: one week) and GDPR-driven invalidation.

pub mod bitmap;
pub mod catalog;
pub mod chunk;
pub mod column;
pub mod delta;
pub mod schema;
pub mod sharded;
pub mod store_api;
pub mod table;
pub mod value;
pub mod viewstore;

pub use bitmap::Bitmap;
pub use catalog::{Dataset, DatasetCatalog, DatasetVersion};
pub use chunk::{chunk_ranges, DEFAULT_CHUNK_SIZE};
pub use column::{Column, ColumnBuilder, ColumnData};
pub use delta::{diff_tables, TableDelta};
pub use schema::{Field, Schema, SchemaRef};
pub use sharded::{shard_of, OpenShard, Sharded, ShardedViewStore};
pub use store_api::{SharedViewStore, StoreIoStats};
pub use table::Table;
pub use value::{DataType, Value};
pub use viewstore::{MaterializedView, ViewSource, ViewStore, ViewStoreStats, ViewTemperature};

// Compile-time Send + Sync audit of everything shared across service worker
// threads. A future patch that sneaks `Rc`/`RefCell` (or a raw pointer) into
// these types fails to build rather than failing at the first concurrent run.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Table>();
    assert_send_sync::<SchemaRef>();
    assert_send_sync::<DatasetCatalog>();
    assert_send_sync::<MaterializedView>();
    assert_send_sync::<ViewStore>();
    assert_send_sync::<ShardedViewStore>();
    assert_send_sync::<ViewStoreStats>();
};
