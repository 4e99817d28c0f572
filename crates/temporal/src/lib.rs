#![warn(missing_docs)]
//! # fenestra-temporal
//!
//! The **state repository** of the Fenestra system: a temporal fact
//! store in which every state element is "annotated with its time of
//! validity" (Margara et al., EDBT 2017, §3).
//!
//! ## Data model
//!
//! State is a set of EAV facts `(entity, attribute, value)` — a model
//! isomorphic to RDF triples, which keeps the door open for the
//! reasoning component. Each stored fact carries a half-open validity
//! interval `[start, end)`; an open end means *currently valid*.
//!
//! ## Operations
//!
//! * [`TemporalStore::assert_at`] — a fact becomes valid at `t`.
//! * [`TemporalStore::retract_at`] — an open fact stops being valid at
//!   `t` (its interval is closed, the history is kept).
//! * [`TemporalStore::replace_at`] — the paper's invalidation
//!   primitive: "the most recent position *invalidates and updates*
//!   any previous position of the same visitor". Atomically closes all
//!   open facts for `(entity, attribute)` and asserts the new value.
//!
//! ## Queries
//!
//! * [`TemporalStore::current`] — snapshot of the open facts, index
//!   backed.
//! * [`TemporalStore::as_of`] — the state as it was valid at any past
//!   instant (per-`(e,a)` timelines, binary searched).
//! * [`TemporalStore::history`] — the full timeline of an
//!   `(entity, attribute)` pair.
//! * [`TemporalStore::visit_attr_facts`] and
//!   [`TemporalStore::visit_entity_attr_facts`] — every fact of an
//!   attribute (or of one entity's attribute) whose validity overlaps
//!   a range, each timeline cut to the range.
//!
//! ## Durability
//!
//! Every mutation is journaled to a write-ahead [`wal::WalOp`] log
//! that can be encoded to bytes and replayed; full snapshots
//! round-trip through JSON ([`persist`]). [`wal_file`] puts the
//! journal on disk for real: CRC-framed appends with configurable
//! fsync policy, generation-numbered segments rotated at snapshot
//! time, and torn-tail-tolerant crash recovery
//! ([`wal_file::recover`]).

pub mod fact;
pub mod persist;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod timeline;
pub mod wal;
pub mod wal_file;

pub use fact::{AttrId, Fact, FactId, Provenance, StoredFact};
pub use schema::{AttrSchema, Cardinality};
pub use snapshot::{AsOfView, CurrentView};
pub use stats::StoreStats;
pub use store::TemporalStore;
pub use wal::{WalCodec, WalOp};
pub use wal_file::{FsyncPolicy, LogTail, Recovery, WalWriter, WalWriterStats};

pub use fenestra_base::value::EntityId;
