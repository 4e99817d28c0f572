//! Whole-store persistence.
//!
//! A store snapshot is serialized as JSON (human-inspectable — the
//! "queryable state" deliverable extends to files on disk) containing
//! the WAL; loading replays it. Since the WAL deterministically
//! reconstructs the store, this is both simple and exactly as
//! expressive as serializing the materialized indexes.
//!
//! The JSON shape is `{"version":1,"ops":[...]}` with one object per
//! [`WalOp`], discriminated by an `"op"` field. Values are tagged
//! single-key objects (`{"int":5}`, `{"str":"lobby"}`, …) so every
//! variant round-trips losslessly, floats included. Snapshots written
//! as part of a durable-log checkpoint additionally carry a
//! `"wal_gen"` field naming the log generation that continues them
//! (see [`crate::wal_file`]); readers that predate the field ignore
//! it, and [`load`] tolerates its absence.
//!
//! All file writes here are *atomic*: the bytes land in a temp file in
//! the target directory, are fsynced, and are renamed over the
//! destination — a crash mid-write can never destroy the previous good
//! snapshot.

use crate::fact::Provenance;
use crate::schema::{AttrSchema, Cardinality};
use crate::store::TemporalStore;
use crate::wal::{WalCodec, WalOp};
use fenestra_base::error::{Error, Result};
use fenestra_base::symbol::Symbol;
use fenestra_base::time::{Duration, Timestamp};
use fenestra_base::value::{EntityId, Value};
use serde_json::{Map, Value as Json};
use std::fs;
use std::io::Write;
use std::path::Path;

const FORMAT_VERSION: u64 = 1;

/// Serialize a journal to the snapshot JSON string. `wal_gen` names
/// the log generation that continues this snapshot (pass 0 when no
/// durable log is in play; the field is always written so checkpoint
/// provenance is inspectable).
pub fn ops_to_json(ops: &[WalOp], wal_gen: u64) -> String {
    ops_to_json_inner(ops, wal_gen, None, 0)
}

/// [`ops_to_json`] for one shard of a sharded deployment: the header
/// additionally carries `"shard"` (this partition's index) and
/// `"shards"` (the deployment's shard count), so recovery can reject a
/// restart whose `--shards` does not match the files on disk.
pub fn ops_to_json_sharded(ops: &[WalOp], wal_gen: u64, shard: u32, shards: u32) -> String {
    ops_to_json_inner(ops, wal_gen, Some((shard, shards)), 0)
}

fn ops_to_json_inner(ops: &[WalOp], wal_gen: u64, shard: Option<(u32, u32)>, epoch: u64) -> String {
    let mut root = Map::new();
    root.insert("version".into(), Json::from(FORMAT_VERSION));
    root.insert("wal_gen".into(), Json::from(wal_gen));
    if let Some((shard, shards)) = shard {
        root.insert("shard".into(), Json::from(shard));
        root.insert("shards".into(), Json::from(shards));
    }
    if epoch > 0 {
        root.insert("epoch".into(), Json::from(epoch));
    }
    root.insert(
        "ops".into(),
        Json::Array(ops.iter().map(op_to_json).collect()),
    );
    Json::Object(root).to_string()
}

/// Serialize the store's journal to a JSON string.
pub fn to_json(store: &TemporalStore) -> Result<String> {
    let mut root = Map::new();
    root.insert("version".into(), Json::from(FORMAT_VERSION));
    root.insert(
        "ops".into(),
        Json::Array(store.wal().iter().map(op_to_json).collect()),
    );
    Ok(Json::Object(root).to_string())
}

/// A snapshot parsed together with its metadata.
pub struct LoadedSnapshot {
    /// The reconstructed store.
    pub store: TemporalStore,
    /// The WAL generation continuing this snapshot (0 when the
    /// snapshot predates the durable log or was written without one).
    pub wal_gen: u64,
    /// Number of ops replayed.
    pub op_count: u64,
    /// The shard this snapshot belongs to (`None` for single-shard /
    /// legacy snapshots, which carry no shard header).
    pub shard: Option<u32>,
    /// The shard count of the deployment that wrote the snapshot.
    pub shard_count: Option<u32>,
    /// The replication fencing epoch this snapshot was written under
    /// (0 when the snapshot predates replication or the deployment
    /// never promoted — epoch 0 is the unfenced default and is not
    /// written to the header).
    pub epoch: u64,
}

/// The header of a snapshot, without the replayed store: what a
/// replication leader needs to detect a committed rotation (the
/// snapshot's `wal_gen` is the commit point of segment rotation — the
/// new segment *file* may exist before the snapshot covering the old
/// one landed) and what promotion needs to learn the persisted epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// The WAL generation continuing this snapshot.
    pub wal_gen: u64,
    /// Shard id, when the snapshot is shard-stamped.
    pub shard: Option<u32>,
    /// Shard count, when the snapshot is shard-stamped.
    pub shard_count: Option<u32>,
    /// Replication fencing epoch (0 when absent).
    pub epoch: u64,
    /// Ops in the snapshot (counted, not replayed).
    pub op_count: u64,
}

/// Read only the metadata header of the snapshot at `path` — parses
/// the JSON but does not replay the ops into a store. A missing file
/// surfaces as the underlying I/O error (callers treating "no snapshot
/// yet" as benign should check existence or match on it).
pub fn peek_meta(path: impl AsRef<Path>) -> Result<SnapshotMeta> {
    let json = fs::read_to_string(path)?;
    meta_from_json(&json)
}

/// [`peek_meta`] over bytes already in hand — a replication leader
/// reads the snapshot file once and parses gen/epoch from the *same*
/// bytes it ships, so a concurrent checkpoint can't desynchronize the
/// label from the payload.
pub fn meta_from_json(json: &str) -> Result<SnapshotMeta> {
    let root: Json = serde_json::from_str(json).map_err(|e| Error::Corrupt(e.to_string()))?;
    let version = root
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| corrupt("snapshot missing version"))?;
    if version != FORMAT_VERSION {
        return Err(Error::Corrupt(format!(
            "snapshot version {version} unsupported (expected {FORMAT_VERSION})"
        )));
    }
    Ok(SnapshotMeta {
        wal_gen: root.get("wal_gen").and_then(Json::as_u64).unwrap_or(0),
        shard: root.get("shard").and_then(Json::as_u64).map(|s| s as u32),
        shard_count: root.get("shards").and_then(Json::as_u64).map(|s| s as u32),
        epoch: root.get("epoch").and_then(Json::as_u64).unwrap_or(0),
        op_count: root
            .get("ops")
            .and_then(Json::as_array)
            .map(|a| a.len() as u64)
            .unwrap_or(0),
    })
}

/// Rebuild a store from snapshot JSON, keeping the metadata.
pub fn from_json_with_meta(json: &str) -> Result<LoadedSnapshot> {
    let root: Json = serde_json::from_str(json).map_err(|e| Error::Corrupt(e.to_string()))?;
    let version = root
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| corrupt("snapshot missing version"))?;
    if version != FORMAT_VERSION {
        return Err(Error::Corrupt(format!(
            "snapshot version {version} unsupported (expected {FORMAT_VERSION})"
        )));
    }
    let wal_gen = root.get("wal_gen").and_then(Json::as_u64).unwrap_or(0);
    let shard = root.get("shard").and_then(Json::as_u64).map(|s| s as u32);
    let shard_count = root.get("shards").and_then(Json::as_u64).map(|s| s as u32);
    let ops = root
        .get("ops")
        .and_then(Json::as_array)
        .ok_or_else(|| corrupt("snapshot missing ops array"))?
        .iter()
        .map(op_from_json)
        .collect::<Result<Vec<WalOp>>>()?;
    Ok(LoadedSnapshot {
        store: TemporalStore::replay(&ops)?,
        wal_gen,
        op_count: ops.len() as u64,
        shard,
        shard_count,
        epoch: root.get("epoch").and_then(Json::as_u64).unwrap_or(0),
    })
}

/// Rebuild a store from [`to_json`] output.
pub fn from_json(json: &str) -> Result<TemporalStore> {
    from_json_with_meta(json).map(|l| l.store)
}

/// Write `bytes` to `path` atomically: temp file in the same
/// directory, fsync, rename. The previous file (if any) survives any
/// crash before the rename commits. Public because replication reuses
/// it for shipped snapshot copies and the epoch sidecar file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| Error::Invalid(format!("bad snapshot path {}", path.display())))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let result = (|| -> Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        fs::remove_file(&tmp).ok();
        return result;
    }
    // Make the rename itself durable. Not all platforms allow opening
    // a directory for sync; failing that is not fatal.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Write a JSON snapshot to `path` (atomically).
pub fn save(store: &TemporalStore, path: impl AsRef<Path>) -> Result<()> {
    write_atomic(path.as_ref(), to_json(store)?.as_bytes())
}

/// Write a *compact* JSON snapshot to `path` (atomically): the minimal
/// op sequence for the current state ([`TemporalStore::compact_ops`])
/// rather than the full journal, stamped with the WAL generation that
/// continues it. This is the checkpoint format of the durable log.
pub fn save_compact(store: &TemporalStore, path: impl AsRef<Path>, wal_gen: u64) -> Result<()> {
    write_atomic(
        path.as_ref(),
        ops_to_json(&store.compact_ops(), wal_gen).as_bytes(),
    )
}

/// [`save_compact`] for one shard of a sharded deployment: the
/// snapshot header carries the shard id and shard count (see
/// [`ops_to_json_sharded`]).
pub fn save_compact_sharded(
    store: &TemporalStore,
    path: impl AsRef<Path>,
    wal_gen: u64,
    shard: u32,
    shards: u32,
) -> Result<()> {
    write_atomic(
        path.as_ref(),
        ops_to_json_sharded(&store.compact_ops(), wal_gen, shard, shards).as_bytes(),
    )
}

/// The general compact-checkpoint writer: [`save_compact`] /
/// [`save_compact_sharded`] with the replication fencing `epoch`
/// stamped into the header (omitted when 0, so deployments that never
/// replicate keep byte-identical snapshots). A promoted follower
/// checkpoints through this so its new epoch survives restarts.
pub fn save_compact_stamped(
    store: &TemporalStore,
    path: impl AsRef<Path>,
    wal_gen: u64,
    shard: Option<(u32, u32)>,
    epoch: u64,
) -> Result<()> {
    write_atomic(
        path.as_ref(),
        ops_to_json_inner(&store.compact_ops(), wal_gen, shard, epoch).as_bytes(),
    )
}

/// Load a store from a JSON snapshot at `path`.
pub fn load(path: impl AsRef<Path>) -> Result<TemporalStore> {
    let json = fs::read_to_string(path)?;
    from_json(&json)
}

/// Load a store and its snapshot metadata from `path`.
pub fn load_with_meta(path: impl AsRef<Path>) -> Result<LoadedSnapshot> {
    let json = fs::read_to_string(path)?;
    from_json_with_meta(&json)
}

/// Write a compact binary WAL file to `path` (atomically).
pub fn save_wal(store: &TemporalStore, path: impl AsRef<Path>) -> Result<()> {
    write_atomic(path.as_ref(), &WalCodec::encode(store.wal()))
}

/// Load a store from a binary WAL file at `path`.
pub fn load_wal(path: impl AsRef<Path>) -> Result<TemporalStore> {
    let data = fs::read(path)?;
    let ops = WalCodec::decode(&data)?;
    TemporalStore::replay(&ops)
}

fn corrupt(msg: &str) -> Error {
    Error::Corrupt(msg.to_string())
}

fn op_to_json(op: &WalOp) -> Json {
    let mut m = Map::new();
    match op {
        WalOp::DeclareAttr { attr, schema } => {
            m.insert("op".into(), Json::from("declare_attr"));
            m.insert("attr".into(), Json::from(attr.as_str()));
            m.insert(
                "cardinality".into(),
                Json::from(match schema.cardinality {
                    Cardinality::One => "one",
                    Cardinality::Many => "many",
                }),
            );
            m.insert("keep_history".into(), Json::from(schema.keep_history));
            m.insert(
                "ttl_ms".into(),
                schema
                    .ttl
                    .map(|d| Json::from(d.as_millis()))
                    .unwrap_or(Json::Null),
            );
        }
        WalOp::NewEntity { name } => {
            m.insert("op".into(), Json::from("new_entity"));
            m.insert(
                "name".into(),
                name.map(|n| Json::from(n.as_str())).unwrap_or(Json::Null),
            );
        }
        WalOp::Assert {
            entity,
            attr,
            value,
            t,
            provenance,
        } => {
            m.insert("op".into(), Json::from("assert"));
            m.insert("entity".into(), Json::from(entity.0));
            m.insert("attr".into(), Json::from(attr.as_str()));
            m.insert("value".into(), value_to_json(*value));
            m.insert("t".into(), Json::from(t.0));
            m.insert("provenance".into(), prov_to_json(*provenance));
        }
        WalOp::Retract {
            entity,
            attr,
            value,
            t,
        } => {
            m.insert("op".into(), Json::from("retract"));
            m.insert("entity".into(), Json::from(entity.0));
            m.insert("attr".into(), Json::from(attr.as_str()));
            m.insert("value".into(), value_to_json(*value));
            m.insert("t".into(), Json::from(t.0));
        }
        WalOp::Replace {
            entity,
            attr,
            value,
            t,
            provenance,
        } => {
            m.insert("op".into(), Json::from("replace"));
            m.insert("entity".into(), Json::from(entity.0));
            m.insert("attr".into(), Json::from(attr.as_str()));
            m.insert("value".into(), value_to_json(*value));
            m.insert("t".into(), Json::from(t.0));
            m.insert("provenance".into(), prov_to_json(*provenance));
        }
        WalOp::RetractEntity { entity, t } => {
            m.insert("op".into(), Json::from("retract_entity"));
            m.insert("entity".into(), Json::from(entity.0));
            m.insert("t".into(), Json::from(t.0));
        }
        WalOp::Gc { horizon } => {
            m.insert("op".into(), Json::from("gc"));
            m.insert("horizon".into(), Json::from(horizon.0));
        }
    }
    Json::Object(m)
}

fn op_from_json(v: &Json) -> Result<WalOp> {
    let tag = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| corrupt("WAL op missing \"op\" tag"))?;
    Ok(match tag {
        "declare_attr" => {
            let cardinality = match field_str(v, "cardinality")? {
                "one" => Cardinality::One,
                "many" => Cardinality::Many,
                x => return Err(Error::Corrupt(format!("bad cardinality {x:?}"))),
            };
            let keep_history = v
                .get("keep_history")
                .and_then(Json::as_bool)
                .ok_or_else(|| corrupt("declare_attr missing keep_history"))?;
            let ttl = match v.get("ttl_ms") {
                None | Some(Json::Null) => None,
                Some(ms) => Some(Duration::millis(
                    ms.as_u64().ok_or_else(|| corrupt("bad ttl_ms"))?,
                )),
            };
            WalOp::DeclareAttr {
                attr: Symbol::intern(field_str(v, "attr")?),
                schema: AttrSchema {
                    cardinality,
                    keep_history,
                    ttl,
                },
            }
        }
        "new_entity" => WalOp::NewEntity {
            name: match v.get("name") {
                None | Some(Json::Null) => None,
                Some(n) => Some(Symbol::intern(
                    n.as_str().ok_or_else(|| corrupt("bad entity name"))?,
                )),
            },
        },
        "assert" => WalOp::Assert {
            entity: EntityId(field_u64(v, "entity")?),
            attr: Symbol::intern(field_str(v, "attr")?),
            value: value_from_json(
                v.get("value")
                    .ok_or_else(|| corrupt("assert missing value"))?,
            )?,
            t: Timestamp(field_u64(v, "t")?),
            provenance: prov_from_json(
                v.get("provenance")
                    .ok_or_else(|| corrupt("assert missing provenance"))?,
            )?,
        },
        "retract" => WalOp::Retract {
            entity: EntityId(field_u64(v, "entity")?),
            attr: Symbol::intern(field_str(v, "attr")?),
            value: value_from_json(
                v.get("value")
                    .ok_or_else(|| corrupt("retract missing value"))?,
            )?,
            t: Timestamp(field_u64(v, "t")?),
        },
        "replace" => WalOp::Replace {
            entity: EntityId(field_u64(v, "entity")?),
            attr: Symbol::intern(field_str(v, "attr")?),
            value: value_from_json(
                v.get("value")
                    .ok_or_else(|| corrupt("replace missing value"))?,
            )?,
            t: Timestamp(field_u64(v, "t")?),
            provenance: prov_from_json(
                v.get("provenance")
                    .ok_or_else(|| corrupt("replace missing provenance"))?,
            )?,
        },
        "retract_entity" => WalOp::RetractEntity {
            entity: EntityId(field_u64(v, "entity")?),
            t: Timestamp(field_u64(v, "t")?),
        },
        "gc" => WalOp::Gc {
            horizon: Timestamp(field_u64(v, "horizon")?),
        },
        x => return Err(Error::Corrupt(format!("unknown WAL op {x:?}"))),
    })
}

fn field_str<'a>(v: &'a Json, key: &str) -> Result<&'a str> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| Error::Corrupt(format!("WAL op missing string field {key:?}")))
}

fn field_u64(v: &Json, key: &str) -> Result<u64> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| Error::Corrupt(format!("WAL op missing integer field {key:?}")))
}

fn value_to_json(v: Value) -> Json {
    let (tag, inner) = match v {
        Value::Null => return Json::Null,
        Value::Bool(b) => ("bool", Json::from(b)),
        Value::Int(i) => ("int", Json::from(i)),
        Value::Float(f) => (
            "float",
            serde_json::Number::from_f64(f)
                .map(Json::Number)
                .unwrap_or(Json::Null),
        ),
        Value::Str(s) => ("str", Json::from(s.as_str())),
        Value::Id(e) => ("id", Json::from(e.0)),
        Value::Time(t) => ("time", Json::from(t.0)),
    };
    let mut m = Map::new();
    m.insert(tag.into(), inner);
    Json::Object(m)
}

fn value_from_json(v: &Json) -> Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    let m = v.as_object().ok_or_else(|| corrupt("bad value encoding"))?;
    let (tag, inner) = m.iter().next().ok_or_else(|| corrupt("empty value tag"))?;
    Ok(match tag.as_str() {
        "bool" => Value::Bool(inner.as_bool().ok_or_else(|| corrupt("bad bool"))?),
        "int" => Value::Int(inner.as_i64().ok_or_else(|| corrupt("bad int"))?),
        "float" => Value::Float(inner.as_f64().ok_or_else(|| corrupt("bad float"))?),
        "str" => Value::str(inner.as_str().ok_or_else(|| corrupt("bad str"))?),
        "id" => Value::Id(EntityId(inner.as_u64().ok_or_else(|| corrupt("bad id"))?)),
        "time" => Value::Time(Timestamp(
            inner.as_u64().ok_or_else(|| corrupt("bad time"))?,
        )),
        x => return Err(Error::Corrupt(format!("unknown value tag {x:?}"))),
    })
}

fn prov_to_json(p: Provenance) -> Json {
    match p {
        Provenance::External => Json::from("external"),
        Provenance::Rule(r) => {
            let mut m = Map::new();
            m.insert("rule".into(), Json::from(r.as_str()));
            Json::Object(m)
        }
        Provenance::Derived(r) => {
            let mut m = Map::new();
            m.insert("derived".into(), Json::from(r.as_str()));
            Json::Object(m)
        }
    }
}

fn prov_from_json(v: &Json) -> Result<Provenance> {
    if v.as_str() == Some("external") {
        return Ok(Provenance::External);
    }
    if let Some(r) = v.get("rule").and_then(Json::as_str) {
        return Ok(Provenance::Rule(Symbol::intern(r)));
    }
    if let Some(r) = v.get("derived").and_then(Json::as_str) {
        return Ok(Provenance::Derived(Symbol::intern(r)));
    }
    Err(corrupt("bad provenance encoding"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrSchema;
    use fenestra_base::time::Timestamp;
    use fenestra_base::value::Value;

    fn sample() -> TemporalStore {
        let mut s = TemporalStore::new();
        s.declare_attr("room", AttrSchema::one());
        let v = s.named_entity("visitor");
        s.replace_at(v, "room", "lobby", Timestamp::new(1)).unwrap();
        s.replace_at(v, "room", "lab", Timestamp::new(5)).unwrap();
        s.assert_at(v, "badge", 42i64, Timestamp::new(6)).unwrap();
        s
    }

    #[test]
    fn json_round_trip() {
        let s = sample();
        let json = to_json(&s).unwrap();
        let r = from_json(&json).unwrap();
        let v = r.lookup_entity("visitor").unwrap();
        assert_eq!(r.current().value(v, "room"), Some(Value::str("lab")));
        assert_eq!(r.current().value(v, "badge"), Some(Value::Int(42)));
        assert_eq!(r.history(v, "room").len(), 2);
        assert_eq!(r.stored_fact_count(), s.stored_fact_count());
    }

    #[test]
    fn all_value_and_provenance_variants_round_trip() {
        let mut s = TemporalStore::new();
        let e = s.new_entity();
        s.assert_at(e, "f", 2.5f64, Timestamp::new(1)).unwrap();
        s.assert_at(e, "b", true, Timestamp::new(2)).unwrap();
        s.assert_at(e, "r", Value::Id(e), Timestamp::new(3))
            .unwrap();
        s.assert_at(e, "w", Value::Time(Timestamp::new(9)), Timestamp::new(4))
            .unwrap();
        s.assert_at(e, "n", Value::Null, Timestamp::new(5)).unwrap();
        let r = from_json(&to_json(&s).unwrap()).unwrap();
        assert_eq!(r.wal(), s.wal());
    }

    #[test]
    fn file_round_trip() {
        let s = sample();
        let dir = std::env::temp_dir().join("fenestra-persist-test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("snap.json");
        save(&s, &p).unwrap();
        let r = load(&p).unwrap();
        assert_eq!(r.open_fact_count(), s.open_fact_count());
        fs::remove_file(&p).ok();
    }

    #[test]
    fn binary_wal_round_trip() {
        let s = sample();
        let dir = std::env::temp_dir().join("fenestra-persist-test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("store.wal");
        save_wal(&s, &p).unwrap();
        let r = load_wal(&p).unwrap();
        let v = r.lookup_entity("visitor").unwrap();
        assert_eq!(r.current().value(v, "room"), Some(Value::str("lab")));
        fs::remove_file(&p).ok();
    }

    #[test]
    fn corrupt_json_rejected() {
        assert!(matches!(from_json("{not json"), Err(Error::Corrupt(_))));
        assert!(matches!(
            from_json("{\"version\": 99, \"ops\": []}"),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_snapshot_file_is_corrupt_not_panic() {
        let s = sample();
        let dir = std::env::temp_dir().join("fenestra-persist-test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("truncated-{}.json", std::process::id()));
        save(&s, &p).unwrap();
        // A crash mid-write of a *non-atomic* writer would leave a
        // prefix; loading one must fail cleanly.
        let full = fs::read(&p).unwrap();
        for cut in [1usize, full.len() / 2, full.len() - 2] {
            fs::write(&p, &full[..cut]).unwrap();
            assert!(
                matches!(load(&p), Err(Error::Corrupt(_))),
                "cut at {cut} must be Corrupt"
            );
        }
        fs::remove_file(&p).ok();
    }

    #[test]
    fn atomic_save_replaces_previous_snapshot_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join("fenestra-persist-test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("atomic-{}.json", std::process::id()));
        let old = sample();
        save(&old, &p).unwrap();
        let mut newer = sample();
        let v = newer.lookup_entity("visitor").unwrap();
        newer
            .replace_at(v, "room", "exit", Timestamp::new(9))
            .unwrap();
        save(&newer, &p).unwrap();
        let r = load(&p).unwrap();
        let rv = r.lookup_entity("visitor").unwrap();
        assert_eq!(r.current().value(rv, "room"), Some(Value::str("exit")));
        // No stray temp files from the atomic protocol. Only temp names
        // derived from this test's own file count: sibling tests share
        // the directory and may have their own saves in flight.
        let prefix = format!("atomic-{}.json.tmp.", std::process::id());
        let strays: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
            .collect();
        assert!(strays.is_empty(), "{strays:?}");
        fs::remove_file(&p).ok();
    }

    #[test]
    fn compact_snapshot_carries_wal_gen_and_round_trips() {
        let s = sample();
        let dir = std::env::temp_dir().join("fenestra-persist-test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("compact-{}.json", std::process::id()));
        save_compact(&s, &p, 7).unwrap();
        let loaded = load_with_meta(&p).unwrap();
        assert_eq!(loaded.wal_gen, 7);
        assert!(loaded.op_count > 0);
        let v = loaded.store.lookup_entity("visitor").unwrap();
        assert_eq!(
            loaded.store.current().value(v, "room"),
            Some(Value::str("lab"))
        );
        assert_eq!(
            loaded.store.history(v, "room"),
            s.history(s.lookup_entity("visitor").unwrap(), "room")
        );
        fs::remove_file(&p).ok();
    }

    #[test]
    fn legacy_snapshot_without_wal_gen_loads_as_gen_zero() {
        let s = sample();
        let loaded = from_json_with_meta(&to_json(&s).unwrap()).unwrap();
        assert_eq!(loaded.wal_gen, 0);
        assert!(loaded.op_count > 0);
    }
}

#[cfg(test)]
mod gc_persist_tests {
    use super::*;
    use fenestra_base::time::Timestamp;

    #[test]
    fn gc_does_not_resurrect_on_load() {
        let mut s = TemporalStore::new();
        let e = s.new_entity();
        s.replace_at(e, "room", "a", Timestamp::new(1)).unwrap();
        s.replace_at(e, "room", "b", Timestamp::new(5)).unwrap();
        s.replace_at(e, "room", "c", Timestamp::new(9)).unwrap();
        let reclaimed = s.gc(Timestamp::new(100));
        assert_eq!(reclaimed, 2);
        let loaded = from_json(&to_json(&s).unwrap()).unwrap();
        assert_eq!(
            loaded.stored_fact_count(),
            s.stored_fact_count(),
            "reclaimed history must stay reclaimed after a round trip"
        );
        assert_eq!(loaded.history(e, "room").len(), 1);
    }
}
