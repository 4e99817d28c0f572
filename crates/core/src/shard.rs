//! Keyed state partitions: N engines behind one facade.
//!
//! [`ShardedEngine`] owns N independent [`Engine`]s and routes every
//! event to exactly one of them by a deterministic hash of the event's
//! *entity key* — the field its stream's rules use to name the entity
//! they write. Because a routable rule touches only the entity named
//! by that field, all state for one entity lives on one shard, queries
//! can fan out and merge, and each shard can persist/recover its
//! partition independently (see `fenestra_temporal::wal_file`).
//!
//! Rules whose matches can cross entities — pattern triggers, fixed
//! [`EntityRef::Named`] targets, computed entity expressions, or two
//! rules keying the same stream by different fields — are **rejected**
//! at registration time with a diagnostic when `shards > 1`. Run with
//! one shard to use them; with `shards == 1` the facade is a passthrough
//! and behaves exactly like a bare [`Engine`].

use crate::config::EngineConfig;
use crate::engine::{Engine, QueryResult};
use crate::EngineMetrics;
use fenestra_base::error::{Error, Result};
use fenestra_base::expr::Expr;
use fenestra_base::record::{Event, StreamId};
use fenestra_base::symbol::Symbol;
use fenestra_base::time::Timestamp;
use fenestra_base::value::Value;
use fenestra_query::{PhysicalPlan, Query, QueryOptions};
use fenestra_rules::rule::{Action, EntityRef, Guard, Trigger};
use fenestra_rules::StateRule;
use fenestra_temporal::AttrSchema;
use std::collections::HashMap;

/// Default shard count for servers: one per core, capped at 8 (beyond
/// that the WAL fsync path, not the engine, is the bottleneck).
pub fn default_shards() -> u32 {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(1);
    cores.clamp(1, 8)
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit over a byte stream. Chosen over `DefaultHasher`
/// because the mapping key→shard is **persistent**: shard-addressed
/// WAL segments on disk must route the same way after every restart
/// and across versions, so the hash must be fixed, not
/// implementation-defined.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash a value by *content* (never by interned symbol id, which
/// depends on interning order and would differ across processes).
fn hash_value(v: &Value) -> u64 {
    match v {
        Value::Null => fnv1a(*b"n"),
        Value::Bool(b) => fnv1a([b'b', *b as u8]),
        Value::Int(i) => fnv1a(b"i".iter().copied().chain(i.to_le_bytes())),
        Value::Float(f) => {
            let bits = if f.is_nan() {
                f64::NAN.to_bits()
            } else if *f == 0.0 {
                0u64 // -0.0 == 0.0
            } else {
                f.to_bits()
            };
            fnv1a(b"f".iter().copied().chain(bits.to_le_bytes()))
        }
        Value::Str(s) => fnv1a(b"s".iter().copied().chain(s.as_str().bytes())),
        Value::Id(id) => fnv1a(b"d".iter().copied().chain(id.0.to_le_bytes())),
        Value::Time(t) => fnv1a(b"t".iter().copied().chain(t.millis().to_le_bytes())),
    }
}

/// Decides which shard an event belongs to.
///
/// The router learns one *routing field* per stream from the rules
/// registered against it ([`ShardRouter::observe_rule`]): the event
/// field every rule on that stream uses to name its entity. Events on
/// a routed stream hash that field's value; events on streams no rule
/// keys (or missing the field — the rule errors identically on any
/// shard) hash the stream name, so they still land deterministically.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    shards: u32,
    /// stream → the field its rules key entities by.
    keys: HashMap<StreamId, Symbol>,
}

impl ShardRouter {
    /// A router over `shards` partitions.
    pub fn new(shards: u32) -> ShardRouter {
        ShardRouter {
            shards: shards.max(1),
            keys: HashMap::new(),
        }
    }

    /// Number of partitions.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Learn (and validate) a rule's routing implications. With more
    /// than one shard, every entity the rule touches must be named by
    /// one event field, consistent across all rules on the stream;
    /// anything that could make a rule's matches span entities on
    /// different shards is rejected with a diagnostic.
    pub fn observe_rule(&mut self, rule: &StateRule) -> Result<()> {
        if self.shards <= 1 {
            return Ok(());
        }
        let stream = match &rule.trigger {
            Trigger::Event { stream, .. } => *stream,
            Trigger::Pattern(_) => {
                return Err(Error::Invalid(format!(
                    "rule `{}` uses a pattern trigger; pattern matches can span \
                     entities on different shards and cannot be partitioned — \
                     run with --shards 1 to use pattern rules",
                    rule.name
                )));
            }
        };
        let mut field: Option<Symbol> = None;
        let mut observe = |entity: &EntityRef| -> Result<()> {
            let f = match entity {
                EntityRef::Expr(Expr::Name(f)) => *f,
                EntityRef::Named(n) => {
                    return Err(Error::Invalid(format!(
                        "rule `{}` targets the fixed entity `{}`; events from every \
                         shard would write to it — run with --shards 1, or key the \
                         entity by an event field",
                        rule.name, n
                    )));
                }
                EntityRef::Expr(_) => {
                    return Err(Error::Invalid(format!(
                        "rule `{}` names its entity with a computed expression; \
                         routing needs a plain event field (e.g. `$(user)`) — run \
                         with --shards 1 to use computed entity names",
                        rule.name
                    )));
                }
            };
            match field {
                None => field = Some(f),
                Some(prev) if prev != f => {
                    return Err(Error::Invalid(format!(
                        "rule `{}` touches entities keyed by both `{}` and `{}`; \
                         they may live on different shards — run with --shards 1 \
                         or split the rule per key",
                        rule.name, prev, f
                    )));
                }
                Some(_) => {}
            }
            Ok(())
        };
        for g in &rule.guards {
            match g {
                Guard::StateEquals { entity, .. }
                | Guard::StateExists { entity, .. }
                | Guard::StateAbsent { entity, .. } => observe(entity)?,
                Guard::Expr(_) => {}
            }
        }
        for a in &rule.actions {
            match a {
                Action::Assert { entity, .. }
                | Action::Retract { entity, .. }
                | Action::Replace { entity, .. }
                | Action::RetractEntity { entity } => observe(entity)?,
            }
        }
        let Some(f) = field else {
            // No state touched: the rule can fire wherever its events
            // land; it constrains nothing.
            return Ok(());
        };
        match self.keys.get(&stream) {
            None => {
                self.keys.insert(stream, f);
            }
            Some(prev) if *prev != f => {
                return Err(Error::Invalid(format!(
                    "rule `{}` keys stream `{}` by `{}`, but an earlier rule keys \
                     it by `{}`; one stream routes by one field — run with \
                     --shards 1 or align the rules on one key",
                    rule.name, stream, f, prev
                )));
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// The shard `ev` belongs to.
    pub fn route(&self, ev: &Event) -> u32 {
        if self.shards <= 1 {
            return 0;
        }
        let h = match self.keys.get(&ev.stream).and_then(|f| ev.record.get(*f)) {
            Some(key) => hash_value(key),
            // Unrouted stream, or the key field is absent (the rule
            // will error identically wherever the event lands): spread
            // by stream name, still deterministically.
            None => fnv1a(b"s".iter().copied().chain(ev.stream.as_str().bytes())),
        };
        (h % self.shards as u64) as u32
    }
}

// ---------------------------------------------------------------------------
// The sharded engine
// ---------------------------------------------------------------------------

/// N keyed [`Engine`] partitions behind the single-engine surface.
///
/// Setup calls (`declare_attr`, `add_rule`, `watch`, …) fan out to
/// every shard; events route to exactly one shard by entity key;
/// queries fan out and merge. With `shards == 1` every call is a plain
/// delegation, so behavior — including query byte-for-byte output and
/// on-disk state — is identical to an unsharded [`Engine`].
pub struct ShardedEngine {
    router: ShardRouter,
    shards: Vec<Engine>,
}

impl ShardedEngine {
    /// `n` engines with identical configuration (`n == 0` is clamped
    /// to 1).
    pub fn new(config: EngineConfig, n: u32) -> ShardedEngine {
        let n = n.max(1);
        ShardedEngine {
            router: ShardRouter::new(n),
            shards: (0..n).map(|_| Engine::new(config)).collect(),
        }
    }

    /// Number of partitions.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The router (for callers that split batches themselves, e.g. the
    /// server's connection threads).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// One partition, read-only.
    pub fn shard(&self, i: u32) -> &Engine {
        &self.shards[i as usize]
    }

    /// One partition, mutable (the server's per-shard threads each own
    /// one engine; this accessor serves tests and single-threaded use).
    pub fn shard_mut(&mut self, i: u32) -> &mut Engine {
        &mut self.shards[i as usize]
    }

    /// Tear the facade apart into its router and engines (the server
    /// moves each engine onto its own thread).
    pub fn into_parts(self) -> (ShardRouter, Vec<Engine>) {
        (self.router, self.shards)
    }

    // ----- setup (fan-out) --------------------------------------------------

    /// Declare an attribute on every shard.
    pub fn declare_attr(&mut self, attr: impl Into<Symbol>, schema: AttrSchema) {
        let attr = attr.into();
        for s in &mut self.shards {
            s.declare_attr(attr, schema);
        }
    }

    /// Register a rule on every shard. With `shards > 1` the rule must
    /// be routable (see [`ShardRouter::observe_rule`]).
    pub fn add_rule(&mut self, rule: StateRule) -> Result<()> {
        self.router.observe_rule(&rule)?;
        for s in &mut self.shards {
            s.add_rule(rule.clone())?;
        }
        Ok(())
    }

    /// Parse and register DSL rules on every shard.
    pub fn add_rules_text(&mut self, src: &str) -> Result<usize> {
        let rules = fenestra_rules::dsl::parse_rules(src)?;
        let n = rules.len();
        for r in rules {
            self.add_rule(r)?;
        }
        Ok(n)
    }

    /// Register a standing query on every shard; each shard publishes
    /// deltas for its partition of the rows.
    pub fn watch(
        &mut self,
        name: impl Into<Symbol>,
        query_text: &str,
        stream: impl Into<Symbol>,
    ) -> Result<()> {
        let name = name.into();
        let stream = stream.into();
        for s in &mut self.shards {
            s.watch(name, query_text, stream)?;
        }
        Ok(())
    }

    // ----- runtime ----------------------------------------------------------

    /// Route one event to its shard. Returns `false` if dropped late.
    pub fn push(&mut self, ev: Event) -> bool {
        let shard = self.router.route(&ev);
        self.shards[shard as usize].push(ev)
    }

    /// Split a batch by route (preserving arrival order within each
    /// shard) and push each piece. Returns events dropped as late.
    pub fn push_batch(&mut self, events: impl IntoIterator<Item = Event>) -> u64 {
        if self.shards.len() == 1 {
            return self.shards[0].push_batch(events);
        }
        let mut parts: Vec<Vec<Event>> = vec![Vec::new(); self.shards.len()];
        for ev in events {
            parts[self.router.route(&ev) as usize].push(ev);
        }
        let mut late = 0;
        for (s, part) in self.shards.iter_mut().zip(parts) {
            if !part.is_empty() {
                late += s.push_batch(part);
            }
        }
        late
    }

    /// Flush every shard's reorder buffer.
    pub fn finish(&mut self) {
        for s in &mut self.shards {
            s.finish();
        }
    }

    /// GC every shard; returns total facts reclaimed.
    pub fn gc(&mut self, horizon: Timestamp) -> usize {
        self.shards.iter_mut().map(|s| s.gc(horizon)).sum()
    }

    /// Drain every shard's journal, concatenated in shard order. (The
    /// server drains shards individually into per-shard WALs instead.)
    pub fn take_journal(&mut self) -> Vec<fenestra_temporal::WalOp> {
        self.shards
            .iter_mut()
            .flat_map(|s| s.take_journal())
            .collect()
    }

    /// The oldest buffered timestamp across all shards (`None` when
    /// every shard's reorder buffer is empty).
    pub fn buffered_low_ts(&self) -> Option<Timestamp> {
        self.shards.iter().filter_map(|s| s.buffered_low_ts()).min()
    }

    // ----- persistence ------------------------------------------------------

    /// Save every shard's state. With one shard this writes the legacy
    /// single-file snapshot at `path`; with N it writes
    /// `path.shard{i}` files stamped with their shard identity, which
    /// [`ShardedEngine::load_state`] validates on the way back in.
    pub fn save_state(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let path = path.as_ref();
        if self.shards.len() == 1 {
            return self.shards[0].save_state(path);
        }
        let n = self.shards.len() as u32;
        for (i, s) in self.shards.iter().enumerate() {
            fenestra_temporal::persist::save_compact_sharded(
                &s.store(),
                fenestra_temporal::wal_file::shard_snapshot_path(path, i as u32),
                0,
                i as u32,
                n,
            )?;
        }
        Ok(())
    }

    /// Load state saved by [`ShardedEngine::save_state`] with the same
    /// shard count. Fails before touching any shard if a snapshot
    /// belongs to a different partition layout.
    pub fn load_state(&mut self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let path = path.as_ref();
        if self.shards.len() == 1 {
            return self.shards[0].load_state(path);
        }
        let n = self.shards.len() as u32;
        let mut loaded = Vec::with_capacity(self.shards.len());
        for i in 0..n {
            let shard_path = fenestra_temporal::wal_file::shard_snapshot_path(path, i);
            let snap = fenestra_temporal::persist::load_with_meta(&shard_path)?;
            if snap.shard != Some(i) || snap.shard_count != Some(n) {
                return Err(Error::Invalid(format!(
                    "snapshot {} belongs to shard {:?} of {:?}, expected shard {} of {}; \
                     restart with the shard count that wrote it",
                    shard_path.display(),
                    snap.shard,
                    snap.shard_count,
                    i,
                    n
                )));
            }
            loaded.push(snap.store);
        }
        for (s, store) in self.shards.iter_mut().zip(loaded) {
            s.restore_state(store)?;
        }
        Ok(())
    }

    // ----- queries ----------------------------------------------------------

    /// Execute a textual query, fanning out across shards and merging.
    pub fn query(&self, src: &str) -> Result<QueryResult> {
        self.query_with(src, QueryOptions::default())
    }

    /// Execute a textual query with options: compile to a plan, then
    /// run it through [`ShardedEngine::execute_plan`] — plans are the
    /// only query path.
    pub fn query_with(&self, src: &str, opts: QueryOptions) -> Result<QueryResult> {
        let plan = fenestra_query::compile(src)?;
        self.execute_plan(&plan, opts)
    }

    /// Execute a compiled plan across the shards.
    ///
    /// With one shard this is a plain delegation (byte-identical
    /// results). With N, select plans run on every shard with
    /// `limit`/`count` stripped, entity ids are resolved to names
    /// (ids are shard-local and would collide), and the merged rows
    /// are re-sorted, deduplicated, and re-limited/counted; history
    /// plans merge every shard's spans for the entity name by
    /// `(validity start, shard, seq)` (see [`merge_history`]); window
    /// plans collect facts per shard and aggregate the merged batch.
    pub fn execute_plan(
        &self,
        plan: &fenestra_query::CachedPlan,
        opts: QueryOptions,
    ) -> Result<QueryResult> {
        if self.shards.len() == 1 {
            return self.shards[0].execute_plan(plan, opts);
        }
        match &plan.physical {
            PhysicalPlan::Select { query } => Ok(QueryResult::Rows(merge_select(
                query,
                opts,
                self.shards.iter().map(|s| s.store()),
            )?)),
            PhysicalPlan::History { entity, attr } => {
                let mut parts = Vec::new();
                for s in &self.shards {
                    let store = s.store();
                    if let Some(e) = store.lookup_entity(*entity) {
                        parts.push(store.history(e, *attr));
                    }
                }
                if parts.is_empty() {
                    return Err(Error::Invalid(format!("unknown entity `{entity}`")));
                }
                Ok(QueryResult::History(merge_history(parts)))
            }
            PhysicalPlan::WindowAgg(w) => {
                let batches = self
                    .shards
                    .iter()
                    .map(|s| w.collect_facts(&s.store()))
                    .collect::<Result<Vec<_>>>()?;
                Ok(QueryResult::Rows(w.aggregate(
                    fenestra_query::WindowPhys::merge_fact_batches(batches),
                )?))
            }
        }
    }

    // ----- introspection ----------------------------------------------------

    /// Counters summed across shards.
    pub fn metrics(&self) -> EngineMetrics {
        let mut m = EngineMetrics::default();
        for s in &self.shards {
            m.merge(&s.metrics());
        }
        m
    }

    /// Each shard's own counters, in shard order.
    pub fn per_shard_metrics(&self) -> Vec<EngineMetrics> {
        self.shards.iter().map(|s| s.metrics()).collect()
    }

    /// Number of registered rules (identical on every shard).
    pub fn rule_count(&self) -> usize {
        self.shards[0].rule_count()
    }
}

/// One shard's contribution to a fanned-out select: run the query with
/// `limit`/`count` stripped (a shard's top-k is not the global top-k)
/// and shard-local entity ids resolved to their names (ids collide
/// across shards; names don't). The caller merges with [`merge_rows`].
pub fn partial_select(
    store: &fenestra_temporal::TemporalStore,
    q: &Query,
    opts: QueryOptions,
) -> Result<Vec<fenestra_query::Bindings>> {
    let mut inner = q.clone();
    inner.count_only = false;
    inner.limit = None;
    let mut rows = fenestra_query::exec::execute_with(store, &inner, opts)?;
    for row in &mut rows {
        for (_, v) in row.iter_mut() {
            if let Value::Id(e) = v {
                if let Some(name) = store.entity_name(*e) {
                    *v = Value::Str(name);
                }
            }
        }
    }
    Ok(rows)
}

/// Merge [`partial_select`] results: sort + dedup globally, then
/// re-apply the original query's `limit` and `count` — the same tail
/// `execute_with` applies per store.
pub fn merge_rows(
    q: &Query,
    parts: impl IntoIterator<Item = Vec<fenestra_query::Bindings>>,
) -> Vec<fenestra_query::Bindings> {
    let mut rows: Vec<fenestra_query::Bindings> = parts.into_iter().flatten().collect();
    rows.sort();
    rows.dedup();
    if let Some(n) = q.limit {
        rows.truncate(n);
    }
    if q.count_only {
        return vec![vec![(
            Symbol::intern("count"),
            Value::Int(rows.len() as i64),
        )]];
    }
    rows
}

/// Merge per-shard history timelines for one `(entity, attribute)`
/// into a single timeline ordered by validity start, with a
/// deterministic tiebreak: spans starting at the same instant keep
/// `(shard id, per-shard seq)` order. The sort is stable and `parts`
/// arrives in shard order with each shard's spans already in validity
/// order, so stability *is* the tiebreak.
pub fn merge_history(
    parts: Vec<
        Vec<(
            fenestra_base::time::Interval,
            Value,
            fenestra_temporal::Provenance,
        )>,
    >,
) -> Vec<(
    fenestra_base::time::Interval,
    Value,
    fenestra_temporal::Provenance,
)> {
    let mut all: Vec<_> = parts.into_iter().flatten().collect();
    all.sort_by_key(|(interval, _, _)| interval.start);
    all
}

/// Run a select on every shard's store and merge.
pub fn merge_select(
    q: &Query,
    opts: QueryOptions,
    stores: impl Iterator<Item = impl std::ops::Deref<Target = fenestra_temporal::TemporalStore>>,
) -> Result<Vec<fenestra_query::Bindings>> {
    let parts = stores
        .map(|store| partial_select(&store, q, opts))
        .collect::<Result<Vec<_>>>()?;
    Ok(merge_rows(q, parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenestra_base::record::Event;

    fn ev(ts: u64, visitor: &str, room: &str) -> Event {
        Event::from_pairs(
            "moves",
            ts,
            [("visitor", Value::str(visitor)), ("room", Value::str(room))],
        )
    }

    const RULES: &str = "rule mv:\n  on moves\n  replace $(visitor).room = room\n";

    fn sharded(n: u32) -> ShardedEngine {
        let mut e = ShardedEngine::new(EngineConfig::default(), n);
        e.add_rules_text(RULES).unwrap();
        e
    }

    #[test]
    fn routing_is_deterministic_and_covers_all_shards() {
        let e = sharded(4);
        let mut hit = [false; 4];
        for i in 0..64 {
            let a = e.router().route(&ev(1, &format!("v{i}"), "r"));
            let b = e.router().route(&ev(2, &format!("v{i}"), "q"));
            assert_eq!(a, b, "same key must route identically");
            hit[a as usize] = true;
        }
        assert!(hit.iter().all(|h| *h), "64 keys should cover 4 shards");
    }

    /// Resolve shard-local entity ids to names, the same normalization
    /// the sharded merge (and the wire layer) applies before rows
    /// leave the engine.
    fn resolved(e: &ShardedEngine, r: QueryResult) -> QueryResult {
        let QueryResult::Rows(mut rows) = r else {
            return r;
        };
        for row in &mut rows {
            for (_, v) in row.iter_mut() {
                if let Value::Id(id) = v {
                    if let Some(name) = e.shard(0).store().entity_name(*id) {
                        *v = Value::Str(name);
                    }
                }
            }
        }
        rows.sort();
        QueryResult::Rows(rows)
    }

    #[test]
    fn sharded_queries_match_a_single_engine() {
        let mut one = sharded(1);
        let mut four = sharded(4);
        for i in 0..40u64 {
            let e = ev(i, &format!("v{}", i % 10), &format!("r{}", i % 3));
            one.push(e.clone());
            four.push(e);
        }
        one.finish();
        four.finish();
        for q in [
            "select ?v ?r where { ?v room ?r }",
            "select ?v where { ?v room \"r1\" }",
            "select count ?v where { ?v room ?r }",
        ] {
            assert_eq!(
                resolved(&one, one.query(q).unwrap()),
                four.query(q).unwrap(),
                "query `{q}` diverged"
            );
        }
        // A limited query has the same rows once both sides are
        // resolved and re-sorted (the limit picks the same top-k only
        // in resolved order, which is what the sharded side returns).
        let lim = "select ?v ?r where { ?v room ?r } limit 3";
        assert_eq!(four.query(lim).unwrap().len(), 3);
        let h1 = one.query("history v3 room").unwrap();
        let h4 = four.query("history v3 room").unwrap();
        assert_eq!(h1, h4);
        assert_eq!(one.metrics().events, four.metrics().events);
        assert_eq!(one.metrics().transitions, four.metrics().transitions);
    }

    #[test]
    fn merge_history_orders_by_start_with_shard_seq_tiebreak() {
        use fenestra_base::time::Interval;
        use fenestra_temporal::Provenance;
        let span = |start: u64, end: Option<u64>, v: &str| {
            (
                Interval {
                    start: Timestamp::new(start),
                    end: end.map(Timestamp::new),
                },
                Value::str(v),
                Provenance::External,
            )
        };
        // Shard 0 and shard 1 both hold spans; starts interleave and
        // collide at t=20.
        let shard0 = vec![span(10, Some(20), "a"), span(20, Some(40), "b")];
        let shard1 = vec![span(5, Some(20), "x"), span(20, None, "y")];
        let merged = merge_history(vec![shard0, shard1]);
        let starts: Vec<u64> = merged.iter().map(|(iv, _, _)| iv.start.millis()).collect();
        assert_eq!(starts, vec![5, 10, 20, 20], "global validity order");
        // Equal starts keep (shard, seq) order: shard 0's span first.
        assert_eq!(merged[2].1, Value::str("b"));
        assert_eq!(merged[3].1, Value::str("y"));
        // Merging a single shard's timeline is the identity.
        let solo = vec![span(1, Some(2), "p"), span(2, None, "q")];
        assert_eq!(merge_history(vec![solo.clone()]), solo);
    }

    #[test]
    fn cross_entity_rules_are_rejected_with_a_diagnostic() {
        let mut e = ShardedEngine::new(EngineConfig::default(), 4);
        let err = e
            .add_rules_text("rule pin:\n  on moves\n  replace @lobby.last = visitor\n")
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--shards 1"), "no remedy in: {msg}");
        assert!(msg.contains("pin"), "no rule name in: {msg}");

        let err = e
            .add_rules_text(
                "rule a:\n  on moves\n  replace $(visitor).room = room\n\
                 rule b:\n  on moves\n  replace $(room).occupant = visitor\n",
            )
            .unwrap_err();
        assert!(err.to_string().contains("one stream routes by one field"));

        // One shard accepts everything.
        let mut e1 = ShardedEngine::new(EngineConfig::default(), 1);
        e1.add_rules_text("rule pin:\n  on moves\n  replace @lobby.last = visitor\n")
            .unwrap();
    }

    #[test]
    fn save_and_load_round_trip_shard_headers() {
        let dir = std::env::temp_dir().join(format!("fen-shard-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("state.json");
        let mut e = sharded(4);
        for i in 0..20u64 {
            e.push(ev(i, &format!("v{i}"), "r"));
        }
        e.finish();
        e.save_state(&snap).unwrap();

        let mut back = sharded(4);
        back.load_state(&snap).unwrap();
        assert_eq!(
            e.query("select ?v ?r where { ?v room ?r }").unwrap(),
            back.query("select ?v ?r where { ?v room ?r }").unwrap()
        );

        // A different shard count must be refused, not mis-assembled.
        let mut wrong = sharded(2);
        let err = wrong.load_state(&snap).unwrap_err();
        assert!(err.to_string().contains("shard"), "bad error: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_shards_is_bounded() {
        let n = default_shards();
        assert!((1..=8).contains(&n));
    }
}
