//! The integrated engine.

use crate::config::{EngineConfig, Semantics};
use fenestra_base::error::{Error, Result};
use fenestra_base::record::Event;
use fenestra_base::symbol::Symbol;
use fenestra_base::time::{Duration, Interval, Timestamp};
use fenestra_base::value::Value;
use fenestra_obs::{EngineMetrics, ShardObs};
use fenestra_query::QueryOptions;
use fenestra_reason::store_sync::sync_store;
use fenestra_reason::Ontology;
use fenestra_rules::{RuleEngine, StateRule};
use fenestra_stream::executor::Executor;
use fenestra_stream::graph::Graph;
use fenestra_stream::ops::state::SharedStore;
use fenestra_stream::watermark::{WatermarkGenerator, WatermarkPolicy};
use fenestra_temporal::{AttrSchema, Provenance, TemporalStore};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::Instant;

/// Result of [`Engine::query`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Rows of variable bindings.
    Rows(Vec<fenestra_query::Bindings>),
    /// Timeline of one `(entity, attribute)`.
    History(Vec<(Interval, Value, Provenance)>),
}

impl QueryResult {
    /// The rows, if this is a select result.
    pub fn rows(&self) -> Option<&[fenestra_query::Bindings]> {
        match self {
            QueryResult::Rows(r) => Some(r),
            QueryResult::History(_) => None,
        }
    }

    /// Number of rows / timeline entries.
    pub fn len(&self) -> usize {
        match self {
            QueryResult::Rows(r) => r.len(),
            QueryResult::History(h) => h.len(),
        }
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The Fenestra engine: state management + stream processing + state
/// repository + queries + reasoning, wired per Figure 1 of the paper.
pub struct Engine {
    config: EngineConfig,
    store: SharedStore,
    rules: RuleEngine,
    ontology: Option<Ontology>,
    executor: Option<Executor>,
    wm: WatermarkGenerator,
    /// Reorder buffer: (ts, seq) → (event, admission instant). The
    /// instant times reorder-buffer dwell when obs is attached.
    buffer: BTreeMap<(u64, u64), (Event, Instant)>,
    seq: u64,
    metrics: EngineMetrics,
    /// Horizon of the last retention GC pass.
    last_gc: Timestamp,
    /// Stream name on which applied transitions are republished.
    publish_transitions: Option<Symbol>,
    /// Standing queries, polled after each drained batch; deltas are
    /// published on the paired stream.
    watches: Vec<(crate::watch::Watch, Symbol)>,
    finished: bool,
    /// Optional per-shard observability (histograms + gauges).
    obs: Option<Arc<ShardObs>>,
}

impl Engine {
    /// An engine with the given configuration and an empty store.
    pub fn new(config: EngineConfig) -> Engine {
        let store = if config.journal {
            TemporalStore::new()
        } else {
            TemporalStore::without_wal()
        };
        Engine {
            config,
            store: Arc::new(RwLock::new(store)),
            rules: RuleEngine::new(),
            ontology: None,
            executor: None,
            wm: WatermarkGenerator::new(config.watermark_policy()),
            buffer: BTreeMap::new(),
            seq: 0,
            metrics: EngineMetrics::default(),
            last_gc: Timestamp::ZERO,
            publish_transitions: None,
            watches: Vec::new(),
            finished: false,
            obs: None,
        }
    }

    /// Attach per-shard observability: the engine will record
    /// reorder-buffer dwell and lateness margins into its histograms
    /// and republish counters/gauges after every batch. Recording is
    /// lock-free; attaching costs one `Instant::now()` per batch plus
    /// relaxed atomic stores.
    pub fn set_obs(&mut self, obs: Arc<ShardObs>) {
        self.obs = Some(obs);
    }

    /// Default-configured engine.
    pub fn with_defaults() -> Engine {
        Engine::new(EngineConfig::default())
    }

    // ----- setup ------------------------------------------------------------

    /// Declare an attribute on the state repository.
    pub fn declare_attr(&mut self, attr: impl Into<Symbol>, schema: AttrSchema) {
        self.store
            .write()
            .expect("store lock")
            .declare_attr(attr, schema);
    }

    /// Register a state-management rule.
    pub fn add_rule(&mut self, rule: StateRule) -> Result<()> {
        self.rules.add_rule(rule)
    }

    /// Parse and register rules from DSL text.
    pub fn add_rules_text(&mut self, src: &str) -> Result<usize> {
        let rules = fenestra_rules::dsl::parse_rules(src)?;
        let n = rules.len();
        for r in rules {
            self.rules.add_rule(r)?;
        }
        Ok(n)
    }

    /// Install the ontology (enable `auto_reason` in the config, or
    /// call [`Engine::reason_now`] manually).
    pub fn set_ontology(&mut self, ont: Ontology) {
        self.ontology = Some(ont);
    }

    /// Register a standing query: whenever the state changes, the
    /// query re-evaluates and row-level differences are published as
    /// events on `stream` (fields: the row's variables, plus `watch`
    /// and `sign` ∈ {+1, -1}). The query text follows the usual query
    /// language; `history` queries cannot be watched.
    pub fn watch(
        &mut self,
        name: impl Into<Symbol>,
        query_text: &str,
        stream: impl Into<Symbol>,
    ) -> Result<()> {
        let plan = std::sync::Arc::new(fenestra_query::compile(query_text)?);
        self.watch_plan(name, plan, stream)
    }

    /// Register a standing query from an already-compiled plan (the
    /// server's plan cache hands the same `Arc` to every watch of the
    /// same statement). History plans are rejected — they have no row
    /// view to diff.
    pub fn watch_plan(
        &mut self,
        name: impl Into<Symbol>,
        plan: std::sync::Arc<fenestra_query::CachedPlan>,
        stream: impl Into<Symbol>,
    ) -> Result<()> {
        if !plan.is_watchable() {
            return Err(Error::Invalid(
                "history queries cannot be watched; watch a select query".into(),
            ));
        }
        self.watches
            .push((crate::watch::Watch::from_plan(name, plan), stream.into()));
        Ok(())
    }

    /// Republish every applied state transition as an event on
    /// `stream`, so the dataflow can react to state *changes* (the
    /// paper's interoperability benefit: "stream processing systems can
    /// expose their state"). Events carry `entity` (name or id),
    /// `attr`, `value`, `op` (`assert`/`retract`/`replace`/`clear`),
    /// and `rule` fields, stamped at the transition time.
    pub fn publish_transitions(&mut self, stream: impl Into<Symbol>) {
        self.publish_transitions = Some(stream.into());
    }

    /// Install the stream-processing dataflow. Build state-aware
    /// operators against [`Engine::shared_store`].
    pub fn set_graph(&mut self, graph: Graph) -> Result<()> {
        // The engine delivers events to the executor already in
        // timestamp order, so the executor itself runs strict.
        self.executor = Some(Executor::try_with_policy(graph, WatermarkPolicy::strict())?);
        Ok(())
    }

    /// Handle to the shared state repository, for constructing
    /// `StateGate` / `StateEnrich` operators and for external readers.
    pub fn shared_store(&self) -> SharedStore {
        self.store.clone()
    }

    /// Read access to the state repository.
    pub fn store(&self) -> RwLockReadGuard<'_, TemporalStore> {
        self.store.read().expect("store lock")
    }

    // ----- runtime ----------------------------------------------------------

    /// Push one event. Returns `false` if it was dropped as late.
    pub fn push(&mut self, ev: Event) -> bool {
        self.push_batch(std::iter::once(ev)) == 0
    }

    /// Push a batch of events, draining the reorder buffer **once** for
    /// the whole batch instead of once per event. Returns the number of
    /// events dropped as late.
    ///
    /// State transitions are identical to pushing the same events one
    /// at a time: buffered events are still applied in timestamp order,
    /// TTL expirations still happen-before each event, and the
    /// watermark observes each event individually. What changes is
    /// watermark-batch granularity — the whole batch forms one
    /// [`Semantics::Snapshot`] batch, and engine watches fire once,
    /// stamped at the batch's final watermark.
    pub fn push_batch(&mut self, events: impl IntoIterator<Item = Event>) -> u64 {
        assert!(!self.finished, "push after finish()");
        let admitted = Instant::now();
        let mut late = 0u64;
        let mut advanced: Option<Timestamp> = None;
        for ev in events {
            let Some(advance) = self.wm.observe(ev.ts) else {
                // The watermark generator counts the drop
                // (wm.late_events); [`Engine::metrics`] reads it from
                // there. Counting here too would double it.
                late += 1;
                if let (Some(obs), Some(wm)) = (&self.obs, self.wm.current()) {
                    // How far behind the watermark the drop was: the
                    // lateness-margin histogram's count equals
                    // `late_dropped` by construction.
                    obs.late_margin_ms
                        .record(wm.millis().saturating_sub(ev.ts.millis()));
                }
                continue;
            };
            self.metrics.events += 1;
            self.buffer
                .insert((ev.ts.millis(), self.seq), (ev, admitted));
            self.seq += 1;
            if let Some(wm) = advance {
                // Watermarks are monotone: the latest advance is the max.
                advanced = Some(wm);
            }
        }
        if let Some(wm) = advanced {
            self.drain_until(wm);
            self.maybe_gc(wm);
        } else if let Some(wm) = self.wm.current() {
            // An event AT the watermark is admitted but advances
            // nothing. Nothing that could still arrive may sort before
            // it (anything earlier is late by definition), so drain it
            // now — otherwise it sits buffered until some later event
            // advances the watermark, which never happens if every
            // event carries the same timestamp, and held durable acks
            // would never release.
            self.drain_until(wm);
        }
        self.publish_obs();
        late
    }

    /// Push events one at a time (per-event watermark batches; use
    /// [`Engine::push_batch`] to amortize the drain across the batch).
    pub fn run(&mut self, events: impl IntoIterator<Item = Event>) {
        for ev in events {
            self.push(ev);
        }
    }

    /// End of input: process everything buffered and flush the stream
    /// component. Idempotent.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.drain_until(Timestamp::MAX);
        if let Some(ex) = &mut self.executor {
            ex.finish();
        }
        self.finished = true;
        self.publish_obs();
    }

    /// Republish counters and reorder/watermark gauges into the
    /// attached [`ShardObs`] (no-op without one). Relaxed stores only.
    fn publish_obs(&self) {
        let Some(obs) = &self.obs else {
            return;
        };
        obs.engine.store(&self.metrics());
        use std::sync::atomic::Ordering::Relaxed;
        obs.reorder_depth.store(self.buffer.len() as u64, Relaxed);
        let lag = match (self.wm.max_seen(), self.wm.current()) {
            (Some(head), Some(wm)) => head.millis().saturating_sub(wm.millis()),
            _ => 0,
        };
        obs.watermark_lag_ms.store(lag, Relaxed);
    }

    fn drain_until(&mut self, wm: Timestamp) {
        let ready: Vec<(Event, Instant)> = {
            let keys: Vec<(u64, u64)> = self
                .buffer
                .range(..(wm.millis().saturating_add(1), 0))
                .map(|(k, _)| *k)
                .collect();
            keys.into_iter()
                .map(|k| self.buffer.remove(&k).expect("key present"))
                .collect()
        };
        if ready.is_empty() {
            return;
        }
        if let Some(obs) = &self.obs {
            // One clock read per drain, not per event.
            let drained = Instant::now();
            for (_, admitted) in &ready {
                obs.reorder_dwell_us
                    .record(drained.saturating_duration_since(*admitted).as_micros() as u64);
            }
        }
        let ready: Vec<Event> = ready.into_iter().map(|(ev, _)| ev).collect();
        match self.config.semantics {
            Semantics::StateFirst => {
                for ev in ready {
                    // TTL expirations up to this instant happen-before
                    // the event, in timestamp order.
                    self.expire_ttl(ev.ts);
                    self.apply_rules(&ev);
                    self.stream_push(ev);
                }
            }
            Semantics::StreamFirst => {
                let has_executor = self.executor.is_some();
                for ev in ready {
                    self.expire_ttl(ev.ts);
                    // Without an executor the push is a no-op; skip the
                    // clone it would otherwise cost on every event.
                    if has_executor {
                        self.stream_push(ev.clone());
                    }
                    self.apply_rules(&ev);
                }
            }
            Semantics::Snapshot => {
                for ev in &ready {
                    self.expire_ttl(ev.ts);
                    self.apply_rules(ev);
                }
                for ev in ready {
                    self.stream_push(ev);
                }
            }
        }
        self.poll_watches(wm);
    }

    fn poll_watches(&mut self, at: Timestamp) {
        if self.watches.is_empty() {
            return;
        }
        // The publication instant: watches fire with the batch that
        // changed the view. MAX (the flush watermark) is mapped back to
        // the last real transition time.
        let at = if at == Timestamp::MAX {
            self.store().last_transition()
        } else {
            at
        };
        let mut to_publish: Vec<(Symbol, Event)> = Vec::new();
        {
            let store = self.store.read().expect("store lock");
            for (w, stream) in &mut self.watches {
                for d in w.poll(&store) {
                    let rec = crate::watch::delta_record(&d);
                    to_publish.push((*stream, Event::new(*stream, at, rec)));
                }
            }
        }
        for (_, ev) in to_publish {
            self.stream_push(ev);
        }
    }

    fn apply_rules(&mut self, ev: &Event) {
        if self.rules.is_empty() {
            return;
        }
        let report = {
            let mut store = self.store.write().expect("store lock");
            self.rules.on_event(ev, &mut store)
        };
        self.metrics.rule_fired += report.fired;
        self.metrics.transitions += report.transitions;
        self.metrics.guard_blocked += report.guard_blocked;
        self.metrics.rule_errors += report.errors.len() as u64;
        if report.transitions > 0 && self.config.auto_reason {
            self.reason_at(ev.ts);
        }
        if let Some(stream) = self.publish_transitions {
            for tr in &report.applied {
                let entity_val = {
                    let store = self.store.read().expect("store lock");
                    store
                        .entity_name(tr.entity)
                        .map(Value::Str)
                        .unwrap_or(Value::Id(tr.entity))
                };
                let rec = fenestra_base::record::Record::from_pairs([
                    ("entity", entity_val),
                    ("attr", Value::Str(tr.attr)),
                    ("value", tr.value),
                    ("op", Value::str(tr.kind.name())),
                    ("rule", Value::Str(tr.rule)),
                ]);
                self.stream_push(Event::new(stream, tr.t, rec));
            }
        }
    }

    fn stream_push(&mut self, ev: Event) {
        if let Some(ex) = &mut self.executor {
            ex.push(ev);
        }
    }

    fn expire_ttl(&mut self, wm: Timestamp) {
        let expired = self.store.write().expect("store lock").expire_ttl(wm);
        if expired.is_empty() {
            return;
        }
        self.metrics.ttl_expired += expired.len() as u64;
        if let Some(stream) = self.publish_transitions {
            for (e, attr, v, at) in &expired {
                let entity_val = {
                    let store = self.store.read().expect("store lock");
                    store
                        .entity_name(*e)
                        .map(Value::Str)
                        .unwrap_or(Value::Id(*e))
                };
                let rec = fenestra_base::record::Record::from_pairs([
                    ("entity", entity_val),
                    ("attr", Value::Str(*attr)),
                    ("value", *v),
                    ("op", Value::str("expire")),
                ]);
                self.stream_push(Event::new(stream, *at, rec));
            }
        }
    }

    fn maybe_gc(&mut self, wm: Timestamp) {
        let Some(retention) = self.config.retention else {
            return;
        };
        let horizon = wm.saturating_sub(retention);
        // Amortize: run at most once per half-retention of progress.
        let step = Duration::millis((retention.as_millis() / 2).max(1));
        if horizon > self.last_gc.saturating_add(step) {
            self.last_gc = horizon;
            self.store.write().expect("store lock").gc(horizon);
        }
    }

    /// Reclaim closed history ending at or before `horizon` now
    /// (independent of the configured retention policy). Returns the
    /// number of facts reclaimed.
    pub fn gc(&mut self, horizon: Timestamp) -> usize {
        self.store.write().expect("store lock").gc(horizon)
    }

    /// Save a JSON snapshot of the state repository: the full journal
    /// when journaling is on, otherwise the compact op sequence for the
    /// current state (see [`Engine::save_state_compact`]), so a
    /// journal-off engine never writes an empty snapshot.
    pub fn save_state(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        if self.config.journal {
            fenestra_temporal::persist::save(&self.store(), path)
        } else {
            self.save_state_compact(path, 0)
        }
    }

    /// Save a *compact* JSON snapshot: the minimal op sequence for the
    /// current state rather than the full journal, stamped with the
    /// WAL generation that continues it. The checkpoint format of the
    /// durable-log path (see `fenestra_temporal::wal_file`), and the
    /// only correct one once [`Engine::take_journal`] drains the
    /// journal — [`Engine::save_state`] would then see only the
    /// undrained suffix.
    pub fn save_state_compact(
        &self,
        path: impl AsRef<std::path::Path>,
        wal_gen: u64,
    ) -> Result<()> {
        fenestra_temporal::persist::save_compact(&self.store(), path, wal_gen)
    }

    /// Replace the state repository with a snapshot loaded from disk
    /// (rules, graph, and ontology are untouched). Fails if events have
    /// already been processed.
    pub fn load_state(&mut self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let loaded = fenestra_temporal::persist::load(path)?;
        self.restore_state(loaded)
    }

    /// Install an already-built store (e.g. the output of crash
    /// recovery) as the state repository. Fails if events have already
    /// been processed.
    pub fn restore_state(&mut self, store: TemporalStore) -> Result<()> {
        if self.metrics.events > 0 {
            return Err(Error::Invalid(
                "restore_state must precede event processing".into(),
            ));
        }
        *self.store.write().expect("store lock") = store;
        Ok(())
    }

    /// Drain the store's in-memory journal: the mutations applied
    /// since the last drain, ready to append to a durable log. Calling
    /// this regularly is what keeps a long-running engine's memory
    /// bounded (the journal otherwise grows with every transition).
    pub fn take_journal(&mut self) -> Vec<fenestra_temporal::WalOp> {
        self.store.write().expect("store lock").take_journal()
    }

    /// Number of ops buffered in the store's in-memory journal.
    pub fn journal_len(&self) -> usize {
        self.store().journal_len()
    }

    /// Lowest timestamp still held in the reorder buffer — the oldest
    /// admitted event the watermark has not yet passed (`None` when the
    /// buffer is empty, i.e. everything admitted has been applied).
    /// Events at or above this timestamp have produced **no** journal
    /// ops yet; a durable-ack server uses this to know which acked
    /// frames a fsynced WAL frame actually covers.
    pub fn buffered_low_ts(&self) -> Option<Timestamp> {
        self.buffer.keys().next().map(|&(ts, _)| Timestamp::new(ts))
    }

    /// Number of events currently held in the reorder buffer.
    pub fn buffered_len(&self) -> usize {
        self.buffer.len()
    }

    /// Run the reasoner now, maintaining derived facts at the given
    /// instant (defaults to the latest transition time).
    pub fn reason_now(&mut self) -> Result<(usize, usize)> {
        let t = self.store().last_transition();
        Ok(self.reason_at(t))
    }

    fn reason_at(&mut self, t: Timestamp) -> (usize, usize) {
        let Some(ont) = &self.ontology else {
            return (0, 0);
        };
        let mut store = self.store.write().expect("store lock");
        match sync_store(&mut store, ont, t) {
            Ok((a, r)) => {
                self.metrics.reason_asserted += a as u64;
                self.metrics.reason_retracted += r as u64;
                self.metrics.reason_syncs += 1;
                (a, r)
            }
            Err(_) => (0, 0),
        }
    }

    // ----- queries ----------------------------------------------------------

    /// Execute a textual query against the state repository.
    pub fn query(&self, src: &str) -> Result<QueryResult> {
        self.query_with(src, QueryOptions::default())
    }

    /// Execute a textual query with options. The statement — either
    /// dialect — compiles to a plan and runs through
    /// [`Engine::execute_plan`]: plans are the only query path.
    pub fn query_with(&self, src: &str, opts: QueryOptions) -> Result<QueryResult> {
        let plan = fenestra_query::compile(src)?;
        self.execute_plan(&plan, opts)
    }

    /// Execute a compiled plan against this engine's store.
    pub fn execute_plan(
        &self,
        plan: &fenestra_query::CachedPlan,
        opts: QueryOptions,
    ) -> Result<QueryResult> {
        let store = self.store();
        match plan.execute(&store, opts)? {
            fenestra_query::PlanOutput::Rows(rows) => Ok(QueryResult::Rows(rows)),
            fenestra_query::PlanOutput::History(spans) => Ok(QueryResult::History(spans)),
        }
    }

    // ----- introspection ----------------------------------------------------

    /// Engine counters.
    pub fn metrics(&self) -> EngineMetrics {
        let mut m = self.metrics;
        m.late_dropped = self.wm.late_events;
        m
    }

    /// The stream executor's per-node counters (empty before
    /// [`Engine::set_graph`]).
    pub fn node_metrics(&self) -> Vec<(&'static str, u64, u64)> {
        self.executor
            .as_ref()
            .map(|e| e.node_metrics())
            .unwrap_or_default()
    }

    /// Number of registered rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The registered rules, in registration order (used by the
    /// sharding layer to derive routing keys after setup).
    pub fn state_rules(&self) -> Vec<&StateRule> {
        self.rules.rules().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenestra_base::time::Duration;
    use fenestra_stream::aggregate::AggSpec;
    use fenestra_stream::ops::state::{StateGate, TimeRef};
    use fenestra_stream::window::time::TimeWindowOp;

    fn click(ts: u64, user: &str, action: &str) -> Event {
        Event::from_pairs(
            "clicks",
            ts,
            [("user", Value::str(user)), ("action", Value::str(action))],
        )
    }

    const SESSION_RULES: &str = r#"
        rule enter:
          on clicks where action == "enter"
          replace $(user).status = "active"

        rule leave:
          on clicks where action == "leave"
          if state($(user)).status == "active"
          retract $(user).status = "active"
    "#;

    #[test]
    fn rules_maintain_session_state() {
        let mut eng = Engine::with_defaults();
        eng.declare_attr("status", AttrSchema::one());
        assert_eq!(eng.add_rules_text(SESSION_RULES).unwrap(), 2);
        eng.run([
            click(1, "u1", "enter"),
            click(2, "u2", "enter"),
            click(5, "u1", "leave"),
        ]);
        eng.finish();
        let res = eng
            .query("select ?u where { ?u status \"active\" }")
            .unwrap();
        assert_eq!(res.len(), 1, "only u2 still active");
        let hist = eng.query("history u1 status").unwrap();
        match hist {
            QueryResult::History(h) => {
                assert_eq!(h.len(), 1);
                assert_eq!(
                    h[0].0,
                    Interval::closed(Timestamp::new(1), Timestamp::new(5))
                );
            }
            other => panic!("{other:?}"),
        }
        let m = eng.metrics();
        assert_eq!(m.events, 3);
        assert_eq!(m.rule_fired, 3);
        assert_eq!(m.transitions, 3);
    }

    #[test]
    fn state_gated_stream_pipeline() {
        let mut eng = Engine::with_defaults();
        eng.declare_attr("status", AttrSchema::one());
        eng.add_rules_text(SESSION_RULES).unwrap();
        let store = eng.shared_store();
        let mut g = Graph::new();
        let gate = g.add_op(StateGate::new(store, "user", "status", "active"));
        g.connect_source("clicks", gate);
        let win = g.add_op(
            TimeWindowOp::tumbling(Duration::millis(100))
                .group_by(["user"])
                .aggregate(AggSpec::count("n")),
        );
        g.connect(gate, win);
        let sink = g.add_sink();
        g.connect(win, sink.node);
        eng.set_graph(g).unwrap();

        eng.run([
            click(1, "u1", "enter"),
            click(2, "u1", "browse"),
            click(3, "u1", "browse"),
            click(4, "u1", "leave"),
            click(5, "u1", "browse"), // after leave: gated out
            click(120, "u2", "enter"),
        ]);
        eng.finish();
        let out = sink.take();
        // Window [0,100): u1 rows (enter+2 browses pass the gate; the
        // leave event fires after the rule retracts status, so it does
        // not pass under StateFirst).
        let u1_row = out
            .iter()
            .find(|e| e.get("user") == Some(&Value::str("u1")))
            .expect("u1 row");
        assert_eq!(u1_row.get("n"), Some(&Value::Int(3)));
    }

    #[test]
    fn semantics_state_first_vs_stream_first() {
        // An "enter" event: under StateFirst the gate (probing live
        // state) sees the user active; under StreamFirst it does not.
        let run = |sem: Semantics| -> usize {
            let mut eng = Engine::new(EngineConfig {
                semantics: sem,
                ..EngineConfig::default()
            });
            eng.declare_attr("status", AttrSchema::one());
            eng.add_rules_text(SESSION_RULES).unwrap();
            let store = eng.shared_store();
            let mut g = Graph::new();
            let gate = g.add_op(
                StateGate::new(store, "user", "status", "active").time_ref(TimeRef::Current),
            );
            g.connect_source("clicks", gate);
            let sink = g.add_sink();
            g.connect(gate, sink.node);
            eng.set_graph(g).unwrap();
            eng.push(click(1, "u1", "enter"));
            eng.finish();
            sink.len()
        };
        assert_eq!(run(Semantics::StateFirst), 1);
        assert_eq!(run(Semantics::StreamFirst), 0);
    }

    #[test]
    fn snapshot_semantics_batches_by_watermark() {
        // With lateness 10, events buffer until the watermark passes
        // them; rules for the whole batch run before any stream
        // processing, so an early event's gate sees state from a later
        // event in the same batch.
        let mut eng = Engine::new(EngineConfig {
            semantics: Semantics::Snapshot,
            max_lateness: Duration::millis(10),
            ..EngineConfig::default()
        });
        eng.declare_attr("status", AttrSchema::one());
        eng.add_rules_text(SESSION_RULES).unwrap();
        let store = eng.shared_store();
        let mut g = Graph::new();
        let gate =
            g.add_op(StateGate::new(store, "user", "status", "active").time_ref(TimeRef::Current));
        g.connect_source("clicks", gate);
        let sink = g.add_sink();
        g.connect(gate, sink.node);
        eng.set_graph(g).unwrap();
        // browse at t1 precedes enter at t2, but both land in the same
        // watermark batch: the browse is gated by the *post-batch*
        // state.
        eng.push(click(1, "u1", "browse"));
        eng.push(click(2, "u1", "enter"));
        eng.finish();
        assert_eq!(sink.len(), 2, "browse passes under snapshot semantics");
    }

    #[test]
    fn out_of_order_within_lateness_reordered() {
        let mut eng = Engine::new(EngineConfig {
            max_lateness: Duration::millis(10),
            ..EngineConfig::default()
        });
        eng.declare_attr("room", AttrSchema::one());
        eng.add_rules_text(
            r#"
            rule mv:
              on sensors
              replace $(visitor).room = room
            "#,
        )
        .unwrap();
        // Arrive out of order: t20 then t15 (within bound).
        eng.push(Event::from_pairs(
            "sensors",
            20u64,
            [("visitor", Value::str("v")), ("room", Value::str("b"))],
        ));
        eng.push(Event::from_pairs(
            "sensors",
            15u64,
            [("visitor", Value::str("v")), ("room", Value::str("a"))],
        ));
        eng.finish();
        // Processed in timestamp order: final room is b.
        let store = eng.store();
        let v = store.lookup_entity("v").unwrap();
        assert_eq!(store.current().value(v, "room"), Some(Value::str("b")));
        let h = store.history(v, "room");
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].1, Value::str("a"));
    }

    #[test]
    fn buffered_low_ts_tracks_the_reorder_buffer() {
        let mut eng = Engine::new(EngineConfig {
            max_lateness: Duration::millis(10),
            ..EngineConfig::default()
        });
        assert_eq!(eng.buffered_low_ts(), None, "empty engine buffers nothing");
        let ev = |ts: u64| Event::from_pairs("s", ts, [("x", 1i64)]);
        // Watermark = 20 - 10 = 10: both events sit in the buffer.
        eng.push_batch([ev(20), ev(15)]);
        assert_eq!(eng.buffered_low_ts(), Some(Timestamp::new(15)));
        // Watermark 40: both drain, the new event buffers alone.
        eng.push(ev(50));
        assert_eq!(eng.buffered_low_ts(), Some(Timestamp::new(50)));
        eng.finish();
        assert_eq!(eng.buffered_low_ts(), None, "finish drains the buffer");
    }

    #[test]
    fn events_at_the_watermark_drain_without_a_further_advance() {
        // Regression: an event whose timestamp equals the current
        // watermark is admitted but advances nothing, and push_batch
        // only drained on an advance — so with a constant-timestamp
        // stream every event after the first sat in the reorder buffer
        // forever (and durable acks gated on buffered_low_ts never
        // released).
        let mut eng = Engine::with_defaults(); // lateness 0
        let ev = |n: i64| Event::from_pairs("s", 7u64, [("x", n)]);
        for n in 0..5 {
            eng.push(ev(n));
            assert_eq!(
                eng.buffered_low_ts(),
                None,
                "same-ts event {n} must apply immediately, not buffer"
            );
        }
        assert_eq!(eng.metrics().events, 5);
        assert_eq!(eng.metrics().late_dropped, 0);
    }

    #[test]
    fn late_events_dropped_and_counted() {
        let mut eng = Engine::with_defaults();
        eng.declare_attr("room", AttrSchema::one());
        assert!(eng.push(Event::from_pairs("sensors", 100u64, [("x", 1i64)])));
        assert!(!eng.push(Event::from_pairs("sensors", 50u64, [("x", 1i64)])));
        assert_eq!(eng.metrics().late_dropped, 1);
    }

    #[test]
    fn late_dropped_counts_each_drop_exactly_once() {
        // Regression: Engine::push used to bump metrics.late_dropped
        // directly while metrics() overwrote the field from the
        // watermark generator — a dead store hiding a double count had
        // the overwrite ever been removed. One source of truth now.
        let mut eng = Engine::with_defaults();
        let ev = |ts: u64| Event::from_pairs("s", ts, [("x", 1i64)]);
        assert!(eng.push(ev(100)));
        assert!(!eng.push(ev(40)), "late");
        assert!(eng.push(ev(200)));
        assert!(!eng.push(ev(150)), "late");
        assert!(!eng.push(ev(10)), "late");
        assert!(eng.push(ev(300)));
        let m = eng.metrics();
        assert_eq!(m.late_dropped, 3, "exactly one count per dropped event");
        assert_eq!(m.events, 3, "on-time events counted separately");
    }

    #[test]
    fn push_batch_matches_per_event_push() {
        // The same stream — including out-of-order and late events —
        // replayed one event at a time and as batches must yield the
        // same store, the same query results, and the same counters.
        let events: Vec<Event> = (0..200u64)
            .map(|i| {
                // Mild disorder: swap adjacent timestamps, plus a few
                // events far enough back to be dropped as late.
                let ts = match i % 10 {
                    3 => i.saturating_sub(1),
                    7 => i.saturating_sub(40), // beyond the bound: late
                    _ => i,
                };
                Event::from_pairs(
                    "sensors",
                    ts + 100,
                    [
                        ("visitor", Value::str(&format!("v{}", i % 9))),
                        ("room", Value::str(&format!("r{}", i % 4))),
                    ],
                )
            })
            .collect();
        let build = || {
            let mut eng = Engine::new(EngineConfig {
                max_lateness: Duration::millis(5),
                ..EngineConfig::default()
            });
            eng.declare_attr("room", AttrSchema::one());
            eng.add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
                .unwrap();
            eng
        };
        let mut single = build();
        for ev in events.iter().cloned() {
            single.push(ev);
        }
        single.finish();
        let mut batched = build();
        let mut dropped = 0u64;
        for chunk in events.chunks(17) {
            dropped += batched.push_batch(chunk.iter().cloned());
        }
        batched.finish();

        assert_eq!(single.metrics().events, batched.metrics().events);
        assert_eq!(single.metrics().late_dropped, dropped);
        assert_eq!(
            single.metrics().late_dropped,
            batched.metrics().late_dropped
        );
        assert_eq!(single.metrics().transitions, batched.metrics().transitions);
        let a = single.store();
        let b = batched.store();
        for v in 0..9 {
            let name = format!("v{v}");
            let ea = a.lookup_entity(name.as_str()).unwrap();
            let eb = b.lookup_entity(name.as_str()).unwrap();
            assert_eq!(a.history(ea, "room"), b.history(eb, "room"), "{name}");
            assert_eq!(a.current().value(ea, "room"), b.current().value(eb, "room"));
        }
        drop((a, b));
        for q in [
            "select ?v where { ?v room \"r1\" }",
            "select ?v ?r where { ?v room ?r }",
        ] {
            assert_eq!(single.query(q).unwrap(), batched.query(q).unwrap());
        }
    }

    #[test]
    fn stream_first_without_executor_skips_stream_push() {
        // Regression guard for the clone-skip: StreamFirst with no
        // graph attached must still apply rules correctly.
        let mut eng = Engine::new(EngineConfig {
            semantics: Semantics::StreamFirst,
            ..EngineConfig::default()
        });
        eng.declare_attr("status", AttrSchema::one());
        eng.add_rules_text(SESSION_RULES).unwrap();
        eng.run([click(1, "u1", "enter"), click(2, "u2", "enter")]);
        eng.finish();
        let res = eng
            .query("select ?u where { ?u status \"active\" }")
            .unwrap();
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn take_journal_keeps_engine_memory_bounded() {
        let mut eng = Engine::with_defaults();
        eng.declare_attr("room", AttrSchema::one());
        eng.add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
            .unwrap();
        let sensor = |ts: u64, room: &str| {
            Event::from_pairs(
                "sensors",
                ts,
                [("visitor", Value::str("v")), ("room", Value::str(room))],
            )
        };
        let mut drained = Vec::new();
        for i in 0..100u64 {
            eng.push(sensor(i + 1, &format!("r{}", i % 7)));
            let before = eng.journal_len();
            let batch = eng.take_journal();
            assert_eq!(batch.len(), before);
            assert_eq!(eng.journal_len(), 0, "journal drains to zero every time");
            drained.extend(batch);
        }
        // The journal never grew monotonically: each drain held at
        // most one event's worth of ops, not the whole history.
        assert!(drained.len() > 100, "transitions were journaled");
        // And the concatenation of all drains still replays to the
        // live state.
        let replayed = fenestra_temporal::TemporalStore::replay(&drained).unwrap();
        let store = eng.store();
        let v = store.lookup_entity("v").unwrap();
        assert_eq!(
            replayed.current().value(v, "room"),
            store.current().value(v, "room")
        );
        assert_eq!(replayed.history(v, "room"), store.history(v, "room"));
    }

    #[test]
    fn journal_disabled_engine_journals_nothing() {
        let mut eng = Engine::new(EngineConfig {
            journal: false,
            ..EngineConfig::default()
        });
        eng.declare_attr("room", AttrSchema::one());
        eng.add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
            .unwrap();
        eng.push(Event::from_pairs(
            "sensors",
            1u64,
            [("visitor", "a"), ("room", "lab")],
        ));
        assert_eq!(eng.journal_len(), 0);
        assert!(eng.take_journal().is_empty());
    }

    #[test]
    fn reasoning_maintains_derived_state() {
        let mut eng = Engine::new(EngineConfig {
            auto_reason: true,
            ..EngineConfig::default()
        });
        eng.set_ontology(Ontology::from_axioms([
            fenestra_reason::Axiom::SubClassOf(Value::str("toy_cars"), Value::str("toys")),
            fenestra_reason::Axiom::SubClassOf(Value::str("toys"), Value::str("products")),
        ]));
        eng.add_rules_text(
            r#"
            rule classify:
              on catalog
              replace $(product).type = class
            "#,
        )
        .unwrap();
        eng.push(Event::from_pairs(
            "catalog",
            1u64,
            [
                ("product", Value::str("p1")),
                ("class", Value::str("toy_cars")),
            ],
        ));
        eng.finish();
        let res = eng
            .query("select ?p where { ?p type \"products\" }")
            .unwrap();
        assert_eq!(res.len(), 1, "derived membership queryable");
        // Excluding derived facts hides it.
        let res = eng
            .query_with(
                "select ?p where { ?p type \"products\" }",
                QueryOptions {
                    exclude_derived: true,
                },
            )
            .unwrap();
        assert!(res.is_empty());
        assert!(eng.metrics().reason_asserted >= 2);
    }

    #[test]
    fn query_unknown_history_entity_errors() {
        let eng = Engine::with_defaults();
        assert!(eng.query("history ghost room").is_err());
    }

    #[test]
    fn obs_records_dwell_margins_and_gauges() {
        use std::sync::atomic::Ordering::Relaxed;
        let obs = Arc::new(fenestra_obs::ShardObs::default());
        let mut eng = Engine::new(EngineConfig {
            max_lateness: Duration::millis(10),
            ..EngineConfig::default()
        });
        eng.set_obs(obs.clone());
        let ev = |ts: u64| Event::from_pairs("s", ts, [("x", 1i64)]);
        // wm = 100 - 10 = 90; 95 buffers; 50 is 40ms late.
        eng.push_batch([ev(100), ev(95), ev(50)]);
        assert_eq!(obs.engine.load().events, 2);
        assert_eq!(obs.engine.load().late_dropped, 1);
        let margins = obs.late_margin_ms.snapshot();
        assert_eq!(
            margins.count, 1,
            "margin histogram counts exactly the drops"
        );
        assert_eq!(margins.max, 40, "drop was 40ms behind the watermark");
        assert_eq!(obs.reorder_depth.load(Relaxed), 2, "95 and 100 buffered");
        assert_eq!(obs.watermark_lag_ms.load(Relaxed), 10, "lag = bound");
        eng.finish();
        assert_eq!(obs.reorder_depth.load(Relaxed), 0, "finish drains");
        let dwell = obs.reorder_dwell_us.snapshot();
        assert_eq!(dwell.count, 2, "one dwell sample per applied event");
    }
}

#[cfg(test)]
mod retention_tests {
    use super::*;
    use fenestra_base::time::Duration;

    fn sensor(ts: u64, room: &str) -> Event {
        Event::from_pairs(
            "sensors",
            ts,
            [("visitor", Value::str("v")), ("room", Value::str(room))],
        )
    }

    #[test]
    fn retention_gc_reclaims_old_history() {
        let mut eng = Engine::new(EngineConfig {
            retention: Some(Duration::millis(100)),
            ..EngineConfig::default()
        });
        eng.declare_attr("room", AttrSchema::one());
        eng.add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
            .unwrap();
        for i in 0..50u64 {
            eng.push(sensor(i * 20, &format!("r{}", i % 5)));
        }
        eng.finish();
        let store = eng.store();
        let v = store.lookup_entity("v").unwrap();
        // History trimmed: far fewer than 50 intervals survive, but
        // the current room is intact.
        let h = store.history(v, "room");
        assert!(
            h.len() < 20,
            "retention should have trimmed history: {}",
            h.len()
        );
        assert!(store.current().value(v, "room").is_some());
        // Recent past still answerable.
        assert!(store
            .as_of(Timestamp::new(49 * 20))
            .value(v, "room")
            .is_some());
    }

    #[test]
    fn manual_gc_and_snapshot_round_trip() {
        let dir = std::env::temp_dir().join("fenestra-engine-persist");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine-state.json");

        let mut eng = Engine::with_defaults();
        eng.declare_attr("room", AttrSchema::one());
        eng.add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
            .unwrap();
        eng.run((0..10u64).map(|i| sensor(i * 10, &format!("r{i}"))));
        eng.finish();
        let reclaimed = eng.gc(Timestamp::new(50));
        assert!(reclaimed > 0);
        eng.save_state(&path).unwrap();

        // A fresh engine resumes from the snapshot.
        let mut eng2 = Engine::with_defaults();
        eng2.load_state(&path).unwrap();
        let store = eng2.store();
        let v = store.lookup_entity("v").unwrap();
        assert_eq!(store.current().value(v, "room"), Some(Value::str("r9")));
        drop(store);
        // load_state after processing is rejected.
        let mut eng3 = Engine::with_defaults();
        eng3.declare_attr("room", AttrSchema::one());
        eng3.push(sensor(1, "x"));
        assert!(eng3.load_state(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_off_snapshot_is_compact_not_empty() {
        let dir = std::env::temp_dir().join("fenestra-engine-persist");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("journal-off-{}.json", std::process::id()));

        let mut eng = Engine::new(EngineConfig {
            journal: false,
            ..EngineConfig::default()
        });
        eng.declare_attr("room", AttrSchema::one());
        eng.add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
            .unwrap();
        eng.run((0..10u64).map(|i| sensor(i * 10, &format!("r{i}"))));
        eng.finish();
        assert_eq!(eng.journal_len(), 0);
        eng.save_state(&path).unwrap();

        let loaded = fenestra_temporal::persist::load(&path).unwrap();
        let store = eng.store();
        let v = store.lookup_entity("v").unwrap();
        assert_eq!(loaded.lookup_entity("v"), Some(v));
        assert_eq!(loaded.current().value(v, "room"), Some(Value::str("r9")));
        assert_eq!(loaded.history(v, "room"), store.history(v, "room"));
        assert_eq!(loaded.history(v, "room").len(), 10);
        std::fs::remove_file(&path).ok();
    }
}

#[cfg(test)]
mod transition_stream_tests {
    use super::*;
    use fenestra_base::time::Duration;
    use fenestra_stream::aggregate::AggSpec;
    use fenestra_stream::window::time::TimeWindowOp;

    /// The dataflow can consume the state-change stream: count room
    /// changes per visitor without touching the sensor stream at all.
    #[test]
    fn transitions_republished_as_stream() {
        let mut eng = Engine::with_defaults();
        eng.declare_attr("room", AttrSchema::one());
        eng.add_rules_text("rule mv:\n on sensors\n replace $(visitor).room = room")
            .unwrap();
        eng.publish_transitions("state_changes");
        let mut g = Graph::new();
        let win = g.add_op(
            TimeWindowOp::tumbling(Duration::millis(1000))
                .group_by(["entity"])
                .aggregate(AggSpec::count("changes")),
        );
        g.connect_source("state_changes", win);
        let sink = g.add_sink();
        g.connect(win, sink.node);
        eng.set_graph(g).unwrap();

        let sensor = |ts: u64, v: &str, room: &str| {
            Event::from_pairs(
                "sensors",
                ts,
                [("visitor", Value::str(v)), ("room", Value::str(room))],
            )
        };
        eng.run([
            sensor(10, "a", "lobby"),
            sensor(20, "a", "lab"),
            sensor(30, "b", "lobby"),
            sensor(40, "a", "lab"), // idempotent: no transition
        ]);
        eng.finish();
        let rows = sink.take();
        assert_eq!(rows.len(), 2);
        let a = rows
            .iter()
            .find(|e| e.get("entity") == Some(&Value::str("a")))
            .unwrap();
        assert_eq!(
            a.get("changes"),
            Some(&Value::Int(2)),
            "idempotent move not republished"
        );
        let b = rows
            .iter()
            .find(|e| e.get("entity") == Some(&Value::str("b")))
            .unwrap();
        assert_eq!(b.get("changes"), Some(&Value::Int(1)));
    }

    /// Published events carry full transition detail.
    #[test]
    fn transition_events_carry_detail() {
        let mut eng = Engine::with_defaults();
        eng.declare_attr("status", AttrSchema::one());
        eng.add_rules_text(
            r#"
            rule enter:
              on clicks where action == "enter"
              replace $(user).status = "active"
            rule leave:
              on clicks where action == "leave"
              retract $(user).status = "active"
            "#,
        )
        .unwrap();
        eng.publish_transitions("deltas");
        let mut g = Graph::new();
        let sink = g.add_sink();
        g.connect_source("deltas", sink.node);
        eng.set_graph(g).unwrap();
        eng.run([
            Event::from_pairs("clicks", 1u64, [("user", "u"), ("action", "enter")]),
            Event::from_pairs("clicks", 9u64, [("user", "u"), ("action", "leave")]),
        ]);
        eng.finish();
        let out = sink.take();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get("op"), Some(&Value::str("replace")));
        assert_eq!(out[0].get("rule"), Some(&Value::str("enter")));
        assert_eq!(out[0].get("attr"), Some(&Value::str("status")));
        assert_eq!(out[0].get("value"), Some(&Value::str("active")));
        assert_eq!(out[1].get("op"), Some(&Value::str("retract")));
        assert_eq!(out[1].ts, Timestamp::new(9));
    }
}

#[cfg(test)]
mod ttl_engine_tests {
    use super::*;
    use fenestra_base::time::Duration;

    /// Idle sessions expire without a leave event — the keep-alive
    /// idiom: store the last-seen timestamp, whose value changes on
    /// every click, restarting the TTL.
    #[test]
    fn idle_sessions_expire_via_ttl() {
        let mut eng = Engine::with_defaults();
        eng.declare_attr(
            "last_seen",
            AttrSchema::one().with_ttl(Duration::millis(100)),
        );
        eng.add_rules_text("rule seen:\n on clicks\n replace $(user).last_seen = ts")
            .unwrap();
        eng.publish_transitions("state_changes");
        let mut g = Graph::new();
        let sink = g.add_sink();
        g.connect_source("state_changes", sink.node);
        eng.set_graph(g).unwrap();

        let click = |ts: u64, u: &str| Event::from_pairs("clicks", ts, [("user", u)]);
        eng.run([
            click(10, "a"),
            click(50, "a"), // refresh: ttl restarts at 50
            click(60, "b"),
            click(300, "c"), // watermark 300 expires a (at 150) and b (at 160)
        ]);
        eng.finish();
        let store = eng.store();
        let a = store.lookup_entity("a").unwrap();
        let b = store.lookup_entity("b").unwrap();
        let c = store.lookup_entity("c").unwrap();
        assert_eq!(
            store.current().value(a, "last_seen"),
            None,
            "a idle since 50"
        );
        assert_eq!(store.current().value(b, "last_seen"), None);
        assert!(store.current().value(c, "last_seen").is_some(), "c fresh");
        // a's session recorded as [10,50) + [50,150).
        let h = store.history(a, "last_seen");
        assert_eq!(h.len(), 2);
        assert_eq!(h[1].0.end, Some(Timestamp::new(150)));
        drop(store);
        assert_eq!(eng.metrics().ttl_expired, 2);
        // Expiries were published on the transition stream.
        let expire_events: Vec<Event> = sink
            .take()
            .into_iter()
            .filter(|e| e.get("op") == Some(&Value::str("expire")))
            .collect();
        assert_eq!(expire_events.len(), 2);
        assert_eq!(expire_events[0].ts, Timestamp::new(150));
    }
}

#[cfg(test)]
mod watch_tests {
    use super::*;

    #[test]
    fn watch_publishes_view_deltas() {
        let mut eng = Engine::with_defaults();
        eng.declare_attr("status", AttrSchema::one());
        eng.add_rules_text(
            r#"
            rule enter:
              on clicks where action == "enter"
              replace $(user).status = "active"
            rule leave:
              on clicks where action == "leave"
              replace $(user).status = "idle"
            "#,
        )
        .unwrap();
        eng.watch(
            "actives",
            r#"select ?u where { ?u status "active" }"#,
            "view_updates",
        )
        .unwrap();
        let mut g = Graph::new();
        let sink = g.add_sink();
        g.connect_source("view_updates", sink.node);
        eng.set_graph(g).unwrap();

        let click = |ts: u64, u: &str, a: &str| {
            Event::from_pairs("clicks", ts, [("user", u), ("action", a)])
        };
        eng.run([
            click(1, "a", "enter"),
            click(2, "b", "enter"),
            click(5, "a", "leave"),
        ]);
        eng.finish();
        let out = sink.take();
        // +a, +b, -a = three deltas.
        assert_eq!(out.len(), 3);
        let signs: Vec<i64> = out
            .iter()
            .map(|e| e.get("sign").unwrap().as_int().unwrap())
            .collect();
        assert_eq!(signs.iter().filter(|s| **s == 1).count(), 2);
        assert_eq!(signs.iter().filter(|s| **s == -1).count(), 1);
        assert!(out
            .iter()
            .all(|e| e.get("watch") == Some(&Value::str("actives"))));
        // The leave delta is stamped at its batch's watermark.
        assert_eq!(out[2].ts, Timestamp::new(5));
    }

    #[test]
    fn history_queries_rejected_as_watches() {
        let mut eng = Engine::with_defaults();
        assert!(eng.watch("w", "history x room", "s").is_err());
        assert!(eng.watch("w", "not even a query", "s").is_err());
    }

    #[test]
    fn unchanged_views_stay_silent() {
        let mut eng = Engine::with_defaults();
        eng.declare_attr("status", AttrSchema::one());
        eng.add_rules_text("rule r:\n on s\n replace $(u).status = v")
            .unwrap();
        eng.watch("w", r#"select ?u where { ?u status "x" }"#, "deltas")
            .unwrap();
        let mut g = Graph::new();
        let sink = g.add_sink();
        g.connect_source("deltas", sink.node);
        eng.set_graph(g).unwrap();
        // The same value repeatedly: one +delta only.
        for ts in 1..=5u64 {
            eng.push(Event::from_pairs("s", ts, [("u", "e"), ("v", "x")]));
        }
        eng.finish();
        assert_eq!(sink.take().len(), 1);
    }
}
