//! The shape of the server's `stats` reply.
//!
//! Every metric in it is declared once, in the metric registry of
//! `fenestra-obs` (its `metrics!` macro), and the same declaration
//! renders the Prometheus families on `--metrics-addr`. So this page
//! names the groups, not their keys: the keys are the field names of
//! the declaring structs.
//!
//! ```json
//! {"ok":true, "engine":{…}, "server":{…}, "stages":{…}, "plans":{…},
//!  "shards":[{"shard":0, "engine":{…}, "held_acks":0,
//!             "gauges":{…}, "stages":{…}}, …],
//!  "replication":{…}}
//! ```
//!
//! * `engine` — [`fenestra_core::EngineMetrics`] **summed** over the
//!   shards: the totals a single-shard run reports, and the object
//!   `fenestra run --metrics-json` prints. Read from published atomics
//!   (`stats` is not a processing barrier; the `sync` command is).
//! * `server` — `fenestra-server`'s `ServerMetrics`, shared across
//!   shards, plus the derived `ingest_batch_mean`.
//! * `stages` — histogram summaries (`{count, p50, p90, p99, max,
//!   mean}`): the connection plane's, then each shard stage merged
//!   across shards.
//! * `plans` — `cache` (hits, misses, entries), then the planner's
//!   compile and exec latency.
//! * `shards[i]` — the shard index (also the `-<shard>-` in its WAL
//!   segment names and the `.shard<i>` snapshot suffix), its own
//!   engine counters (uneven `events` means the entity keys hash
//!   unevenly), `held_acks` (frames admitted but not yet covered by a
//!   fsynced commit; also among the gauges), its gauges (`queue_hwm`
//!   is the shard's own; `server.queue_hwm` is the max over shards)
//!   and its stages, unmerged.
//! * `replication` — only when replication is configured: `role`
//!   (`"leader"` or `"follower"`), then the replication counters,
//!   gauges and histograms.
