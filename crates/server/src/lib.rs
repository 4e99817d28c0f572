#![warn(missing_docs)]
//! # fenestra-server
//!
//! `fenestrad`: a long-running network front end for the Fenestra
//! engine. The paper's pitch — state as an explicit, *queryable*,
//! *subscribable* object rather than transient window contents — only
//! pays off operationally if the state outlives a single process
//! invocation and is reachable while ingest continues. This crate
//! provides exactly that:
//!
//! * **ingest** — clients stream JSONL events (the `fenestra-wire`
//!   format) over TCP, one per line or many per line via the batch
//!   frame; each accepted frame is acknowledged with a per-connection
//!   sequence number;
//! * **query** — `select … asof …` queries run against the live state
//!   repository while events keep flowing;
//! * **watch** — standing queries push row-level view differences to
//!   the subscribed connection as they happen;
//! * **stats / sync / shutdown** — observability counters, stage
//!   latency histograms, a processing barrier, and graceful drain
//!   (flush + snapshot) over the same protocol;
//! * **/metrics** — an optional second listener
//!   ([`ServerConfig::metrics_addr`]) serving Prometheus text
//!   exposition, rendered from the same atomics as `stats`.
//!
//! ## Architecture
//!
//! N **shard threads** (one per [`ServerConfig::shards`]: 1 by default
//! in the library, one per core up to 8 in `fenestrad`) each own one
//! [`fenestra_core::Engine`] partition and consume their own bounded
//! MPSC command queue. Events route to exactly one shard by a
//! deterministic hash of their **entity key** — the event field the
//! stream's rules name entities by (see
//! [`fenestra_core::ShardRouter`]); rules whose matches could span
//! entities (fixed `@entity` targets, computed keys, pattern triggers)
//! are rejected at startup when `shards > 1`. An epoll reactor pool
//! accepts every socket; binary-plane connections stay on it, JSONL
//! connections get a reader thread (socket lines → commands) and a
//! writer thread (outbound channel → socket). Both planes admit ingest
//! through one path (`src/admit.rs`): frames are split by route into a
//! per-connection stage, and each flush hands every touched shard one
//! command, applies the backpressure policy, and counts the admission.
//! Query replies travel back over per-request channels, and watch
//! deltas over the connection's outbound channel. Queries and watches
//! fan out to every shard (selects merge rows, `count` and `limit`
//! apply globally after the merge). `stats` is served **lock-light**
//! on the connection thread from per-shard atomics
//! ([`fenestra_obs::ShardObs`]) that the shard loops, engines, and WAL
//! writers publish into — engine counters merged across shards,
//! per-shard gauges (queue depth/HWM, reorder depth, watermark lag,
//! held acks, WAL segment bytes, open facts),
//! and per-stage latency histograms for the whole event lifecycle
//! (admission → queue wait → reorder dwell → WAL append → fsync → ack
//! hold, plus a late-margin histogram over dropped events).
//! Backpressure on the shard queues is configurable: block
//! the producing connection, or shed the frame — whole, never in part
//! — and report it (see [`config::Backpressure`]).
//!
//! With one shard (the default) the server is byte-identical to the
//! pre-sharding releases, including the on-disk WAL/snapshot layout;
//! with N, each shard keeps its own WAL segments
//! (`<wal>-<shard>-<gen>.seg`) and snapshot (`<snap>.shard<i>`), boot
//! recovery replays all shards in parallel, and a restart whose
//! `--shards` contradicts the on-disk layout is rejected before
//! anything is written.
//!
//! Each shard thread **group-commits** ingest: after taking one ingest
//! command off its queue it greedily drains whatever ingest commands
//! are already queued — across all connections, up to
//! [`ServerConfig::batch_max`] events — and applies them as one batch:
//! one apply pass, one WAL frame, one fsync (under `always`), one
//! watch poll. Pure reads (`query`, `stats`) never trigger a watch
//! poll. This is what keeps strict durability affordable: the fsync
//! cost is amortized over the whole batch, and under sharding the
//! fsyncs themselves proceed in parallel across shards.
//!
//! ## Wire protocol
//!
//! One listener, two planes, decided by the first four bytes of the
//! connection: exactly [`fenestra_wire::binary::MAGIC`] (`FNB1`)
//! selects the **binary plane** — length-prefixed, CRC-framed record
//! batches served by an epoll reactor pool ([`ServerConfig::reactors`];
//! see `src/reactor.rs`) that decodes frames in place and
//! coalesces each socket drain into one hand-off per touched shard.
//! Anything else is the **JSONL plane** (JSONL requests always start
//! with `{`), handled by a classic per-connection thread. Both planes
//! share the shard queues, the ack table, `--max-frame-bytes`, and the
//! ack/durability semantics below; acks on the binary plane carry the
//! same per-connection `seq`/`count` as the JSONL ack object.
//!
//! The JSONL plane is line-delimited JSON, one object per line.
//! Objects with a `"cmd"` key are commands (`query`, `watch`,
//! `stats`, `shutdown`); objects with `"op":"ingest"` and no
//! `"stream"` key are batch frames; anything else must be an event
//! (events always carry `stream`, so an event field named `op` — even
//! `"ingest"` — is not special):
//!
//! ```text
//! → {"stream":"sensors","ts":10,"visitor":"alice","room":"lobby"}
//! ← {"ok":true,"seq":1}
//! → {"op":"ingest","events":[{"stream":"sensors","ts":11,"visitor":"bob","room":"lab"},
//!                            {"stream":"sensors","ts":12,"visitor":"eve","room":"lab"}]}
//! ← {"ok":true,"seq":3,"count":2}
//! → {"cmd":"query","q":"select ?v where { ?v room \"lobby\" } asof 15"}
//! ← {"ok":true,"rows":[{"v":"#0"}]}
//! → {"cmd":"watch","name":"lab","q":"select ?v where { ?v room \"lab\" }"}
//! ← {"ok":true,"watch":"lab"}
//! ← {"watch":"lab","sign":1,"row":{"v":"#0"}}
//! → {"cmd":"stats"}
//! ← {"ok":true,"engine":{…},"server":{…},"stages":{…},"shards":[{…},…]}
//! → {"cmd":"sync"}
//! ← {"ok":true,"synced":true}
//! → {"cmd":"shutdown"}
//! ← {"ok":true,"bye":true}
//! ```
//!
//! ## Ack semantics and durability
//!
//! What an ingest ack (`{"ok":true,"seq":N}`) promises depends on the
//! durability configuration:
//!
//! * **No WAL, or WAL with `every-N` / `on-snapshot` fsync** — the ack
//!   means **admitted**: the frame entered the engine's FIFO command
//!   queue and is sent back immediately. An admitted event can still
//!   be discarded if it arrives beyond the configured lateness bound
//!   (counted in `server.late_dropped`), and a crash can lose events
//!   that were acked but not yet synced.
//! * **WAL with `always` fsync** — the ack means **durable**: each
//!   shard holds its part of a frame's ack until every event of the
//!   part has been applied and the WAL commit covering it has been
//!   appended *and* fsynced; the ack line is released only when
//!   **every shard the frame touched** has voted its part covered —
//!   in admission order per connection, but one connection's
//!   still-buffered frame never holds up another connection's covered
//!   acks. Once a client reads the ack, the transition survives
//!   `kill -9` on every shard.
//!   With `--max-lateness-ms > 0` this includes the reorder buffer:
//!   an event inside the lateness bound has produced no WAL ops yet,
//!   so its ack is withheld until the watermark passes it — on an
//!   idle stream, until the next event (or shutdown) advances the
//!   watermark. Pair `always` with lateness `0` when per-event ack
//!   latency matters more than reordering. Held acks are counted in
//!   `server.acks_deferred`; commits that covered more than one event
//!   in `server.group_commits`.
//!
//! In every mode the shard queues are FIFO and `sync` / `shutdown`
//! visit every shard, so a later `sync` or `shutdown` reply on the
//! same connection proves every previously acked event has been
//! *processed* (applied or counted as late). `stats` does **not**
//! carry that guarantee: it reads published atomics on the connection
//! thread — deliberately, so metrics pollers never enqueue through
//! the ingest path — and may run slightly behind the shard loops.
//! Under `every-N` / `on-snapshot` policies recovery truncates a torn
//! WAL tail and reports it in `server.wal_discarded_bytes`.
//!
//! ## Replication and failover
//!
//! A leader started with `--replicate HOST:PORT` serves its committed
//! per-shard WAL segments to followers over a second listener; a
//! follower started with `--follow HOST:PORT` (plus `--wal` and
//! `--snapshot`) mirrors them byte-for-byte into its own WAL, applies
//! the ops to its own engine, and serves queries, history, and watches
//! locally while redirecting ingest to the leader
//! (`{"ok":false,"redirect":"host:port",…}`). Shipping reads what the
//! group commits already made durable — it never touches the leader's
//! ingest path. A follower that cannot resume from its current
//! `(generation, offset)` (first contact, missed rotations, position
//! skew) is re-bootstrapped from the leader's snapshot wholesale; every
//! session failure self-heals by reconnecting with fresh resume
//! positions.
//!
//! Failover is **fenced by an epoch**: `{"cmd":"promote"}` on the
//! follower (or `--promote-after-ms` of leader silence, once synced)
//! durably bumps the epoch (a `<wal>.epoch` sidecar, re-stamped into
//! every later snapshot), flips the node to leader, and checkpoints
//! every shard under the new epoch — starting a fresh segment lineage.
//! A demoted ex-leader's replication traffic is refused on epoch
//! mismatch from then on. The guarantee: an event acked durable on the
//! old leader **and shipped+acked by the follower** before the crash is
//! queryable on the promoted follower. The ship ack is asynchronous —
//! a leader crash can lose the last instants of acked-but-unshipped
//! events (bounded by `repl_lag_bytes`), and follower-side crash
//! durability of applied frames still requires the follower to run
//! `--fsync always`. The follower's `setup` hook (`--rules`) must only
//! declare attributes and rules; entity-allocating setups would skew
//! entity-id alignment against the shipped stream.

pub(crate) mod admit;
pub mod config;
#[cfg(test)]
mod golden;
pub mod metrics;
pub mod prom;
pub mod proto;
pub(crate) mod reactor;
pub mod server;

pub use config::{Backpressure, ServerConfig};
pub use metrics::ServerMetrics;
pub use server::{Server, ServerHandle};
