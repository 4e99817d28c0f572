//! # fenestra-obs — pipeline observability
//!
//! Lock-free latency histograms and per-shard gauges for the ingest
//! pipeline. The event lifecycle fenestrad instruments with these:
//!
//! ```text
//! socket read → stage/route/enqueue  (admit_us, server-wide)
//!             → ingest-queue wait    (queue_wait_us, per shard)
//!             → reorder-buffer dwell (reorder_dwell_us, per shard)
//!             → WAL append           (wal_append_us, per shard)
//!             → fsync                (fsync_us, per shard)
//!             → durable-ack release  (ack_hold_us, per shard)
//! ```
//!
//! plus a lateness-margin histogram (`late_margin_ms`) that records
//! *how far* behind the watermark each dropped event was — turning
//! "why were 59% of events dropped?" into a distribution query.
//!
//! Design constraints, in order:
//!
//! 1. **Never block the hot path.** Histograms are fixed arrays of
//!    relaxed atomics ([`Histogram`]); recording is a few `fetch_add`s.
//! 2. **Metrics reads don't touch the pipeline.** Readers snapshot
//!    atomics; they never take the engine lock or enqueue through the
//!    shard queues.
//! 3. **Exact merges.** Per-shard [`HistogramSnapshot`]s merge into a
//!    whole-pipeline view identical to a single histogram fed the
//!    union of samples (property-tested).
//!
//! This crate has no dependency on the rest of fenestra, so every
//! layer (temporal's WAL writer, core's engine, the server) can depend
//! on it without cycles.

#![warn(missing_docs)]

mod histogram;
mod pipeline;

pub use histogram::{bucket_upper_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use pipeline::{
    EngineCounters, EngineGauges, PipelineObs, PlanObs, ReplObs, ShardObs, WalObs, STAGES,
};
