//! # fenestra-obs — pipeline observability
//!
//! Lock-free latency histograms, gauges and counters for the ingest
//! pipeline, each declared once in the metric registry
//! ([`metrics!`]). An event crosses these stages, each timed by a
//! histogram (the declarations in [`PipelineObs`] and [`ShardObs`]
//! name and describe them):
//!
//! ```text
//! socket read → decode (binary plane) → stage/route/enqueue (admission)
//!             → ingest-queue wait → reorder-buffer dwell
//!             → WAL append → fsync → durable-ack release
//! ```
//!
//! plus a lateness-margin histogram that records *how far* behind the
//! watermark each dropped event was — turning "why were 59% of events
//! dropped?" into a distribution query.
//!
//! Design constraints, in order:
//!
//! 1. **Never block the hot path.** Histograms are fixed arrays of
//!    relaxed atomics ([`Histogram`]); recording is a few `fetch_add`s
//!    on a named field, never a lookup through the registry.
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
mod registry;

pub use histogram::{bucket_upper_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use pipeline::{EngineGauges, EngineMetrics, PipelineObs, PlanObs, ReplObs, ShardObs, WalObs};
pub use registry::{storage, Kind, Metric, Read, Reading, Readings};
