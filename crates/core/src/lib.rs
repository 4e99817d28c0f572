#![warn(missing_docs)]
//! # fenestra-core
//!
//! The integrated Fenestra engine — the architecture of the paper's
//! Figure 1, assembled from the substrate crates:
//!
//! ```text
//!                ┌───────────────────────────────┐
//!  input         │  state management component   │     ┌───────────┐
//!  streams ──┬──▶│  (fenestra-rules)             │────▶│   state   │
//!            │   └───────────────────────────────┘     │ repository│
//!            │   ┌───────────────────────────────┐     │(fenestra- │
//!            └──▶│  stream processing component  │◀───▶│ temporal) │
//!                │  (fenestra-stream)            │     └─────┬─────┘
//!                └──────────────┬────────────────┘           │
//!                               ▼                   ┌────────┴────────┐
//!                        output streams             │ queries (query) │
//!                                                   │ reasoning       │
//!                                                   │ (fenestra-      │
//!                                                   │  reason)        │
//!                                                   └─────────────────┘
//! ```
//!
//! The [`engine::Engine`] accepts events, reorders them up to a
//! bounded lateness, and for each event (in timestamp order) runs the
//! state-management rules and the stream-processing dataflow under a
//! configurable [`config::Semantics`] — the paper's open question 3
//! ("how a change in the state might impact on the ongoing streaming
//! computation") made into an explicit, testable knob. The reasoner
//! maintains derived facts in the store after every batch of
//! transitions, and one-time queries (textual or programmatic) read
//! current or historical state at any moment.

pub mod config;
pub mod engine;
pub mod shard;
pub mod watch;

pub use config::{EngineConfig, Semantics};
pub use engine::{Engine, QueryResult};
pub use fenestra_obs::EngineMetrics;
pub use shard::{default_shards, ShardRouter, ShardedEngine};
pub use watch::{Watch, WatchDelta};
