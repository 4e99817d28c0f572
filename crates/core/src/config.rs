//! Engine configuration.

use fenestra_base::time::Duration;
use fenestra_stream::watermark::WatermarkPolicy;

/// Interaction semantics between the state management component and
/// the stream processing component (paper §3.3, open question 3).
///
/// The distinction is observable through stream–state operators that
/// read the *live* state (`TimeRef::Current`) and through the relative
/// order of rule side effects and stream outputs; operators probing
/// `TimeRef::EventTime` see the timestamp-synchronized state under
/// every mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Semantics {
    /// For each event: state rules fire first, then the stream
    /// component processes the event (it sees the post-transition
    /// state). The default, and the paper's implied reading —
    /// "a new event … invalidates previous information and adds a new
    /// state element" before results are produced.
    #[default]
    StateFirst,
    /// For each event: the stream component runs first against the
    /// pre-transition state, then the rules update state.
    StreamFirst,
    /// Batch-consistent: events buffer until the watermark advances;
    /// then all state rules for the batch run, then all stream
    /// processing. Stream rules see a state snapshot aligned to the
    /// watermark rather than to individual events.
    Snapshot,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Interaction semantics.
    pub semantics: Semantics,
    /// Bounded out-of-orderness: events are reordered within this
    /// lateness bound and dropped (counted) beyond it.
    pub max_lateness: Duration,
    /// Re-run the reasoner after every event that changed state
    /// (maintaining derived facts in the store). Leave off when no
    /// ontology is set.
    pub auto_reason: bool,
    /// Keep closed history for at least this long behind the
    /// watermark; older closed facts are garbage-collected as the
    /// watermark advances. `None` (default) retains history forever.
    pub retention: Option<Duration>,
    /// Journal mutations in the store's in-memory WAL (the source for
    /// full-history snapshots, forks, and the durable log). On by
    /// default. The journal grows with every transition until
    /// [`crate::Engine::take_journal`] drains it, so turn it off when
    /// nothing drains it: `fenestrad` journals only with `--wal`. With
    /// journaling off, [`crate::Engine::take_journal`] always returns
    /// nothing and [`crate::Engine::save_state`] writes the compact
    /// snapshot of the current state.
    pub journal: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            semantics: Semantics::StateFirst,
            max_lateness: Duration::ZERO,
            auto_reason: false,
            retention: None,
            journal: true,
        }
    }
}

impl EngineConfig {
    /// The watermark policy implied by the lateness bound.
    pub fn watermark_policy(&self) -> WatermarkPolicy {
        WatermarkPolicy::bounded(self.max_lateness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = EngineConfig::default();
        assert_eq!(c.semantics, Semantics::StateFirst);
        assert_eq!(c.max_lateness, Duration::ZERO);
        assert!(!c.auto_reason);
        assert!(c.retention.is_none());
        assert!(c.journal, "journaling is on unless explicitly disabled");
        assert_eq!(c.watermark_policy(), WatermarkPolicy::strict());
    }
}
