//! The shared plan cache.
//!
//! Compilation (parse → build → rewrite → lower) is pure, so compiled
//! plans are keyed by their trimmed statement text and shared across
//! every consumer: repeated queries skip the planner entirely, and a
//! thousand watches of the same statement hold one [`CachedPlan`]
//! between them. Errors are *not* cached — a failing statement re-runs
//! the compiler (they're rare, and caching them would pin arbitrary
//! garbage keys).

use crate::plan::{compile, CachedPlan};
use fenestra_base::error::Result;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default bound on distinct cached statements.
pub const DEFAULT_CACHE_CAP: usize = 1024;

/// Counters a cache exposes to stats and Prometheus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled.
    pub misses: u64,
    /// Statements currently cached.
    pub entries: u64,
}

/// A statement-keyed, bounded plan cache. Cheap to clone behind an
/// `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct PlanCache {
    plans: Mutex<Generations>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Least-recently-used eviction in two generations: a lookup or insert
/// puts its statement in `hot`; when `hot` holds half the cap it
/// becomes `cold` and the old `cold` is dropped. A statement used again
/// before two such turns is kept, so a working set below half the cap
/// always hits, however many one-off statements pass through.
#[derive(Debug, Default)]
struct Generations {
    hot: HashMap<String, Arc<CachedPlan>>,
    cold: HashMap<String, Arc<CachedPlan>>,
}

impl Generations {
    fn get(&mut self, key: &str, half: usize) -> Option<Arc<CachedPlan>> {
        if let Some(plan) = self.hot.get(key) {
            return Some(plan.clone());
        }
        let (key, plan) = self.cold.remove_entry(key)?;
        self.insert(key, plan.clone(), half);
        Some(plan)
    }

    fn insert(&mut self, key: String, plan: Arc<CachedPlan>, half: usize) {
        if self.hot.len() >= half {
            self.cold = std::mem::take(&mut self.hot);
        }
        self.hot.insert(key, plan);
    }

    fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_CACHE_CAP)
    }
}

impl PlanCache {
    /// A cache bounded to `cap` distinct statements (at least two: one
    /// per generation).
    pub fn new(cap: usize) -> PlanCache {
        PlanCache {
            plans: Mutex::new(Generations::default()),
            cap: cap.max(2),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up `src` (trimmed), compiling on miss. Returns the shared
    /// plan and whether this was a cache hit.
    pub fn get_or_compile(&self, src: &str) -> Result<(Arc<CachedPlan>, bool)> {
        let key = src.trim();
        let half = self.cap / 2;
        if let Some(plan) = self.plans.lock().unwrap().get(key, half) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((plan, true));
        }
        // Compile outside the lock: misses are the slow path and must
        // not serialize behind each other (or block hits).
        let plan = Arc::new(compile(key)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut plans = self.plans.lock().unwrap();
        if let Some(existing) = plans.get(key, half) {
            // A racing thread beat us; share its plan.
            return Ok((existing, false));
        }
        plans.insert(key.to_string(), plan.clone(), half);
        Ok((plan, false))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.plans.lock().unwrap().len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: &str = "select ?v where { ?v room ?r }";

    #[test]
    fn hit_shares_the_same_plan() {
        let cache = PlanCache::default();
        let (a, hit_a) = cache.get_or_compile(Q).unwrap();
        let (b, hit_b) = cache.get_or_compile(&format!("  {Q}  ")).unwrap();
        assert!(!hit_a);
        assert!(hit_b, "trimmed text must key the same entry");
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = PlanCache::default();
        assert!(cache.get_or_compile("select nothing sensible").is_err());
        assert!(cache.get_or_compile("select nothing sensible").is_err());
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.misses, 0, "failed compiles count as neither hit nor miss");
    }

    #[test]
    fn cap_bounds_entries() {
        let cache = PlanCache::new(4);
        for i in 0..10 {
            let src = format!("select ?v where {{ ?v attr{i} ?x }}");
            cache.get_or_compile(&src).unwrap();
        }
        assert!(cache.stats().entries <= 4);
        // The cache still works after evictions.
        let (_, hit) = cache.get_or_compile(Q).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_compile(Q).unwrap();
        assert!(hit);
    }

    #[test]
    fn hot_statements_survive_a_stream_of_one_offs() {
        // Four statements in steady use, each followed by a statement
        // never seen before, through a cache with room for sixteen.
        let cache = PlanCache::new(16);
        let hot: Vec<String> = (0..4)
            .map(|i| format!("select ?v where {{ ?v hot{i} ?x }}"))
            .collect();
        let mut fresh = 0;
        for round in 0..200 {
            for q in &hot {
                let (_, hit) = cache.get_or_compile(q).unwrap();
                assert!(hit || round == 0, "`{q}` missed in round {round}");
                fresh += 1;
                let one_off = format!("select ?v where {{ ?v once{fresh} ?x }}");
                assert!(!cache.get_or_compile(&one_off).unwrap().1);
            }
        }
        assert!(cache.stats().entries <= 16);
    }
}
