//! Seeded building-stream generator and its oracle.
//!
//! Every workload drives the paper's building stream (§1): events on
//! `sensors` carrying a `visitor` and the `room` it just entered, under
//! `rule visitor_moves: on sensors replace $(visitor).room = room`.
//! The generator keeps each tracked visitor's timeline so the run can
//! check the server's `AS OF` answers afterwards.

use fenestra_base::record::Event;
use fenestra_base::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Zipf};
use std::collections::HashMap;

/// The rule every server and reference engine loads.
pub const RULES: &str = "rule visitor_moves:\n  on sensors\n  replace $(visitor).room = room\n";

/// The stream all events arrive on.
pub const STREAM: &str = "sensors";

/// How the next moving visitor is chosen.
#[derive(Debug, Clone, Copy)]
pub enum Keys {
    /// A fixed seeded permutation, repeated: every visitor moves once
    /// per `visitors` events, so two moves of one visitor are always
    /// exactly `visitors` events apart.
    Cycle,
    /// Zipf-skewed ranks with this exponent; visitors listed as spaced
    /// are resampled until their previous move is at least `min_gap`
    /// events back.
    Zipf { s: f64, min_gap: u64 },
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct GenConfig {
    pub visitors: u32,
    pub rooms: u32,
    pub keys: Keys,
    /// Event-time step per event (ms).
    pub step_ms: u64,
    /// Each event's timestamp is pulled back by up to this much (ms):
    /// bounded out-of-order arrival. Must stay under the server's
    /// lateness bound.
    pub jitter_ms: u64,
    pub seed: u64,
}

/// One generated move.
#[derive(Debug, Clone, Copy)]
pub struct Move {
    /// Position in send order.
    pub seq: u64,
    pub visitor: u32,
    /// The room the visitor left (`None` on its first event).
    pub from: Option<u32>,
    pub room: u32,
    pub ts: u64,
}

pub fn visitor_name(v: u32) -> String {
    format!("v{v}")
}

pub fn room_name(r: u32) -> String {
    format!("room{r}")
}

pub struct Generator {
    cfg: GenConfig,
    rng: StdRng,
    perm: Vec<u32>,
    zipf: Option<Zipf>,
    /// Current room per visitor, in send order.
    room: Vec<Option<u32>>,
    last_seq: Vec<u64>,
    spaced: Vec<bool>,
    next: u64,
    /// Visitors whose moves are kept for the oracle.
    tracked: Vec<bool>,
    log: HashMap<u32, Vec<Move>>,
}

impl Generator {
    pub fn new(cfg: GenConfig) -> Generator {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = cfg.visitors as usize;
        let mut perm: Vec<u32> = (0..cfg.visitors).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let zipf = match cfg.keys {
            Keys::Zipf { s, .. } => Some(Zipf::new(cfg.visitors as u64, s).expect("zipf")),
            Keys::Cycle => None,
        };
        Generator {
            rng,
            perm,
            zipf,
            room: vec![None; n],
            last_seq: vec![0; n],
            spaced: vec![false; n],
            next: 0,
            tracked: vec![false; n],
            log: HashMap::new(),
            cfg,
        }
    }

    /// Keep `v`'s moves for the oracle.
    pub fn track(&mut self, v: u32) {
        self.tracked[v as usize] = true;
    }

    /// Keep every visitor's moves.
    pub fn track_all(&mut self) {
        self.tracked.iter_mut().for_each(|t| *t = true);
    }

    /// Enforce the Zipf minimum gap on `v` (its watch deltas must map
    /// one to one onto its moves, so no two may share a group commit).
    pub fn space(&mut self, v: u32) {
        self.spaced[v as usize] = true;
    }

    /// A seeded sample of `n` distinct visitors, drawn from the
    /// generator's own stream so it never disturbs the event sequence
    /// of a differently sized sample (the sample rng is separate).
    pub fn sample_visitors(&self, n: usize, salt: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ salt.wrapping_mul(0x9E37_79B9));
        let mut out: Vec<u32> = Vec::with_capacity(n);
        while out.len() < n.min(self.cfg.visitors as usize) {
            let v = rng.gen_range(0..self.cfg.visitors);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// Zipf rank `k` (1-based) → visitor: a fixed permutation, so the
    /// hot visitors land on either shard.
    fn pick(&mut self) -> u32 {
        match self.cfg.keys {
            Keys::Cycle => self.perm[(self.next % self.cfg.visitors as u64) as usize],
            Keys::Zipf { min_gap, .. } => loop {
                let k = self.zipf.as_ref().unwrap().sample(&mut self.rng) as usize;
                let v = self.perm[k - 1];
                let i = v as usize;
                if !self.spaced[i]
                    || self.room[i].is_none()
                    || self.next - self.last_seq[i] >= min_gap
                {
                    return v;
                }
            },
        }
    }

    /// The next move, in send order.
    pub fn next_move(&mut self) -> Move {
        let v = self.pick();
        let i = v as usize;
        let from = self.room[i];
        let room = match from {
            None => self.rng.gen_range(0..self.cfg.rooms),
            Some(prev) => {
                let r = self.rng.gen_range(0..self.cfg.rooms - 1);
                if r >= prev {
                    r + 1
                } else {
                    r
                }
            }
        };
        let base = 1_000 + self.next * self.cfg.step_ms;
        let ts = if self.cfg.jitter_ms == 0 {
            base
        } else {
            base - self.rng.gen_range(0..=self.cfg.jitter_ms)
        };
        let m = Move {
            seq: self.next,
            visitor: v,
            from,
            room,
            ts,
        };
        self.room[i] = Some(room);
        self.last_seq[i] = self.next;
        self.next += 1;
        if self.tracked[i] {
            self.log.entry(v).or_default().push(m);
        }
        m
    }

    /// Change how later moves pick visitors and stamp timestamps.
    pub fn switch(&mut self, keys: Keys, jitter_ms: u64) {
        if let Keys::Zipf { s, .. } = keys {
            self.zipf = Some(Zipf::new(self.cfg.visitors as u64, s).expect("zipf"));
        }
        self.cfg.keys = keys;
        self.cfg.jitter_ms = jitter_ms;
    }

    /// Reorder the Zipf ranks so consecutive ranks alternate between
    /// shards (`shard_of` maps a visitor to its shard): how much load
    /// the hot visitors put on each shard is then a property of the
    /// workload, not an accident of the seed.
    pub fn interleave_ranks(&mut self, shards: u32, shard_of: impl Fn(u32) -> u32) {
        let mut lanes: Vec<std::collections::VecDeque<u32>> =
            vec![Default::default(); shards as usize];
        for &v in &self.perm {
            lanes[shard_of(v) as usize].push_back(v);
        }
        let mut out = Vec::with_capacity(self.perm.len());
        while out.len() < self.perm.len() {
            for lane in lanes.iter_mut() {
                out.extend(lane.pop_front());
            }
        }
        self.perm = out;
    }

    /// The visitor holding Zipf rank `k` (1-based).
    pub fn visitor_of_rank(&self, k: usize) -> u32 {
        self.perm[k - 1]
    }

    /// The room `v` is in after every move generated so far.
    pub fn current_room(&self, v: u32) -> Option<u32> {
        self.room[v as usize]
    }

    /// Moves generated so far.
    pub fn count(&self) -> u64 {
        self.next
    }

    /// Largest timestamp any generated event can carry so far.
    pub fn max_ts(&self) -> u64 {
        1_000 + self.next.saturating_sub(1) * self.cfg.step_ms
    }

    /// Every kept move of a tracked visitor, in send order.
    pub fn moves_of(&self, v: u32) -> &[Move] {
        self.log.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Every kept move, in send order.
    pub fn all_moves(&self) -> Vec<Move> {
        let mut all: Vec<Move> = self.log.values().flatten().copied().collect();
        all.sort_by_key(|m| m.seq);
        all
    }

    /// Oracle: the room a tracked visitor is in at instant `t`. The
    /// engine applies events in `(ts, arrival)` order, and one visitor's
    /// events arrive in send order, so the answer is the last move by
    /// that order with `ts <= t`.
    pub fn room_at(&self, v: u32, t: u64) -> Option<u32> {
        self.moves_of(v)
            .iter()
            .filter(|m| m.ts <= t)
            .max_by_key(|m| (m.ts, m.seq))
            .map(|m| m.room)
    }
}

/// The engine event for a move.
pub fn event(m: &Move) -> Event {
    Event::from_pairs(
        STREAM,
        m.ts,
        [
            ("visitor", Value::str(&visitor_name(m.visitor))),
            ("room", Value::str(&room_name(m.room))),
        ],
    )
}

/// The JSONL line for a move (no trailing newline).
pub fn json_line(m: &Move) -> String {
    format!(
        r#"{{"stream":"{STREAM}","ts":{},"visitor":"v{}","room":"room{}"}}"#,
        m.ts, m.visitor, m.room
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(keys: Keys, jitter_ms: u64) -> GenConfig {
        GenConfig {
            visitors: 50,
            rooms: 5,
            keys,
            step_ms: 2,
            jitter_ms,
            seed: 11,
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Generator::new(cfg(Keys::Zipf { s: 1.1, min_gap: 0 }, 3));
        let mut b = Generator::new(cfg(Keys::Zipf { s: 1.1, min_gap: 0 }, 3));
        for _ in 0..500 {
            let (x, y) = (a.next_move(), b.next_move());
            assert_eq!((x.visitor, x.room, x.ts), (y.visitor, y.room, y.ts));
        }
    }

    #[test]
    fn moves_change_rooms_and_cycle_spaces_visitors() {
        let mut g = Generator::new(cfg(Keys::Cycle, 0));
        g.track_all();
        for _ in 0..500 {
            g.next_move();
        }
        for v in 0..50 {
            let mv = g.moves_of(v);
            assert_eq!(mv.len(), 10);
            for w in mv.windows(2) {
                assert_eq!(w[1].seq - w[0].seq, 50);
                assert_ne!(w[0].room, w[1].room);
                assert_eq!(w[1].from, Some(w[0].room));
            }
        }
    }

    #[test]
    fn zipf_gap_is_enforced_on_spaced_visitors() {
        let mut g = Generator::new(cfg(
            Keys::Zipf {
                s: 1.1,
                min_gap: 20,
            },
            0,
        ));
        let hot = g.perm[0];
        g.space(hot);
        g.track(hot);
        for _ in 0..2_000 {
            g.next_move();
        }
        let mv = g.moves_of(hot);
        assert!(mv.len() > 10);
        assert!(mv.windows(2).all(|w| w[1].seq - w[0].seq >= 20));
    }

    #[test]
    fn oracle_follows_timestamp_order() {
        let mut g = Generator::new(cfg(Keys::Cycle, 0));
        g.track_all();
        let first = g.next_move();
        assert_eq!(g.room_at(first.visitor, first.ts - 1), None);
        assert_eq!(g.room_at(first.visitor, first.ts), Some(first.room));
    }
}
