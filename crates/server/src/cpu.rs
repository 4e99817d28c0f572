//! Where the server's CPU goes, by thread role.
//!
//! Read from `/proc/self/task/*/{stat,status}` only when `stats` is
//! requested or `/metrics` is scraped, never on the query or ingest
//! path. Each thread's role comes from its name: `fenestra-shard-N`
//! (shard), `fenestra-conn` (JSONL reader), `fenestra-writer` (JSONL
//! writer), `fenestra-reactor-N` (reactor); anything else is `other`.
//! Every thread the server starts goes through `spawn`, which folds
//! the thread's CPU into [`RetiredCpu`] as it ends. A thread that ends
//! without doing so (one the server did not start, such as a
//! replication session's ack reader) stays in the sums at its last
//! reading, so no sum ever goes down.

use crate::metrics::ServerMetrics;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// User time, system time and voluntary context switches summed by
/// thread role. Times are in microseconds, at the kernel's clock-tick
/// resolution per thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoleCpu {
    /// User CPU of the shard threads.
    pub shard_user_us: u64,
    /// System CPU of the shard threads.
    pub shard_sys_us: u64,
    /// Voluntary context switches of the shard threads.
    pub shard_vol_switches: u64,
    /// User CPU of the JSONL reader threads.
    pub reader_user_us: u64,
    /// System CPU of the JSONL reader threads.
    pub reader_sys_us: u64,
    /// Voluntary context switches of the JSONL reader threads.
    pub reader_vol_switches: u64,
    /// User CPU of the JSONL writer threads.
    pub writer_user_us: u64,
    /// System CPU of the JSONL writer threads.
    pub writer_sys_us: u64,
    /// Voluntary context switches of the JSONL writer threads.
    pub writer_vol_switches: u64,
    /// User CPU of the reactor threads.
    pub reactor_user_us: u64,
    /// System CPU of the reactor threads.
    pub reactor_sys_us: u64,
    /// Voluntary context switches of the reactor threads.
    pub reactor_vol_switches: u64,
    /// User CPU of every other thread.
    pub other_user_us: u64,
    /// System CPU of every other thread.
    pub other_sys_us: u64,
    /// Voluntary context switches of every other thread.
    pub other_vol_switches: u64,
}

fenestra_obs::metrics! {
    /// The per-role CPU split, read from [`RoleCpu::read`].
    pub fn role_cpu(RoleCpu) in "cpu" {
        shard_user_us: Counter "User CPU of the shard threads (microseconds)",
        shard_sys_us: Counter "System CPU of the shard threads (microseconds)",
        shard_vol_switches: Counter "Voluntary context switches of the shard threads",
        reader_user_us: Counter "User CPU of the JSONL connection reader threads (microseconds)",
        reader_sys_us: Counter "System CPU of the JSONL connection reader threads (microseconds)",
        reader_vol_switches: Counter "Voluntary context switches of the JSONL connection reader threads",
        writer_user_us: Counter "User CPU of the JSONL connection writer threads (microseconds)",
        writer_sys_us: Counter "System CPU of the JSONL connection writer threads (microseconds)",
        writer_vol_switches: Counter "Voluntary context switches of the JSONL connection writer threads",
        reactor_user_us: Counter "User CPU of the reactor threads (microseconds)",
        reactor_sys_us: Counter "System CPU of the reactor threads (microseconds)",
        reactor_vol_switches: Counter "Voluntary context switches of the reactor threads",
        other_user_us: Counter "User CPU of every other thread of the process (microseconds)",
        other_sys_us: Counter "System CPU of every other thread of the process (microseconds)",
        other_vol_switches: Counter "Voluntary context switches of every other thread of the process",
    }
}

/// The name a JSONL connection's reader thread runs under.
pub(crate) const READER_THREAD: &str = "fenestra-conn";

/// The name a JSONL connection's writer thread runs under.
pub(crate) const WRITER_THREAD: &str = "fenestra-writer";

/// `/proc` reports `utime` and `stime` in USER_HZ, which Linux fixes
/// at 100 ticks per second.
const TICKS_PER_SEC: u64 = 100;

/// Start a server thread named `name` that folds its CPU into
/// `metrics.retired_cpu` when it ends, a panic included.
pub(crate) fn spawn<T: Send + 'static>(
    name: impl Into<String>,
    metrics: &Arc<ServerMetrics>,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::io::Result<JoinHandle<T>> {
    struct Retire(Arc<ServerMetrics>);
    impl Drop for Retire {
        fn drop(&mut self) {
            self.0.retired_cpu.retire_current_thread();
        }
    }
    let retire = Retire(metrics.clone());
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            let _retire = retire;
            f()
        })
}

/// A thread, told apart from a later one that reuses its id by its
/// start time.
type ThreadKey = (u64, u64);

/// What one thread has used so far.
#[derive(Debug)]
struct ThreadCpu {
    key: ThreadKey,
    name: String,
    user_us: u64,
    sys_us: u64,
    vol_switches: u64,
}

impl ThreadCpu {
    /// Read a thread's `stat` and `status` under `dir` (a
    /// `/proc/self/task/<tid>` or `/proc/thread-self`). `None` when the
    /// thread is gone or the files do not parse.
    fn read(dir: &str) -> Option<ThreadCpu> {
        let stat = std::fs::read_to_string(format!("{dir}/stat")).ok()?;
        // `tid (comm) state ...`: the name may hold spaces and
        // parentheses, so split at the first `(` and the last `)`.
        let (head, rest) = stat.rsplit_once(')')?;
        let (tid, name) = head.split_once('(')?;
        let tid = tid.trim().parse().ok()?;
        // utime, stime and starttime are fields 14, 15 and 22 of the
        // line, 12, 13 and 20 after the name.
        let fields: Vec<&str> = rest.split_whitespace().take(20).collect();
        let field = |i: usize| -> Option<u64> { fields.get(i)?.parse().ok() };
        let us = |ticks: u64| ticks * 1_000_000 / TICKS_PER_SEC;
        let (user_us, sys_us, start) = (us(field(11)?), us(field(12)?), field(19)?);
        let status = std::fs::read_to_string(format!("{dir}/status")).ok()?;
        let vol_switches = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())?;
        Some(ThreadCpu {
            key: (tid, start),
            name: name.to_string(),
            user_us,
            sys_us,
            vol_switches,
        })
    }

    /// Whether the thread `key` names is still running.
    fn alive(key: ThreadKey) -> bool {
        ThreadCpu::read(&format!("/proc/self/task/{}", key.0)).is_some_and(|t| t.key == key)
    }
}

impl RoleCpu {
    /// The split now: every live thread of this process, read from
    /// `/proc/self/task`, plus what `retired` holds of threads that
    /// have ended. All zero where `/proc` is not available.
    pub fn read(retired: &RetiredCpu) -> RoleCpu {
        let mut ledger = retired.0.lock().unwrap_or_else(PoisonError::into_inner);
        let ledger = &mut *ledger;
        let mut live = HashSet::new();
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let Some(t) = ThreadCpu::read(&task.path().to_string_lossy()) else {
                    continue;
                };
                live.insert(t.key);
                match ledger.seen.entry(t.key) {
                    // Retired: its use is already in `gone`.
                    Entry::Occupied(e) if e.get().is_none() => {}
                    Entry::Occupied(mut e) => *e.get_mut() = Some(t),
                    Entry::Vacant(e) => {
                        e.insert(Some(t));
                    }
                }
            }
        }
        // A thread that ended without retiring stays at its last
        // reading, so no sum goes down.
        let gone = &mut ledger.gone;
        ledger.seen.retain(|key, last| {
            live.contains(key) || {
                if let Some(t) = last {
                    gone.add(t);
                }
                false
            }
        });
        let mut cpu = ledger.gone;
        for t in ledger.seen.values().flatten() {
            cpu.add(t);
        }
        cpu
    }

    fn add(&mut self, t: &ThreadCpu) {
        // Thread names are cut to 15 bytes: `fenestra-shard-12` reads
        // `fenestra-shard-`.
        let (user, sys, vol) = match t.name.as_str() {
            n if n.starts_with("fenestra-shard") => (
                &mut self.shard_user_us,
                &mut self.shard_sys_us,
                &mut self.shard_vol_switches,
            ),
            READER_THREAD => (
                &mut self.reader_user_us,
                &mut self.reader_sys_us,
                &mut self.reader_vol_switches,
            ),
            WRITER_THREAD => (
                &mut self.writer_user_us,
                &mut self.writer_sys_us,
                &mut self.writer_vol_switches,
            ),
            n if n.starts_with("fenestra-reacto") => (
                &mut self.reactor_user_us,
                &mut self.reactor_sys_us,
                &mut self.reactor_vol_switches,
            ),
            _ => (
                &mut self.other_user_us,
                &mut self.other_sys_us,
                &mut self.other_vol_switches,
            ),
        };
        *user += t.user_us;
        *sys += t.sys_us;
        *vol += t.vol_switches;
    }
}

/// What [`RoleCpu::read`] keeps between reads so that its sums only
/// grow: the use of threads that have ended, and the last reading of
/// every thread it has seen alive.
#[derive(Debug, Default)]
pub struct RetiredCpu(Mutex<Ledger>);

#[derive(Debug, Default)]
struct Ledger {
    /// Summed use of the threads that retired themselves or have
    /// ended since they were last read.
    gone: RoleCpu,
    /// The last reading of each thread seen alive; `None` once it has
    /// retired itself, so that its entry is not counted again in the
    /// moment before it ends.
    seen: HashMap<ThreadKey, Option<ThreadCpu>>,
}

impl RetiredCpu {
    /// Fold the calling thread's use so far into the retired sums; a
    /// thread does this as it ends, since its `/proc` entry goes with
    /// it.
    pub(crate) fn retire_current_thread(&self) {
        // Read under the lock, so that no read of the split sees this
        // thread live at more than it is retired with.
        let mut ledger = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(t) = ThreadCpu::read("/proc/thread-self") else {
            return;
        };
        // Forget the retired threads that have ended since.
        ledger
            .seen
            .retain(|&key, last| last.is_some() || ThreadCpu::alive(key));
        ledger.gone.add(&t);
        ledger.seen.insert(t.key, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Spin until the calling thread has used `us` of CPU.
    fn spin(us: u64) {
        let mut x = 0u64;
        while ThreadCpu::read("/proc/thread-self").map_or(0, |t| t.user_us + t.sys_us) < us {
            for _ in 0..100_000 {
                x = x.wrapping_mul(31).wrapping_add(1);
            }
        }
        std::hint::black_box(x);
    }

    #[test]
    fn threads_are_split_by_role() {
        let retired = RetiredCpu::default();
        let spin_as = |name: &str| {
            let retired = &retired;
            std::thread::scope(|s| {
                std::thread::Builder::new()
                    .name(name.into())
                    .spawn_scoped(s, move || {
                        spin(60_000);
                        retired.retire_current_thread();
                    })
                    .unwrap();
            });
        };
        spin_as(WRITER_THREAD);
        spin_as(READER_THREAD);
        let cpu = RoleCpu::read(&retired);
        assert!(cpu.writer_user_us + cpu.writer_sys_us >= 60_000, "{cpu:?}");
        assert!(cpu.reader_user_us + cpu.reader_sys_us >= 60_000, "{cpu:?}");
        // The test harness's own threads are `other`.
        assert!(cpu.other_vol_switches > 0, "{cpu:?}");
    }

    #[test]
    fn no_sum_goes_down_as_threads_end() {
        let retired = RetiredCpu::default();
        let (ready_tx, ready_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let go_rx = Mutex::new(go_rx);
        let alive = std::thread::scope(|s| {
            // One thread ends without retiring, one retires and then
            // waits before it ends.
            for (name, retires) in [("fenestra-bsync", false), (WRITER_THREAD, true)] {
                let (ready_tx, go_rx, retired) = (ready_tx.clone(), &go_rx, &retired);
                std::thread::Builder::new()
                    .name(name.into())
                    .spawn_scoped(s, move || {
                        spin(50_000);
                        if retires {
                            retired.retire_current_thread();
                        }
                        ready_tx.send(()).unwrap();
                        let _ = go_rx.lock().unwrap().recv();
                    })
                    .unwrap();
            }
            ready_rx.recv().unwrap();
            ready_rx.recv().unwrap();
            let alive = RoleCpu::read(&retired);
            drop(go_tx);
            alive
        });
        let ended = RoleCpu::read(&retired);
        assert!(
            alive.other_user_us + alive.other_sys_us >= 50_000,
            "{alive:?}"
        );
        assert!(
            alive.writer_user_us + alive.writer_sys_us >= 50_000,
            "{alive:?}"
        );
        let sums = |c: RoleCpu| {
            [
                c.shard_user_us,
                c.shard_sys_us,
                c.shard_vol_switches,
                c.reader_user_us,
                c.reader_sys_us,
                c.reader_vol_switches,
                c.writer_user_us,
                c.writer_sys_us,
                c.writer_vol_switches,
                c.reactor_user_us,
                c.reactor_sys_us,
                c.reactor_vol_switches,
                c.other_user_us,
                c.other_sys_us,
                c.other_vol_switches,
            ]
        };
        for (i, (a, e)) in sums(alive).into_iter().zip(sums(ended)).enumerate() {
            assert!(e >= a, "sum {i} went down: {alive:?} then {ended:?}");
        }
    }
}
