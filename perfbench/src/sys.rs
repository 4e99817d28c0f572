//! Process plumbing: the server child, `/proc` readings, `ppoll`, the
//! per-run scratch directory and the hard deadline.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ----- phases and the deadline ----------------------------------------------

static PHASE: Mutex<&'static str> = Mutex::new("start");
/// Pid of the live server child (0 = none), for the watchdog.
static CHILD_PID: AtomicU32 = AtomicU32::new(0);
static RUN_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Name the phase the run is in; the deadline names it if it hangs.
pub fn phase(name: &'static str) {
    *PHASE.lock().unwrap() = name;
}

pub fn current_phase() -> &'static str {
    *PHASE.lock().unwrap()
}

/// Kill the run (child included) if it is still going after `limit`.
pub fn arm_deadline(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "perfbench: hard deadline of {}s exceeded in phase `{}`; killing the server and failing",
            limit.as_secs(),
            current_phase()
        );
        kill_child_now();
        remove_run_dir();
        std::process::exit(3);
    });
}

fn kill_child_now() {
    let pid = CHILD_PID.swap(0, Ordering::SeqCst);
    if pid != 0 {
        // SAFETY: kill(2) takes plain integers and touches no memory of
        // ours. The pid is our child's: `ServerChild` clears the slot
        // before it reaps, so only a reap racing this very swap could
        // free the pid first, and the process exits right after.
        unsafe {
            kill(pid as i32, 9);
        }
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

/// Acknowledge what `sock` has received at once instead of delaying
/// the ACK. The server leaves Nagle's algorithm on, so a reply written
/// while an earlier one is unacknowledged waits for the client's ACK;
/// delayed, that ACK rides on the client's next request, and latency
/// would read the client's send interval instead of the server. Linux
/// clears the flag again on its own, so it is set after every read.
pub fn quick_ack(sock: &impl AsRawFd) {
    // IPPROTO_TCP = 6, TCP_QUICKACK = 12.
    let one: i32 = 1;
    // SAFETY: `one` outlives the call and `len` is its size.
    unsafe {
        setsockopt(sock.as_raw_fd(), 6, 12, &one, 4);
    }
}

// ----- the run directory -----------------------------------------------------

/// Scratch space for one run (WAL segments, trace files while being
/// written), under the checkout's `.perfbench_tmp`. Removed on every
/// exit path: drop, panic unwind, or the deadline.
pub struct RunDir {
    pub path: PathBuf,
}

impl RunDir {
    pub fn create() -> std::io::Result<RunDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let path =
            PathBuf::from(".perfbench_tmp").join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        let path = path.canonicalize()?;
        *RUN_DIR.lock().unwrap() = Some(path.clone());
        Ok(RunDir { path })
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        remove_run_dir();
    }
}

fn remove_run_dir() {
    if let Some(p) = RUN_DIR.lock().unwrap().take() {
        let _ = std::fs::remove_dir_all(&p);
        // Drop the parent too once no other run is using it.
        if let Some(parent) = p.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

// ----- the server child ------------------------------------------------------

/// A `fenestra-server` running in a child process (this binary
/// re-executed with `--serve`). Killed and reaped on drop.
pub struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
    pub pid: u32,
}

impl ServerChild {
    /// Spawn and wait for the child's address line (readiness is that
    /// line, never a sleep-poll).
    pub fn spawn(args: &[String], deadline: Instant) -> ServerChild {
        let exe = std::env::current_exe().expect("current exe");
        let mut child = Command::new(exe)
            .arg("--serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn server child");
        let pid = child.id();
        CHILD_PID.store(pid, Ordering::SeqCst);
        let stdout = child.stdout.take().unwrap();
        let stdin = child.stdin.take();
        // The address line is read on a helper that the deadline bounds:
        // a child that never prints must not hang the run.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        let wait = deadline.saturating_duration_since(Instant::now());
        let line = match rx.recv_timeout(wait) {
            Ok(l) => l,
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("server child did not report its address in time");
            }
        };
        let addr = line
            .trim()
            .strip_prefix("addr ")
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| {
                let _ = child.kill();
                let _ = child.wait();
                panic!("server child failed to start (first line: {line:?})")
            });
        ServerChild {
            child,
            stdin,
            addr,
            pid,
        }
    }

    /// User+system CPU of the child so far, in microseconds
    /// (`/proc/<pid>/stat`, clock ticks).
    pub fn cpu_us(&self) -> f64 {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid)).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 (1-based) of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks: f64 = f.get(11).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0)
            + f.get(12).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
        ticks * 1e6 / clock_ticks()
    }

    /// Peak resident set (`VmHWM`) of the child, in MiB.
    pub fn rss_peak_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid)).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .unwrap_or(0.0)
    }

    /// Close the control pipe (the child drains and exits) and reap it;
    /// kill it if it takes longer than `grace`.
    pub fn stop(mut self, grace: Duration) {
        // Bounded by `grace`, so the deadline need not cover it; and
        // `try_wait` below may reap, which must not leave a stale pid.
        CHILD_PID.store(0, Ordering::SeqCst);
        drop(self.stdin.take());
        let until = Instant::now() + grace;
        // No timed wait in std: poll for the exit. Drop then reaps (or
        // kills a child that overstayed `grace`).
        while Instant::now() < until {
            if !matches!(self.child.try_wait(), Ok(None)) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        CHILD_PID.store(0, Ordering::SeqCst);
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn clock_ticks() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    // _SC_CLK_TCK is 2 on Linux.
    // SAFETY: sysconf(3) takes an integer and returns one.
    let t = unsafe { sysconf(2) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// Child side of `--serve`: print the address, then serve until the
/// control pipe closes.
pub fn serve_until_stdin_closes(handle: fenestra_server::ServerHandle) {
    let mut handle = handle;
    {
        let mut out = std::io::stdout().lock();
        writeln!(out, "addr {}", handle.local_addr()).unwrap();
        out.flush().unwrap();
    }
    let mut sink = Vec::new();
    let _ = std::io::Read::read_to_end(&mut std::io::stdin(), &mut sink);
    handle.shutdown();
}

// ----- ppoll -----------------------------------------------------------------

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

pub const POLLIN: i16 = 0x1;
pub const POLLOUT: i16 = 0x4;

/// Wait until `sock` is ready for `events` or `timeout` passes.
pub fn wait_ready(sock: &impl AsRawFd, events: i16, timeout: Duration) {
    let mut fd = PollFd {
        fd: sock.as_raw_fd(),
        events,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fd` and `ts` are live, correctly laid out (`repr(C)`)
    // locals for the duration of the call, nfds is 1, and a null
    // sigmask means "leave the mask alone".
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

// ----- environment -----------------------------------------------------------

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor gave this machine's CPUs to someone else.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

/// fsync latency on `dir`: p50 and p99 over `n` 4 KiB write+fsync
/// rounds, in microseconds.
pub fn fsync_probe(dir: &Path, n: usize) -> (f64, f64) {
    let path = dir.join(format!(".fsync-probe-{}", std::process::id()));
    let mut samples = Vec::with_capacity(n);
    if let Ok(mut f) = std::fs::File::create(&path) {
        let block = [0u8; 4096];
        for _ in 0..n {
            let t = Instant::now();
            if f.write_all(&block).and_then(|_| f.sync_data()).is_err() {
                break;
            }
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let _ = std::fs::remove_file(&path);
    samples.sort_by(f64::total_cmp);
    (
        crate::stats::quantile(&samples, 0.50),
        crate::stats::quantile(&samples, 0.99),
    )
}

/// The checkout's commit, read from `.git` without running git; a
/// checkout that is not a git repository reports `none`.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}
