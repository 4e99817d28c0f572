//! The epoll front door: a small pool of event-loop threads that owns
//! the listener and every binary-plane connection.
//!
//! # Why an event loop
//!
//! The original front door spawned two threads per connection — one
//! reader, one writer. At a handful of clients that is fine; at hundreds the
//! box spends its time context-switching instead of ingesting —
//! especially on small machines, where scheduler churn shows up
//! directly as `queue_wait_us`. The reactor replaces the per-connection
//! *reader* threads for the binary plane with `--reactors` event-loop
//! threads (default: `min(4, cores)`), each running one `epoll(7)`
//! instance over nonblocking sockets. Acks, errors, and sync replies
//! are written from the same loop through per-connection buffers, so a
//! binary connection costs two buffers and a table entry instead of
//! two stacks.
//!
//! # Plane detection
//!
//! Every accepted socket starts in the *detect* state. The reactor
//! buffers bytes until it can classify the first four: exactly
//! [`binary::MAGIC`] selects the binary plane (framed record batches,
//! decoded zero-copy out of the connection's read buffer); anything
//! else — JSONL requests always start with `{` — hands the socket,
//! buffered bytes included, to a classic per-connection thread running
//! the unchanged JSONL loop. Existing clients never notice the
//! reactor exists.
//!
//! # Invariants
//!
//! The reactor threads never block: socket IO is nonblocking, and the
//! sync barrier is awaited on an ephemeral helper thread. Ingest goes
//! through the same admission path as the JSONL plane
//! ([`crate::admit`]): under [`Backpressure::Block`] every frame of one
//! socket drain is staged and flushed as one part per touched shard;
//! under `Shed` each frame flushes alone. A full queue *parks* the
//! unsent parts on the connection's stage; they retry on a short tick,
//! with read interest dropped so the client is backpressured through
//! TCP. Held acks release in per-connection FIFO order via the shared
//! [`AckTable`](crate::admit::AckTable); a frame is never half-shed.

use crate::admit::{AckSink, Flush, FrameId, Replies, Stage};
use crate::config::Backpressure;
use crate::server::{fan_out, ConnCtx, ShardCmd};
use crossbeam::channel::{self, Receiver, Sender};
use fenestra_base::error::{Error, Result};
use fenestra_wire::binary::{self, Frame, FrameStatus, HEADER_LEN, MAGIC};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

// ----- raw epoll / eventfd --------------------------------------------------

/// Hand-rolled bindings for the five syscalls the reactor needs. The
/// workspace is hermetic (no `libc` crate), but std already links
/// libc; declaring the symbols directly is the same trick the daemon
/// uses for signal handling.
mod sys {
    /// Mirror of `struct epoll_event`. The kernel ABI packs it on
    /// x86_64 only.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn close(fd: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EFD_CLOEXEC: i32 = 0o2000000;
    pub const EFD_NONBLOCK: i32 = 0o4000;
}

/// An `eventfd(2)` used to pull a reactor out of `epoll_wait` when
/// another thread queued outbound bytes (held acks resolve on shard
/// threads) or handed it a fresh connection.
pub(crate) struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    fn new() -> Result<WakeFd> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_NONBLOCK | sys::EFD_CLOEXEC) };
        if fd < 0 {
            return Err(Error::Io(format!(
                "eventfd: {}",
                std::io::Error::last_os_error()
            )));
        }
        Ok(WakeFd { fd })
    }

    /// Nudge the owning reactor. Never blocks; a saturated counter
    /// still reads as ready.
    pub(crate) fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        unsafe {
            let _ = sys::write(self.fd, one.as_ptr(), one.len());
        }
    }

    /// Reset the counter so the next `epoll_wait` sleeps again.
    fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe {
            let _ = sys::read(self.fd, buf.as_mut_ptr(), buf.len());
        }
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.fd);
        }
    }
}

/// Thin RAII wrapper over one epoll instance.
struct Epoll {
    fd: RawFd,
}

impl Epoll {
    fn new() -> Result<Epoll> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(Error::Io(format!(
                "epoll_create1: {}",
                std::io::Error::last_os_error()
            )));
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, events: u32) {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        unsafe {
            let _ = sys::epoll_ctl(self.fd, op, fd, &mut ev);
        }
    }

    fn add(&self, fd: RawFd, token: u64, events: u32) {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, events);
    }

    fn modify(&self, fd: RawFd, token: u64, events: u32) {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, events);
    }

    fn del(&self, fd: RawFd) {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Wait up to `timeout_ms` (-1 = forever) and fill `out`. EINTR
    /// reads as an empty wakeup.
    fn wait(&self, out: &mut [sys::EpollEvent], timeout_ms: i32) -> usize {
        let n = unsafe { sys::epoll_wait(self.fd, out.as_mut_ptr(), out.len() as i32, timeout_ms) };
        if n < 0 {
            0
        } else {
            n as usize
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.fd);
        }
    }
}

// ----- outbound hand-off ----------------------------------------------------

/// Address of one reactor-owned connection, cloneable into
/// [`AckSink::Bin`] and the sync helper thread: bytes sent here are
/// queued on the connection's write buffer the next time its reactor
/// spins (the eventfd makes that immediate).
#[derive(Clone)]
pub(crate) struct OutHandle {
    tx: Sender<(u64, Vec<u8>)>,
    wake: Arc<WakeFd>,
    token: u64,
}

impl OutHandle {
    /// Queue `bytes` for this connection and wake its reactor.
    pub(crate) fn send(&self, bytes: Vec<u8>) {
        if self.tx.send((self.token, bytes)).is_ok() {
            self.wake.wake();
        }
    }
}

// ----- the pool -------------------------------------------------------------

/// Epoll data tokens reserved for non-connection fds. Connection ids
/// count up from zero and can never collide.
const TOKEN_WAKE: u64 = u64::MAX;
const TOKEN_LISTEN: u64 = u64::MAX - 1;

/// How much to read per `read(2)` call.
const READ_CHUNK: usize = 64 * 1024;

/// One reactor's hand-off lanes, held by the accepting reactor.
struct PeerLane {
    conn_tx: Sender<(TcpStream, u64)>,
    wake: Arc<WakeFd>,
}

/// The running reactor pool; joined by
/// [`ServerHandle::join`](crate::ServerHandle::join).
pub(crate) struct ReactorPool {
    pub(crate) threads: Vec<JoinHandle<()>>,
}

/// Resolve `--reactors 0` to the auto default.
pub(crate) fn auto_reactors(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Start `n` reactors; reactor 0 owns `listener` and deals accepted
/// connections round-robin across the pool.
pub(crate) fn start(listener: TcpListener, ctx: Arc<ConnCtx>, n: usize) -> Result<ReactorPool> {
    let n = n.max(1);
    listener.set_nonblocking(true)?;
    let mut wakes = Vec::with_capacity(n);
    let mut conn_lanes = Vec::with_capacity(n);
    for _ in 0..n {
        wakes.push(Arc::new(WakeFd::new()?));
        conn_lanes.push(channel::unbounded::<(TcpStream, u64)>());
    }
    let peers: Vec<PeerLane> = conn_lanes
        .iter()
        .zip(&wakes)
        .map(|((tx, _), wake)| PeerLane {
            conn_tx: tx.clone(),
            wake: wake.clone(),
        })
        .collect();
    let mut threads = Vec::with_capacity(n);
    let mut listener = Some(listener);
    let mut peers = Some(peers);
    for (id, (_, conn_rx)) in conn_lanes.into_iter().enumerate() {
        let (out_tx, out_rx) = channel::unbounded::<(u64, Vec<u8>)>();
        let epoll = Epoll::new()?;
        let wake = wakes[id].clone();
        epoll.add(wake.fd, TOKEN_WAKE, sys::EPOLLIN);
        let r = Reactor {
            epoll,
            ctx: ctx.clone(),
            wake,
            out_tx,
            out_rx,
            conn_rx,
            listener: if id == 0 { listener.take() } else { None },
            peers: if id == 0 {
                peers.take().unwrap_or_default()
            } else {
                Vec::new()
            },
            conns: HashMap::new(),
            rr: 0,
        };
        if let Some(l) = &r.listener {
            r.epoll.add(l.as_raw_fd(), TOKEN_LISTEN, sys::EPOLLIN);
        }
        let metrics = r.ctx.metrics.clone();
        threads.push(crate::cpu::spawn(
            format!("fenestra-reactor-{id}"),
            &metrics,
            move || run(r),
        )?);
    }
    Ok(ReactorPool { threads })
}

// ----- per-connection state -------------------------------------------------

/// Which protocol the connection speaks (or that we do not know yet).
enum Plane {
    /// First bytes not yet classified.
    Detect,
    /// Negotiated binary: frames decode straight out of `rbuf`.
    Binary,
}

/// One reactor-owned connection.
struct Conn {
    stream: TcpStream,
    token: u64,
    plane: Plane,
    /// Unconsumed inbound bytes; frames decode from the front.
    rbuf: Vec<u8>,
    /// Outbound bytes not yet accepted by the kernel.
    wbuf: Vec<u8>,
    /// Running per-connection event sequence (mirrors the JSONL
    /// plane's `seq`): the ack for a batch carries the sequence
    /// number of its last event.
    seq: u64,
    /// This connection's admission stage; parked while a flush waits
    /// on a full shard queue.
    stage: Stage,
    /// Where held acks and sync replies for this connection go.
    out: OutHandle,
    /// Read returned EOF; the connection lingers until its write
    /// buffer and held acks drain.
    peer_closed: bool,
    /// Protocol violation (lost framing): stop reading, flush what is
    /// queued, then drop.
    closing: bool,
    /// Interest mask currently registered with epoll.
    armed: u32,
}

impl Conn {
    fn wants_read(&self) -> bool {
        !self.peer_closed && !self.closing && !self.stage.is_parked()
    }
}

struct Reactor {
    epoll: Epoll,
    ctx: Arc<ConnCtx>,
    wake: Arc<WakeFd>,
    out_tx: Sender<(u64, Vec<u8>)>,
    out_rx: Receiver<(u64, Vec<u8>)>,
    conn_rx: Receiver<(TcpStream, u64)>,
    /// Reactor 0 only.
    listener: Option<TcpListener>,
    /// Reactor 0 only: hand-off lanes to every reactor (index 0 =
    /// itself, unused).
    peers: Vec<PeerLane>,
    conns: HashMap<u64, Conn>,
    /// Round-robin cursor for dealing connections to the pool.
    rr: usize,
}

/// What to do with a connection after processing its buffer.
enum After {
    Keep,
    /// Framing lost or shard channels gone: flush, then drop.
    Close,
    /// First bytes are not the binary magic: replay them into a
    /// classic JSONL connection thread.
    Handoff,
}

fn run(mut r: Reactor) {
    let mut evbuf = vec![sys::EpollEvent { events: 0, data: 0 }; 128];
    loop {
        let any_parked = r.conns.values().any(|c| c.stage.is_parked());
        // Parked frames retry on a 1ms tick; otherwise the 200ms tick
        // only backstops a lost wakeup.
        let timeout = if any_parked { 1 } else { 200 };
        let n = r.epoll.wait(&mut evbuf, timeout);
        for ev in evbuf.iter().take(n).copied() {
            let (bits, token) = (ev.events, ev.data);
            match token {
                TOKEN_WAKE => r.wake.drain(),
                TOKEN_LISTEN => accept_ready(&mut r),
                token => conn_ready(&mut r, token, bits),
            }
        }
        drain_new_conns(&mut r);
        drain_outbound(&mut r);
        retry_parked(&mut r);
        if r.ctx.shutdown.load(Ordering::SeqCst) {
            shutdown_reactor(&mut r);
            return;
        }
    }
}

/// Accept until the listener would block, dealing connections across
/// the pool.
fn accept_ready(r: &mut Reactor) {
    loop {
        let Some(listener) = &r.listener else { return };
        match listener.accept() {
            Ok((stream, _)) => {
                if r.ctx.shutdown.load(Ordering::SeqCst) {
                    continue; // Drop it; we are exiting this iteration.
                }
                // The connection counter doubles as the connection id
                // held acks are keyed by (see `FrameAck::conn`).
                let token = r.ctx.metrics.connections.fetch_add(1, Ordering::Relaxed);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Replies are small writes that often follow another
                // unacknowledged one (an ack behind a watch delta);
                // Nagle would hold them for the peer's delayed ACK.
                // JSONL connections are handed off from here too.
                let _ = stream.set_nodelay(true);
                r.ctx.metrics.conns_open.fetch_add(1, Ordering::Relaxed);
                let dest = r.rr % r.peers.len().max(1);
                r.rr += 1;
                if dest == 0 {
                    register_conn(r, stream, token);
                } else {
                    let lane = &r.peers[dest];
                    if lane.conn_tx.send((stream, token)).is_ok() {
                        lane.wake.wake();
                    } else {
                        r.ctx.metrics.conns_open.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

fn register_conn(r: &mut Reactor, stream: TcpStream, token: u64) {
    let fd = stream.as_raw_fd();
    let armed = sys::EPOLLIN | sys::EPOLLRDHUP;
    r.epoll.add(fd, token, armed);
    r.conns.insert(
        token,
        Conn {
            stream,
            token,
            plane: Plane::Detect,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            seq: 0,
            stage: Stage::new(r.ctx.shard_txs.len()),
            out: OutHandle {
                tx: r.out_tx.clone(),
                wake: r.wake.clone(),
                token,
            },
            peer_closed: false,
            closing: false,
            armed,
        },
    );
}

fn drain_new_conns(r: &mut Reactor) {
    while let Ok((stream, token)) = r.conn_rx.try_recv() {
        register_conn(r, stream, token);
    }
}

/// Deliver queued outbound bytes (held acks, sync replies) to their
/// connections. Bytes for a connection that already died are dropped —
/// exactly what happens to a JSONL writer whose socket is gone.
fn drain_outbound(r: &mut Reactor) {
    let mut touched = Vec::new();
    while let Ok((token, bytes)) = r.out_rx.try_recv() {
        if let Some(conn) = r.conns.get_mut(&token) {
            conn.wbuf.extend_from_slice(&bytes);
            if !touched.contains(&token) {
                touched.push(token);
            }
        }
    }
    for token in touched {
        finish_conn_pass(r, token, After::Keep);
    }
}

fn conn_ready(r: &mut Reactor, token: u64, bits: u32) {
    let Some(conn) = r.conns.get_mut(&token) else {
        return;
    };
    if bits & sys::EPOLLERR != 0 {
        close_conn(r, token);
        return;
    }
    let mut after = After::Keep;
    if bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0 && conn.wants_read() {
        after = read_ready(r, token);
    }
    finish_conn_pass(r, token, after);
}

/// Read until the socket would block, processing complete frames as
/// they land. Returns the connection's fate.
fn read_ready(r: &mut Reactor, token: u64) -> After {
    let t0 = Instant::now();
    let ctx = r.ctx.clone();
    let Some(conn) = r.conns.get_mut(&token) else {
        return After::Keep;
    };
    let mut after = After::Keep;
    loop {
        let old = conn.rbuf.len();
        conn.rbuf.resize(old + READ_CHUNK, 0);
        let n = match conn.stream.read(&mut conn.rbuf[old..]) {
            Ok(0) => {
                conn.rbuf.truncate(old);
                conn.peer_closed = true;
                0
            }
            Ok(n) => {
                conn.rbuf.truncate(old + n);
                n
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                conn.rbuf.truncate(old);
                break;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {
                conn.rbuf.truncate(old);
                continue;
            }
            Err(_) => {
                conn.rbuf.truncate(old);
                after = After::Close;
                break;
            }
        };
        ctx.metrics.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
        after = process_buffer(&ctx, conn);
        if !matches!(after, After::Keep) || conn.stage.is_parked() || conn.peer_closed {
            break;
        }
    }
    // A connection that dies during plane detection still goes through
    // the JSONL thread: it replays the sniffed prefix and reports the
    // same parse error / EOF the old front door would have.
    if conn.peer_closed && matches!(conn.plane, Plane::Detect) && matches!(after, After::Keep) {
        after = After::Handoff;
    }
    ctx.obs
        .reactor_dispatch_us
        .record(t0.elapsed().as_micros() as u64);
    after
}

/// Classify and/or decode whatever `rbuf` holds right now.
fn process_buffer(ctx: &Arc<ConnCtx>, conn: &mut Conn) -> After {
    if matches!(conn.plane, Plane::Detect) {
        let k = conn.rbuf.len().min(MAGIC.len());
        if conn.rbuf[..k] != MAGIC[..k] {
            return After::Handoff;
        }
        if k < MAGIC.len() {
            return After::Keep; // Strict magic prefix: wait for byte 4.
        }
        conn.plane = Plane::Binary;
        ctx.metrics.conns_binary.fetch_add(1, Ordering::Relaxed);
        conn.rbuf.drain(..MAGIC.len());
    }
    let Conn {
        rbuf,
        wbuf,
        seq,
        stage,
        out: lane,
        token,
        ..
    } = conn;
    let mut out = BinReplies { wbuf, lane };
    let mut consumed = 0;
    let mut after = loop {
        let buf = &rbuf[consumed..];
        if buf.is_empty() {
            break After::Keep;
        }
        match binary::check_frame(buf, ctx.max_frame_bytes) {
            Ok(FrameStatus::NeedMore { .. }) => break After::Keep,
            Ok(FrameStatus::Ready { end }) => {
                let t = Instant::now();
                let frame = binary::decode_payload(&buf[HEADER_LEN..end]);
                ctx.obs.decode_us.record(t.elapsed().as_micros() as u64);
                match frame {
                    Ok(Frame::Batch { events, .. }) => {
                        consumed += end;
                        let count = events.len() as u64;
                        *seq += count;
                        let id = FrameId {
                            seq: *seq,
                            count,
                            single: false,
                        };
                        stage.push(ctx, *token, id, events, &out);
                        // Block coalesces the whole drain into one
                        // flush; Shed decides each frame alone.
                        if ctx.backpressure == Backpressure::Shed {
                            match stage.flush(ctx, &mut out) {
                                Flush::Done => {}
                                Flush::Parked => break After::Keep,
                                Flush::Down => break After::Close,
                            }
                        }
                    }
                    Ok(Frame::Sync) => {
                        // Barrier: staged frames must reach the shards
                        // before the sync fans out, or the barrier
                        // could overtake them. A parked flush leaves
                        // the sync frame unconsumed; the retry tick
                        // re-decodes it once the parts are through.
                        match stage.flush(ctx, &mut out) {
                            Flush::Done => {}
                            Flush::Parked => break After::Keep,
                            Flush::Down => break After::Close,
                        }
                        consumed += end;
                        spawn_sync(ctx.clone(), out.lane.clone());
                    }
                    Ok(_) => {
                        // Ack / Err / Synced are server → client only.
                        consumed += end;
                        out.wbuf.extend_from_slice(&binary::encode_err(
                            0,
                            "client sent a server-only frame kind",
                        ));
                    }
                    Err(e) => {
                        // The frame was CRC-valid, so framing holds:
                        // report and keep serving the connection.
                        consumed += end;
                        out.wbuf
                            .extend_from_slice(&binary::encode_err(0, &e.to_string()));
                    }
                }
            }
            Err(e) => {
                // Oversize or CRC mismatch: the byte stream can no
                // longer be trusted to re-synchronize.
                out.wbuf
                    .extend_from_slice(&binary::encode_err(0, &e.to_string()));
                break After::Close;
            }
        }
    };
    rbuf.drain(..consumed);
    // Frames staged before a break (clean end of buffer OR a later
    // poison frame — they themselves were valid) still go out.
    if stage.flush(ctx, &mut out) == Flush::Down {
        after = After::Close;
    }
    after
}

/// Binary replies: immediate ones straight into the connection's write
/// buffer, held ones through its reactor's outbound lane.
struct BinReplies<'a> {
    wbuf: &'a mut Vec<u8>,
    lane: &'a OutHandle,
}

impl Replies for BinReplies<'_> {
    fn held(&self, f: FrameId) -> AckSink {
        AckSink::Bin {
            out: self.lane.clone(),
            seq: f.seq,
            count: f.count,
        }
    }

    fn ack(&mut self, f: FrameId) {
        self.wbuf
            .extend_from_slice(&binary::encode_ack(f.seq, f.count));
    }

    fn shed(&mut self, f: FrameId) {
        self.wbuf
            .extend_from_slice(&binary::encode_err(f.seq, "shed: ingest queue full"));
    }

    fn down(&mut self, seq: u64) {
        self.wbuf
            .extend_from_slice(&binary::encode_err(seq, "server shutting down"));
    }
}

/// Give every parked connection another shot at its shard queues.
fn retry_parked(r: &mut Reactor) {
    let tokens: Vec<u64> = r
        .conns
        .iter()
        .filter(|(_, c)| c.stage.is_parked())
        .map(|(t, _)| *t)
        .collect();
    for token in tokens {
        let ctx = r.ctx.clone();
        let Some(conn) = r.conns.get_mut(&token) else {
            continue;
        };
        let mut out = BinReplies {
            wbuf: &mut conn.wbuf,
            lane: &conn.out,
        };
        let after = match conn.stage.resume(&ctx, false, &mut out) {
            Flush::Parked => After::Keep,
            Flush::Down => After::Close,
            // A poison frame followed the parked one: nothing left in
            // the buffer is trustworthy, just settle the close.
            Flush::Done if conn.closing => After::Keep,
            // The read buffer may hold frames decoded behind the one
            // that parked; resume processing before re-arming reads.
            Flush::Done => process_buffer(&ctx, conn),
        };
        finish_conn_pass(r, token, after);
    }
}

/// The sync barrier blocks on every shard's reply; that wait happens
/// on a throwaway thread so the reactor never stalls. Replies are not
/// ordered with respect to held acks — same as the JSONL plane, where
/// sync replies are never watermark-held.
fn spawn_sync(ctx: Arc<ConnCtx>, out: OutHandle) {
    let metrics = ctx.metrics.clone();
    let _ = crate::cpu::spawn("fenestra-bsync", &metrics, move || {
        out.send(
            match fan_out(&ctx.shard_txs, |done| ShardCmd::Sync { done }) {
                Some(_) => binary::encode_synced(),
                None => binary::encode_err(0, "server shutting down"),
            },
        );
    });
}

/// Flush, settle epoll interest, and apply the connection's fate.
fn finish_conn_pass(r: &mut Reactor, token: u64, after: After) {
    match after {
        After::Handoff => {
            handoff_jsonl(r, token);
            return;
        }
        After::Close => {
            if let Some(conn) = r.conns.get_mut(&token) {
                conn.closing = true;
            }
        }
        After::Keep => {}
    }
    let Some(conn) = r.conns.get_mut(&token) else {
        return;
    };
    if flush_writes(&r.ctx, conn).is_err() {
        close_conn(r, token);
        return;
    }
    // Linger rules: a closing/EOF connection survives until its
    // write buffer is out the door — and, after a clean client EOF,
    // until the ack table owes it nothing more.
    let drained = conn.wbuf.is_empty() && !conn.stage.is_parked();
    if drained && conn.closing {
        close_conn(r, token);
        return;
    }
    if drained && conn.peer_closed && !r.ctx.ack_table.has_conn(token) {
        close_conn(r, token);
        return;
    }
    sync_interest(&r.epoll, conn);
}

/// Write as much of `wbuf` as the kernel will take.
fn flush_writes(ctx: &ConnCtx, conn: &mut Conn) -> std::io::Result<()> {
    while !conn.wbuf.is_empty() {
        match conn.stream.write(&conn.wbuf) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero)),
            Ok(n) => {
                ctx.metrics.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                conn.wbuf.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Re-register the connection's epoll interest to match its state:
/// reads while it may make progress, writes only while bytes wait.
fn sync_interest(epoll: &Epoll, conn: &mut Conn) {
    let mut want = 0;
    if conn.wants_read() {
        want |= sys::EPOLLIN | sys::EPOLLRDHUP;
    }
    if !conn.wbuf.is_empty() {
        want |= sys::EPOLLOUT;
    }
    if want != conn.armed {
        epoll.modify(conn.stream.as_raw_fd(), conn.token, want);
        conn.armed = want;
    }
}

fn close_conn(r: &mut Reactor, token: u64) {
    let Some(conn) = r.conns.remove(&token) else {
        return;
    };
    r.epoll.del(conn.stream.as_raw_fd());
    r.ctx.metrics.conns_open.fetch_sub(1, Ordering::Relaxed);
    if matches!(conn.plane, Plane::Binary) {
        r.ctx.metrics.conns_binary.fetch_sub(1, Ordering::Relaxed);
    }
}

/// First bytes are not the binary magic: give the socket (blocking
/// again) to a classic JSONL connection thread, replaying the sniffed
/// prefix so no byte is lost.
fn handoff_jsonl(r: &mut Reactor, token: u64) {
    let Some(conn) = r.conns.remove(&token) else {
        return;
    };
    r.epoll.del(conn.stream.as_raw_fd());
    if conn.stream.set_nonblocking(false).is_err() {
        r.ctx.metrics.conns_open.fetch_sub(1, Ordering::Relaxed);
        return;
    }
    let ctx = r.ctx.clone();
    let prefix = conn.rbuf;
    let stream = conn.stream;
    let metrics = ctx.metrics.clone();
    let _ = crate::cpu::spawn(crate::cpu::READER_THREAD, &metrics, move || {
        crate::server::handle_conn(stream, ctx.clone(), token, prefix);
        ctx.metrics.conns_open.fetch_sub(1, Ordering::Relaxed);
    });
}

/// Shutdown: the coordinator has already failed every registered ack
/// (those bytes are drained above, before the flag check), so one
/// last best-effort flush per connection is all that is owed.
fn shutdown_reactor(r: &mut Reactor) {
    for lane in &r.peers {
        lane.wake.wake();
    }
    let tokens: Vec<u64> = r.conns.keys().copied().collect();
    for token in tokens {
        if let Some(conn) = r.conns.get_mut(&token) {
            let _ = flush_writes(&r.ctx, conn);
        }
        close_conn(r, token);
    }
}
