//! The TCP front door: a threaded accept loop driving any
//! [`Service`] behind the wire protocol.
//!
//! # Threading model
//!
//! * **accept thread** — owns the listener; admits connections under the
//!   connection-limit semaphore. An over-limit connection receives one
//!   typed [`ApiError::Overloaded`] envelope and a graceful close (the
//!   socket is drained to EOF first, so the peer never observes a
//!   reset).
//! * **reader thread** (per connection) — reads frames, decodes request
//!   envelopes, stamps each with a per-connection sequence number, and
//!   forwards them to the engine. When the server-wide inflight cap is
//!   reached, the reader short-circuits a typed `Overloaded` rejection
//!   straight to the writer — through the same sequence-ordered merge,
//!   so pipelined responses still come back in submission order.
//! * **engine thread** — owns the `Service`. Drains the shared queue and
//!   groups consecutive envelopes that share an arrival stamp into one
//!   [`Service::submit_batch`] call (the arrival-window batcher). Batch
//!   submission is bit-for-bit equivalent to sequential submission (a
//!   property the workspace tests enforce on every `Service`), so how
//!   arrivals happen to coalesce under wall-clock timing cannot change
//!   any result byte.
//! * **writer thread** (per connection) — merges responses back into
//!   per-connection submission order by sequence number (the same
//!   ordered-merge discipline as the sharded executor) and writes
//!   frames.
//!
//! A connection's registry entry (the socket clone `shutdown` uses to
//! unblock it) is removed once both of its threads are done, and the
//! accept loop joins finished connection threads as it admits new ones,
//! so a long-running server holds descriptors and threads only for live
//! connections.
//!
//! The hot path is channels and atomics only. The two locks — the
//! connection registry and the thread-handle list, touched at
//! connect/disconnect — are `parking_lot` *named* mutexes, so the
//! `lock-order` deadlock smoke covers this plane too. Admission against
//! both caps uses compare-and-swap loops: the check and the commit are
//! one atomic operation, never a check-then-act race.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use flstore_core::api::{ApiError, Request, Response, Service};
use flstore_sim::time::{SimDuration, SimTime};
use parking_lot::Mutex;

use crate::codec::{decode_request, encode_response};
use crate::wire::{read_frame, write_frame};

/// Most envelopes the engine folds into one `submit_batch` call.
const MAX_BATCH: usize = 64;

/// Tuning knobs for the front door.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent connections admitted past the accept loop. The
    /// `max_connections + 1`-th connection receives a typed
    /// [`ApiError::Overloaded`] envelope and a graceful close.
    pub max_connections: usize,
    /// Server-wide cap on decoded envelopes queued for the engine.
    /// Beyond it, new envelopes are rejected with `Overloaded` instead
    /// of queueing without bound.
    pub max_inflight: usize,
    /// The `retry_after_hint` carried by `Overloaded` rejections. Fixed
    /// by configuration (not load-derived) so rejection envelopes are
    /// byte-deterministic.
    pub retry_after_hint: SimDuration,
    /// Where the engine's monotonically clamped virtual clock starts. A
    /// recovered deployment seeds this with the replayed store's clock so
    /// a restart cannot rewind time the pre-crash server had already
    /// reached (docs/LEDGER.md §5).
    pub initial_clock: SimTime,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_inflight: 4096,
            retry_after_hint: SimDuration::from_millis(1),
            initial_clock: SimTime::ZERO,
        }
    }
}

/// Atomically claims one slot below `cap`: the check and the increment
/// are a single compare-and-swap, so concurrent claimants can never
/// overshoot the cap (no check-then-act window).
fn try_acquire(counter: &AtomicUsize, cap: usize) -> bool {
    // Relaxed: the counter carries the whole protocol — no memory is
    // published through it — and the CAS alone guarantees the cap is
    // never overshot; stronger orderings would buy nothing here.
    let mut current = counter.load(Ordering::Relaxed);
    loop {
        if current >= cap {
            return false;
        }
        match counter.compare_exchange_weak(
            current,
            current + 1,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return true,
            Err(seen) => current = seen,
        }
    }
}

/// Live connections' socket clones by connection id, so `stop()` can
/// unblock their threads.
type Registry = Arc<Mutex<BTreeMap<u64, TcpStream>>>;

/// How long the accept loop waits after a failed `accept` (for example
/// at the descriptor limit) before trying again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// A connection's registry entry, shared by its reader and writer and
/// removed when the last of them drops it.
struct Registered {
    id: u64,
    registry: Registry,
}

impl Drop for Registered {
    fn drop(&mut self) {
        self.registry.lock().remove(&self.id);
    }
}

/// One decoded envelope in flight from a reader to the engine.
struct Job {
    seq: u64,
    now: SimTime,
    request: Request,
    reply: mpsc::Sender<(u64, Response)>,
}

/// A running TCP front door. Dropping the server shuts it down and joins
/// every thread.
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    registry: Registry,
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    accept: Option<JoinHandle<()>>,
    engine: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `service` on background threads.
    ///
    /// ```
    /// use flstore_core::policy::TailoredPolicy;
    /// use flstore_core::store::{FlStore, FlStoreConfig};
    /// use flstore_fl::ids::JobId;
    /// use flstore_fl::job::FlJobConfig;
    /// use flstore_net::server::{NetServer, ServerConfig};
    ///
    /// let cfg = FlJobConfig::quick_test(JobId::new(1));
    /// let store = FlStore::new(
    ///     FlStoreConfig::for_model(&cfg.model),
    ///     Box::new(TailoredPolicy::new()),
    ///     cfg.job,
    ///     cfg.model,
    /// );
    /// let server = NetServer::bind(Box::new(store), ServerConfig::default()).unwrap();
    /// assert_ne!(server.local_addr().port(), 0);
    /// server.shutdown();
    /// ```
    pub fn bind(
        service: Box<dyn Service + Send>,
        config: ServerConfig,
    ) -> std::io::Result<NetServer> {
        NetServer::bind_to("127.0.0.1:0", service, config)
    }

    /// Like [`NetServer::bind`], binding an explicit address.
    pub fn bind_to(
        addr: impl ToSocketAddrs,
        service: Box<dyn Service + Send>,
        config: ServerConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Mutex::named(BTreeMap::new(), "net.conn_registry"));
        let handles = Arc::new(Mutex::named(Vec::new(), "net.conn_handles"));
        let inflight = Arc::new(AtomicUsize::new(0));
        let connections = Arc::new(AtomicUsize::new(0));
        let (engine_tx, engine_rx) = mpsc::channel::<Job>();

        let engine = std::thread::Builder::new()
            .name("net-engine".into())
            .spawn({
                let inflight = inflight.clone();
                let initial_clock = config.initial_clock;
                move || engine_loop(service, engine_rx, inflight, initial_clock)
            })?;

        let accept = std::thread::Builder::new()
            .name("net-accept".into())
            .spawn({
                let shutdown = shutdown.clone();
                let registry = registry.clone();
                let handles = handles.clone();
                let config = config.clone();
                move || {
                    accept_loop(
                        listener,
                        engine_tx,
                        config,
                        shutdown,
                        registry,
                        handles,
                        connections,
                        inflight,
                    )
                }
            })?;

        Ok(NetServer {
            addr,
            shutdown,
            registry,
            handles,
            accept: Some(accept),
            engine: Some(engine),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes every connection, and joins all threads.
    /// In-flight envelopes finish; their responses are flushed before
    /// the writers exit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // AcqRel, not SeqCst: Release publishes everything before the stop
        // to the accept thread's Acquire load, and the Acquire half makes
        // the swap's idempotence check race-free; no site needs a single
        // total order across *other* atomics.
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Unblock every connection reader; readers exiting drop the last
        // engine senders, which stops the engine in turn.
        let live = std::mem::take(&mut *self.registry.lock());
        for stream in live.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let joins: Vec<_> = self.handles.lock().drain(..).collect();
        for h in joins {
            let _ = h.join();
        }
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    engine_tx: mpsc::Sender<Job>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    registry: Registry,
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    connections: Arc<AtomicUsize>,
    inflight: Arc<AtomicUsize>,
) {
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        // Acquire pairs with the Release half of the shutdown swap: once
        // the flag reads true, everything `stop()` did before setting it
        // is visible here.
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else {
            // Back off instead of spinning on a persistent failure such as
            // running out of descriptors.
            std::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        if !try_acquire(&connections, config.max_connections.max(1)) {
            reject_connection(stream, config.retry_after_hint);
            continue;
        }
        let Ok(read_half) = stream.try_clone() else {
            // Relaxed: releasing a slot publishes no memory — connection
            // teardown synchronizes via its channels and mutexes.
            connections.fetch_sub(1, Ordering::Relaxed);
            continue;
        };
        let Ok(registered) = stream.try_clone() else {
            // Relaxed: same slot-release as above, no memory published.
            connections.fetch_sub(1, Ordering::Relaxed);
            continue;
        };
        registry.lock().insert(id, registered);
        let entry = Arc::new(Registered {
            id,
            registry: registry.clone(),
        });

        let (writer_tx, writer_rx) = mpsc::channel::<(u64, Response)>();
        let writer = std::thread::Builder::new()
            .name("net-writer".into())
            .spawn({
                let entry = entry.clone();
                move || {
                    writer_loop(stream, writer_rx);
                    drop(entry);
                }
            });
        let reader = std::thread::Builder::new()
            .name("net-reader".into())
            .spawn({
                let engine_tx = engine_tx.clone();
                let inflight = inflight.clone();
                let connections = connections.clone();
                let config = config.clone();
                move || {
                    reader_loop(read_half, engine_tx, writer_tx, inflight, &config);
                    // Relaxed: slot release only; the reader's work is
                    // already synchronized through the engine channel.
                    connections.fetch_sub(1, Ordering::Relaxed);
                    drop(entry);
                }
            });
        let mut handles = handles.lock();
        // Reap connection threads that have already finished.
        let (finished, running) = handles.drain(..).partition(|h| h.is_finished());
        *handles = running;
        for h in finished {
            let _ = h.join();
        }
        if let Ok(h) = writer {
            handles.push(h);
        }
        if let Ok(h) = reader {
            handles.push(h);
        }
    }
}

/// Turns away an over-limit connection with one typed `Overloaded`
/// envelope and a graceful close: half-close our write side, then drain
/// the peer's pending bytes to EOF so the kernel never answers queued
/// data on a closed socket with an RST.
fn reject_connection(mut stream: TcpStream, retry_after_hint: SimDuration) {
    let response = Response::Rejected(ApiError::Overloaded { retry_after_hint });
    let (tag, payload) = encode_response(&response);
    let _ = write_frame(&mut stream, tag, &payload);
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(250)));
    let mut sink = [0u8; 4096];
    loop {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

fn reader_loop(
    stream: TcpStream,
    engine_tx: mpsc::Sender<Job>,
    writer_tx: mpsc::Sender<(u64, Response)>,
    inflight: Arc<AtomicUsize>,
    config: &ServerConfig,
) {
    let mut reader = BufReader::new(stream);
    let mut seq = 0u64;
    loop {
        let (tag, payload) = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            // Clean EOF, a malformed frame, or a socket error all end the
            // connection; the codec's typed errors keep this panic-free.
            Ok(None) | Err(_) => return,
        };
        let (now, request) = match decode_request(tag, &payload) {
            Ok(decoded) => decoded,
            Err(_) => return,
        };
        let this_seq = seq;
        seq += 1;
        if try_acquire(&inflight, config.max_inflight.max(1)) {
            let job = Job {
                seq: this_seq,
                now,
                request,
                reply: writer_tx.clone(),
            };
            if engine_tx.send(job).is_err() {
                return;
            }
        } else {
            // Backpressure as a typed envelope, routed through the same
            // sequence-ordered merge as engine responses.
            let rejection = Response::Rejected(ApiError::Overloaded {
                retry_after_hint: config.retry_after_hint,
            });
            if writer_tx.send((this_seq, rejection)).is_err() {
                return;
            }
        }
    }
}

fn writer_loop(stream: TcpStream, rx: mpsc::Receiver<(u64, Response)>) {
    let mut writer = BufWriter::new(stream);
    let mut next_seq = 0u64;
    // The submission-order merge: responses can arrive ahead of turn
    // (reader-side rejections overtaking engine work); hold them until
    // their sequence number is up.
    let mut held: BTreeMap<u64, Response> = BTreeMap::new();
    while let Ok((seq, response)) = rx.recv() {
        held.insert(seq, response);
        while let Some(response) = held.remove(&next_seq) {
            let (tag, payload) = encode_response(&response);
            if write_frame(&mut writer, tag, &payload).is_err() {
                return;
            }
            next_seq += 1;
        }
        if held.is_empty() && writer.flush().is_err() {
            return;
        }
    }
    // Channel closed: the reader saw EOF (or an error) and the engine has
    // replied to everything it admitted. Flush and half-close our write
    // side so a client that half-closed after pipelining sees a clean EOF
    // now, not when the connection's registry clone is released.
    let _ = writer.flush();
    let _ = writer.get_ref().shutdown(Shutdown::Write);
}

fn engine_loop(
    mut service: Box<dyn Service + Send>,
    rx: mpsc::Receiver<Job>,
    inflight: Arc<AtomicUsize>,
    initial_clock: SimTime,
) {
    // The virtual clock is clamped monotonic across envelopes: a stamp
    // arriving out of order (a slow connection racing a fast one) can
    // never rewind the service's notion of time. A recovered deployment
    // starts the clamp at the replayed store's clock, so a restart is
    // time-transparent too.
    let mut clock = initial_clock;
    while let Ok(first) = rx.recv() {
        // Arrival-window batcher: drain whatever else has already
        // arrived, up to MAX_BATCH, without waiting.
        let mut jobs = vec![first];
        while jobs.len() < MAX_BATCH {
            match rx.try_recv() {
                Ok(job) => jobs.push(job),
                Err(_) => break,
            }
        }
        // Group consecutive same-stamp envelopes into one batched
        // submission. Batch ≡ sequential bit-for-bit for every Service,
        // so the (timing-dependent) grouping cannot change result bytes.
        let mut start = 0;
        while start < jobs.len() {
            let mut end = start + 1;
            while end < jobs.len() && jobs[end].now == jobs[start].now {
                end += 1;
            }
            clock = clock.max(jobs[start].now);
            let group = &jobs[start..end];
            let requests: Vec<Request> = group.iter().map(|j| j.request.clone()).collect();
            let responses = service.submit_batch(clock, &requests);
            // Relaxed: the in-flight gauge only bounds admission; the
            // responses themselves flow through the reply channels, which
            // carry the necessary ordering.
            inflight.fetch_sub(group.len(), Ordering::Relaxed);
            for (job, response) in group.iter().zip(responses) {
                // A closed connection just drops its responses.
                let _ = job.reply.send((job.seq, response));
            }
            start = end;
        }
    }
}
