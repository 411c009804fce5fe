//! The connection multiplexer: a fixed worker pool sweeping many
//! non-blocking connections each, instead of one worker owning one
//! connection for its lifetime.
//!
//! The acceptor (the thread calling [`serve_connections`]) hands each
//! accepted stream — switched to non-blocking mode — to a worker over a
//! per-worker channel, round-robin. A worker keeps its connections in a
//! flat list and sweeps them: the incremental
//! [`FrameReader`](crate::proto::FrameReader) resumes mid-frame across
//! `WouldBlock`, so a slow sender costs one failed `read` per sweep,
//! never a parked thread. Idle connections therefore cost nothing but a
//! list slot and the reader's 16 KiB buffer — thousands of them can
//! share a pool sized to the cores.
//!
//! A sweep decodes at most [`FRAMES_PER_SWEEP`] frames per connection
//! before moving on, so one pipelining client cannot starve its
//! neighbours on the same worker. Responses are written with the socket
//! momentarily switched back to blocking mode (bounded by a write
//! timeout): a response frame is either written whole or the connection
//! is dropped — never interleaved or torn.
//!
//! When no connection makes progress, a worker backs off adaptively:
//! `yield_now` for short idle streaks (keeping closed-loop latency in
//! the microseconds), escalating to sub-millisecond sleeps so a fully
//! idle pool does not spin a core.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use crate::metrics::{kind_index, ServeMetrics};
use crate::proto::{is_timeout, write_frame, FrameReader, Request, Response, WireError};

/// Frames decoded from one connection per sweep before the worker moves
/// on — the fairness bound between pipelining neighbours.
const FRAMES_PER_SWEEP: usize = 32;

/// No-progress sweeps before a worker escalates from `yield_now` to
/// sleeping. Yields keep a closed request/response loop fast; the
/// threshold keeps a quiet pool off the scheduler.
const SPIN_SWEEPS: u32 = 1_000;

/// The idle sleep once spinning has not paid off. Short enough that a
/// single closed-loop client still sees thousands of requests per
/// second out of a sleeping worker.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// Upper bound on one response write once the socket is switched to
/// blocking mode; a peer that stops draining for this long is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The error sent when a response would blow the frame cap.
pub(crate) const RESPONSE_TOO_LARGE: &str =
    "response exceeds the frame cap; narrow the query with a result limit";

/// One multiplexed connection: the reader owns the stream.
struct Conn {
    reader: FrameReader<TcpStream>,
}

enum Sweep {
    /// At least one frame was answered.
    Progress,
    /// No bytes ready; keep the connection.
    Idle,
    /// Closed, errored, or lost framing; drop the connection.
    Closed,
}

/// Accepts connections on `listener` and serves them over `workers`
/// multiplexing workers until `shutdown` flips (use
/// [`crate::server::ServerHandle::shutdown`] or any equivalent
/// flag-plus-listener-poke). Each worker builds its private state once
/// via `state` (e.g. a frontend's lazy shard connections) and answers
/// every decoded request through `respond`; `requests` counts answered
/// frames. A panicking `respond` is caught at the request boundary and
/// answered with an error frame.
///
/// # Errors
///
/// A persistent accept-error streak (e.g. fd exhaustion) is fatal and
/// returned after flipping `shutdown`; per-connection errors only drop
/// that connection.
pub(crate) fn serve_connections<S, N, H>(
    listener: &TcpListener,
    workers: usize,
    shutdown: &AtomicBool,
    requests: &AtomicU64,
    metrics: &ServeMetrics,
    state: N,
    respond: H,
) -> std::io::Result<()>
where
    N: Fn() -> S + Sync,
    H: Fn(&mut S, Request) -> Response + Sync,
{
    let workers = workers.max(1);
    let mut fatal: Option<std::io::Error> = None;
    std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            senders.push(tx);
            let state = &state;
            let respond = &respond;
            scope.spawn(move || worker_loop(rx, shutdown, requests, metrics, state(), respond));
        }
        // Transient accept() errors (a peer resetting mid-handshake)
        // are retried with a small back-off; a persistent error streak
        // is fatal rather than a silent 100%-CPU spin.
        let mut error_streak = 0u32;
        let mut next_worker = 0usize;
        for conn in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => {
                    error_streak = 0;
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    if senders[next_worker % workers].send(stream).is_err() {
                        break;
                    }
                    next_worker = next_worker.wrapping_add(1);
                }
                Err(e) => {
                    error_streak += 1;
                    if error_streak >= 100 {
                        fatal = Some(e);
                        shutdown.store(true, Ordering::SeqCst);
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        drop(senders);
    });
    match fatal {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn worker_loop<S, H>(
    rx: mpsc::Receiver<TcpStream>,
    shutdown: &AtomicBool,
    requests: &AtomicU64,
    metrics: &ServeMetrics,
    mut state: S,
    respond: &H,
) where
    H: Fn(&mut S, Request) -> Response,
{
    let mut conns: Vec<Conn> = Vec::new();
    let mut idle_streak = 0u32;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Intake. With nothing to sweep, block on the channel (with a
        // timeout to keep polling the shutdown flag) instead of
        // spinning on an empty list.
        let mut disconnected = false;
        if conns.is_empty() {
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(stream) => {
                    metrics.connections.add(1);
                    conns.push(Conn {
                        reader: FrameReader::new(stream),
                    });
                }
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        loop {
            match rx.try_recv() {
                Ok(stream) => {
                    metrics.connections.add(1);
                    conns.push(Conn {
                        reader: FrameReader::new(stream),
                    });
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        let mut progress = false;
        conns.retain_mut(
            |conn| match sweep(conn, &mut state, respond, requests, metrics) {
                Sweep::Progress => {
                    progress = true;
                    true
                }
                Sweep::Idle => true,
                Sweep::Closed => {
                    metrics.connections.sub(1);
                    false
                }
            },
        );
        if disconnected && conns.is_empty() {
            break;
        }
        if progress {
            idle_streak = 0;
        } else {
            idle_streak = idle_streak.saturating_add(1);
            if idle_streak < SPIN_SWEEPS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }
    // Connections still held at shutdown close with the worker.
    metrics.connections.sub(conns.len() as u64);
}

/// Answers up to [`FRAMES_PER_SWEEP`] complete frames from one
/// connection; a read that would block ends the sweep.
fn sweep<S, H>(
    conn: &mut Conn,
    state: &mut S,
    respond: &H,
    requests: &AtomicU64,
    metrics: &ServeMetrics,
) -> Sweep
where
    H: Fn(&mut S, Request) -> Response,
{
    let mut answered = false;
    for _ in 0..FRAMES_PER_SWEEP {
        match conn.reader.read_frame() {
            Ok(None) => return Sweep::Closed,
            Ok(Some(payload)) => {
                metrics.frames_in_flight.add(1);
                let started = metrics.now();
                let decoded = Request::decode(&payload);
                metrics.record_since(&metrics.decode_us, started);
                let (kind, response) = match decoded {
                    // A panicking handler must not take the worker (and
                    // every connection it sweeps) down with it: catch
                    // at the request boundary and answer with an error.
                    Ok(request) => {
                        let kind = kind_index(&request);
                        metrics.workers_busy.add(1);
                        let response =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                respond(state, request)
                            }))
                            .unwrap_or_else(|_| {
                                Response::Error("request handler panicked".to_string())
                            });
                        metrics.workers_busy.sub(1);
                        (Some(kind), response)
                    }
                    Err(e) => (None, Response::Error(format!("bad request: {e}"))),
                };
                requests.fetch_add(1, Ordering::Relaxed);
                answered = true;
                let usable = write_response(conn, &response, metrics);
                if let Some(kind) = kind {
                    metrics.requests[kind].inc();
                    if let Some(started) = started {
                        metrics.latency_us[kind].record(started.elapsed().as_micros() as u64);
                    }
                }
                metrics.frames_in_flight.sub(1);
                if !usable {
                    return Sweep::Closed;
                }
            }
            Err(WireError::Io(e)) if is_timeout(&e) => break,
            Err(e) => {
                // Framing is lost (bad checksum, oversized length, EOF
                // mid-frame): answer best-effort, then drop the
                // connection — later bytes cannot be trusted.
                let response = Response::Error(format!("bad frame: {e}"));
                let _ = write_response(conn, &response, metrics);
                return Sweep::Closed;
            }
        }
    }
    if answered {
        Sweep::Progress
    } else {
        Sweep::Idle
    }
}

/// Writes one response frame whole — one `write` of header and payload
/// together — with the socket temporarily in blocking mode (bounded by
/// [`WRITE_TIMEOUT`]). Returns whether the connection is still usable.
fn write_response(conn: &mut Conn, response: &Response, metrics: &ServeMetrics) -> bool {
    let stream = conn.reader.get_ref();
    if stream.set_nonblocking(false).is_err() {
        return false;
    }
    let started = metrics.now();
    let encoded = response.encode();
    metrics.record_since(&metrics.encode_us, started);
    let ok = match write_frame(&mut &*stream, &encoded) {
        Ok(()) => true,
        // write_frame validates the cap before touching the socket, so
        // an oversized response (a batch of many empty rankings can
        // exceed the cap on record overhead alone) can still be
        // answered with a small typed error instead of a silent
        // hang-up.
        Err(WireError::FrameTooLarge { .. }) => {
            let fallback = Response::Error(RESPONSE_TOO_LARGE.to_string());
            write_frame(&mut &*stream, &fallback.encode()).is_ok()
        }
        Err(_) => false,
    };
    conn.reader.get_ref().set_nonblocking(true).is_ok() && ok
}
