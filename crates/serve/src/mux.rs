//! The connection multiplexer: a fixed worker pool sweeping many
//! non-blocking connections each, instead of one worker owning one
//! connection for its lifetime.
//!
//! The acceptor (the thread calling [`serve_connections`]) hands each
//! accepted stream — switched to non-blocking mode — to a worker over a
//! per-worker channel, round-robin, and then fires that worker's
//! [`Waker`]. A worker keeps its connections in a flat list, registered
//! with its [`Poller`], and sweeps them: the incremental
//! [`FrameReader`] resumes mid-frame across
//! `WouldBlock`, so a slow sender costs one failed `read` per sweep,
//! never a stuck thread. Idle connections therefore cost nothing but a
//! list slot, a poll-set entry and the reader's 16 KiB buffer —
//! thousands of them can share a pool sized to the cores.
//!
//! A sweep decodes at most [`FRAMES_PER_SWEEP`] frames per connection
//! before moving on, so one pipelining client cannot starve its
//! neighbours on the same worker. Responses are written to the
//! non-blocking socket as they are; when the peer's window is full the
//! worker waits for that one socket to drain (bounded by
//! [`WRITE_TIMEOUT`]): a response frame is either written whole or the
//! connection is dropped — never interleaved or torn.
//!
//! A worker waits in exactly one way: **sweep → bounded spin → park**.
//! While sweeps answer frames it keeps sweeping. Once a sweep answers
//! nothing it keeps sweeping, yielding in between, for [`SPIN_BUDGET`]
//! of wall-clock time, and then parks in [`Poller::wait`] — `poll(2)`
//! over its sockets and its waker — until a byte, a hang-up, a
//! handed-over connection or shutdown wakes it; a parked worker costs
//! no CPU and is woken by the kernel, not by a timer. It parks only
//! after a sweep in which *every* connection's `read_frame` hit
//! `WouldBlock`: a complete frame already cut into a `FrameReader`'s
//! buffer is invisible to `poll`, and `read_frame` hands those out
//! before it touches the socket.
//!
//! The spin stays because a closed-loop client's next request arrives
//! within its turnaround time, and being woken costs more than that: on
//! the 2-core sandbox, parking without a spin took `insert_p50_us` on
//! stackbench's `wire-2k` to the same 154 µs but moved `query_p50_us`
//! from 75 to 94 µs (+25 %), the ~20 µs it takes to schedule a parked
//! thread, paid once per request. The budget covers that turnaround
//! and nothing more; the 200 µs sleep it replaced put ~360 µs around
//! ~34 µs of work on every paced insert.

use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::metrics::{kind_index, ServeMetrics};
use crate::poller::{wait_writable, Poller, Token, Waker};
use crate::proto::{is_timeout, write_frame, FrameReader, Request, Response, WireError};

/// Frames decoded from one connection per sweep before the worker moves
/// on — the fairness bound between pipelining neighbours.
const FRAMES_PER_SWEEP: usize = 32;

/// How long a worker keeps sweeping after the last answered frame
/// before it parks: a closed-loop client's turnaround, so its next
/// request is answered from the spin instead of paying a wake-up.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// Upper bound on one stall of a response write; a peer that stops
/// draining for this long is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The error sent when a response would blow the frame cap.
pub(crate) const RESPONSE_TOO_LARGE: &str =
    "response exceeds the frame cap; narrow the query with a result limit";

/// One multiplexed connection: the reader owns the stream, `token`
/// names it in the worker's poll set.
struct Conn {
    reader: FrameReader<TcpStream>,
    token: Token,
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
/// returned after flipping `shutdown`, as is failing to build a worker's
/// poller before anything is accepted; per-connection errors only drop
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
    let pollers = (0..workers.max(1))
        .map(|_| Poller::new())
        .collect::<std::io::Result<Vec<Poller>>>()?;
    let workers = pollers.len();
    let mut fatal: Option<std::io::Error> = None;
    std::thread::scope(|scope| {
        let mut handoffs: Vec<(mpsc::Sender<TcpStream>, Waker)> = Vec::with_capacity(workers);
        for poller in pollers {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            handoffs.push((tx, poller.waker()));
            let state = &state;
            let respond = &respond;
            scope.spawn(move || {
                worker_loop(rx, poller, shutdown, requests, metrics, state(), respond)
            });
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
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let (sender, waker) = &handoffs[next_worker % workers];
                    if sender.send(stream).is_err() {
                        break;
                    }
                    // The worker may be parked, and the new socket is
                    // not in its poll set yet.
                    waker.wake();
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
        // Whatever ended the loop, no worker may stay parked: each one
        // wakes to a set shutdown flag or to its disconnected channel.
        for (sender, waker) in handoffs {
            drop(sender);
            waker.wake();
        }
    });
    match fatal {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn worker_loop<S, H>(
    rx: mpsc::Receiver<TcpStream>,
    mut poller: Poller,
    shutdown: &AtomicBool,
    requests: &AtomicU64,
    metrics: &ServeMetrics,
    mut state: S,
    respond: &H,
) where
    H: Fn(&mut S, Request) -> Response,
{
    let mut conns: Vec<Conn> = Vec::new();
    // When the current run of sweeps that answered nothing began.
    let mut idle_since: Option<Instant> = None;
    // Set by a wake-up, cleared by the next answered frame.
    let mut woke_for_nothing = false;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut disconnected = false;
        loop {
            match rx.try_recv() {
                Ok(stream) => {
                    metrics.connections.add(1);
                    let token = poller.register(&stream);
                    conns.push(Conn {
                        reader: FrameReader::new(stream),
                        token,
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
                    poller.deregister(conn.token);
                    metrics.connections.sub(1);
                    false
                }
            },
        );
        if disconnected && conns.is_empty() {
            break;
        }
        if progress {
            idle_since = None;
            woke_for_nothing = false;
            continue;
        }
        if idle_since.get_or_insert_with(Instant::now).elapsed() < SPIN_BUDGET {
            std::thread::yield_now();
            continue;
        }
        // Every connection just answered `WouldBlock` with no complete
        // frame buffered, so everything that can make progress from
        // here on shows up in the poll set.
        if woke_for_nothing {
            metrics.mux_spurious_wakeups.inc();
        }
        metrics.mux_parks.inc();
        // `poll` itself failing (`ENOMEM`) degrades this worker to
        // sweeping without a park: still correct, and the climbing
        // spurious-wakeup counter shows it.
        let _ = poller.wait(None);
        metrics.mux_wakeups.inc();
        woke_for_nothing = true;
        idle_since = None;
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
/// together unless the peer's window fills mid-frame, in which case
/// [`DrainingWriter`] waits the stall out. Returns whether the
/// connection is still usable.
fn write_response(conn: &mut Conn, response: &Response, metrics: &ServeMetrics) -> bool {
    let started = metrics.now();
    let encoded = response.encode();
    metrics.record_since(&metrics.encode_us, started);
    let mut writer = DrainingWriter(conn.reader.get_ref());
    match write_frame(&mut writer, &encoded) {
        Ok(()) => true,
        // write_frame validates the cap before touching the socket, so
        // an oversized response (a ranking of millions of hits) can
        // still be answered with a small typed error instead of a
        // silent hang-up. This is the one guard: the engine has built
        // the ranking by the time its size is known.
        Err(WireError::FrameTooLarge { .. }) => {
            let fallback = Response::Error(RESPONSE_TOO_LARGE.to_string());
            write_frame(&mut writer, &fallback.encode()).is_ok()
        }
        Err(_) => false,
    }
}

/// A non-blocking socket as a `Write` that never reports `WouldBlock`:
/// a full send buffer is waited out with `POLLOUT` on that one socket,
/// for at most [`WRITE_TIMEOUT`] per stall, so `write_all` over it
/// keeps the offset and either finishes the frame or fails.
struct DrainingWriter<'a>(&'a TcpStream);

impl Write for DrainingWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut deadline: Option<Instant> = None;
        loop {
            match self.0.write(buf) {
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let deadline = *deadline.get_or_insert_with(|| Instant::now() + WRITE_TIMEOUT);
                    let left = deadline.saturating_duration_since(Instant::now());
                    if !wait_writable(self.0, left)? {
                        return Err(ErrorKind::TimedOut.into());
                    }
                }
                written => return written,
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{QueryBody, MAX_FRAME_LEN};
    use crate::Client;
    use geodabs_index::{SearchOptions, SearchResult};
    use geodabs_traj::TrajId;

    /// A ranking too large to frame is answered with the typed error
    /// instead of a hang-up, and the connection keeps serving.
    #[test]
    fn an_over_cap_response_is_refused_typed_and_the_connection_stays_usable() {
        // A hit is 12 wire bytes, so this many cannot fit in one frame.
        let over_cap = MAX_FRAME_LEN as usize / 12 + 1;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let (shutdown, requests) = (AtomicBool::new(false), AtomicU64::new(0));
        let metrics = ServeMetrics::new(true, u64::MAX);
        let respond = |_: &mut (), request: Request| match request {
            Request::Query { .. } => {
                let hit = SearchResult {
                    id: TrajId::new(1),
                    distance: 0.5,
                };
                Response::Hits(vec![hit; over_cap])
            }
            _ => Response::Pong,
        };
        std::thread::scope(|scope| {
            let served = scope.spawn(|| {
                serve_connections(&listener, 1, &shutdown, &requests, &metrics, || (), respond)
            });
            let mut client = Client::connect(addr).expect("connect");
            let query = Request::Query {
                query: QueryBody::Fingerprints(vec![7]),
                options: SearchOptions::default(),
            };
            assert_eq!(
                client.request(&query).expect("answered"),
                Response::Error(RESPONSE_TOO_LARGE.to_string())
            );
            assert_eq!(
                client.request(&Request::Ping).expect("answered"),
                Response::Pong
            );
            shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(addr);
            served.join().expect("serve thread").expect("clean exit");
        });
        assert_eq!(requests.load(Ordering::SeqCst), 2);
    }
}
