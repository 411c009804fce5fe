//! Readiness for the connection multiplexer: the one way a mux worker
//! waits.
//!
//! This is the classic level-triggered `poll(2)` + self-pipe reactor,
//! cut down to what [`crate::mux`] needs. A [`Poller`] holds the
//! worker's registered sockets plus the read end of a
//! `UnixStream::pair()`; [`Poller::wait`] blocks in one `poll` over all
//! of them and returns the tokens of the sockets a `read` would not
//! block on. A [`Waker`] is the pair's write end: one byte written from
//! any thread makes the poll set readable, so a wake-up issued *before*
//! the worker parks is not lost — it is still sitting in the socket
//! when `poll` looks. [`wait_writable`] is the same call over a single
//! socket for the response path.
//!
//! Level-triggered means a socket keeps being reported until it is
//! drained, so the caller must read every reported socket to
//! `WouldBlock` (or drop it) before parking again; and `poll` sees
//! kernel buffers only — bytes already pulled into a user-space buffer
//! are invisible to it.
//!
//! `libc` stays out of the dependency tree (`bench/stack/Cargo.lock` is
//! frozen, so the package graph cannot grow): `poll`'s prototype, its
//! `struct pollfd` and the event bits are POSIX-stable and declared
//! here, behind the crate's only `unsafe` block. On non-unix targets
//! the same surface degrades to a bounded sleep that reports every
//! registered socket as worth a look, so the mux has one code path.

use std::net::TcpStream;
use std::time::Duration;

/// Names one registered socket in [`Poller::wait`]'s answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Token(u64);

pub(crate) use imp::{wait_writable, Poller, Waker};

#[cfg(unix)]
mod imp {
    use super::{Duration, TcpStream, Token};
    use std::io::{ErrorKind, Read, Write};
    use std::os::raw::c_int;
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;
    use std::time::Instant;

    /// `struct pollfd`, laid out as POSIX specifies it.
    #[repr(C)]
    struct PollFd {
        fd: RawFd,
        events: i16,
        revents: i16,
    }

    // The event bits share these values on Linux, the BSDs and macOS.
    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;

    /// `nfds_t` is `unsigned long` on Linux, Android and the Solaris
    /// family and `unsigned int` on the BSDs and macOS.
    #[cfg(any(
        target_os = "linux",
        target_os = "android",
        target_os = "solaris",
        target_os = "illumos"
    ))]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(any(
        target_os = "linux",
        target_os = "android",
        target_os = "solaris",
        target_os = "illumos"
    )))]
    type NfdsT = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }

    /// One `poll(2)` over `fds`, restarted on `EINTR` with what is left
    /// of `timeout` (`None` waits indefinitely; a finite wait is
    /// rounded up to poll's millisecond granularity). Returns how many
    /// entries came back with a non-zero `revents`.
    #[allow(unsafe_code)]
    fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let millis: c_int = match deadline {
                None => -1,
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    let rounded_up = left.as_nanos().div_ceil(1_000_000);
                    c_int::try_from(rounded_up).unwrap_or(c_int::MAX)
                }
            };
            // SAFETY: `fds` is an exclusively borrowed slice of
            // `#[repr(C)]` `PollFd`s, so the pointer is valid for reads
            // and writes of exactly `fds.len()` entries for the whole
            // call, and `poll` writes nothing but their `revents`
            // fields. The descriptors need not be open: `poll` answers
            // a closed one with `POLLNVAL` and never touches memory
            // through it.
            let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, millis) };
            if ready >= 0 {
                return Ok(ready as usize);
            }
            let error = std::io::Error::last_os_error();
            if error.kind() != ErrorKind::Interrupted {
                return Err(error);
            }
        }
    }

    /// The poll set of one mux worker.
    pub(crate) struct Poller {
        /// `fds[0]` is the waker's read end; `fds[i + 1]` is the socket
        /// registered as `tokens[i]`.
        fds: Vec<PollFd>,
        tokens: Vec<Token>,
        /// Reused answer buffer of [`Poller::wait`].
        ready: Vec<Token>,
        next_token: u64,
        wake_rx: UnixStream,
        wake_tx: Arc<UnixStream>,
    }

    /// Wakes the [`Poller`] it came from, from any thread.
    pub(crate) struct Waker(Arc<UnixStream>);

    impl Waker {
        /// Makes the next (or the current) [`Poller::wait`] return.
        pub(crate) fn wake(&self) {
            // A failed write means the socket is full of wake-ups the
            // poller has not consumed yet (or the poller is gone):
            // either way there is nobody left to wake.
            let _ = (&*self.0).write(&[1]);
        }
    }

    impl Poller {
        /// A poller with no registered socket and its waker armed.
        ///
        /// # Errors
        ///
        /// Creating the socket pair fails (descriptor exhaustion).
        pub(crate) fn new() -> std::io::Result<Poller> {
            let (wake_rx, wake_tx) = UnixStream::pair()?;
            wake_rx.set_nonblocking(true)?;
            wake_tx.set_nonblocking(true)?;
            Ok(Poller {
                fds: vec![PollFd {
                    fd: wake_rx.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                }],
                tokens: Vec::new(),
                ready: Vec::new(),
                next_token: 0,
                wake_rx,
                wake_tx: Arc::new(wake_tx),
            })
        }

        /// A handle that wakes this poller.
        pub(crate) fn waker(&self) -> Waker {
            Waker(Arc::clone(&self.wake_tx))
        }

        /// Adds `stream` to the poll set. The caller keeps the stream
        /// open until it [`Poller::deregister`]s the token.
        pub(crate) fn register(&mut self, stream: &TcpStream) -> Token {
            let token = Token(self.next_token);
            self.next_token += 1;
            self.fds.push(PollFd {
                fd: stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            self.tokens.push(token);
            token
        }

        /// Removes a socket from the poll set; it is never reported
        /// again. Unknown tokens are ignored.
        pub(crate) fn deregister(&mut self, token: Token) {
            if let Some(slot) = self.tokens.iter().position(|t| *t == token) {
                self.tokens.swap_remove(slot);
                self.fds.swap_remove(slot + 1);
            }
        }

        /// Blocks until a registered socket is ready, the waker fires or
        /// `timeout` passes (`None`: no timeout), and returns the tokens
        /// of the sockets a `read` would not block on — readable, closed
        /// by the peer or failed. Empty after a wake-up or a timeout.
        ///
        /// # Errors
        ///
        /// `poll` itself failed (`ENOMEM`); nothing was waited for.
        pub(crate) fn wait(&mut self, timeout: Option<Duration>) -> std::io::Result<&[Token]> {
            self.ready.clear();
            if poll_fds(&mut self.fds, timeout)? == 0 {
                return Ok(&self.ready);
            }
            if self.fds[0].revents != 0 {
                // Consume every pending wake-up: they all meant "look
                // again", which the caller is about to do.
                let mut sink = [0u8; 256];
                while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
            }
            // Any event counts, not `POLLIN` alone: a hung-up or failed
            // socket is reported through `POLLHUP`/`POLLERR`, and the
            // `read` that follows is what tells the caller which.
            for (fd, token) in self.fds[1..].iter().zip(&self.tokens) {
                if fd.revents != 0 {
                    self.ready.push(*token);
                }
            }
            Ok(&self.ready)
        }
    }

    /// Blocks until `stream` accepts more bytes (or has failed, which
    /// the next `write` reports); `false` when `timeout` passed first.
    ///
    /// # Errors
    ///
    /// `poll` itself failed.
    pub(crate) fn wait_writable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
        let mut fd = [PollFd {
            fd: stream.as_raw_fd(),
            events: POLLOUT,
            revents: 0,
        }];
        Ok(poll_fds(&mut fd, Some(timeout))? > 0)
    }
}

#[cfg(not(unix))]
mod imp {
    use super::{Duration, TcpStream, Token};
    use std::sync::{Arc, Condvar, Mutex};

    /// The longest one wait sleeps: without a readiness call the caller
    /// has to look at its sockets itself this often.
    const TICK: Duration = Duration::from_millis(1);

    /// The fallback poller: a registry of tokens and a wake flag.
    pub(crate) struct Poller {
        tokens: Vec<Token>,
        next_token: u64,
        woken: Arc<(Mutex<bool>, Condvar)>,
    }

    /// Wakes the [`Poller`] it came from, from any thread.
    pub(crate) struct Waker(Arc<(Mutex<bool>, Condvar)>);

    impl Waker {
        /// Makes the next (or the current) [`Poller::wait`] return.
        pub(crate) fn wake(&self) {
            let (flag, signal) = &*self.0;
            *flag.lock().unwrap_or_else(|e| e.into_inner()) = true;
            signal.notify_one();
        }
    }

    impl Poller {
        /// A poller with no registered socket.
        ///
        /// # Errors
        ///
        /// Never, on this target.
        pub(crate) fn new() -> std::io::Result<Poller> {
            Ok(Poller {
                tokens: Vec::new(),
                next_token: 0,
                woken: Arc::new((Mutex::new(false), Condvar::new())),
            })
        }

        /// A handle that wakes this poller.
        pub(crate) fn waker(&self) -> Waker {
            Waker(Arc::clone(&self.woken))
        }

        /// Adds a socket to the set.
        pub(crate) fn register(&mut self, _stream: &TcpStream) -> Token {
            let token = Token(self.next_token);
            self.next_token += 1;
            self.tokens.push(token);
            token
        }

        /// Removes a socket from the set; it is never reported again.
        pub(crate) fn deregister(&mut self, token: Token) {
            self.tokens.retain(|t| *t != token);
        }

        /// Sleeps for at most one tick (less on a wake-up or a shorter
        /// `timeout`) and reports every registered socket: readiness is
        /// unknown here, so each is worth one non-blocking `read`.
        ///
        /// # Errors
        ///
        /// Never, on this target.
        pub(crate) fn wait(&mut self, timeout: Option<Duration>) -> std::io::Result<&[Token]> {
            let (flag, signal) = &*self.woken;
            let mut woken = flag.lock().unwrap_or_else(|e| e.into_inner());
            if !*woken {
                let tick = timeout.map_or(TICK, |t| t.min(TICK));
                woken = signal
                    .wait_timeout(woken, tick)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
            *woken = false;
            Ok(&self.tokens)
        }
    }

    /// Sleeps one tick and tells the caller to try its `write` again.
    ///
    /// # Errors
    ///
    /// Never, on this target.
    pub(crate) fn wait_writable(_stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
        std::thread::sleep(timeout.min(TICK));
        Ok(true)
    }
}

// The fallback cannot tell a ready socket from a quiet one, so what these
// pin only holds where `poll` exists.
#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::time::Instant;

    /// A connected loopback pair: (the side a poller watches, its peer).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (watched, _) = listener.accept().expect("accept");
        watched.set_nonblocking(true).expect("nonblocking");
        (watched, peer)
    }

    /// Long enough that a wait which returns because of it fails the
    /// test's promptness bound.
    const NEVER: Duration = Duration::from_secs(30);
    const PROMPT: Duration = Duration::from_secs(5);

    #[test]
    fn a_wake_issued_before_wait_is_not_lost() {
        let mut poller = Poller::new().expect("poller");
        let (watched, _peer) = pair();
        poller.register(&watched);
        poller.waker().wake();
        let started = Instant::now();
        assert!(poller.wait(Some(NEVER)).expect("wait").is_empty());
        assert!(started.elapsed() < PROMPT, "the wake-up was lost");
        // It was consumed, too: the next wait runs into its timeout.
        let started = Instant::now();
        let timeout = Duration::from_millis(20);
        assert!(poller.wait(Some(timeout)).expect("wait").is_empty());
        assert!(started.elapsed() >= timeout);
    }

    #[test]
    fn a_wake_from_another_thread_returns_a_parked_wait() {
        let mut poller = Poller::new().expect("poller");
        let waker = poller.waker();
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                parked_rx.recv().expect("the waiting side is up");
                waker.wake();
            });
            let started = Instant::now();
            parked_tx.send(()).expect("waker thread is up");
            assert!(poller.wait(Some(NEVER)).expect("wait").is_empty());
            assert!(started.elapsed() < PROMPT, "the wake-up never arrived");
        });
    }

    #[test]
    fn many_wakes_coalesce_into_one_return() {
        let mut poller = Poller::new().expect("poller");
        let waker = poller.waker();
        // Far more single bytes than a socket buffer takes: a full
        // buffer must neither block nor fail the waker.
        for _ in 0..10_000 {
            waker.wake();
        }
        assert!(poller.wait(Some(NEVER)).expect("wait").is_empty());
        let started = Instant::now();
        let timeout = Duration::from_millis(20);
        assert!(poller.wait(Some(timeout)).expect("wait").is_empty());
        assert!(started.elapsed() >= timeout, "a stale wake-up survived");
    }

    #[test]
    fn a_readable_socket_is_reported_until_it_is_drained() {
        use std::io::Read;
        let mut poller = Poller::new().expect("poller");
        let (quiet, _quiet_peer) = pair();
        let (watched, mut peer) = pair();
        let quiet_token = poller.register(&quiet);
        let token = poller.register(&watched);
        assert_ne!(quiet_token, token);
        peer.write_all(b"ping").expect("write");
        // Level-triggered: reported on every wait while bytes remain.
        for _ in 0..2 {
            assert_eq!(poller.wait(Some(NEVER)).expect("wait"), [token]);
        }
        let mut bytes = [0u8; 16];
        assert_eq!((&watched).read(&mut bytes).expect("read"), 4);
        assert!(poller
            .wait(Some(Duration::from_millis(20)))
            .expect("wait")
            .is_empty());
    }

    #[test]
    fn a_peer_closed_socket_is_reported_and_reads_as_closed() {
        use std::io::Read;
        let mut poller = Poller::new().expect("poller");
        let (watched, peer) = pair();
        let token = poller.register(&watched);
        drop(peer);
        let started = Instant::now();
        assert_eq!(poller.wait(Some(NEVER)).expect("wait"), [token]);
        assert!(started.elapsed() < PROMPT);
        // What the report means: the read does not block, it says EOF.
        assert_eq!((&watched).read(&mut [0u8; 16]).expect("read"), 0);
    }

    #[test]
    fn an_expired_timeout_reports_nothing() {
        let mut poller = Poller::new().expect("poller");
        let (watched, _peer) = pair();
        poller.register(&watched);
        let started = Instant::now();
        let timeout = Duration::from_millis(30);
        assert!(poller.wait(Some(timeout)).expect("wait").is_empty());
        assert!(started.elapsed() >= timeout, "returned before the timeout");
        assert!(started.elapsed() < PROMPT);
    }

    #[test]
    fn a_deregistered_socket_is_never_reported() {
        let mut poller = Poller::new().expect("poller");
        let (first, mut first_peer) = pair();
        let (second, mut second_peer) = pair();
        let (third, mut third_peer) = pair();
        let first_token = poller.register(&first);
        let second_token = poller.register(&second);
        let third_token = poller.register(&third);
        for peer in [&mut first_peer, &mut second_peer, &mut third_peer] {
            peer.write_all(b"x").expect("write");
        }
        // Removing from the middle must not unpair the survivors.
        poller.deregister(second_token);
        poller.deregister(second_token);
        let mut ready = poller.wait(Some(NEVER)).expect("wait").to_vec();
        ready.sort_by_key(|token| token.0);
        assert_eq!(ready, [first_token, third_token]);
        poller.deregister(first_token);
        assert_eq!(poller.wait(Some(NEVER)).expect("wait"), [third_token]);
        poller.deregister(third_token);
        assert!(poller
            .wait(Some(Duration::from_millis(20)))
            .expect("wait")
            .is_empty());
    }

    #[test]
    fn wait_writable_tells_a_drained_socket_from_a_stuffed_one() {
        let (watched, peer) = pair();
        assert!(wait_writable(&watched, NEVER).expect("poll"));
        // Stuff both kernel buffers; the peer never reads.
        let chunk = vec![0u8; 64 * 1024];
        loop {
            match (&watched).write(&chunk) {
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("unexpected write error: {e}"),
            }
        }
        let started = Instant::now();
        let timeout = Duration::from_millis(30);
        assert!(!wait_writable(&watched, timeout).expect("poll"));
        assert!(started.elapsed() >= timeout);
        // Once the peer is gone the socket counts as writable again, so
        // the write that follows can report the failure.
        drop(peer);
        assert!(wait_writable(&watched, NEVER).expect("poll"));
        assert!(started.elapsed() < PROMPT);
    }
}
