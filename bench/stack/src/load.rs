//! The benchmark's own load generator, built on `serve::Client`:
//! closed-loop readers that verify every response against the oracle,
//! and an open-loop writer paced on a fixed schedule whose latencies
//! are counted from each operation's due time.

use crate::stats::Sample;
use geodabs_index::{SearchOptions, SearchResult};
use geodabs_serve::Client;
use geodabs_traj::{TrajId, Trajectory};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A response slower than this counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Dials `addr` with the request timeout set.
pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
    let client = Client::connect(addr)?;
    client.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    Ok(client)
}

/// What the readers replay and what they must get back.
#[derive(Clone, Copy)]
pub struct QuerySet<'a> {
    pub queries: &'a [&'a Trajectory],
    pub expected: &'a [Vec<SearchResult>],
    pub options: SearchOptions,
}

/// The readers' tally.
#[derive(Debug, Default)]
pub struct ReadTally {
    /// Every verified response, placed at its completion time.
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
}

impl ReadTally {
    pub fn merge(&mut self, other: ReadTally) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One closed-loop reader: the next query goes out only after the
/// previous response arrived. Cycles the query set round-robin from
/// `offset` until `duration` has passed since `started`. A response
/// that errors, times out or differs from the oracle in any bit counts
/// as failed; the connection is redialed after a wire error.
fn closed_loop_reader(
    addr: SocketAddr,
    set: QuerySet<'_>,
    offset: usize,
    started: Instant,
    duration: Duration,
) -> ReadTally {
    let mut tally = ReadTally::default();
    let mut client = connect(addr).ok();
    let mut next = offset;
    while started.elapsed() < duration {
        let slot = next % set.queries.len();
        next += 1;
        tally.attempted += 1;
        let Some(conn) = client.as_mut() else {
            tally.failed += 1;
            client = connect(addr).ok();
            continue;
        };
        let sent = Instant::now();
        match conn.query(set.queries[slot], &set.options) {
            Ok(hits) if hits == set.expected[slot] => tally.samples.push(Sample {
                at_ns: started.elapsed().as_nanos() as u64,
                latency_ns: sent.elapsed().as_nanos() as u64,
            }),
            Ok(_) => tally.failed += 1,
            Err(_) => {
                tally.failed += 1;
                client = None;
            }
        }
    }
    tally
}

/// `connections` closed-loop readers side by side on one clock, each
/// starting at its own offset into the query cycle.
pub fn closed_loop(
    addr: SocketAddr,
    set: QuerySet<'_>,
    connections: usize,
    duration: Duration,
) -> ReadTally {
    let started = Instant::now();
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..connections)
            .map(|c| {
                let offset = c * set.queries.len() / connections;
                scope.spawn(move || closed_loop_reader(addr, set, offset, started, duration))
            })
            .collect();
        let mut total = ReadTally::default();
        for reader in readers {
            total.merge(reader.join().expect("reader thread panicked"));
        }
        total
    })
}

/// A monotonic nanosecond clock the pacer waits on; the test injects a
/// simulated one.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Returns once `now_ns() >= deadline_ns`.
    fn wait_until(&self, deadline_ns: u64);
}

pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }
}

/// The pacer sleeps up to this close to a due time, then spins: `sleep`
/// alone overshoots by tens of microseconds and a yielding loop by a
/// whole request of whichever thread it yielded to, both the size of
/// the latencies being measured. Spinning costs 2 % of one core at 200
/// operations per second.
const SPIN_BEFORE_DUE_NS: u64 = 100_000;

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, deadline_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= deadline_ns {
                return;
            }
            let left = deadline_ns - now;
            if left > SPIN_BEFORE_DUE_NS {
                std::thread::sleep(Duration::from_nanos(left - SPIN_BEFORE_DUE_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// The open-loop writer's tally.
#[derive(Debug, Default)]
pub struct WriteTally {
    /// Every acknowledged operation, placed at its due time, with its
    /// ack time minus **due** time: a stall is charged to every
    /// operation it delayed.
    pub samples: Vec<Sample>,
    /// Send time minus due time of the operations the generator was
    /// idle for — its own wake-up overshoot.
    pub lateness_ns: Vec<u64>,
    /// Operations that were already due when the previous ack arrived:
    /// sent late because the connection was busy, not the generator.
    pub backlogged: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs `op(i)` on the schedule `due(i) = (i + 1) * period_ns` for as
/// long as the due time stays within `duration_ns`. One operation is in flight at a
/// time (one connection); the schedule never shifts, so an operation
/// that waits behind a slow one is timed from when it *should* have
/// been sent. `op` returns whether the operation was acknowledged.
pub fn open_loop<C: Clock>(
    clock: &C,
    period_ns: u64,
    duration_ns: u64,
    mut op: impl FnMut(u64) -> bool,
) -> WriteTally {
    let mut tally = WriteTally::default();
    let origin = clock.now_ns();
    for i in 0.. {
        let due = origin + (i + 1) * period_ns;
        if due - origin > duration_ns {
            break;
        }
        if clock.now_ns() >= due {
            tally.backlogged += 1;
        } else {
            clock.wait_until(due);
            tally.lateness_ns.push(clock.now_ns() - due);
        }
        tally.attempted += 1;
        if op(i) {
            tally.samples.push(Sample {
                at_ns: due - origin,
                latency_ns: clock.now_ns() - due,
            });
        } else {
            tally.failed += 1;
        }
    }
    tally
}

/// The write schedule every workload uses. At this rate a mux worker
/// is always back in its idle sleep when the next write arrives; at 500
/// or 1000 per second the period is about as long as the worker's
/// spin-before-sleep, and the median flips between the two regimes from
/// one run to the next.
pub const WRITES_PER_SECOND: u64 = 200;

/// The open-loop writer: re-inserts corpus trajectory `i` under its own
/// id `i`, cycling through `records` — a replace, so the index content
/// (and every expected ranking) stays invariant under the write load.
pub fn replace_writer(
    addr: SocketAddr,
    records: &[(TrajId, &Trajectory)],
    duration: Duration,
) -> WriteTally {
    let mut client = connect(addr).ok();
    let clock = WallClock::start();
    open_loop(
        &clock,
        1_000_000_000 / WRITES_PER_SECOND,
        duration.as_nanos() as u64,
        |i| {
            let (id, trajectory) = records[i as usize % records.len()];
            let Some(conn) = client.as_mut() else {
                client = connect(addr).ok();
                return false;
            };
            let acked = conn.insert(id, trajectory).is_ok();
            if !acked {
                client = None;
            }
            acked
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A simulated clock: waiting jumps straight to the deadline plus a
    /// fixed overshoot.
    struct FakeClock {
        now: Cell<u64>,
        overshoot_ns: u64,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }

        fn wait_until(&self, deadline_ns: u64) {
            self.now.set(deadline_ns + self.overshoot_ns);
        }
    }

    #[test]
    fn a_stall_is_charged_from_due_times_and_never_shifts_the_schedule() {
        let clock = FakeClock {
            now: Cell::new(5_000),
            overshoot_ns: 7,
        };
        // 1 ms period; every op takes 100 us except op 2, which stalls
        // for 3.5 ms.
        let service = |i: u64| if i == 2 { 3_500_000 } else { 100_000 };
        let tally = open_loop(&clock, 1_000_000, 8_000_000, |i| {
            clock.now.set(clock.now.get() + service(i));
            i != 6
        });
        assert_eq!(tally.attempted, 8, "the schedule holds 8 due times");
        assert_eq!(tally.failed, 1);
        // Ops 3, 4 and 5 were due (at 4, 5, 6 ms) before the stalled op
        // returned at 3.000007 + 3.5 = 6.500007 ms.
        assert_eq!(tally.backlogged, 3);
        assert_eq!(tally.lateness_ns, vec![7; 5]);
        let latencies: Vec<u64> = tally.samples.iter().map(|s| s.latency_ns).collect();
        assert_eq!(tally.samples[3].at_ns, 4_000_000, "placed at its due time");
        assert_eq!(
            latencies,
            vec![
                100_007,   // op 0
                100_007,   // op 1
                3_500_007, // op 2: the stall itself
                2_600_007, // op 3: due at 4 ms, acked at 6.600007 ms
                1_700_007, // op 4: due at 5 ms, acked at 6.700007 ms
                800_007,   // op 5: due at 6 ms, acked at 6.800007 ms
                // op 6 failed: no latency sample
                100_007, // op 7: back on schedule
            ]
        );
    }

    #[test]
    fn wall_clock_waits_at_least_until_the_deadline() {
        let clock = WallClock::start();
        let deadline = clock.now_ns() + 2_000_000;
        clock.wait_until(deadline);
        assert!(clock.now_ns() >= deadline);
    }
}
