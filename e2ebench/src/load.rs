//! Load generation: the open loop (requests sent on a schedule, timed
//! from when each was due), the closed loop (each connection sends its
//! next request when the previous one answers), and closed-loop rounds
//! (every connection sends one request per round).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Time since the start of a run, so the loops can be driven by a fake
/// clock in tests.
pub trait Clock {
    fn now(&self) -> Duration;
    fn sleep_until(&self, t: Duration);
}

/// The real clock. Sleeps to just before the due time (by about a
/// sleep's usual overshoot), then yields the processor until it arrives:
/// the send stays close to schedule without spinning a core the server
/// needs.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let slack = Duration::from_micros(80);
        let now = self.now();
        if t > now + slack {
            std::thread::sleep(t - now - slack);
        }
        while self.now() < t {
            std::thread::yield_now();
        }
    }
}

/// When one request was due, sent, and answered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Timing {
    /// Latency as a user sees it: from when the request was due, so a
    /// stall also counts against every request it delayed.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }
}

/// Sends request `i` of `dues` at `dues[i]`, or as soon as the previous
/// response arrived if that was later. `send` performs one request.
pub fn open_loop<C: Clock, T>(
    clock: &C,
    dues: &[Duration],
    mut send: impl FnMut(usize) -> T,
) -> Vec<(Timing, T)> {
    dues.iter()
        .enumerate()
        .map(|(i, &due)| {
            clock.sleep_until(due);
            let sent = clock.now();
            let out = send(i);
            (Timing { due, sent, done: clock.now() }, out)
        })
        .collect()
}

/// Sends requests back to back until `end`; each is due when sent.
/// `send` returns `None` when the stream has nothing more to send.
pub fn closed_loop<C: Clock, T>(
    clock: &C,
    end: Duration,
    mut send: impl FnMut() -> Option<T>,
) -> Vec<(Timing, T)> {
    let mut out = Vec::new();
    while clock.now() < end {
        let sent = clock.now();
        let Some(result) = send() else { break };
        out.push((Timing { due: sent, sent, done: clock.now() }, result));
    }
    out
}

/// Closed-loop rounds shared by several connections: each round, every
/// connection sends one request, and the next round starts when all of
/// them have answered, so every run sends the same mix of requests.
/// Rounds start until `end`, or until a connection has nothing to send.
pub struct Rounds {
    barrier: Barrier,
    /// Set by a connection with nothing more to send.
    exhausted: AtomicBool,
    /// Whether the current round is the last; written only between the
    /// two barriers that open a round, while every other connection waits.
    stop: AtomicBool,
    end: Duration,
}

impl Rounds {
    pub fn new(connections: usize, end: Duration) -> Rounds {
        Rounds {
            barrier: Barrier::new(connections),
            exhausted: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            end,
        }
    }

    /// One connection's part: `send` performs one request per round and
    /// returns `None` when it has nothing more to send. Each request is
    /// due when sent.
    pub fn run<C: Clock, T>(
        &self,
        clock: &C,
        mut send: impl FnMut() -> Option<T>,
    ) -> Vec<(Timing, T)> {
        let mut out = Vec::new();
        loop {
            if self.barrier.wait().is_leader()
                && (clock.now() >= self.end || self.exhausted.load(Ordering::SeqCst))
            {
                self.stop.store(true, Ordering::SeqCst);
            }
            self.barrier.wait();
            if self.stop.load(Ordering::SeqCst) {
                return out;
            }
            let sent = clock.now();
            match send() {
                Some(result) => out.push((Timing { due: sent, sent, done: clock.now() }, result)),
                None => self.exhausted.store(true, Ordering::SeqCst),
            }
        }
    }
}

/// How late the generator itself sent each request of one connection:
/// the time past both its due time and the moment the connection was
/// free. Lateness caused by a slow response is the server's and is not
/// counted here; it shows in [`Timing::latency`].
pub fn generator_lateness(timings: &[Timing]) -> Vec<Duration> {
    let mut free = Duration::ZERO;
    timings
        .iter()
        .map(|t| {
            let late = t.sent.saturating_sub(t.due.max(free));
            free = t.done;
            late
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn open_loop_times_from_the_due_time() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        // Due every 10 ms; request 0 stalls the server for 35 ms, the
        // rest take 1 ms.
        let dues: Vec<Duration> = (0..5).map(|i| ms(10 * i)).collect();
        let out = open_loop(&clock, &dues, |i| {
            clock.0.set(clock.0.get() + if i == 0 { ms(35) } else { ms(1) });
        });
        let lat: Vec<u64> = out.iter().map(|(t, _)| t.latency().as_millis() as u64).collect();
        // Requests 1..3 were due at 10, 20, 30 but could only go at 35,
        // 36, 37: their latency includes the wait behind the stall.
        assert_eq!(lat, vec![35, 26, 17, 8, 1]);
        // None of that wait is the generator's fault.
        let late = generator_lateness(&out.iter().map(|(t, _)| *t).collect::<Vec<_>>());
        assert!(late.iter().all(|d| d.is_zero()), "{late:?}");
    }

    #[test]
    fn generator_lateness_counts_only_the_senders_delay() {
        let t = |due, sent, done| Timing { due: ms(due), sent: ms(sent), done: ms(done) };
        // Sent 3 ms after its due time on an idle connection: 3 ms late.
        // Sent when the previous response arrived: not late.
        let late = generator_lateness(&[t(0, 3, 4), t(2, 4, 9), t(10, 10, 11)]);
        assert_eq!(late, vec![ms(3), ms(0), ms(0)]);
    }

    #[test]
    fn rounds_send_one_request_per_connection_per_round() {
        let clock = WallClock(Instant::now());
        let rounds = Rounds::new(2, ms(40));
        // A fast and a slow connection run the same number of rounds.
        let sleep = |d: Duration| {
            std::thread::sleep(d);
            Some(())
        };
        let (fast, slow) = std::thread::scope(|s| {
            let fast = s.spawn(|| rounds.run(&clock, || sleep(ms(1))));
            let slow = s.spawn(|| rounds.run(&clock, || sleep(ms(4))));
            (fast.join().unwrap(), slow.join().unwrap())
        });
        assert_eq!(fast.len(), slow.len());
        assert!((5..=10).contains(&slow.len()), "{}", slow.len());
        // A connection that runs dry ends the rounds for both; the other
        // finishes the round it is in.
        let rounds = Rounds::new(2, Duration::from_secs(60));
        let (dry, other) = std::thread::scope(|s| {
            let dry = s.spawn(|| {
                let mut left = 3;
                rounds.run(&clock, || {
                    left -= 1;
                    (left >= 0).then_some(())
                })
            });
            let other = s.spawn(|| rounds.run(&clock, || Some(())));
            (dry.join().unwrap(), other.join().unwrap())
        });
        assert_eq!((dry.len(), other.len()), (3, 4));
    }

    #[test]
    fn closed_loop_stops_at_the_end_and_times_from_the_send() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let out = closed_loop(&clock, ms(10), || {
            clock.0.set(clock.0.get() + ms(3));
            Some(())
        });
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|(t, _)| t.latency() == ms(3) && t.due == t.sent));
    }
}
