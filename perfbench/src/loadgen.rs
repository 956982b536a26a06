//! Wall-clock open-loop load generator over `Server::submit_classed`.
//!
//! One sender thread (the caller's) sends each request at its scheduled
//! instant from a seeded Poisson schedule, whether or not earlier requests
//! have been answered. One collector thread waits on the `Ticket`s in send
//! order and stamps each answer when its `wait` returns.
//!
//! Timing error of the collector: it polls the oldest pending ticket for
//! up to [`POLL`] before blocking on it, so an answer that arrives within
//! that window is stamped within one poll (well under a microsecond) and
//! a later one pays the collector's wake-up from the blocking `wait`. An
//! answer that resolves while the collector still waits on an earlier-sent
//! ticket is stamped when that earlier ticket resolves; it is late by at
//! most the residual service time of the earlier request (the queue is
//! FIFO within a class, so with `w` workers only the `w - 1` requests sent
//! just before can still be in service). Stamps are never early, so the
//! percentiles are upper bounds.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::RngExt;
use semrec_core::AgentId;
use semrec_serve::{Priority, ServeError, ServedResponse, Server, Ticket};

/// How long the collector polls a ticket before blocking on it.
pub const POLL: Duration = Duration::from_millis(2);

/// Recommendations asked for per request.
pub const TOP_N: usize = 10;

/// One request of an open-loop run.
#[derive(Debug)]
pub struct Outcome {
    /// The target agent.
    pub agent: AgentId,
    /// When the request was due to be sent.
    pub scheduled: Instant,
    /// When the sender actually submitted it.
    pub sent: Instant,
    /// When its answer (or refusal) was observed.
    pub done: Instant,
    /// Server queue depth sampled just before the send.
    pub queue_depth: usize,
    /// Server epoch sampled just before the send.
    pub epoch_at_send: u64,
    /// The answer; `None` when the request was refused or failed.
    pub response: Option<ServedResponse>,
}

impl Outcome {
    /// Response time from the scheduled send, in milliseconds. A refused
    /// or failed request misses every latency limit: infinite.
    pub fn latency_ms(&self) -> f64 {
        match self.response {
            Some(_) => (self.done - self.scheduled).as_secs_f64() * 1e3,
            None => f64::INFINITY,
        }
    }

    /// How late the sender ran against the schedule, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent
            .saturating_duration_since(self.scheduled)
            .as_secs_f64()
            * 1e3
    }
}

/// Send offsets of `count` Poisson arrivals at `rate` per second.
pub fn poisson_schedule(rate: f64, count: usize, rng: &mut StdRng) -> Vec<Duration> {
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.random();
            at += -(1.0 - u).ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// Sends `(offset, agent)` arrivals to `server` on schedule and returns
/// one [`Outcome`] per arrival, in send order.
pub fn run(server: &Server, arrivals: &[(Duration, AgentId)]) -> Vec<Outcome> {
    let (tx, rx) = mpsc::channel::<(Outcome, Option<Ticket>)>();
    thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut outcomes = Vec::with_capacity(arrivals.len());
            for (mut outcome, ticket) in rx {
                if let Some(ticket) = ticket {
                    outcome.response = collect(ticket).ok();
                    outcome.done = Instant::now();
                }
                outcomes.push(outcome);
            }
            outcomes
        });
        // A short lead so the first arrival is not already late.
        let start = Instant::now() + Duration::from_millis(5);
        for &(offset, agent) in arrivals {
            let scheduled = start + offset;
            let now = Instant::now();
            if scheduled > now {
                thread::sleep(scheduled - now);
            }
            let queue_depth = server.queue_depth();
            let epoch_at_send = server.epoch();
            let sent = Instant::now();
            let ticket = server
                .submit_classed(agent, TOP_N, Priority::Normal, None)
                .ok();
            let outcome = Outcome {
                agent,
                scheduled,
                sent,
                done: sent,
                queue_depth,
                epoch_at_send,
                response: None,
            };
            tx.send((outcome, ticket))
                .expect("collector outlives the sender");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    })
}

/// Polls `ticket` for up to [`POLL`], yielding between polls, then blocks.
fn collect(ticket: Ticket) -> Result<ServedResponse, ServeError> {
    let until = Instant::now() + POLL;
    while Instant::now() < until {
        if let Some(result) = ticket.try_wait() {
            return result;
        }
        thread::yield_now();
    }
    ticket.wait()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn schedule_is_seeded_increasing_and_at_rate() {
        let a = poisson_schedule(100.0, 2000, &mut StdRng::seed_from_u64(1));
        let b = poisson_schedule(100.0, 2000, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let span = a.last().unwrap().as_secs_f64();
        assert!(
            (span - 20.0).abs() < 2.0,
            "2000 arrivals at 100/s span ~20 s: {span}"
        );
    }
}
