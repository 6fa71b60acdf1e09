//! The simulation driver.
//!
//! [`Simulator`] owns the clock and the event queue and drives a
//! caller-supplied handler. The handler receives a mutable scheduling context
//! so it can schedule follow-up events; the clock only moves forward.

use crate::queue::EventQueue;
use crate::time::{Duration, SimTime};

/// Why a [`Simulator::run_until`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The event queue drained completely.
    QueueEmpty,
    /// The time horizon was reached before the queue drained.
    HorizonReached,
    /// The event budget was exhausted.
    EventBudgetExhausted,
    /// The handler requested a stop via [`Simulator::request_stop`].
    Stopped,
}

/// A discrete-event simulator over events of type `E`.
///
/// The simulator is intentionally minimal: it is a clock plus a deterministic
/// event queue. All domain behaviour lives in the event handler closure,
/// which keeps the kernel reusable and trivially testable.
///
/// # Example
///
/// ```
/// use bt_des::{Duration, SimTime, Simulator, StopReason};
///
/// let mut sim = Simulator::new();
/// sim.schedule(SimTime::ZERO, ());
/// let reason = sim.run_until(SimTime::from_secs(10.0), u64::MAX, |sim, _t, ()| {
///     // Re-arm forever; the horizon stops us.
///     sim.schedule_in(Duration::from_secs(1.0), ());
/// });
/// assert_eq!(reason, StopReason::HorizonReached);
/// assert_eq!(sim.now(), SimTime::from_secs(10.0));
/// ```
pub struct Simulator<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    stop_requested: bool,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates a simulator with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Simulator {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            stop_requested: false,
        }
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time: the clock
    /// is monotone and scheduling into the past is always a logic error.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        self.queue.push(at, event);
    }

    /// Schedules `event` after a relative delay from the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Asks the run loop to stop after the current event handler returns.
    pub fn request_stop(&mut self) {
        self.stop_requested = true;
    }

    /// Runs until the queue is empty.
    ///
    /// Returns the [`StopReason`] (always [`StopReason::QueueEmpty`] unless
    /// the handler requested a stop).
    pub fn run<F>(&mut self, handler: F) -> StopReason
    where
        F: FnMut(&mut Simulator<E>, SimTime, E),
    {
        self.run_until(SimTime::MAX, u64::MAX, handler)
    }

    /// Runs until the queue drains, `horizon` is reached, `max_events` have
    /// been processed, or the handler requests a stop — whichever is first.
    ///
    /// When the horizon terminates the run, the clock is advanced to exactly
    /// `horizon`; events scheduled beyond it remain queued.
    pub fn run_until<F>(&mut self, horizon: SimTime, max_events: u64, mut handler: F) -> StopReason
    where
        F: FnMut(&mut Simulator<E>, SimTime, E),
    {
        let _span = tracing::debug_span!(target: "bt_des", "sim.run").entered();
        self.stop_requested = false;
        let reason = loop {
            if self.stop_requested {
                break StopReason::Stopped;
            }
            if self.processed >= max_events {
                break StopReason::EventBudgetExhausted;
            }
            let Some(next_time) = self.queue.peek_time() else {
                break StopReason::QueueEmpty;
            };
            if next_time > horizon {
                self.now = horizon;
                break StopReason::HorizonReached;
            }
            let (time, event) = self.queue.pop().expect("peeked entry must pop");
            self.now = time;
            self.processed += 1;
            tracing::trace!(
                target: "bt_des::event",
                time = time.as_secs(),
                pending = self.queue.len();
                "dispatch"
            );
            handler(self, time, event);
        };
        tracing::debug!(
            target: "bt_des",
            processed = self.processed,
            pending = self.queue.len(),
            reason = format!("{reason:?}");
            "run finished"
        );
        reason
    }
}

impl<E> std::fmt::Debug for Simulator<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_events_in_order() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_secs(2.0), "second");
        sim.schedule(SimTime::from_secs(1.0), "first");
        let mut seen = Vec::new();
        let reason = sim.run(|_, t, e| seen.push((t.as_secs(), e)));
        assert_eq!(reason, StopReason::QueueEmpty);
        assert_eq!(seen, vec![(1.0, "first"), (2.0, "second")]);
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::ZERO, 0u32);
        let mut count = 0;
        sim.run(|sim, _, n| {
            count += 1;
            if n < 9 {
                sim.schedule_in(Duration::from_secs(1.0), n + 1);
            }
        });
        assert_eq!(count, 10);
        assert_eq!(sim.now(), SimTime::from_secs(9.0));
        assert_eq!(sim.processed, 10);
    }

    #[test]
    fn horizon_stops_and_sets_clock() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_secs(1.0), ());
        sim.schedule(SimTime::from_secs(100.0), ());
        let reason = sim.run_until(SimTime::from_secs(50.0), u64::MAX, |_, _, ()| {});
        assert_eq!(reason, StopReason::HorizonReached);
        assert_eq!(sim.now(), SimTime::from_secs(50.0));
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn event_budget_stops() {
        let mut sim = Simulator::new();
        for i in 0..10 {
            sim.schedule(SimTime::from_secs(f64::from(i)), i);
        }
        let reason = sim.run_until(SimTime::MAX, 3, |_, _, _| {});
        assert_eq!(reason, StopReason::EventBudgetExhausted);
        assert_eq!(sim.processed, 3);
        assert_eq!(sim.pending(), 7);
    }

    #[test]
    fn request_stop_halts_loop() {
        let mut sim = Simulator::new();
        for i in 0..10 {
            sim.schedule(SimTime::from_secs(f64::from(i)), i);
        }
        sim.run(|sim, _, i| {
            if i == 4 {
                sim.request_stop();
            }
        });
        assert_eq!(sim.processed, 5);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_secs(5.0), ());
        sim.run(|sim, _, ()| {
            sim.schedule(SimTime::from_secs(1.0), ());
        });
    }

    #[test]
    fn horizon_event_at_exact_horizon_runs() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_secs(5.0), ());
        let mut ran = false;
        let reason = sim.run_until(SimTime::from_secs(5.0), u64::MAX, |_, _, ()| ran = true);
        assert!(ran, "event at the horizon itself must execute");
        assert_eq!(reason, StopReason::QueueEmpty);
    }

    #[test]
    fn stop_flag_resets_between_runs() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::ZERO, 0);
        sim.run(|sim, _, _| sim.request_stop());
        sim.schedule_in(Duration::from_secs(1.0), 1);
        let reason = sim.run(|_, _, _| {});
        assert_eq!(reason, StopReason::QueueEmpty);
    }
}
