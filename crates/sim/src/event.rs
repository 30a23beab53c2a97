//! The event queue: a time-ordered priority queue with FIFO tie-breaking.
//!
//! Determinism contract: events scheduled for the same instant are delivered
//! in the order they were scheduled. This is achieved with a monotonically
//! increasing sequence number as the secondary sort key, so the queue's
//! behaviour never depends on `BinaryHeap`'s unspecified ordering of equal
//! elements.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event with its delivery time, as returned by [`EventQueue::pop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Scheduling sequence number (global per queue; earlier = scheduled first).
    pub seq: u64,
    /// The caller's payload.
    pub event: E,
}

/// Internal heap entry — ordered so the `BinaryHeap` max-heap pops the
/// *earliest* (time, seq) first.
struct Entry<E>(ScheduledEvent<E>);

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smallest (at, seq) is the heap maximum.
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// The queue tracks the current simulated clock: [`EventQueue::pop`] advances
/// the clock to the delivered event's timestamp, and scheduling into the past
/// is rejected (it would make the simulation non-causal).
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    delivered: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            delivered: 0,
        }
    }

    /// The current simulated clock (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events delivered so far.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Schedule `event` for delivery at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "EventQueue::schedule: event at {at} is before current clock {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry(ScheduledEvent { at, seq, event }));
    }

    /// Deliver the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is exhausted (the simulation is over).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry(ev) = self.heap.pop()?;
        debug_assert!(ev.at >= self.now, "event queue went backwards in time");
        self.now = ev.at;
        self.delivered += 1;
        Some((ev.at, ev.event))
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("delivered", &self.delivered)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_tie_breaking() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
        assert_eq!(q.delivered(), 1);
    }

    #[test]
    #[should_panic(expected = "before current clock")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 1);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        // Schedule relative to the new clock.
        q.schedule(t + Duration::from_nanos(5), 2);
        q.schedule(t + Duration::from_nanos(1), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.is_empty());
    }
}
