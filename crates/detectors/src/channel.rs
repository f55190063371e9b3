//! Bounded single-producer / single-consumer channel: the batch ring
//! the online pipeline ([`crate::pipeline`]) hands event batches over,
//! and returns drained batches through.
//!
//! The ring is a `Mutex<VecDeque<T>>` with one condition variable per
//! direction. Each side takes the lock a few times per batch, not per
//! event, and never holds it for long; a side that cannot progress
//! sleeps on its condition
//! variable until the other side moves. Stall episodes are tallied by
//! the caller and bracketed by `pipeline.push_wait` / `pipeline.pop_wait`
//! flight-recorder spans.
//!
//! End-of-stream protocol:
//!
//! * [`Ring::close`] — producer is done. A consumer seeing `closed`
//!   *and* an empty ring gets `None` from [`Ring::pop`].
//! * [`Ring::mark_dead`] — consumer unwound. A producer seeing `dead`
//!   drops the item instead of waiting on a ring nobody will ever
//!   drain; [`Ring::push`] reports the drop so accounting stays honest
//!   ([`DeadOnUnwind`] arms this from the consumer's stack frame).

use bigfoot_obs::trace::{self, LazyTraceName};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// What the lock guards: the queued items plus both end-of-stream flags
/// and the sleeper counts, so every state change and the wakeup it
/// owes happen under one lock and no wakeup is lost.
struct State<T> {
    items: VecDeque<T>,
    /// Set by the producer after its final push; a consumer seeing
    /// `closed` *and* an empty ring is done.
    closed: bool,
    /// Set when the consumer unwinds; a producer seeing `dead` stops
    /// pushing (nobody will ever drain the ring again).
    dead: bool,
    /// Threads asleep in [`Ring::pop`] / [`Ring::push`]; a side notifies
    /// only when the other is actually waiting.
    pop_waiters: u32,
    push_waiters: u32,
}

/// Bounded SPSC ring of `T` (event batches, recycled empty batches).
pub struct Ring<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    /// Signalled when an item arrives or the ring closes.
    not_empty: Condvar,
    /// Signalled when an item leaves or the ring dies.
    not_full: Condvar,
}

static PUSH_WAIT: LazyTraceName = LazyTraceName::new("pipeline.push_wait");
static POP_WAIT: LazyTraceName = LazyTraceName::new("pipeline.pop_wait");

/// RAII bracket for one backpressure episode: `begin` fires iff tracing
/// was enabled when the wait started, and the paired `end` is emitted
/// from `Drop` on *every* exit path — early dead-ring bail-out, success,
/// or an unwind through the wait loop — so B/E spans stay balanced per
/// track no matter when the recorder is toggled (`trace::end` records
/// unconditionally by design; the guard remembers whether it began).
struct WaitSpan {
    name: &'static LazyTraceName,
    traced: bool,
}

impl WaitSpan {
    fn begin(name: &'static LazyTraceName) -> WaitSpan {
        let traced = trace::enabled();
        if traced {
            trace::begin(name);
        }
        WaitSpan { name, traced }
    }
}

impl Drop for WaitSpan {
    fn drop(&mut self) {
        if self.traced {
            trace::end(self.name);
        }
    }
}

impl<T> Ring<T> {
    /// A ring with `slots` capacity, rounded up to a power of two,
    /// minimum 2.
    pub fn new(slots: usize) -> Ring<T> {
        let capacity = slots.max(2).next_power_of_two();
        Ring {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                dead: false,
                pop_waiters: 0,
                push_waiters: 0,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The state lock. A thread that panicked while holding it cannot
    /// have left the queue half-updated (every critical section is a
    /// single `VecDeque` call or flag store), so poisoning is ignored.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends `item` under the lock and wakes a sleeping consumer.
    fn enqueue(&self, state: &mut State<T>, item: T) {
        state.items.push_back(item);
        if state.pop_waiters > 0 {
            self.not_empty.notify_one();
        }
    }

    /// Takes the oldest item under the lock and wakes a sleeping
    /// producer.
    fn dequeue(&self, state: &mut State<T>) -> Option<T> {
        let item = state.items.pop_front()?;
        if state.push_waiters > 0 {
            self.not_full.notify_one();
        }
        Some(item)
    }

    /// Producer side: non-blocking. Returns the item back on a full ring.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        if state.items.len() == self.capacity {
            return Err(item);
        }
        self.enqueue(&mut state, item);
        Ok(())
    }

    /// Producer side: blocking with backpressure. `stalls` counts the
    /// episodes (not the wakeups) where a full ring made the producer
    /// wait. Returns `true` iff the ring accepted the item: if the
    /// consumer has died the item is dropped instead of waiting on a
    /// ring nobody will drain, and the caller must tally the drop
    /// rather than the handoff (the consumer's panic surfaces at
    /// `join()`).
    #[must_use = "a false return means the item was dropped on a dead ring"]
    pub fn push(&self, item: T, stalls: &mut u64) -> bool {
        let mut state = self.lock();
        let mut wait: Option<WaitSpan> = None;
        loop {
            if state.dead {
                return false;
            }
            if state.items.len() < self.capacity {
                self.enqueue(&mut state, item);
                return true;
            }
            if wait.is_none() {
                *stalls += 1;
                wait = Some(WaitSpan::begin(&PUSH_WAIT));
            }
            state.push_waiters += 1;
            state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
            state.push_waiters -= 1;
        }
    }

    /// Consumer side: non-blocking.
    pub fn try_pop(&self) -> Option<T> {
        self.dequeue(&mut self.lock())
    }

    /// Consumer side: blocking. `None` means the producer closed the
    /// ring and everything has been drained. `stalls` counts empty-ring
    /// waits.
    pub fn pop(&self, stalls: &mut u64) -> Option<T> {
        let mut state = self.lock();
        let mut wait: Option<WaitSpan> = None;
        loop {
            if let Some(item) = self.dequeue(&mut state) {
                return Some(item);
            }
            // `closed` and the queue are read under one lock, and the
            // producer closes only after its final push, so an empty
            // closed ring is truly done.
            if state.closed {
                return None;
            }
            if wait.is_none() {
                *stalls += 1;
                wait = Some(WaitSpan::begin(&POP_WAIT));
            }
            state.pop_waiters += 1;
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
            state.pop_waiters -= 1;
        }
    }

    /// Producer is done; pending items remain poppable.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Consumer will never drain again; future pushes drop.
    pub fn mark_dead(&self) {
        self.lock().dead = true;
        self.not_full.notify_all();
    }

    /// Items currently in flight (for depth telemetry).
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }
}

/// Marks the ring dead if the holding (consumer) thread unwinds, so the
/// producer bails out of its push loop instead of waiting forever and
/// the panic surfaces at `join()`. Harmless on the normal-return path:
/// the producer has already closed the ring by the time the consumer's
/// drain loop exits, so nothing is pushed after the drop.
pub struct DeadOnUnwind<'r, T>(pub &'r Ring<T>);

impl<T> Drop for DeadOnUnwind<'_, T> {
    fn drop(&mut self) {
        self.0.mark_dead();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity_rounding() {
        let ring: Ring<u64> = Ring::new(3);
        assert_eq!(ring.capacity(), 4);
        for i in 0..4u64 {
            ring.try_push(i).expect("room");
        }
        assert!(ring.try_push(99).is_err(), "full ring rejects");
        for i in 0..4u64 {
            assert_eq!(ring.try_pop(), Some(i));
        }
        assert_eq!(ring.try_pop(), None);
    }

    #[test]
    fn pop_drains_pending_items_after_close() {
        let ring: Ring<u32> = Ring::new(2);
        let mut stalls = 0;
        assert!(ring.push(7, &mut stalls));
        ring.close();
        assert_eq!(ring.pop(&mut stalls), Some(7));
        assert_eq!(ring.pop(&mut stalls), None);
        assert_eq!(stalls, 0);
    }

    #[test]
    fn push_reports_drops_on_a_dead_ring() {
        // The producer must learn the item was dropped — PR 7's
        // accounting fix counts only accepted handoffs.
        let ring: Ring<String> = Ring::new(2);
        ring.mark_dead();
        let mut stalls = 0;
        assert!(!ring.push("lost".into(), &mut stalls));
        assert_eq!(stalls, 0, "a dead ring fails fast, it does not stall");
        assert_eq!(ring.try_pop(), None, "dropped items are never published");
    }

    #[test]
    fn generic_close_race_never_drops_the_final_item() {
        // Same close-race discipline the event pipeline pins, exercised
        // through the generic ring with a non-event payload.
        for round in 0..100 {
            let ring: Ring<Vec<usize>> = Ring::new(2);
            let items = 3 + (round % 4);
            let consumed = std::thread::scope(|scope| {
                let consumer = scope.spawn(|| {
                    let mut stalls = 0u64;
                    let mut total = 0usize;
                    while let Some(batch) = ring.pop(&mut stalls) {
                        total += batch.len();
                    }
                    total
                });
                let mut stalls = 0u64;
                for _ in 0..items {
                    assert!(ring.push(vec![0usize; 5], &mut stalls));
                    std::hint::spin_loop();
                }
                ring.close();
                consumer.join().expect("consumer")
            });
            assert_eq!(consumed, items * 5, "round {round} lost items");
        }
    }

    /// Waits until `waiting` reports a thread asleep on the ring, so the
    /// wakeup under test really reaches a blocked thread.
    fn until_asleep<T>(ring: &Ring<T>, waiting: fn(&State<T>) -> u32) {
        while waiting(&ring.lock()) == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn close_wakes_a_consumer_blocked_on_an_empty_ring() {
        // Even rounds close a consumer already asleep in `pop`; odd
        // rounds race the close against the consumer going to sleep.
        // Either way `pop` must return `None` — a lost wakeup hangs.
        for round in 0..200 {
            let ring: Ring<u32> = Ring::new(2);
            let stalls = std::thread::scope(|scope| {
                let consumer = scope.spawn(|| {
                    let mut stalls = 0u64;
                    assert_eq!(ring.pop(&mut stalls), None, "round {round}");
                    stalls
                });
                if round % 2 == 0 {
                    until_asleep(&ring, |s| s.pop_waiters);
                }
                ring.close();
                consumer.join().expect("consumer")
            });
            if round % 2 == 0 {
                assert_eq!(stalls, 1, "round {round}: one wait episode");
            }
        }
    }

    #[test]
    fn mark_dead_releases_a_producer_blocked_on_a_full_ring() {
        // Same two interleavings on the producer side: a push waiting on
        // a full ring must give up, and report the drop, once the
        // consumer dies.
        for round in 0..200 {
            let ring: Ring<u32> = Ring::new(2);
            ring.try_push(1).expect("room");
            ring.try_push(2).expect("room");
            let (accepted, stalls) = std::thread::scope(|scope| {
                let producer = scope.spawn(|| {
                    let mut stalls = 0u64;
                    (ring.push(3, &mut stalls), stalls)
                });
                if round % 2 == 0 {
                    until_asleep(&ring, |s| s.push_waiters);
                }
                ring.mark_dead();
                producer.join().expect("producer")
            });
            assert!(!accepted, "round {round}: a dead ring drops the item");
            if round % 2 == 0 {
                assert_eq!(stalls, 1, "round {round}: one wait episode");
            }
            assert_eq!(ring.depth(), 2, "round {round}: the drop is never queued");
        }
    }
}
