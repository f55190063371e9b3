//! The green-thread scheduler and monitor table that both executors run on.
//!
//! [`Interp`](crate::Interp) and [`CompiledVm`](crate::CompiledVm) keep only
//! frame-level state: environments or slots, work stacks or pcs, call
//! frames and final environments. Everything that decides which thread
//! runs next lives here: the thread status table, the lock table, the
//! seeded RNG, quantum accounting, wake order, and deadlock and step-limit
//! handling. So do the operations that change that state (acquire,
//! release, wait, notify, join, fork and thread exit), and each of them
//! emits its own [`Event`]. Given the same program and [`SchedPolicy`],
//! the two executors make the same scheduling decisions by construction;
//! the compiled tier only changes the cost of a step.

use crate::event::{Event, EventSink, ObjId};
use crate::interp::{RunOutcome, RuntimeError};
use bigfoot_vc::Tid;

/// Scheduling policy for the green-thread scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Run each thread for `quantum` steps, then move to the next runnable
    /// thread in id order.
    RoundRobin {
        /// Steps per turn.
        quantum: u32,
    },
    /// After every step, switch to a pseudo-random runnable thread with
    /// probability `1/switch_inv` (seeded, deterministic). Good for
    /// exploring interleavings in race tests.
    Random {
        /// RNG seed.
        seed: u64,
        /// Inverse switch probability (1 = switch every step).
        switch_inv: u32,
    },
}

impl Default for SchedPolicy {
    fn default() -> Self {
        SchedPolicy::RoundRobin { quantum: 64 }
    }
}

/// The xorshift64* generator behind `Random` schedules and the seeded
/// program generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`, forced odd so the state is never 0.
    pub fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Unbiased draw from `0..n` (Lemire multiply-shift with rejection);
    /// `next_u64() % n` would over-select the low residues whenever `n` does
    /// not divide 2^64. `below(0)` is 0, like `below(1)`.
    pub fn below(&mut self, n: u64) -> u64 {
        let mut m = self.next_u64() as u128 * n as u128;
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = self.next_u64() as u128 * n as u128;
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

/// A thread's scheduling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    BlockedLock(ObjId),
    BlockedJoin(Tid),
    /// Parked in `wait(lock)` until a `notify` on the same monitor.
    WaitingNotify(ObjId),
    Done,
}

/// One monitor's owner and reentrancy count.
#[derive(Debug, Default, Clone)]
struct Monitor {
    owner: Option<Tid>,
    count: u32,
}

/// The thread table, lock table and RNG of one execution.
pub(crate) struct Sched {
    policy: SchedPolicy,
    rng: Rng,
    status: Vec<Status>,
    /// Lock table indexed by `ObjId` (object ids are allocation-ordered
    /// and dense).
    locks: Vec<Monitor>,
    steps: u64,
    max_steps: u64,
    context_switches: u64,
    /// Threads not yet `Done`: the run ends on `live == 0`.
    live: usize,
    /// Threads in `BlockedLock`. They wake when their lock is freed, so
    /// while any exist, releases must run one per scheduler step (the
    /// per-step `wake_blocked` timing is observable).
    blocked_lock: usize,
    /// Threads in `BlockedJoin`. They wake only when a thread exits. With
    /// both counters zero, `wake_blocked` has nothing to do.
    blocked_join: usize,
}

/// An executor the scheduler can drive: it owns a [`Sched`] and runs the
/// steps of the thread the scheduler picks.
pub(crate) trait Stepper {
    /// The executor's scheduler.
    fn sched(&mut self) -> &mut Sched;

    /// Runs one step of thread `t`.
    fn step<S: EventSink>(&mut self, t: Tid, sink: &mut S) -> Result<(), RuntimeError>;

    /// Runs up to `budget` steps of thread `t` that need no scheduling
    /// decision between them, and returns how many ran. Stopping early is
    /// always allowed: the scheduler runs the next step through
    /// [`Stepper::step`]. Only `RoundRobin` runs slices, because a
    /// `Random` schedule draws after every step.
    fn slice<S: EventSink>(
        &mut self,
        _t: Tid,
        _budget: u64,
        _sink: &mut S,
    ) -> (u64, Result<(), RuntimeError>) {
        (0, Ok(()))
    }

    /// Marks a context switch on the executor's trace timeline.
    fn switched() {}
}

impl Sched {
    /// A scheduler with the main thread runnable.
    pub(crate) fn new(policy: SchedPolicy) -> Sched {
        let seed = match policy {
            SchedPolicy::Random { seed, .. } => seed,
            _ => 0x9E3779B97F4A7C15,
        };
        Sched {
            policy,
            rng: Rng::new(seed),
            status: vec![Status::Runnable],
            locks: Vec::new(),
            steps: 0,
            max_steps: u64::MAX,
            context_switches: 0,
            live: 1,
            blocked_lock: 0,
            blocked_join: 0,
        }
    }

    pub(crate) fn set_max_steps(&mut self, max: u64) {
        self.max_steps = max;
    }

    /// Steps executed so far.
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    /// Context switches so far.
    pub(crate) fn context_switches(&self) -> u64 {
        self.context_switches
    }

    /// Threads created so far, including main.
    pub(crate) fn threads(&self) -> usize {
        self.status.len()
    }

    /// The summary of a completed run that allocated `heap_cells`.
    pub(crate) fn outcome(&self, heap_cells: u64) -> RunOutcome {
        RunOutcome {
            steps: self.steps,
            threads: self.status.len(),
            heap_cells,
        }
    }

    /// True while no thread is `BlockedLock`, so a release cannot wake
    /// anyone and may run inside a slice.
    #[inline]
    pub(crate) fn release_ok(&self) -> bool {
        self.blocked_lock == 0
    }

    #[inline]
    fn monitor(&mut self, lock: ObjId) -> &mut Monitor {
        let i = lock.0 as usize;
        if i >= self.locks.len() {
            self.locks.resize(i + 1, Monitor::default());
        }
        &mut self.locks[i]
    }

    #[inline]
    fn held_by(&mut self, t: Tid, lock: ObjId) -> Result<&mut Monitor, RuntimeError> {
        let m = self.monitor(lock);
        if m.owner != Some(t) || m.count == 0 {
            return Err(RuntimeError::IllegalRelease);
        }
        Ok(m)
    }

    /// `t` takes `lock` `count` times (1 for `acq`, the saved reentrancy
    /// count for the re-acquire after a notified `wait`) and emits the
    /// acquire. If another thread holds it, `t` blocks instead and
    /// returns false; the executor retries the same operation once woken.
    #[inline]
    pub(crate) fn acquire<S: EventSink>(
        &mut self,
        t: Tid,
        lock: ObjId,
        count: u32,
        sink: &mut S,
    ) -> bool {
        let m = self.monitor(lock);
        match m.owner {
            None => {
                m.owner = Some(t);
                m.count = count;
            }
            Some(owner) if owner == t => m.count += count,
            Some(_) => {
                self.status[t.index()] = Status::BlockedLock(lock);
                self.blocked_lock += 1;
                return false;
            }
        }
        sink.event(&Event::Acquire { t, lock });
        true
    }

    /// `t` releases `lock` once and emits the release.
    #[inline]
    pub(crate) fn release<S: EventSink>(
        &mut self,
        t: Tid,
        lock: ObjId,
        sink: &mut S,
    ) -> Result<(), RuntimeError> {
        let m = self.held_by(t, lock)?;
        m.count -= 1;
        if m.count == 0 {
            m.owner = None;
        }
        sink.event(&Event::Release { t, lock });
        Ok(())
    }

    /// `t` fully releases `lock`, emits the release and parks until a
    /// `notify`. Returns the reentrancy count to re-acquire with.
    pub(crate) fn wait<S: EventSink>(
        &mut self,
        t: Tid,
        lock: ObjId,
        sink: &mut S,
    ) -> Result<u32, RuntimeError> {
        let m = self.held_by(t, lock)?;
        let count = m.count;
        m.owner = None;
        m.count = 0;
        sink.event(&Event::Release { t, lock });
        self.status[t.index()] = Status::WaitingNotify(lock);
        Ok(count)
    }

    /// Wakes every waiter on `lock`, which `t` must hold (Java
    /// `notifyAll`). The waiters contend for the monitor once it is
    /// released.
    pub(crate) fn notify(&mut self, t: Tid, lock: ObjId) -> Result<(), RuntimeError> {
        self.held_by(t, lock)?;
        for s in &mut self.status {
            if *s == Status::WaitingNotify(lock) {
                *s = Status::BlockedLock(lock);
                self.blocked_lock += 1;
            }
        }
        Ok(())
    }

    /// `t` joins `target` and emits the join if `target` is done;
    /// otherwise `t` blocks and this returns false.
    pub(crate) fn join<S: EventSink>(&mut self, t: Tid, target: Tid, sink: &mut S) -> bool {
        if self.status[target.index()] == Status::Done {
            sink.event(&Event::Join {
                parent: t,
                child: target,
            });
            true
        } else {
            self.status[t.index()] = Status::BlockedJoin(target);
            self.blocked_join += 1;
            false
        }
    }

    /// Creates a runnable thread forked by `parent`, emits the fork and
    /// returns the child's id.
    pub(crate) fn fork<S: EventSink>(&mut self, parent: Tid, sink: &mut S) -> Tid {
        let child = Tid(self.status.len() as u32);
        self.status.push(Status::Runnable);
        self.live += 1;
        sink.event(&Event::Fork { parent, child });
        child
    }

    /// Retires `t`, whose root frame returned, and emits its exit.
    pub(crate) fn exit<S: EventSink>(&mut self, t: Tid, sink: &mut S) {
        self.status[t.index()] = Status::Done;
        self.live -= 1;
        sink.event(&Event::ThreadExit { t });
    }

    fn quantum(&self) -> u64 {
        match self.policy {
            SchedPolicy::RoundRobin { quantum } => quantum.max(1) as u64,
            SchedPolicy::Random { .. } => u64::MAX,
        }
    }

    /// Makes runnable every blocked thread whose condition now holds, in
    /// thread-id order. `WaitingNotify` is only released by `notify`.
    fn wake_blocked(&mut self) {
        for i in 0..self.status.len() {
            match self.status[i] {
                Status::BlockedLock(l) => {
                    let free = self
                        .locks
                        .get(l.0 as usize)
                        .is_none_or(|m| m.owner.is_none() || m.owner == Some(Tid(i as u32)));
                    if free {
                        self.status[i] = Status::Runnable;
                        self.blocked_lock -= 1;
                    }
                }
                Status::BlockedJoin(t) if self.status[t.index()] == Status::Done => {
                    self.status[i] = Status::Runnable;
                    self.blocked_join -= 1;
                }
                _ => {}
            }
        }
    }

    fn pick_next(&mut self, current: usize) -> Result<usize, RuntimeError> {
        let n = self.status.len();
        let runnable = |s: &Sched, i: usize| s.status[i] == Status::Runnable;
        match self.policy {
            // First runnable after `current`, wrapping to the lowest id.
            SchedPolicy::RoundRobin { .. } => (current + 1..n)
                .chain(0..n)
                .find(|&i| runnable(self, i))
                .ok_or(RuntimeError::Deadlock),
            // The k-th runnable thread for one draw of k.
            SchedPolicy::Random { .. } => {
                let count = (0..n).filter(|&i| runnable(self, i)).count();
                if count == 0 {
                    return Err(RuntimeError::Deadlock);
                }
                let k = self.rng.below(count as u64) as usize;
                Ok((0..n)
                    .filter(|&i| runnable(self, i))
                    .nth(k)
                    .expect("k-th runnable thread"))
            }
        }
    }
}

/// Runs `x` until every thread is done, streaming events into `sink`.
///
/// Before each step the scheduler wakes blocked threads, ends the run when
/// none is live, and picks the next thread when the current one cannot run
/// or its quantum is spent. `RoundRobin` hands the rest of a quantum to
/// [`Stepper::slice`] first; a `Random` schedule draws after every step
/// whether to switch.
///
/// # Errors
///
/// The first [`RuntimeError`] a step raises, [`RuntimeError::Deadlock`]
/// when every live thread is blocked, or
/// [`RuntimeError::StepLimitExceeded`] once the step count passes the
/// limit.
pub(crate) fn run<X: Stepper, S: EventSink>(x: &mut X, sink: &mut S) -> Result<(), RuntimeError> {
    let mut current = 0usize;
    let mut quantum_left = x.sched().quantum();
    let round_robin = matches!(x.sched().policy, SchedPolicy::RoundRobin { .. });
    loop {
        let sched = x.sched();
        if sched.blocked_lock + sched.blocked_join > 0 {
            sched.wake_blocked();
        }
        if sched.live == 0 {
            return Ok(());
        }
        if sched.status[current] != Status::Runnable || quantum_left == 0 {
            let next = sched.pick_next(current)?;
            if next != current {
                sched.context_switches += 1;
                X::switched();
            }
            current = next;
            quantum_left = sched.quantum();
        }
        let t = Tid(current as u32);
        if round_robin {
            let limit_budget = sched
                .max_steps
                .saturating_sub(sched.steps)
                .saturating_add(1);
            let (executed, slice) = x.slice(t, quantum_left.min(limit_budget), sink);
            let sched = x.sched();
            sched.steps += executed;
            quantum_left -= executed;
            slice?;
            if sched.steps > sched.max_steps {
                return Err(RuntimeError::StepLimitExceeded(sched.max_steps));
            }
            // A slice that blocked or retired the thread ends here; the
            // next pass wakes its joiners and picks another thread.
            if quantum_left == 0 || sched.status[current] != Status::Runnable {
                continue;
            }
        }
        x.step(t, sink)?;
        let sched = x.sched();
        sched.steps += 1;
        if sched.steps > sched.max_steps {
            return Err(RuntimeError::StepLimitExceeded(sched.max_steps));
        }
        quantum_left -= 1;
        if let SchedPolicy::Random { switch_inv, .. } = sched.policy {
            if switch_inv <= 1 || sched.rng.below(switch_inv as u64) == 0 {
                quantum_left = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RecordingSink;

    /// Asserts the counters equal a recount of the status table.
    #[track_caller]
    fn check(s: &Sched) {
        let count = |f: fn(&Status) -> bool| s.status.iter().filter(|x| f(x)).count();
        assert_eq!(s.live, count(|x| *x != Status::Done), "live");
        assert_eq!(
            s.blocked_lock,
            count(|x| matches!(x, Status::BlockedLock(_))),
            "blocked_lock"
        );
        assert_eq!(
            s.blocked_join,
            count(|x| matches!(x, Status::BlockedJoin(_))),
            "blocked_join"
        );
    }

    /// A scheduler with `n` threads (main plus `n - 1` forks).
    fn sched(n: usize, sink: &mut RecordingSink) -> Sched {
        let mut s = Sched::new(SchedPolicy::default());
        for _ in 1..n {
            s.fork(Tid(0), sink);
            check(&s);
        }
        s
    }

    const L: ObjId = ObjId(3);

    #[test]
    fn contended_acquire_then_release_and_wake() {
        let mut sink = RecordingSink::default();
        let mut s = sched(3, &mut sink);
        assert!(s.acquire(Tid(0), L, 1, &mut sink));
        check(&s);
        assert!(!s.acquire(Tid(1), L, 1, &mut sink));
        check(&s);
        assert!(!s.acquire(Tid(2), L, 1, &mut sink));
        check(&s);
        assert_eq!(s.blocked_lock, 2);
        s.wake_blocked();
        check(&s);
        assert_eq!(s.blocked_lock, 2, "a held lock wakes no one");
        s.release(Tid(0), L, &mut sink).unwrap();
        check(&s);
        s.wake_blocked();
        check(&s);
        assert_eq!(s.blocked_lock, 0);
        assert_eq!(s.status[1], Status::Runnable);
        assert_eq!(s.status[2], Status::Runnable);
        assert!(s.acquire(Tid(1), L, 1, &mut sink));
        check(&s);
        assert_eq!(
            s.release(Tid(2), L, &mut sink),
            Err(RuntimeError::IllegalRelease)
        );
        check(&s);
    }

    #[test]
    fn notify_turns_each_waiter_into_blocked_lock() {
        let mut sink = RecordingSink::default();
        let mut s = sched(4, &mut sink);
        for t in 1..4 {
            assert!(s.acquire(Tid(t), L, t, &mut sink));
            assert_eq!(s.wait(Tid(t), L, &mut sink), Ok(t));
            check(&s);
            assert_eq!(s.status[t as usize], Status::WaitingNotify(L));
        }
        assert!(s.acquire(Tid(0), L, 1, &mut sink));
        s.wake_blocked();
        check(&s);
        assert_eq!(s.blocked_lock, 0, "waiters are not woken by a scan");
        s.notify(Tid(0), L).unwrap();
        check(&s);
        assert_eq!(s.blocked_lock, 3);
        assert!(s.status[1..].iter().all(|x| *x == Status::BlockedLock(L)));
        s.release(Tid(0), L, &mut sink).unwrap();
        s.wake_blocked();
        check(&s);
        assert_eq!(s.blocked_lock, 0);
    }

    #[test]
    fn contended_reacquire_blocks_again() {
        let mut sink = RecordingSink::default();
        let mut s = sched(3, &mut sink);
        assert!(s.acquire(Tid(1), L, 1, &mut sink));
        assert!(s.acquire(Tid(1), L, 1, &mut sink));
        let count = s.wait(Tid(1), L, &mut sink).unwrap();
        assert_eq!(count, 2);
        assert!(s.acquire(Tid(0), L, 1, &mut sink));
        s.notify(Tid(0), L).unwrap();
        check(&s);
        // Thread 2 takes the monitor between the release and the waiter's
        // re-acquire, which blocks again.
        s.release(Tid(0), L, &mut sink).unwrap();
        s.wake_blocked();
        check(&s);
        assert!(s.acquire(Tid(2), L, 1, &mut sink));
        assert!(!s.acquire(Tid(1), L, count, &mut sink));
        check(&s);
        assert_eq!(s.status[1], Status::BlockedLock(L));
        s.release(Tid(2), L, &mut sink).unwrap();
        s.wake_blocked();
        check(&s);
        assert!(s.acquire(Tid(1), L, count, &mut sink));
        check(&s);
        // The saved count came back: two releases free the monitor.
        s.release(Tid(1), L, &mut sink).unwrap();
        s.release(Tid(1), L, &mut sink).unwrap();
        assert!(s.acquire(Tid(2), L, 1, &mut sink));
        check(&s);
    }

    #[test]
    fn join_on_live_then_done_thread_and_exit() {
        let mut sink = RecordingSink::default();
        let mut s = sched(3, &mut sink);
        assert!(!s.join(Tid(0), Tid(1), &mut sink));
        check(&s);
        assert!(!s.join(Tid(2), Tid(1), &mut sink));
        check(&s);
        assert_eq!(s.blocked_join, 2);
        s.wake_blocked();
        check(&s);
        assert_eq!(s.blocked_join, 2, "a live target wakes no one");
        s.exit(Tid(1), &mut sink);
        check(&s);
        s.wake_blocked();
        check(&s);
        assert_eq!(s.blocked_join, 0);
        assert!(s.join(Tid(0), Tid(1), &mut sink));
        check(&s);
        s.exit(Tid(2), &mut sink);
        check(&s);
        s.exit(Tid(0), &mut sink);
        check(&s);
        assert_eq!(s.live, 0);
        let joins = sink
            .events
            .iter()
            .filter(|e| matches!(e, Event::Join { .. }))
            .count();
        assert_eq!(joins, 1, "only the completed join emits an event");
    }

    #[test]
    fn below_is_in_range_and_below_zero_is_zero() {
        let mut r = Rng::new(7);
        for n in 1..50u64 {
            assert!(r.below(n) < n);
        }
        assert_eq!(r.below(0), 0);
    }
}
