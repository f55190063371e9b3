//! The register-bytecode virtual machine.
//!
//! [`CompiledVm`] mirrors [`Interp`](crate::Interp)'s public surface and
//! — deliberately, line for line — its green-thread scheduler: the same
//! quantum accounting, the same xorshift64* generator and Lemire
//! `rand_below` rejection loop drawn in the same sequence, the same
//! `wake_blocked` scan order and deadlock/step-limit behavior. One
//! bytecode instruction is one scheduler step, so a compiled execution
//! is the *same* execution as the interpreted one; only the cost per
//! step changes (slot indexing instead of `HashMap` hashing, pre-bound
//! field/method tables instead of name lookups, flat register ops
//! instead of `Box<Expr>` recursion).

use super::lower::{
    CExpr, CPath, CallTarget, CompiledMethod, CompiledProgram, EOp, ExprId, Instr, Operand, SlotId,
};
use crate::ast::{Binop, Unop};
use crate::event::{CheckTarget, ConcreteRange, Event, EventSink, Loc, ObjId};
use crate::interp::{as_bool, as_int, Env, Heap, RunOutcome, RuntimeError, SchedPolicy, Value};
use crate::sym::Sym;
use bigfoot_vc::{AccessKind, Tid};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    BlockedLock(ObjId),
    BlockedJoin(Tid),
    WaitingNotify(ObjId),
    Done,
}

/// One activation record: resolved slots instead of a `HashMap` env, a
/// pc instead of a work stack.
struct VmFrame {
    method: u32,
    pc: u32,
    /// Slot in the *caller* receiving the return value.
    ret_dst: Option<SlotId>,
    /// Pending monitor re-acquire after a notified `wait` — the
    /// bytecode analogue of the interpreter's `Work::Reacquire` item.
    reacquire: Option<(ObjId, u32)>,
    slots: Box<[Value]>,
    /// Init bitmask: a read of an unset slot is an unbound variable,
    /// exactly like a missing env entry.
    init: Box<[u64]>,
}

impl VmFrame {
    fn fresh(method: u32, m: &CompiledMethod, ret_dst: Option<SlotId>) -> VmFrame {
        let n = m.n_slots as usize;
        VmFrame {
            method,
            pc: m.entry,
            ret_dst,
            reacquire: None,
            slots: vec![Value::Int(0); n].into_boxed_slice(),
            init: vec![0u64; n.div_ceil(64)].into_boxed_slice(),
        }
    }

    /// Recycles a pooled frame for a call — or allocates a fresh one if
    /// the pool is empty or its top has the wrong slot count. Clearing
    /// the init bitmask alone resets a frame, because every slot read
    /// is gated on `init`; stale `slots` contents are unreachable.
    fn reuse(
        pool: &mut Vec<VmFrame>,
        method: u32,
        m: &CompiledMethod,
        ret_dst: Option<SlotId>,
    ) -> VmFrame {
        let n = m.n_slots as usize;
        if let Some(mut f) = pool.pop() {
            if f.slots.len() == n {
                f.method = method;
                f.pc = m.entry;
                f.ret_dst = ret_dst;
                f.reacquire = None;
                f.init.fill(0);
                return f;
            }
        }
        VmFrame::fresh(method, m, ret_dst)
    }

    #[inline(always)]
    fn is_init(&self, s: SlotId) -> bool {
        self.init[(s >> 6) as usize] >> (s & 63) & 1 != 0
    }

    #[inline(always)]
    fn set(&mut self, s: SlotId, v: Value) {
        self.slots[s as usize] = v;
        self.init[(s >> 6) as usize] |= 1 << (s & 63);
    }

    #[inline]
    fn name(&self, prog: &CompiledProgram, s: SlotId) -> Sym {
        prog.methods[self.method as usize].slot_names[s as usize]
    }

    #[inline(always)]
    fn get(&self, prog: &CompiledProgram, s: SlotId) -> Result<Value, RuntimeError> {
        if self.is_init(s) {
            Ok(self.slots[s as usize])
        } else {
            Err(unbound_var(prog, self, s))
        }
    }

    #[inline(always)]
    fn get_obj(&self, prog: &CompiledProgram, s: SlotId) -> Result<ObjId, RuntimeError> {
        match self.get(prog, s)? {
            Value::Obj(o) => Ok(o),
            other => Err(slot_type_error(prog, self, s, other, "an object")),
        }
    }

    #[inline(always)]
    fn get_arr(
        &self,
        prog: &CompiledProgram,
        s: SlotId,
    ) -> Result<crate::event::ArrId, RuntimeError> {
        match self.get(prog, s)? {
            Value::Arr(a) => Ok(a),
            other => Err(slot_type_error(prog, self, s, other, "an array")),
        }
    }
}

/// Cold, outlined error constructors: slot reads sit on every hot
/// instruction path, and keeping `format!` out of line keeps the
/// register pressure of the dispatch loop down. Messages are exactly
/// the interpreter's.
#[cold]
#[inline(never)]
fn unbound_var(prog: &CompiledProgram, frame: &VmFrame, s: SlotId) -> RuntimeError {
    RuntimeError::UnboundVar(frame.name(prog, s).as_str().to_owned())
}

#[cold]
#[inline(never)]
fn slot_type_error(
    prog: &CompiledProgram,
    frame: &VmFrame,
    s: SlotId,
    found: Value,
    wanted: &str,
) -> RuntimeError {
    RuntimeError::TypeError(format!(
        "`{}` is {found}, expected {wanted}",
        frame.name(prog, s)
    ))
}

struct VmThread {
    frames: Vec<VmFrame>,
    status: Status,
}

#[derive(Debug, Default, Clone)]
struct VmLock {
    owner: Option<Tid>,
    count: u32,
}

/// Dense lock table keyed by `ObjId` (object ids are allocation-ordered
/// and dense, so a `Vec` replaces the interpreter's `HashMap`).
#[inline]
fn lock_mut(locks: &mut Vec<VmLock>, obj: ObjId) -> &mut VmLock {
    let i = obj.0 as usize;
    if i >= locks.len() {
        locks.resize(i + 1, VmLock::default());
    }
    &mut locks[i]
}

/// How a [`CompiledVm::run_slice`] inner dispatch loop ended: the arms
/// that mutate the frame stack hand the mutation out here so it runs
/// once the top-frame borrow is dead.
enum SliceExit {
    /// `call`: push this callee and continue the slice in it.
    Call(VmFrame),
    /// `ret`: pop the top frame; it returned this value.
    Ret(Value),
    /// An instruction the scheduler must run via [`CompiledVm::step`].
    Cold,
}

/// Executes a [`CompiledProgram`], streaming events into an
/// [`EventSink`] — byte-identical to interpreting the source program.
///
/// # Examples
///
/// ```
/// use bigfoot_bfj::{compile, parse_program, CompiledVm, NullSink, SchedPolicy};
///
/// let p = parse_program("main { x = 1 + 2; }")?;
/// let compiled = compile(&p);
/// let outcome = CompiledVm::new(&compiled, SchedPolicy::default()).run(&mut NullSink)?;
/// assert_eq!(outcome.steps, 2); // assign + frame return, same as Interp
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct CompiledVm<'p> {
    prog: &'p CompiledProgram,
    heap: Heap,
    threads: Vec<VmThread>,
    final_envs: Vec<Option<Env>>,
    locks: Vec<VmLock>,
    policy: SchedPolicy,
    rng: u64,
    steps: u64,
    max_steps: u64,
    /// Shared scratch register file for `CExpr::Ops` (green threads:
    /// only one thread evaluates at a time).
    regs: Vec<Value>,
    /// Threads not yet `Done`. The run loop terminates on `live == 0`,
    /// which is exactly the interpreter's all-`Done` scan without paying
    /// O(threads) per step.
    live: usize,
    /// Threads in `BlockedLock` — they wake on *lock-state* changes, so
    /// while any exist, lock instructions must run one per scheduler
    /// step (the per-step `wake_blocked` timing is observable) and the
    /// slice executor refuses them.
    blocked_lock: usize,
    /// Threads in `BlockedJoin` — they wake only on `Done` transitions,
    /// which always end a slice, so they don't restrict the slice.
    /// `wake_blocked` can act exactly on these two statuses: when both
    /// counters are zero the scan is a no-op and the run loop skips it;
    /// the scan *order* is unchanged whenever it does run, keeping
    /// scheduling byte-identical.
    blocked_join: usize,
    /// Recycled frames: `call` pops one here instead of allocating its
    /// slot arrays, and `ret` pushes the popped frame back, keeping
    /// steady-state method calls allocation-free.
    pool: Vec<VmFrame>,
}

impl<'p> CompiledVm<'p> {
    /// Creates a VM positioned at the start of `main`.
    pub fn new(prog: &'p CompiledProgram, policy: SchedPolicy) -> Self {
        let root = VmFrame::fresh(0, &prog.methods[0], None);
        let seed = match policy {
            SchedPolicy::Random { seed, .. } => seed | 1,
            _ => 0x9E3779B97F4A7C15,
        };
        CompiledVm {
            prog,
            heap: Heap::default(),
            threads: vec![VmThread {
                frames: vec![root],
                status: Status::Runnable,
            }],
            final_envs: vec![None],
            locks: Vec::new(),
            policy,
            rng: seed,
            steps: 0,
            max_steps: u64::MAX,
            regs: vec![Value::Int(0); prog.max_regs as usize],
            live: 1,
            blocked_lock: 0,
            blocked_join: 0,
            pool: Vec::new(),
        }
    }

    /// Caps the number of VM steps; exceeding it is an error.
    pub fn with_max_steps(mut self, max: u64) -> Self {
        self.max_steps = max;
        self
    }

    /// The shared heap (for inspecting program results in tests).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The final environment of a completed thread's root frame,
    /// reconstructed from its slots (same contents as
    /// [`Interp::final_env`](crate::Interp::final_env)).
    pub fn final_env(&self, t: Tid) -> Option<&Env> {
        self.final_envs.get(t.index())?.as_ref()
    }

    fn rand(&mut self) -> u64 {
        // xorshift64* — must match the interpreter bit for bit.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn rand_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let mut m = self.rand() as u128 * n as u128;
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = self.rand() as u128 * n as u128;
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Runs the program to completion, streaming events into `sink`.
    ///
    /// # Errors
    ///
    /// Returns the first [`RuntimeError`] raised by any thread, a
    /// [`RuntimeError::Deadlock`] if all live threads block, or
    /// [`RuntimeError::StepLimitExceeded`] — at the same step, with the
    /// same event prefix, as the interpreter would.
    pub fn run<S: EventSink>(&mut self, sink: &mut S) -> Result<RunOutcome, RuntimeError> {
        let _trace = bigfoot_obs::trace_span!("vm.run");
        let mut current = 0usize;
        let mut quantum_left = self.quantum();
        let mut context_switches = 0u64;
        let round_robin = matches!(self.policy, SchedPolicy::RoundRobin { .. });
        let run_result = loop {
            // `wake_blocked` only acts on `BlockedLock`/`BlockedJoin`
            // threads and the all-`Done` scan is `live == 0`, so both
            // per-step scans reduce to counter tests on the hot path.
            if self.blocked_lock + self.blocked_join > 0 {
                self.wake_blocked();
            }
            if self.live == 0 {
                break Ok(());
            }
            if self.threads[current].status != Status::Runnable || quantum_left == 0 {
                let next = match self.pick_next(current) {
                    Ok(n) => n,
                    Err(e) => break Err(e),
                };
                if next != current {
                    context_switches += 1;
                    bigfoot_obs::trace_instant!("vm.switch");
                }
                current = next;
                quantum_left = self.quantum();
            }
            // Burn the quantum in one slice of single-thread
            // instructions (round-robin draws no randomness per step,
            // so skipping the per-step scheduler bookkeeping is
            // invisible). A step that needs the full machine — or a
            // slice error — falls through to the general
            // one-instruction path below.
            if round_robin {
                let lock_ok = self.blocked_lock == 0;
                let limit_budget = self.max_steps.saturating_sub(self.steps).saturating_add(1);
                let (executed, slice) = self.run_slice(
                    Tid(current as u32),
                    quantum_left.min(limit_budget),
                    lock_ok,
                    sink,
                );
                self.steps += executed;
                quantum_left -= executed;
                if let Err(e) = slice {
                    break Err(e);
                }
                if self.steps > self.max_steps {
                    break Err(RuntimeError::StepLimitExceeded(self.max_steps));
                }
                // A root `ret` inside the slice retires the thread: go
                // wake its joiners and pick the next one instead of
                // handing a `Done` thread to `step`.
                if quantum_left == 0 || self.threads[current].status != Status::Runnable {
                    continue;
                }
            }
            if let Err(e) = self.step(Tid(current as u32), sink) {
                break Err(e);
            }
            self.steps += 1;
            if self.steps > self.max_steps {
                break Err(RuntimeError::StepLimitExceeded(self.max_steps));
            }
            quantum_left -= 1;
            if let SchedPolicy::Random { switch_inv, .. } = self.policy {
                if switch_inv <= 1 || self.rand_below(switch_inv as u64) == 0 {
                    quantum_left = 0;
                }
            }
        };
        bigfoot_obs::count!("vm.runs");
        bigfoot_obs::count!("vm.steps", self.steps);
        bigfoot_obs::count!("vm.context_switches", context_switches);
        bigfoot_obs::count!("vm.threads", self.threads.len());
        run_result?;
        Ok(RunOutcome {
            steps: self.steps,
            threads: self.threads.len(),
            heap_cells: self.heap.cells,
        })
    }

    fn quantum(&self) -> u64 {
        match self.policy {
            SchedPolicy::RoundRobin { quantum } => quantum.max(1) as u64,
            SchedPolicy::Random { .. } => u64::MAX,
        }
    }

    fn wake_blocked(&mut self) {
        for i in 0..self.threads.len() {
            match self.threads[i].status {
                Status::BlockedLock(l) => {
                    let free = self
                        .locks
                        .get(l.0 as usize)
                        .is_none_or(|s| s.owner.is_none() || s.owner == Some(Tid(i as u32)));
                    if free {
                        self.threads[i].status = Status::Runnable;
                        self.blocked_lock -= 1;
                    }
                }
                Status::BlockedJoin(t) if self.threads[t.index()].status == Status::Done => {
                    self.threads[i].status = Status::Runnable;
                    self.blocked_join -= 1;
                }
                _ => {}
            }
        }
    }

    fn pick_next(&mut self, current: usize) -> Result<usize, RuntimeError> {
        let n = self.threads.len();
        match self.policy {
            // First runnable after `current`, wrapping to the lowest
            // index — the same choice as scanning a materialized
            // runnable list, without allocating it.
            SchedPolicy::RoundRobin { .. } => (current + 1..n)
                .chain(0..n)
                .find(|&i| self.threads[i].status == Status::Runnable)
                .ok_or(RuntimeError::Deadlock),
            // One `rand_below(count)` draw over the same count as
            // before, so the generator sequence is unchanged.
            SchedPolicy::Random { .. } => {
                let count = (0..n)
                    .filter(|&i| self.threads[i].status == Status::Runnable)
                    .count();
                if count == 0 {
                    return Err(RuntimeError::Deadlock);
                }
                let k = self.rand_below(count as u64) as usize;
                Ok((0..n)
                    .filter(|&i| self.threads[i].status == Status::Runnable)
                    .nth(k)
                    .expect("k-th runnable thread"))
            }
        }
    }

    /// Re-acquires the monitor a notified `wait` released (or re-blocks
    /// if it is contended) — the cold pre-instruction step.
    fn reacquire_step<S: EventSink>(
        &mut self,
        t: Tid,
        lock: ObjId,
        count: u32,
        sink: &mut S,
    ) -> Result<(), RuntimeError> {
        let ti = t.index();
        let state = lock_mut(&mut self.locks, lock);
        match state.owner {
            None => {
                state.owner = Some(t);
                state.count = count;
                self.threads[ti].frames.last_mut().expect("frame").reacquire = None;
                sink.event(&Event::Acquire { t, lock });
            }
            Some(owner) if owner == t => unreachable!("waiter cannot hold the lock"),
            Some(_) => {
                self.threads[ti].status = Status::BlockedLock(lock);
                self.blocked_lock += 1;
            }
        }
        Ok(())
    }

    /// Executes up to `budget` consecutive instructions of `t` that
    /// need at most the current thread — the frame-local arms, `call`
    /// and `ret` (which only touch this thread's own frame stack),
    /// and, when `lock_ok` certifies that no thread is `BlockedLock`,
    /// uncontended lock acquires and releases — in a tight loop that
    /// keeps the frame borrow live across steps instead of re-entering
    /// the scheduler per step.
    ///
    /// None of the admitted instructions can wake another thread
    /// (blocking arms and `fork`/`join`/`wait`/`notify` exit the
    /// slice; a root `ret` marks this thread `Done` — the only
    /// transition a `BlockedJoin` thread wakes on — and ends the slice
    /// immediately), so with `lock_ok` established at entry,
    /// `wake_blocked`, the termination scan, and `pick_next` are all
    /// provably no-ops for the whole slice; the caller settles quantum
    /// and step accounting from the returned count. While some thread
    /// *is* blocked on a lock, lock instructions stay cold, because
    /// their per-step wake timing is observable (a thread woken by one
    /// release can re-block on the very next step if the slice
    /// re-acquires). Stops early (without error)
    /// at the first instruction that needs the full machine — or a
    /// pending monitor re-acquire — which the caller runs through
    /// [`CompiledVm::step`]. Dispatches through the same `exec_*`
    /// bodies and lock/call logic as `step`, so a slice raises errors
    /// and emits events byte-identically to stepping.
    fn run_slice<S: EventSink>(
        &mut self,
        t: Tid,
        budget: u64,
        lock_ok: bool,
        sink: &mut S,
    ) -> (u64, Result<(), RuntimeError>) {
        let prog = self.prog;
        let CompiledVm {
            heap,
            threads,
            locks,
            regs,
            final_envs,
            live,
            pool,
            ..
        } = self;
        let thread = &mut threads[t.index()];
        let mut executed = 0u64;
        'frames: while executed < budget {
            let Some(frame) = thread.frames.last_mut() else {
                break;
            };
            if frame.reacquire.is_some() {
                break;
            }
            // The top frame stays borrowed across this inner loop; the
            // arms that change the frame stack hand a `SliceExit` back
            // out so the push/pop runs once the borrow is dead.
            let exit = loop {
                if executed >= budget {
                    break 'frames;
                }
                let r = match &prog.code[frame.pc as usize] {
                    Instr::Skip { next } => {
                        frame.pc = *next;
                        Ok(())
                    }
                    Instr::Assign { dst, e, next } => {
                        exec_assign(prog, heap, regs, frame, *dst, *e, *next)
                    }
                    Instr::Rename { fresh, old, next } => {
                        exec_rename(frame, *fresh, *old, *next);
                        Ok(())
                    }
                    Instr::Branch {
                        cond,
                        then_pc,
                        else_pc,
                    } => exec_branch(prog, heap, regs, frame, *cond, *then_pc, *else_pc),
                    Instr::LoopEnter { head } => {
                        frame.pc = *head;
                        Ok(())
                    }
                    Instr::LoopJunction { exit, body, done } => {
                        exec_loop_junction(prog, heap, regs, frame, *exit, *body, *done)
                    }
                    Instr::New {
                        dst,
                        class,
                        name,
                        next,
                    } => exec_new(prog, heap, frame, sink, t, *dst, *class, *name, *next),
                    Instr::NewArray { dst, len, next } => {
                        exec_new_array(prog, heap, regs, frame, sink, t, *dst, *len, *next)
                    }
                    Instr::ReadField {
                        dst,
                        obj,
                        site,
                        next,
                    } => exec_read_field(prog, heap, frame, sink, t, *dst, *obj, *site, *next),
                    Instr::WriteField {
                        obj,
                        site,
                        src,
                        next,
                    } => exec_write_field(prog, heap, frame, sink, t, *obj, *site, *src, *next),
                    Instr::ReadArr {
                        dst,
                        arr,
                        idx,
                        next,
                    } => exec_read_arr(prog, heap, regs, frame, sink, t, *dst, *arr, *idx, *next),
                    Instr::WriteArr {
                        arr,
                        idx,
                        src,
                        next,
                    } => exec_write_arr(prog, heap, regs, frame, sink, t, *arr, *idx, *src, *next),
                    Instr::Check { site, next } => {
                        exec_check(prog, heap, regs, frame, sink, t, *site, *next)
                    }
                    Instr::Acquire { lock, next } if lock_ok => {
                        let obj = match frame.get_obj(prog, *lock) {
                            Ok(o) => o,
                            Err(e) => return (executed, Err(e)),
                        };
                        let state = lock_mut(locks, obj);
                        match state.owner {
                            None => {
                                state.owner = Some(t);
                                state.count = 1;
                            }
                            Some(owner) if owner == t => state.count += 1,
                            // Contended: `step` blocks the thread, so
                            // nothing is consumed here.
                            Some(_) => break SliceExit::Cold,
                        }
                        sink.event(&Event::Acquire { t, lock: obj });
                        frame.pc = *next;
                        Ok(())
                    }
                    Instr::Release { lock, next } if lock_ok => {
                        let obj = match frame.get_obj(prog, *lock) {
                            Ok(o) => o,
                            Err(e) => return (executed, Err(e)),
                        };
                        let state = lock_mut(locks, obj);
                        if state.owner != Some(t) || state.count == 0 {
                            return (executed, Err(RuntimeError::IllegalRelease));
                        }
                        state.count -= 1;
                        if state.count == 0 {
                            state.owner = None;
                        }
                        sink.event(&Event::Release { t, lock: obj });
                        frame.pc = *next;
                        Ok(())
                    }
                    Instr::Call { dst, site, next } => {
                        match build_frame(prog, heap, pool, frame, *site, Some(*dst)) {
                            Ok(callee) => {
                                frame.pc = *next;
                                break SliceExit::Call(callee);
                            }
                            Err(e) => return (executed, Err(e)),
                        }
                    }
                    Instr::Ret { expr } => {
                        let v = match expr {
                            Some(e) => match eval(prog, heap, frame, regs, *e) {
                                Ok(v) => v,
                                Err(e) => return (executed, Err(e)),
                            },
                            None => Value::Int(0),
                        };
                        break SliceExit::Ret(v);
                    }
                    // Thread-table instructions — and lock instructions
                    // while some other thread is blocked — need the
                    // full scheduler: hand back without consuming.
                    Instr::Acquire { .. }
                    | Instr::Release { .. }
                    | Instr::Fork { .. }
                    | Instr::Join { .. }
                    | Instr::Wait { .. }
                    | Instr::Notify { .. } => break SliceExit::Cold,
                };
                if let Err(e) = r {
                    return (executed, Err(e));
                }
                executed += 1;
            };
            match exit {
                SliceExit::Call(callee) => {
                    thread.frames.push(callee);
                    executed += 1;
                }
                SliceExit::Ret(v) => {
                    let popped = thread.frames.pop().expect("frame");
                    executed += 1;
                    if let Some(caller) = thread.frames.last_mut() {
                        if let Some(dst) = popped.ret_dst {
                            caller.set(dst, v);
                        }
                        pool.push(popped);
                    } else {
                        // Thread root completed: record its env, mark
                        // it `Done`, and end the slice — the caller's
                        // next scan wakes any joiners, exactly as when
                        // `step` runs the `ret`.
                        final_envs[t.index()] = Some(build_env(prog, &popped));
                        pool.push(popped);
                        thread.status = Status::Done;
                        *live -= 1;
                        sink.event(&Event::ThreadExit { t });
                        break 'frames;
                    }
                }
                SliceExit::Cold => break 'frames,
            }
        }
        (executed, Ok(()))
    }

    /// Executes one instruction (= one interpreter work item) of `t`.
    fn step<S: EventSink>(&mut self, t: Tid, sink: &mut S) -> Result<(), RuntimeError> {
        let prog = self.prog;
        let ti = t.index();
        // One frame lookup per step: the hot arms below reuse this
        // `&mut` borrow; arms that need the whole thread table (call,
        // fork, join, ret) re-index, which NLL permits because `frame`
        // is dead on those paths.
        let Some(frame) = self.threads[ti].frames.last_mut() else {
            self.threads[ti].status = Status::Done;
            self.live -= 1;
            return Ok(());
        };
        if let Some((lock, count)) = frame.reacquire {
            return self.reacquire_step(t, lock, count, sink);
        }
        match &prog.code[frame.pc as usize] {
            Instr::Skip { next } => {
                frame.pc = *next;
                Ok(())
            }
            Instr::Assign { dst, e, next } => {
                exec_assign(prog, &self.heap, &mut self.regs, frame, *dst, *e, *next)
            }
            Instr::Rename { fresh, old, next } => {
                exec_rename(frame, *fresh, *old, *next);
                Ok(())
            }
            Instr::Branch {
                cond,
                then_pc,
                else_pc,
            } => exec_branch(
                prog,
                &self.heap,
                &mut self.regs,
                frame,
                *cond,
                *then_pc,
                *else_pc,
            ),
            Instr::LoopEnter { head } => {
                frame.pc = *head;
                Ok(())
            }
            Instr::LoopJunction { exit, body, done } => {
                exec_loop_junction(prog, &self.heap, &mut self.regs, frame, *exit, *body, *done)
            }
            Instr::Acquire { lock, next } => {
                let obj = frame.get_obj(prog, *lock)?;
                let state = lock_mut(&mut self.locks, obj);
                match state.owner {
                    None => {
                        state.owner = Some(t);
                        state.count = 1;
                        sink.event(&Event::Acquire { t, lock: obj });
                        frame.pc = *next;
                    }
                    Some(owner) if owner == t => {
                        state.count += 1;
                        sink.event(&Event::Acquire { t, lock: obj });
                        frame.pc = *next;
                    }
                    // Retry this same instruction once woken.
                    Some(_) => {
                        self.threads[ti].status = Status::BlockedLock(obj);
                        self.blocked_lock += 1;
                    }
                }
                Ok(())
            }
            Instr::Release { lock, next } => {
                let obj = frame.get_obj(prog, *lock)?;
                let state = lock_mut(&mut self.locks, obj);
                if state.owner != Some(t) || state.count == 0 {
                    return Err(RuntimeError::IllegalRelease);
                }
                state.count -= 1;
                if state.count == 0 {
                    state.owner = None;
                }
                sink.event(&Event::Release { t, lock: obj });
                frame.pc = *next;
                Ok(())
            }
            Instr::New {
                dst,
                class,
                name,
                next,
            } => exec_new(
                prog,
                &mut self.heap,
                frame,
                sink,
                t,
                *dst,
                *class,
                *name,
                *next,
            ),
            Instr::NewArray { dst, len, next } => exec_new_array(
                prog,
                &mut self.heap,
                &mut self.regs,
                frame,
                sink,
                t,
                *dst,
                *len,
                *next,
            ),
            Instr::ReadField {
                dst,
                obj,
                site,
                next,
            } => exec_read_field(prog, &self.heap, frame, sink, t, *dst, *obj, *site, *next),
            Instr::WriteField {
                obj,
                site,
                src,
                next,
            } => exec_write_field(
                prog,
                &mut self.heap,
                frame,
                sink,
                t,
                *obj,
                *site,
                *src,
                *next,
            ),
            Instr::ReadArr {
                dst,
                arr,
                idx,
                next,
            } => exec_read_arr(
                prog,
                &self.heap,
                &mut self.regs,
                frame,
                sink,
                t,
                *dst,
                *arr,
                *idx,
                *next,
            ),
            Instr::WriteArr {
                arr,
                idx,
                src,
                next,
            } => exec_write_arr(
                prog,
                &mut self.heap,
                &mut self.regs,
                frame,
                sink,
                t,
                *arr,
                *idx,
                *src,
                *next,
            ),
            Instr::Call { dst, site, next } => {
                let callee =
                    build_frame(prog, &self.heap, &mut self.pool, frame, *site, Some(*dst))?;
                frame.pc = *next;
                self.threads[ti].frames.push(callee);
                Ok(())
            }
            Instr::Fork { dst, site, next } => {
                let callee = build_frame(prog, &self.heap, &mut self.pool, frame, *site, None)?;
                let child = Tid(self.threads.len() as u32);
                self.threads.push(VmThread {
                    frames: vec![callee],
                    status: Status::Runnable,
                });
                self.final_envs.push(None);
                self.live += 1;
                let frame = self.threads[ti].frames.last_mut().expect("frame");
                frame.set(*dst, Value::Thread(child));
                frame.pc = *next;
                sink.event(&Event::Fork { parent: t, child });
                Ok(())
            }
            Instr::Join { t: tslot, next } => {
                let target = match frame.get(prog, *tslot)? {
                    Value::Thread(x) => x,
                    other => {
                        return Err(RuntimeError::TypeError(format!(
                            "`{}` is {other}, expected a thread handle",
                            frame.name(prog, *tslot)
                        )))
                    }
                };
                if self.threads[target.index()].status == Status::Done {
                    sink.event(&Event::Join {
                        parent: t,
                        child: target,
                    });
                    self.threads[ti].frames.last_mut().expect("frame").pc = *next;
                } else {
                    // Retry this same instruction once woken.
                    self.threads[ti].status = Status::BlockedJoin(target);
                    self.blocked_join += 1;
                }
                Ok(())
            }
            Instr::Wait { lock, next } => {
                let obj = frame.get_obj(prog, *lock)?;
                let state = lock_mut(&mut self.locks, obj);
                if state.owner != Some(t) || state.count == 0 {
                    return Err(RuntimeError::IllegalRelease);
                }
                // Fully release the monitor, park, and re-acquire (with
                // the saved reentrancy count) after the notify.
                let count = state.count;
                state.owner = None;
                state.count = 0;
                sink.event(&Event::Release { t, lock: obj });
                frame.reacquire = Some((obj, count));
                frame.pc = *next;
                // `WaitingNotify` is not wakeable by `wake_blocked`;
                // `Notify` converts it to `BlockedLock` (which is).
                self.threads[ti].status = Status::WaitingNotify(obj);
                Ok(())
            }
            Instr::Notify { lock, next } => {
                let obj = frame.get_obj(prog, *lock)?;
                let state = lock_mut(&mut self.locks, obj);
                if state.owner != Some(t) || state.count == 0 {
                    return Err(RuntimeError::IllegalRelease);
                }
                frame.pc = *next;
                // Wake every waiter (Java notifyAll); they contend for
                // the monitor once it is released.
                for th in &mut self.threads {
                    if th.status == Status::WaitingNotify(obj) {
                        th.status = Status::BlockedLock(obj);
                        self.blocked_lock += 1;
                    }
                }
                Ok(())
            }
            Instr::Check { site, next } => exec_check(
                prog,
                &self.heap,
                &mut self.regs,
                frame,
                sink,
                t,
                *site,
                *next,
            ),
            Instr::Ret { expr } => {
                let v = match expr {
                    Some(e) => eval(prog, &self.heap, frame, &mut self.regs, *e)?,
                    None => Value::Int(0),
                };
                let popped = self.threads[ti].frames.pop().expect("frame");
                if let Some(caller) = self.threads[ti].frames.last_mut() {
                    if let Some(dst) = popped.ret_dst {
                        caller.set(dst, v);
                    }
                } else {
                    // Thread root completed.
                    self.final_envs[ti] = Some(build_env(prog, &popped));
                    self.threads[ti].status = Status::Done;
                    self.live -= 1;
                    sink.event(&Event::ThreadExit { t });
                }
                self.pool.push(popped);
                Ok(())
            }
        }
    }
}

/// Builds the callee frame for a `call`/`fork` site: receiver and
/// method resolution, arity check, then argument binding — in the
/// interpreter's exact error order. The callee recycles a frame from
/// `pool` when one fits.
fn build_frame(
    prog: &CompiledProgram,
    heap: &Heap,
    pool: &mut Vec<VmFrame>,
    frame: &VmFrame,
    site: u32,
    ret_dst: Option<SlotId>,
) -> Result<VmFrame, RuntimeError> {
    let site = &prog.call_sites[site as usize];
    let o = frame.get_obj(prog, site.recv)?;
    let class = heap.object(o).class;
    let m_id = match site.by_class[class] {
        CallTarget::Method(m) => m,
        CallTarget::Arity { expected } => {
            return Err(RuntimeError::TypeError(format!(
                "method `{}` expects {expected} arguments, got {}",
                site.meth,
                site.args.len()
            )))
        }
        CallTarget::Unknown => {
            return Err(RuntimeError::UnknownName(format!(
                "method `{}` in class `{}`",
                site.meth, prog.classes[class].name
            )))
        }
    };
    let m = &prog.methods[m_id as usize];
    let mut callee = VmFrame::reuse(pool, m_id, m, ret_dst);
    callee.set(m.this_slot, Value::Obj(o));
    for (&p, &a) in m.params.iter().zip(site.args.iter()) {
        let v = frame.get(prog, a)?;
        callee.set(p, v);
    }
    Ok(callee)
}

/// The frame-local instruction bodies below are shared between
/// [`CompiledVm::step`] (one instruction under the full scheduler) and
/// [`CompiledVm::run_slice`] (a quantum's worth without re-entering the
/// scheduler), so both dispatch sites execute identical semantics.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn exec_assign(
    prog: &CompiledProgram,
    heap: &Heap,
    regs: &mut [Value],
    frame: &mut VmFrame,
    dst: SlotId,
    e: ExprId,
    next: u32,
) -> Result<(), RuntimeError> {
    let v = eval(prog, heap, frame, regs, e)?;
    frame.set(dst, v);
    frame.pc = next;
    Ok(())
}

#[inline(always)]
fn exec_rename(frame: &mut VmFrame, fresh: SlotId, old: SlotId, next: u32) {
    // A rename may precede the variable's first assignment; default to
    // 0, like the interpreter.
    let v = if frame.is_init(old) {
        frame.slots[old as usize]
    } else {
        Value::Int(0)
    };
    frame.set(fresh, v);
    frame.pc = next;
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn exec_branch(
    prog: &CompiledProgram,
    heap: &Heap,
    regs: &mut [Value],
    frame: &mut VmFrame,
    cond: ExprId,
    then_pc: u32,
    else_pc: u32,
) -> Result<(), RuntimeError> {
    let b = as_bool(eval(prog, heap, frame, regs, cond)?)?;
    frame.pc = if b { then_pc } else { else_pc };
    Ok(())
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn exec_loop_junction(
    prog: &CompiledProgram,
    heap: &Heap,
    regs: &mut [Value],
    frame: &mut VmFrame,
    exit: ExprId,
    body: u32,
    done: u32,
) -> Result<(), RuntimeError> {
    let b = as_bool(eval(prog, heap, frame, regs, exit)?)?;
    frame.pc = if b { done } else { body };
    Ok(())
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn exec_new<S: EventSink>(
    prog: &CompiledProgram,
    heap: &mut Heap,
    frame: &mut VmFrame,
    sink: &mut S,
    t: Tid,
    dst: SlotId,
    class: Option<u32>,
    name: Sym,
    next: u32,
) -> Result<(), RuntimeError> {
    let Some(ci) = class else {
        return Err(RuntimeError::UnknownName(format!("class `{name}`")));
    };
    let nfields = prog.classes[ci as usize].nfields as usize;
    let obj = heap.alloc_object(ci as usize, nfields);
    frame.set(dst, Value::Obj(obj));
    frame.pc = next;
    sink.event(&Event::AllocObj {
        t,
        obj,
        class: ci,
        fields: nfields as u32,
    });
    Ok(())
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn exec_new_array<S: EventSink>(
    prog: &CompiledProgram,
    heap: &mut Heap,
    regs: &mut [Value],
    frame: &mut VmFrame,
    sink: &mut S,
    t: Tid,
    dst: SlotId,
    len: ExprId,
    next: u32,
) -> Result<(), RuntimeError> {
    let n = as_int(eval(prog, heap, frame, regs, len)?)?;
    let arr = heap.alloc_array(n)?;
    frame.set(dst, Value::Arr(arr));
    frame.pc = next;
    sink.event(&Event::AllocArr {
        t,
        arr,
        len: n as u64,
    });
    Ok(())
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn exec_read_field<S: EventSink>(
    prog: &CompiledProgram,
    heap: &Heap,
    frame: &mut VmFrame,
    sink: &mut S,
    t: Tid,
    dst: SlotId,
    obj: SlotId,
    site: u32,
    next: u32,
) -> Result<(), RuntimeError> {
    let o = frame.get_obj(prog, obj)?;
    let class = heap.object(o).class;
    let (fi, volatile) = field_res(prog, site, class)?;
    let v = heap.object(o).fields[fi as usize];
    frame.set(dst, v);
    frame.pc = next;
    if volatile {
        sink.event(&Event::VolatileRead {
            t,
            obj: o,
            field: fi,
        });
    } else {
        sink.event(&Event::Access {
            t,
            kind: AccessKind::Read,
            loc: Loc::Field(o, fi),
        });
    }
    Ok(())
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn exec_write_field<S: EventSink>(
    prog: &CompiledProgram,
    heap: &mut Heap,
    frame: &mut VmFrame,
    sink: &mut S,
    t: Tid,
    obj: SlotId,
    site: u32,
    src: SlotId,
    next: u32,
) -> Result<(), RuntimeError> {
    let o = frame.get_obj(prog, obj)?;
    let class = heap.object(o).class;
    let (fi, volatile) = field_res(prog, site, class)?;
    let v = frame.get(prog, src)?;
    heap.objects[o.0 as usize].fields[fi as usize] = v;
    frame.pc = next;
    if volatile {
        sink.event(&Event::VolatileWrite {
            t,
            obj: o,
            field: fi,
        });
    } else {
        sink.event(&Event::Access {
            t,
            kind: AccessKind::Write,
            loc: Loc::Field(o, fi),
        });
    }
    Ok(())
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn exec_read_arr<S: EventSink>(
    prog: &CompiledProgram,
    heap: &Heap,
    regs: &mut [Value],
    frame: &mut VmFrame,
    sink: &mut S,
    t: Tid,
    dst: SlotId,
    arr: SlotId,
    idx: ExprId,
    next: u32,
) -> Result<(), RuntimeError> {
    let a = frame.get_arr(prog, arr)?;
    let i = as_int(eval(prog, heap, frame, regs, idx)?)?;
    let len = heap.array(a).data.len();
    if i < 0 || i as usize >= len {
        return Err(RuntimeError::IndexOutOfBounds {
            array: a,
            index: i,
            len,
        });
    }
    let v = heap.array(a).data[i as usize];
    frame.set(dst, v);
    frame.pc = next;
    sink.event(&Event::Access {
        t,
        kind: AccessKind::Read,
        loc: Loc::Elem(a, i),
    });
    Ok(())
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn exec_write_arr<S: EventSink>(
    prog: &CompiledProgram,
    heap: &mut Heap,
    regs: &mut [Value],
    frame: &mut VmFrame,
    sink: &mut S,
    t: Tid,
    arr: SlotId,
    idx: ExprId,
    src: SlotId,
    next: u32,
) -> Result<(), RuntimeError> {
    let a = frame.get_arr(prog, arr)?;
    let i = as_int(eval(prog, heap, frame, regs, idx)?)?;
    let v = frame.get(prog, src)?;
    let len = heap.array(a).data.len();
    if i < 0 || i as usize >= len {
        return Err(RuntimeError::IndexOutOfBounds {
            array: a,
            index: i,
            len,
        });
    }
    heap.arrays[a.0 as usize].data[i as usize] = v;
    frame.pc = next;
    sink.event(&Event::Access {
        t,
        kind: AccessKind::Write,
        loc: Loc::Elem(a, i),
    });
    Ok(())
}

/// Resolves and emits one `check` statement's paths.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn exec_check<S: EventSink>(
    prog: &CompiledProgram,
    heap: &Heap,
    regs: &mut [Value],
    frame: &mut VmFrame,
    sink: &mut S,
    t: Tid,
    site: u32,
    next: u32,
) -> Result<(), RuntimeError> {
    let site = &prog.check_sites[site as usize];
    let mut resolved = Vec::with_capacity(site.paths.len());
    for p in site.paths.iter() {
        match p {
            CPath::Fields { kind, base, fields } => {
                let o = frame.get_obj(prog, *base)?;
                let class = heap.object(o).class;
                let mut idxs = Vec::with_capacity(fields.len());
                for &fsid in fields.iter() {
                    let (fi, _) = field_res(prog, fsid, class)?;
                    idxs.push(fi);
                }
                resolved.push((*kind, CheckTarget::Fields(o, idxs)));
            }
            CPath::Arr {
                kind,
                base,
                lo,
                hi,
                step,
            } => {
                let a = frame.get_arr(prog, *base)?;
                let lo = as_int(eval(prog, heap, frame, regs, *lo)?)?;
                let hi = as_int(eval(prog, heap, frame, regs, *hi)?)?;
                resolved.push((
                    *kind,
                    CheckTarget::Range(
                        a,
                        ConcreteRange {
                            lo,
                            hi,
                            step: *step,
                        },
                    ),
                ));
            }
        }
    }
    sink.event(&Event::Check { t, paths: resolved });
    frame.pc = next;
    Ok(())
}

/// Resolves a field site against a run-time class, with the
/// interpreter's exact unknown-field message.
#[inline(always)]
fn field_res(prog: &CompiledProgram, site: u32, class: usize) -> Result<(u32, bool), RuntimeError> {
    let fs = &prog.field_sites[site as usize];
    match fs.by_class[class] {
        Some(r) => Ok(r),
        None => Err(unknown_field(prog, site, class)),
    }
}

#[cold]
#[inline(never)]
fn unknown_field(prog: &CompiledProgram, site: u32, class: usize) -> RuntimeError {
    let fs = &prog.field_sites[site as usize];
    RuntimeError::UnknownName(format!(
        "field `{}` in class `{}`",
        fs.field, prog.classes[class].name
    ))
}

/// Reconstructs an interpreter-style [`Env`] from a root frame's slots
/// (for `final_env`).
fn build_env(prog: &CompiledProgram, frame: &VmFrame) -> Env {
    let names = &prog.methods[frame.method as usize].slot_names;
    let mut env = Env::default();
    for (i, name) in names.iter().enumerate() {
        if frame.is_init(i as SlotId) {
            env.insert(*name, frame.slots[i]);
        }
    }
    env
}

#[inline(always)]
fn load(prog: &CompiledProgram, frame: &VmFrame, a: Operand) -> Result<Value, RuntimeError> {
    match a {
        Operand::Const(v) => Ok(v),
        Operand::Slot(s) => frame.get(prog, s),
    }
}

#[inline(always)]
fn arr_len(
    prog: &CompiledProgram,
    heap: &Heap,
    frame: &VmFrame,
    s: SlotId,
) -> Result<Value, RuntimeError> {
    match frame.get(prog, s)? {
        Value::Arr(id) => Ok(Value::Int(heap.array(id).data.len() as i64)),
        other => Err(slot_type_error(prog, frame, s, other, "an array")),
    }
}

#[inline(always)]
fn apply_un(op: Unop, v: Value) -> Result<Value, RuntimeError> {
    Ok(match op {
        Unop::Neg => Value::Int(as_int(v)?.wrapping_neg()),
        Unop::Not => Value::Bool(!as_bool(v)?),
    })
}

/// Applies a binary operator with the recursive evaluator's exact
/// semantics: wrapping arithmetic, divisor checked before dividend,
/// whole-`Value` equality, and `&&`/`||` short-circuiting the *type
/// check* of the right operand (both operands are always evaluated).
#[inline(always)]
fn apply_bin(op: Binop, va: Value, vb: Value) -> Result<Value, RuntimeError> {
    Ok(match op {
        Binop::Add => Value::Int(as_int(va)?.wrapping_add(as_int(vb)?)),
        Binop::Sub => Value::Int(as_int(va)?.wrapping_sub(as_int(vb)?)),
        Binop::Mul => Value::Int(as_int(va)?.wrapping_mul(as_int(vb)?)),
        Binop::Div => {
            let d = as_int(vb)?;
            if d == 0 {
                return Err(RuntimeError::DivisionByZero);
            }
            Value::Int(as_int(va)?.wrapping_div(d))
        }
        Binop::Mod => {
            let d = as_int(vb)?;
            if d == 0 {
                return Err(RuntimeError::DivisionByZero);
            }
            Value::Int(as_int(va)?.wrapping_rem(d))
        }
        Binop::Eq => Value::Bool(va == vb),
        Binop::Ne => Value::Bool(va != vb),
        Binop::Lt => Value::Bool(as_int(va)? < as_int(vb)?),
        Binop::Le => Value::Bool(as_int(va)? <= as_int(vb)?),
        Binop::Gt => Value::Bool(as_int(va)? > as_int(vb)?),
        Binop::Ge => Value::Bool(as_int(va)? >= as_int(vb)?),
        Binop::And => Value::Bool(as_bool(va)? && as_bool(vb)?),
        Binop::Or => Value::Bool(as_bool(va)? || as_bool(vb)?),
    })
}

/// Evaluates a lowered expression against `frame`'s slots.
#[inline(always)]
fn eval(
    prog: &CompiledProgram,
    heap: &Heap,
    frame: &VmFrame,
    regs: &mut [Value],
    e: ExprId,
) -> Result<Value, RuntimeError> {
    match &prog.exprs[e as usize] {
        CExpr::Const(v) => Ok(*v),
        CExpr::Slot(s) => frame.get(prog, *s),
        CExpr::Len(s) => arr_len(prog, heap, frame, *s),
        CExpr::Un { op, a } => apply_un(*op, load(prog, frame, *a)?),
        CExpr::Bin { op, a, b } => {
            let va = load(prog, frame, *a)?;
            let vb = load(prog, frame, *b)?;
            apply_bin(*op, va, vb)
        }
        CExpr::Ops { ops, out } => {
            for op in ops.iter() {
                match *op {
                    EOp::Const { r, v } => regs[r as usize] = v,
                    EOp::Slot { r, s } => regs[r as usize] = frame.get(prog, s)?,
                    EOp::Len { r, s } => regs[r as usize] = arr_len(prog, heap, frame, s)?,
                    EOp::Un { op, r } => regs[r as usize] = apply_un(op, regs[r as usize])?,
                    EOp::Bin { op, a, b } => {
                        regs[a as usize] = apply_bin(op, regs[a as usize], regs[b as usize])?
                    }
                }
            }
            Ok(regs[*out as usize])
        }
    }
}
