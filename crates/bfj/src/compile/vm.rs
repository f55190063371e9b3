//! The register-bytecode virtual machine.
//!
//! [`CompiledVm`] mirrors [`Interp`](crate::Interp)'s public surface and
//! runs on the same scheduler, [`crate::sched`]: the thread and lock
//! tables, the RNG, quantum accounting, wake order, deadlock and
//! step-limit handling, and every monitor and thread-table operation are
//! shared code. One bytecode instruction is one scheduler step, so a
//! compiled execution is the *same* execution as the interpreted one; only
//! the cost per step changes (slot indexing instead of `HashMap` hashing,
//! pre-bound field/method tables instead of name lookups, flat register
//! ops instead of `Box<Expr>` recursion).

use super::lower::{
    CExpr, CPath, CallTarget, CompiledMethod, CompiledProgram, EOp, ExprId, Instr, Operand, SlotId,
};
use crate::ast::{Binop, Unop};
use crate::event::{CheckRef, ConcreteRange, Event, EventSink, Loc, ObjId};
use crate::interp::{as_bool, as_int, Env, Heap, RunOutcome, RuntimeError, Value};
use crate::sched::{self, Sched, SchedPolicy, Stepper};
use crate::sym::Sym;
use bigfoot_vc::{AccessKind, Tid};

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

/// How a [`CompiledVm::run_slice`] inner dispatch loop ended: the arms
/// that mutate the frame stack hand the mutation out here so it runs
/// once the top-frame borrow is dead.
enum SliceExit {
    /// `call`: push this callee and continue the slice in it.
    Call(VmFrame),
    /// `ret`: pop the top frame; it returned this value.
    Ret(Value),
    /// An instruction the scheduler must run via [`Stepper::step`].
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
    /// Each thread's call stack.
    threads: Vec<Vec<VmFrame>>,
    final_envs: Vec<Option<Env>>,
    sched: Sched,
    /// Shared scratch register file for `CExpr::Ops` (green threads:
    /// only one thread evaluates at a time).
    regs: Vec<Value>,
    /// Recycled frames: `call` pops one here instead of allocating its
    /// slot arrays, and `ret` pushes the popped frame back, keeping
    /// steady-state method calls allocation-free.
    pool: Vec<VmFrame>,
    /// Scratch for the resolved paths of the executing `check`, reused
    /// across checks so that running one allocates nothing.
    check_paths: Vec<(AccessKind, CheckRef<'p>)>,
}

impl<'p> CompiledVm<'p> {
    /// Creates a VM positioned at the start of `main`.
    pub fn new(prog: &'p CompiledProgram, policy: SchedPolicy) -> Self {
        let root = VmFrame::fresh(0, &prog.methods[0], None);
        CompiledVm {
            prog,
            heap: Heap::default(),
            threads: vec![vec![root]],
            final_envs: vec![None],
            sched: Sched::new(policy),
            regs: vec![Value::Int(0); prog.max_regs as usize],
            pool: Vec::new(),
            check_paths: Vec::new(),
        }
    }

    /// Caps the number of VM steps; exceeding it is an error.
    pub fn with_max_steps(mut self, max: u64) -> Self {
        self.sched.set_max_steps(max);
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
        let result = sched::run(self, sink);
        bigfoot_obs::count!("vm.runs");
        bigfoot_obs::count!("vm.steps", self.sched.steps());
        bigfoot_obs::count!("vm.context_switches", self.sched.context_switches());
        bigfoot_obs::count!("vm.threads", self.sched.threads());
        result.map(|()| self.sched.outcome(self.heap.cells))
    }

    /// Executes up to `budget` consecutive instructions of `t` that
    /// need at most the current thread — the frame-local arms, `call`
    /// and `ret` (which only touch this thread's own frame stack), lock
    /// acquires, and, when `release_ok` certifies that no thread is
    /// `BlockedLock`, lock releases — in a tight loop that keeps the
    /// frame borrow live across steps instead of re-entering the
    /// scheduler per step.
    ///
    /// `wake_blocked` wakes a `BlockedLock` thread when its lock is free
    /// and a `BlockedJoin` thread when its target is `Done`. None of the
    /// admitted instructions can bring either about mid-slice: an
    /// acquire frees no lock (a contended one blocks this thread and
    /// ends the slice); `fork`/`join`/`wait`/`notify` exit the slice; a
    /// root `ret` marks this thread `Done` and ends the slice
    /// immediately; and a release runs here only while no thread waits
    /// on a lock. So `wake_blocked`, the termination scan and
    /// `pick_next` are all provably no-ops for the whole slice, and the
    /// caller settles quantum and step accounting from the returned
    /// count. While some thread *is* blocked on a lock, releases stay
    /// cold, because their per-step wake timing is observable (a thread
    /// woken by one release can re-block on the very next step if the
    /// slice re-acquires). Stops early (without error) at the first
    /// instruction that needs the full machine — or a pending monitor
    /// re-acquire — which [`Stepper::step`] runs.
    ///
    /// Inlined so that `step`'s one-instruction slice compiles to a
    /// straight dispatch.
    #[inline(always)]
    fn run_slice<S: EventSink>(
        &mut self,
        t: Tid,
        budget: u64,
        release_ok: bool,
        sink: &mut S,
    ) -> (u64, Result<(), RuntimeError>) {
        let prog = self.prog;
        let CompiledVm {
            heap,
            threads,
            sched,
            regs,
            final_envs,
            pool,
            check_paths,
            ..
        } = self;
        let frames = &mut threads[t.index()];
        let mut executed = 0u64;
        'frames: while executed < budget {
            let Some(frame) = frames.last_mut() else {
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
                        exec_check(prog, heap, regs, check_paths, frame, sink, t, *site, *next)
                    }
                    Instr::Acquire { lock, next } => {
                        let obj = match frame.get_obj(prog, *lock) {
                            Ok(o) => o,
                            Err(e) => return (executed, Err(e)),
                        };
                        if !sched.acquire(t, obj, 1, sink) {
                            // Blocked: the step is spent, and the thread
                            // retries this instruction once woken.
                            executed += 1;
                            break 'frames;
                        }
                        frame.pc = *next;
                        Ok(())
                    }
                    Instr::Release { lock, next } if release_ok => frame
                        .get_obj(prog, *lock)
                        .and_then(|obj| sched.release(t, obj, sink))
                        .map(|()| frame.pc = *next),
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
                    // Thread-table instructions — and releases while
                    // some thread is blocked on a lock — need the full
                    // scheduler: hand back without consuming.
                    Instr::Release { .. }
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
                    frames.push(callee);
                    executed += 1;
                }
                SliceExit::Ret(v) => {
                    let popped = frames.pop().expect("frame");
                    executed += 1;
                    if let Some(caller) = frames.last_mut() {
                        if let Some(dst) = popped.ret_dst {
                            caller.set(dst, v);
                        }
                        pool.push(popped);
                    } else {
                        // Thread root completed: record its env, retire
                        // the thread, and end the slice — the
                        // scheduler's next pass wakes any joiners.
                        final_envs[t.index()] = Some(build_env(prog, &popped));
                        pool.push(popped);
                        sched.exit(t, sink);
                        break 'frames;
                    }
                }
                SliceExit::Cold => break 'frames,
            }
        }
        (executed, Ok(()))
    }
}

impl Stepper for CompiledVm<'_> {
    fn sched(&mut self) -> &mut Sched {
        &mut self.sched
    }

    /// Executes one instruction (= one interpreter work item) of `t`:
    /// a one-instruction [`CompiledVm::run_slice`] that admits releases,
    /// or, where the slice stops, a pending monitor
    /// re-acquire or a thread-table instruction.
    fn step<S: EventSink>(&mut self, t: Tid, sink: &mut S) -> Result<(), RuntimeError> {
        let (executed, r) = self.run_slice(t, 1, true, sink);
        if executed == 1 || r.is_err() {
            return r;
        }
        let prog = self.prog;
        let frame = self.threads[t.index()]
            .last_mut()
            .expect("a runnable thread has a frame");
        if let Some((lock, count)) = frame.reacquire {
            if self.sched.acquire(t, lock, count, sink) {
                frame.reacquire = None;
            }
            return Ok(());
        }
        match &prog.code[frame.pc as usize] {
            Instr::Fork { dst, site, next } => {
                let callee = build_frame(prog, &self.heap, &mut self.pool, frame, *site, None)?;
                let child = self.sched.fork(t, sink);
                frame.set(*dst, Value::Thread(child));
                frame.pc = *next;
                self.threads.push(vec![callee]);
                self.final_envs.push(None);
            }
            Instr::Join { t: tslot, next } => {
                let target = match frame.get(prog, *tslot)? {
                    Value::Thread(x) => x,
                    other => {
                        return Err(slot_type_error(
                            prog,
                            frame,
                            *tslot,
                            other,
                            "a thread handle",
                        ))
                    }
                };
                // Otherwise blocked: retry this instruction once woken.
                if self.sched.join(t, target, sink) {
                    frame.pc = *next;
                }
            }
            Instr::Wait { lock, next } => {
                // Parks until a notify, then re-acquires with the saved
                // reentrancy count.
                let obj = frame.get_obj(prog, *lock)?;
                frame.reacquire = Some((obj, self.sched.wait(t, obj, sink)?));
                frame.pc = *next;
            }
            Instr::Notify { lock, next } => {
                let obj = frame.get_obj(prog, *lock)?;
                self.sched.notify(t, obj)?;
                frame.pc = *next;
            }
            _ => unreachable!("a one-instruction slice runs every other instruction"),
        }
        Ok(())
    }

    fn slice<S: EventSink>(
        &mut self,
        t: Tid,
        budget: u64,
        sink: &mut S,
    ) -> (u64, Result<(), RuntimeError>) {
        let release_ok = self.sched.release_ok();
        self.run_slice(t, budget, release_ok, sink)
    }

    fn switched() {
        bigfoot_obs::trace_instant!("vm.switch");
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

/// The frame-local instruction bodies of [`CompiledVm::run_slice`]'s
/// dispatch, which also runs every single step outside a slice, outlined
/// so each body can use `?`.
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
        sink.access(t, AccessKind::Read, Loc::Field(o, fi));
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
        sink.access(t, AccessKind::Write, Loc::Field(o, fi));
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
    sink.access(t, AccessKind::Read, Loc::Elem(a, i));
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
    sink.access(t, AccessKind::Write, Loc::Elem(a, i));
    Ok(())
}

/// Resolves one `check` statement's paths into the VM's `paths` scratch
/// and hands them to [`EventSink::check`]. Field lists are borrowed from
/// the program's lowering-time tables and the scratch keeps its
/// capacity, so a check allocates nothing.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn exec_check<'p, S: EventSink>(
    prog: &'p CompiledProgram,
    heap: &Heap,
    regs: &mut [Value],
    paths: &mut Vec<(AccessKind, CheckRef<'p>)>,
    frame: &mut VmFrame,
    sink: &mut S,
    t: Tid,
    site: u32,
    next: u32,
) -> Result<(), RuntimeError> {
    paths.clear();
    for p in prog.check_sites[site as usize].paths.iter() {
        match p {
            CPath::Fields { kind, base, res } => {
                let o = frame.get_obj(prog, *base)?;
                let class = heap.object(o).class;
                match prog.check_fields_res[*res as usize + class] {
                    Ok((lo, hi)) => {
                        let idxs = &prog.check_fields[lo as usize..hi as usize];
                        paths.push((*kind, CheckRef::Fields(o, idxs)));
                    }
                    Err(fsid) => return Err(unknown_field(prog, fsid, class)),
                }
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
                let range = ConcreteRange {
                    lo,
                    hi,
                    step: *step,
                };
                paths.push((*kind, CheckRef::Range(a, range)));
            }
        }
    }
    sink.check(t, paths);
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
