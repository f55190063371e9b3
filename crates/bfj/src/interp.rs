//! A deterministic, multi-threaded interpreter for BFJ: the reference
//! semantics the compiled tier ([`mod@crate::compile`]) is tested against.
//! Every tool executes programs on [`CompiledVm`](crate::CompiledVm);
//! this tree-walker stays small and obviously faithful to the AST, so
//! differential tests can hold the VM to it, and it publishes no
//! run-time telemetry of its own.
//!
//! Threads are *green*: the interpreter holds every thread's control stack
//! explicitly and the seeded scheduler of [`crate::sched`] decides which
//! thread executes the next statement. Given the same program and
//! [`SchedPolicy`], execution — and hence the emitted event trace — is
//! bit-for-bit reproducible, which the race-detection experiments rely on.
//!
//! Every heap access, explicit `check(C)` statement, and synchronization
//! operation is reported to an [`EventSink`] in global execution order.

use crate::ast::*;
use crate::event::*;
use crate::sched::{self, Sched, SchedPolicy, Stepper};
use crate::Sym;
use bigfoot_vc::{AccessKind, Tid};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A fast identity-style hasher for interned symbols.
#[derive(Default, Clone)]
pub struct SymHasher(u64);

impl Hasher for SymHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3) ^ b as u64;
        }
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = (n as u64 ^ 0xfeed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Environment mapping locals to values.
pub type Env = HashMap<Sym, Value, BuildHasherDefault<SymHasher>>;

/// A BFJ run-time value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// The null reference.
    Null,
    /// Reference to a heap object.
    Obj(ObjId),
    /// Reference to a heap array.
    Arr(ArrId),
    /// A thread handle (result of `fork`).
    Thread(Tid),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => write!(f, "null"),
            Value::Obj(o) => write!(f, "{o}"),
            Value::Arr(a) => write!(f, "{a}"),
            Value::Thread(t) => write!(f, "{t}"),
        }
    }
}

/// A heap object instance.
#[derive(Debug, Clone)]
pub struct Object {
    /// Index of the class in `Program::classes`.
    pub class: usize,
    /// Field values, indexed by declaration order.
    pub fields: Vec<Value>,
}

/// A heap array instance.
#[derive(Debug, Clone)]
pub struct ArrayObj {
    /// The elements.
    pub data: Vec<Value>,
}

/// The shared heap: objects and arrays, allocation-only (no GC).
#[derive(Debug, Default)]
pub struct Heap {
    pub(crate) objects: Vec<Object>,
    pub(crate) arrays: Vec<ArrayObj>,
    pub(crate) cells: u64,
}

impl Heap {
    /// The object with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by this heap.
    #[inline(always)]
    pub fn object(&self, id: ObjId) -> &Object {
        &self.objects[id.0 as usize]
    }

    /// The array with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by this heap.
    #[inline(always)]
    pub fn array(&self, id: ArrId) -> &ArrayObj {
        &self.arrays[id.0 as usize]
    }

    /// Total heap cells allocated (object fields + array elements).
    ///
    /// This is the "base memory" denominator for Table 2's space-overhead
    /// accounting.
    pub fn cells(&self) -> u64 {
        self.cells
    }

    pub(crate) fn alloc_object(&mut self, class: usize, nfields: usize) -> ObjId {
        let id = ObjId(self.objects.len() as u32);
        self.objects.push(Object {
            class,
            fields: vec![Value::Int(0); nfields],
        });
        self.cells += nfields as u64;
        id
    }

    /// Allocates a zeroed array of `len` elements. Both executors allocate
    /// here, so they fail alike on a negative length or one over
    /// [`MAX_ARRAY_LEN`].
    pub(crate) fn alloc_array(&mut self, len: i64) -> Result<ArrId, RuntimeError> {
        if len < 0 {
            return Err(RuntimeError::NegativeArrayLength(len));
        }
        if len > MAX_ARRAY_LEN {
            return Err(RuntimeError::ArrayTooLong(len));
        }
        let id = ArrId(self.arrays.len() as u32);
        self.arrays.push(ArrayObj {
            data: vec![Value::Int(0); len as usize],
        });
        self.cells += len as u64;
        Ok(id)
    }
}

/// The longest array `new_array` allocates. A longer one is a
/// [`RuntimeError::ArrayTooLong`] rather than an allocation failure that
/// aborts the process. Suite, corpus and generated programs allocate at
/// most 16,384 elements.
pub const MAX_ARRAY_LEN: i64 = 1 << 24;

/// An error raised during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A variable was read before assignment.
    UnboundVar(String),
    /// An operation was applied to a value of the wrong type.
    TypeError(String),
    /// Unknown class, field, or method.
    UnknownName(String),
    /// Array index out of bounds.
    IndexOutOfBounds {
        /// The array.
        array: ArrId,
        /// The offending index.
        index: i64,
        /// The array length.
        len: usize,
    },
    /// Integer division or modulus by zero.
    DivisionByZero,
    /// Negative array length.
    NegativeArrayLength(i64),
    /// Array length over [`MAX_ARRAY_LEN`].
    ArrayTooLong(i64),
    /// Every live thread is blocked.
    Deadlock,
    /// The step budget was exhausted.
    StepLimitExceeded(u64),
    /// A thread released a lock it does not hold.
    IllegalRelease,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnboundVar(v) => write!(f, "unbound variable `{v}`"),
            RuntimeError::TypeError(m) => write!(f, "type error: {m}"),
            RuntimeError::UnknownName(m) => write!(f, "unknown name: {m}"),
            RuntimeError::IndexOutOfBounds { array, index, len } => {
                write!(f, "index {index} out of bounds for {array} of length {len}")
            }
            RuntimeError::DivisionByZero => write!(f, "division by zero"),
            RuntimeError::NegativeArrayLength(n) => write!(f, "negative array length {n}"),
            RuntimeError::ArrayTooLong(n) => {
                write!(f, "array length {n} exceeds the limit of {MAX_ARRAY_LEN}")
            }
            RuntimeError::Deadlock => write!(f, "deadlock: all live threads are blocked"),
            RuntimeError::StepLimitExceeded(n) => write!(f, "step limit of {n} exceeded"),
            RuntimeError::IllegalRelease => write!(f, "released a lock that is not held"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Summary of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Total interpreter steps executed.
    pub steps: u64,
    /// Number of threads that ran (including main).
    pub threads: usize,
    /// Heap cells allocated.
    pub heap_cells: u64,
}

enum Work<'p> {
    Stmt(&'p Stmt),
    /// The mid-loop exit test of the referenced `Loop` statement.
    LoopJunction(&'p Stmt),
    /// Re-acquire `lock` with the saved reentrancy `count` after a
    /// `wait` was notified.
    Reacquire {
        lock: ObjId,
        count: u32,
    },
}

struct Frame<'p> {
    env: Env,
    work: Vec<Work<'p>>,
    /// Variable in the caller receiving the return value.
    ret_dst: Option<Sym>,
    /// The method's return expression (`None` for thread roots / main).
    ret_expr: Option<&'p Expr>,
}

struct ClassInfo {
    field_idx: HashMap<Sym, u32, BuildHasherDefault<SymHasher>>,
    method_idx: HashMap<Sym, usize, BuildHasherDefault<SymHasher>>,
    volatile_fields: Vec<bool>,
}

/// Name-resolution tables for one program.
pub struct ProgramIndex {
    class_idx: HashMap<Sym, usize, BuildHasherDefault<SymHasher>>,
    classes: Vec<ClassInfo>,
}

impl ProgramIndex {
    /// Builds the index for `program`.
    pub fn build(program: &Program) -> ProgramIndex {
        let mut class_idx = HashMap::default();
        let mut classes = Vec::new();
        // Volatility is a property of the field *name*, program-wide: BFJ
        // is untyped, so the static analysis cannot distinguish `a.v` on
        // one class from another — the run time must agree with that
        // (conservative) resolution or the analysis would skip checks on
        // fields the interpreter still reports as plain accesses.
        let volatile_names: std::collections::HashSet<Sym> = program
            .classes
            .iter()
            .flat_map(|c| c.volatiles.iter().copied())
            .collect();
        for (ci, c) in program.classes.iter().enumerate() {
            class_idx.insert(c.name, ci);
            let mut field_idx = HashMap::default();
            for (fi, f) in c.fields.iter().enumerate() {
                field_idx.insert(*f, fi as u32);
            }
            let mut method_idx = HashMap::default();
            for (mi, m) in c.methods.iter().enumerate() {
                method_idx.insert(m.name, mi);
            }
            let volatile_fields = c
                .fields
                .iter()
                .map(|f| volatile_names.contains(f))
                .collect();
            classes.push(ClassInfo {
                field_idx,
                method_idx,
                volatile_fields,
            });
        }
        ProgramIndex { class_idx, classes }
    }

    /// Resolves a field name within class `class` to its index.
    pub fn field(&self, class: usize, name: Sym) -> Option<u32> {
        self.classes.get(class)?.field_idx.get(&name).copied()
    }

    /// Resolves a class name to its index.
    pub fn class(&self, name: Sym) -> Option<usize> {
        self.class_idx.get(&name).copied()
    }

    /// Resolves a method name within class `class`.
    pub fn method(&self, class: usize, name: Sym) -> Option<usize> {
        self.classes.get(class)?.method_idx.get(&name).copied()
    }

    /// True if field `fidx` of class `class` is declared volatile.
    pub fn is_volatile(&self, class: usize, fidx: u32) -> bool {
        self.classes
            .get(class)
            .and_then(|c| c.volatile_fields.get(fidx as usize))
            .copied()
            .unwrap_or(false)
    }
}

/// The interpreter for one program execution.
///
/// # Examples
///
/// ```
/// use bigfoot_bfj::{parse_program, Interp, NullSink, SchedPolicy, Sym, Tid, Value};
///
/// let p = parse_program("main { x = 1 + 2; }")?;
/// let mut interp = Interp::new(&p, SchedPolicy::default());
/// interp.run(&mut NullSink)?;
/// assert_eq!(interp.final_env(Tid(0)).unwrap()[&Sym::intern("x")], Value::Int(3));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Interp<'p> {
    program: &'p Program,
    index: ProgramIndex,
    heap: Heap,
    /// Each thread's call stack.
    threads: Vec<Vec<Frame<'p>>>,
    final_envs: Vec<Option<Env>>,
    sched: Sched,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter positioned at the start of `main`.
    pub fn new(program: &'p Program, policy: SchedPolicy) -> Self {
        let root = Frame {
            env: Env::default(),
            work: program.main.stmts.iter().rev().map(Work::Stmt).collect(),
            ret_dst: None,
            ret_expr: None,
        };
        Interp {
            program,
            index: ProgramIndex::build(program),
            heap: Heap::default(),
            threads: vec![vec![root]],
            final_envs: vec![None],
            sched: Sched::new(policy),
        }
    }

    /// Caps the number of interpreter steps; exceeding it is an error.
    pub fn with_max_steps(mut self, max: u64) -> Self {
        self.sched.set_max_steps(max);
        self
    }

    /// The shared heap (for inspecting program results in tests).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The name-resolution index.
    pub fn index(&self) -> &ProgramIndex {
        &self.index
    }

    /// The final environment of a completed thread's root frame.
    pub fn final_env(&self, t: Tid) -> Option<&Env> {
        self.final_envs.get(t.index())?.as_ref()
    }

    /// Runs the program to completion, streaming events into `sink`.
    ///
    /// # Errors
    ///
    /// Returns the first [`RuntimeError`] raised by any thread, a
    /// [`RuntimeError::Deadlock`] if all live threads block, or
    /// [`RuntimeError::StepLimitExceeded`].
    pub fn run<S: EventSink>(&mut self, sink: &mut S) -> Result<RunOutcome, RuntimeError> {
        sched::run(self, sink).map(|()| self.sched.outcome(self.heap.cells))
    }

    fn pop_frame<S: EventSink>(&mut self, t: Tid, sink: &mut S) -> Result<(), RuntimeError> {
        let ti = t.index();
        let frame = self.threads[ti].pop().expect("frame");
        let ret_val = match frame.ret_expr {
            Some(e) => eval(&frame.env, &self.heap, e)?,
            None => Value::Int(0),
        };
        if let Some(caller) = self.threads[ti].last_mut() {
            if let Some(dst) = frame.ret_dst {
                caller.env.insert(dst, ret_val);
            }
            Ok(())
        } else {
            // Thread root completed.
            self.final_envs[ti] = Some(frame.env);
            self.sched.exit(t, sink);
            Ok(())
        }
    }

    fn env(&mut self, t: Tid) -> &mut Env {
        &mut self.threads[t.index()].last_mut().expect("frame").env
    }

    fn lookup(&self, t: Tid, x: Sym) -> Result<Value, RuntimeError> {
        self.threads[t.index()]
            .last()
            .expect("frame")
            .env
            .get(&x)
            .copied()
            .ok_or_else(|| RuntimeError::UnboundVar(x.as_str().to_owned()))
    }

    fn lookup_obj(&self, t: Tid, x: Sym) -> Result<ObjId, RuntimeError> {
        match self.lookup(t, x)? {
            Value::Obj(o) => Ok(o),
            other => Err(RuntimeError::TypeError(format!(
                "`{x}` is {other}, expected an object"
            ))),
        }
    }

    fn lookup_arr(&self, t: Tid, x: Sym) -> Result<ArrId, RuntimeError> {
        match self.lookup(t, x)? {
            Value::Arr(a) => Ok(a),
            other => Err(RuntimeError::TypeError(format!(
                "`{x}` is {other}, expected an array"
            ))),
        }
    }

    fn field_index(&self, obj: ObjId, field: Sym) -> Result<u32, RuntimeError> {
        let class = self.heap.object(obj).class;
        self.index.field(class, field).ok_or_else(|| {
            RuntimeError::UnknownName(format!(
                "field `{field}` in class `{}`",
                self.program.classes[class].name
            ))
        })
    }

    fn exec_stmt<S: EventSink>(
        &mut self,
        t: Tid,
        s: &'p Stmt,
        sink: &mut S,
    ) -> Result<(), RuntimeError> {
        let ti = t.index();
        match &s.kind {
            StmtKind::Skip => Ok(()),
            StmtKind::Assign { x, e } => {
                let env = &mut self.threads[ti].last_mut().expect("frame").env;
                let v = eval(env, &self.heap, e)?;
                env.insert(*x, v);
                Ok(())
            }
            StmtKind::Rename { fresh, old } => {
                // Instrumentation may place a rename before a variable's
                // first assignment (e.g. a loop-local temporary on the
                // first iteration); the copy is only consulted when prior
                // history facts about `old` exist, so default to 0.
                let v = self.lookup(t, *old).unwrap_or(Value::Int(0));
                self.env(t).insert(*fresh, v);
                Ok(())
            }
            StmtKind::If {
                cond,
                then_b,
                else_b,
            } => {
                let env = &self.threads[ti].last().expect("frame").env;
                let b = as_bool(eval(env, &self.heap, cond)?)?;
                let block = if b { then_b } else { else_b };
                let frame = self.threads[ti].last_mut().expect("frame");
                for st in block.stmts.iter().rev() {
                    frame.work.push(Work::Stmt(st));
                }
                Ok(())
            }
            StmtKind::Loop { head, .. } => {
                let frame = self.threads[ti].last_mut().expect("frame");
                frame.work.push(Work::LoopJunction(s));
                for st in head.stmts.iter().rev() {
                    frame.work.push(Work::Stmt(st));
                }
                Ok(())
            }
            StmtKind::Acquire { lock } => {
                let obj = self.lookup_obj(t, *lock)?;
                if !self.sched.acquire(t, obj, 1, sink) {
                    // Blocked: re-issue the acquire once woken.
                    self.threads[ti]
                        .last_mut()
                        .expect("frame")
                        .work
                        .push(Work::Stmt(s));
                }
                Ok(())
            }
            StmtKind::Release { lock } => {
                let obj = self.lookup_obj(t, *lock)?;
                self.sched.release(t, obj, sink)
            }
            StmtKind::New { x, class } => {
                let ci = self
                    .index
                    .class(*class)
                    .ok_or_else(|| RuntimeError::UnknownName(format!("class `{class}`")))?;
                let nfields = self.program.classes[ci].fields.len();
                let obj = self.heap.alloc_object(ci, nfields);
                self.env(t).insert(*x, Value::Obj(obj));
                sink.event(&Event::AllocObj {
                    t,
                    obj,
                    class: ci as u32,
                    fields: nfields as u32,
                });
                Ok(())
            }
            StmtKind::NewArray { x, len } => {
                let env = &self.threads[ti].last().expect("frame").env;
                let n = as_int(eval(env, &self.heap, len)?)?;
                let arr = self.heap.alloc_array(n)?;
                self.env(t).insert(*x, Value::Arr(arr));
                sink.event(&Event::AllocArr {
                    t,
                    arr,
                    len: n as u64,
                });
                Ok(())
            }
            StmtKind::ReadField { x, obj, field } => {
                let o = self.lookup_obj(t, *obj)?;
                let fi = self.field_index(o, *field)?;
                let v = self.heap.object(o).fields[fi as usize];
                self.env(t).insert(*x, v);
                if self.index.is_volatile(self.heap.object(o).class, fi) {
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
            StmtKind::WriteField { obj, field, src } => {
                let o = self.lookup_obj(t, *obj)?;
                let fi = self.field_index(o, *field)?;
                let v = self.lookup(t, *src)?;
                self.heap.objects[o.0 as usize].fields[fi as usize] = v;
                if self.index.is_volatile(self.heap.object(o).class, fi) {
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
            StmtKind::ReadArr { x, arr, idx } => {
                let a = self.lookup_arr(t, *arr)?;
                let env = &self.threads[ti].last().expect("frame").env;
                let i = as_int(eval(env, &self.heap, idx)?)?;
                let len = self.heap.array(a).data.len();
                if i < 0 || i as usize >= len {
                    return Err(RuntimeError::IndexOutOfBounds {
                        array: a,
                        index: i,
                        len,
                    });
                }
                let v = self.heap.array(a).data[i as usize];
                self.env(t).insert(*x, v);
                sink.event(&Event::Access {
                    t,
                    kind: AccessKind::Read,
                    loc: Loc::Elem(a, i),
                });
                Ok(())
            }
            StmtKind::WriteArr { arr, idx, src } => {
                let a = self.lookup_arr(t, *arr)?;
                let env = &self.threads[ti].last().expect("frame").env;
                let i = as_int(eval(env, &self.heap, idx)?)?;
                let v = self.lookup(t, *src)?;
                let len = self.heap.array(a).data.len();
                if i < 0 || i as usize >= len {
                    return Err(RuntimeError::IndexOutOfBounds {
                        array: a,
                        index: i,
                        len,
                    });
                }
                self.heap.arrays[a.0 as usize].data[i as usize] = v;
                sink.event(&Event::Access {
                    t,
                    kind: AccessKind::Write,
                    loc: Loc::Elem(a, i),
                });
                Ok(())
            }
            StmtKind::Call {
                x,
                recv,
                meth,
                args,
            } => {
                let frame = self.call_frame(t, *recv, *meth, args, Some(*x))?;
                self.threads[ti].push(frame);
                Ok(())
            }
            StmtKind::Fork {
                x,
                recv,
                meth,
                args,
            } => {
                let frame = self.call_frame(t, *recv, *meth, args, None)?;
                let child = self.sched.fork(t, sink);
                self.threads.push(vec![frame]);
                self.final_envs.push(None);
                self.env(t).insert(*x, Value::Thread(child));
                Ok(())
            }
            StmtKind::Join { t: tvar } => {
                let target = match self.lookup(t, *tvar)? {
                    Value::Thread(x) => x,
                    other => {
                        return Err(RuntimeError::TypeError(format!(
                            "`{tvar}` is {other}, expected a thread handle"
                        )))
                    }
                };
                if !self.sched.join(t, target, sink) {
                    self.threads[ti]
                        .last_mut()
                        .expect("frame")
                        .work
                        .push(Work::Stmt(s));
                }
                Ok(())
            }
            StmtKind::Wait { lock } => {
                let obj = self.lookup_obj(t, *lock)?;
                // Park, and schedule the re-acquire (with the saved
                // reentrancy count) for after the notify.
                let count = self.sched.wait(t, obj, sink)?;
                let frame = self.threads[ti].last_mut().expect("frame");
                frame.work.push(Work::Reacquire { lock: obj, count });
                Ok(())
            }
            StmtKind::Notify { lock } => {
                let obj = self.lookup_obj(t, *lock)?;
                self.sched.notify(t, obj)
            }
            StmtKind::Check { paths } => {
                let mut resolved = Vec::with_capacity(paths.len());
                for cp in paths {
                    resolved.push((cp.kind, self.resolve_path(t, &cp.path)?));
                }
                sink.event(&Event::Check { t, paths: resolved });
                Ok(())
            }
        }
    }

    fn resolve_path(&self, t: Tid, path: &Path) -> Result<CheckTarget, RuntimeError> {
        match path {
            Path::Fields { base, fields } => {
                let o = self.lookup_obj(t, *base)?;
                let mut idxs = Vec::with_capacity(fields.len());
                for f in fields {
                    idxs.push(self.field_index(o, *f)?);
                }
                Ok(CheckTarget::Fields(o, idxs))
            }
            Path::Arr { base, range } => {
                let a = self.lookup_arr(t, *base)?;
                let env = &self.threads[t.index()].last().expect("frame").env;
                let lo = as_int(eval(env, &self.heap, &range.lo)?)?;
                let hi = as_int(eval(env, &self.heap, &range.hi)?)?;
                Ok(CheckTarget::Range(
                    a,
                    ConcreteRange {
                        lo,
                        hi,
                        step: range.step,
                    },
                ))
            }
        }
    }

    fn call_frame(
        &mut self,
        t: Tid,
        recv: Sym,
        meth: Sym,
        args: &[Sym],
        ret_dst: Option<Sym>,
    ) -> Result<Frame<'p>, RuntimeError> {
        let o = self.lookup_obj(t, recv)?;
        let class = self.heap.object(o).class;
        let mi = self.index.method(class, meth).ok_or_else(|| {
            RuntimeError::UnknownName(format!(
                "method `{meth}` in class `{}`",
                self.program.classes[class].name
            ))
        })?;
        let mdef = &self.program.classes[class].methods[mi];
        if mdef.params.len() != args.len() {
            return Err(RuntimeError::TypeError(format!(
                "method `{meth}` expects {} arguments, got {}",
                mdef.params.len(),
                args.len()
            )));
        }
        let mut env = Env::default();
        env.insert(Sym::intern("this"), Value::Obj(o));
        for (p, a) in mdef.params.iter().zip(args) {
            let v = self.lookup(t, *a)?;
            env.insert(*p, v);
        }
        Ok(Frame {
            env,
            work: mdef.body.stmts.iter().rev().map(Work::Stmt).collect(),
            ret_dst,
            ret_expr: Some(&mdef.ret),
        })
    }
}

impl Stepper for Interp<'_> {
    fn sched(&mut self) -> &mut Sched {
        &mut self.sched
    }

    /// Executes one work item of thread `t`.
    fn step<S: EventSink>(&mut self, t: Tid, sink: &mut S) -> Result<(), RuntimeError> {
        let ti = t.index();
        let frame = self.threads[ti]
            .last_mut()
            .expect("a runnable thread has a frame");
        let Some(work) = frame.work.pop() else {
            // Frame finished: return to caller.
            return self.pop_frame(t, sink);
        };
        match work {
            Work::Reacquire { lock, count } => {
                if !self.sched.acquire(t, lock, count, sink) {
                    frame.work.push(Work::Reacquire { lock, count });
                }
                Ok(())
            }
            Work::LoopJunction(loop_stmt) => {
                let StmtKind::Loop { head, exit, tail } = &loop_stmt.kind else {
                    unreachable!("LoopJunction must reference a Loop");
                };
                let done = as_bool(eval(&frame.env, &self.heap, exit)?)?;
                if !done {
                    frame.work.push(Work::LoopJunction(loop_stmt));
                    for s in head.stmts.iter().rev() {
                        frame.work.push(Work::Stmt(s));
                    }
                    for s in tail.stmts.iter().rev() {
                        frame.work.push(Work::Stmt(s));
                    }
                }
                Ok(())
            }
            Work::Stmt(s) => self.exec_stmt(t, s, sink),
        }
    }
}

// The error constructors are outlined and `#[cold]` so the `format!`
// machinery stays off the interpreter's (and compiled VM's) hot path.
#[cold]
#[inline(never)]
fn int_type_error(other: Value) -> RuntimeError {
    RuntimeError::TypeError(format!("expected an integer, found {other}"))
}

#[cold]
#[inline(never)]
fn bool_type_error(other: Value) -> RuntimeError {
    RuntimeError::TypeError(format!("expected a boolean, found {other}"))
}

#[inline(always)]
pub(crate) fn as_int(v: Value) -> Result<i64, RuntimeError> {
    match v {
        Value::Int(n) => Ok(n),
        other => Err(int_type_error(other)),
    }
}

#[inline(always)]
pub(crate) fn as_bool(v: Value) -> Result<bool, RuntimeError> {
    match v {
        Value::Bool(b) => Ok(b),
        other => Err(bool_type_error(other)),
    }
}

/// Evaluates a pure expression in `env`, resolving `a.length` against
/// `heap`.
///
/// # Errors
///
/// Returns [`RuntimeError`] on unbound variables, type mismatches, or
/// division by zero.
pub fn eval(env: &Env, heap: &Heap, e: &Expr) -> Result<Value, RuntimeError> {
    Ok(match e {
        Expr::Int(n) => Value::Int(*n),
        Expr::Bool(b) => Value::Bool(*b),
        Expr::Null => Value::Null,
        Expr::Var(x) => *env
            .get(x)
            .ok_or_else(|| RuntimeError::UnboundVar(x.as_str().to_owned()))?,
        Expr::Len(a) => {
            let v = *env
                .get(a)
                .ok_or_else(|| RuntimeError::UnboundVar(a.as_str().to_owned()))?;
            match v {
                Value::Arr(id) => Value::Int(heap.array(id).data.len() as i64),
                other => {
                    return Err(RuntimeError::TypeError(format!(
                        "`{a}` is {other}, expected an array"
                    )))
                }
            }
        }
        Expr::Unop(op, a) => {
            let v = eval(env, heap, a)?;
            match op {
                // Wrapping, like every arithmetic `Binop`: `-i64::MIN`
                // must not abort under debug overflow checks.
                Unop::Neg => Value::Int(as_int(v)?.wrapping_neg()),
                Unop::Not => Value::Bool(!as_bool(v)?),
            }
        }
        Expr::Binop(op, a, b) => {
            let va = eval(env, heap, a)?;
            let vb = eval(env, heap, b)?;
            match op {
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
            }
        }
    })
}
