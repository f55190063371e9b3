//! Lowering from the checked AST to flat register bytecode.
//!
//! See the [module docs](super) for the design. The invariant that every
//! downstream consumer leans on: **one instruction per interpreter work
//! item**. `If` lowers to one `Branch`, `Loop` to one `LoopEnter` plus
//! one `LoopJunction`, a finished frame to one `Ret` — so a compiled
//! schedule takes exactly the same number of steps as the interpreted
//! one, which keeps the scheduler's quantum accounting and RNG draw
//! sequence (and therefore the event stream) bit-identical.

use crate::ast::{Binop, Block, Expr, Path, Program, Stmt, StmtKind, Unop};
use crate::interp::{ProgramIndex, Value};
use crate::sym::Sym;
use bigfoot_vc::AccessKind;
use std::collections::HashMap;

/// Index of a lowered expression in [`CompiledProgram::exprs`].
pub(crate) type ExprId = u32;

/// A frame slot (dense per-method local index).
pub(crate) type SlotId = u32;

/// A scratch register in the VM's shared expression register file.
pub(crate) type Reg = u32;

/// An atomic operand: a literal or a frame slot.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Operand {
    Const(Value),
    Slot(SlotId),
}

/// One postfix register op of a flattened expression.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EOp {
    /// `regs[r] = v`
    Const { r: Reg, v: Value },
    /// `regs[r] = slots[s]` (unbound-variable check included)
    Slot { r: Reg, s: SlotId },
    /// `regs[r] = slots[s].length`
    Len { r: Reg, s: SlotId },
    /// `regs[r] = op regs[r]`
    Un { op: Unop, r: Reg },
    /// `regs[a] = regs[a] op regs[b]`
    Bin { op: Binop, a: Reg, b: Reg },
}

/// A lowered expression. The first five shapes cover almost everything a
/// real (A-normal-form) program contains and evaluate without touching
/// the register file; `Ops` is the general fallback.
#[derive(Debug, Clone)]
pub(crate) enum CExpr {
    Const(Value),
    Slot(SlotId),
    Len(SlotId),
    Un { op: Unop, a: Operand },
    Bin { op: Binop, a: Operand, b: Operand },
    Ops { ops: Box<[EOp]>, out: Reg },
}

/// Per-class resolution of one field name: `(field index, volatile?)`.
pub(crate) type FieldRes = Option<(u32, bool)>;

/// A field-access site, pre-bound for every class in the program.
#[derive(Debug)]
pub(crate) struct FieldSite {
    pub(crate) field: Sym,
    /// Indexed by the receiver's run-time class.
    pub(crate) by_class: Box<[FieldRes]>,
}

/// Per-class resolution of one call site.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CallTarget {
    /// Resolved: the compiled method id (arity already checked).
    Method(u32),
    /// The class has the method, but with a different parameter count.
    Arity { expected: u32 },
    /// The class has no method of this name.
    Unknown,
}

/// A `call`/`fork` site: receiver and argument slots plus the per-class
/// target table.
#[derive(Debug)]
pub(crate) struct CallSite {
    pub(crate) meth: Sym,
    pub(crate) recv: SlotId,
    pub(crate) args: Box<[SlotId]>,
    pub(crate) by_class: Box<[CallTarget]>,
}

/// Per-class resolution of a check's field path: the range of
/// [`CompiledProgram::check_fields`] holding its field indices in path
/// order, or the site id of the first field the class lacks.
pub(crate) type FieldsRes = Result<(u32, u32), u32>;

/// One lowered `check(C)` path.
#[derive(Debug)]
pub(crate) enum CPath {
    Fields {
        kind: AccessKind,
        base: SlotId,
        /// Start of this path's per-class rows in
        /// [`CompiledProgram::check_fields_res`]: the receiver's class
        /// `c` resolves at `res + c`.
        res: u32,
    },
    Arr {
        kind: AccessKind,
        base: SlotId,
        lo: ExprId,
        hi: ExprId,
        step: i64,
    },
}

/// A StaticBF check site compiled to a direct sink call.
#[derive(Debug)]
pub(crate) struct CheckSite {
    pub(crate) paths: Box<[CPath]>,
}

/// What the VM needs to know about a class at run time.
#[derive(Debug)]
pub(crate) struct ClassMeta {
    pub(crate) name: Sym,
    pub(crate) nfields: u32,
}

/// One bytecode instruction. Every variant carries its explicit
/// successor pc(s); "falling through" does not exist, so lowering is
/// free to lay blocks out in whatever order avoids extra steps.
#[derive(Debug)]
pub(crate) enum Instr {
    Skip {
        next: u32,
    },
    Assign {
        dst: SlotId,
        e: ExprId,
        next: u32,
    },
    Rename {
        fresh: SlotId,
        old: SlotId,
        next: u32,
    },
    Branch {
        cond: ExprId,
        then_pc: u32,
        else_pc: u32,
    },
    LoopEnter {
        head: u32,
    },
    /// Mid-loop exit test: `exit` true → `done`, else → `body` (the
    /// tail-then-head path back to this junction).
    LoopJunction {
        exit: ExprId,
        body: u32,
        done: u32,
    },
    Acquire {
        lock: SlotId,
        next: u32,
    },
    Release {
        lock: SlotId,
        next: u32,
    },
    New {
        dst: SlotId,
        class: Option<u32>,
        name: Sym,
        next: u32,
    },
    NewArray {
        dst: SlotId,
        len: ExprId,
        next: u32,
    },
    ReadField {
        dst: SlotId,
        obj: SlotId,
        site: u32,
        next: u32,
    },
    WriteField {
        obj: SlotId,
        site: u32,
        src: SlotId,
        next: u32,
    },
    ReadArr {
        dst: SlotId,
        arr: SlotId,
        idx: ExprId,
        next: u32,
    },
    WriteArr {
        arr: SlotId,
        idx: ExprId,
        src: SlotId,
        next: u32,
    },
    Call {
        dst: SlotId,
        site: u32,
        next: u32,
    },
    Fork {
        dst: SlotId,
        site: u32,
        next: u32,
    },
    Join {
        t: SlotId,
        next: u32,
    },
    Wait {
        lock: SlotId,
        next: u32,
    },
    Notify {
        lock: SlotId,
        next: u32,
    },
    Check {
        site: u32,
        next: u32,
    },
    /// Frame return: evaluate `expr` (`None` ⇒ `0`), pop the frame. One
    /// step, exactly like the interpreter's `pop_frame`.
    Ret {
        expr: Option<ExprId>,
    },
}

/// A compiled method (or the `main` block, which is method 0).
#[derive(Debug)]
pub(crate) struct CompiledMethod {
    pub(crate) entry: u32,
    pub(crate) n_slots: u32,
    /// Slot → variable name, for error messages and `final_env`.
    pub(crate) slot_names: Box<[Sym]>,
    /// Slot receiving `this` (methods only).
    pub(crate) this_slot: SlotId,
    /// Parameter slots in declaration order.
    pub(crate) params: Box<[SlotId]>,
}

/// A program lowered to register bytecode, ready to run any number of
/// times on a [`CompiledVm`](super::CompiledVm).
#[derive(Debug)]
pub struct CompiledProgram {
    pub(crate) code: Box<[Instr]>,
    pub(crate) exprs: Box<[CExpr]>,
    /// `methods[0]` is `main`; class methods follow in declaration order.
    pub(crate) methods: Box<[CompiledMethod]>,
    pub(crate) field_sites: Box<[FieldSite]>,
    pub(crate) call_sites: Box<[CallSite]>,
    pub(crate) check_sites: Box<[CheckSite]>,
    /// Every check field path resolved against every class, one row of
    /// `classes.len()` entries per path, so an executed check only
    /// indexes a table.
    pub(crate) check_fields_res: Box<[FieldsRes]>,
    /// The field indices the `Ok` entries of `check_fields_res` point
    /// at; a check borrows its field lists from here.
    pub(crate) check_fields: Box<[u32]>,
    pub(crate) classes: Box<[ClassMeta]>,
    /// Size of the shared expression register file.
    pub(crate) max_regs: u32,
}

impl CompiledProgram {
    /// Number of bytecode instructions.
    pub fn instr_count(&self) -> usize {
        self.code.len()
    }
}

/// Lowers `program` (typically after `bigfoot` instrumentation placed
/// its `check` statements) into flat register bytecode.
///
/// Compilation is pure name/shape resolution: it never fails, even on
/// programs that will raise at run time (an unknown class or method in
/// dead code must still *run*, exactly as it does under the
/// interpreter, and only error when reached).
pub fn compile(program: &Program) -> CompiledProgram {
    let _span = bigfoot_obs::span!("vm.compile");
    let index = ProgramIndex::build(program);
    let classes: Box<[ClassMeta]> = program
        .classes
        .iter()
        .map(|c| ClassMeta {
            name: c.name,
            nfields: c.fields.len() as u32,
        })
        .collect();
    // Assign compiled-method ids up front so call sites in any body can
    // reference any method: 0 = main, then (class, method) in order.
    let mut method_ids: HashMap<(usize, usize), u32> = HashMap::new();
    let mut next_id = 1u32;
    for (ci, c) in program.classes.iter().enumerate() {
        for mi in 0..c.methods.len() {
            method_ids.insert((ci, mi), next_id);
            next_id += 1;
        }
    }
    let mut ctx = Ctx {
        program,
        index: &index,
        method_ids,
        code: Vec::new(),
        exprs: Vec::new(),
        field_sites: Vec::new(),
        field_site_ids: HashMap::new(),
        call_sites: Vec::new(),
        check_sites: Vec::new(),
        check_fields_res: Vec::new(),
        check_fields: Vec::new(),
        max_regs: 0,
    };
    let mut methods = Vec::with_capacity(next_id as usize);
    methods.push(ctx.lower_method(&[], &program.main, None));
    for c in &program.classes {
        for m in &c.methods {
            methods.push(ctx.lower_method(&m.params, &m.body, Some(&m.ret)));
        }
    }
    bigfoot_obs::count!("vm.compiles");
    bigfoot_obs::count!("vm.compiled_instrs", ctx.code.len());
    CompiledProgram {
        code: ctx.code.into_boxed_slice(),
        exprs: ctx.exprs.into_boxed_slice(),
        methods: methods.into_boxed_slice(),
        field_sites: ctx.field_sites.into_boxed_slice(),
        call_sites: ctx.call_sites.into_boxed_slice(),
        check_sites: ctx.check_sites.into_boxed_slice(),
        check_fields_res: ctx.check_fields_res.into_boxed_slice(),
        check_fields: ctx.check_fields.into_boxed_slice(),
        classes,
        max_regs: ctx.max_regs,
    }
}

/// Program-wide lowering state (shared pools + resolution tables).
struct Ctx<'p> {
    program: &'p Program,
    index: &'p ProgramIndex,
    method_ids: HashMap<(usize, usize), u32>,
    code: Vec<Instr>,
    exprs: Vec<CExpr>,
    field_sites: Vec<FieldSite>,
    /// Field sites depend only on the field *name*, so they are shared.
    field_site_ids: HashMap<Sym, u32>,
    call_sites: Vec<CallSite>,
    check_sites: Vec<CheckSite>,
    check_fields_res: Vec<FieldsRes>,
    check_fields: Vec<u32>,
    max_regs: u32,
}

/// An unresolved successor: instruction `pc`'s `succ` field awaits the
/// continuation address.
#[derive(Debug, Clone, Copy)]
struct Hole {
    pc: u32,
    succ: Succ,
}

#[derive(Debug, Clone, Copy)]
enum Succ {
    Next,
    Then,
    Else,
    LoopDone,
}

impl Ctx<'_> {
    fn field_site(&mut self, field: Sym) -> u32 {
        if let Some(&id) = self.field_site_ids.get(&field) {
            return id;
        }
        let by_class = (0..self.program.classes.len())
            .map(|ci| {
                self.index
                    .field(ci, field)
                    .map(|fi| (fi, self.index.is_volatile(ci, fi)))
            })
            .collect();
        let id = self.field_sites.len() as u32;
        self.field_sites.push(FieldSite { field, by_class });
        self.field_site_ids.insert(field, id);
        id
    }

    /// Resolves a check's field path against every class: appends one
    /// row to `check_fields_res` and returns where it starts.
    fn check_fields_path(&mut self, fields: &[Sym]) -> u32 {
        let sites: Vec<u32> = fields.iter().map(|f| self.field_site(*f)).collect();
        let res = self.check_fields_res.len() as u32;
        for class in 0..self.program.classes.len() {
            let start = self.check_fields.len();
            let missing = sites.iter().copied().find(|&site| {
                match self.field_sites[site as usize].by_class[class] {
                    Some((fi, _)) => {
                        self.check_fields.push(fi);
                        false
                    }
                    None => true,
                }
            });
            let row = match missing {
                None => Ok((start as u32, self.check_fields.len() as u32)),
                Some(site) => {
                    self.check_fields.truncate(start);
                    Err(site)
                }
            };
            self.check_fields_res.push(row);
        }
        res
    }

    /// Lowers one body. `ret` is the declared return expression of a
    /// class method (which also binds `this`); `None` for `main`.
    fn lower_method(&mut self, params: &[Sym], body: &Block, ret: Option<&Expr>) -> CompiledMethod {
        let mut m = MethodLowerer {
            ctx: self,
            slots: HashMap::new(),
            slot_names: Vec::new(),
        };
        let this_slot = if ret.is_some() {
            m.slot(Sym::intern("this"))
        } else {
            0
        };
        let param_slots: Box<[SlotId]> = params.iter().map(|p| m.slot(*p)).collect();
        let entry = m.ctx.code.len() as u32;
        let holes = m.lower_block(body, Vec::new());
        let ret_expr = ret.map(|e| m.expr(e));
        let ret_pc = m.ctx.code.len() as u32;
        m.ctx.code.push(Instr::Ret { expr: ret_expr });
        let slot_names = m.slot_names.into_boxed_slice();
        let n_slots = slot_names.len() as u32;
        self.patch_all(&holes, ret_pc);
        CompiledMethod {
            entry,
            n_slots,
            slot_names,
            this_slot,
            params: param_slots,
        }
    }

    fn patch(&mut self, hole: Hole, target: u32) {
        let instr = &mut self.code[hole.pc as usize];
        let field = match (&mut *instr, hole.succ) {
            (Instr::Branch { then_pc, .. }, Succ::Then) => then_pc,
            (Instr::Branch { else_pc, .. }, Succ::Else) => else_pc,
            (Instr::LoopJunction { done, .. }, Succ::LoopDone) => done,
            (Instr::LoopJunction { body, .. }, Succ::Next) => body,
            (Instr::LoopEnter { head }, Succ::Next) => head,
            (Instr::Skip { next }, Succ::Next)
            | (Instr::Assign { next, .. }, Succ::Next)
            | (Instr::Rename { next, .. }, Succ::Next)
            | (Instr::Acquire { next, .. }, Succ::Next)
            | (Instr::Release { next, .. }, Succ::Next)
            | (Instr::New { next, .. }, Succ::Next)
            | (Instr::NewArray { next, .. }, Succ::Next)
            | (Instr::ReadField { next, .. }, Succ::Next)
            | (Instr::WriteField { next, .. }, Succ::Next)
            | (Instr::ReadArr { next, .. }, Succ::Next)
            | (Instr::WriteArr { next, .. }, Succ::Next)
            | (Instr::Call { next, .. }, Succ::Next)
            | (Instr::Fork { next, .. }, Succ::Next)
            | (Instr::Join { next, .. }, Succ::Next)
            | (Instr::Wait { next, .. }, Succ::Next)
            | (Instr::Notify { next, .. }, Succ::Next)
            | (Instr::Check { next, .. }, Succ::Next) => next,
            (i, s) => unreachable!("hole {s:?} does not match instruction {i:?}"),
        };
        *field = target;
    }

    fn patch_all(&mut self, holes: &[Hole], target: u32) {
        for &h in holes {
            self.patch(h, target);
        }
    }
}

/// Per-method lowering state: the slot map.
struct MethodLowerer<'c, 'p> {
    ctx: &'c mut Ctx<'p>,
    slots: HashMap<Sym, SlotId>,
    slot_names: Vec<Sym>,
}

const HOLE: u32 = u32::MAX;

impl MethodLowerer<'_, '_> {
    fn slot(&mut self, x: Sym) -> SlotId {
        if let Some(&s) = self.slots.get(&x) {
            return s;
        }
        let s = self.slot_names.len() as SlotId;
        self.slot_names.push(x);
        self.slots.insert(x, s);
        s
    }

    fn push_expr(&mut self, ce: CExpr) -> ExprId {
        let id = self.ctx.exprs.len() as ExprId;
        self.ctx.exprs.push(ce);
        id
    }

    fn operand(&mut self, e: &Expr) -> Option<Operand> {
        Some(match e {
            Expr::Int(n) => Operand::Const(Value::Int(*n)),
            Expr::Bool(b) => Operand::Const(Value::Bool(*b)),
            Expr::Null => Operand::Const(Value::Null),
            Expr::Var(x) => Operand::Slot(self.slot(*x)),
            _ => return None,
        })
    }

    fn expr(&mut self, e: &Expr) -> ExprId {
        let ce = match e {
            Expr::Int(n) => CExpr::Const(Value::Int(*n)),
            Expr::Bool(b) => CExpr::Const(Value::Bool(*b)),
            Expr::Null => CExpr::Const(Value::Null),
            Expr::Var(x) => CExpr::Slot(self.slot(*x)),
            Expr::Len(a) => CExpr::Len(self.slot(*a)),
            Expr::Unop(op, a) => match self.operand(a) {
                Some(a) => CExpr::Un { op: *op, a },
                None => self.flatten(e),
            },
            Expr::Binop(op, a, b) => match (self.operand(a), self.operand(b)) {
                (Some(a), Some(b)) => CExpr::Bin { op: *op, a, b },
                _ => self.flatten(e),
            },
        };
        self.push_expr(ce)
    }

    /// General fallback: postfix register ops, in the recursive
    /// evaluator's left-to-right order.
    fn flatten(&mut self, e: &Expr) -> CExpr {
        let mut ops = Vec::new();
        let out = self.flatten_into(e, &mut ops, 0);
        CExpr::Ops {
            ops: ops.into_boxed_slice(),
            out,
        }
    }

    fn flatten_into(&mut self, e: &Expr, ops: &mut Vec<EOp>, r: Reg) -> Reg {
        self.ctx.max_regs = self.ctx.max_regs.max(r + 2);
        match e {
            Expr::Int(n) => ops.push(EOp::Const {
                r,
                v: Value::Int(*n),
            }),
            Expr::Bool(b) => ops.push(EOp::Const {
                r,
                v: Value::Bool(*b),
            }),
            Expr::Null => ops.push(EOp::Const { r, v: Value::Null }),
            Expr::Var(x) => {
                let s = self.slot(*x);
                ops.push(EOp::Slot { r, s });
            }
            Expr::Len(a) => {
                let s = self.slot(*a);
                ops.push(EOp::Len { r, s });
            }
            Expr::Unop(op, a) => {
                self.flatten_into(a, ops, r);
                ops.push(EOp::Un { op: *op, r });
            }
            Expr::Binop(op, a, b) => {
                self.flatten_into(a, ops, r);
                self.flatten_into(b, ops, r + 1);
                ops.push(EOp::Bin {
                    op: *op,
                    a: r,
                    b: r + 1,
                });
            }
        }
        r
    }

    fn emit(&mut self, i: Instr) -> u32 {
        let pc = self.ctx.code.len() as u32;
        self.ctx.code.push(i);
        pc
    }

    fn lower_block(&mut self, b: &Block, mut pending: Vec<Hole>) -> Vec<Hole> {
        for s in &b.stmts {
            pending = self.lower_stmt(s, pending);
        }
        pending
    }

    /// Lowers one statement; `pending` holes are patched to its entry.
    /// Returns the holes dangling off its exit(s).
    fn lower_stmt(&mut self, s: &Stmt, pending: Vec<Hole>) -> Vec<Hole> {
        let instr = match &s.kind {
            StmtKind::Skip => Instr::Skip { next: HOLE },
            StmtKind::Assign { x, e } => {
                let e = self.expr(e);
                Instr::Assign {
                    dst: self.slot(*x),
                    e,
                    next: HOLE,
                }
            }
            StmtKind::Rename { fresh, old } => Instr::Rename {
                fresh: self.slot(*fresh),
                old: self.slot(*old),
                next: HOLE,
            },
            StmtKind::If {
                cond,
                then_b,
                else_b,
            } => {
                let cond = self.expr(cond);
                let bpc = self.emit(Instr::Branch {
                    cond,
                    then_pc: HOLE,
                    else_pc: HOLE,
                });
                self.ctx.patch_all(&pending, bpc);
                let mut holes = self.lower_arm(then_b, bpc, Succ::Then);
                holes.extend(self.lower_arm(else_b, bpc, Succ::Else));
                return holes;
            }
            StmtKind::Loop { head, exit, tail } => {
                let le = self.emit(Instr::LoopEnter { head: HOLE });
                self.ctx.patch_all(&pending, le);
                let tail_start = self.ctx.code.len() as u32;
                let tail_holes = self.lower_block(tail, Vec::new());
                let head_start = self.ctx.code.len() as u32;
                let head_holes = self.lower_block(head, Vec::new());
                let exit = self.expr(exit);
                let jpc = self.emit(Instr::LoopJunction {
                    exit,
                    body: HOLE,
                    done: HOLE,
                });
                let head_entry = if head_start < jpc { head_start } else { jpc };
                let tail_entry = if tail_start < head_start {
                    tail_start
                } else {
                    head_entry
                };
                self.ctx.patch(
                    Hole {
                        pc: le,
                        succ: Succ::Next,
                    },
                    head_entry,
                );
                self.ctx.patch_all(&tail_holes, head_entry);
                self.ctx.patch_all(&head_holes, jpc);
                self.ctx.patch(
                    Hole {
                        pc: jpc,
                        succ: Succ::Next,
                    },
                    tail_entry,
                );
                return vec![Hole {
                    pc: jpc,
                    succ: Succ::LoopDone,
                }];
            }
            StmtKind::Acquire { lock } => Instr::Acquire {
                lock: self.slot(*lock),
                next: HOLE,
            },
            StmtKind::Release { lock } => Instr::Release {
                lock: self.slot(*lock),
                next: HOLE,
            },
            StmtKind::New { x, class } => Instr::New {
                dst: self.slot(*x),
                class: self.ctx.index.class(*class).map(|ci| ci as u32),
                name: *class,
                next: HOLE,
            },
            StmtKind::NewArray { x, len } => {
                let len = self.expr(len);
                Instr::NewArray {
                    dst: self.slot(*x),
                    len,
                    next: HOLE,
                }
            }
            StmtKind::ReadField { x, obj, field } => Instr::ReadField {
                dst: self.slot(*x),
                obj: self.slot(*obj),
                site: self.ctx.field_site(*field),
                next: HOLE,
            },
            StmtKind::WriteField { obj, field, src } => Instr::WriteField {
                obj: self.slot(*obj),
                site: self.ctx.field_site(*field),
                src: self.slot(*src),
                next: HOLE,
            },
            StmtKind::ReadArr { x, arr, idx } => {
                let idx = self.expr(idx);
                Instr::ReadArr {
                    dst: self.slot(*x),
                    arr: self.slot(*arr),
                    idx,
                    next: HOLE,
                }
            }
            StmtKind::WriteArr { arr, idx, src } => {
                let idx = self.expr(idx);
                Instr::WriteArr {
                    arr: self.slot(*arr),
                    idx,
                    src: self.slot(*src),
                    next: HOLE,
                }
            }
            StmtKind::Call {
                x,
                recv,
                meth,
                args,
            } => {
                let site = self.call_site(*recv, *meth, args);
                Instr::Call {
                    dst: self.slot(*x),
                    site,
                    next: HOLE,
                }
            }
            StmtKind::Fork {
                x,
                recv,
                meth,
                args,
            } => {
                let site = self.call_site(*recv, *meth, args);
                Instr::Fork {
                    dst: self.slot(*x),
                    site,
                    next: HOLE,
                }
            }
            StmtKind::Join { t } => Instr::Join {
                t: self.slot(*t),
                next: HOLE,
            },
            StmtKind::Wait { lock } => Instr::Wait {
                lock: self.slot(*lock),
                next: HOLE,
            },
            StmtKind::Notify { lock } => Instr::Notify {
                lock: self.slot(*lock),
                next: HOLE,
            },
            StmtKind::Check { paths } => {
                let cpaths: Box<[CPath]> = paths
                    .iter()
                    .map(|cp| match &cp.path {
                        Path::Fields { base, fields } => CPath::Fields {
                            kind: cp.kind,
                            base: self.slot(*base),
                            res: self.ctx.check_fields_path(fields),
                        },
                        Path::Arr { base, range } => {
                            let base = self.slot(*base);
                            let lo = self.expr(&range.lo);
                            let hi = self.expr(&range.hi);
                            CPath::Arr {
                                kind: cp.kind,
                                base,
                                lo,
                                hi,
                                step: range.step,
                            }
                        }
                    })
                    .collect();
                let site = self.ctx.check_sites.len() as u32;
                self.ctx.check_sites.push(CheckSite { paths: cpaths });
                Instr::Check { site, next: HOLE }
            }
        };
        let pc = self.emit(instr);
        self.ctx.patch_all(&pending, pc);
        vec![Hole {
            pc,
            succ: Succ::Next,
        }]
    }

    /// Lowers one `if` arm; an empty arm leaves the branch's own hole
    /// dangling (zero extra steps, exactly like the interpreter pushing
    /// no statements).
    fn lower_arm(&mut self, b: &Block, bpc: u32, succ: Succ) -> Vec<Hole> {
        let start = self.ctx.code.len() as u32;
        let holes = self.lower_block(b, vec![Hole { pc: bpc, succ }]);
        debug_assert!(b.stmts.is_empty() || start < self.ctx.code.len() as u32);
        holes
    }

    fn call_site(&mut self, recv: Sym, meth: Sym, args: &[Sym]) -> u32 {
        let recv = self.slot(recv);
        let arg_slots: Box<[SlotId]> = args.iter().map(|a| self.slot(*a)).collect();
        let by_class: Box<[CallTarget]> = (0..self.ctx.program.classes.len())
            .map(|ci| match self.ctx.index.method(ci, meth) {
                Some(mi) => {
                    let mdef = &self.ctx.program.classes[ci].methods[mi];
                    if mdef.params.len() == args.len() {
                        CallTarget::Method(self.ctx.method_ids[&(ci, mi)])
                    } else {
                        CallTarget::Arity {
                            expected: mdef.params.len() as u32,
                        }
                    }
                }
                None => CallTarget::Unknown,
            })
            .collect();
        let id = self.ctx.call_sites.len() as u32;
        self.ctx.call_sites.push(CallSite {
            meth,
            recv,
            args: arg_slots,
            by_class,
        });
        id
    }
}
