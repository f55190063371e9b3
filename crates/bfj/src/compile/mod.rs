//! The BFJ compilation tier: AST → flat register bytecode → [`CompiledVm`],
//! the executor every tool runs programs on.
//!
//! The reference [`Interp`](crate::Interp) walks the AST and pays for a
//! `HashMap` environment lookup per variable mention, a `Vec<Work>`
//! push/pop per statement, and `Box<Expr>` pointer-chasing per operator.
//! BigFoot's overhead ratios are only honest when the *baseline* execution
//! is fast, which is also how the paper's StaticBF placements were meant
//! to be consumed: inlined into compiled code.
//!
//! [`compile`] lowers a (possibly instrumented) program once:
//!
//! * every local resolves to a dense **frame slot** (no hashing at run
//!   time; an init bitmask preserves unbound-variable errors),
//! * every statement becomes exactly **one instruction** carrying its
//!   explicit successor pc(s), so block joins cost zero steps and the
//!   instruction count per schedule equals the interpreter's step count,
//! * field, method, and `new` sites are **pre-bound per class** (the
//!   run-time class indexes a flat table instead of a name lookup),
//! * `check(C)` statements — the StaticBF placements chosen by
//!   `bigfoot-core` — compile to direct [`EventSink`](crate::EventSink)
//!   calls with their field indices pre-resolved per class, and
//! * expressions flatten to postfix register ops over a shared scratch
//!   file, preserving the recursive evaluator's exact evaluation and
//!   type-check order.
//!
//! [`CompiledVm`] runs that bytecode on the green-thread scheduler of
//! [`crate::sched`], the one the interpreter runs on too: the thread and
//! lock tables, the seeded RNG, quantum accounting, wake order, and
//! deadlock and step-limit handling are shared code, and the VM keeps only
//! frame-level state (slots, pcs, call frames, final environments). Within
//! a `RoundRobin` quantum it runs consecutive instructions that cannot
//! wake another thread in one tight slice, without re-entering the
//! scheduler per step. The contract, enforced by a fuzz oracle, a
//! differential suite and a schedule golden test, is **byte identity**:
//! for any program and [`SchedPolicy`](crate::SchedPolicy), the
//! BFTR-encoded event stream of the compiled run equals the interpreted
//! run's, bit for bit.

mod lower;
mod vm;

pub use lower::{compile, CompiledProgram};
pub use vm::CompiledVm;
