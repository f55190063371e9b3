//! BFJ (BigFoot Java): the idealized concurrent object language from
//! *BigFoot: Static Check Placement for Dynamic Race Detection* (PLDI
//! 2017), §3.1 — with a parser, a pretty-printer, a bytecode compiler and
//! a deterministic multi-threaded VM that streams race-detection events.
//!
//! This crate is the execution substrate of the BigFoot reproduction:
//! programs are parsed (and automatically lowered to A-normal form),
//! instrumented by the `bigfoot` crate's static analysis, lowered once to
//! register bytecode by [`compile()`], and executed on [`CompiledVm`] while a
//! dynamic detector consumes the [`Event`] stream. The tree-walking
//! [`Interp`] is the reference semantics the VM is tested against; both
//! run on one green-thread scheduler ([`sched`]) and emit byte-identical
//! event streams for every program and [`SchedPolicy`].
//!
//! # Quick example
//!
//! ```
//! use bigfoot_bfj::{compile, parse_program, CompiledVm, RecordingSink, SchedPolicy};
//!
//! let program = parse_program(
//!     "class Counter {
//!          field n;
//!          meth bump() { this.n = this.n + 1; return this.n; }
//!      }
//!      main {
//!          c = new Counter;
//!          v = c.bump();
//!      }",
//! )?;
//! let mut sink = RecordingSink::default();
//! CompiledVm::new(&compile(&program), SchedPolicy::default()).run(&mut sink)?;
//! // Alloc of c, then bump() reads c.n, writes it, and reads it again
//! // for the return, then the main thread exits.
//! assert_eq!(sink.events.len(), 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod ast;
pub mod compile;
pub mod event;
pub mod fingerprint;
pub mod interp;
pub mod lexer;
pub mod mutate;
pub mod parser;
pub mod pretty;
pub mod sched;
mod sym;
pub mod trace;

pub use ast::{
    AccessKind, Binop, Block, CheckPath, ClassDef, Expr, MethodDef, Path, Program, Range, Stmt,
    StmtId, StmtKind, Unop,
};
pub use compile::{compile, CompiledProgram, CompiledVm};
pub use event::{
    ArrId, CheckRef, CheckTarget, ConcreteRange, Event, EventSink, Loc, NullSink, ObjId,
    RecordingSink,
};
pub use fingerprint::{
    fingerprint_block, fingerprint_body, fingerprint_method, FINGERPRINT_VERSION,
};
pub use interp::{
    eval, Env, Heap, Interp, ProgramIndex, RunOutcome, RuntimeError, SymHasher, Value,
    MAX_ARRAY_LEN,
};
pub use lexer::{tokenize, LexError, Token};
pub use mutate::{mutate, site_count, MutationKind};
pub use parser::{parse_expr, parse_program, parse_program_with_lines, ParseError, MAX_NESTING};
pub use pretty::{pretty, pretty_check_path, pretty_expr, pretty_stmt};
pub use sched::SchedPolicy;
pub use sym::Sym;
pub use trace::compress::{
    compress, decompress, decompress_to, is_compressed, read_compressed, CompressedTrace,
    CompressedTraceWriter, DeltaState, COMPRESSED_MAGIC, COMPRESSED_VERSION,
};
pub use trace::{TraceError, TraceWriter, TRACE_MAGIC, TRACE_VERSION};

/// Re-export of the thread-id type used throughout the event stream.
pub use bigfoot_vc::Tid;
