//! BFJ (BigFoot Java): the idealized concurrent object language from
//! *BigFoot: Static Check Placement for Dynamic Race Detection* (PLDI
//! 2017), §3.1 — with a parser, pretty-printer, and a deterministic
//! multi-threaded interpreter that streams race-detection events.
//!
//! This crate is the execution substrate of the BigFoot reproduction:
//! programs are parsed (and automatically lowered to A-normal form),
//! instrumented by the `bigfoot` crate's static analysis, and executed
//! here while a dynamic detector consumes the [`Event`] stream.
//!
//! # Quick example
//!
//! ```
//! use bigfoot_bfj::{parse_program, Interp, RecordingSink, SchedPolicy};
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
//! Interp::new(&program, SchedPolicy::default()).run(&mut sink)?;
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
mod sym;
pub mod trace;

pub use ast::{
    AccessKind, Binop, Block, CheckPath, ClassDef, Expr, MethodDef, Path, Program, Range, Stmt,
    StmtId, StmtKind, Unop,
};
pub use compile::{compile, CompiledProgram, CompiledVm};
pub use event::{
    ArrId, CheckTarget, ConcreteRange, Event, EventSink, Loc, NullSink, ObjId, RecordingSink,
};
pub use fingerprint::{
    fingerprint_block, fingerprint_body, fingerprint_method, FINGERPRINT_VERSION,
};
pub use interp::{
    eval, Env, Heap, Interp, ProgramIndex, RunOutcome, RuntimeError, SchedPolicy, SymHasher, Value,
    MAX_ARRAY_LEN,
};
pub use lexer::{tokenize, LexError, Token};
pub use mutate::{mutate, site_count, MutationKind};
pub use parser::{parse_expr, parse_program, ParseError, MAX_NESTING};
pub use pretty::{pretty, pretty_check_path, pretty_expr, pretty_stmt};
pub use sym::Sym;
pub use trace::compress::{
    compress, decompress, decompress_to, is_compressed, read_compressed, CompressedTrace,
    CompressedTraceWriter, DeltaState, COMPRESSED_MAGIC, COMPRESSED_VERSION,
};
pub use trace::{TraceError, TraceWriter, TRACE_MAGIC, TRACE_VERSION};

/// Re-export of the thread-id type used throughout the event stream.
pub use bigfoot_vc::Tid;
