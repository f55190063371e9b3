//! End-to-end benchmark of the BigFoot checker on the compiled tier.
//!
//! Three single-threaded, closed-loop workloads with one client run in
//! whole passes over their inputs (see `NOTES.md`):
//!
//! * `check-suite` — parse, instrument, lower, run and detect, per suite
//!   program;
//! * `recheck-edits` — edit one method, re-analyze against a warm
//!   placement cache, run and detect;
//! * `replay-suite` — replay recorded `BFTR`/`BFTC` traces.
//!
//! Every verdict is checked against a known answer that does not come
//! from BigFoot. A separate traced run of the same inputs records a span
//! around every call into a layer and reports per-layer metrics.

pub mod check_suite;
pub mod driver;
pub mod exec;
pub mod layers;
pub mod ledger;
pub mod recheck_edits;
pub mod replay_suite;
pub mod stats;

pub use driver::{run, Config, Report, WORKLOADS};
