//! B IG F OOT: static check placement for dynamic race detection.
//!
//! A from-scratch Rust reproduction of Rhodes, Flanagan & Freund (PLDI
//! 2017). This crate is S TATIC BF — the static analysis that decides
//! *where* race checks go:
//!
//! * analysis contexts `H • A` of history and anticipated facts (§3.2),
//! * the check placement rules of Fig. 7, implemented as a forward
//!   history pass and a backward anticipation pass over BFJ method bodies,
//! * loop-invariant inference by Cartesian predicate abstraction (§5),
//! * post-analysis path coalescing and static field-proxy compression
//!   (§4),
//! * the `[CALL]` kill-set interprocedural analysis,
//! * a whole-program ownership pass, beyond the paper, that deletes the
//!   checks of thread-local, lock-owned and read-only-after-fork
//!   locations ([`InstrumentOptions::ownership`]),
//! * the RedCard baseline instrumenter and a naive per-access
//!   instrumenter for comparisons.
//!
//! The dynamic side (DynamicBF and the baseline detectors) lives in
//! `bigfoot-detectors`; this crate's [`instrument`] output feeds it.
//!
//! # End to end
//!
//! ```
//! use bigfoot_bfj::{compile, parse_program, CompiledVm, SchedPolicy};
//! use bigfoot_detectors::Detector;
//!
//! let program = parse_program(
//!     "class Point {
//!          field x; field y; field z;
//!          meth move(dx, dy, dz) {
//!              this.x = this.x + dx;
//!              this.y = this.y + dy;
//!              this.z = this.z + dz;
//!              return 0;
//!          }
//!      }
//!      main {
//!          p = new Point;
//!          r = p.move(1, 2, 3);
//!      }",
//! )?;
//! let inst = bigfoot::instrument(&program);
//! let mut detector = Detector::bigfoot(inst.proxies.clone());
//! CompiledVm::new(&compile(&inst.program), SchedPolicy::default())
//!     .run(&mut detector)?;
//! let stats = detector.finish();
//! assert!(!stats.has_races());
//! // Six accesses, one coalesced check.
//! assert_eq!(stats.accesses(), 6);
//! assert_eq!(stats.checks, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod backward;
mod cache;
mod cleanup;
mod coalesce;
mod facts;
mod forward;
mod killset;
mod ownership;
mod pipeline;
mod proxy;
mod readset;
mod redcard;
mod rename;

pub use backward::{anticipate_body, anticipate_body_view, ATables};
pub use cache::{CacheEntry, CacheError, PlacementCache, CACHE_FILE, CACHE_MAGIC, CACHE_VERSION};
pub use cleanup::{cleanup_body, cleanup_program};
pub use coalesce::{emit_check, emit_check_opts};
pub use facts::{path_subsumes, APath, Anticipated, History, PathFact};
pub use forward::{
    forward_pass, forward_pass_opts, forward_pass_view, ForwardTables, PlacementOptions,
};
pub use killset::{scan_method_body, volatile_fields, Effects, KillSets, KillSummary};
pub use ownership::{AllocSite, OwnedLocation, OwnershipReport, OwnershipRule};
pub use pipeline::{
    config_fingerprint, count_checks, instrument, instrument_incremental, instrument_with,
    naive_instrument, AnalysisStats, IncrementalStats, InstrumentOptions, Instrumented,
};
pub use proxy::{field_proxies, grouping_from_sets};
pub use readset::{FactView, ReadSet, READSET_VERSION};
pub use redcard::redcard_instrument;
pub use rename::freshen_body;

pub(crate) use forward::eq_fact as forward_eq_fact;
