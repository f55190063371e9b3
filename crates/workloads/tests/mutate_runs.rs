//! Every `bfj::mutate` edit of a suite program binds every variable it
//! reads, so the edited program runs on `Interp` without an unbound
//! variable. A class method's `AddLock` locks the method's first
//! parameter, which in some suite programs holds an array; those runs stop
//! with a type error, which this test allows.

use bigfoot_bfj::{mutate, site_count, Interp, MutationKind, NullSink, RuntimeError, SchedPolicy};
use bigfoot_workloads::{benchmarks, Scale};

#[test]
fn every_edit_of_every_suite_program_runs_without_unbound_variables() {
    for b in benchmarks(Scale::Small) {
        for site in 0..site_count(&b.program) {
            for kind in MutationKind::ALL {
                let mut edited = b.program.clone();
                let name = mutate(&mut edited, site, kind, 3).expect("site in range");
                let result = Interp::new(&edited, SchedPolicy::default())
                    .with_max_steps(5_000_000)
                    .run(&mut NullSink);
                if let Err(e @ RuntimeError::UnboundVar(_)) = result {
                    panic!("{} {name} {kind:?}: {e}", b.name);
                }
            }
        }
    }
}
