//! What raw replay publishes to the obs registry. A replayed trace adds
//! its events to `det.events`; a malformed one adds nothing, although
//! replay runs on `Detector`, whose `Drop` publishes the events of a run
//! abandoned part-way. A test binary of its own, so no other test
//! publishes to the global registry meanwhile.

use bigfoot_bfj::trace::decode_into;
use bigfoot_bfj::{compile, parse_program, CompiledVm, NullSink, SchedPolicy, TraceWriter};
use bigfoot_detectors::{replay_trace, ProxyTable, ReplayConfig};
use bigfoot_obs::{snapshot, EnabledGuard};

#[test]
fn a_malformed_trace_publishes_no_events() {
    let p = parse_program(
        "class C { field x; meth poke(v) { this.x = v; return 0; } }
         main {
             c = new C;
             fork t1 = c.poke(1);
             fork t2 = c.poke(2);
             join(t1); join(t2);
         }",
    )
    .expect("parse");
    let mut w = TraceWriter::new();
    CompiledVm::new(&compile(&p), SchedPolicy::default())
        .run(&mut w)
        .expect("run");
    let bytes = w.into_bytes();
    let events = decode_into(&bytes, &mut NullSink).expect("decode");
    let _on = EnabledGuard::new();
    for config in [
        ReplayConfig::fasttrack(1),
        ReplayConfig::bigfoot(ProxyTable::identity(), 1),
    ] {
        let before = snapshot().counter("det.events");
        let stats = replay_trace(&bytes, &config).expect("replay");
        let after = snapshot().counter("det.events");
        assert_eq!(after - before, events, "{stats:?}");
        let err = replay_trace(&bytes[..bytes.len() - 1], &config).expect_err("truncated");
        assert_eq!(
            snapshot().counter("det.events"),
            after,
            "replay that failed with `{err}` published events"
        );
    }
}
