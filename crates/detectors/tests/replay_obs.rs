//! What replay publishes to the obs registry. A replayed trace adds its
//! events to `det.events`; a malformed one adds nothing, although raw
//! replay runs on `Detector`, whose `Drop` publishes the events of a run
//! abandoned part-way, and compressed replay walks the top-level sequence
//! as it reads it, so a container found malformed at its end has been
//! walked whole. A test binary of its own, so no other test publishes to
//! the global registry meanwhile.

use bigfoot_bfj::trace::decode_into;
use bigfoot_bfj::{
    compile, compress, parse_program, CompiledVm, NullSink, SchedPolicy, TraceWriter,
};
use bigfoot_detectors::{replay_compressed, replay_trace, ProxyTable, ReplayConfig};
use bigfoot_obs::{snapshot, EnabledGuard};

/// A two-thread racy run, recorded.
fn recorded() -> Vec<u8> {
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
    w.into_bytes()
}

/// Replays `good` and then `bad` with `replay` under two configurations:
/// the good one must add `events` to `det.events`, the bad one nothing.
fn assert_failure_publishes_nothing<E: std::fmt::Display, T: std::fmt::Debug>(
    good: &[u8],
    bad: &[u8],
    events: u64,
    replay: impl Fn(&[u8], &ReplayConfig) -> Result<T, E>,
) {
    for config in [
        ReplayConfig::fasttrack(1),
        ReplayConfig::bigfoot(ProxyTable::identity(), 1),
    ] {
        let before = snapshot().counter("det.events");
        let stats = replay(good, &config).unwrap_or_else(|e| panic!("replay: {e}"));
        let after = snapshot().counter("det.events");
        assert_eq!(after - before, events, "{stats:?}");
        let Err(err) = replay(bad, &config) else {
            panic!("the damaged input replayed");
        };
        assert_eq!(
            snapshot().counter("det.events"),
            after,
            "replay that failed with `{err}` published events"
        );
    }
}

/// One test, so that the two forms never publish at the same time.
#[test]
fn a_malformed_trace_publishes_no_events() {
    let raw = recorded();
    let events = decode_into(&raw, &mut NullSink).expect("decode");
    let packed = compress(&raw).expect("compress");
    let _on = EnabledGuard::new();
    assert_failure_publishes_nothing(&raw, &raw[..raw.len() - 1], events, replay_trace);
    // Cut before the claimed total: the walk has run every pair when the
    // error surfaces.
    let cut = &packed[..packed.len() - 1];
    assert_failure_publishes_nothing(&packed, cut, events, replay_compressed);
}
