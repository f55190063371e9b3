//! Differential test: the dense slab shadow stores must be observationally
//! identical to plain map-based stores.
//!
//! [`set_force_map_store`] routes every store through the spill map, so the
//! same binary can run both layouts. The hook is process-global, which is
//! why this file holds exactly one `#[test]`: it gets its own test binary
//! and nothing else in the process can observe the flipped flag.

use std::path::Path;

use bigfoot::instrument;
use bigfoot_bfj::{
    parse_program, trace::TraceWriter, Event, EventSink, Interp, Program, SchedPolicy,
};
use bigfoot_detectors::{replay_trace, Detector, ProxyTable, ReplayConfig, TraceReader};
use bigfoot_fuzz::FuzzCase;
use bigfoot_shadow::slab::set_force_map_store;
use bigfoot_workloads::{benchmarks, Scale};

const MAX_STEPS: u64 = 50_000_000;
const FUZZ_SEEDS: std::ops::RangeInclusive<u64> = 1..=20;

/// Runs all five detector configurations serially and through trace
/// replay, returning `(label, observation)`
/// pairs. The observation is the compact stats JSON plus the full
/// deduplicated race list — everything a run can externally report.
fn observe_all(bytes: &[u8], events: &[Event], proxies: &ProxyTable) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let serial: Vec<(&str, Detector)> = vec![
        ("FT", Detector::fasttrack()),
        ("RC", Detector::redcard(proxies.clone())),
        ("SS", Detector::slimstate()),
        ("SC", Detector::slimcard(proxies.clone())),
        ("BF", Detector::bigfoot(proxies.clone())),
    ];
    for (name, mut det) in serial {
        for ev in events {
            det.event(ev);
        }
        let stats = det.finish();
        out.push((
            format!("serial/{name}"),
            format!(
                "{} races={:?}",
                stats.to_json().to_string_compact(),
                stats.races
            ),
        ));
    }
    let configs: Vec<(&str, ReplayConfig)> = vec![
        ("FT", ReplayConfig::fasttrack(1)),
        ("RC", ReplayConfig::redcard(proxies.clone(), 1)),
        ("SS", ReplayConfig::slimstate(1)),
        ("SC", ReplayConfig::slimcard(proxies.clone(), 1)),
        ("BF", ReplayConfig::bigfoot(proxies.clone(), 1)),
    ];
    for (name, config) in configs {
        let stats = replay_trace(bytes, &config).expect("replay");
        out.push((
            format!("replay/{name}"),
            format!(
                "{} races={:?}",
                stats.to_json().to_string_compact(),
                stats.races
            ),
        ));
    }
    out
}

/// Records the instrumented program's trace, or `None` if the schedule
/// hits the step ceiling (possible for generated programs — such cases
/// carry no observation to compare).
fn record(program: &Program, policy: SchedPolicy) -> Option<(Vec<u8>, Vec<Event>)> {
    let mut writer = TraceWriter::new();
    Interp::new(program, policy)
        .with_max_steps(MAX_STEPS)
        .run(&mut writer)
        .ok()?;
    let bytes = writer.into_bytes();
    let events: Vec<Event> = TraceReader::new(&bytes)
        .expect("trace header")
        .map(|ev| ev.expect("trace event"))
        .collect();
    Some((bytes, events))
}

#[test]
fn slab_and_map_stores_are_observationally_identical() {
    let mut programs: Vec<(String, Program, SchedPolicy)> = Vec::new();
    for b in benchmarks(Scale::Small) {
        programs.push((
            format!("suite/{}", b.name),
            b.program,
            SchedPolicy::default(),
        ));
    }
    let corpus = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"));
    for entry in bigfoot_fuzz::load_dir(corpus).expect("corpus loads") {
        let program = parse_program(&entry.source).expect("corpus entry parses");
        programs.push((
            format!("corpus/{}", entry.path.display()),
            program,
            entry.policy,
        ));
    }
    for seed in FUZZ_SEEDS {
        let case = FuzzCase::from_seed(seed).expect("fuzz case");
        programs.push((format!("fuzz/seed{seed}"), case.program, case.policy));
    }

    let mut compared = 0usize;
    for (label, program, policy) in &programs {
        let inst = instrument(program);
        let Some((bytes, events)) = record(&inst.program, *policy) else {
            continue;
        };

        set_force_map_store(false);
        let slab = observe_all(&bytes, &events, &inst.proxies);
        set_force_map_store(true);
        let map = observe_all(&bytes, &events, &inst.proxies);
        set_force_map_store(false);

        assert_eq!(slab.len(), map.len(), "{label}: observation count differs");
        for ((k_slab, v_slab), (k_map, v_map)) in slab.iter().zip(&map) {
            assert_eq!(k_slab, k_map, "{label}: observation order differs");
            assert_eq!(
                v_slab, v_map,
                "{label} {k_slab}: slab and map stores diverge"
            );
            compared += 1;
        }
    }
    // 5 serial + 2×5 replay observations per program; the suite alone
    // contributes 7 programs — if this collapses, the harness is broken.
    assert!(
        compared >= 7 * 15,
        "too few observations compared: {compared}"
    );
}
