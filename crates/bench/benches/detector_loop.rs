//! Criterion bench of the detector event loop alone: each benchmark is
//! recorded to a trace once and the pre-decoded events are streamed
//! through the detector, so the numbers move with the detector hot path
//! and not with the VM. This is the bench the `BENCH.json`
//! events/sec baseline tracks (see docs/PERFORMANCE.md).

use bigfoot::{instrument, naive_instrument};
use bigfoot_bfj::{
    compile, trace::TraceWriter, CompiledVm, Event, EventSink, Program, SchedPolicy,
};
use bigfoot_detectors::{ArrayEngine, CheckSource, Detector, ProxyTable, TraceReader};
use bigfoot_workloads::{benchmark, Scale};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn record(program: &Program) -> Vec<Event> {
    let mut writer = TraceWriter::new();
    CompiledVm::new(&compile(program), SchedPolicy::default())
        .run(&mut writer)
        .expect("run");
    let bytes = writer.into_bytes();
    TraceReader::new(&bytes)
        .expect("trace header")
        .map(|ev| ev.expect("trace event"))
        .collect()
}

fn drive(events: &[Event], mut det: Detector) -> u64 {
    for ev in events {
        det.event(ev);
    }
    det.finish().shadow_ops
}

fn bench_detector_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("detector_loop");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for name in ["crypt", "moldyn", "lufact"] {
        let b = benchmark(name, Scale::Small).expect("benchmark");
        let naive_trace = record(&naive_instrument(&b.program));
        let inst = instrument(&b.program);
        let bf_trace = record(&inst.program);

        group.bench_with_input(BenchmarkId::new("FT", name), &naive_trace, |bench, t| {
            bench.iter(|| {
                drive(
                    t,
                    Detector::new(
                        "FT",
                        CheckSource::CheckEvents,
                        ArrayEngine::Fine,
                        ProxyTable::identity(),
                    ),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("SS", name), &naive_trace, |bench, t| {
            bench.iter(|| {
                drive(
                    t,
                    Detector::new(
                        "SS",
                        CheckSource::CheckEvents,
                        ArrayEngine::Footprint,
                        ProxyTable::identity(),
                    ),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("BF", name), &bf_trace, |bench, t| {
            bench.iter(|| drive(t, Detector::bigfoot(inst.proxies.clone())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_detector_loop);
criterion_main!(benches);
