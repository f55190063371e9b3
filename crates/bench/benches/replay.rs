//! Criterion bench: serial detection vs trace replay.
//!
//! Each benchmark program is recorded once; the bench then measures the
//! pure detection stage — the serial [`Detector`] fed from the trace, and
//! [`replay_trace`] — over identical input bytes, so the comparison
//! isolates detection from execution.

use bigfoot::instrument;
use bigfoot_bfj::{compile, trace::TraceWriter, CompiledVm, EventSink, SchedPolicy};
use bigfoot_detectors::{replay_trace, Detector, ReplayConfig, TraceReader};
use bigfoot_workloads::{benchmark, Scale};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for name in ["crypt", "moldyn", "raytracer", "lufact"] {
        let b = benchmark(name, Scale::Small).expect("benchmark");
        let inst = instrument(&b.program);
        let mut writer = TraceWriter::new();
        CompiledVm::new(&compile(&inst.program), SchedPolicy::default())
            .run(&mut writer)
            .expect("run");
        let bytes = writer.into_bytes();

        group.bench_with_input(BenchmarkId::new("serial", name), &bytes, |bench, bytes| {
            bench.iter(|| {
                let mut det = Detector::bigfoot(inst.proxies.clone());
                for ev in TraceReader::new(bytes).expect("header") {
                    det.event(&ev.expect("event"));
                }
                det.finish().shadow_ops
            })
        });
        let config = ReplayConfig::bigfoot(inst.proxies.clone(), 1);
        group.bench_with_input(BenchmarkId::new("replay", name), &bytes, |bench, bytes| {
            bench.iter(|| replay_trace(bytes, &config).expect("replay").shadow_ops)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
