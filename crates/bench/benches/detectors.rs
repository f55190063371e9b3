//! Criterion benches: end-to-end detector throughput on representative
//! Table 1 workloads (small scale — the full sweep lives in `repro`).

use bigfoot::{instrument, naive_instrument, redcard_instrument};
use bigfoot_bfj::{compile, CompiledVm, NullSink, SchedPolicy};
use bigfoot_detectors::{ArrayEngine, CheckSource, Detector, ProxyTable};
use bigfoot_workloads::{benchmark, Scale};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_detectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("detectors");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for name in ["crypt", "moldyn", "h2", "raytracer", "lufact"] {
        let b = benchmark(name, Scale::Small).expect("benchmark");
        let inst = instrument(&b.program);
        let (rc_prog, rc_proxies) = redcard_instrument(&b.program);
        let base = compile(&b.program);
        let naive = compile(&naive_instrument(&b.program));
        let rc_prog = compile(&rc_prog);
        let bf_prog = compile(&inst.program);

        group.bench_with_input(BenchmarkId::new("base", name), &base, |bench, p| {
            bench.iter(|| {
                CompiledVm::new(p, SchedPolicy::default())
                    .run(&mut NullSink)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("FT", name), &naive, |bench, p| {
            bench.iter(|| {
                let mut det = Detector::new(
                    "FT",
                    CheckSource::CheckEvents,
                    ArrayEngine::Fine,
                    ProxyTable::identity(),
                );
                CompiledVm::new(p, SchedPolicy::default())
                    .run(&mut det)
                    .unwrap();
                det.finish().shadow_ops
            })
        });
        group.bench_with_input(BenchmarkId::new("RC", name), &rc_prog, |bench, p| {
            bench.iter(|| {
                let mut det = Detector::redcard(rc_proxies.clone());
                CompiledVm::new(p, SchedPolicy::default())
                    .run(&mut det)
                    .unwrap();
                det.finish().shadow_ops
            })
        });
        group.bench_with_input(BenchmarkId::new("SS", name), &naive, |bench, p| {
            bench.iter(|| {
                let mut det = Detector::new(
                    "SS",
                    CheckSource::CheckEvents,
                    ArrayEngine::Footprint,
                    ProxyTable::identity(),
                );
                CompiledVm::new(p, SchedPolicy::default())
                    .run(&mut det)
                    .unwrap();
                det.finish().shadow_ops
            })
        });
        group.bench_with_input(BenchmarkId::new("BF", name), &bf_prog, |bench, p| {
            bench.iter(|| {
                let mut det = Detector::bigfoot(inst.proxies.clone());
                CompiledVm::new(p, SchedPolicy::default())
                    .run(&mut det)
                    .unwrap();
                det.finish().shadow_ops
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_detectors);
criterion_main!(benches);
