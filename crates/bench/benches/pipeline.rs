//! Criterion bench: serial vs pipelined end-to-end detection.
//!
//! Measures the full execute-and-detect loop two ways — detector inline
//! with the compiled VM on one thread, and detector on its own thread fed
//! through the batched SPSC ring — plus a batch-size sweep, so the
//! overlap win and the hand-off overhead are both visible.

use bigfoot::instrument;
use bigfoot_bfj::{compile, CompiledVm, SchedPolicy};
use bigfoot_detectors::{
    detect_pipelined, run_pipelined, Detector, DjitDetector, PipelineConfig, DEFAULT_RING_SLOTS,
};
use bigfoot_workloads::{benchmark, Scale};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for name in ["crypt", "moldyn", "raytracer", "lufact"] {
        let b = benchmark(name, Scale::Small).expect("benchmark");
        let inst = instrument(&b.program);
        let lowered = compile(&inst.program);

        group.bench_with_input(BenchmarkId::new("serial", name), &inst, |bench, inst| {
            bench.iter(|| {
                let mut det = Detector::bigfoot(inst.proxies.clone());
                CompiledVm::new(&lowered, SchedPolicy::default())
                    .run(&mut det)
                    .expect("run");
                det.finish().shadow_ops
            })
        });
        for batch in [256usize, 4096, 16384] {
            let config = PipelineConfig {
                batch_events: batch,
                ring_slots: DEFAULT_RING_SLOTS,
            };
            group.bench_with_input(
                BenchmarkId::new(&format!("pipelined-{batch}b"), name),
                &inst,
                |bench, inst| {
                    bench.iter(|| {
                        let (_, stats) = detect_pipelined(
                            &config,
                            |sink| {
                                CompiledVm::new(&lowered, SchedPolicy::default())
                                    .run(sink)
                                    .expect("run")
                            },
                            Detector::bigfoot(inst.proxies.clone()),
                        );
                        stats.shadow_ops
                    })
                },
            );
        }
    }
    group.finish();
}

/// The case the pipeline exists for: a consumer whose per-event cost
/// rivals the VM's. Djit compares full vector clocks on every access, so
/// moving it off the VM thread overlaps real work instead of hiding a few
/// nanoseconds.
fn bench_pipeline_djit(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline-djit");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for name in ["crypt", "moldyn"] {
        let b = benchmark(name, Scale::Small).expect("benchmark");
        let lowered = compile(&instrument(&b.program).program);

        group.bench_with_input(BenchmarkId::new("serial", name), &lowered, |bench, p| {
            bench.iter(|| {
                let mut det = DjitDetector::new();
                CompiledVm::new(p, SchedPolicy::default())
                    .run(&mut det)
                    .expect("run");
                det.finish().shadow_ops
            })
        });
        let config = PipelineConfig::default();
        group.bench_with_input(BenchmarkId::new("pipelined", name), &lowered, |bench, p| {
            bench.iter(|| {
                let (_, det) = run_pipelined(
                    &config,
                    |sink| {
                        CompiledVm::new(p, SchedPolicy::default())
                            .run(sink)
                            .expect("run")
                    },
                    DjitDetector::new(),
                );
                det.finish().shadow_ops
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_pipeline_djit);
criterion_main!(benches);
