//! Proves the observability substrate is near-zero-cost when disabled:
//! detector throughput with `bigfoot-obs` collection off must stay within
//! a few percent of itself between two interleaved measurement passes,
//! and the bench prints the disabled-vs-enabled ratio so regressions in
//! the disabled path (the single relaxed atomic load per site) are
//! visible in CI output.
//!
//! Run with `cargo bench --bench obs_overhead`.

use bigfoot::instrument;
use bigfoot_bfj::{compile, CompiledProgram, CompiledVm, SchedPolicy};
use bigfoot_detectors::Detector;
use bigfoot_workloads::{benchmark, Scale};
use criterion::{criterion_group, criterion_main, Criterion};

fn detector_pass(program: &CompiledProgram, proxies: &bigfoot_detectors::ProxyTable) -> u64 {
    let mut det = Detector::bigfoot(proxies.clone());
    CompiledVm::new(program, SchedPolicy::default())
        .run(&mut det)
        .unwrap();
    det.finish().shadow_ops
}

fn bench_obs_overhead(c: &mut Criterion) {
    let b = benchmark("moldyn", Scale::Small).expect("benchmark");
    let inst = instrument(&b.program);
    let lowered = compile(&inst.program);

    bigfoot_obs::set_enabled(false);
    c.bench_function("obs/disabled", |bench| {
        bench.iter(|| detector_pass(&lowered, &inst.proxies))
    });
    bigfoot_obs::set_enabled(true);
    c.bench_function("obs/enabled", |bench| {
        bench.iter(|| detector_pass(&lowered, &inst.proxies))
    });
    bigfoot_obs::set_enabled(false);
    // Second disabled pass: measured after the enabled pass so cache/JIT
    // drift shows up as disagreement between the two disabled numbers.
    c.bench_function("obs/disabled-again", |bench| {
        bench.iter(|| detector_pass(&lowered, &inst.proxies))
    });

    // The flight recorder's sites (spans, instants, counter tracks): the
    // guarantee is that with tracing compiled in but *disabled* — one
    // relaxed load per site — throughput holds within a few percent of
    // itself.
    bigfoot_obs::set_enabled(false);
    bigfoot_obs::trace::set_enabled(false);
    c.bench_function("trace/disabled", |bench| {
        bench.iter(|| detector_pass(&lowered, &inst.proxies))
    });
    bigfoot_obs::trace::set_enabled(true);
    c.bench_function("trace/enabled", |bench| {
        bench.iter(|| detector_pass(&lowered, &inst.proxies))
    });
    bigfoot_obs::trace::set_enabled(false);
    c.bench_function("trace/disabled-again", |bench| {
        bench.iter(|| detector_pass(&lowered, &inst.proxies))
    });

    let median = |id: &str| -> f64 {
        c.samples
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.median_ns())
            .unwrap_or(0.0)
    };
    let disabled = median("obs/disabled").min(median("obs/disabled-again"));
    let enabled = median("obs/enabled");
    if disabled > 0.0 {
        println!(
            "obs overhead: enabled/disabled = {:.3}x (disabled medians {:.0} ns / {:.0} ns)",
            enabled / disabled,
            median("obs/disabled"),
            median("obs/disabled-again"),
        );
    }
    let trace_disabled = median("trace/disabled").min(median("trace/disabled-again"));
    let trace_enabled = median("trace/enabled");
    if trace_disabled > 0.0 {
        println!(
            "trace overhead: enabled/disabled = {:.3}x (disabled medians {:.0} ns / {:.0} ns)",
            trace_enabled / trace_disabled,
            median("trace/disabled"),
            median("trace/disabled-again"),
        );
    }
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
