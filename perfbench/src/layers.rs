//! Per-layer metrics of the traced run.
//!
//! Times are milliseconds per pass (every input once): self time of the
//! layer's spans in the timed ops when the ops call the layer, otherwise
//! its self time during set-up (which handles every input once). Counts
//! follow the same rule. Layers a workload does not exercise read 0.

use crate::driver::{Counts, Extras, Metric, Phase};
use crate::ledger::Ledger;
use crate::stats::{geomean, geomean_of_medians, median, percentile};
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in the order printed.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("parse.ms", "ms"),
    ("parse.mb_per_s", "MB/s"),
    ("static.ms", "ms"),
    ("static.methods", "count"),
    ("static.checks_inserted", "count"),
    ("entail.queries", "count"),
    ("entail.cache_hit_ratio", "1"),
    ("cache.ms", "ms"),
    ("cache.hit_ratio", "1"),
    ("cache.invalid", "count"),
    ("cache.cold_over_plain_x", "x"),
    ("edit.ms", "ms"),
    ("lower.ms", "ms"),
    ("lower.instrs", "count"),
    ("exec.ms", "ms"),
    ("vm.base_ms", "ms"),
    ("vm.instrumented_ms", "ms"),
    ("vm.steps", "count"),
    ("vm.context_switches", "count"),
    ("detect.ms", "ms"),
    ("detect.events_per_s", "1/s"),
    ("detect.checks", "count"),
    ("detect.shadow_ops", "count"),
    ("detect.footprint_ops", "count"),
    ("detect.sync_ops", "count"),
    ("detect.shadow_space_peak", "count"),
    ("detect.check_ratio", "1"),
    ("detect.overhead_x", "x"),
    ("detect.ft_overhead_x", "x"),
    ("detect.bf_over_ft_x", "x"),
    ("trace.encode_ms", "ms"),
    ("trace.bytes_per_event", "B"),
    ("compress.ms", "ms"),
    ("compress.ratio", "x"),
    ("replay.ms", "ms"),
    ("replay.events_per_s", "1/s"),
    ("creplay.ms", "ms"),
    ("creplay.skipped_share", "1"),
    ("creplay.fallbacks", "count"),
    ("ledger.remainder_ms", "ms"),
    ("ledger.remainder_share", "1"),
    ("tracing.overhead_share", "1"),
    ("op.p50_ms", "ms"),
    ("op.p95_ms", "ms"),
];

/// What the per-layer metrics are computed from.
pub struct Inputs<'a> {
    /// Self times from the spans.
    pub ledger: &'a Ledger,
    /// Work done in set-up.
    pub setup_counts: &'a Counts,
    /// In-library counter deltas over set-up.
    pub setup_obs: &'a BTreeMap<String, u64>,
    /// The traced phase.
    pub traced: &'a Phase,
    /// The untraced phase of the same invocation.
    pub untraced: &'a Phase,
    /// Input names, for the per-program table.
    pub names: &'a [String],
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-input medians of one extra measurement, in ms.
fn medians(extras: &[Vec<Extras>], f: impl Fn(&Extras) -> Option<f64>) -> Vec<f64> {
    extras
        .iter()
        .map(|xs| median(&xs.iter().filter_map(&f).collect::<Vec<_>>()))
        .collect()
}

/// Computes every metric of [`PER_LAYER`] and prints the per-program
/// Fig. 2 table to stderr.
pub fn metrics(x: &Inputs) -> Vec<Metric> {
    let led = x.ledger;
    let ph = x.traced;
    let passes = ph.passes.max(1) as f64;
    let in_ops = |layer: &str| led.op_ns(layer).is_some();
    let ms = |layer: &str| match led.op_ns(layer) {
        Some(ns) => ns as f64 / passes / 1e6,
        None => led.setup_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6,
    };
    // A count from the op window (per pass) or from set-up.
    let count = |ops: bool, f: fn(&Counts) -> u64| {
        if ops {
            f(&ph.counts) as f64 / passes
        } else {
            f(x.setup_counts) as f64
        }
    };
    let obs = |ops: bool, prefix: &str| {
        let (map, div) = if ops {
            (&ph.obs, passes)
        } else {
            (x.setup_obs, 1.0)
        };
        map.iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v as f64)
            .sum::<f64>()
            / div
    };
    let static_in_ops = in_ops("static") || in_ops("cache");

    let ms_of = |ns: f64| ns / 1e6;
    let base = medians(&ph.extras, |e| Some(ms_of(e.base_ns as f64)));
    let inst = medians(&ph.extras, |e| Some(ms_of(e.instrumented_ns as f64)));
    let ft = medians(&ph.extras, |e| Some(ms_of(e.fasttrack_ns as f64)));
    let bf = medians(&ph.extras, |e| Some(ms_of(e.bigfoot_ns as f64)));
    let cr = medians(&ph.extras, |e| Some(e.check_ratio));
    let plain = medians(&ph.extras, |e| e.plain_static_ns.map(|n| ms_of(n as f64)));
    let cold = medians(&ph.extras, |e| e.cold_cache_ns.map(|n| ms_of(n as f64)));
    let per = |a: &[f64], b: &[f64]| -> Vec<f64> {
        a.iter().zip(b).map(|(a, b)| ratio(*a, *b)).collect()
    };
    let detect_ms: f64 = bf.iter().zip(&inst).map(|(b, i)| b - i).sum();
    if ph.extras.iter().any(|e| !e.is_empty()) {
        eprintln!("perfbench: Fig. 2 on the compiled tier (per-input medians, ms)");
        eprintln!(
            "  {:<28} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>7} {:>6}",
            "input", "base", "inst", "ft", "bf", "bf/base", "ft/base", "bf/ft", "checks"
        );
        for (i, name) in x.names.iter().enumerate() {
            eprintln!(
                "  {:<28} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>8.2} {:>8.2} {:>7.2} {:>6.3}",
                name,
                base[i],
                inst[i],
                ft[i],
                bf[i],
                ratio(bf[i], base[i]),
                ratio(ft[i], base[i]),
                ratio(bf[i], ft[i]),
                cr[i]
            );
        }
    }
    let cold_over_plain = if plain.iter().any(|v| *v > 0.0) {
        ratio(cold.iter().sum(), plain.iter().sum())
    } else {
        ratio(
            led.setup_ns.get("cache.cold").copied().unwrap_or(0) as f64,
            led.setup_ns.get("static").copied().unwrap_or(0) as f64,
        )
    };
    let hits = ph.counts.cache_hits as f64;
    let misses = ph.counts.cache_misses as f64;
    let entail_hits = obs(static_in_ops, "entail.cache.hit");
    let entail_misses = obs(static_in_ops, "entail.cache.miss");
    let sc = x.setup_counts;
    let values: BTreeMap<&str, f64> = [
        ("parse.ms", ms("parse")),
        (
            "parse.mb_per_s",
            ratio(
                count(in_ops("parse"), |c| c.source_bytes) / 1e6,
                ms("parse") / 1e3,
            ),
        ),
        ("static.ms", ms("static")),
        ("static.methods", count(static_in_ops, |c| c.methods)),
        (
            "static.checks_inserted",
            count(static_in_ops, |c| c.checks_inserted),
        ),
        ("entail.queries", obs(static_in_ops, "entail.query.")),
        (
            "entail.cache_hit_ratio",
            ratio(entail_hits, entail_hits + entail_misses),
        ),
        ("cache.ms", ms("cache")),
        ("cache.hit_ratio", ratio(hits, hits + misses)),
        (
            "cache.invalid",
            (ph.counts.cache_invalid + sc.cache_invalid) as f64,
        ),
        ("cache.cold_over_plain_x", cold_over_plain),
        ("edit.ms", ms("edit")),
        ("lower.ms", ms("lower")),
        ("lower.instrs", count(in_ops("lower"), |c| c.instrs)),
        ("exec.ms", ms("exec")),
        ("vm.base_ms", base.iter().sum()),
        ("vm.instrumented_ms", inst.iter().sum()),
        ("vm.steps", count(in_ops("exec"), |c| c.steps)),
        (
            "vm.context_switches",
            obs(in_ops("exec"), "vm.context_switches"),
        ),
        ("detect.ms", detect_ms),
        (
            "detect.events_per_s",
            ratio(count(true, |c| c.events), detect_ms / 1e3),
        ),
        ("detect.checks", count(true, |c| c.checks)),
        ("detect.shadow_ops", count(true, |c| c.shadow_ops)),
        ("detect.footprint_ops", count(true, |c| c.footprint_ops)),
        ("detect.sync_ops", count(true, |c| c.sync_ops)),
        (
            "detect.shadow_space_peak",
            count(true, |c| c.shadow_space_peak),
        ),
        ("detect.check_ratio", geomean(&cr)),
        ("detect.overhead_x", geomean(&per(&bf, &base))),
        ("detect.ft_overhead_x", geomean(&per(&ft, &base))),
        ("detect.bf_over_ft_x", geomean(&per(&bf, &ft))),
        ("trace.encode_ms", ms("trace.record")),
        (
            "trace.bytes_per_event",
            ratio(sc.trace_bytes as f64, sc.trace_events as f64),
        ),
        ("compress.ms", ms("compress.record") + ms("compress")),
        (
            "compress.ratio",
            ratio(sc.bftc_raw_bytes as f64, sc.bftc_bytes as f64),
        ),
        ("replay.ms", ms("replay")),
        (
            "replay.events_per_s",
            ratio(count(true, |c| c.replay_events), ms("replay") / 1e3),
        ),
        ("creplay.ms", ms("creplay")),
        (
            "creplay.skipped_share",
            ratio(
                ph.counts.creplay_skipped as f64,
                ph.counts.creplay_events as f64,
            ),
        ),
        ("creplay.fallbacks", count(true, |c| c.creplay_fallbacks)),
        (
            "ledger.remainder_ms",
            led.remainder_ns as f64 / passes / 1e6,
        ),
        (
            "ledger.remainder_share",
            ratio(led.remainder_ns as f64, led.op_total_ns as f64),
        ),
        (
            "tracing.overhead_share",
            1.0 - ratio(ph.verdicts_per_s(), x.untraced.verdicts_per_s()),
        ),
        ("op.p50_ms", geomean_of_medians(&x.untraced.per_input)),
        ("op.p95_ms", percentile(&x.untraced.all, 0.95)),
    ]
    .into_iter()
    .collect();
    PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, values[name], *unit))
        .collect()
}
