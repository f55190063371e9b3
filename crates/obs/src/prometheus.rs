//! Prometheus text-exposition rendering of the metric registry —
//! groundwork for the `bfc serve` daemon's `/metrics` endpoint, and
//! written to a file today by `repro perf --metrics-out`.
//!
//! Counters render as `counter` metrics with the conventional `_total`
//! suffix, gauges as `gauge`, and timers as `summary` metrics carrying
//! the p50/p90/p99 quantiles interpolated from the log2 histograms plus
//! `_sum`/`_count`. Metric names are prefixed `bigfoot_` and sanitized
//! to `[a-zA-Z0-9_]` (dots become underscores), so `pipeline.depth_max`
//! exports as `bigfoot_pipeline_depth_max`. Sanitization collisions
//! (`a.b` and `a_b` both land on `bigfoot_a_b`) are disambiguated with
//! a numeric suffix so no family is ever declared twice.

use crate::registry::Snapshot;
use std::collections::HashSet;
use std::fmt::Write;

/// Sanitizes a registry metric name into a Prometheus metric name.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("bigfoot_");
    for ch in name.chars() {
        out.push(if ch.is_ascii_alphanumeric() { ch } else { '_' });
    }
    out
}

/// Claims a unique family name for one metric. Sanitization is lossy —
/// `a.b` and `a_b` both map to `bigfoot_a_b` — and the 0.0.4 text
/// format forbids two `# TYPE` headers for one family, so a second
/// registry name landing on a taken family gets a `_2`/`_3`/… suffix
/// (before the counter `_total`, which must stay terminal). Snapshots
/// are sorted by name within each kind, so suffix assignment is
/// deterministic across renders.
fn family_name(taken: &mut HashSet<String>, name: &str, counter: bool) -> String {
    let base = metric_name(name);
    let full = |b: &str| {
        if counter {
            format!("{b}_total")
        } else {
            b.to_owned()
        }
    };
    let mut candidate = base.clone();
    let mut n = 2;
    while !taken.insert(full(&candidate)) {
        candidate = format!("{base}_{n}");
        n += 1;
    }
    full(&candidate)
}

/// Renders a snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` / `# TYPE` headers followed by sample
/// lines, one family per registry metric, sorted by name within each
/// kind.
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut taken = HashSet::new();
    for c in &snap.counters {
        let name = family_name(&mut taken, &c.name, true);
        let _ = writeln!(out, "# HELP {name} BigFoot counter `{}`.", c.name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", c.value);
    }
    for g in &snap.gauges {
        let name = family_name(&mut taken, &g.name, false);
        let _ = writeln!(out, "# HELP {name} BigFoot gauge `{}`.", g.name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", g.value);
    }
    for t in &snap.timers {
        let name = family_name(&mut taken, &t.name, false);
        let _ = writeln!(
            out,
            "# HELP {name} BigFoot timer `{}` (ns for spans).",
            t.name
        );
        let _ = writeln!(out, "# TYPE {name} summary");
        for (label, q) in [("0.5", 0.50), ("0.9", 0.90), ("0.99", 0.99)] {
            let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", t.percentile(q));
        }
        let _ = writeln!(out, "{name}_sum {}", t.total);
        let _ = writeln!(out, "{name}_count {}", t.count);
    }
    out
}

/// Renders the current global snapshot ([`crate::snapshot`]) as
/// Prometheus text exposition.
pub fn prometheus_text() -> String {
    render(&crate::snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{CounterSnap, GaugeSnap, TimerSnap};

    // Built from hand-rolled snapshots so this test never touches the
    // global registry (other tests reset it concurrently).
    #[test]
    fn renders_counters_gauges_and_summaries() {
        let snap = Snapshot {
            counters: vec![CounterSnap {
                name: "vm.steps".into(),
                value: 42,
            }],
            gauges: vec![GaugeSnap {
                name: "pipeline.depth_max".into(),
                value: 7,
            }],
            timers: vec![TimerSnap {
                name: "entail.query".into(),
                count: 4,
                total: 40,
                buckets: vec![(3, 4)],
            }],
        };
        let text = render(&snap);
        assert!(text.contains("# TYPE bigfoot_vm_steps_total counter\n"));
        assert!(text.contains("bigfoot_vm_steps_total 42\n"));
        assert!(text.contains("# TYPE bigfoot_pipeline_depth_max gauge\n"));
        assert!(text.contains("bigfoot_pipeline_depth_max 7\n"));
        assert!(text.contains("# TYPE bigfoot_entail_query summary\n"));
        assert!(text.contains("bigfoot_entail_query{quantile=\"0.5\"}"));
        assert!(text.contains("bigfoot_entail_query{quantile=\"0.99\"}"));
        assert!(text.contains("bigfoot_entail_query_sum 40\n"));
        assert!(text.contains("bigfoot_entail_query_count 4\n"));

        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
            let bare = name.split('{').next().unwrap();
            assert!(
                bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name: {bare}"
            );
        }
    }

    // Regression (PR 7): sanitization is lossy, so `a.b` and `a_b` both
    // rendered as `bigfoot_a_b` — two `# TYPE` headers for one family,
    // which the 0.0.4 text format forbids and real scrapers reject.
    #[test]
    fn colliding_names_get_distinct_families() {
        let snap = Snapshot {
            counters: vec![
                CounterSnap {
                    name: "pipeline.stall.ring_full".into(),
                    value: 1,
                },
                CounterSnap {
                    name: "pipeline.stall_ring.full".into(),
                    value: 2,
                },
            ],
            gauges: vec![GaugeSnap {
                name: "pipeline.stall.ring_full".into(),
                value: 3,
            }],
            timers: vec![],
        };
        let text = render(&snap);
        // First claimant keeps the clean name; later collisions are
        // suffixed (`_total` stays terminal on counters).
        assert!(text.contains("bigfoot_pipeline_stall_ring_full_total 1\n"));
        assert!(text.contains("bigfoot_pipeline_stall_ring_full_2_total 2\n"));
        // The gauge's `_total`-less family is its own namespace.
        assert!(text.contains("# TYPE bigfoot_pipeline_stall_ring_full gauge\n"));
        assert!(text.contains("bigfoot_pipeline_stall_ring_full 3\n"));

        // No family may be declared twice.
        let mut families = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let family = rest.split(' ').next().unwrap().to_owned();
                assert!(families.insert(family), "duplicate # TYPE: {line}");
            }
        }
    }
}
