//! The global metric registry: counter and timer cells, lazy per-site
//! handles, RAII span guards, and consistent snapshot/reset.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of log2 histogram buckets (covers u64's full range).
const BUCKETS: usize = 64;

/// A monotonically increasing counter cell.
#[derive(Debug, Default)]
struct CounterCell {
    value: AtomicU64,
}

/// A max-gauge cell: holds the largest value ever reported, so repeated
/// flushes of a high-water mark are idempotent (unlike a counter, which
/// would sum them).
#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicU64,
}

/// A timer/histogram cell: observation count, summed value (nanoseconds
/// for spans, arbitrary units for `observe!`), and log2 buckets.
struct TimerCell {
    count: AtomicU64,
    total: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl TimerCell {
    fn new() -> TimerCell {
        TimerCell {
            count: AtomicU64::new(0),
            total: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(value, Ordering::Relaxed);
        let bucket = 63 - value.max(1).leading_zeros() as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }
}

/// The process-wide registry. Cells are leaked on first registration so
/// call sites can hold `&'static` references; the set of metric names is
/// fixed by the instrumentation sites, so this is bounded.
#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static CounterCell>>,
    gauges: Mutex<BTreeMap<&'static str, &'static GaugeCell>>,
    timers: Mutex<BTreeMap<&'static str, &'static TimerCell>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn counter_cell(name: &'static str) -> &'static CounterCell {
    let mut map = registry().counters.lock().unwrap();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(CounterCell::default())))
}

fn timer_cell(name: &'static str) -> &'static TimerCell {
    let mut map = registry().timers.lock().unwrap();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(TimerCell::new())))
}

/// A per-call-site counter handle, resolved against the registry on first
/// use (`count!` expands to one of these in a `static`).
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<&'static CounterCell>,
}

impl LazyCounter {
    /// A handle for the named counter.
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell
            .get_or_init(|| counter_cell(self.name))
            .value
            .fetch_add(n, Ordering::Relaxed);
    }
}

/// A per-call-site timer handle (`span!`/`observe!` expand to one of
/// these in a `static`).
pub struct LazyTimer {
    name: &'static str,
    cell: OnceLock<&'static TimerCell>,
}

impl LazyTimer {
    /// A handle for the named timer.
    pub const fn new(name: &'static str) -> LazyTimer {
        LazyTimer {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Records one observation of `value` (count + sum + histogram).
    #[inline]
    pub fn record(&self, value: u64) {
        self.cell
            .get_or_init(|| timer_cell(self.name))
            .record(value);
    }
}

/// Bumps a counter whose name is computed at run time (e.g. a detector's
/// `det.events` total, flushed once per run, or a metric whose name is
/// not a compile-time literal).
///
/// The name is interned into the registry on first use; later bumps of the
/// same name find the existing cell. Like the [`count!`](crate::count)
/// macro this is a no-op while collection is disabled, but the enabled
/// path takes the registry lock, so keep it off per-event hot paths —
/// batch into one call per run or stage.
pub fn count_named(name: &str, n: u64) {
    if !crate::enabled() {
        return;
    }
    let mut map = registry().counters.lock().unwrap();
    let cell = match map.get(name) {
        Some(cell) => *cell,
        None => {
            let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
            let cell: &'static CounterCell = Box::leak(Box::new(CounterCell::default()));
            map.insert(leaked, cell);
            cell
        }
    };
    cell.value.fetch_add(n, Ordering::Relaxed);
}

/// Raises a named max-gauge to at least `value` (`fetch_max`), interning
/// the name like [`count_named`]. Use for high-water marks that are
/// flushed per run — flushing twice reports the max, not the sum (the
/// `pipeline.depth_max` regression [`count_named`] could not express).
pub fn gauge_max_named(name: &str, value: u64) {
    if !crate::enabled() {
        return;
    }
    let mut map = registry().gauges.lock().unwrap();
    let cell = match map.get(name) {
        Some(cell) => *cell,
        None => {
            let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
            let cell: &'static GaugeCell = Box::leak(Box::new(GaugeCell::default()));
            map.insert(leaked, cell);
            cell
        }
    };
    cell.value.fetch_max(value, Ordering::Relaxed);
}

/// RAII guard timing one span; records elapsed nanoseconds on drop.
/// When collection is disabled at entry the guard holds no start time and
/// drop does nothing. When trace recording is enabled at entry the guard
/// also brackets a flight-recorder span on the calling thread's timeline
/// (see [`crate::trace`]); the paired end fires on drop even if tracing
/// is disabled mid-span.
pub struct SpanGuard {
    start: Option<Instant>,
    timer: &'static LazyTimer,
    trace: Option<&'static crate::trace::LazyTraceName>,
}

impl SpanGuard {
    /// Opens a span against a timer handle.
    #[inline]
    pub fn enter(timer: &'static LazyTimer) -> SpanGuard {
        SpanGuard {
            start: crate::enabled().then(Instant::now),
            timer,
            trace: None,
        }
    }

    /// Opens a span that also records into the flight recorder when
    /// tracing is on (the `span!` macro expands to this).
    #[inline]
    pub fn enter_traced(
        timer: &'static LazyTimer,
        tname: &'static crate::trace::LazyTraceName,
    ) -> SpanGuard {
        let trace = crate::trace::enabled().then(|| {
            crate::trace::begin(tname);
            tname
        });
        SpanGuard {
            start: crate::enabled().then(Instant::now),
            timer,
            trace,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.timer.record(start.elapsed().as_nanos() as u64);
        }
        if let Some(tname) = self.trace {
            crate::trace::end(tname);
        }
    }
}

/// One counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnap {
    /// Metric name.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// One timer's state at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerSnap {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (ns for spans).
    pub total: u64,
    /// Non-empty log2 buckets as `(log2_floor, count)`.
    pub buckets: Vec<(u32, u64)>,
}

impl TimerSnap {
    /// Mean observed value (ns for spans), 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) estimated from the log2
    /// histogram: walk the cumulative bucket counts to the target rank,
    /// then interpolate linearly within the bucket's `[2^b, 2^(b+1))`
    /// value range. Exact to within one octave, which is all a p50/p99
    /// over nanosecond spans needs.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(b, n) in &self.buckets {
            if seen + n >= target {
                let lo = 2f64.powi(b as i32);
                let frac = (target - seen) as f64 / n as f64;
                return lo + frac * lo;
            }
            seen += n;
        }
        // Histogram under-counts `total` only if buckets were reset
        // mid-snapshot; fall back to the top recorded bucket.
        2f64.powi(self.buckets.last().map(|&(b, _)| b as i32).unwrap_or(0))
    }
}

/// One gauge's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnap {
    /// Metric name.
    pub name: String,
    /// Gauge value (the max ever reported for max-gauges).
    pub value: u64,
}

/// A consistent view of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnap>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnap>,
    /// All timers, sorted by name.
    pub timers: Vec<TimerSnap>,
}

impl Snapshot {
    /// The value of a counter (0 if never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// The value of a gauge (0 if never registered).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|g| g.name == name)
            .map(|g| g.value)
            .unwrap_or(0)
    }

    /// A timer's snapshot, if it was ever registered.
    pub fn timer(&self, name: &str) -> Option<&TimerSnap> {
        self.timers.iter().find(|t| t.name == name)
    }

    /// Sum of all counters whose name starts with `prefix` (e.g. every
    /// `entail.query.*` kind counter).
    pub fn counter_total(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name.starts_with(prefix))
            .map(|c| c.value)
            .sum()
    }

    /// Sum of `total` over all timers whose name starts with `prefix`
    /// (e.g. every `entail.` query timer).
    pub fn timer_total(&self, prefix: &str) -> u64 {
        self.timers
            .iter()
            .filter(|t| t.name.starts_with(prefix))
            .map(|t| t.total)
            .sum()
    }

    /// Sum of `count` over all timers whose name starts with `prefix`.
    pub fn timer_count(&self, prefix: &str) -> u64 {
        self.timers
            .iter()
            .filter(|t| t.name.starts_with(prefix))
            .map(|t| t.count)
            .sum()
    }

    /// Serializes the snapshot as a JSON object with stable key order:
    /// `{"counters": {...}, "gauges": {...}, "timers": {name: {count,
    /// total, mean, p50, p90, p99, buckets}}}`.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let mut counters = Json::object();
        for c in &self.counters {
            counters.set(&c.name, c.value);
        }
        let mut gauges = Json::object();
        for g in &self.gauges {
            gauges.set(&g.name, g.value);
        }
        let mut timers = Json::object();
        for t in &self.timers {
            let mut entry = Json::object();
            entry.set("count", t.count);
            entry.set("total", t.total);
            entry.set("mean", t.mean());
            entry.set("p50", t.percentile(0.50));
            entry.set("p90", t.percentile(0.90));
            entry.set("p99", t.percentile(0.99));
            let mut buckets = Json::object();
            for (b, n) in &t.buckets {
                buckets.set(&b.to_string(), *n);
            }
            entry.set("buckets", buckets);
            timers.set(&t.name, entry);
        }
        let mut out = Json::object();
        out.set("counters", counters);
        out.set("gauges", gauges);
        out.set("timers", timers);
        out
    }
}

/// Reads every metric. Values observed concurrently with updates are
/// per-cell consistent (relaxed reads), which is all the reports need.
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    for (name, cell) in registry().counters.lock().unwrap().iter() {
        snap.counters.push(CounterSnap {
            name: (*name).to_owned(),
            value: cell.value.load(Ordering::Relaxed),
        });
    }
    for (name, cell) in registry().gauges.lock().unwrap().iter() {
        snap.gauges.push(GaugeSnap {
            name: (*name).to_owned(),
            value: cell.value.load(Ordering::Relaxed),
        });
    }
    for (name, cell) in registry().timers.lock().unwrap().iter() {
        let buckets = cell
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let v = b.load(Ordering::Relaxed);
                (v > 0).then_some((i as u32, v))
            })
            .collect();
        snap.timers.push(TimerSnap {
            name: (*name).to_owned(),
            count: cell.count.load(Ordering::Relaxed),
            total: cell.total.load(Ordering::Relaxed),
            buckets,
        });
    }
    snap
}

/// Zeroes every registered metric (cells stay registered; per-site handles
/// remain valid).
pub fn reset() {
    for cell in registry().counters.lock().unwrap().values() {
        cell.value.store(0, Ordering::Relaxed);
    }
    for cell in registry().gauges.lock().unwrap().values() {
        cell.value.store(0, Ordering::Relaxed);
    }
    for cell in registry().timers.lock().unwrap().values() {
        cell.count.store(0, Ordering::Relaxed);
        cell.total.store(0, Ordering::Relaxed);
        for b in &cell.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Pure computation over hand-built snapshots — never touches the
    // global registry, so it is safe alongside the lib.rs reset test.
    #[test]
    fn percentiles_interpolate_within_log2_buckets() {
        let t = TimerSnap {
            name: "t".into(),
            count: 100,
            total: 0,
            buckets: vec![(4, 50), (6, 50)],
        };
        // Rank 50 lands at the top of the [16, 32) bucket.
        assert_eq!(t.percentile(0.50), 32.0);
        // Rank 90 is 40/50 of the way through the [64, 128) bucket.
        assert!((t.percentile(0.90) - 115.2).abs() < 1e-9);
        assert!((t.percentile(0.99) - 126.72).abs() < 1e-9);
        // Quantiles are monotone and inside the recorded value range.
        assert!(t.percentile(0.50) <= t.percentile(0.90));
        assert!(t.percentile(0.99) <= 128.0);

        let empty = TimerSnap {
            name: "e".into(),
            count: 0,
            total: 0,
            buckets: vec![],
        };
        assert_eq!(empty.percentile(0.99), 0.0);

        let single = TimerSnap {
            name: "s".into(),
            count: 1,
            total: 9,
            buckets: vec![(3, 1)],
        };
        for q in [0.5, 0.9, 0.99] {
            let p = single.percentile(q);
            assert!((8.0..=16.0).contains(&p), "p{q} = {p} outside its octave");
        }
    }
}
