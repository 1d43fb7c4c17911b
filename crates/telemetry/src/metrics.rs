//! A typed metrics registry with deterministic serialization.
//!
//! Three metric kinds, all `u64`-valued:
//!
//! - **counter** — monotone tally; [merging](Registry::merge) sums.
//! - **gauge** — a level (peak memory, table sizes); merging takes the max,
//!   so a sweep-level gauge is the worst case over its workers.
//! - **histogram** — bucketed distribution with inclusive `le` upper bounds
//!   plus an implicit `+Inf` overflow bucket; merging sums bucket-wise.
//!
//! Metrics are keyed by `(name, sorted labels)` in `BTreeMap`s, so iteration
//! — and therefore the `mi-metrics/1` JSON and Prometheus text renderings —
//! is fully deterministic regardless of insertion order.

use std::collections::BTreeMap;

use crate::json::{self, arr, obj, Json};

/// Identity of one time series: metric name plus sorted label pairs.
type Key = (String, Vec<(String, String)>);

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut l: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    l.sort();
    (name.to_string(), l)
}

/// Default histogram bounds: decades covering cost-unit magnitudes seen in
/// practice (one corpus cell runs ~1e2..1e9 cost units).
pub const DEFAULT_BOUNDS: [u64; 8] =
    [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000];

/// A bucketed distribution of `u64` observations.
///
/// `counts[i]` tallies observations `v <= bounds[i]` that exceeded every
/// earlier bound; the final slot counts overflow past the last bound
/// (`+Inf`). Rendered cumulatively in Prometheus style.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
    count: u64,
}

impl Histogram {
    /// An empty histogram with the given strictly increasing bounds.
    pub fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be increasing");
        Histogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], sum: 0, count: 0 }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        let slot = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Sums `other` into `self`. Both sides must share bounds.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bound mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// The configured upper bounds (exclusive of the implicit `+Inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts; last entry is the `+Inf` bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// The metrics registry. See the module docs for merge semantics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Registry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, u64>,
    histograms: BTreeMap<Key, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to the counter `name{labels}`.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        *self.counters.entry(key(name, labels)).or_insert(0) += delta;
    }

    /// Sets the gauge `name{labels}` to `value`.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.gauges.insert(key(name, labels), value);
    }

    /// Raises the gauge `name{labels}` to `value` if it is below it.
    pub fn gauge_max(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let g = self.gauges.entry(key(name, labels)).or_insert(0);
        *g = (*g).max(value);
    }

    /// Records `value` into the histogram `name{labels}` (default bounds).
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.histograms
            .entry(key(name, labels))
            .or_insert_with(|| Histogram::new(&DEFAULT_BOUNDS))
            .observe(value);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters.get(&key(name, labels)).copied().unwrap_or(0)
    }

    /// Current value of a gauge (0 if never touched).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.gauges.get(&key(name, labels)).copied().unwrap_or(0)
    }

    /// The histogram `name{labels}`, if any observation was recorded.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        self.histograms.get(&key(name, labels))
    }

    /// Sum of a counter over every label combination carrying `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.iter().filter(|((n, _), _)| n == name).map(|(_, v)| v).sum()
    }

    /// All counters in deterministic `(name, labels)` order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, &[(String, String)], u64)> {
        self.counters.iter().map(|((n, l), v)| (n.as_str(), l.as_slice(), *v))
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges `other` into `self`: counters sum, gauges take the max,
    /// histograms sum bucket-wise.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(0);
            *g = (*g).max(*v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Serializes as versioned `mi-metrics/1` JSON (deterministic order).
    pub fn to_json(&self) -> String {
        self.to_value().render(json::MI_METRICS)
    }

    /// Serializes as single-line `mi-metrics/1` JSON, for carriers whose
    /// framing is newline-delimited (the `mi serve` daemon's `metrics`
    /// responses): the [`Registry::to_json`] document without its line
    /// breaks and indentation.
    pub fn to_json_line(&self) -> String {
        self.to_value().render(json::MI_METRICS_LINE)
    }

    fn to_value(&self) -> Json {
        let series = |(name, labels): &Key, rest: Vec<(&str, Json)>| {
            let labels = Json::Obj(labels.iter().map(|(k, v)| (k.clone(), v.into())).collect());
            obj([("name", name.into()), ("labels", labels)].into_iter().chain(rest))
        };
        let scalars = |map: &BTreeMap<Key, u64>| {
            arr(map.iter().map(|(k, &v)| series(k, vec![("value", v.into())])))
        };
        let histograms = self.histograms.iter().map(|(k, h)| {
            let buckets = h.counts.iter().enumerate().map(|(i, &c)| {
                let le = h.bounds.get(i).map_or("+Inf".to_string(), u64::to_string);
                obj([("le", le.into()), ("count", c.into())])
            });
            series(
                k,
                vec![("buckets", arr(buckets)), ("sum", h.sum.into()), ("count", h.count.into())],
            )
        });
        obj([
            ("schema", "mi-metrics/1".into()),
            ("counters", scalars(&self.counters)),
            ("gauges", scalars(&self.gauges)),
            ("histograms", arr(histograms)),
        ])
    }

    /// Serializes in the Prometheus text exposition format (deterministic
    /// order; histogram buckets rendered cumulatively per convention).
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        let mut last_type_line = String::new();
        let mut type_line = |s: &mut String, name: &str, kind: &str| {
            let line = format!("# TYPE {name} {kind}\n");
            if line != last_type_line {
                s.push_str(&line);
                last_type_line = line;
            }
        };
        for ((name, labels), v) in &self.counters {
            type_line(&mut s, name, "counter");
            s.push_str(&format!("{name}{} {v}\n", prom_labels(labels, None)));
        }
        for ((name, labels), v) in &self.gauges {
            type_line(&mut s, name, "gauge");
            s.push_str(&format!("{name}{} {v}\n", prom_labels(labels, None)));
        }
        for ((name, labels), h) in &self.histograms {
            type_line(&mut s, name, "histogram");
            let mut cum = 0u64;
            for (i, c) in h.counts.iter().enumerate() {
                cum += c;
                let le = match h.bounds.get(i) {
                    Some(b) => b.to_string(),
                    None => "+Inf".to_string(),
                };
                s.push_str(&format!(
                    "{name}_bucket{} {cum}\n",
                    prom_labels(labels, Some(("le", &le)))
                ));
            }
            s.push_str(&format!("{name}_sum{} {}\n", prom_labels(labels, None), h.sum));
            s.push_str(&format!("{name}_count{} {}\n", prom_labels(labels, None), h.count));
        }
        s
    }
}

fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            let v = v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
            format!("{k}=\"{v}\"")
        })
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_is_newline_free_and_equivalent() {
        let mut r = Registry::new();
        r.counter_add("ops", &[("op", "with\nnewline")], 2);
        r.gauge_set("depth", &[], 3);
        r.observe("latency", &[("route", "job")], 17);
        let line = r.to_json_line();
        assert!(!line.contains('\n'), "{line}");
        assert!(line.starts_with("{\"schema\": \"mi-metrics/1\","), "{line}");
        // The escaped newline inside the label value survives.
        assert!(line.contains("with\\nnewline"), "{line}");
        // Same document, just reflowed.
        let reflowed: String =
            r.to_json().lines().map(|l| l.trim_start()).collect::<Vec<_>>().join("");
        assert_eq!(line, reflowed);
    }

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut r = Registry::new();
        r.counter_add("ops", &[("op", "load")], 2);
        r.counter_add("ops", &[("op", "load")], 3);
        r.counter_add("ops", &[("op", "store")], 1);
        assert_eq!(r.counter("ops", &[("op", "load")]), 5);
        assert_eq!(r.counter("ops", &[("op", "store")]), 1);
        assert_eq!(r.counter("ops", &[("op", "gep")]), 0);
        assert_eq!(r.counter_total("ops"), 6);
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut r = Registry::new();
        r.counter_add("x", &[("a", "1"), ("b", "2")], 1);
        r.counter_add("x", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(r.counter("x", &[("a", "1"), ("b", "2")]), 2);
        assert_eq!(r.counters().count(), 1);
    }

    #[test]
    fn gauges_set_and_max() {
        let mut r = Registry::new();
        r.gauge_set("peak", &[], 10);
        r.gauge_max("peak", &[], 5);
        assert_eq!(r.gauge("peak", &[]), 10);
        r.gauge_max("peak", &[], 50);
        assert_eq!(r.gauge("peak", &[]), 50);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [5, 10, 11, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[2, 2, 1]);
        assert_eq!(h.sum(), 1126);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn merge_semantics() {
        let mut a = Registry::new();
        a.counter_add("c", &[], 1);
        a.gauge_max("g", &[], 7);
        a.observe("h", &[], 500);
        let mut b = Registry::new();
        b.counter_add("c", &[], 2);
        b.gauge_max("g", &[], 3);
        b.observe("h", &[], 2_000_000_000);
        a.merge(&b);
        assert_eq!(a.counter("c", &[]), 3);
        assert_eq!(a.gauge("g", &[]), 7);
        let h = a.histogram("h", &[]).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 2_000_000_500);
        assert_eq!(*h.counts().last().unwrap(), 1, "2e9 overflows the last decade bound");
    }

    #[test]
    fn merge_order_independent_serialization() {
        let mut parts = Vec::new();
        for i in 0..4u64 {
            let mut r = Registry::new();
            r.counter_add("ops", &[("w", "x")], i + 1);
            r.gauge_max("peak", &[], i * 10);
            r.observe("dist", &[], i * 1000);
            parts.push(r);
        }
        let mut fwd = Registry::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Registry::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.to_json(), rev.to_json());
        assert_eq!(fwd.to_prometheus(), rev.to_prometheus());
    }

    #[test]
    fn json_shape() {
        let mut r = Registry::new();
        r.counter_add("vm_ops", &[("op", "load")], 3);
        r.gauge_set("peak_bytes", &[], 4096);
        r.observe("cell_cost", &[], 50);
        let j = r.to_json();
        assert!(j.starts_with("{\n  \"schema\": \"mi-metrics/1\""), "{j}");
        assert!(j.contains("{\"name\": \"vm_ops\", \"labels\": {\"op\": \"load\"}, \"value\": 3}"));
        assert!(j.contains("{\"name\": \"peak_bytes\", \"labels\": {}, \"value\": 4096}"));
        assert!(j.contains("{\"le\": \"100\", \"count\": 1}"));
        assert!(j.contains("{\"le\": \"+Inf\", \"count\": 0}"));
        assert!(j.contains("\"sum\": 50, \"count\": 1}"));
        assert!(j.ends_with("]\n}\n"));
    }

    #[test]
    fn empty_registry_json_is_valid_shape() {
        let j = Registry::new().to_json();
        assert_eq!(
            j,
            "{\n  \"schema\": \"mi-metrics/1\",\n  \"counters\": [],\n  \"gauges\": [],\n  \"histograms\": []\n}\n"
        );
    }

    #[test]
    fn prometheus_shape() {
        let mut r = Registry::new();
        r.counter_add("ops", &[("op", "load")], 3);
        r.counter_add("ops", &[("op", "store")], 4);
        // A label value that would otherwise end the sample line early.
        r.counter_add("ops", &[("op", "a\"b\\c\nd")], 5);
        r.gauge_set("peak", &[], 9);
        let mut h = Histogram::new(&[10]);
        h.observe(5);
        h.observe(50);
        r.histograms.insert(key("lat", &[]), h);
        let p = r.to_prometheus();
        assert_eq!(p.matches("# TYPE ops counter").count(), 1, "one TYPE line per name");
        assert!(p.contains("ops{op=\"load\"} 3\n"));
        assert!(p.contains("ops{op=\"store\"} 4\n"));
        assert!(p.contains("ops{op=\"a\\\"b\\\\c\\nd\"} 5\n"), "{p}");
        assert!(p.contains("# TYPE peak gauge\npeak 9\n"));
        assert!(p.contains("lat_bucket{le=\"10\"} 1\n"));
        assert!(p.contains("lat_bucket{le=\"+Inf\"} 2\n"), "buckets are cumulative");
        assert!(p.contains("lat_sum 55\n"));
        assert!(p.contains("lat_count 2\n"));
    }

    #[test]
    fn json_escaping() {
        let mut r = Registry::new();
        r.counter_add("weird", &[("path", "a\"b\\c\nd")], 1);
        let j = r.to_json();
        assert!(j.contains("\"a\\\"b\\\\c\\nd\""), "{j}");
    }
}
