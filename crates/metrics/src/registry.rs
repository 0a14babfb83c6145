//! The metric registry: labelled counters, gauges and histograms in one
//! deterministically-ordered map, plus the plain-data snapshot view used
//! by serializers.

use crate::hist::Log2Hist;
use std::collections::BTreeMap;

/// Identity of one time series: a family name plus sorted label pairs.
///
/// Labels are sorted at construction so `{a="1", b="2"}` and
/// `{b="2", a="1"}` address the same series, and the registry's `BTreeMap`
/// ordering (family name first, then labels) is the canonical iteration
/// and serialization order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Family name (e.g. `clear_aborts_total`).
    pub name: String,
    /// Sorted `(label, value)` pairs.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the label pairs.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// One series' value.
///
/// A `Log2Hist` carries 64 buckets inline, so `Hist` boxes it: a map
/// entry is as large as the largest variant, so unboxed, every counter
/// and gauge series took 540 bytes too. The merged registry of a
/// 625-batch `queue` serve session is 8.5 KB boxed against 29 KB
/// unboxed. The extra pointer chase on `observe` is small next to the
/// map lookup before it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic event count; merges by addition.
    Counter(u64),
    /// A sampled level (occupancy, high-water mark); merges by addition,
    /// which is the right semantics for the per-shard/per-batch partial
    /// registries this crate merges (each part owns a disjoint share).
    Gauge(u64),
    /// A streaming histogram; merges bucket-wise.
    Hist(Box<Log2Hist>),
}

/// A registry of labelled metrics.
///
/// Everything in a registry is a pure function of the simulated events fed
/// into it — no wall-clock values belong here, so snapshots are
/// byte-reproducible across hosts and worker counts. Partial registries
/// (one per worker, batch or shard) merge back to the registry a
/// sequential run would have built, in any merge order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    series: BTreeMap<MetricKey, MetricValue>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to a counter series, creating it at zero first.
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a non-counter kind.
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        match self
            .series
            .entry(MetricKey::new(name, labels))
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(c) => *c += delta,
            other => panic!("{name}: counter op on {other:?}"),
        }
    }

    /// Sets a gauge series to `value`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a non-gauge kind.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        match self
            .series
            .entry(MetricKey::new(name, labels))
            .or_insert(MetricValue::Gauge(0))
        {
            MetricValue::Gauge(g) => *g = value,
            other => panic!("{name}: gauge op on {other:?}"),
        }
    }

    /// Records one histogram sample, creating the series on first use.
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a non-histogram kind.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        match self
            .series
            .entry(MetricKey::new(name, labels))
            .or_insert_with(|| MetricValue::Hist(Box::default()))
        {
            MetricValue::Hist(h) => h.observe(value),
            other => panic!("{name}: histogram op on {other:?}"),
        }
    }

    /// Looks up a series.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.series.get(&MetricKey::new(name, labels))
    }

    /// The histogram of a series, if it exists and is one.
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Log2Hist> {
        match self.get(name, labels) {
            Some(MetricValue::Hist(h)) => Some(h),
            _ => None,
        }
    }

    /// Folds `other` into `self`: counters and gauges add, histograms
    /// merge bucket-wise. Merging is commutative and associative, so
    /// per-worker partial registries combine identically in any order.
    ///
    /// # Panics
    ///
    /// Panics if the two registries hold the same key with different kinds.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (key, value) in &other.series {
            match self.series.entry(key.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(value.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => match (e.get_mut(), value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
                    (MetricValue::Hist(a), MetricValue::Hist(b)) => a.merge(b),
                    (a, b) => panic!("{}: kind mismatch on merge: {a:?} vs {b:?}", key.name),
                },
            }
        }
    }

    /// Iterates every series in canonical (name, labels) order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &MetricValue)> {
        self.series.iter()
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// `true` when no series exist.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// A plain-data snapshot in canonical order, for serializers.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            series: self
                .series
                .iter()
                .map(|(k, v)| SeriesSnapshot {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value: v.clone(),
                })
                .collect(),
        }
    }
}

/// A frozen, ordered view of a registry: what serializers (harness JSON,
/// Prometheus text exposition) consume.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Every series in canonical (name, sorted labels) order.
    pub series: Vec<SeriesSnapshot>,
}

/// One series in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Family name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: MetricValue,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_order_is_irrelevant() {
        let mut r = MetricsRegistry::new();
        r.inc("hits", &[("a", "1"), ("b", "2")], 1);
        r.inc("hits", &[("b", "2"), ("a", "1")], 2);
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.get("hits", &[("a", "1"), ("b", "2")]),
            Some(&MetricValue::Counter(3))
        );
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = MetricsRegistry::new();
        a.inc("c", &[], 5);
        a.observe("h", &[("k", "v")], 10);
        a.set_gauge("g", &[("shard", "0")], 7);
        let mut b = MetricsRegistry::new();
        b.inc("c", &[], 2);
        b.observe("h", &[("k", "v")], 900);
        b.set_gauge("g", &[("shard", "1")], 3);

        let mut ab = MetricsRegistry::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = MetricsRegistry::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.snapshot(), ba.snapshot());
        assert_eq!(ab.get("c", &[]), Some(&MetricValue::Counter(7)));
        assert_eq!(ab.hist("h", &[("k", "v")]).unwrap().count(), 2);
    }

    #[test]
    fn snapshot_is_canonically_ordered() {
        let mut r = MetricsRegistry::new();
        r.inc("z", &[], 1);
        r.inc("a", &[("l", "2")], 1);
        r.inc("a", &[("l", "1")], 1);
        let names: Vec<(String, Vec<(String, String)>)> = r
            .snapshot()
            .series
            .into_iter()
            .map(|s| (s.name, s.labels))
            .collect();
        assert_eq!(names[0].0, "a");
        assert_eq!(names[0].1[0].1, "1");
        assert_eq!(names[1].1[0].1, "2");
        assert_eq!(names[2].0, "z");
    }

    #[test]
    #[should_panic(expected = "counter op")]
    fn kind_confusion_panics() {
        let mut r = MetricsRegistry::new();
        r.observe("x", &[], 1);
        r.inc("x", &[], 1);
    }
}
