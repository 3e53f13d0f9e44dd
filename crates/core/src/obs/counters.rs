//! The run counters, each declared once.
//!
//! BIRCH's evaluation (§6) reports a run as counters: rebuilds, the page
//! high-water mark, outlier-disk traffic, distance evaluations. Every
//! scalar counter of a run is one row of the table below. A row holds the
//! counter's JSON key and type, whether Prometheus reads it as a counter
//! or a gauge, its Prometheus family and label, its help text and its
//! merge rule. From the table come:
//!
//! * [`Counters`], the one struct a run keeps them in (events reach it
//!   through its [`EventSink`] impl, the rest is banked where it is
//!   measured);
//! * [`Counters::absorb`], the shard and stage merge;
//! * [`Counters::to_json`], the metrics JSON's `counters` object;
//! * [`Counters::rows`], which the Prometheus exposition
//!   ([`super::prom`]) walks for its samples;
//! * [`Counters::render`], the text `birch-report` prints.
//!
//! Adding a counter is one row plus the code that increments it.

use super::{json_f64, Event, EventSink};
use std::fmt;
use std::ops::AddAssign;

/// Whether a row counts up over the run or reads a level: its Prometheus
/// metric type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Only grows over the run.
    Counter,
    /// A level, such as a high-water mark.
    Gauge,
}

impl Kind {
    /// The word Prometheus' `# TYPE` line uses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// How [`Counters::absorb`] combines two stores' values of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Totals of disjoint shards or stages add.
    Sum,
    /// Peaks take the larger value.
    Max,
}

fn merge<T: Copy + PartialOrd + AddAssign>(into: &mut T, other: T, rule: Merge) {
    match rule {
        Merge::Sum => *into += other,
        Merge::Max => {
            if other > *into {
                *into = other;
            }
        }
    }
}

/// One row of the counter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// The [`Counters`] field, and its key in the JSON `counters` object.
    pub key: &'static str,
    /// Prometheus metric type.
    pub kind: Kind,
    /// Prometheus metric family. The rows of one family are adjacent.
    pub family: &'static str,
    /// The sample's `name="value"` label within its family, if any.
    pub label: Option<(&'static str, &'static str)>,
    /// One line saying what is counted: the field's doc, the Prometheus
    /// help and the report text.
    pub help: &'static str,
    /// How two stores combine.
    pub merge: Merge,
}

/// One row's value: a count, or points for the row that sums weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A whole count.
    Int(u64),
    /// A real number (summed point weights).
    Real(f64),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

/// Formats the value as a JSON number (`null` for a non-finite real).
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Int(v) => fmt::Display::fmt(&v, f),
            Value::Real(x) => f.pad(&json_f64(x)),
        }
    }
}

macro_rules! counter_table {
    (@label) => {
        None
    };
    (@label $name:ident = $value:literal) => {
        Some((stringify!($name), $value))
    };
    ($(
        $key:ident: $ty:ty, $kind:ident $family:literal $({ $name:ident = $value:literal })?,
        $merge:ident, $help:literal;
    )*) => {
        /// Every scalar counter of a run, one field per row of the table
        /// in this module. Sharded and staged runs fold their stores with
        /// [`Counters::absorb`].
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct Counters {
            $(
                #[doc = $help]
                pub $key: $ty,
            )*
        }

        impl Counters {
            /// The table, in JSON and exposition order.
            pub const ROWS: &'static [Row] = &[$(
                Row {
                    key: stringify!($key),
                    kind: Kind::$kind,
                    family: $family,
                    label: counter_table!(@label $($name = $value)?),
                    help: $help,
                    merge: Merge::$merge,
                },
            )*];

            /// Each row with this store's value, in table order.
            pub fn rows(&self) -> impl Iterator<Item = (&'static Row, Value)> {
                Self::ROWS.iter().zip([$(Value::from(self.$key)),*])
            }

            /// Folds `other` into this store, each row by its merge rule.
            pub fn absorb(&mut self, other: &Counters) {
                $(merge(&mut self.$key, other.$key, Merge::$merge);)*
            }

            /// A store whose `i`-th row (from 1) reads `base + i`, plus a
            /// quarter for a real row (`0.25 as u64` is 0): distinct
            /// values, for tests.
            #[cfg(test)]
            fn numbered(base: u32) -> Self {
                let mut i = base;
                Self {
                    $($key: {
                        i += 1;
                        i as $ty + 0.25 as $ty
                    },)*
                }
            }
        }
    };
}

counter_table! {
    inserts: u64, Counter "birch_tree_ops_total" { op = "inserts" }, Sum,
        "Full tree insertions, one per `InsertDescend` event.";
    splits: u64, Counter "birch_tree_ops_total" { op = "splits" }, Sum,
        "Node splits, leaf and interior.";
    merge_refinements: u64, Counter "birch_tree_ops_total" { op = "merge_refinements" }, Sum,
        "Merging refinements after splits (paper section 4.3).";
    rebuilds: u64, Counter "birch_tree_ops_total" { op = "rebuilds" }, Sum,
        "Tree rebuilds under a raised threshold (paper section 5.1), in Phases 1 and 2.";
    thresholds_raised: u64, Counter "birch_tree_ops_total" { op = "thresholds_raised" }, Sum,
        "Threshold raises, one ahead of each rebuild.";
    peak_pages: usize, Gauge "birch_peak_pages", Max,
        "Page high-water mark; a sharded run adds the shards' peaks, which coexist.";
    distance_calls: u64, Counter "birch_distance_calls_total" { kind = "performed" }, Sum,
        "Distance evaluations in Phase 1's descent and closest-leaf-entry scans.";
    phase3_pairs_evaluated: u64, Counter "birch_phase3_pairs_total" { kind = "evaluated" }, Sum,
        "Phase-3 candidate pairs whose distance was evaluated.";
    phase3_pairs_pruned: u64, Counter "birch_phase3_pairs_total" { kind = "pruned" }, Sum,
        "Phase-3 candidate pairs skipped by the CF-statistic lower bound.";
    outliers_spilled: u64, Counter "birch_outliers_total" { disposition = "spilled" }, Sum,
        "Leaf entries spilled to the outlier disk.";
    outliers_reabsorbed: u64, Counter "birch_outliers_total" { disposition = "reabsorbed" }, Sum,
        "Outlier entries merged into a leaf entry without growing the tree.";
    outliers_reinserted: u64, Counter "birch_outliers_total" { disposition = "reinserted" }, Sum,
        "Outlier entries inserted as regular data after outgrowing outlierhood.";
    outliers_folded_back: u64, Counter "birch_outliers_total" { disposition = "folded_back" }, Sum,
        "Outlier entries folded into the tree because the disk refused the write-back.";
    outliers_discarded: f64, Counter "birch_outliers_total" { disposition = "discarded" }, Sum,
        "Points discarded as outliers: the summed N of dropped entries and rejected points.";
    disk_writes: u64, Counter "birch_io_total" { op = "disk_writes" }, Sum,
        "Entries written to the spill logs (outlier entries, delayed points).";
    disk_reads: u64, Counter "birch_io_total" { op = "disk_reads" }, Sum,
        "Entries read back from the spill logs.";
    disk_bytes_written: u64, Counter "birch_io_total" { op = "disk_bytes_written" }, Sum,
        "Bytes written to the spill logs, under the per-entry cost model.";
    disk_bytes_read: u64, Counter "birch_io_total" { op = "disk_bytes_read" }, Sum,
        "Bytes read from the spill logs, under the per-entry cost model.";
    disk_write_attempts: u64, Counter "birch_io_total" { op = "disk_write_attempts" }, Sum,
        "Disk write attempts, landed or refused: attempts minus writes are rejections.";
    disk_faults_injected: u64, Counter "birch_io_total" { op = "disk_faults_injected" }, Sum,
        "Rejected disk writes that an injected fault plan refused.";
    page_refs: u64, Counter "birch_page_cache_total" { op = "refs" }, Sum,
        "Out-of-core node accesses through the page cache.";
    page_faults: u64, Counter "birch_page_cache_total" { op = "faults" }, Sum,
        "Page-cache misses, read back from the spill file.";
    page_evictions: u64, Counter "birch_page_cache_total" { op = "evictions" }, Sum,
        "Resident nodes evicted to the spill file.";
    events: u64, Counter "birch_events_total", Sum,
        "Telemetry events recorded.";
}

impl Counters {
    /// The JSON `counters` object: one `"key":value` member per row.
    #[must_use]
    pub fn to_json(&self) -> String {
        let members: Vec<String> = self
            .rows()
            .map(|(row, value)| format!("\"{}\":{value}", row.key))
            .collect();
        format!("{{{}}}", members.join(","))
    }

    /// One line per row: key, value and help text.
    #[must_use]
    pub fn render(&self) -> String {
        self.rows()
            .map(|(row, value)| format!("{:<24}{value:>14}  {}\n", row.key, row.help))
            .collect()
    }
}

/// The event-derived rows. The other rows are banked where they are
/// measured: the page cache and disk traffic when Phase 1 finishes,
/// distance calls from the tree, Phase-3 pairs from the agglomerator.
impl EventSink for Counters {
    fn record(&mut self, event: &Event) {
        self.events += 1;
        match *event {
            Event::PhaseStarted { .. } | Event::PhaseFinished { .. } => {}
            Event::InsertDescend { .. } => self.inserts += 1,
            Event::SplitPerformed { count } => self.splits += count,
            Event::MergeRefinement { count } => self.merge_refinements += count,
            Event::ThresholdRaised { .. } => self.thresholds_raised += 1,
            Event::RebuildTriggered { .. } => self.rebuilds += 1,
            Event::OutlierSpilled { count } => self.outliers_spilled += count,
            Event::OutlierReabsorbed {
                absorbed,
                reinserted,
                folded_back,
            } => {
                self.outliers_reabsorbed += absorbed;
                self.outliers_reinserted += reinserted;
                self.outliers_folded_back += folded_back;
            }
            Event::OutlierDiscarded { points } => self.outliers_discarded += points,
            Event::PagesHighWater { pages } => self.peak_pages = self.peak_pages.max(pages),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::birch::{RunStats, METRICS_SCHEMA_VERSION};
    use crate::obs::prom::prometheus_exposition;
    use crate::obs::MetricsReport;

    /// Schema v9's `counters` keys, in order. A row renamed, dropped or
    /// moved changes the schema: bump `METRICS_SCHEMA_VERSION` with it.
    const SCHEMA: (u32, &str) = (
        9,
        "inserts splits merge_refinements rebuilds thresholds_raised peak_pages \
         distance_calls phase3_pairs_evaluated phase3_pairs_pruned outliers_spilled \
         outliers_reabsorbed outliers_reinserted outliers_folded_back outliers_discarded \
         disk_writes disk_reads disk_bytes_written disk_bytes_read disk_write_attempts \
         disk_faults_injected page_refs page_faults page_evictions events",
    );

    /// The sample line the exposition must carry for `row` at `value`.
    fn sample(row: &Row, value: Value) -> String {
        let labels = row
            .label
            .map_or_else(String::new, |(name, v)| format!("{{{name}=\"{v}\"}}"));
        format!("{}{labels} {value}", row.family)
    }

    #[test]
    fn every_row_exports_once_merges_by_rule_and_pins_the_schema() {
        let keys: Vec<&str> = Counters::ROWS.iter().map(|r| r.key).collect();
        assert_eq!((METRICS_SCHEMA_VERSION, keys.join(" ").as_str()), SCHEMA);

        // Both exports carry every row exactly once, with its value.
        let counters = Counters::numbered(1000);
        let stats = RunStats {
            metrics: MetricsReport {
                counters,
                ..MetricsReport::default()
            },
            ..RunStats::default()
        };
        let json = stats.to_json();
        let prom = prometheus_exposition(&stats);
        let mut families = Vec::new();
        for (row, value) in counters.rows() {
            let member = format!("\"{}\":{value}", row.key);
            assert_eq!(
                json.matches(&format!("\"{}\":", row.key)).count(),
                1,
                "{json}"
            );
            assert!(
                json.contains(&format!("{member},")) || json.contains(&format!("{member}}}")),
                "{member} missing from {json}"
            );
            let line = sample(row, value);
            let prefix = line.rsplit_once(' ').expect("value").0;
            let hits: Vec<&str> = prom
                .lines()
                .filter(|l| l.rsplit_once(' ').is_some_and(|(p, _)| p == prefix))
                .collect();
            assert_eq!(hits, [line.as_str()], "{prom}");
            assert!(
                prom.contains(&format!("# TYPE {} {}\n", row.family, row.kind.name())),
                "{prom}"
            );
            // A family's rows are adjacent, so its samples form one group.
            if families.last() != Some(&row.family) {
                assert!(!families.contains(&row.family), "{} split", row.family);
                families.push(row.family);
            }
        }
        // No sample outside the table lands in a table family (a retired
        // row's line, say): each family has one sample line per row.
        for family in families {
            let rows = Counters::ROWS.iter().filter(|r| r.family == family);
            let samples = prom.lines().filter(|l| {
                l.strip_prefix(family)
                    .is_some_and(|rest| rest.starts_with(['{', ' ']))
            });
            assert_eq!(samples.count(), rows.count(), "{family}: {prom}");
        }
        // Non-integral rows keep their fraction in both exports.
        assert!(json.contains("\"outliers_discarded\":1014.25"), "{json}");

        // Sum rows add and max rows keep the larger value, from either side.
        let real = |v| match v {
            Value::Int(n) => n as f64,
            Value::Real(x) => x,
        };
        let small = Counters::numbered(0);
        for (a, b) in [(counters, small), (small, counters)] {
            let mut merged = a;
            merged.absorb(&b);
            for (((row, got), (_, x)), (_, y)) in merged.rows().zip(a.rows()).zip(b.rows()) {
                let want = match row.merge {
                    Merge::Sum => real(x) + real(y),
                    Merge::Max => real(x).max(real(y)),
                };
                assert_eq!(real(got), want, "{}", row.key);
            }
        }
    }
}
