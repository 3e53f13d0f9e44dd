//! Prometheus-style text exposition of a run's statistics.
//!
//! One run, one scrape: [`prometheus_exposition`] renders a
//! [`RunStats`] in the text format Prometheus (and everything that
//! speaks it) ingests — `# TYPE` headers, `snake_case` metric names
//! under a `birch_` prefix, labels for enumerable dimensions (phase,
//! I/O op, memory component, tree level, span path). The CLI writes it
//! via `--metrics-prom <path>`. The run counters' samples come from the
//! same table as the metrics JSON's `counters` object
//! ([`crate::obs::counters`]), one sample per row, so the two exports
//! never disagree.
//!
//! This is a *snapshot* exposition (counters since the start of the
//! run), not a long-lived registry: BIRCH runs are batch jobs, and the
//! natural scrape is "read the file the run left behind".

use crate::birch::RunStats;
use crate::obs::counters::Value;
use crate::obs::span::SpanNode;
use std::fmt::Write as _;

/// Formats an `f64` the way the Prometheus text format expects
/// (`NaN`/`+Inf`/`-Inf` for non-finite values).
fn num(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v:?}")
    }
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn span_lines(
    out: &mut String,
    metric: &str,
    node: &SpanNode,
    path: &mut String,
    f: &dyn Fn(&SpanNode) -> String,
) {
    let rollback = path.len();
    if !path.is_empty() {
        path.push('/');
    }
    path.push_str(node.name);
    let _ = writeln!(out, "{metric}{{path=\"{path}\"}} {}", f(node));
    for child in &node.children {
        span_lines(out, metric, child, path, f);
    }
    path.truncate(rollback);
}

/// Renders `stats` as a Prometheus text exposition (one metric family
/// per logical quantity; labels carry the enumerable dimensions).
#[must_use]
pub fn prometheus_exposition(stats: &RunStats) -> String {
    let mut out = String::with_capacity(4096);
    let m = &stats.metrics;

    header(
        &mut out,
        "birch_points_scanned",
        "counter",
        "Input records scanned by Phase 1.",
    );
    let _ = writeln!(out, "birch_points_scanned {}", stats.points_scanned);

    header(
        &mut out,
        "birch_threads",
        "gauge",
        "Phase-1 worker threads (1 = serial scan).",
    );
    let _ = writeln!(out, "birch_threads {}", stats.threads.max(1));

    header(
        &mut out,
        "birch_phase_seconds",
        "gauge",
        "Wall time per pipeline phase.",
    );
    for (phase, t) in [
        ("phase1", stats.phase1_time),
        ("merge", stats.merge_time),
        ("phase2", stats.phase2_time),
        ("phase3", stats.phase3_time),
        ("phase4", stats.phase4_time),
    ] {
        let _ = writeln!(
            out,
            "birch_phase_seconds{{phase=\"{phase}\"}} {}",
            num(t.as_secs_f64())
        );
    }

    // The run counters: one family per run of adjacent table rows, one
    // sample per row; a family's help lists its rows' helps by label.
    let rows: Vec<_> = m.counters.rows().collect();
    for family in rows.chunk_by(|(a, _), (b, _)| a.family == b.family) {
        let (first, _) = family[0];
        let help: Vec<String> = family
            .iter()
            .map(|(row, _)| match row.label {
                Some((_, value)) => format!("{value}: {}", row.help),
                None => row.help.to_string(),
            })
            .collect();
        header(&mut out, first.family, first.kind.name(), &help.join(" "));
        for (row, value) in family {
            let labels = row
                .label
                .map_or_else(String::new, |(name, v)| format!("{{{name}=\"{v}\"}}"));
            let value = match *value {
                Value::Int(v) => v.to_string(),
                Value::Real(x) => num(x),
            };
            let _ = writeln!(out, "{}{labels} {value}", row.family);
        }
    }

    header(
        &mut out,
        "birch_mem_budget_bytes",
        "gauge",
        "The memory budget M.",
    );
    let _ = writeln!(out, "birch_mem_budget_bytes {}", stats.memory.budget_bytes);
    header(
        &mut out,
        "birch_mem_highwater_bytes",
        "gauge",
        "Page high-water mark in bytes (held against M).",
    );
    let _ = writeln!(
        out,
        "birch_mem_highwater_bytes {}",
        stats.memory.highwater_bytes()
    );
    header(
        &mut out,
        "birch_mem_headroom_bytes",
        "gauge",
        "Budget minus high-water (0 when over).",
    );
    let _ = writeln!(
        out,
        "birch_mem_headroom_bytes {}",
        stats.memory.headroom_bytes()
    );
    header(
        &mut out,
        "birch_mem_overrun_bytes",
        "gauge",
        "High-water past M (reported, not clamped; ~1 page/level transient is expected).",
    );
    let _ = writeln!(
        out,
        "birch_mem_overrun_bytes {}",
        stats.memory.overrun_bytes()
    );
    header(
        &mut out,
        "birch_mem_component_bytes",
        "gauge",
        "Per-component live/peak bytes (pager pages, node arena, SoA blocks, outlier disk).",
    );
    for (name, c) in stats.memory.named_components() {
        let _ = writeln!(
            out,
            "birch_mem_component_bytes{{component=\"{name}\",kind=\"live\"}} {}",
            c.live_bytes
        );
        let _ = writeln!(
            out,
            "birch_mem_component_bytes{{component=\"{name}\",kind=\"peak\"}} {}",
            c.peak_bytes
        );
    }

    let h = &stats.tree_health;
    header(
        &mut out,
        "birch_tree_height",
        "gauge",
        "CF-tree height entering Phase 3 (1 = root is a leaf).",
    );
    let _ = writeln!(out, "birch_tree_height {}", h.height);
    header(&mut out, "birch_tree_nodes", "gauge", "Live tree nodes.");
    let _ = writeln!(out, "birch_tree_nodes {}", h.nodes);
    header(
        &mut out,
        "birch_tree_leaf_entries",
        "gauge",
        "CF entries across all leaves.",
    );
    let _ = writeln!(out, "birch_tree_leaf_entries {}", h.leaf_entries);
    header(
        &mut out,
        "birch_tree_utilization",
        "gauge",
        "Node fill against capacity, in [0,1].",
    );
    let _ = writeln!(
        out,
        "birch_tree_utilization{{kind=\"leaf\"}} {}",
        num(h.leaf_utilization)
    );
    let _ = writeln!(
        out,
        "birch_tree_utilization{{kind=\"interior\"}} {}",
        num(h.interior_utilization)
    );
    header(
        &mut out,
        "birch_tree_rate",
        "gauge",
        "Mutation rates: splits and refinements per 1k inserts, rebuilds per 100k points.",
    );
    for (kind, v) in [
        ("splits_per_1k_inserts", h.split_rate_per_1k_inserts),
        ("merges_per_1k_inserts", h.merge_rate_per_1k_inserts),
        ("rebuilds_per_100k_points", h.rebuild_rate_per_100k_points),
    ] {
        let _ = writeln!(out, "birch_tree_rate{{kind=\"{kind}\"}} {}", num(v));
    }
    header(
        &mut out,
        "birch_tree_level_nodes",
        "gauge",
        "Nodes per tree level (root = level 0).",
    );
    for l in &h.levels {
        let _ = writeln!(
            out,
            "birch_tree_level_nodes{{level=\"{}\"}} {}",
            l.level, l.nodes
        );
    }
    header(
        &mut out,
        "birch_tree_level_utilization",
        "gauge",
        "Per-level entry fill against capacity, in [0,1].",
    );
    for l in &h.levels {
        let _ = writeln!(
            out,
            "birch_tree_level_utilization{{level=\"{}\"}} {}",
            l.level,
            num(l.utilization())
        );
    }

    if let Some(trace) = &stats.trace {
        header(
            &mut out,
            "birch_trace_capacity",
            "gauge",
            "Capacity of the attached trace ring.",
        );
        let _ = writeln!(out, "birch_trace_capacity {}", trace.capacity);
        header(
            &mut out,
            "birch_trace_dropped_total",
            "counter",
            "Events the trace ring evicted.",
        );
        let _ = writeln!(out, "birch_trace_dropped_total {}", trace.dropped);
    }

    if let Some(spans) = &stats.spans {
        header(
            &mut out,
            "birch_span_seconds",
            "gauge",
            "Total wall time per span path (inclusive of children).",
        );
        for root in &spans.roots {
            span_lines(
                &mut out,
                "birch_span_seconds",
                root,
                &mut String::new(),
                &|n| num(n.total.as_secs_f64()),
            );
        }
        header(
            &mut out,
            "birch_span_calls_total",
            "counter",
            "Invocations per span path.",
        );
        for root in &spans.roots {
            span_lines(
                &mut out,
                "birch_span_calls_total",
                root,
                &mut String::new(),
                &|n| n.calls.to_string(),
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::span::{SpanNode, SpanReport};
    use std::time::Duration;

    fn sample_stats() -> RunStats {
        let mut s = RunStats {
            threads: 2,
            phase1_time: Duration::from_millis(1500),
            points_scanned: 1000,
            ..RunStats::default()
        };
        s.memory.budget_bytes = 4096;
        s.memory.pager_pages.record(2048);
        s.metrics.counters.splits = 12;
        s
    }

    #[test]
    fn exposition_has_type_headers_and_core_metrics() {
        let text = prometheus_exposition(&sample_stats());
        assert!(
            text.contains("# TYPE birch_points_scanned counter"),
            "{text}"
        );
        assert!(text.contains("birch_points_scanned 1000"), "{text}");
        assert!(
            text.contains("birch_phase_seconds{phase=\"phase1\"} 1.5"),
            "{text}"
        );
        assert!(
            text.contains("birch_tree_ops_total{op=\"splits\"} 12"),
            "{text}"
        );
        assert!(
            !text.contains("birch_distance_calls_total{kind=\"pruned\"}"),
            "{text}"
        );
        assert!(text.contains("birch_mem_budget_bytes 4096"), "{text}");
        assert!(text.contains("birch_mem_highwater_bytes 2048"), "{text}");
        assert!(text.contains("birch_mem_headroom_bytes 2048"), "{text}");
        assert!(
            text.contains(
                "birch_mem_component_bytes{component=\"pager_pages\",kind=\"peak\"} 2048"
            ),
            "{text}"
        );
    }

    #[test]
    fn every_sample_line_has_a_type_header() {
        // Grammar check: each non-comment line is `name{labels?} value`,
        // and its family appeared in a preceding # TYPE line.
        let text = prometheus_exposition(&sample_stats());
        let mut typed = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.insert(rest.split(' ').next().unwrap().to_string());
            } else if !line.starts_with('#') && !line.is_empty() {
                let name = line.split(['{', ' ']).next().unwrap();
                assert!(typed.contains(name), "sample before TYPE header: {line}");
                let value = line.rsplit(' ').next().unwrap();
                assert!(
                    value.parse::<f64>().is_ok() || value == "NaN" || value.ends_with("Inf"),
                    "unparseable value in: {line}"
                );
            }
        }
    }

    #[test]
    fn spans_export_with_slash_paths() {
        let mut s = sample_stats();
        s.spans = Some(SpanReport {
            roots: vec![SpanNode {
                name: "phase1",
                calls: 1,
                total: Duration::from_secs(2),
                max: Duration::from_secs(2),
                children: vec![SpanNode {
                    name: "insert",
                    calls: 40,
                    total: Duration::from_secs(1),
                    max: Duration::from_millis(100),
                    children: vec![],
                }],
            }],
        });
        let text = prometheus_exposition(&s);
        assert!(
            text.contains("birch_span_seconds{path=\"phase1\"} 2.0"),
            "{text}"
        );
        assert!(
            text.contains("birch_span_seconds{path=\"phase1/insert\"} 1.0"),
            "{text}"
        );
        assert!(
            text.contains("birch_span_calls_total{path=\"phase1/insert\"} 40"),
            "{text}"
        );
    }
}
