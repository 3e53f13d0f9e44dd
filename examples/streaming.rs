//! Streaming / anytime clustering with [`StreamingBirch`].
//!
//! BIRCH is "incremental … and can typically give a good clustering with a
//! single scan" (§1). This example pushes an unbounded sensor stream into
//! a [`StreamingBirch`] and snapshots an anytime clustering whenever it
//! likes — no restart, no second pass, no raw points retained.
//!
//! It also shows the telemetry layer: a custom [`EventSink`] announces
//! rebuilds the moment they happen, and each round ends with the
//! recorder's one-line metrics summary.
//!
//! ```text
//! cargo run --release --example streaming
//! ```

use birch::prelude::*;
use birch_core::StreamingBirch;

/// A live sink: print a line the moment the stream's tree is rebuilt.
/// Everything else (counters, histogram, trajectory) is aggregated by the
/// built-in recorder — a custom sink is only for *reacting* to events.
struct RebuildAnnouncer;

impl EventSink for RebuildAnnouncer {
    fn record(&mut self, event: &Event) {
        if let Event::RebuildTriggered {
            old_threshold,
            new_threshold,
            ..
        } = event
        {
            println!(
                "    [telemetry] memory full — rebuilding, T {old_threshold:.3} -> \
                 {new_threshold:.3}"
            );
        }
    }
}

/// A fake endless sensor: three drifting sources emitting interleaved
/// readings.
fn reading(t: usize) -> Point {
    let source = t % 3;
    let drift = t as f64 * 1e-4;
    let base = source as f64 * 25.0;
    let wobble = ((t as f64) * 0.7).sin();
    Point::xy(base + drift + wobble * 0.5, base - drift + wobble * 0.3)
}

fn main() {
    let mut stream = StreamingBirch::with_sink(
        BirchConfig::with_clusters(3).memory(16 * 1024),
        2,
        RebuildAnnouncer,
    );

    let chunk = 20_000usize;
    for round in 1..=3 {
        for t in (round - 1) * chunk..round * chunk {
            stream.push(&reading(t));
        }

        // Anytime snapshot: globally cluster the current summary.
        let snapshot = stream.snapshot();
        println!(
            "after {:>6} readings: summary holds {} entries, {} clusters:",
            stream.points_seen(),
            stream.summary_size(),
            snapshot.len()
        );
        for (i, c) in snapshot.iter().enumerate() {
            println!(
                "    cluster {i}: {:>7.0} readings around ({:>6.2}, {:>6.2}), radius {:.2}",
                c.weight(),
                c.centroid[0],
                c.centroid[1],
                c.radius
            );
        }
        println!("    metrics: {}", stream.metrics().one_line());
    }

    let (final_clusters, out) = stream.finish();
    println!(
        "\nfinal: {} clusters from {} points using {} tree pages \
         ({} rebuilds, thresholds {:?})",
        final_clusters.len(),
        out.points_scanned,
        out.tree.node_count(),
        out.metrics.rebuilds,
        out.metrics
            .threshold_trajectory
            .iter()
            .map(|p| (p.threshold * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    println!("the stream itself was never stored: only CF summaries survive");
}
