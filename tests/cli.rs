//! End-to-end tests of the `birch-cli` binary: generate → cluster → score,
//! exercising the CSV interchange and the process-level interface.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_birch-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("birch-cli-test-{name}-{}", std::process::id()));
    p
}

#[test]
fn generate_then_cluster_roundtrip() {
    let data = tmp("data.csv");
    let summary = tmp("summary.csv");
    let labels = tmp("labels.csv");

    let out = cli()
        .args(["generate", "--preset", "ds1", "--out"])
        .arg(&data)
        .args(["--per-cluster", "50", "--seed", "7"])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote 5000 points"), "{stdout}");

    let out = cli()
        .args(["cluster", "--input"])
        .arg(&data)
        .args(["--k", "100", "--labeled", "true", "--summary-out"])
        .arg(&summary)
        .arg("--labels-out")
        .arg(&labels)
        .output()
        .expect("run cluster");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("read 5000 points"), "{stdout}");
    assert!(stdout.contains("found 100 clusters"), "{stdout}");
    assert!(stdout.contains("vs ground truth: ARI"), "{stdout}");

    // Artifacts exist and have the right shapes.
    let summary_text = std::fs::read_to_string(&summary).unwrap();
    assert!(summary_text.starts_with("index,n,c0,c1,radius,diameter"));
    assert_eq!(summary_text.lines().count(), 101); // header + 100 clusters
    let labels_text = std::fs::read_to_string(&labels).unwrap();
    assert_eq!(labels_text.lines().count(), 5000);

    for p in [&data, &summary, &labels] {
        std::fs::remove_file(p).ok();
    }
}

/// Pulls the first `"key":<integer>` match out of a JSON string.
fn json_uint(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    let digits: String = json[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{key} not an integer in {json}"))
}

#[test]
fn metrics_json_matches_stdout() {
    let data = tmp("metrics-data.csv");
    let metrics = tmp("metrics.json");

    let out = cli()
        .args(["generate", "--preset", "ds1", "--out"])
        .arg(&data)
        .args(["--per-cluster", "100", "--seed", "11"])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A small memory budget forces rebuilds so the trajectory is non-empty.
    let out = cli()
        .args(["cluster", "--input"])
        .arg(&data)
        .args([
            "--k",
            "100",
            "--labeled",
            "true",
            "--memory-kb",
            "16",
            "--metrics-json",
        ])
        .arg(&metrics)
        .arg("--trace")
        .output()
        .expect("run cluster");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);

    let json = std::fs::read_to_string(&metrics).unwrap();
    for key in [
        "phase_times",
        "rebuilds",
        "threshold_trajectory",
        "peak_pages",
    ] {
        assert!(
            json.contains(&format!("\"{key}\":")),
            "missing {key} in {json}"
        );
    }

    // The JSON's counters agree with the stdout summary line
    // ("found N clusters in T (R rebuilds, peak P pages):").
    let rebuilds = json_uint(&json, "rebuilds");
    let peak_pages = json_uint(&json, "peak_pages");
    assert!(
        stdout.contains(&format!("({rebuilds} rebuilds, peak {peak_pages} pages)")),
        "stdout disagrees with metrics JSON (rebuilds={rebuilds}, peak={peak_pages}): {stdout}"
    );
    assert!(rebuilds > 0, "16 KB budget should force rebuilds: {json}");
    assert!(
        stdout.contains("trace:"),
        "--trace printed nothing: {stdout}"
    );

    for p in [&data, &metrics] {
        std::fs::remove_file(p).ok();
    }
}

/// `--threads 4 --metrics-json` must emit the current-schema parallel
/// fields, and `--threads 1` must produce artifacts byte-identical to the
/// serial path (no `--threads` flag at all) — the degenerate shard count
/// is not allowed to perturb the clustering.
#[test]
fn threads_flag_schema_and_serial_identity() {
    let data = tmp("threads-data.csv");
    let metrics = tmp("threads-metrics.json");

    let out = cli()
        .args(["generate", "--preset", "ds1", "--out"])
        .arg(&data)
        .args(["--per-cluster", "40", "--seed", "23"])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Parallel run: schema-v2 JSON with thread/merge/shard fields.
    let out = cli()
        .args(["cluster", "--input"])
        .arg(&data)
        .args(["--k", "100", "--threads", "4", "--metrics-json"])
        .arg(&metrics)
        .output()
        .expect("run cluster --threads 4");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        json.contains(&format!(
            "\"schema_version\":{}",
            birch::core::METRICS_SCHEMA_VERSION
        )),
        "{json}"
    );
    assert!(json.contains("\"threads\":4"), "{json}");
    assert!(json.contains("\"merge_s\":"), "{json}");
    assert!(json.contains("\"shards\":[{\"shard\":0,"), "{json}");
    // Schema v4: memory gauge, tree health, trace/spans slots.
    assert!(json.contains("\"memory\":{\"budget_bytes\":"), "{json}");
    assert!(json.contains("\"mem_highwater_bytes\":"), "{json}");
    assert!(json.contains("\"tree_health\":{\"height\":"), "{json}");
    assert!(json.contains("\"trace\":null"), "{json}");
    assert!(json.contains("\"spans\":null"), "{json}");
    assert!(json.contains("\"disk_write_attempts\":"), "{json}");
    assert!(json.contains("\"disk_faults_injected\":"), "{json}");

    // `--threads 1` vs the serial default: byte-identical artifacts.
    // BIRCH_THREADS is scrubbed so the flagless run really is serial even
    // under the CI matrix that exports it.
    let run = |threads: Option<&str>, tag: &str| {
        let summary = tmp(&format!("threads-summary-{tag}.csv"));
        let labels = tmp(&format!("threads-labels-{tag}.csv"));
        let mut cmd = cli();
        cmd.env_remove("BIRCH_THREADS")
            .args(["cluster", "--input"])
            .arg(&data)
            .args(["--k", "100", "--summary-out"])
            .arg(&summary)
            .arg("--labels-out")
            .arg(&labels);
        if let Some(t) = threads {
            cmd.args(["--threads", t]);
        }
        let out = cmd.output().expect("run cluster");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let s = std::fs::read(&summary).unwrap();
        let l = std::fs::read(&labels).unwrap();
        for p in [&summary, &labels] {
            std::fs::remove_file(p).ok();
        }
        (s, l)
    };
    let (summary_one, labels_one) = run(Some("1"), "one");
    let (summary_ser, labels_ser) = run(None, "ser");
    assert!(
        summary_one == summary_ser,
        "--threads 1 summary differs from the serial path"
    );
    assert!(
        labels_one == labels_ser,
        "--threads 1 labels differ from the serial path"
    );

    for p in [&data, &metrics] {
        std::fs::remove_file(p).ok();
    }
}

/// `--metrics-prom` with `--profile` must emit well-formed Prometheus
/// text exposition: typed families for the headline counters, the io
/// counters (including write attempts / injected faults), the memory
/// gauge, and — because the profiler is on — span series.
#[test]
fn metrics_prom_and_profile_export() {
    let data = tmp("prom-data.csv");
    let prom = tmp("metrics.prom");

    let out = cli()
        .args(["generate", "--preset", "ds1", "--out"])
        .arg(&data)
        .args(["--per-cluster", "40", "--seed", "5"])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // BIRCH_THREADS is scrubbed so the span paths are the serial ones
    // (`phase1/insert`, not `phase1/shard/insert`) even under the CI
    // matrix that exports it.
    let out = cli()
        .env_remove("BIRCH_THREADS")
        .args(["cluster", "--input"])
        .arg(&data)
        .args([
            "--k",
            "100",
            "--labeled",
            "true",
            "--profile",
            "--metrics-prom",
        ])
        .arg(&prom)
        .output()
        .expect("run cluster --profile --metrics-prom");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&prom).unwrap();
    for needle in [
        "# TYPE birch_points_scanned counter",
        "# TYPE birch_phase_seconds gauge",
        "# TYPE birch_mem_budget_bytes gauge",
        "birch_points_scanned 4000",
        "birch_io_total{op=\"disk_write_attempts\"}",
        "birch_io_total{op=\"disk_faults_injected\"}",
        "birch_mem_highwater_bytes",
        "birch_tree_height",
        "birch_span_seconds{path=\"phase1\"}",
        "birch_span_calls_total{path=\"phase1/insert\"}",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // Every sample belongs to a family declared with a # TYPE header.
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let family = line.split(['{', ' ']).next().unwrap_or_default();
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "sample {line:?} has no # TYPE header"
        );
    }

    for p in [&data, &prom] {
        std::fs::remove_file(p).ok();
    }
}

/// `birch-report --folded` writes inferno-compatible folded stacks:
/// every line is `root(;child)* <self-µs>` with an integer sample value,
/// and the phase roots appear.
#[test]
fn birch_report_writes_folded_stacks() {
    let folded = tmp("spans.folded");

    let out = Command::new(env!("CARGO_BIN_EXE_birch-report"))
        .args([
            "--preset",
            "ds1",
            "--per-cluster",
            "20",
            "--seed",
            "3",
            "--folded",
        ])
        .arg(&folded)
        .output()
        .expect("run birch-report");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== span profile =="), "{stdout}");
    assert!(
        stdout.contains("span totals vs phase wall clocks:"),
        "{stdout}"
    );
    assert!(stdout.contains("== memory (budget M) =="), "{stdout}");

    let text = std::fs::read_to_string(&folded).unwrap();
    assert!(!text.is_empty(), "folded output is empty");
    let mut saw_phase1 = false;
    for line in text.lines() {
        let (stack, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no sample value in folded line {line:?}"));
        assert!(
            value.parse::<u64>().is_ok(),
            "sample value {value:?} is not an integer in {line:?}"
        );
        assert!(!stack.is_empty(), "empty stack in {line:?}");
        for frame in stack.split(';') {
            assert!(!frame.is_empty(), "empty frame in {line:?}");
        }
        saw_phase1 |= stack == "phase1" || stack.starts_with("phase1;");
    }
    assert!(saw_phase1, "no phase1 frames in folded output:\n{text}");

    std::fs::remove_file(&folded).ok();
}

/// `birch-report --input` honours `--labeled true` the way `birch-cli
/// cluster` does: a generated DS1 file's label column is skipped, not
/// clustered as a third coordinate.
#[test]
fn birch_report_reads_labeled_csv() {
    let data = tmp("report-labeled.csv");
    let out = cli()
        .args(["generate", "--preset", "ds1", "--out"])
        .arg(&data)
        .args(["--per-cluster", "20", "--seed", "5"])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = Command::new(env!("CARGO_BIN_EXE_birch-report"))
        .arg("--input")
        .arg(&data)
        .args(["--labeled", "true", "--k", "100"])
        .output()
        .expect("run birch-report");
    std::fs::remove_file(&data).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(", dim 2;"), "{stdout}");
}

#[test]
fn cluster_rejects_missing_file() {
    let out = cli()
        .args(["cluster", "--input", "/nonexistent/nope.csv", "--k", "3"])
        .output()
        .expect("run cluster");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error reading"));
}

#[test]
fn cluster_rejects_non_finite_coordinates() {
    let data = tmp("nonfinite.csv");
    std::fs::write(&data, "1.0,2.0\n3.0,4.0\n5.0,nan\n7.0,8.0\n").unwrap();
    let out = cli()
        .args(["cluster", "--input", data.to_str().unwrap(), "--k", "2"])
        .output()
        .expect("run cluster");
    std::fs::remove_file(&data).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("row 3"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn no_subcommand_prints_usage() {
    let out = cli().output().expect("run bare");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_preset_rejected() {
    let out = cli()
        .args(["generate", "--preset", "ds9", "--out", "/tmp/unused.csv"])
        .output()
        .expect("run generate");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown preset"));
}
