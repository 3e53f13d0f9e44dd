//! Runs every workload named in the repository's `BENCHMARK.json` at
//! `--scale 0.01`, untraced and traced, through the benchmark binary, and
//! checks that each run passes its own checks and prints exactly the
//! metrics the file names, each with the file's unit, so the two cannot
//! drift apart.

use std::process::Command;

/// The text of the array under `"key"` in the benchmark file (the arrays
/// hold flat objects, so the first `]` closes it).
fn section<'a>(spec: &'a str, key: &str) -> &'a str {
    let start = spec
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key:?}"));
    let rest = &spec[start..];
    &rest[..rest.find(']').expect("array closes")]
}

/// Every string value of `"key"` in `text`, in order.
fn string_values(text: &str, key: &str) -> Vec<String> {
    let pattern = format!("\"{key}\"");
    text.match_indices(&pattern)
        .map(|(i, _)| {
            let rest = text[i + pattern.len()..].trim_start();
            let rest = rest.strip_prefix(':').expect("key: value").trim_start();
            let rest = rest.strip_prefix('"').expect("string value");
            rest[..rest.find('"').expect("string closes")].to_string()
        })
        .collect()
}

fn metrics(section: &str) -> Vec<(String, String)> {
    let names = string_values(section, "name");
    let units = string_values(section, "unit");
    assert_eq!(names.len(), units.len(), "every metric has a unit");
    names.into_iter().zip(units).collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let workloads = string_values(section(&spec, "workloads"), "name");
    assert_eq!(workloads.len(), 5, "{workloads:?}");
    let end_to_end = metrics(section(&spec, "end_to_end"));
    let per_layer = metrics(section(&spec, "per_layer"));

    for workload in &workloads {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = Command::new(env!("CARGO_BIN_EXE_pipeline_e2e"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
                .args(["--scale", "0.01", "--trace", trace])
                .output()
                .expect("run the benchmark binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            let context = format!("{workload} --trace {trace}\n{stdout}\n{stderr}");
            assert!(out.status.success(), "{context}");
            let last = stdout.lines().last().expect("a result line");
            assert!(last.contains("\"correct\": true"), "{context}");
            assert!(last.contains("\"failed\": 0,"), "{context}");
            assert_eq!(
                last.matches("{\"value\": ").count(),
                expected.len(),
                "metrics printed but not named in BENCHMARK.json: {context}"
            );
            for (name, unit) in expected.iter() {
                let at = last
                    .find(&format!("\"{name}\": {{\"value\": "))
                    .unwrap_or_else(|| panic!("{name} not printed: {context}"));
                let entry = &last[at..at + last[at..].find('}').expect("entry closes")];
                assert!(
                    entry.ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{name} printed as {entry}, expected unit {unit}"
                );
            }
        }
    }
}
