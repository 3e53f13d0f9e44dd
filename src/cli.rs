//! Command-line flag parsing shared by the `birch-cli` and `birch-report`
//! binaries, so both accept the same flags the same way.
//!
//! A malformed flag is a usage error: the binary prints
//! `error: --<flag> …` and exits with status 2 instead of panicking.

use birch_core::BirchConfig;
use birch_datagen::{presets, DatasetSpec};
use std::collections::HashMap;
use std::fmt::Display;
use std::num::NonZeroUsize;
use std::str::FromStr;

/// Flags that take no value; their presence means "true".
const BOOLEAN_FLAGS: &[&str] = &["trace", "profile", "out-of-core"];

/// Parses `--key value` pairs, and the value-less `--trace`, `--profile`
/// and `--out-of-core`, into a map. Warns about and skips stray
/// arguments; exits with status 2 when a flag is missing its value.
#[must_use]
pub fn parse_flags(args: impl Iterator<Item = String>) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let Some(key) = flag.strip_prefix("--") else {
            eprintln!("warning: ignoring stray argument {flag:?}");
            continue;
        };
        if BOOLEAN_FLAGS.contains(&key) {
            map.insert(key.to_string(), String::from("true"));
            continue;
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage_error(format_args!("flag --{key} needs a value")));
        map.insert(key.to_string(), value);
    }
    map
}

/// Prints `error: <msg>` and exits with status 2, the usage-error code.
pub fn usage_error(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Whether flag `key` is on: given without a value, or with the value
/// `true`, `yes` or `1` (as in `--labeled true`).
#[must_use]
pub fn is_on(flags: &HashMap<String, String>, key: &str) -> bool {
    flags
        .get(key)
        .is_some_and(|v| matches!(v.as_str(), "true" | "yes" | "1"))
}

/// Flag `key` parsed as a `T`, or `None` when the flag is absent. A value
/// that does not parse is a usage error naming the flag and `want`.
#[must_use]
fn parsed<T: FromStr>(flags: &HashMap<String, String>, key: &str, want: &str) -> Option<T> {
    flags.get(key).map(|v| {
        v.parse()
            .unwrap_or_else(|_| usage_error(format_args!("--{key} must be {want}, got {v:?}")))
    })
}

/// Flag `key` as a count of at least 1, or `None` when absent; `0` is a
/// usage error like any other value that is not a positive integer.
#[must_use]
pub fn positive(flags: &HashMap<String, String>, key: &str) -> Option<usize> {
    parsed::<NonZeroUsize>(flags, key, "a positive integer").map(NonZeroUsize::get)
}

/// The dataset `--preset` names (default `ds1`), seeded by `--seed`
/// (default 42), with `--per-cluster` points per cluster, or
/// `default_per` when that flag is absent (`None` keeps the preset's own
/// sizes). For a preset whose cluster sizes vary, the largest becomes
/// twice the value, so DS3's sizes, which start at 0, average it.
/// Returns the preset's name with its spec.
#[must_use]
pub fn preset_spec(
    flags: &HashMap<String, String>,
    default_per: Option<usize>,
) -> (&str, DatasetSpec) {
    let seed = parsed(flags, "seed", "an unsigned integer").unwrap_or(42);
    let name = flags.get("preset").map_or("ds1", String::as_str);
    let mut spec = match name {
        "ds1" => presets::ds1(seed),
        "ds2" => presets::ds2(seed),
        "ds3" => presets::ds3(seed),
        "ds1o" => presets::ds1o(seed),
        "ds2o" => presets::ds2o(seed),
        "ds3o" => presets::ds3o(seed),
        other => usage_error(format_args!(
            "--preset {other:?} is an unknown preset (want ds1, ds2, ds3, ds1o, ds2o or ds3o)"
        )),
    };
    if let Some(per) = positive(flags, "per-cluster").or(default_per) {
        if spec.n_low == spec.n_high {
            spec.n_low = per;
            spec.n_high = per;
        } else {
            spec.n_high = 2 * per;
        }
    }
    (name, spec)
}

/// The configuration both binaries cluster into `k` clusters with (read
/// `--k` with [`positive`]), set from `--metric`, `--memory-kb`,
/// `--threads` and `--out-of-core`.
#[must_use]
pub fn config(flags: &HashMap<String, String>, k: usize) -> BirchConfig {
    let mut config = BirchConfig::with_clusters(k);
    if let Some(metric) = parsed(flags, "metric", "one of D0..D4") {
        config = config.metric(metric);
    }
    if let Some(kb) = positive(flags, "memory-kb") {
        let bytes = kb
            .checked_mul(1024)
            .unwrap_or_else(|| usage_error(format_args!("--memory-kb {kb} is too large")));
        config = config.memory(bytes);
    }
    if let Some(threads) = positive(flags, "threads") {
        config = config.threads(threads);
    }
    if is_on(flags, "out-of-core") {
        config = config.out_of_core(true);
    }
    config
}
