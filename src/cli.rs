//! Command-line flag parsing shared by the `birch-cli` and `birch-report`
//! binaries, so both accept the same flags the same way.

use std::collections::HashMap;

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
        let value = args.next().unwrap_or_else(|| {
            eprintln!("error: flag --{key} needs a value");
            std::process::exit(2);
        });
        map.insert(key.to_string(), value);
    }
    map
}

/// Whether flag `key` is on: given without a value, or with the value
/// `true`, `yes` or `1` (as in `--labeled true`).
#[must_use]
pub fn is_on(flags: &HashMap<String, String>, key: &str) -> bool {
    flags
        .get(key)
        .is_some_and(|v| matches!(v.as_str(), "true" | "yes" | "1"))
}
