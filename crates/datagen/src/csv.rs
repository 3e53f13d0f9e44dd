//! Plain-CSV dataset I/O.
//!
//! BIRCH is a *database* clustering method: real deployments read points
//! from flat files or cursors, not in-memory vectors. This module gives
//! the workspace (and its CLI/examples) a dependency-free interchange
//! format:
//!
//! ```text
//! x0,x1,...,xd-1[,label]
//! ```
//!
//! with an optional integer label column (ground truth; empty = noise).
//! Buffered line-at-a-time reading follows the database-Rust guidance —
//! one reusable byte buffer, no per-line allocation beyond the parsed
//! floats, and never the whole file in memory.

use birch_core::Point;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Points plus (when requested) per-point ground-truth labels.
pub type LabeledPoints = (Vec<Point>, Option<Vec<Option<usize>>>);

/// Writes points (and optional labels) to a CSV file.
///
/// # Errors
///
/// Propagates file-creation and write errors.
///
/// # Panics
///
/// Panics if `labels` is provided with a mismatched length.
pub fn write_points(
    path: &Path,
    points: &[Point],
    labels: Option<&[Option<usize>]>,
) -> io::Result<()> {
    if let Some(l) = labels {
        assert_eq!(l.len(), points.len(), "labels/points length mismatch");
    }
    let mut out = BufWriter::new(File::create(path)?);
    for (i, p) in points.iter().enumerate() {
        let mut first = true;
        for c in p.iter() {
            if !first {
                out.write_all(b",")?;
            }
            write!(out, "{c}")?;
            first = false;
        }
        if let Some(l) = labels {
            match l[i] {
                Some(v) => write!(out, ",{v}")?,
                None => out.write_all(b",")?,
            }
        }
        out.write_all(b"\n")?;
    }
    out.flush()
}

/// Reads points (and labels, when `labeled` is true) from a CSV file.
///
/// Streams the file a line at a time through one reused byte buffer, so
/// the only allocations are the points themselves, each built from an
/// exactly sized coordinate vector.
///
/// # Errors
///
/// Returns an I/O error for file problems, or `InvalidData` for malformed
/// rows (invalid UTF-8, wrong arity, unparsable numbers, no coordinates,
/// a NaN or infinite coordinate), naming the row.
pub fn read_points(path: &Path, labeled: bool) -> io::Result<LabeledPoints> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut points = Vec::new();
    let mut labels: Vec<Option<usize>> = Vec::new();
    let mut line = Vec::new();
    let mut dim: Option<usize> = None;
    let mut row = 0usize;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        row += 1;
        let text =
            std::str::from_utf8(&line).map_err(|e| bad(row, &format!("invalid UTF-8: {e}")))?;
        let trimmed = text.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        // The label is the last field; a labeled row without a comma has
        // no coordinate fields at all.
        let (fields, label) = if labeled {
            let (fields, raw) = match trimmed.rsplit_once(',') {
                Some((fields, raw)) => (Some(fields), raw),
                None => (None, trimmed),
            };
            let label = if raw.is_empty() {
                None
            } else {
                Some(
                    raw.parse::<usize>()
                        .map_err(|e| bad(row, &format!("label: {e}")))?,
                )
            };
            (fields, label)
        } else {
            (Some(trimmed), None)
        };
        let arity = fields.map_or(0, |f| f.bytes().filter(|&b| b == b',').count() + 1);
        let mut coords = Vec::with_capacity(arity);
        for field in fields.into_iter().flat_map(|f| f.split(',')) {
            let c = field
                .trim()
                .parse::<f64>()
                .map_err(|e| bad(row, &format!("coordinate: {e}")))?;
            coords.push(c);
        }
        match dim {
            None => dim = Some(arity),
            Some(d) if d != arity => {
                return Err(bad(row, &format!("arity {arity} != {d}")));
            }
            Some(_) => {}
        }
        points.push(Point::try_new(coords).map_err(|e| bad(row, &e.to_string()))?);
        if labeled {
            labels.push(label);
        }
    }
    Ok((points, labeled.then_some(labels)))
}

fn bad(row: usize, msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("csv row {row}: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("birch-csv-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_unlabeled() {
        let path = tmp("plain");
        let pts = vec![Point::xy(1.5, -2.25), Point::xy(0.0, 3.0)];
        write_points(&path, &pts, None).unwrap();
        let (back, labels) = read_points(&path, false).unwrap();
        assert_eq!(back, pts);
        assert!(labels.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_labeled_with_noise() {
        let path = tmp("labeled");
        let pts = vec![
            Point::xy(1.0, 2.0),
            Point::xy(3.0, 4.0),
            Point::xy(5.0, 6.0),
        ];
        let labels = vec![Some(0), None, Some(7)];
        write_points(&path, &pts, Some(&labels)).unwrap();
        let (back, back_labels) = read_points(&path, true).unwrap();
        assert_eq!(back, pts);
        assert_eq!(back_labels.unwrap(), labels);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_rows_rejected() {
        let path = tmp("bad");
        let cases: [(&[u8], &str); 2] = [
            (b"1.0,2.0\n3.0,oops\n", "row 2"),
            (b"1.0,2.0\n3.0,4.0\n5.0,\xFF\n", "row 3"),
        ];
        for (bytes, row) in cases {
            std::fs::write(&path, bytes).unwrap();
            let err = read_points(&path, false).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(row), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_coordinates_rejected() {
        let path = tmp("nonfinite");
        for field in ["nan", "inf", "-inf", "NaN"] {
            std::fs::write(&path, format!("1.0,2.0\n3.0,4.0\n5.0,{field}\n")).unwrap();
            let err = read_points(&path, false).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("row 3"), "{err}");
            assert!(err.to_string().contains("finite"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inconsistent_arity_rejected() {
        let path = tmp("arity");
        std::fs::write(&path, "1.0,2.0\n3.0,4.0,5.0\n").unwrap();
        let err = read_points(&path, false).unwrap_err();
        assert!(err.to_string().contains("arity"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn blank_lines_skipped() {
        let path = tmp("blank");
        std::fs::write(&path, "1.0,2.0\n\n3.0,4.0\n").unwrap();
        let (pts, _) = read_points(&path, false).unwrap();
        assert_eq!(pts.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn high_dimensional_roundtrip() {
        let path = tmp("highd");
        let pts = vec![Point::new((0..32).map(f64::from).collect())];
        write_points(&path, &pts, None).unwrap();
        let (back, _) = read_points(&path, false).unwrap();
        assert_eq!(back, pts);
        std::fs::remove_file(&path).ok();
    }
}
