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
//!
//! # Reading
//!
//! [`read_points`] streams the file through one read buffer and never
//! holds the whole file: the buffer grows only for a row longer than it,
//! and a row cut off by the end of a read is carried over to the next.
//! Each row is parsed in one pass straight out of the buffer, with no
//! per-line copy, UTF-8 check or split. The fast path takes a row whose
//! fields are all canonical numbers, `-?digits[.digits][(e|E)[+-]digits]`
//! with at most 19 significant digits and an exponent below 65,536, each
//! followed by `,`, `\n`, `\r\n` or the end of the file; in a labeled
//! file the last field is the label, empty or plain digits. It converts
//! each number exactly, to the bits `str::parse::<f64>` returns
//! (Eisel–Lemire for decimal exponents in `[-27, 27]`, `str::parse`
//! itself outside them).
//!
//! Every other row is declined: spaces, a leading `+`, `inf` or `nan`, an
//! empty field, a non-ASCII byte, a 20th significant digit, a larger
//! exponent, a label that is not plain digits, a row of the wrong arity.
//! A declined row goes through the per-row path, which reads the line as
//! text exactly as this reader always has, so its value, its error
//! message and the row number in that message do not depend on the fast
//! path. After a decline the fast path sits out a few rows, more after
//! each further decline, so a file whose rows all decline costs no more
//! than the per-row path alone.

mod decimal;

use birch_core::Point;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::ops::Range;
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
/// Streams the file through one read buffer and parses each row in one
/// pass straight out of it, so the only allocations are the points
/// themselves, each built from an exactly sized coordinate vector. A row
/// of canonical numbers (see the module doc) is read on the fast path;
/// any other row goes through the per-row path, which gives it the same
/// value or error as ever.
///
/// # Errors
///
/// Returns an I/O error for file problems, or `InvalidData` for malformed
/// rows (invalid UTF-8, wrong arity, unparsable numbers, no coordinates,
/// a NaN or infinite coordinate), naming the row.
pub fn read_points(path: &Path, labeled: bool) -> io::Result<LabeledPoints> {
    read_points_buffered(path, labeled, READ_BUF)
}

/// Bytes of the read buffer; a row longer than this grows it.
const READ_BUF: usize = 1 << 16;

/// Most rows in a row the fast path sits out after declining.
const MAX_REST: usize = 1 << 10;

/// [`read_points`] with a read buffer of `buf_bytes` to start with.
fn read_points_buffered(path: &Path, labeled: bool, buf_bytes: usize) -> io::Result<LabeledPoints> {
    let mut file = File::open(path)?;
    let mut buf = vec![0; buf_bytes.max(1)];
    // The unread bytes are `buf[start..end]`; `eof` once a read returned 0.
    let (mut start, mut end, mut eof) = (0, 0, false);
    let mut points = Vec::new();
    let mut labels: Vec<Option<usize>> = Vec::new();
    let (mut fields, mut coords) = (Vec::new(), Vec::new());
    let mut dim: Option<usize> = None;
    let mut row = 0usize;
    // After a declined row the fast path sits out the next `rest` rows,
    // twice as many after each further decline (up to `MAX_REST`) and
    // none once it accepts a row again. A file whose rows all decline so
    // pays for a failed attempt on about one row in `MAX_REST`.
    let (mut rest, mut backoff) = (0, 0);
    loop {
        let data = &buf[start..end];
        if data.is_empty() && eof {
            break;
        }
        let scan = if rest == 0 {
            scan_row(data, eof, labeled, dim, &mut fields, &mut coords)
        } else {
            Scan::Declined { at: 0 }
        };
        let taken = match scan {
            Scan::Row { len, label } => {
                row += 1;
                dim = Some(coords.len());
                points.push(Point::try_new(coords.to_vec()).map_err(|e| bad(row, &e.to_string()))?);
                if labeled {
                    labels.push(label);
                }
                backoff = 0;
                Some(len)
            }
            Scan::Declined { at } => {
                let len = find_newline(&data[at..])
                    .map(|nl| at + nl + 1)
                    .or(eof.then_some(data.len()));
                if let Some(len) = len {
                    row += 1;
                    if let Some((point, label)) = parse_line(&data[..len], row, labeled, &mut dim)?
                    {
                        points.push(point);
                        if labeled {
                            labels.push(label);
                        }
                    }
                    if rest == 0 {
                        backoff = (2 * backoff).clamp(1, MAX_REST);
                        rest = backoff;
                    } else {
                        rest -= 1;
                    }
                }
                len
            }
            Scan::Short => None,
        };
        match taken {
            Some(len) => start += len,
            None => eof = refill(&mut file, &mut buf, &mut start, &mut end)?,
        }
    }
    Ok((points, labeled.then_some(labels)))
}

/// Index of the first `\n` in `data`, searched a word at a time.
fn find_newline(data: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([1; 8]);
    const HIGHS: u64 = ONES << 7;
    let mut words = data.chunks_exact(8);
    for (k, word) in (&mut words).enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ (ONES * u64::from(b'\n'));
        // The lowest high bit set marks the first zero byte of `w`.
        let zero = w.wrapping_sub(ONES) & !w & HIGHS;
        if zero != 0 {
            return Some(8 * k + zero.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let base = data.len() - tail.len();
    tail.iter().position(|&b| b == b'\n').map(|i| base + i)
}

/// Moves the unread bytes to the front of `buf`, doubling it when they
/// fill it, and reads more after them. Returns whether the file ended.
fn refill(
    file: &mut File,
    buf: &mut Vec<u8>,
    start: &mut usize,
    end: &mut usize,
) -> io::Result<bool> {
    buf.copy_within(*start..*end, 0);
    *end -= *start;
    *start = 0;
    if *end == buf.len() {
        buf.resize(2 * buf.len(), 0);
    }
    loop {
        match file.read(&mut buf[*end..]) {
            Ok(n) => {
                *end += n;
                return Ok(n == 0);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// What one pass over the row at the front of the unread bytes found.
enum Scan {
    /// A row of canonical fields, `len` bytes with its terminator, whose
    /// coordinates are in the scratch vector.
    Row { len: usize, label: Option<usize> },
    /// A row the per-row path must read. No `\n` comes before byte `at`.
    Declined { at: usize },
    /// The bytes ended inside the row before the file did.
    Short,
}

/// A canonical field of the row being scanned: its number and its text.
type Field = (decimal::Decimal, Range<usize>);

/// What follows a field.
enum After {
    Comma,
    /// The end of the row, which is `len` bytes long.
    End(usize),
    Short,
    Other,
}

/// Classifies the bytes at `data[i]`: a comma, a row terminator (`\n`,
/// `\r\n`, or the end of the file), or anything else.
fn after(data: &[u8], i: usize, eof: bool) -> After {
    match data.get(i) {
        Some(b',') => After::Comma,
        Some(b'\n') => After::End(i + 1),
        Some(b'\r') => match data.get(i + 1) {
            Some(b'\n') => After::End(i + 2),
            None if !eof => After::Short,
            _ => After::Other,
        },
        Some(_) => After::Other,
        None if eof => After::End(i),
        None => After::Short,
    }
}

/// Parses the row at the front of `data` in one pass. Each field must be
/// a canonical number ended by a comma or the row terminator; in a
/// labeled file the last field is the label, empty or plain digits. The
/// row must have `dim` coordinates once `dim` is known. Only a row that
/// passes all that is converted, into `coords`.
fn scan_row(
    data: &[u8],
    eof: bool,
    labeled: bool,
    dim: Option<usize>,
    fields: &mut Vec<Field>,
    coords: &mut Vec<f64>,
) -> Scan {
    fields.clear();
    let mut i = 0;
    let (len, label) = loop {
        let field = i;
        let number = decimal::scan(data, &mut i);
        let len = match after(data, i, eof) {
            After::Comma => {
                let Some(n) = number else {
                    return Scan::Declined { at: i };
                };
                fields.push((n, field..i));
                i += 1;
                continue;
            }
            After::End(len) => len,
            After::Short => return Scan::Short,
            After::Other => return Scan::Declined { at: i },
        };
        // A failed scan that stopped on the terminator is an empty field.
        match (labeled, number) {
            (true, None) => break (len, None),
            (true, Some(n)) => match n.label() {
                Some(label) => break (len, Some(label)),
                None => return Scan::Declined { at: i },
            },
            (false, Some(n)) => {
                fields.push((n, field..i));
                break (len, None);
            }
            (false, None) => return Scan::Declined { at: i },
        }
    };
    if fields.is_empty() || dim.is_some_and(|d| d != fields.len()) {
        return Scan::Declined { at: i };
    }
    coords.clear();
    for (number, text) in fields.iter() {
        let Some(c) = value(*number, &data[text.clone()]) else {
            return Scan::Declined { at: i };
        };
        coords.push(c);
    }
    Scan::Row { len, label }
}

/// A coordinate's value: exact from its decimal, or `str::parse` of its
/// text when the exponent is outside the exact window.
fn value(number: decimal::Decimal, text: &[u8]) -> Option<f64> {
    number
        .to_f64()
        .or_else(|| std::str::from_utf8(text).ok()?.parse().ok())
}

/// Reads one line, terminator included, as row `row`: `None` for a blank
/// line, else the point and its label (`None` when unlabeled). Sets `dim`
/// from the first row with coordinates and checks every later row
/// against it.
fn parse_line(
    line: &[u8],
    row: usize,
    labeled: bool,
    dim: &mut Option<usize>,
) -> io::Result<Option<(Point, Option<usize>)>> {
    let text = std::str::from_utf8(line).map_err(|e| bad(row, &format!("invalid UTF-8: {e}")))?;
    let trimmed = text.trim_end();
    if trimmed.is_empty() {
        return Ok(None);
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
    match *dim {
        None => *dim = Some(arity),
        Some(d) if d != arity => {
            return Err(bad(row, &format!("arity {arity} != {d}")));
        }
        Some(_) => {}
    }
    let point = Point::try_new(coords).map_err(|e| bad(row, &e.to_string()))?;
    Ok(Some((point, label)))
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

    /// The per-row path alone, a line at a time through a `BufReader`:
    /// the reference the one-pass reader must equal.
    fn read_points_per_row(path: &Path, labeled: bool) -> io::Result<LabeledPoints> {
        let mut reader = io::BufReader::new(File::open(path)?);
        let (mut points, mut labels, mut line) = (Vec::new(), Vec::new(), Vec::new());
        let (mut dim, mut row) = (None, 0);
        loop {
            line.clear();
            if io::BufRead::read_until(&mut reader, b'\n', &mut line)? == 0 {
                break;
            }
            row += 1;
            if let Some((point, label)) = parse_line(&line, row, labeled, &mut dim)? {
                points.push(point);
                labels.push(label);
            }
        }
        Ok((points, labeled.then_some(labels)))
    }

    /// Coordinate bits and labels, or the error's kind and message.
    type Outcome = Result<(Vec<Vec<u64>>, Option<Vec<Option<usize>>>), (io::ErrorKind, String)>;

    fn outcome(read: io::Result<LabeledPoints>) -> Outcome {
        read.map(|(points, labels)| {
            let bits = points
                .iter()
                .map(|p| p.iter().map(|c| c.to_bits()).collect())
                .collect();
            (bits, labels)
        })
        .map_err(|e| (e.kind(), e.to_string()))
    }

    /// Files that exercise every way a row leaves the fast path, each
    /// read labeled and unlabeled through buffers of 1 to 48 bytes (so
    /// rows straddle every boundary and outgrow the buffer) and the real
    /// one: the reader equals the per-row reference in points, labels,
    /// error kind, message and row number.
    #[test]
    fn reader_matches_per_row_path() {
        let long_row = |c: &str| vec![c; 5_000].join(",");
        let big = format!(
            "{}\n{}\r\n{}",
            long_row("1.2345678901234567"),
            long_row("-0.5e-3"),
            long_row("7")
        );
        let cases: Vec<Vec<u8>> = vec![
            b"1.0,2.0\n3.5,-4.25\n".to_vec(),
            b"1.0,2.0\n3.0,4.0".to_vec(),
            b"1.0,2.0\r\n3.0,4.0\r\n".to_vec(),
            b"1.0,2.0\r\n3.0,4.0\r".to_vec(),
            "\u{feff}1.0,2.0\n3.0,4.0\n".into(),
            b"1.0,2.0\n\n   \n\t\r\n\r\n3.0,4.0\n\n".to_vec(),
            b"1.0, 2.0\n+1,2\n1e5,2\n.5,2\n5.,2\n-0,2\n-0.0e-400,1\n".to_vec(),
            b"12345678901234567890,2\n1.2345678901234567890123e-5,0.1\n".to_vec(),
            b"00000000000000000000000000001.5,2\n1e-30,1e30\n".to_vec(),
            b"1.0,2.0\n1e400,2\n".to_vec(),
            b"1.0,2.0\nnan,2\n".to_vec(),
            b"1.0,2.0\n2.0,inf\n".to_vec(),
            b"1.0,2.0\n\n3.0,oops\n".to_vec(),
            b"1,2\n1,2,3\n".to_vec(),
            b"1,2\n1,,3\n".to_vec(),
            b"1,2,\n3,4,\n".to_vec(),
            "1.0,2.0\n3.0,4.0\u{e9}\n".into(),
            b"1.0,2.0\n3.0,\xFF\n".to_vec(),
            b"1.0,2.0,\n3.0,4.0,+3\n5.0,6.0,12345678901234567890\n7.0,8.0,007\n".to_vec(),
            b"1.0,2.0,5\n3.0,4.0,99999999999999999999\n".to_vec(),
            b"1.0,2.0,5\n3.0,4.0,-1\n".to_vec(),
            b"1.0,2.0,5\n3.0,4.0,2.5\n".to_vec(),
            b"5\n".to_vec(),
            b",\n".to_vec(),
            b"1.5\n".to_vec(),
            b"".to_vec(),
            b"\n\n".to_vec(),
            big.into(),
        ];
        let path = tmp("equivalence");
        for bytes in &cases {
            std::fs::write(&path, bytes).unwrap();
            for labeled in [false, true] {
                let want = outcome(read_points_per_row(&path, labeled));
                for buf_bytes in (1..=48).chain([READ_BUF]) {
                    let got = outcome(read_points_buffered(&path, labeled, buf_bytes));
                    assert_eq!(
                        got,
                        want,
                        "{:?}, labeled {labeled}, buffer {buf_bytes}",
                        String::from_utf8_lossy(&bytes[..bytes.len().min(80)])
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A generated file larger than the read buffer, labeled, read
    /// through the real buffer: equal to the per-row reference and to
    /// the points written.
    #[test]
    fn generated_file_matches_per_row_path() {
        let ds = crate::Dataset::generate(&crate::presets::ds1_scaled_n(5, 50));
        let path = tmp("generated");
        write_points(&path, &ds.points, Some(&ds.labels)).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > 2 * READ_BUF as u64);
        let got = read_points(&path, true).unwrap();
        assert_eq!(
            outcome(Ok(got.clone())),
            outcome(read_points_per_row(&path, true))
        );
        assert_eq!(got.0, ds.points);
        assert_eq!(got.1.unwrap(), ds.labels);
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
