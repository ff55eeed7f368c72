//! Dataset import/export as plain CSV (`min_x,min_y,max_x,max_y` rows).
//!
//! The paper's evaluation is synthetic, but the library is meant for real
//! layers (roads, rivers, parcels…). This module round-trips datasets
//! through a dependency-free CSV format so users can bring their own MBRs.
//!
//! # What the reader accepts
//!
//! [`Dataset::from_csv`] reads the text once, finding delimiters eight
//! bytes at a time; this list is its specification, and the differential
//! tests hold it to the `lines` / `split` / `trim` reader it replaced:
//!
//! * A line ends at `\n` or at the end of the text; a final line needs no
//!   newline. Lines are numbered from 1, blank ones included.
//! * A line's fields are separated by `,`. Nothing is quoted or escaped.
//! * Whitespace around a field (`str::trim`: Unicode `White_Space`, so the
//!   `\r` of a `\r\n` ending too) is not part of the field; whitespace
//!   inside one is.
//! * A line with one field that is empty after trimming is blank and is
//!   skipped.
//! * The first line that is not blank is a header, and skipped, iff its
//!   first field does not parse as an `f64` (`inf` and `NaN` do parse: such
//!   a line is data, and fails as data). Any later line is data.
//! * A data line has exactly four fields, else
//!   [`CsvError::WrongFieldCount`] — checked before any number is, so a
//!   short line of bad numbers reports its length.
//! * Every field of a data line parses with `str::parse::<f64>` to a
//!   finite value; the first that does not, left to right, is the
//!   [`CsvError::BadNumber`] with its trimmed text.
//! * A text without a data line is [`CsvError::Empty`].

use crate::Dataset;
use mwsj_geom::Rect;
use std::fmt::{self, Write as _};
use std::fs;
use std::path::Path;

/// Errors raised when parsing a dataset from CSV.
#[derive(Debug, Clone, PartialEq)]
pub enum CsvError {
    /// A row had the wrong number of fields.
    WrongFieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        got: usize,
    },
    /// A field failed to parse as a finite number.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending field text.
        field: String,
    },
    /// The file contained no rectangles.
    Empty,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::WrongFieldCount { line, got } => {
                write!(f, "line {line}: expected 4 fields, got {got}")
            }
            CsvError::BadNumber { line, field } => {
                write!(f, "line {line}: '{field}' is not a finite number")
            }
            CsvError::Empty => write!(f, "no rectangles in input"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Header row [`Dataset::to_csv`] writes.
const HEADER: &str = "min_x,min_y,max_x,max_y\n";
/// Mean bytes of a data row as [`Dataset::to_csv`] writes it, measured on
/// uniform data: four shortest-round-trip `f64`s of 17–19 characters plus
/// four delimiters. Sizes the writer's buffer and the reader's vector.
const ROW_BYTES: usize = 77;

impl Dataset {
    /// Serialises the dataset as CSV with a header row.
    pub fn to_csv(&self) -> String {
        // A few bytes a row of slack: the mean is not a bound.
        let mut out = String::with_capacity(HEADER.len() + self.len() * (ROW_BYTES + 3));
        out.push_str(HEADER);
        for r in self.rects() {
            // Unreachable: `String`'s `write_str` only appends, it has no `Err`.
            writeln!(out, "{},{},{},{}", r.min.x, r.min.y, r.max.x, r.max.y)
                .expect("writing to a String cannot fail");
        }
        out
    }

    /// Parses a dataset from CSV (the grammar is in the module docs): a
    /// header row (a first row whose first field is not a number) is
    /// skipped; blank lines are ignored.
    pub fn from_csv(text: &str) -> Result<Dataset, CsvError> {
        let bytes = text.as_bytes();
        let mut rects = Vec::with_capacity(bytes.len() / ROW_BYTES + 1);
        let mut first_row = true;
        let (mut at, mut line) = (0, 0);
        while at < bytes.len() {
            line += 1;
            // One line: its first four fields, and how many it has.
            let mut fields = [""; 4];
            let mut got = 0;
            loop {
                let end = next_delimiter(bytes, at);
                if let Some(slot) = fields.get_mut(got) {
                    *slot = trim_field(&text[at..end]);
                }
                got += 1;
                at = end + 1;
                if bytes.get(end) != Some(&b',') {
                    break;
                }
            }
            if got == 1 && fields[0].is_empty() {
                continue;
            }
            // Header detection: first field not numeric on the first
            // non-empty row.
            if std::mem::take(&mut first_row) && fields[0].parse::<f64>().is_err() {
                continue;
            }
            if got != 4 {
                return Err(CsvError::WrongFieldCount { line, got });
            }
            let mut nums = [0f64; 4];
            for (num, field) in nums.iter_mut().zip(fields) {
                *num = match field.parse::<f64>() {
                    Ok(x) if x.is_finite() => x,
                    _ => {
                        let field = field.to_string();
                        return Err(CsvError::BadNumber { line, field });
                    }
                };
            }
            rects.push(Rect::new(nums[0], nums[1], nums[2], nums[3]));
        }
        if rects.is_empty() {
            return Err(CsvError::Empty);
        }
        Ok(Dataset::from_rects(rects))
    }

    /// Writes the dataset to a CSV file.
    pub fn write_csv_file<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        fs::write(path, self.to_csv())
    }

    /// Reads a dataset from a CSV file.
    pub fn read_csv_file<P: AsRef<Path>>(path: P) -> Result<Dataset, Box<dyn std::error::Error>> {
        let text = fs::read_to_string(path)?;
        Ok(Dataset::from_csv(&text)?)
    }
}

/// Offset of the first `,` or `\n` at or after `from`, or `bytes.len()`.
/// Reads eight bytes at a time: with `LO` = 0x01 and `HI` = 0x80 in every
/// byte, `(v - LO) & !v & HI` is non-zero iff a byte of `v` is zero and its
/// lowest set bit marks the first such byte (only bytes above it can be
/// wrongly marked, by the borrow); `v` is the word XOR the delimiter
/// repeated, and a little-endian load makes "lowest" mean "first".
#[inline]
fn next_delimiter(bytes: &[u8], from: usize) -> usize {
    const fn splat(byte: u8) -> u64 {
        u64::from_ne_bytes([byte; 8])
    }
    const LO: u64 = splat(0x01);
    const HI: u64 = splat(0x80);
    let zero_bytes = |v: u64| v.wrapping_sub(LO) & !v & HI;
    let mut at = from;
    let (words, tail) = bytes[from..].as_chunks::<8>();
    for word in words {
        let word = u64::from_le_bytes(*word);
        let hits = zero_bytes(word ^ splat(b',')) | zero_bytes(word ^ splat(b'\n'));
        if hits != 0 {
            return at + (hits.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    at + tail
        .iter()
        .position(|b| matches!(b, b',' | b'\n'))
        .unwrap_or(tail.len())
}

/// `field.trim()`, called only when an end of the field is not a printable
/// ASCII character (anything `trim` could strip is not).
#[inline]
fn trim_field(field: &str) -> &str {
    match field.as_bytes() {
        [first, .., last] if first.is_ascii_graphic() && last.is_ascii_graphic() => field,
        [only] if only.is_ascii_graphic() => field,
        _ => field.trim(),
    }
}

#[cfg(test)]
mod reference {
    //! The reader as it was before the one-pass scan: `lines`, `trim`,
    //! `split(',')` into a `Vec<&str>` per row. The differential tests
    //! below hold [`Dataset::from_csv`] to it, errors included.

    use super::*;

    pub(super) fn from_csv(text: &str) -> Result<Dataset, CsvError> {
        let mut rects = Vec::new();
        let rows = text
            .lines()
            .enumerate()
            .map(|(i, raw)| (i + 1, raw.trim()))
            .filter(|(_, trimmed)| !trimmed.is_empty());
        for (row, (line, trimmed)) in rows.enumerate() {
            let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
            if row == 0 && fields[0].parse::<f64>().is_err() {
                continue;
            }
            if fields.len() != 4 {
                return Err(CsvError::WrongFieldCount {
                    line,
                    got: fields.len(),
                });
            }
            let mut nums = [0f64; 4];
            for (k, f) in fields.iter().enumerate() {
                nums[k] = f.parse::<f64>().map_err(|_| CsvError::BadNumber {
                    line,
                    field: (*f).to_string(),
                })?;
                if !nums[k].is_finite() {
                    return Err(CsvError::BadNumber {
                        line,
                        field: (*f).to_string(),
                    });
                }
            }
            rects.push(Rect::new(nums[0], nums[1], nums[2], nums[3]));
        }
        if rects.is_empty() {
            return Err(CsvError::Empty);
        }
        Ok(Dataset::from_rects(rects))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A parse result with the rectangles down to the bit, so that `-0.0`
    /// and `0.0` differ and an error compares by variant, line and text.
    fn outcome(result: Result<Dataset, CsvError>) -> Result<Vec<[u64; 4]>, CsvError> {
        result.map(|d| {
            d.rects()
                .iter()
                .map(|r| [r.min.x, r.min.y, r.max.x, r.max.y].map(f64::to_bits))
                .collect()
        })
    }

    fn bad_number(line: usize, field: &str) -> CsvError {
        let field = field.to_string();
        CsvError::BadNumber { line, field }
    }

    /// What the byte soup is made of: every character of
    /// ``[0-9.,eE+\- \t\r\nxinfNa]``, two non-ASCII spaces, and a few
    /// longer pieces so that rows which parse to the end are common.
    #[rustfmt::skip]
    const PIECES: [&str; 40] = [
        "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", ".", ",", "e", "E", "+", "-", " ", "\t",
        "\r", "\n", "x", "i", "n", "f", "N", "a", "\u{a0}", "\u{2003}", "inf", "NaN", "1e999",
        "0.5", "-0.0", ",", "\n", "\r\n", "1,2,3,4", "0,0,1,1\n", "min_x,min_y,max_x,max_y\n",
        "7.25,",
    ];

    proptest! {
        #[test]
        fn one_pass_reader_equals_the_line_splitting_reference(
            pieces in prop::collection::vec(0..PIECES.len(), 0..60),
        ) {
            let text: String = pieces.iter().map(|&p| PIECES[p]).collect();
            prop_assert_eq!(
                outcome(Dataset::from_csv(&text)),
                outcome(reference::from_csv(&text)),
                "{:?}", text
            );
        }
    }

    /// One row per way a file can be odd: the text and what the reader
    /// must make of it (`Ok` = number of rectangles).
    #[test]
    fn hostile_table() {
        use CsvError::{Empty, WrongFieldCount};
        #[rustfmt::skip]
        let rows: Vec<(&str, &str, Result<usize, CsvError>)> = vec![
            ("no trailing newline", "0,0,1,1\n2,2,3,3", Ok(2)),
            ("crlf", "min_x,min_y,max_x,max_y\r\n0,0,1,1\r\n2,2,3,3\r\n", Ok(2)),
            ("bare cr inside a field", "0,0,1,1\r2,2,3,3", Err(WrongFieldCount { line: 1, got: 7 })),
            ("empty", "", Err(Empty)),
            ("header only", "min_x,min_y,max_x,max_y\n", Err(Empty)),
            ("header only, no newline", "min_x,min_y,max_x,max_y", Err(Empty)),
            ("blanks only", "\n \n\t\r\n\n", Err(Empty)),
            ("header after a blank line", "\n  \nmin_x,min_y,max_x,max_y\n0,0,1,1\n", Ok(1)),
            ("second header", "h\n0,0,1,1\nmin_x,min_y,max_x,max_y\n", Err(bad_number(3, "min_x"))),
            ("second header, first blank", "\n0,0,1,1\nmin_x,a,b,c\n", Err(bad_number(3, "min_x"))),
            ("three fields", "0,0,1\n", Err(WrongFieldCount { line: 1, got: 3 })),
            ("five fields", "0,0,1,1\n0,0,1,1,1\n", Err(WrongFieldCount { line: 2, got: 5 })),
            ("count before number", "0,0,1,1\nx,0,1\n", Err(WrongFieldCount { line: 2, got: 3 })),
            ("trailing comma", "0,0,1,1,\n", Err(WrongFieldCount { line: 1, got: 5 })),
            ("trailing comma at the end", "0,0,1,", Err(bad_number(1, ""))),
            ("lone comma", "0,0,1,1\n,\n", Err(WrongFieldCount { line: 2, got: 2 })),
            ("inf is no header", "inf,0,1,1\n0,0,1,1\n", Err(bad_number(1, "inf"))),
            ("-inf is no header", "-inf,0,1,1\n", Err(bad_number(1, "-inf"))),
            ("NaN is no header", "NaN,0,1,1\n", Err(bad_number(1, "NaN"))),
            ("1e999 is no header", "1e999,0,1,1\n", Err(bad_number(1, "1e999"))),
            ("inf, short row", "inf,0\n", Err(WrongFieldCount { line: 1, got: 2 })),
            ("overflow in a later field", "0,0,1,1e999\n", Err(bad_number(1, "1e999"))),
            ("ascii whitespace", " 0 ,\t0 , 1\t,1 \n", Ok(1)),
            ("unicode whitespace", "\u{a0}0\u{2003},0,\u{3000}1,1\u{85}\n", Ok(1)),
            ("unicode inside a field", "0,0,1\u{a0}1,1\n", Err(bad_number(1, "1\u{a0}1"))),
            ("unicode header", "\u{a0}größe,b\n0,0,1,1\n", Ok(1)),
            ("vertical tab is blank", "\u{b}\n0,0,1,1\n\u{c}", Ok(1)),
        ];
        for (name, text, expected) in rows {
            let got = Dataset::from_csv(text);
            assert_eq!(
                outcome(got.clone()),
                outcome(reference::from_csv(text)),
                "{name}"
            );
            assert_eq!(got.map(|d| d.len()), expected, "{name}");
        }
    }

    #[test]
    fn delimiters_are_found_at_every_offset_and_length() {
        let text = b"ab,defghijk\nmnopqrstuvwxyz,\x2d\x0b\x8a\xac,";
        for from in 0..=text.len() {
            for to in from..=text.len() {
                let expected = text[from..to]
                    .iter()
                    .position(|b| matches!(b, b',' | b'\n'))
                    .map_or(to, |i| from + i);
                assert_eq!(next_delimiter(&text[..to], from), expected, "{from}..{to}");
            }
        }
    }

    #[test]
    fn non_utf8_file_is_an_error() {
        let dir = std::env::temp_dir().join("mwsj_csv_test_non_utf8");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("latin1.csv");
        std::fs::write(&path, b"0,0,1,1\n0,0,\xe9,1\n").unwrap();
        assert!(Dataset::read_csv_file(&path).is_err());
        assert!(Dataset::read_csv_file(dir.join("missing.csv")).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn roundtrip_preserves_rectangles() {
        let mut rng = StdRng::seed_from_u64(51);
        let original = Dataset::uniform(500, 0.1, &mut rng);
        let csv = original.to_csv();
        let parsed = Dataset::from_csv(&csv).unwrap();
        assert_eq!(outcome(Ok(original)), outcome(Ok(parsed)));
        // The writer's buffer was sized once.
        assert!(
            csv.len() <= HEADER.len() + 500 * (ROW_BYTES + 3),
            "{}",
            csv.len()
        );
    }

    #[test]
    fn parses_without_header() {
        let d = Dataset::from_csv("0,0,1,1\n2,2,3,3\n").unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.rect(1), Rect::new(2.0, 2.0, 3.0, 3.0));
    }

    #[test]
    fn skips_blank_lines_and_whitespace() {
        let d = Dataset::from_csv("min_x,min_y,max_x,max_y\n\n 0 , 0 , 1 , 1 \n\n").unwrap();
        assert_eq!(d.len(), 1);
        // The header is the first non-empty row, wherever it sits.
        let d = Dataset::from_csv("\nmin_x,min_y,max_x,max_y\n0,0,1,1\n").unwrap();
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn rejects_bad_rows() {
        assert_eq!(
            Dataset::from_csv("0,0,1\n").unwrap_err(),
            CsvError::WrongFieldCount { line: 1, got: 3 }
        );
        assert!(matches!(
            Dataset::from_csv("0,0,1,x\n"),
            Err(CsvError::BadNumber { line: 1, .. })
        ));
        assert!(matches!(
            Dataset::from_csv("0,0,1,inf\n"),
            Err(CsvError::BadNumber { .. })
        ));
        assert_eq!(
            Dataset::from_csv("min_x,min_y,max_x,max_y\n").unwrap_err(),
            CsvError::Empty
        );
        assert_eq!(Dataset::from_csv("").unwrap_err(), CsvError::Empty);
        // Only the first non-empty row may be a header.
        assert!(matches!(
            Dataset::from_csv("\n0,0,1,1\nmin_x,min_y,max_x,max_y\n"),
            Err(CsvError::BadNumber { line: 3, .. })
        ));
    }

    #[test]
    fn file_roundtrip() {
        let mut rng = StdRng::seed_from_u64(52);
        let original = Dataset::uniform(50, 0.2, &mut rng);
        let dir = std::env::temp_dir().join("mwsj_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.csv");
        original.write_csv_file(&path).unwrap();
        let loaded = Dataset::read_csv_file(&path).unwrap();
        assert_eq!(original.rects(), loaded.rects());
        let _ = std::fs::remove_file(&path);
    }
}
