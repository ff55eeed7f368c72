//! Dataset import/export as plain CSV (`min_x,min_y,max_x,max_y` rows).
//!
//! The paper's evaluation is synthetic, but the library is meant for real
//! layers (roads, rivers, parcels…). This module round-trips datasets
//! through a dependency-free CSV format so users can bring their own MBRs.

use crate::Dataset;
use mwsj_geom::Rect;
use std::fmt;
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

impl Dataset {
    /// Serialises the dataset as CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.len() * 40 + 32);
        out.push_str("min_x,min_y,max_x,max_y\n");
        for r in self.rects() {
            out.push_str(&format!(
                "{},{},{},{}\n",
                r.min.x, r.min.y, r.max.x, r.max.y
            ));
        }
        out
    }

    /// Parses a dataset from CSV. A header row (any row whose first field
    /// is not a number) is skipped; blank lines are ignored.
    pub fn from_csv(text: &str) -> Result<Dataset, CsvError> {
        let mut rects = Vec::new();
        let rows = text
            .lines()
            .enumerate()
            .map(|(i, raw)| (i + 1, raw.trim()))
            .filter(|(_, trimmed)| !trimmed.is_empty());
        for (row, (line, trimmed)) in rows.enumerate() {
            let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
            // Header detection: first field not numeric on the first
            // non-empty row.
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_preserves_rectangles() {
        let mut rng = StdRng::seed_from_u64(51);
        let original = Dataset::uniform(500, 0.1, &mut rng);
        let parsed = Dataset::from_csv(&original.to_csv()).unwrap();
        assert_eq!(original.rects(), parsed.rects());
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
