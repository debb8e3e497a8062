//! CSV interchange for the two NMD tables.
//!
//! The deployed pipeline "uses obfuscated data for training and then
//! retrains on raw data in the Navy environment without human intervention"
//! (Abstract) — i.e. the same code must ingest whatever avail/RCC extracts
//! the environment provides. This module writes and parses the two tables
//! in a plain CSV layout (no quoting needed: every field is numeric, a
//! date, or a code), so a deployment can swap the synthetic generator for
//! real extracts without touching the pipeline.
//!
//! Two ingest modes:
//! * **strict** ([`read_avails`] / [`read_rccs`] / [`read_dataset`]) —
//!   the first malformed row aborts the whole extract; right for curated
//!   inputs where any defect means the export job itself is broken;
//! * **lenient** ([`read_avails_lenient`] / [`read_rccs_lenient`], and
//!   [`read_dataset_lenient`](crate::quarantine::read_dataset_lenient)
//!   for the full semantic pass) — malformed rows are collected into a
//!   [`QuarantinedRow`](crate::quarantine::QuarantinedRow) list and the
//!   remaining rows survive; right for unattended retraining where one
//!   bad row must not take down the pipeline.

use crate::avail::{Avail, AvailId, ShipId, StaticAttrs};
use crate::dataset::Dataset;
use crate::date::Date;
use crate::quarantine::QuarantinedRow;
use crate::rcc::{amount_admitted, Rcc, RccId, RccType, Swlin};
use std::fmt::Write as _;

/// Header of the avail table CSV.
pub const AVAIL_HEADER: &str = "avail_id,ship_id,plan_start,plan_end,actual_start,actual_end,\
ship_class,rmc_id,ship_age_years,prior_avail_count,prior_avg_delay";

/// Header of the RCC table CSV.
pub const RCC_HEADER: &str = "rcc_id,avail_id,rcc_type,swlin,created,settled,amount";

/// Error produced when parsing a CSV extract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based line number (0 for structural problems — see
    /// [`CsvError::is_structural`]).
    pub line: usize,
    /// The field being parsed when the error occurred, if any.
    pub field: Option<&'static str>,
    /// What went wrong.
    pub message: String,
}

impl CsvError {
    /// A whole-file problem (missing or mismatched header): no single
    /// line is at fault.
    pub fn structural(message: impl Into<String>) -> CsvError {
        CsvError { line: 0, field: None, message: message.into() }
    }

    /// A row-shape problem on one line (wrong field count).
    pub fn at_line(line: usize, message: impl Into<String>) -> CsvError {
        CsvError { line, field: None, message: message.into() }
    }

    /// A value problem in one named field of one line.
    pub fn at_field(line: usize, field: &'static str, message: impl Into<String>) -> CsvError {
        CsvError { line, field: Some(field), message: message.into() }
    }

    /// True for whole-file problems that no row-level quarantine can
    /// work around (the lenient readers refuse the extract too).
    pub fn is_structural(&self) -> bool {
        self.line == 0
    }
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_structural() {
            write!(f, "CSV structure: {}", self.message)
        } else {
            match self.field {
                Some(field) => write!(f, "CSV line {} (field {field}): {}", self.line, self.message),
                None => write!(f, "CSV line {}: {}", self.line, self.message),
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// Serializes the avail table.
pub fn write_avails(dataset: &Dataset) -> String {
    let mut out = String::with_capacity(64 * dataset.avails().len());
    out.push_str(AVAIL_HEADER);
    out.push('\n');
    for a in dataset.avails() {
        let actual_end = a.actual_end.map(|d| d.to_string()).unwrap_or_default();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{}",
            a.id.0,
            a.ship.0,
            a.plan_start,
            a.plan_end,
            a.actual_start,
            actual_end,
            a.statics.ship_class,
            a.statics.rmc_id,
            a.statics.ship_age_years,
            a.statics.prior_avail_count,
            a.statics.prior_avg_delay,
        );
    }
    out
}

/// Serializes the RCC table.
pub fn write_rccs(dataset: &Dataset) -> String {
    let mut out = String::with_capacity(48 * dataset.rccs().len());
    out.push_str(RCC_HEADER);
    out.push('\n');
    for r in dataset.rccs() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            r.id.0, r.avail.0, r.rcc_type, r.swlin, r.created, r.settled, r.amount,
        );
    }
    out
}

fn fields(line: &str, want: usize, line_no: usize) -> Result<Vec<&str>, CsvError> {
    let f: Vec<&str> = line.split(',').collect();
    if f.len() != want {
        return Err(CsvError::at_line(line_no, format!("expected {want} fields, got {}", f.len())));
    }
    Ok(f)
}

fn parse<T: std::str::FromStr>(s: &str, what: &'static str, line_no: usize) -> Result<T, CsvError>
where
    T::Err: std::fmt::Display,
{
    s.trim().parse().map_err(|e| CsvError::at_field(line_no, what, format!("bad value {s:?}: {e}")))
}

fn parse_finite(s: &str, what: &'static str, line_no: usize) -> Result<f64, CsvError> {
    let v: f64 = parse(s, what, line_no)?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(CsvError::at_field(line_no, what, format!("non-finite value {s:?}")))
    }
}

fn check_header(
    lines: &mut std::iter::Enumerate<std::str::Lines<'_>>,
    expected: &str,
    table: &str,
) -> Result<(), CsvError> {
    match lines.next() {
        Some((_, h)) if h.trim() == expected => Ok(()),
        Some((_, h)) => Err(CsvError::structural(format!(
            "{table} header mismatch: expected {expected:?}, found {h:?}"
        ))),
        None => Err(CsvError::structural(format!("empty input: missing {table} header"))),
    }
}

/// Parses one avail-table data row.
fn parse_avail_row(line: &str, line_no: usize) -> Result<Avail, CsvError> {
    let f = fields(line, 11, line_no)?;
    let actual_end: Option<Date> = if f[5].trim().is_empty() {
        None
    } else {
        Some(parse(f[5], "actual_end", line_no)?)
    };
    Ok(Avail {
        id: AvailId(parse(f[0], "avail_id", line_no)?),
        ship: ShipId(parse(f[1], "ship_id", line_no)?),
        plan_start: parse(f[2], "plan_start", line_no)?,
        plan_end: parse(f[3], "plan_end", line_no)?,
        actual_start: parse(f[4], "actual_start", line_no)?,
        actual_end,
        statics: StaticAttrs {
            ship_class: parse(f[6], "ship_class", line_no)?,
            rmc_id: parse(f[7], "rmc_id", line_no)?,
            ship_age_years: parse_finite(f[8], "ship_age_years", line_no)?,
            prior_avail_count: parse(f[9], "prior_avail_count", line_no)?,
            prior_avg_delay: parse_finite(f[10], "prior_avg_delay", line_no)?,
        },
    })
}

/// Parses one RCC-table data row.
fn parse_rcc_row(line: &str, line_no: usize) -> Result<Rcc, CsvError> {
    let f = fields(line, 7, line_no)?;
    let rcc_type: RccType = f[2]
        .trim()
        .parse()
        .map_err(|e| CsvError::at_field(line_no, "rcc_type", e))?;
    let swlin: Swlin =
        f[3].trim().parse().map_err(|e| CsvError::at_field(line_no, "swlin", e))?;
    Ok(Rcc {
        id: RccId(parse(f[0], "rcc_id", line_no)?),
        avail: AvailId(parse(f[1], "avail_id", line_no)?),
        rcc_type,
        swlin,
        created: parse(f[4], "created", line_no)?,
        settled: parse(f[5], "settled", line_no)?,
        amount: parse_amount(f[6], line_no)?,
    })
}

/// Parses an RCC amount: finite and inside the admitted window
/// ([`amount_admitted`]), so a Status-Query sum holds it exactly.
fn parse_amount(s: &str, line_no: usize) -> Result<f64, CsvError> {
    let v = parse_finite(s, "amount", line_no)?;
    if amount_admitted(v) {
        Ok(v)
    } else {
        Err(CsvError::at_field(
            line_no,
            "amount",
            format!("amount {s:?} is outside the admitted window (multiples of 2^-62 below 2^33)"),
        ))
    }
}

fn read_table<T>(
    text: &str,
    header: &str,
    table: &str,
    parse_row: impl Fn(&str, usize) -> Result<T, CsvError>,
) -> Result<Vec<T>, CsvError> {
    let mut lines = text.lines().enumerate();
    check_header(&mut lines, header, table)?;
    let mut out = Vec::new();
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_row(line, i + 1)?);
    }
    Ok(out)
}

/// Rows that survived a lenient table read, each with its 1-based line
/// number, plus the rows that did not.
#[derive(Debug, Clone)]
pub struct LenientTable<T> {
    /// Successfully parsed rows as `(line number, row)` pairs.
    pub rows: Vec<(usize, T)>,
    /// Rows that failed to parse, with the reason and raw text.
    pub quarantined: Vec<QuarantinedRow>,
}

fn read_table_lenient<T>(
    text: &str,
    header: &str,
    table: &'static str,
    parse_row: impl Fn(&str, usize) -> Result<T, CsvError>,
) -> Result<LenientTable<T>, CsvError> {
    let mut lines = text.lines().enumerate();
    check_header(&mut lines, header, table)?;
    let mut rows = Vec::new();
    let mut quarantined = Vec::new();
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let line_no = i + 1;
        match parse_row(line, line_no) {
            Ok(row) => rows.push((line_no, row)),
            Err(e) => quarantined.push(QuarantinedRow {
                table,
                line: line_no,
                field: e.field,
                reason: e.message,
                raw: line.to_string(),
            }),
        }
    }
    Ok(LenientTable { rows, quarantined })
}

/// Parses an avail table CSV (as produced by [`write_avails`]), failing
/// on the first malformed row.
pub fn read_avails(text: &str) -> Result<Vec<Avail>, CsvError> {
    read_table(text, AVAIL_HEADER, "avail", parse_avail_row)
}

/// Parses an RCC table CSV (as produced by [`write_rccs`]), failing on
/// the first malformed row.
pub fn read_rccs(text: &str) -> Result<Vec<Rcc>, CsvError> {
    read_table(text, RCC_HEADER, "RCC", parse_rcc_row)
}

/// Lenient counterpart of [`read_avails`]: malformed rows are quarantined
/// instead of aborting the extract. Header problems are still fatal.
pub fn read_avails_lenient(text: &str) -> Result<LenientTable<Avail>, CsvError> {
    read_table_lenient(text, AVAIL_HEADER, "avail", parse_avail_row)
}

/// Lenient counterpart of [`read_rccs`].
pub fn read_rccs_lenient(text: &str) -> Result<LenientTable<Rcc>, CsvError> {
    read_table_lenient(text, RCC_HEADER, "RCC", parse_rcc_row)
}

/// Serializes both tables and reassembles a [`Dataset`] from the pair.
pub fn read_dataset(avail_csv: &str, rcc_csv: &str) -> Result<Dataset, CsvError> {
    Ok(Dataset::new(read_avails(avail_csv)?, read_rccs(rcc_csv)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorConfig};

    fn small() -> Dataset {
        generate(&GeneratorConfig { n_avails: 15, target_rccs: 600, scale: 1, seed: 31 })
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ds = small();
        let back = read_dataset(&write_avails(&ds), &write_rccs(&ds)).unwrap();
        assert_eq!(back.avails(), ds.avails());
        assert_eq!(back.rccs(), ds.rccs());
    }

    #[test]
    fn ongoing_avails_roundtrip_with_empty_end() {
        let ds = small();
        let victim = ds.avails()[2].id;
        let as_of = ds.avails()[2].actual_start + 30;
        let (censored, _) = crate::generator::censor_ongoing(&ds, &[victim], as_of);
        let text = write_avails(&censored);
        let back = read_avails(&text).unwrap();
        let a = back.iter().find(|a| a.id == victim).unwrap();
        assert_eq!(a.actual_end, None);
    }

    #[test]
    fn rejects_missing_header() {
        assert!(read_avails("nope\n1,2,3").is_err());
        assert!(read_rccs("").is_err());
    }

    #[test]
    fn structural_errors_render_without_line_zero() {
        let e = read_avails("nope\n").unwrap_err();
        assert!(e.is_structural());
        let s = e.to_string();
        assert!(s.starts_with("CSV structure:"), "{s}");
        assert!(!s.contains("line 0"), "{s}");
        // The offending header text is included for the operator.
        assert!(s.contains("\"nope\""), "{s}");
        assert!(s.contains("avail_id"), "expected header named in {s}");

        let empty = read_rccs("").unwrap_err();
        assert!(empty.is_structural());
        assert!(empty.to_string().contains("empty input"), "{empty}");
    }

    #[test]
    fn reports_line_numbers() {
        let mut text = String::from(AVAIL_HEADER);
        text.push_str("\n1,2,1/1/20,6/1/20,1/1/20,,0,0,10.0,1,5.0\nbad,row\n");
        let e = read_avails(&text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("expected 11 fields"));
        assert!(!e.is_structural());
    }

    #[test]
    fn rejects_bad_values_naming_the_field() {
        let mut text = String::from(RCC_HEADER);
        text.push('\n');
        text.push_str("1,5,G,434-11-001,3/22/20,6/16/20,notanumber\n");
        let e = read_rccs(&text).unwrap_err();
        assert_eq!(e.field, Some("amount"));
        assert!(e.to_string().contains("field amount"), "{e}");
        let mut text2 = String::from(RCC_HEADER);
        text2.push('\n');
        text2.push_str("1,5,ZZ,434-11-001,3/22/20,6/16/20,5.0\n");
        assert_eq!(read_rccs(&text2).unwrap_err().field, Some("rcc_type"));
    }

    #[test]
    fn rejects_non_finite_amounts() {
        for bad in ["NaN", "inf", "-inf"] {
            let text = format!("{RCC_HEADER}\n1,5,G,434-11-001,3/22/20,6/16/20,{bad}\n");
            let e = read_rccs(&text).unwrap_err();
            assert_eq!(e.field, Some("amount"), "{bad}: {e}");
        }
        let text = format!("{AVAIL_HEADER}\n1,2,1/1/20,6/1/20,1/1/20,,0,0,NaN,1,5.0\n");
        assert_eq!(read_avails(&text).unwrap_err().field, Some("ship_age_years"));
    }

    #[test]
    fn rejects_amounts_outside_the_admitted_window() {
        // 2^33 and past it, 2^-11 + 2^-63 (an odd multiple of 2^-63),
        // 0.0001 (below the grid's reach) and a tiny normal.
        for bad in ["8589934592", "1e10", "-9e9", "0.0004882812500000001", "0.0001", "1e-300"] {
            let text = format!("{RCC_HEADER}\n1,5,G,434-11-001,3/22/20,6/16/20,{bad}\n");
            let e = read_rccs(&text).unwrap_err();
            assert_eq!(e.field, Some("amount"), "{bad}: {e}");
            assert!(e.to_string().contains("admitted window"), "{bad}: {e}");
        }
        // Both edges of the window parse: the largest amount below 2^33
        // and the grid step itself.
        for good in ["8589934591.999999", "2.168404344971009e-19", "0", "0.001"] {
            let text = format!("{RCC_HEADER}\n1,5,G,434-11-001,3/22/20,6/16/20,{good}\n");
            assert!(read_rccs(&text).is_ok(), "{good}");
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let ds = small();
        let mut text = write_avails(&ds);
        text.push_str("\n\n");
        assert_eq!(read_avails(&text).unwrap().len(), ds.avails().len());
    }

    #[test]
    fn lenient_keeps_good_rows_and_quarantines_bad_ones() {
        let mut text = String::from(AVAIL_HEADER);
        text.push_str("\n1,2,1/1/20,6/1/20,1/1/20,,0,0,10.0,1,5.0\n");
        text.push_str("bad,row\n");
        text.push_str("3,4,2/1/20,8/1/20,2/1/20,9/1/20,1,1,12.0,0,0.0\n");
        text.push_str("4,4,2/1/20,8/1/20,2/1/20,9/1/20,1,1,twelve,0,0.0\n");
        let out = read_avails_lenient(&text).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].0, 2); // line numbers preserved
        assert_eq!(out.rows[1].0, 4);
        assert_eq!(out.quarantined.len(), 2);
        assert_eq!(out.quarantined[0].line, 3);
        assert_eq!(out.quarantined[0].raw, "bad,row");
        assert_eq!(out.quarantined[1].field, Some("ship_age_years"));
    }

    #[test]
    fn lenient_still_rejects_structural_problems() {
        assert!(read_avails_lenient("totally,wrong,header\n1,2,3\n")
            .unwrap_err()
            .is_structural());
        assert!(read_rccs_lenient("").unwrap_err().is_structural());
    }

    #[test]
    fn lenient_on_clean_extract_quarantines_nothing() {
        let ds = small();
        let out = read_rccs_lenient(&write_rccs(&ds)).unwrap();
        assert!(out.quarantined.is_empty());
        assert_eq!(out.rows.len(), ds.rccs().len());
    }
}
