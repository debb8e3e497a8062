//! Row-level quarantine for lenient ingest.
//!
//! The deployed pipeline retrains "without human intervention"
//! (Abstract), so a handful of mangled rows in a nightly extract must
//! cost those rows, not the retrain. Lenient ingest parses what it can,
//! then applies the same semantic invariants as [`crate::validate`] *per
//! row*, moving each offender into a [`QuarantineReport`] that records
//! the line number, offending field, reason, and raw text — enough for
//! an operator to fix the upstream export without re-running anything.

use crate::avail::{Avail, AvailId};
use crate::csv::{self, CsvError};
use crate::dataset::Dataset;
use crate::hash::FxHashSet;
use crate::rcc::{Rcc, RccId};
use std::fmt;

/// One row removed from a lenient ingest.
#[derive(Debug, Clone)]
pub struct QuarantinedRow {
    /// Which table the row came from (`"avail"` or `"RCC"`).
    pub table: &'static str,
    /// 1-based line number in the source CSV.
    pub line: usize,
    /// The offending field, when a single field is at fault.
    pub field: Option<&'static str>,
    /// Why the row was quarantined.
    pub reason: String,
    /// The raw text of the row.
    pub raw: String,
}

impl fmt::Display for QuarantinedRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} line {}", self.table, self.line)?;
        if let Some(field) = self.field {
            write!(f, " (field {field})")?;
        }
        write!(f, ": {}", self.reason)
    }
}

/// Everything removed from one lenient ingest, plus what survived.
#[derive(Debug, Clone, Default)]
pub struct QuarantineReport {
    /// The quarantined rows in source order (avail table first).
    pub rows: Vec<QuarantinedRow>,
    /// Avail rows that survived.
    pub kept_avails: usize,
    /// RCC rows that survived.
    pub kept_rccs: usize,
}

impl QuarantineReport {
    /// Number of quarantined rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// One-line operator summary: `N rows quarantined, first: line L: reason`.
    pub fn summary(&self) -> String {
        match self.rows.first() {
            None => "0 rows quarantined".to_string(),
            Some(first) => format!(
                "{} row{} quarantined, first: line {}: {}",
                self.rows.len(),
                if self.rows.len() == 1 { "" } else { "s" },
                first.line,
                first.reason,
            ),
        }
    }
}

impl fmt::Display for QuarantineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for row in &self.rows {
            writeln!(f, "  {row}")?;
        }
        Ok(())
    }
}

/// Semantic per-row checks applied after parsing. Returns the reason and
/// offending field when the avail row violates an invariant.
fn avail_violation(a: &Avail) -> Option<(&'static str, String)> {
    if a.plan_end <= a.plan_start {
        return Some((
            "plan_end",
            format!("plan_end {} not after plan_start {}", a.plan_end, a.plan_start),
        ));
    }
    if let Some(end) = a.actual_end {
        if end < a.actual_start {
            return Some((
                "actual_end",
                format!("actual_end {end} before actual_start {}", a.actual_start),
            ));
        }
    }
    if !a.statics.ship_age_years.is_finite() {
        return Some(("ship_age_years", "non-finite ship age".to_string()));
    }
    if !a.statics.prior_avg_delay.is_finite() {
        return Some(("prior_avg_delay", "non-finite prior average delay".to_string()));
    }
    None
}

/// Same for an RCC row, given the set of avail ids that survived.
fn rcc_violation(r: &Rcc, live_avails: &FxHashSet<AvailId>) -> Option<(&'static str, String)> {
    if !live_avails.contains(&r.avail) {
        return Some(("avail_id", format!("references unknown or quarantined avail {}", r.avail)));
    }
    if r.settled < r.created {
        return Some(("settled", format!("settled {} before created {}", r.settled, r.created)));
    }
    if !r.amount.is_finite() {
        return Some(("amount", format!("non-finite amount {}", r.amount)));
    }
    if r.amount < 0.0 {
        return Some(("amount", format!("negative amount {}", r.amount)));
    }
    None
}

/// Lenient two-table ingest: parse failures and semantic violations are
/// quarantined row-by-row; the surviving rows become a usable
/// [`Dataset`]. Structural problems (missing/mismatched headers) remain
/// fatal — there is no row to salvage when the table itself is wrong.
///
/// Semantic invariants enforced per row (mirroring [`crate::validate`]):
/// duplicate avail/RCC ids, `plan_end > plan_start`,
/// `actual_end ≥ actual_start`, finite statics, RCC references resolve
/// to a surviving avail, `settled ≥ created`, finite non-negative
/// amounts. Well-formed 8-digit SWLINs are enforced at parse time by
/// [`crate::rcc::Swlin`], and so are amounts inside the admitted window
/// ([`crate::rcc::amount_admitted`]): a row that fails either is
/// quarantined at the parse stage, as one with a non-finite amount is.
pub fn read_dataset_lenient(
    avail_csv: &str,
    rcc_csv: &str,
) -> Result<(Dataset, QuarantineReport), CsvError> {
    let avail_rows = csv::read_avails_lenient(avail_csv)?;
    let rcc_rows = csv::read_rccs_lenient(rcc_csv)?;

    let mut report = QuarantineReport { rows: avail_rows.quarantined, ..Default::default() };

    // Kept ids only: a quarantined row must neither shadow a later valid
    // row with the same id nor unregister an earlier kept one.
    let mut kept_avail_ids: FxHashSet<AvailId> =
        FxHashSet::with_capacity_and_hasher(avail_rows.rows.len(), Default::default());
    let mut avails: Vec<Avail> = Vec::with_capacity(avail_rows.rows.len());
    for (line, a) in avail_rows.rows {
        let verdict = if kept_avail_ids.contains(&a.id) {
            Some(("avail_id", format!("duplicate avail id {}", a.id)))
        } else {
            avail_violation(&a)
        };
        match verdict {
            None => {
                kept_avail_ids.insert(a.id);
                avails.push(a);
            }
            Some((field, reason)) => report.rows.push(QuarantinedRow {
                table: "avail",
                line,
                field: Some(field),
                reason,
                raw: raw_line(avail_csv, line),
            }),
        }
    }

    report.rows.extend(rcc_rows.quarantined);
    let mut kept_rcc_ids: FxHashSet<RccId> =
        FxHashSet::with_capacity_and_hasher(rcc_rows.rows.len(), Default::default());
    let mut rccs: Vec<Rcc> = Vec::with_capacity(rcc_rows.rows.len());
    for (line, r) in rcc_rows.rows {
        let verdict = if kept_rcc_ids.contains(&r.id) {
            Some(("rcc_id", format!("duplicate RCC id {}", r.id.0)))
        } else {
            rcc_violation(&r, &kept_avail_ids)
        };
        match verdict {
            None => {
                kept_rcc_ids.insert(r.id);
                rccs.push(r);
            }
            Some((field, reason)) => report.rows.push(QuarantinedRow {
                table: "RCC",
                line,
                field: Some(field),
                reason,
                raw: raw_line(rcc_csv, line),
            }),
        }
    }

    report.kept_avails = avails.len();
    report.kept_rccs = rccs.len();
    Ok((Dataset::new(avails, rccs), report))
}

/// The raw text of a 1-based line (empty when out of range — only
/// reachable if the caller passes mismatched text).
fn raw_line(text: &str, line: usize) -> String {
    text.lines().nth(line.saturating_sub(1)).unwrap_or_default().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{write_avails, write_rccs, AVAIL_HEADER, RCC_HEADER};
    use crate::generator::{generate, GeneratorConfig};

    fn avail_line(id: u32, plan: (&str, &str), actual: (&str, &str), age: &str) -> String {
        format!("{id},7,{},{},{},{},0,1,{age},2,4.5", plan.0, plan.1, actual.0, actual.1)
    }

    fn rcc_line(id: u32, avail: u32, created: &str, settled: &str, amount: &str) -> String {
        format!("{id},{avail},G,434-11-001,{created},{settled},{amount}")
    }

    fn ok_avail(id: u32) -> String {
        avail_line(id, ("1/1/20", "11/1/20"), ("1/1/20", "12/1/20"), "15.0")
    }

    fn ingest(avail_rows: &[String], rcc_rows: &[String]) -> (Dataset, QuarantineReport) {
        let avail_csv = format!("{AVAIL_HEADER}\n{}\n", avail_rows.join("\n"));
        let rcc_csv = format!("{RCC_HEADER}\n{}\n", rcc_rows.join("\n"));
        read_dataset_lenient(&avail_csv, &rcc_csv).expect("headers are valid")
    }

    #[test]
    fn clean_extract_passes_untouched() {
        let ds = generate(&GeneratorConfig { n_avails: 12, target_rccs: 400, scale: 1, seed: 3 });
        let (back, report) =
            read_dataset_lenient(&write_avails(&ds), &write_rccs(&ds)).unwrap();
        assert!(report.is_empty(), "{report}");
        assert_eq!(back.avails(), ds.avails());
        assert_eq!(back.rccs(), ds.rccs());
        assert_eq!(report.summary(), "0 rows quarantined");
    }

    #[test]
    fn quarantines_inverted_planned_window() {
        let rows =
            vec![ok_avail(1), avail_line(2, ("6/1/20", "1/1/20"), ("1/1/20", "12/1/20"), "15.0")];
        let (ds, report) = ingest(&rows, &[]);
        assert_eq!(ds.avails().len(), 1);
        assert_eq!(report.len(), 1);
        assert_eq!(report.rows[0].field, Some("plan_end"));
        assert_eq!(report.rows[0].line, 3);
    }

    #[test]
    fn quarantines_inverted_actual_window() {
        let rows =
            vec![ok_avail(1), avail_line(2, ("1/1/20", "11/1/20"), ("5/1/20", "2/1/20"), "15.0")];
        let (ds, report) = ingest(&rows, &[]);
        assert_eq!(ds.avails().len(), 1);
        assert_eq!(report.rows[0].field, Some("actual_end"));
    }

    #[test]
    fn quarantines_duplicate_avail_ids_keeping_the_first() {
        let rows = vec![ok_avail(1), ok_avail(1), ok_avail(2)];
        let (ds, report) = ingest(&rows, &[]);
        assert_eq!(ds.avails().len(), 2);
        assert_eq!(report.len(), 1);
        assert!(report.rows[0].reason.contains("duplicate avail id"));
        assert_eq!(report.rows[0].line, 3);
    }

    #[test]
    fn quarantines_settled_before_created() {
        let rccs = vec![
            rcc_line(1, 1, "2/1/20", "3/1/20", "100.0"),
            rcc_line(2, 1, "3/1/20", "2/1/20", "100.0"),
        ];
        let (ds, report) = ingest(&[ok_avail(1)], &rccs);
        assert_eq!(ds.rccs().len(), 1);
        assert_eq!(report.rows[0].field, Some("settled"));
    }

    #[test]
    fn quarantines_dangling_rcc_references() {
        let rccs =
            vec![rcc_line(1, 1, "2/1/20", "3/1/20", "100.0"), rcc_line(2, 99, "2/1/20", "3/1/20", "100.0")];
        let (ds, report) = ingest(&[ok_avail(1)], &rccs);
        assert_eq!(ds.rccs().len(), 1);
        assert!(report.rows[0].reason.contains("unknown or quarantined avail A99"));
    }

    #[test]
    fn rccs_of_quarantined_avails_are_quarantined_too() {
        // Avail 2 is quarantined (bad window), so its RCC dangles.
        let rows =
            vec![ok_avail(1), avail_line(2, ("6/1/20", "1/1/20"), ("1/1/20", "12/1/20"), "15.0")];
        let rccs = vec![rcc_line(1, 2, "2/1/20", "3/1/20", "100.0")];
        let (ds, report) = ingest(&rows, &rccs);
        assert_eq!(ds.rccs().len(), 0);
        assert_eq!(report.len(), 2);
        assert_eq!(report.rows[1].table, "RCC");
    }

    #[test]
    fn quarantines_negative_and_non_finite_amounts() {
        let rccs = vec![
            rcc_line(1, 1, "2/1/20", "3/1/20", "100.0"),
            rcc_line(2, 1, "2/1/20", "3/1/20", "-5.0"),
        ];
        let (ds, report) = ingest(&[ok_avail(1)], &rccs);
        assert_eq!(ds.rccs().len(), 1);
        assert!(report.rows[0].reason.contains("negative amount"));
        // Non-finite amounts never parse, so they land in the parse-stage
        // quarantine with the same field attribution.
        let rccs = vec![rcc_line(1, 1, "2/1/20", "3/1/20", "inf")];
        let (_, report) = ingest(&[ok_avail(1)], &rccs);
        assert_eq!(report.rows[0].field, Some("amount"));
        // So do amounts outside the admitted window; the rows around them
        // survive.
        let rccs = vec![
            rcc_line(1, 1, "2/1/20", "3/1/20", "1e10"),
            rcc_line(2, 1, "2/1/20", "3/1/20", "100.0"),
            rcc_line(3, 1, "2/1/20", "3/1/20", "0.0001"),
        ];
        let (ds, report) = ingest(&[ok_avail(1)], &rccs);
        assert_eq!(ds.rccs().len(), 1);
        assert_eq!(report.len(), 2);
        for row in &report.rows {
            assert_eq!(row.field, Some("amount"));
            assert!(row.reason.contains("admitted window"), "{row}");
        }
    }

    #[test]
    fn quarantines_duplicate_rcc_ids() {
        let rccs = vec![
            rcc_line(1, 1, "2/1/20", "3/1/20", "100.0"),
            rcc_line(1, 1, "2/1/20", "3/1/20", "200.0"),
        ];
        let (ds, report) = ingest(&[ok_avail(1)], &rccs);
        assert_eq!(ds.rccs().len(), 1);
        assert!(report.rows[0].reason.contains("duplicate RCC id"));
    }

    #[test]
    fn quarantines_non_finite_statics() {
        // Non-finite ages fail at parse time; the row is quarantined with
        // the field named either way.
        let rows =
            vec![ok_avail(1), avail_line(2, ("1/1/20", "11/1/20"), ("1/1/20", "12/1/20"), "NaN")];
        let (ds, report) = ingest(&rows, &[]);
        assert_eq!(ds.avails().len(), 1);
        assert_eq!(report.rows[0].field, Some("ship_age_years"));
    }

    #[test]
    fn summary_names_the_first_offender() {
        let rows = vec![ok_avail(1), "garbage".to_string()];
        let (_, report) = ingest(&rows, &[]);
        let s = report.summary();
        assert!(s.starts_with("1 row quarantined, first: line 3:"), "{s}");
        assert_eq!(report.rows[0].raw, "garbage");
    }

    #[test]
    fn ten_percent_mangled_extract_survives() {
        // The acceptance scenario: mangle 10% of rows; the report names
        // each bad line and the rest forms a usable dataset.
        let ds = generate(&GeneratorConfig { n_avails: 30, target_rccs: 900, scale: 1, seed: 5 });
        let avail_csv = write_avails(&ds);
        let mut lines: Vec<String> = write_rccs(&ds).lines().map(String::from).collect();
        let n_rows = lines.len() - 1;
        let mut mangled = Vec::new();
        for i in 0..n_rows / 10 {
            let idx = 1 + i * 10; // every 10th data row
            lines[idx] = format!("mangled-{i}");
            mangled.push(idx + 1); // 1-based line number
        }
        let rcc_csv = lines.join("\n");
        let (back, report) = read_dataset_lenient(&avail_csv, &rcc_csv).unwrap();
        assert_eq!(report.len(), mangled.len());
        let reported: Vec<usize> = report.rows.iter().map(|r| r.line).collect();
        assert_eq!(reported, mangled);
        assert_eq!(back.rccs().len(), n_rows - mangled.len());
        assert_eq!(back.avails().len(), ds.avails().len());
        assert!(!back.split(1).is_empty(), "surviving dataset must still split");
    }
}
