//! Ingest validation for NMD extracts.
//!
//! The deployed pipeline retrains on raw extracts "without human
//! intervention", so malformed rows must be caught — and explained — at
//! ingest rather than surfacing as NaNs three stages later. The checker
//! walks both tables and reports every violated invariant with the
//! offending row.

use crate::avail::AvailId;
use crate::dataset::Dataset;
use crate::hash::FxHashMap;
use crate::rcc::amount_admitted;
use std::fmt;

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Data is unusable for modeling (e.g. broken referential integrity).
    Error,
    /// Suspicious but tolerable (e.g. an extreme value).
    Warning,
}

/// One validation finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// How bad it is.
    pub severity: Severity,
    /// Which invariant was violated.
    pub rule: &'static str,
    /// Human-readable description including the offending row.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.severity {
            Severity::Error => "ERROR",
            Severity::Warning => "WARN ",
        };
        write!(f, "[{tag}] {}: {}", self.rule, self.detail)
    }
}

/// Result of validating a dataset.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    /// All findings, errors first.
    pub findings: Vec<Finding>,
}

impl ValidationReport {
    /// True when no error-severity findings exist.
    pub fn is_usable(&self) -> bool {
        self.findings.iter().all(|f| f.severity != Severity::Error)
    }

    /// Count by severity.
    pub fn counts(&self) -> (usize, usize) {
        let errors = self.findings.iter().filter(|f| f.severity == Severity::Error).count();
        (errors, self.findings.len() - errors)
    }

    fn push(&mut self, severity: Severity, rule: &'static str, detail: String) {
        self.findings.push(Finding { severity, rule, detail });
    }
}

/// Validates both NMD tables. Invariants checked:
///
/// * avail ids unique; planned/actual windows well-formed
///   (`planE > planS`, `actE >= actS` when closed);
/// * planned durations within a sane range (30 days .. 5 years — outside
///   is a warning, not an error);
/// * RCCs reference existing avails; `settled >= created`; non-negative
///   amounts inside the admitted window ([`amount_admitted`]);
/// * RCC dates fall inside a generous horizon around their avail
///   (creation before 3x planned duration past the start is a warning).
pub fn validate(dataset: &Dataset) -> ValidationReport {
    let mut report = ValidationReport::default();

    // --- avail table -------------------------------------------------------
    // Doubles as the id → row index for the RCC reference checks below —
    // `Dataset::avail` is a linear scan, far too slow per-RCC at full
    // extract size.
    let mut seen: FxHashMap<AvailId, usize> =
        FxHashMap::with_capacity_and_hasher(dataset.avails().len(), Default::default());
    for (i, a) in dataset.avails().iter().enumerate() {
        if let Some(prev) = seen.insert(a.id, i) {
            report.push(
                Severity::Error,
                "avail-id-unique",
                format!("avail {} appears at rows {prev} and {i}", a.id),
            );
        }
        if a.plan_end - a.plan_start <= 0 {
            report.push(
                Severity::Error,
                "planned-window",
                format!("avail {}: plan_end {} not after plan_start {}", a.id, a.plan_end, a.plan_start),
            );
        } else {
            let planned = a.planned_duration();
            if !(30..=5 * 365).contains(&planned) {
                report.push(
                    Severity::Warning,
                    "planned-duration-range",
                    format!("avail {}: planned duration {planned} days is unusual", a.id),
                );
            }
        }
        if let Some(end) = a.actual_end {
            if end < a.actual_start {
                report.push(
                    Severity::Error,
                    "actual-window",
                    format!("avail {}: actual_end {} before actual_start {}", a.id, end, a.actual_start),
                );
            }
        }
        if !a.statics.ship_age_years.is_finite() || !a.statics.prior_avg_delay.is_finite() {
            report.push(
                Severity::Error,
                "statics-finite",
                format!(
                    "avail {}: non-finite statics (ship age {}, prior avg delay {})",
                    a.id, a.statics.ship_age_years, a.statics.prior_avg_delay
                ),
            );
        } else if a.statics.ship_age_years < 0.0 || a.statics.ship_age_years > 80.0 {
            report.push(
                Severity::Warning,
                "ship-age-range",
                format!("avail {}: ship age {} years", a.id, a.statics.ship_age_years),
            );
        }
    }

    // --- RCC table ----------------------------------------------------------
    for r in dataset.rccs() {
        let Some(a) = seen.get(&r.avail).map(|&i| &dataset.avails()[i]) else {
            report.push(
                Severity::Error,
                "rcc-avail-ref",
                format!("RCC {} references unknown avail {}", r.id.0, r.avail),
            );
            continue;
        };
        if r.settled < r.created {
            report.push(
                Severity::Error,
                "rcc-window",
                format!("RCC {} settled {} before created {}", r.id.0, r.settled, r.created),
            );
        }
        if !r.amount.is_finite() {
            report.push(
                Severity::Error,
                "rcc-amount-finite",
                format!("RCC {} has non-finite amount {}", r.id.0, r.amount),
            );
        } else if r.amount < 0.0 {
            report.push(
                Severity::Error,
                "rcc-amount",
                format!("RCC {} has negative amount {}", r.id.0, r.amount),
            );
        } else if !amount_admitted(r.amount) {
            report.push(
                Severity::Error,
                "rcc-amount-window",
                format!(
                    "RCC {} amount {} is outside the admitted window \
                     (multiples of 2^-62 below 2^33)",
                    r.id.0, r.amount
                ),
            );
        } else if r.amount > 50_000_000.0 {
            report.push(
                Severity::Warning,
                "rcc-amount-range",
                format!("RCC {} amount ${:.0} is extreme", r.id.0, r.amount),
            );
        }
        let planned = a.planned_duration().max(1);
        if r.created < a.actual_start + (-planned) || r.created > a.actual_start + planned * 3 {
            report.push(
                Severity::Warning,
                "rcc-horizon",
                format!(
                    "RCC {} created {} far outside avail {}'s execution window",
                    r.id.0, r.created, a.id
                ),
            );
        }
    }

    report.findings.sort_by_key(|f| match f.severity {
        Severity::Error => 0,
        Severity::Warning => 1,
    });
    report
}

impl Dataset {
    /// Validates this dataset against every semantic invariant — the
    /// method form of [`validate`], for call sites that already hold a
    /// [`Dataset`] (the CLI and the fault-injection harness).
    pub fn validate(&self) -> ValidationReport {
        validate(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avail::{Avail, ShipId, StaticAttrs};
    use crate::date::Date;
    use crate::generator::{generate, GeneratorConfig};
    use crate::rcc::{Rcc, RccId, RccType};

    #[test]
    fn generated_data_is_clean() {
        let ds = generate(&GeneratorConfig { n_avails: 40, target_rccs: 3000, scale: 1, seed: 9 });
        let report = validate(&ds);
        let (errors, _) = report.counts();
        assert_eq!(errors, 0, "{:?}", report.findings.first());
        assert!(report.is_usable());
    }

    fn base_avail(id: u32) -> Avail {
        let s = Date::from_ymd(2020, 1, 1).unwrap();
        Avail {
            id: AvailId(id),
            ship: ShipId(1),
            plan_start: s,
            plan_end: s + 300,
            actual_start: s,
            actual_end: Some(s + 320),
            statics: StaticAttrs {
                ship_class: 0,
                rmc_id: 0,
                ship_age_years: 15.0,
                prior_avail_count: 1,
                prior_avg_delay: 5.0,
            },
        }
    }

    #[test]
    fn detects_duplicate_ids_and_bad_windows() {
        let mut a = base_avail(1);
        let b = base_avail(1); // duplicate id
        a.plan_end = a.plan_start; // empty planned window
        let ds = Dataset::new(vec![a, b], vec![]);
        let report = validate(&ds);
        assert!(!report.is_usable());
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"avail-id-unique"));
        assert!(rules.contains(&"planned-window"));
    }

    #[test]
    fn detects_broken_rcc_references_and_windows() {
        let a = base_avail(1);
        let good_date = a.plan_start + 10;
        let rccs = vec![
            Rcc {
                id: RccId(1),
                avail: AvailId(99), // dangling
                rcc_type: RccType::Growth,
                swlin: "123-45-678".parse().unwrap(),
                created: good_date,
                settled: good_date + 5,
                amount: 100.0,
            },
            Rcc {
                id: RccId(2),
                avail: AvailId(1),
                rcc_type: RccType::Growth,
                swlin: "123-45-678".parse().unwrap(),
                created: good_date,
                settled: good_date + (-3), // settles before creation
                amount: -5.0,              // negative amount
            },
        ];
        let report = validate(&Dataset::new(vec![a], rccs));
        assert!(!report.is_usable());
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"rcc-avail-ref"));
        assert!(rules.contains(&"rcc-window"));
        assert!(rules.contains(&"rcc-amount"));
    }

    #[test]
    fn warnings_do_not_block_usability() {
        let mut a = base_avail(1);
        a.plan_end = a.plan_start + 10; // unusually short: warning only
        let report = validate(&Dataset::new(vec![a], vec![]));
        assert!(report.is_usable());
        let (errors, warnings) = report.counts();
        assert_eq!(errors, 0);
        assert!(warnings >= 1);
        assert!(report.findings[0].to_string().contains("WARN"));
    }

    #[test]
    fn detects_non_finite_values() {
        let mut a = base_avail(1);
        a.statics.ship_age_years = f64::NAN;
        let r = Rcc {
            id: RccId(1),
            avail: AvailId(1),
            rcc_type: RccType::Growth,
            swlin: "123-45-678".parse().unwrap(),
            created: a.plan_start + 10,
            settled: a.plan_start + 15,
            amount: f64::INFINITY,
        };
        let report = Dataset::new(vec![a], vec![r]).validate();
        assert!(!report.is_usable());
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"statics-finite"), "{rules:?}");
        assert!(rules.contains(&"rcc-amount-finite"), "{rules:?}");
    }

    #[test]
    fn amounts_outside_the_admitted_window_are_errors() {
        let a = base_avail(1);
        let rcc = |id: u32, amount: f64| Rcc {
            id: RccId(id),
            avail: AvailId(1),
            rcc_type: RccType::Growth,
            swlin: "123-45-678".parse().unwrap(),
            created: a.plan_start + 10,
            settled: a.plan_start + 15,
            amount,
        };
        let limit = crate::rcc::AMOUNT_LIMIT;
        let below = limit - 1.0 / 1_048_576.0; // the largest f64 below 2^33
        let step = 1.0 / (1u64 << 62) as f64;
        let rccs = vec![rcc(1, limit), rcc(2, step / 2.0), rcc(3, below), rcc(4, step)];
        let report = Dataset::new(vec![a.clone()], rccs).validate();
        let window: Vec<&str> = report
            .findings
            .iter()
            .filter(|f| f.rule == "rcc-amount-window")
            .map(|f| f.detail.as_str())
            .collect();
        assert_eq!(window.len(), 2, "{window:?}");
        assert!(window.iter().all(|d| d.starts_with("RCC 1 ") || d.starts_with("RCC 2 ")));
        assert!(!report.is_usable());
    }

    #[test]
    fn errors_sort_before_warnings() {
        let mut a = base_avail(1);
        a.plan_end = a.plan_start + 10; // warning
        let mut b = base_avail(2);
        b.actual_end = Some(b.actual_start + (-5)); // error
        let report = validate(&Dataset::new(vec![a, b], vec![]));
        assert_eq!(report.findings[0].severity, Severity::Error);
    }
}
