//! Request for Contract Change (RCC) schema — Section 2 of the paper.
//!
//! An RCC is `r_j = <j, a_i, w_j, t_j^s, t_j^e, m_j>`: identifier with type,
//! owning avail, 8-digit hierarchical SWLIN code, creation date, settled
//! date, and settled dollar amount. The SWLIN's first digit names the general
//! ship subsystem, with each subsequent digit narrowing to a more specific
//! module (Figure 1).

use crate::avail::AvailId;
use crate::date::Date;
use std::fmt;
use std::str::FromStr;

/// Identifier of an RCC within its avail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RccId(pub u32);

/// The three RCC categories (Growth / New Work / New Growth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RccType {
    /// `G` — upgrades an existing system.
    Growth,
    /// `N`/`NW` — creates a new system.
    NewWork,
    /// `NG` — adds a distinct component.
    NewGrowth,
}

impl RccType {
    /// All variants, in display order.
    pub const ALL: [RccType; 3] = [RccType::Growth, RccType::NewWork, RccType::NewGrowth];

    /// Short code used in feature names ("G1-AVG_SETTLED_AMT" style).
    pub fn code(self) -> &'static str {
        match self {
            RccType::Growth => "G",
            RccType::NewWork => "N",
            RccType::NewGrowth => "NG",
        }
    }

    /// Dense index (0..3) for array-backed group-by structures.
    pub fn index(self) -> usize {
        match self {
            RccType::Growth => 0,
            RccType::NewWork => 1,
            RccType::NewGrowth => 2,
        }
    }
}

impl fmt::Display for RccType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

impl FromStr for RccType {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "G" => Ok(RccType::Growth),
            "N" | "NW" => Ok(RccType::NewWork),
            "NG" => Ok(RccType::NewGrowth),
            other => Err(format!("unknown RCC type {other:?}")),
        }
    }
}

/// An 8-digit hierarchical SWLIN code identifying a physical location on the
/// ship (Figure 1). The canonical textual form groups digits as
/// `DDD-DD-DDD`, e.g. `434-11-001`.
///
/// ```
/// use domd_data::rcc::Swlin;
/// let w: Swlin = "434-11-001".parse().unwrap();
/// assert_eq!(w.digit(1), 4); // general subsystem
/// assert_eq!(w.prefix(3), 434);
/// assert_eq!(w.to_string(), "434-11-001");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Swlin(u32);

impl Swlin {
    /// Builds a SWLIN from its 8 decimal digits packed as a number in
    /// `[0, 99_999_999]`.
    pub fn from_packed(packed: u32) -> Result<Self, String> {
        if packed > 99_999_999 {
            return Err(format!("SWLIN must be 8 decimal digits, got {packed}"));
        }
        Ok(Swlin(packed))
    }

    /// The packed 8-digit value.
    pub fn packed(self) -> u32 {
        self.0
    }

    /// The `level`-th digit (1-based from the most significant / most
    /// general). Level 1 is the general ship subsystem.
    pub fn digit(self, level: u32) -> u8 {
        assert!((1..=8).contains(&level), "SWLIN level must be 1..=8");
        ((self.0 / 10u32.pow(8 - level)) % 10) as u8
    }

    /// The numeric value of the first `len` digits — the hierarchy node this
    /// code sits under at depth `len`. `prefix(8)` is the full code.
    pub fn prefix(self, len: u32) -> u32 {
        assert!((1..=8).contains(&len), "SWLIN prefix length must be 1..=8");
        self.0 / 10u32.pow(8 - len)
    }

    /// True when `self` lies in the subtree rooted at the hierarchy node
    /// given by `prefix` of length `len`.
    pub fn has_prefix(self, prefix: u32, len: u32) -> bool {
        self.prefix(len) == prefix
    }
}

impl fmt::Display for Swlin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.0;
        write!(f, "{:03}-{:02}-{:03}", d / 100_000, (d / 1000) % 100, d % 1000)
    }
}

impl FromStr for Swlin {
    type Err = String;

    /// Parses `DDD-DD-DDD` or a bare 8-digit string.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits: String = s.chars().filter(|c| c.is_ascii_digit()).collect();
        let seps: usize = s.chars().filter(|&c| c == '-').count();
        if digits.len() != 8 || (s.len() != digits.len() + seps) {
            return Err(format!("SWLIN must contain exactly 8 digits: {s:?}"));
        }
        let packed: u32 = digits.parse().map_err(|_| format!("bad SWLIN {s:?}"))?;
        Swlin::from_packed(packed)
    }
}

/// A Request for Contract Change.
#[derive(Debug, Clone, PartialEq)]
pub struct Rcc {
    /// Identifier `j`.
    pub id: RccId,
    /// Owning avail `a_i`.
    pub avail: AvailId,
    /// Category (G / NW / NG).
    pub rcc_type: RccType,
    /// SWLIN code `w_j`.
    pub swlin: Swlin,
    /// Creation date `t_j^s` — when the RCC begins.
    pub created: Date,
    /// Settled date `t_j^e` — when the RCC ends.
    pub settled: Date,
    /// Settled amount `m_j` in dollars.
    pub amount: f64,
}

impl Rcc {
    /// Duration of the RCC in days (`settled − created`, ≥ 0 for valid rows).
    pub fn duration_days(&self) -> i32 {
        self.settled - self.created
    }
}

/// Fraction bits of the fixed-point grid Status-Query sums add amounts
/// on: every admitted amount is a whole multiple of `2^-62` dollars.
pub const AMOUNT_FRACTION_BITS: u32 = 62;

/// Exclusive bound on an admitted amount's magnitude: `2^33` dollars
/// (about $8.6B).
pub const AMOUNT_LIMIT: f64 = (1u64 << 33) as f64;

/// True when `amount` lies in the admitted window: finite, below
/// [`AMOUNT_LIMIT`] in magnitude, and a whole multiple of `2^-62`. Every
/// such amount is an integer below `2^95` on the `2^-62` grid, so the sum
/// of up to `2^32` of them (every row id a view can hold) fits an `i128`
/// exactly, and a Status Query rounds its amount sum once, whatever order
/// it adds the rows in. Every `f64` from about $0.001 up to the bound is
/// admitted; smaller amounts only when their last significand bits are
/// zero. Loads, `validate` and `domd serve`'s ingest refuse the rest.
pub fn amount_admitted(amount: f64) -> bool {
    const SCALE: f64 = (1u64 << AMOUNT_FRACTION_BITS) as f64;
    // Scaling by a power of two is exact, so the product's fraction is
    // the amount's part below the grid.
    amount.abs() < AMOUNT_LIMIT && (amount * SCALE).fract() == 0.0
}

/// Status of an RCC relative to a logical timestamp `t*`
/// (Equations 3–6: active / settled / created / not-created).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RccStatus {
    /// `created ≤ t* < settled`: work in flight at `t*` (point/stab query).
    Active,
    /// `settled ≤ t*`: work concluded by `t*`.
    Settled,
    /// `created ≤ t*`: union of active and settled.
    Created,
    /// `created > t*`: not yet raised at `t*`.
    NotCreated,
}

impl RccStatus {
    /// The three statuses used by feature generation (NotCreated rows carry
    /// no signal about the past and are excluded from Status Query results).
    pub const FEATURE_STATUSES: [RccStatus; 3] =
        [RccStatus::Active, RccStatus::Settled, RccStatus::Created];

    /// Short code used in feature names.
    pub fn code(self) -> &'static str {
        match self {
            RccStatus::Active => "ACT",
            RccStatus::Settled => "SET",
            RccStatus::Created => "CRE",
            RccStatus::NotCreated => "NC",
        }
    }
}

/// Evaluates the status predicate of Equations 3–6 directly on logical
/// start/end positions. This is the semantic ground truth the index
/// structures in `domd-index` must agree with.
pub fn status_at(logical_start: f64, logical_end: f64, t_star: f64) -> RccStatus {
    if logical_start > t_star {
        RccStatus::NotCreated
    } else if logical_end <= t_star {
        RccStatus::Settled
    } else {
        RccStatus::Active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swlin_parse_display_roundtrip() {
        for s in ["434-11-001", "911-90-001", "804-11-001", "983-11-001", "565-11-001"] {
            let w: Swlin = s.parse().unwrap();
            assert_eq!(w.to_string(), s);
        }
    }

    #[test]
    fn swlin_digits_and_prefixes() {
        let w: Swlin = "434-11-001".parse().unwrap();
        assert_eq!(w.digit(1), 4);
        assert_eq!(w.digit(2), 3);
        assert_eq!(w.digit(3), 4);
        assert_eq!(w.digit(4), 1);
        assert_eq!(w.digit(8), 1);
        assert_eq!(w.prefix(1), 4);
        assert_eq!(w.prefix(3), 434);
        assert_eq!(w.prefix(5), 43411);
        assert_eq!(w.prefix(8), 43411001);
        assert!(w.has_prefix(4, 1));
        assert!(w.has_prefix(434, 3));
        assert!(!w.has_prefix(5, 1));
    }

    #[test]
    fn swlin_leading_zeros_preserved() {
        let w: Swlin = "004-11-001".parse().unwrap();
        assert_eq!(w.digit(1), 0);
        assert_eq!(w.to_string(), "004-11-001");
    }

    #[test]
    fn swlin_rejects_bad_input() {
        assert!("12-34".parse::<Swlin>().is_err());
        assert!("123-45-67x".parse::<Swlin>().is_err());
        assert!("123456789".parse::<Swlin>().is_err()); // 9 digits
        assert!(Swlin::from_packed(100_000_000).is_err());
    }

    #[test]
    fn rcc_type_parse_and_codes() {
        assert_eq!("G".parse::<RccType>().unwrap(), RccType::Growth);
        assert_eq!("N".parse::<RccType>().unwrap(), RccType::NewWork);
        assert_eq!("NW".parse::<RccType>().unwrap(), RccType::NewWork);
        assert_eq!("NG".parse::<RccType>().unwrap(), RccType::NewGrowth);
        assert!("X".parse::<RccType>().is_err());
        assert_eq!(RccType::NewGrowth.code(), "NG");
        let idx: Vec<usize> = RccType::ALL.iter().map(|t| t.index()).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn paper_table3_first_rcc() {
        // r_1G of avail 5: created 3/22/20, settled 6/16/20, 434-11-001, $8000.
        let r = Rcc {
            id: RccId(1),
            avail: AvailId(5),
            rcc_type: RccType::Growth,
            swlin: "434-11-001".parse().unwrap(),
            created: "3/22/20".parse().unwrap(),
            settled: "6/16/20".parse().unwrap(),
            amount: 8000.0,
        };
        assert_eq!(r.duration_days(), 86);
    }

    #[test]
    fn status_predicate_semantics() {
        // Logical interval [20, 60).
        assert_eq!(status_at(20.0, 60.0, 10.0), RccStatus::NotCreated);
        assert_eq!(status_at(20.0, 60.0, 20.0), RccStatus::Active); // inclusive start
        assert_eq!(status_at(20.0, 60.0, 40.0), RccStatus::Active);
        assert_eq!(status_at(20.0, 60.0, 60.0), RccStatus::Settled); // inclusive end
        assert_eq!(status_at(20.0, 60.0, 90.0), RccStatus::Settled);
    }
}
