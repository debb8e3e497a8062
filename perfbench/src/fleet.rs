//! Benchmark inputs, all derived from `--seed`: the censored live fleet
//! and the protocol lines the clients send. The serving stack sees only
//! these generated inputs.

use std::collections::BTreeSet;

use domd_data::rcc::Swlin;
use domd_data::{censor_ongoing, generate, logical_time, AvailId, Dataset, Date, GeneratorConfig};

/// The `Dataset::split` seed of `domd train` (the CLI default), so the
/// ongoing set is the paper's 30% most recent avails on every run.
const SPLIT_SEED: u64 = 7;

/// SWLIN groups the output checks probe.
const SWLIN_PROBES: usize = 8;

/// splitmix64: a tiny, fully specified generator, so the request stream a
/// seed produces never depends on another crate's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Items dealt in seeded order, reshuffled after each pass: every stretch
/// of one pass holds each item once, so the cost mix of a run varies far
/// less between seeds than independent draws would.
#[derive(Debug, Clone)]
struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Clone> Deck<T> {
    fn new(items: Vec<T>) -> Self {
        let next = items.len();
        Deck { items, next }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next >= self.items.len() {
            rng.shuffle(&mut self.items);
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1].clone()
    }
}

/// One censored (ongoing) avail and its information horizon.
#[derive(Debug, Clone)]
pub struct Ongoing {
    /// The avail.
    pub id: AvailId,
    /// Its actual start.
    pub start: Date,
    /// The as-of date: nothing created after it is known yet.
    pub as_of: Date,
    /// The as-of date as logical time, the `t*` its predicts ask for.
    pub t_star: f64,
}

/// The live fleet one workload serves.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// The extracts: the generated fleet with the ongoing avails censored.
    pub dataset: Dataset,
    /// Closed avails the pipeline trains on.
    pub train: Vec<AvailId>,
    /// The censored avails; predicts, alerts and ingests target these.
    pub ongoing: Vec<Ongoing>,
    /// SWLIN hierarchy nodes `(prefix, depth)` present in the data.
    swlin_groups: Vec<(u32, u32)>,
}

impl Fleet {
    /// The default generator's fleet at `scale`, with the `split` test
    /// avails censored as ongoing at seeded 20–80% of planned duration:
    /// evenly spaced horizons dealt to the avails in an order drawn from
    /// the split seed. The fleet is the same for every `--seed`; the seed
    /// drives the traffic, so runs differ in requests, not in how much
    /// data each avail keeps.
    pub fn build(scale: u32) -> Result<Fleet, String> {
        let full = generate(&GeneratorConfig {
            scale,
            ..GeneratorConfig::default()
        });
        let split = full.split(SPLIT_SEED);
        let n = split.test.len();
        let mut rng = Rng::new(SPLIT_SEED, 1);
        let mut fractions: Vec<f64> = (0..n)
            .map(|i| 0.2 + 0.6 * (i as f64 + 0.5) / n as f64)
            .collect();
        rng.shuffle(&mut fractions);
        let mut dataset = full;
        let mut ongoing = Vec::with_capacity(n);
        for (&id, fraction) in split.test.iter().zip(fractions) {
            let a = dataset
                .avail(id)
                .ok_or_else(|| format!("split avail {id} missing"))?;
            let planned = a.planned_duration().max(1);
            let start = a.actual_start;
            let as_of = start + (fraction * f64::from(planned)).round() as i32;
            ongoing.push(Ongoing {
                id,
                start,
                as_of,
                t_star: logical_time(as_of, start, planned),
            });
            // One call per avail: each has its own horizon.
            dataset = censor_ongoing(&dataset, &[id], as_of).0;
        }
        let mut groups = BTreeSet::new();
        for r in dataset.rccs() {
            for depth in 1..=3 {
                groups.insert((r.swlin.prefix(depth), depth));
            }
        }
        Ok(Fleet {
            dataset,
            train: split.train,
            ongoing,
            swlin_groups: groups.into_iter().collect(),
        })
    }

    /// The filter of SWLIN group `i`. The protocol's `swlin=<code>:<depth>`
    /// takes the node's prefix value as the packed code, so a depth-3 node
    /// `434` is written `000-00-434:3`.
    fn swlin_filter(&self, i: usize) -> String {
        let (prefix, depth) = self.swlin_groups[i];
        match Swlin::from_packed(prefix) {
            Ok(code) => format!(" swlin={code}:{depth}"),
            Err(_) => String::new(),
        }
    }

    /// Status lines for the output checks, of the shapes the clients send:
    /// each status at three `t*`, unfiltered, per RCC type and for up to
    /// [`SWLIN_PROBES`] SWLIN groups spread over the hierarchy.
    pub fn status_probes(&self) -> Vec<String> {
        let step = self.swlin_groups.len().div_ceil(SWLIN_PROBES).max(1);
        let mut groups = vec![String::new()];
        groups.extend((0..RCC_TYPES.len()).map(type_filter));
        groups.extend(
            (0..self.swlin_groups.len())
                .step_by(step)
                .map(|i| self.swlin_filter(i)),
        );
        let mut out = Vec::new();
        for status in 0..STATUSES.len() {
            for t_star in [25.0, 60.0, 100.0] {
                out.extend(groups.iter().map(|g| status_line(status, t_star, g)));
            }
        }
        out
    }
}

/// The request kinds of the line protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// `status`: a Status Query aggregate.
    Status,
    /// `predict`: a DoMD estimate for one avail.
    Predict,
    /// `alert`: the risk-ranked sweep over every ongoing avail.
    Alert,
    /// `ingest`: a durable batch of new RCCs.
    Ingest,
}

impl OpKind {
    /// All kinds, in report order.
    pub const ALL: [OpKind; 4] = [
        OpKind::Status,
        OpKind::Predict,
        OpKind::Alert,
        OpKind::Ingest,
    ];

    /// Dense index.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Protocol verb.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Status => "status",
            OpKind::Predict => "predict",
            OpKind::Alert => "alert",
            OpKind::Ingest => "ingest",
        }
    }
}

/// Relative request weights per kind, in [`OpKind::ALL`] order.
pub type Mix = [u32; 4];

/// Status-query shapes: status × group kind × `t*` on a 10-point grid.
fn status_shapes() -> Vec<(usize, usize, f64)> {
    let mut out = Vec::with_capacity(90);
    for status in 0..3 {
        for group in 0..3 {
            for step in 0..10 {
                out.push((status, group, 5.0 + 10.0 * step as f64));
            }
        }
    }
    out
}

const STATUSES: [&str; 3] = ["active", "settled", "created"];
const RCC_TYPES: [&str; 3] = ["G", "NW", "NG"];

fn status_line(status: usize, t_star: f64, group: &str) -> String {
    format!(
        "status tenant=0 t={t_star} status={}{group}",
        STATUSES[status]
    )
}

fn type_filter(i: usize) -> String {
    format!(" type={}", RCC_TYPES[i])
}

/// Seeded generator of protocol lines for one client. Kinds follow the
/// mix exactly per pass of 100-ish requests; status shapes, predicted
/// avails, alert times and batch sizes are dealt from decks.
#[derive(Debug, Clone)]
pub struct RequestGen<'a> {
    fleet: &'a Fleet,
    rng: Rng,
    kinds: Deck<OpKind>,
    status: Deck<(usize, usize, f64)>,
    predict: Deck<usize>,
    alert: Deck<f64>,
    batch: Deck<usize>,
}

impl<'a> RequestGen<'a> {
    /// Client `client`'s stream for `seed`.
    pub fn new(fleet: &'a Fleet, seed: u64, client: u64, mix: Mix) -> Self {
        let kinds = OpKind::ALL
            .iter()
            .flat_map(|&k| std::iter::repeat_n(k, mix[k.index()] as usize))
            .collect();
        RequestGen {
            fleet,
            rng: Rng::new(seed, 100 + client),
            kinds: Deck::new(kinds),
            status: Deck::new(status_shapes()),
            predict: Deck::new((0..fleet.ongoing.len()).collect()),
            alert: Deck::new((0..11).map(|i| 25.0 + 5.0 * f64::from(i)).collect()),
            batch: Deck::new(vec![1, 2, 3]),
        }
    }

    /// The next line, kind dealt by the mix.
    pub fn next(&mut self) -> (OpKind, String) {
        let kind = self.kinds.draw(&mut self.rng);
        (kind, self.line(kind))
    }

    /// A fresh line of `kind`.
    pub fn line(&mut self, kind: OpKind) -> String {
        match kind {
            OpKind::Status => self.status(),
            OpKind::Predict => {
                let i = self.predict.draw(&mut self.rng);
                self.predict_for(i)
            }
            OpKind::Alert => {
                let t = self.alert.draw(&mut self.rng);
                format!("alert tenant=0 t={t} k=10 min=0")
            }
            OpKind::Ingest => self.ingest(),
        }
    }

    /// A predict for ongoing avail `i` at its as-of time.
    pub fn predict_for(&self, i: usize) -> String {
        let o = &self.fleet.ongoing[i % self.fleet.ongoing.len()];
        format!("predict tenant=0 avail={} t={}", o.id.0, o.t_star)
    }

    /// Status queries split evenly between unfiltered, RCC-type and
    /// SWLIN-prefix groups.
    fn status(&mut self) -> String {
        let (status, group, t) = self.status.draw(&mut self.rng);
        let group = match group {
            0 => String::new(),
            1 => type_filter(self.rng.below(RCC_TYPES.len())),
            _ => self
                .fleet
                .swlin_filter(self.rng.below(self.fleet.swlin_groups.len())),
        };
        status_line(status, t, &group)
    }

    /// A batch of 1–3 rows into ongoing avails, created shortly before
    /// each avail's as-of date, typed and priced like an existing RCC.
    fn ingest(&mut self) -> String {
        let rows = self.batch.draw(&mut self.rng);
        let mut line = String::from("ingest tenant=0");
        let rccs = self.fleet.dataset.rccs();
        for _ in 0..rows {
            let o = &self.fleet.ongoing[self.rng.below(self.fleet.ongoing.len())];
            let template = &rccs[self.rng.below(rccs.len())];
            let back = self.rng.below(15) as i32;
            let created = (o.as_of + -back).max(o.start);
            let settled = created + self.rng.below(31) as i32;
            line.push_str(&format!(
                " row={}:{}:{}:{}:{}:{}",
                o.id.0, template.rcc_type, template.swlin, created, settled, template.amount
            ));
        }
        line
    }
}
