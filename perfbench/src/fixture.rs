//! Shared inputs: the ten back-end × ISA cells, the generated
//! databases with their reference results, the seeded generator, and
//! per-run scratch directories.

use crate::stats::{splitmix64, Calibrator, Timed};
use qc_backend::Backend;
use qc_engine::backends;
use qc_plan::TableSchema;
use qc_storage::Database;
use qc_target::Isa;
use qc_workloads::BenchQuery;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One back-end × ISA pair of the paper's Table III.
pub struct Cell {
    pub name: &'static str,
    pub backend: Arc<dyn Backend>,
}

/// Names of the ten cells, in Table III order.
pub const CELLS: [&str; 10] = [
    "interp",
    "direct.tx64",
    "clift.tx64",
    "clift.ta64",
    "lvm-cheap.tx64",
    "lvm-cheap.ta64",
    "lvm-opt.tx64",
    "lvm-opt.ta64",
    "cgen.tx64",
    "cgen.ta64",
];

/// Top-level compile phases of the TX64 cells, as the back-ends
/// record them in a `TimeTrace` on the artifact path.
pub const TX64_PHASES: [(&str, &[&str]); 5] = [
    ("direct.tx64", &["analysis", "codegen"]),
    (
        "clift.tx64",
        &["irgen", "irpasses", "iselprep_isel", "regalloc", "emit"],
    ),
    (
        "lvm-cheap.tx64",
        &[
            "targetmachine",
            "irgen",
            "irpasses",
            "isel",
            "regalloc",
            "otherpasses",
            "asmprinter",
            "irdtor",
        ],
    ),
    (
        "lvm-opt.tx64",
        &[
            "targetmachine",
            "irgen",
            "opt",
            "irpasses",
            "isel",
            "regalloc",
            "otherpasses",
            "asmprinter",
            "irdtor",
        ],
    ),
    (
        "cgen.tx64",
        &[
            "cgen",
            "io",
            "cc1_parse",
            "cc1_gimplify",
            "cc1_optimize",
            "cc1_codegen",
            "as",
            "ld",
        ],
    ),
];

/// The back-end of the cell named `name`.
pub fn backend(name: &str) -> Arc<dyn Backend> {
    let boxed = match name {
        "interp" => backends::interpreter(),
        "direct.tx64" => backends::direct_emit(),
        "clift.tx64" => backends::clift(Isa::Tx64),
        "clift.ta64" => backends::clift(Isa::Ta64),
        "lvm-cheap.tx64" => backends::lvm_cheap(Isa::Tx64),
        "lvm-cheap.ta64" => backends::lvm_cheap(Isa::Ta64),
        "lvm-opt.tx64" => backends::lvm_opt(Isa::Tx64),
        "lvm-opt.ta64" => backends::lvm_opt(Isa::Ta64),
        "cgen.tx64" => backends::cgen(Isa::Tx64),
        "cgen.ta64" => backends::cgen(Isa::Ta64),
        other => panic!("unknown cell {other}"),
    };
    Arc::from(boxed)
}

/// All ten cells.
pub fn cells() -> Vec<Cell> {
    CELLS
        .iter()
        .map(|&name| Cell {
            name,
            backend: backend(name),
        })
        .collect()
}

/// Which generated schema and query suite a workload uses.
#[derive(Debug, Clone, Copy)]
pub enum Suite {
    /// 103 TPC-DS-shaped queries.
    DsLike,
    /// 22 TPC-H-shaped queries.
    HLike,
}

/// A generated database, its query suite, and the suite's reference
/// results in normalized form.
pub struct Data {
    pub db: Database,
    pub suite: Vec<BenchQuery>,
    pub reference: Vec<Vec<String>>,
}

impl Data {
    /// Generates the database and evaluates every query with the
    /// reference evaluator, each step timed against its own calibration
    /// sample. Returns the data, the set-up time and the datagen time.
    pub fn build(
        suite: Suite,
        sf: f64,
        cal: &mut Calibrator,
    ) -> Result<(Data, Timed, Timed), String> {
        cal.recalibrate();
        let (db, datagen) = cal.time(|| match suite {
            Suite::DsLike => qc_storage::gen_dslike(sf),
            Suite::HLike => qc_storage::gen_hlike(sf),
        });
        let suite = match suite {
            Suite::DsLike => qc_workloads::dslike_suite(),
            Suite::HLike => qc_workloads::hlike_suite(),
        };
        cal.recalibrate();
        let (reference, evaluate) = cal.time(|| {
            suite
                .iter()
                .map(|q| {
                    qc_plan::reference::execute(&q.plan, &db)
                        .map(|rows| qc_plan::reference::normalize(&rows))
                        .map_err(|e| format!("reference {}: {e}", q.name))
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let mut setup = datagen;
        setup += evaluate;
        Ok((
            Data {
                db,
                suite,
                reference: reference?,
            },
            setup,
            datagen,
        ))
    }

    /// The schema lookup planning needs.
    pub fn schema(&self, table: &str) -> Option<TableSchema> {
        self.db
            .table(table)
            .map(|t| t.schema.iter().map(|(n, ty)| (n.to_string(), ty)).collect())
    }
}

/// A (query, cell) pair, as indices into the suite and [`CELLS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    pub query: usize,
    pub cell: usize,
}

impl Pair {
    /// Dense index of the pair among `queries × CELLS`.
    pub fn index(self) -> usize {
        self.query * CELLS.len() + self.cell
    }
}

/// Every (query, cell) pair of a suite of `queries` queries, shuffled
/// by `rng`.
pub fn shuffled_pairs(queries: usize, rng: &mut Rng) -> Vec<Pair> {
    let mut pairs: Vec<Pair> = (0..queries)
        .flat_map(|query| (0..CELLS.len()).map(move |cell| Pair { query, cell }))
        .collect();
    rng.shuffle(&mut pairs);
    pairs
}

/// The benchmark's seeded generator (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A Zipf-shaped deck of ranks `0..n`: rank `r` appears
/// `max(1, round(len × p(r)))` times, where `p(r) ∝ 1 / (r + 1)^s`.
/// Dealing shuffled copies of one deck, rather than drawing ranks
/// independently, gives every seed the same query mix per deck and
/// varies only the order.
pub fn zipf_deck(n: usize, s: f64, len: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .enumerate()
        .flat_map(|(rank, w)| {
            let copies = ((len as f64 * w / total).round() as usize).max(1);
            std::iter::repeat_n(rank, copies)
        })
        .collect()
}

/// Deals ranks from reshuffled copies of a deck.
pub struct Dealer {
    deck: Vec<usize>,
    next: usize,
}

impl Dealer {
    pub fn new(deck: Vec<usize>) -> Self {
        let next = deck.len();
        Dealer { deck, next }
    }

    pub fn deal(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.deck.len() {
            rng.shuffle(&mut self.deck);
            self.next = 0;
        }
        self.next += 1;
        self.deck[self.next - 1]
    }
}

/// A scratch directory inside the working directory, removed with
/// everything in it when dropped — on success, on error returns, and
/// while unwinding from a panic.
pub struct ScratchDir(PathBuf);

/// Parent of all scratch directories, relative to the working directory.
pub const SCRATCH_ROOT: &str = ".perfbench-tmp";

impl ScratchDir {
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = Path::new(SCRATCH_ROOT).join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run uses the parent.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = shuffled_pairs(7, &mut Rng::new(3));
        let b = shuffled_pairs(7, &mut Rng::new(3));
        let c = shuffled_pairs(7, &mut Rng::new(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 70);
    }

    #[test]
    fn zipf_deck_favours_low_ranks_and_keeps_every_rank() {
        let deck = zipf_deck(10, 1.0, 100);
        let count = |r: usize| deck.iter().filter(|&&x| x == r).count();
        assert!(count(0) > count(1) && count(1) > count(9) && count(9) >= 1);
        assert_eq!(count(0), 34);
    }

    #[test]
    fn every_seed_deals_the_same_mix_per_deck() {
        let deck = zipf_deck(20, 1.0, 200);
        let dealt = |seed| {
            let mut rng = Rng::new(seed);
            let mut dealer = Dealer::new(deck.clone());
            let mut hand: Vec<usize> = (0..deck.len()).map(|_| dealer.deal(&mut rng)).collect();
            let order = hand.clone();
            hand.sort_unstable();
            (hand, order)
        };
        let (a, order_a) = dealt(1);
        let (b, order_b) = dealt(2);
        assert_eq!(a, b);
        assert_ne!(order_a, order_b);
    }

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        let dir = ScratchDir::new("selftest").expect("create");
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("f"), b"x").expect("write");
        drop(dir);
        assert!(!path.exists());
    }
}
