//! The measured programs: input file to rules, serial and parallel, and
//! the simulator mines. Each is timed from outside, around the calls into
//! the library's public functions.

use crate::workload::{Workload, HD_GROUP_THRESHOLD, MIN_CONFIDENCE};
use armine_core::apriori::{Apriori, FrequentItemsets, PassInfo};
use armine_core::io::read_transactions_file;
use armine_core::rules::{generate_rules, Rule};
use armine_core::Dataset;
use armine_mpsim::ExecBackend;
use armine_parallel::{Algorithm, ParallelMiner, ParallelRun};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What every mining run is checked on.
pub struct Output {
    /// The frequent-itemset lattice with supports.
    pub frequent: FrequentItemsets,
    /// The rules at [`MIN_CONFIDENCE`]; `None` for runs that mine only.
    pub rules: Option<Vec<Rule>>,
}

impl Output {
    /// Whether `self` has the same lattice and, where both have them, the
    /// same rules as `reference`.
    pub fn matches(&self, reference: &Output) -> bool {
        let lattice = self.frequent.len() == reference.frequent.len()
            && self
                .frequent
                .iter()
                .all(|(set, count)| reference.frequent.support(set) == Some(count));
        let rules = match (&self.rules, &reference.rules) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        lattice && rules
    }
}

/// The formulations measured on the native backend and the simulator.
pub const FORMULATIONS: [(&str, Algorithm); 3] = [
    ("cd", Algorithm::Cd),
    ("idd", Algorithm::Idd),
    (
        "hd",
        Algorithm::Hd {
            group_threshold: HD_GROUP_THRESHOLD,
        },
    ),
];

fn parse(path: &Path) -> Result<Dataset, String> {
    read_transactions_file(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// One serial input file → rules run.
pub struct SerialRun {
    /// The lattice and rules.
    pub output: Output,
    /// Per-pass accounting as `Apriori::mine` returned it.
    pub passes: Vec<PassInfo>,
    /// Parse + mine + rules, wall seconds.
    pub seconds: f64,
}

/// Serial input file → rules: parse, `Apriori::mine`, `generate_rules`.
pub fn serial(path: &Path, workload: &Workload) -> Result<SerialRun, String> {
    let start = Instant::now();
    let dataset = parse(path)?;
    let run = Apriori::new(workload.apriori_params()).mine(black_box(dataset.transactions()));
    let rules = generate_rules(&run.frequent, MIN_CONFIDENCE);
    let seconds = start.elapsed().as_secs_f64();
    Ok(SerialRun {
        output: Output {
            frequent: run.frequent,
            rules: Some(rules),
        },
        passes: run.passes,
        seconds,
    })
}

/// One native input file → rules run and its timings.
pub struct NativeRun {
    /// Parse + mine + rules, wall seconds.
    pub total_s: f64,
    /// `ParallelMiner::mine`, wall seconds.
    pub mine_s: f64,
    /// `ParallelMiner::generate_rules`, wall seconds.
    pub rules_s: f64,
    /// The run as the miner returned it (per-rank wall and traffic).
    pub run: ParallelRun,
    /// The rules.
    pub rules: Vec<Rule>,
}

/// Native input file → rules: parse, `ParallelMiner::mine` and
/// `ParallelMiner::generate_rules` on `procs` threads.
pub fn native(
    path: &Path,
    workload: &Workload,
    algorithm: Algorithm,
    procs: usize,
) -> Result<NativeRun, String> {
    let miner = ParallelMiner::new(procs).backend(ExecBackend::Native);
    let params = workload.parallel_params(workload.counter);
    let start = Instant::now();
    let dataset = parse(path)?;
    let mine_start = Instant::now();
    let run = miner.mine(algorithm, black_box(&dataset), &params);
    let mine_s = mine_start.elapsed().as_secs_f64();
    let rules_start = Instant::now();
    let rules = miner.generate_rules(&run.frequent, MIN_CONFIDENCE).rules;
    let rules_s = rules_start.elapsed().as_secs_f64();
    Ok(NativeRun {
        total_s: start.elapsed().as_secs_f64(),
        mine_s,
        rules_s,
        run,
        rules,
    })
}

/// One simulator mine on the T3E profile: the run (virtual clock and
/// traffic) and its host wall seconds.
pub fn sim(
    dataset: &Dataset,
    workload: &Workload,
    algorithm: Algorithm,
    procs: usize,
) -> (ParallelRun, f64) {
    let miner = ParallelMiner::new(procs);
    let params = workload.parallel_params(workload.sim_counter);
    let start = Instant::now();
    let run = miner.mine(algorithm, black_box(dataset), &params);
    (run, start.elapsed().as_secs_f64())
}

/// Simulator rule generation, for checking a sim run's rules once.
pub fn sim_rules(frequent: &FrequentItemsets, procs: usize) -> Vec<Rule> {
    ParallelMiner::new(procs)
        .generate_rules(frequent, MIN_CONFIDENCE)
        .rules
}
