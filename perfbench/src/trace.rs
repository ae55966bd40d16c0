//! The traced serial run: the same program as `pipeline::serial`, with a
//! span around each call into a layer. It calls the public functions
//! `Apriori::mine` calls, in the same order — `apriori_gen`, then
//! `CounterBackend::build`, `count_all` and `frequent` for every pass —
//! and the caller asserts its lattice equals the untraced run's.

use crate::pipeline::Output;
use crate::workload::{Workload, MIN_CONFIDENCE};
use armine_core::apriori::{apriori_gen, FrequentItemsets, PassInfo};
use armine_core::counter::CounterStats;
use armine_core::hashtree::OwnershipFilter;
use armine_core::io::read_transactions_file;
use armine_core::rules::generate_rules;
use armine_core::{Item, ItemSet, Transaction};
use std::path::Path;
use std::time::Instant;

/// Wall seconds per layer and the exact work counts of one traced run.
#[derive(Debug, Default)]
pub struct Spans {
    /// Whole run: parse through rules.
    pub total_s: f64,
    /// `read_transactions_file`.
    pub parse_s: f64,
    /// Pass 1 (per-item counting).
    pub pass1_s: f64,
    /// `apriori_gen`, summed over passes.
    pub gen_s: f64,
    /// `CounterBackend::build`, summed over passes.
    pub build_s: f64,
    /// `count_all` of pass 2.
    pub count_k2_s: f64,
    /// `count_all` of passes 3 and up.
    pub count_k3plus_s: f64,
    /// `frequent` (extraction), summed over passes.
    pub extract_s: f64,
    /// `generate_rules`.
    pub rules_s: f64,
    /// Per-pass accounting, `k = 1` first, as `Apriori::mine` reports it.
    pub passes: Vec<PassInfo>,
    /// Counter ledgers summed over passes.
    pub stats: CounterStats,
    /// Transactions mined.
    pub transactions: u64,
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// Pass 1 as `Apriori::mine` runs it: count every item, keep those with
/// at least `min_count` occurrences. Returns `(|C1|, F1)`.
fn frequent_items(transactions: &[Transaction], min_count: u64) -> (usize, Vec<(ItemSet, u64)>) {
    let universe = transactions
        .iter()
        .filter_map(|t| t.items().last())
        .map(|i| i.index() + 1)
        .max()
        .unwrap_or(0);
    let mut counts = vec![0u64; universe];
    for t in transactions {
        for item in t.items() {
            counts[item.index()] += 1;
        }
    }
    let candidates = counts.iter().filter(|&&c| c > 0).count();
    let frequent = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c >= min_count)
        .map(|(id, &c)| (ItemSet::singleton(Item(id as u32)), c))
        .collect();
    (candidates, frequent)
}

/// Runs input file → rules with a span around every layer call.
pub fn traced_serial(path: &Path, workload: &Workload) -> Result<(Output, Spans), String> {
    let params = workload.apriori_params();
    let mut spans = Spans::default();
    let start = Instant::now();
    let dataset = timed(&mut spans.parse_s, || read_transactions_file(path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let transactions = dataset.transactions();
    spans.transactions = transactions.len() as u64;
    let min_count = params.min_support.resolve(transactions.len());

    let (c1, f1) = timed(&mut spans.pass1_s, || {
        frequent_items(transactions, min_count)
    });
    spans.passes.push(PassInfo {
        k: 1,
        candidates: c1,
        frequent: f1.len(),
        db_scans: 1,
        tree_stats: Default::default(),
    });
    let mut prev: Vec<ItemSet> = f1.iter().map(|(s, _)| s.clone()).collect();
    let mut levels = vec![f1];
    let mut k = 2;
    while !prev.is_empty() && params.max_k.is_none_or(|m| k <= m) {
        let candidates = timed(&mut spans.gen_s, || apriori_gen(&prev));
        if candidates.is_empty() {
            break;
        }
        let mut counter = timed(&mut spans.build_s, || {
            params.counter.build(k, params.tree, candidates.to_vec())
        });
        let count_span = if k == 2 {
            &mut spans.count_k2_s
        } else {
            &mut spans.count_k3plus_s
        };
        timed(count_span, || {
            counter.count_all(transactions, &OwnershipFilter::all())
        });
        let level = timed(&mut spans.extract_s, || counter.frequent(min_count));
        let stats = counter.stats();
        spans.stats = spans.stats.merged(&stats);
        spans.passes.push(PassInfo {
            k,
            candidates: candidates.len(),
            frequent: level.len(),
            db_scans: 1,
            tree_stats: stats,
        });
        prev = level.iter().map(|(s, _)| s.clone()).collect();
        levels.push(level);
        k += 1;
    }
    let frequent = FrequentItemsets::from_levels(levels, transactions.len() as u64);
    let rules = timed(&mut spans.rules_s, || {
        generate_rules(&frequent, MIN_CONFIDENCE)
    });
    spans.total_s = start.elapsed().as_secs_f64();
    let output = Output {
        frequent,
        rules: Some(rules),
    };
    Ok((output, spans))
}
