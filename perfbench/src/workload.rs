//! The benchmark's workloads. Each one loads a different layer; the
//! README in this directory gives the workload → layer → metric map.

use armine_core::apriori::AprioriParams;
use armine_core::counter::CounterBackend;
use armine_core::{Dataset, Item, Transaction};
use armine_datagen::QuestParams;
use armine_parallel::ParallelParams;
use rand::prelude::*;

/// Minimum confidence of every generated rule.
pub const MIN_CONFIDENCE: f64 = 0.8;

/// HD's per-group candidate threshold `m`: the paper's 50K on 64
/// processors, scaled 1:100 as in the Figure 10 and `wallclock` runs.
pub const HD_GROUP_THRESHOLD: usize = 500;

/// One Quest T15.I6 input and the mining parameters applied to it.
#[derive(Debug)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// Transactions generated.
    pub transactions: usize,
    /// Item universe.
    pub items: u32,
    /// Maximal potentially large patterns.
    pub patterns: usize,
    /// Seed of the one Quest draw every input of the workload relabels.
    pub quest_seed: u64,
    /// Minimum support fraction.
    pub min_support: f64,
    /// Deepest pass mined; `None` mines until no itemset is frequent.
    pub max_k: Option<usize>,
    /// The counting structure of the serial and native mines.
    pub counter: CounterBackend,
    /// The counting structure of the simulator mines.
    pub sim_counter: CounterBackend,
    /// Transactions per page of the partitioned formulations.
    pub page_size: usize,
    /// Simulated processors; `None` runs the simulator at P = host cores.
    pub sim_procs: Option<usize>,
    /// Rounds of the serial and native pipelines per round of simulator
    /// mines, so that cheap pipelines next to a costly simulator still
    /// get enough samples for a steady median.
    pub rounds: usize,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    // ~700 frequent items make C2 about 250k candidates while under a
    // thousand itemsets come out: pass-2 counting is ~91% of the mine.
    // Trie is the fastest counter here (the hash tree takes minutes).
    Workload {
        name: "sparse-pass2",
        transactions: 25_000,
        items: 1000,
        patterns: 2000,
        quest_seed: 1,
        min_support: 0.01,
        max_k: Some(4),
        counter: CounterBackend::Trie,
        sim_counter: CounterBackend::Trie,
        page_size: 1000,
        sim_procs: None,
        rounds: 1,
    },
    // A dense universe mined to the end: 11 passes, 17.6k frequent
    // itemsets and 384k rules, so rule generation (twice the counter
    // time), deep passes and the exchange carry the time. Vertical is the
    // fastest counter here. (Quest seed 1 at 50k transactions gives 936k
    // rules; at a second per rule step a run held only three samples of
    // each pipeline, too few for a steady median.)
    Workload {
        name: "dense-deep",
        transactions: 25_000,
        items: 250,
        patterns: 120,
        quest_seed: 5,
        min_support: 0.01,
        max_k: None,
        counter: CounterBackend::Vertical,
        sim_counter: CounterBackend::Vertical,
        page_size: 1000,
        sim_procs: None,
        rounds: 1,
    },
    // The paper-reproduction path: the Figure 10 scaleup input at P = 64
    // on the simulator with the default hash tree, as the `wallclock`
    // bench runs it, at 100 instead of 200 transactions per rank so the
    // three mines take ~5 s and a run holds five samples. The serial and
    // native mines of this input use the trie (with the hash tree they
    // took 16 s of every iteration) and run three rounds per iteration:
    // at ~0.25 s each, their medians of five samples spread by 19% and
    // of eight by 15% over ten seeds.
    Workload {
        name: "sim-p64",
        transactions: 64 * 100,
        items: 250,
        patterns: 120,
        quest_seed: 1010,
        min_support: 0.015,
        max_k: Some(5),
        counter: CounterBackend::Trie,
        sim_counter: CounterBackend::HashTree,
        page_size: 100,
        sim_procs: Some(64),
        rounds: 3,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The Quest draw the inputs are made from.
    pub fn quest(&self) -> QuestParams {
        QuestParams::paper_t15_i6()
            .num_transactions(self.transactions)
            .num_items(self.items)
            .num_patterns(self.patterns)
            .seed(self.quest_seed)
    }

    /// The input for `seed`: the workload's Quest draw with its items
    /// renamed by a random permutation and its transactions shuffled,
    /// both drawn from `seed`.
    ///
    /// Different Quest seeds change the lattice by an order of magnitude
    /// (on `dense-deep` the rule count ranges from 0.3M to 14M over seeds
    /// 1 to 6), so no timing bound could hold across them. A renamed and
    /// reordered draw keeps the lattice's shape while every seed still
    /// gives other item ids, candidate orders, hash-tree buckets, IDD
    /// first-item partitions and transaction pages.
    pub fn input(&self, base: &Dataset, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rename: Vec<u32> = (0..self.items).collect();
        rename.shuffle(&mut rng);
        let mut order: Vec<&Transaction> = base.transactions().iter().collect();
        order.shuffle(&mut rng);
        let transactions = order
            .into_iter()
            .zip(1..)
            .map(|(t, tid)| {
                let items = t.items().iter().map(|i| Item(rename[i.index()])).collect();
                Transaction::new(tid, items)
            })
            .collect();
        Dataset::with_num_items(transactions, self.items)
    }

    /// Serial miner parameters.
    pub fn apriori_params(&self) -> AprioriParams {
        let params = AprioriParams::with_min_support(self.min_support).counter(self.counter);
        match self.max_k {
            Some(k) => params.max_k(k),
            None => params,
        }
    }

    /// Parallel miner parameters with the given counter.
    pub fn parallel_params(&self, counter: CounterBackend) -> ParallelParams {
        let params = ParallelParams::with_min_support(self.min_support)
            .counter(counter)
            .page_size(self.page_size);
        match self.max_k {
            Some(k) => params.max_k(k),
            None => params,
        }
    }
}
