//! Cross-backend equivalence of the [`CandidateCounter`] seam: the hash
//! tree, the candidate trie, the vertical (tidlist) counter, and
//! brute-force subset containment must agree exactly — on full counts,
//! under ownership filters, and end-to-end through every parallel
//! formulation on both the simulated and the native execution backend.

use armine::core::binpack::partition_by_first_item;
use armine::core::bitmap::ItemBitmap;
use armine::core::counter::CounterBackend;
use armine::core::hashtree::{HashTreeParams, OwnershipFilter};
use armine::core::rules::generate_rules;
use armine::core::trie::CandidateTrie;
use armine::core::{Item, ItemSet, Transaction};
use armine::datagen::QuestParams;
use armine::mpsim::ExecBackend;
use armine::parallel::{Algorithm, ParallelMiner, ParallelParams};
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy: a transaction as a set of item ids below `universe`.
fn arb_transaction(universe: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..universe, 0..=max_len).prop_map(|s| s.into_iter().collect())
}

/// Strategy: a sorted candidate itemset of exactly `k` distinct items.
fn arb_candidate(universe: u32, k: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..universe, k).prop_map(|s| s.into_iter().collect())
}

fn to_transactions(raw: &[Vec<u32>]) -> Vec<Transaction> {
    raw.iter()
        .enumerate()
        .map(|(i, ids)| Transaction::new(i as u64, ids.iter().map(|&x| Item(x)).collect()))
        .collect()
}

fn to_itemsets(raw: &[Vec<u32>]) -> Vec<ItemSet> {
    let mut sets: Vec<ItemSet> = raw
        .iter()
        .map(|ids| ItemSet::new(ids.iter().map(|&x| Item(x)).collect()))
        .collect();
    sets.sort();
    sets.dedup();
    sets
}

/// The reference semantics both backends must implement: candidate `c` is
/// counted in `t` iff `c ⊆ t` and the filter admits the walk that reaches
/// `c` — its first item at the root, its second at depth one.
fn brute_force(
    candidates: &[ItemSet],
    transactions: &[Transaction],
    filter: &OwnershipFilter,
) -> Vec<u64> {
    candidates
        .iter()
        .map(|c| {
            let first = c.first().unwrap();
            if !filter.allows_root(first) {
                return 0;
            }
            if c.len() >= 2 && !filter.allows_second(first, c.items()[1]) {
                return 0;
            }
            transactions.iter().filter(|t| t.contains_set(c)).count() as u64
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every backend produces the identical count vector and frequent
    /// level as brute-force subset containment, unfiltered.
    #[test]
    fn backends_equal_brute_force_unfiltered(
        raw_cands in prop::collection::vec(arb_candidate(20, 3), 1..40),
        raw_txs in prop::collection::vec(arb_transaction(20, 10), 0..40),
        min_count in 1u64..4,
    ) {
        let cands = to_itemsets(&raw_cands);
        let txs = to_transactions(&raw_txs);
        let filter = OwnershipFilter::all();
        let want = brute_force(&cands, &txs, &filter);
        let mut levels = Vec::new();
        for backend in CounterBackend::ALL {
            let mut counter = backend.build(3, HashTreeParams::default(), cands.clone());
            counter.count_all(&txs, &filter);
            prop_assert_eq!(
                counter.count_vector(), want.clone(), "backend {}", backend.name()
            );
            for (c, w) in cands.iter().zip(&want) {
                prop_assert_eq!(counter.count_of(c), Some(*w), "{}", c);
            }
            levels.push(counter.frequent(min_count));
        }
        for (backend, level) in CounterBackend::ALL.iter().zip(&levels).skip(1) {
            prop_assert_eq!(
                &levels[0], level, "frequent levels diverge on {}", backend.name()
            );
        }
    }

    /// Under a first-item partition, each part's filtered count is exact
    /// on both backends, and the union of frequent levels across parts
    /// equals the serial (unpartitioned) frequent level.
    #[test]
    fn backends_equal_brute_force_partitioned(
        raw_cands in prop::collection::vec(arb_candidate(16, 2), 1..30),
        raw_txs in prop::collection::vec(arb_transaction(16, 8), 0..30),
        procs in 2usize..5,
        min_count in 1u64..3,
    ) {
        let cands = to_itemsets(&raw_cands);
        let txs = to_transactions(&raw_txs);
        let part = partition_by_first_item(&cands, 16, &vec![1.0; procs]);
        let mut serial = CounterBackend::HashTree.build(2, HashTreeParams::default(), cands.clone());
        serial.count_all(&txs, &OwnershipFilter::all());
        let mut want_union = serial.frequent(min_count);
        want_union.sort();
        let mut unions = Vec::new();
        for backend in CounterBackend::ALL {
            let mut union = Vec::new();
            for (mine, filter) in part.parts.iter().zip(&part.filters) {
                let mut counter = backend.build(2, HashTreeParams::default(), mine.clone());
                counter.count_all(&txs, filter);
                let want = brute_force(mine, &txs, filter);
                prop_assert_eq!(
                    counter.count_vector(), want, "backend {}", backend.name()
                );
                union.extend(counter.frequent(min_count));
            }
            union.sort();
            prop_assert_eq!(&union, &want_union, "backend {}", backend.name());
            unions.push(union);
        }
        for (backend, union) in CounterBackend::ALL.iter().zip(&unions).skip(1) {
            prop_assert_eq!(&unions[0], union, "union diverges on {}", backend.name());
        }
    }
}

/// The ownership filter a pair-table case counts under: `all` (mode 0),
/// `first_item` (mode 1) or `two_level` (mode 2). A pair code `x` owns
/// `(x / 12, x % 12)`.
fn filter_for(mode: u8, owned: &[u32], pair_codes: &[u32]) -> OwnershipFilter {
    let owned = ItemBitmap::from_items(16, owned.iter().map(|&i| Item(i)));
    match mode {
        0 => OwnershipFilter::all(),
        1 => OwnershipFilter::first_item(owned),
        _ => OwnershipFilter::two_level(
            owned,
            pair_codes
                .iter()
                .map(|&x| (Item(x / 12), Item(x % 12)))
                .collect::<HashSet<_>>(),
        ),
    }
}

/// Counts `txs` on the trie as [`CandidateTrie::build`] picks it and on
/// the forced lockstep walk, and checks that both give the same counts,
/// the same full ledger, and the brute-force counts. Returns whether the
/// pair table counted.
fn table_matches_walk(cands: &[ItemSet], txs: &[Transaction], filter: &OwnershipFilter) -> bool {
    // A duplicate candidate still costs one insert on either path.
    let mut input = cands.to_vec();
    input.extend(cands.first().cloned());
    let mut auto = CandidateTrie::build(2, input.clone());
    let mut walk = CandidateTrie::build_walk(2, input);
    assert!(!walk.uses_pair_table());
    auto.count_all(txs, filter);
    walk.count_all(txs, filter);
    assert_eq!(auto.count_vector(), walk.count_vector());
    assert_eq!(auto.stats(), walk.stats());
    assert_eq!(auto.count_vector(), brute_force(cands, txs, filter));
    if auto.uses_pair_table() {
        assert_eq!(auto.num_nodes(), 0);
    }
    auto.uses_pair_table()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The trie's k = 2 pair table counts exactly what the lockstep walk
    /// counts and charges the identical `CounterStats`, under all three
    /// filter modes. Candidates are pairs over items below 12: the chain
    /// `held[i], held[i + 1]` and the pairs of `held[0]` always, the rest
    /// at random, which keeps the table within its memory bound.
    /// Transactions reach up to 16, so they carry items outside the
    /// table, and fixed cases add an empty transaction, a one-item
    /// transaction, and one whose last item starts a candidate.
    #[test]
    fn trie_pair_table_matches_walk(
        held in prop::collection::btree_set(0u32..12, 4..=12),
        keep in prop::collection::vec(0u8..2, 66),
        raw_txs in prop::collection::vec(arb_transaction(16, 10), 0..40),
        mode in 0u8..3,
        owned in prop::collection::vec(0u32..12, 0..12),
        pair_codes in prop::collection::vec(0u32..144, 0..24),
    ) {
        let held: Vec<u32> = held.iter().copied().collect();
        let mut raw_cands = Vec::new();
        let mut coin = keep.iter();
        for (i, &a) in held.iter().enumerate() {
            for (j, &b) in held.iter().enumerate().skip(i + 1) {
                if i == 0 || j == i + 1 || coin.next() == Some(&1) {
                    raw_cands.push(vec![a, b]);
                }
            }
        }
        let cands = to_itemsets(&raw_cands);
        let last_start = cands.iter().map(|c| c.items()[0].id()).max().unwrap();
        let mut all_txs = raw_txs.clone();
        all_txs.push(Vec::new());
        all_txs.push(vec![held[0]]);
        all_txs.push(held.iter().copied().filter(|&i| i <= last_start).collect());
        let txs = to_transactions(&all_txs);
        let filter = filter_for(mode, &owned, &pair_codes);
        prop_assert!(table_matches_walk(&cands, &txs, &filter), "pair table not used");
    }

    /// A sparse candidate set partitioned by first item (IDD's packing)
    /// spans far more pairs than each part holds, so parts break the
    /// table's memory bound and fall back to the walk — with the same
    /// counts and ledger as the forced walk, and the brute-force counts.
    #[test]
    fn trie_pair_table_fallback_matches_walk(
        raw_cands in prop::collection::vec(arb_candidate(200, 2), 100..300),
        raw_txs in prop::collection::vec(arb_transaction(200, 40), 0..30),
        procs in 2usize..5,
    ) {
        let cands = to_itemsets(&raw_cands);
        let txs = to_transactions(&raw_txs);
        let part = partition_by_first_item(&cands, 200, &vec![1.0; procs]);
        let fallbacks = part
            .parts
            .iter()
            .zip(&part.filters)
            .filter(|(mine, filter)| !table_matches_walk(mine, &txs, filter))
            .count();
        prop_assert!(fallbacks > 0, "no part fell back to the walk");
    }
}

/// Every parallel formulation mines the identical frequent itemsets — and
/// therefore identical association rules — whichever counting backend the
/// [`ParallelParams::counter`] knob selects, on both the simulated and the
/// native (wall-clock) execution backend.
#[test]
fn all_formulations_agree_across_backends() {
    let dataset = QuestParams::paper_t15_i6()
        .num_transactions(300)
        .num_items(80)
        .num_patterns(30)
        .seed(515)
        .generate();
    let algorithms = [
        Algorithm::Cd,
        Algorithm::Npa,
        Algorithm::Dd,
        Algorithm::DdComm,
        Algorithm::Idd,
        Algorithm::IddSingleSource,
        Algorithm::Hd { group_threshold: 8 },
        Algorithm::Hpa { eld_permille: 100 },
        Algorithm::Pdm {
            buckets: 1 << 10,
            filter_passes: 1,
        },
    ];
    for exec in [ExecBackend::Sim, ExecBackend::Native] {
        let miner = ParallelMiner::new(4).backend(exec);
        for algorithm in algorithms {
            let run = |backend| {
                let params = ParallelParams::with_min_support_count(9)
                    .page_size(40)
                    .max_k(4)
                    .counter(backend);
                miner.mine(algorithm, &dataset, &params)
            };
            let levels = |r: &armine::parallel::ParallelRun| -> Vec<(ItemSet, u64)> {
                r.frequent.iter().map(|(s, c)| (s.clone(), c)).collect()
            };
            let tree = run(CounterBackend::HashTree);
            for counter in [CounterBackend::Trie, CounterBackend::Vertical] {
                let other = run(counter);
                assert_eq!(
                    levels(&tree),
                    levels(&other),
                    "{algorithm:?} lattice ({exec:?}, {})",
                    counter.name()
                );
                assert_eq!(
                    generate_rules(&tree.frequent, 0.7),
                    generate_rules(&other.frequent, 0.7),
                    "{algorithm:?} rules ({exec:?}, {})",
                    counter.name()
                );
            }
        }
    }
}
