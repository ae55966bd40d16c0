//! Rule generation against a brute-force oracle: every bipartition of
//! every frequent itemset, with supports counted straight from the
//! transactions.

use armine_core::apriori::{Apriori, AprioriParams};
use armine_core::rules::{generate_rules, rules_for_itemset_counted, Rule};
use armine_core::{Item, ItemSet, Transaction};
use proptest::prelude::*;
use std::collections::HashSet;

/// The `m`-subsets of positions `0..k`, in lexicographic order.
fn combinations(k: usize, m: usize) -> Vec<Vec<usize>> {
    if m == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for first in 0..k {
        for rest in combinations(k - first - 1, m - 1) {
            let mut combo = vec![first];
            combo.extend(rest.iter().map(|r| r + first + 1));
            out.push(combo);
        }
    }
    out
}

/// Every rule of `f` meeting `min_confidence`, by brute force over all
/// non-trivial bipartitions, in generation order: consequent size, then
/// lexicographic consequent. Also returns how many consequents level-wise
/// growth must evaluate: all `k` singletons, then each `m`-subset whose
/// `(m−1)`-subsets all cleared the bar.
fn oracle(txs: &[Transaction], f: &ItemSet, min_confidence: f64) -> (Vec<Rule>, u64) {
    let sigma = |s: &ItemSet| txs.iter().filter(|t| t.contains_set(s)).count() as u64;
    let n = txs.len().max(1) as f64;
    let items = f.items();
    let k = items.len();
    let count = sigma(f);
    let pick = |positions: &mut dyn Iterator<Item = usize>| {
        ItemSet::from_sorted(positions.map(|p| items[p]).collect())
    };
    let mut passed: HashSet<Vec<usize>> = HashSet::new();
    let mut rules = Vec::new();
    let mut evaluated = 0;
    for m in 1..k {
        for combo in combinations(k, m) {
            let all_subsets_passed = (0..m).all(|drop| {
                let mut subset = combo.clone();
                subset.remove(drop);
                passed.contains(&subset)
            });
            if m == 1 || all_subsets_passed {
                evaluated += 1;
            }
            let consequent = pick(&mut combo.iter().copied());
            let antecedent = pick(&mut (0..k).filter(|p| !combo.contains(p)));
            let antecedent_count = sigma(&antecedent);
            let confidence = count as f64 / antecedent_count as f64;
            if confidence >= min_confidence {
                rules.push(Rule {
                    consequent_support: sigma(&consequent) as f64 / n,
                    antecedent,
                    consequent,
                    support_count: count,
                    support: count as f64 / n,
                    confidence,
                    antecedent_support: antecedent_count as f64 / n,
                });
                passed.insert(combo);
            }
        }
    }
    (rules, evaluated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `generate_rules` and `rules_for_itemset_counted` equal the oracle
    /// rule for rule, in order, with the oracle's evaluated count. Every
    /// case checks confidence 0 (every bipartition), confidence 1 (exact
    /// implications only) and one bar in between; `max_k` 2 gives
    /// lattices whose only rule-bearing itemsets are pairs.
    #[test]
    fn rules_equal_the_bipartition_oracle(
        raw_txs in prop::collection::vec(prop::collection::btree_set(0u32..8, 0..=6), 1..30),
        min_count in 1u64..4,
        max_k in 2usize..6,
        step in 1u32..20,
    ) {
        let txs: Vec<Transaction> = raw_txs
            .iter()
            .enumerate()
            .map(|(tid, ids)| Transaction::new(tid as u64, ids.iter().map(|&i| Item(i)).collect()))
            .collect();
        let params = AprioriParams::with_min_support_count(min_count).max_k(max_k);
        let run = Apriori::new(params).mine(&txs);
        for min_confidence in [0.0, 1.0, f64::from(step) / 20.0] {
            let mut want = Vec::new();
            for size in 2..=run.frequent.max_len() {
                for (f, _) in run.frequent.level(size) {
                    let (rules, evaluated) = oracle(&txs, f, min_confidence);
                    let got = rules_for_itemset_counted(&run.frequent, f, min_confidence);
                    prop_assert_eq!(&got.0, &rules, "itemset {} at {}", f, min_confidence);
                    prop_assert_eq!(got.1, evaluated, "itemset {} at {}", f, min_confidence);
                    want.extend(rules);
                }
            }
            prop_assert_eq!(generate_rules(&run.frequent, min_confidence), want);
        }
    }
}
