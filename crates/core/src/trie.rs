//! A prefix trie over candidate itemsets — the main alternative to the
//! paper's candidate hash tree.
//!
//! Later Apriori implementations (Borgelt's, Bodon's) replaced the hash
//! tree with an item-indexed trie: every path from the root spells a
//! candidate prefix, depth-`k` nodes carry the counts, and counting walks
//! the trie and the (sorted) transaction in lockstep. Compared to the
//! hash tree there is no hashing, no leaf checking against the whole
//! transaction, and no revisit bookkeeping — each candidate contained in
//! the transaction is reached by exactly one path.
//!
//! The trie is a full [`CandidateCounter`](crate::counter::CandidateCounter)
//! backend: it honors the [`OwnershipFilter`]'s root and second-level
//! pruning (so IDD/HD partitioned counting works unchanged) and keeps the
//! same six-field work ledger as the hash tree, mapping child descents to
//! `traversal_steps` and depth-`k` node arrivals to
//! `distinct_leaf_visits` so the virtual-time model can charge either
//! structure through one expression.
//!
//! # The k = 2 pair table
//!
//! Pass 2 holds the largest candidate set, and its root children carry
//! child lists as long as the frequent-item count, so the lockstep walk
//! spends most of pass 2 stepping over items the transaction lacks. At
//! `k = 2` the trie therefore builds no nodes and counts through a pair
//! table instead: each item in the held candidates gets a dense rank
//! (ascending with the item id), and a triangular `Vec<u32>` maps every
//! rank pair `(a, b)`, `a < b`, to its candidate index or to a sentinel.
//! Only ranks that start a candidate get a row. Counting a transaction
//! looks up each pair of its ranked items in O(1).
//!
//! The table is built only while both the slot array and the item-to-rank
//! map stay within `PAIR_TABLE_ENTRIES_PER_CANDIDATE` (4) entries per held
//! candidate. Serial and CD hold all of C₂, whose table is about `|C₂|`
//! slots; a partitioned set whose items span far more pairs than it holds
//! keeps the walk, as does every `k ≠ 2`.
//!
//! The work ledger does not move: the table charges exactly what the walk
//! would. A transaction item that starts a candidate, is not the
//! transaction's last item and passes `allows_root` is one `root_starts`
//! and one `traversal_steps`; each contained candidate pair that passes
//! `allows_second` is one `traversal_steps`, one `distinct_leaf_visits`
//! and one `candidate_checks`. The filter is consulted only on those hits,
//! as in the walk, so the virtual-time charges and partitioned counting
//! are identical on either path.

use crate::counter::CounterStats;
use crate::hashtree::OwnershipFilter;
use crate::item::Item;
use crate::itemset::ItemSet;
use crate::transaction::Transaction;

/// The most entries a k = 2 pair table may spend per held candidate, in
/// its slot array and in its item-to-rank map each. Past this the trie
/// keeps the walk.
const PAIR_TABLE_ENTRIES_PER_CANDIDATE: usize = 4;

/// Sentinel for "no rank", "no row" and "no candidate" in the pair table.
const NONE: u32 = u32::MAX;

/// Arena-allocated trie node: sorted child list + optional candidate slot.
#[derive(Debug, Default, Clone)]
struct TrieNode {
    /// `(item, child index)`, ascending by item.
    children: Vec<(Item, u32)>,
    /// Index into the candidate arena when a candidate *ends* here.
    candidate: Option<u32>,
}

/// How the trie finds the candidates a transaction contains.
#[derive(Debug, Clone)]
enum Index {
    /// Prefix-trie nodes, counted by the lockstep walk.
    Walk(Vec<TrieNode>),
    /// The k = 2 pair table.
    Pairs(PairTable),
}

/// A counting trie for candidates of a fixed size `k`.
///
/// ```
/// use armine_core::trie::CandidateTrie;
/// use armine_core::hashtree::OwnershipFilter;
/// use armine_core::{ItemSet, Transaction, Item};
///
/// let mut trie = CandidateTrie::build(2, vec![ItemSet::from([1, 3])]);
/// trie.count(
///     &Transaction::new(1, vec![Item(1), Item(2), Item(3)]),
///     &OwnershipFilter::all(),
/// );
/// assert_eq!(trie.count_of(&ItemSet::from([1, 3])), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct CandidateTrie {
    k: usize,
    index: Index,
    candidates: Vec<(ItemSet, u64)>,
    stats: CounterStats,
}

impl CandidateTrie {
    /// Builds a trie over size-`k` candidates. At `k = 2` it counts
    /// through the pair table when that fits its memory bound (see the
    /// module docs), and by the lockstep walk otherwise.
    ///
    /// # Panics
    /// If any candidate's size differs from `k`, or `k == 0`.
    pub fn build(k: usize, candidates: Vec<ItemSet>) -> Self {
        match PairTable::for_candidates(k, &candidates) {
            Some(table) => Self::fill(k, Index::Pairs(table), candidates),
            None => Self::build_walk(k, candidates),
        }
    }

    /// Builds a trie that always counts by the lockstep walk, even where
    /// [`build`](Self::build) would use the pair table: the reference the
    /// table is checked against.
    ///
    /// # Panics
    /// If any candidate's size differs from `k`, or `k == 0`.
    pub fn build_walk(k: usize, candidates: Vec<ItemSet>) -> Self {
        Self::fill(k, Index::Walk(vec![TrieNode::default()]), candidates)
    }

    fn fill(k: usize, index: Index, candidates: Vec<ItemSet>) -> Self {
        assert!(k >= 1, "candidate size must be at least 1");
        let mut trie = CandidateTrie {
            k,
            index,
            candidates: Vec::with_capacity(candidates.len()),
            stats: CounterStats::default(),
        };
        for set in candidates {
            assert_eq!(set.len(), k, "candidate {set} has wrong size for k={k}");
            trie.insert(set);
        }
        trie
    }

    fn insert(&mut self, set: ItemSet) {
        self.stats.inserts += 1;
        let next = self.candidates.len() as u32;
        let slot = match &mut self.index {
            Index::Walk(nodes) => {
                let leaf = insert_path(nodes, &set);
                nodes[leaf].candidate.get_or_insert(next)
            }
            Index::Pairs(table) => {
                let slot = table.slot_mut(&set);
                if *slot == NONE {
                    *slot = next;
                }
                slot
            }
        };
        if *slot == next {
            self.candidates.push((set, 0));
        }
    }

    /// The candidate size this trie was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of candidates stored.
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Number of trie nodes (diagnostics); zero when the pair table
    /// counts.
    pub fn num_nodes(&self) -> usize {
        match &self.index {
            Index::Walk(nodes) => nodes.len(),
            Index::Pairs(_) => 0,
        }
    }

    /// Whether this trie counts through the k = 2 pair table.
    pub fn uses_pair_table(&self) -> bool {
        matches!(self.index, Index::Pairs(_))
    }

    /// Counts the candidates contained in one transaction: a lockstep walk
    /// of the trie and the sorted item list — each contained candidate is
    /// visited exactly once — or, at `k = 2`, pair-table lookups that
    /// charge the same ledger. The filter prunes first items at the root
    /// and (first, second) pairs at depth 1, exactly like the hash tree's
    /// `subset`.
    pub fn count(&mut self, t: &Transaction, filter: &OwnershipFilter) {
        if self.candidates.is_empty() {
            return;
        }
        self.stats.transactions += 1;
        let items = t.items();
        if items.len() < self.k {
            return;
        }
        match &mut self.index {
            Index::Walk(nodes) => {
                let mut walker = Walker {
                    nodes: nodes.as_slice(),
                    counts: &mut self.candidates,
                    stats: &mut self.stats,
                    filter,
                };
                walker.walk(0, items, self.k, 0, Item(0));
            }
            Index::Pairs(table) => {
                table.count(items, &mut self.candidates, &mut self.stats, filter)
            }
        }
    }
    /// Counts a whole batch under one filter.
    pub fn count_all(&mut self, transactions: &[Transaction], filter: &OwnershipFilter) {
        for t in transactions {
            self.count(t, filter);
        }
    }

    /// The accumulated count for `set`, or `None` if never inserted.
    pub fn count_of(&self, set: &ItemSet) -> Option<u64> {
        self.candidates
            .iter()
            .find(|(s, _)| s == set)
            .map(|&(_, c)| c)
    }

    /// `(candidate, count)` pairs in insertion order.
    pub fn counts(&self) -> impl Iterator<Item = (&ItemSet, u64)> + '_ {
        self.candidates.iter().map(|(s, c)| (s, *c))
    }

    /// Per-candidate counts in insertion order.
    pub fn count_vector(&self) -> Vec<u64> {
        self.candidates.iter().map(|&(_, c)| c).collect()
    }

    /// Overwrites the per-candidate counts (after a global reduction).
    ///
    /// # Panics
    /// If the length differs from [`num_candidates`](Self::num_candidates).
    pub fn set_count_vector(&mut self, counts: &[u64]) {
        assert_eq!(
            counts.len(),
            self.candidates.len(),
            "count vector length mismatch"
        );
        for (slot, &c) in self.candidates.iter_mut().zip(counts) {
            slot.1 = c;
        }
    }

    /// Candidates with `count >= min_count`, insertion order.
    pub fn frequent(&self, min_count: u64) -> Vec<(ItemSet, u64)> {
        self.candidates
            .iter()
            .filter(|&&(_, c)| c >= min_count)
            .cloned()
            .collect()
    }

    /// The accumulated work counters.
    pub fn stats(&self) -> &CounterStats {
        &self.stats
    }

    /// Zeroes the work counters (candidate counts are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CounterStats::default();
    }

    /// Logical bytes the stored candidates occupy on the wire — the same
    /// `|C| · (4k + 8)` accounting as the hash tree, since both ship the
    /// identical candidate list.
    pub fn wire_size(&self) -> usize {
        self.candidates.len() * (4 * self.k + 8)
    }
}

/// Descends `set`'s path from the root, creating missing nodes, and
/// returns the index of its last node.
fn insert_path(nodes: &mut Vec<TrieNode>, set: &ItemSet) -> usize {
    let mut node = 0usize;
    for &item in set.items() {
        let pos = nodes[node]
            .children
            .binary_search_by_key(&item, |&(i, _)| i);
        node = match pos {
            Ok(p) => nodes[node].children[p].1 as usize,
            Err(p) => {
                let fresh = nodes.len();
                nodes.push(TrieNode::default());
                nodes[node].children.insert(p, (item, fresh as u32));
                fresh
            }
        };
    }
    node
}

/// The k = 2 pair table (see the module docs).
#[derive(Debug, Clone)]
struct PairTable {
    /// Dense rank of each item id that occurs in a candidate, else `NONE`.
    rank: Vec<u32>,
    /// Per rank: the start of its row in `slots`, or `NONE` if no
    /// candidate starts with that rank.
    row: Vec<u32>,
    /// Row `a` holds one slot per rank `b > a`, at offset `b - a - 1`: the
    /// index of candidate `(a, b)`, or `NONE`.
    slots: Vec<u32>,
    /// Per-transaction scratch: `(rank, item)` of its ranked items.
    ranked: Vec<(u32, Item)>,
}

impl PairTable {
    /// Sizes an empty table for `candidates`, or returns `None` when
    /// `k != 2`, a candidate is not a pair (the walk's build reports it),
    /// there are no candidates, or the table would break the memory bound.
    /// Slots are filled by [`slot_mut`](Self::slot_mut).
    fn for_candidates(k: usize, candidates: &[ItemSet]) -> Option<PairTable> {
        if k != 2 || candidates.iter().any(|set| set.len() != 2) {
            return None;
        }
        let budget = PAIR_TABLE_ENTRIES_PER_CANDIDATE * candidates.len();
        let max_item = candidates.iter().flat_map(ItemSet::items).max()?;
        let span = max_item.id() as usize + 1;
        if span > budget {
            return None;
        }
        let mut rank = vec![NONE; span];
        for &item in candidates.iter().flat_map(ItemSet::items) {
            rank[item.id() as usize] = 0;
        }
        let mut n = 0u32;
        for r in rank.iter_mut().filter(|r| **r != NONE) {
            *r = n;
            n += 1;
        }
        let mut row = vec![NONE; n as usize];
        for set in candidates {
            row[rank[set.items()[0].id() as usize] as usize] = 0;
        }
        let mut len = 0usize;
        for (a, start) in row.iter_mut().enumerate() {
            if *start != NONE {
                *start = len as u32;
                len += n as usize - a - 1;
            }
        }
        if len > budget {
            return None;
        }
        Some(PairTable {
            rank,
            row,
            slots: vec![NONE; len],
            ranked: Vec::new(),
        })
    }

    /// The slot of candidate pair `set`, which must have been sized in.
    fn slot_mut(&mut self, set: &ItemSet) -> &mut u32 {
        let items = set.items();
        let a = self.rank[items[0].id() as usize];
        let b = self.rank[items[1].id() as usize];
        let start = self.row[a as usize] as usize;
        &mut self.slots[start + (b - a - 1) as usize]
    }

    /// Counts the candidate pairs in one transaction of at least two
    /// items, charging `stats` exactly as the lockstep walk would.
    fn count(
        &mut self,
        items: &[Item],
        counts: &mut [(ItemSet, u64)],
        stats: &mut CounterStats,
        filter: &OwnershipFilter,
    ) {
        let rank = &self.rank;
        self.ranked.clear();
        self.ranked.extend(items.iter().filter_map(|&item| {
            let r = *rank.get(item.id() as usize)?;
            (r != NONE).then_some((r, item))
        }));
        let ranked = &self.ranked;
        // The walk never starts a candidate at the transaction's last item.
        let roots =
            ranked.len() - usize::from(ranked.last().map(|&(_, i)| i) == items.last().copied());
        let mut hits = 0u64;
        for (at, &(a, first)) in ranked[..roots].iter().enumerate() {
            let start = self.row[a as usize];
            if start == NONE || !filter.allows_root(first) {
                continue;
            }
            stats.root_starts += 1;
            stats.traversal_steps += 1;
            let row = &self.slots[start as usize..];
            for &(b, second) in &ranked[at + 1..] {
                let c = row[(b - a - 1) as usize];
                if c != NONE && filter.allows_second(first, second) {
                    hits += 1;
                    counts[c as usize].1 += 1;
                }
            }
        }
        stats.traversal_steps += hits;
        stats.distinct_leaf_visits += hits;
        stats.candidate_checks += hits;
    }
}

/// The recursive lockstep walk, split out so the node arena is borrowed
/// shared while counts and stats are borrowed mutably (the old method
/// recursion had to clone every child list to appease the borrow
/// checker).
struct Walker<'a> {
    nodes: &'a [TrieNode],
    counts: &'a mut [(ItemSet, u64)],
    stats: &'a mut CounterStats,
    filter: &'a OwnershipFilter,
}

impl Walker<'_> {
    fn walk(&mut self, node: u32, suffix: &[Item], remaining: usize, depth: usize, first: Item) {
        let nodes = self.nodes;
        if remaining == 0 {
            // A depth-k arrival: the trie's analogue of a distinct leaf
            // visit (paths are unique, so it is distinct by construction).
            self.stats.distinct_leaf_visits += 1;
            if let Some(c) = nodes[node as usize].candidate {
                self.stats.candidate_checks += 1;
                self.counts[c as usize].1 += 1;
            }
            return;
        }
        if suffix.len() < remaining {
            return;
        }
        // Merge-intersect the child list with the transaction suffix.
        let children = &nodes[node as usize].children;
        let (mut ci, mut si) = (0usize, 0usize);
        while ci < children.len() && si + remaining <= suffix.len() {
            let (item, child) = children[ci];
            match item.cmp(&suffix[si]) {
                std::cmp::Ordering::Less => ci += 1,
                std::cmp::Ordering::Greater => si += 1,
                std::cmp::Ordering::Equal => {
                    let allowed = match depth {
                        0 => self.filter.allows_root(item),
                        1 => self.filter.allows_second(first, item),
                        _ => true,
                    };
                    if allowed {
                        if depth == 0 {
                            self.stats.root_starts += 1;
                        }
                        self.stats.traversal_steps += 1;
                        let start = if depth == 0 { item } else { first };
                        self.walk(child, &suffix[si + 1..], remaining - 1, depth + 1, start);
                    }
                    ci += 1;
                    si += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::ItemBitmap;
    use crate::hashtree::{HashTree, HashTreeParams};
    use rand::prelude::*;
    use std::collections::HashSet;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from(ids)
    }

    fn tx(tid: u64, ids: &[u32]) -> Transaction {
        Transaction::new(tid, ids.iter().map(|&i| Item(i)).collect())
    }

    const ALL: fn() -> OwnershipFilter = OwnershipFilter::all;

    #[test]
    fn counts_paper_example() {
        let cands = vec![
            set(&[1, 2, 5]),
            set(&[1, 3, 6]),
            set(&[3, 5, 6]),
            set(&[1, 4, 5]),
        ];
        let mut trie = CandidateTrie::build(3, cands);
        trie.count(&tx(0, &[1, 2, 3, 5, 6]), &ALL());
        assert_eq!(trie.count_of(&set(&[1, 2, 5])), Some(1));
        assert_eq!(trie.count_of(&set(&[1, 3, 6])), Some(1));
        assert_eq!(trie.count_of(&set(&[3, 5, 6])), Some(1));
        assert_eq!(trie.count_of(&set(&[1, 4, 5])), Some(0));
        assert_eq!(trie.count_of(&set(&[9, 9, 9])), None);
    }

    #[test]
    fn equivalent_to_hash_tree_on_random_data() {
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..10 {
            let k = 2 + trial % 3;
            let mut cands: Vec<ItemSet> = (0..120)
                .map(|_| {
                    let mut ids: Vec<u32> = (0..25).collect();
                    ids.shuffle(&mut rng);
                    set(&ids[..k])
                })
                .collect();
            cands.sort();
            cands.dedup();
            let txs: Vec<Transaction> = (0..80)
                .map(|tid| {
                    let len = rng.gen_range(0..=12);
                    let mut ids: Vec<u32> = (0..25).collect();
                    ids.shuffle(&mut rng);
                    tx(tid, &ids[..len])
                })
                .collect();
            let mut trie = CandidateTrie::build(k, cands.clone());
            trie.count_all(&txs, &ALL());
            let mut tree = HashTree::build(k, HashTreeParams::default(), cands.clone());
            tree.count_all(&txs, &ALL());
            for c in &cands {
                assert_eq!(trie.count_of(c), tree.count_of(c), "candidate {c}");
            }
        }
    }

    #[test]
    fn first_item_filter_prunes_roots() {
        let cands = vec![set(&[1, 2]), set(&[3, 4]), set(&[5, 6])];
        let mut trie = CandidateTrie::build(2, cands);
        // Own only first item 3: candidates starting at 1 or 5 must not
        // be counted even though the transaction contains them.
        let filter = OwnershipFilter::first_item(ItemBitmap::from_items(10, [Item(3)]));
        trie.count(&tx(0, &[1, 2, 3, 4, 5, 6]), &filter);
        assert_eq!(trie.count_of(&set(&[1, 2])), Some(0));
        assert_eq!(trie.count_of(&set(&[3, 4])), Some(1));
        assert_eq!(trie.count_of(&set(&[5, 6])), Some(0));
        // Exactly one root start survived the bitmap.
        assert_eq!(trie.stats().root_starts, 1);
    }

    #[test]
    fn two_level_filter_prunes_second_items() {
        let cands = vec![set(&[4, 5, 8]), set(&[4, 6, 8]), set(&[1, 2, 3])];
        let mut trie = CandidateTrie::build(3, cands);
        // Item 1 owned outright; item 4 split, owning only the (4, 5) pair.
        let owned_first = ItemBitmap::from_items(10, [Item(1)]);
        let pairs: HashSet<(Item, Item)> = [(Item(4), Item(5))].into_iter().collect();
        let filter = OwnershipFilter::two_level(owned_first, pairs);
        trie.count(&tx(0, &[1, 2, 3, 4, 5, 6, 8]), &filter);
        assert_eq!(trie.count_of(&set(&[1, 2, 3])), Some(1));
        assert_eq!(trie.count_of(&set(&[4, 5, 8])), Some(1));
        assert_eq!(trie.count_of(&set(&[4, 6, 8])), Some(0));
    }

    #[test]
    fn stats_ledger_accrues_and_resets() {
        let mut trie = CandidateTrie::build(2, vec![set(&[1, 2]), set(&[1, 3])]);
        assert_eq!(trie.stats().inserts, 2);
        trie.count(&tx(0, &[1, 2, 3]), &ALL());
        trie.count(&tx(1, &[9]), &ALL()); // short: counted as a transaction only
        let s = *trie.stats();
        assert_eq!(s.transactions, 2);
        assert_eq!(s.root_starts, 1); // single descent from the root via item 1
        assert_eq!(s.distinct_leaf_visits, 2); // {1,2} and {1,3} both reached
        assert_eq!(s.candidate_checks, 2);
        assert!(s.traversal_steps >= 3); // 1→2, 1→3 plus the root descent
        trie.reset_stats();
        assert_eq!(*trie.stats(), CounterStats::default());
        // Counts survive a stats reset.
        assert_eq!(trie.count_of(&set(&[1, 2])), Some(1));
    }

    #[test]
    fn empty_trie_counts_no_transactions() {
        let mut trie = CandidateTrie::build(2, Vec::new());
        trie.count(&tx(0, &[1, 2, 3]), &ALL());
        assert_eq!(trie.stats().transactions, 0);
    }

    #[test]
    fn count_vector_round_trips() {
        let mut trie = CandidateTrie::build(2, vec![set(&[1, 2]), set(&[2, 3])]);
        trie.count_all(&[tx(0, &[1, 2]), tx(1, &[1, 2, 3])], &ALL());
        assert_eq!(trie.count_vector(), vec![2, 1]);
        trie.set_count_vector(&[7, 9]);
        assert_eq!(trie.count_of(&set(&[1, 2])), Some(7));
        assert_eq!(trie.count_of(&set(&[2, 3])), Some(9));
    }

    #[test]
    #[should_panic(expected = "count vector length mismatch")]
    fn count_vector_arity_checked() {
        let mut trie = CandidateTrie::build(2, vec![set(&[1, 2])]);
        trie.set_count_vector(&[1, 2]);
    }

    #[test]
    fn wire_size_matches_hash_tree() {
        let cands = vec![set(&[1, 2, 3]), set(&[1, 2, 4])];
        let trie = CandidateTrie::build(3, cands.clone());
        let tree = HashTree::build(3, HashTreeParams::default(), cands);
        assert_eq!(trie.wire_size(), tree.wire_size());
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut trie = CandidateTrie::build(2, vec![set(&[1, 2]), set(&[1, 2])]);
        assert_eq!(trie.num_candidates(), 1);
        trie.count(&tx(0, &[1, 2, 3]), &ALL());
        assert_eq!(trie.count_of(&set(&[1, 2])), Some(1));
    }

    #[test]
    fn frequent_filters() {
        let mut trie = CandidateTrie::build(1, vec![set(&[3]), set(&[7])]);
        trie.count_all(&[tx(0, &[3]), tx(1, &[3, 7]), tx(2, &[3])], &ALL());
        assert_eq!(trie.frequent(3), vec![(set(&[3]), 3)]);
        assert_eq!(trie.frequent(1).len(), 2);
    }

    #[test]
    fn short_transactions_skipped() {
        let mut trie = CandidateTrie::build(3, vec![set(&[1, 2, 3])]);
        trie.count(&tx(0, &[1, 2]), &ALL());
        assert_eq!(trie.count_of(&set(&[1, 2, 3])), Some(0));
    }

    #[test]
    fn pair_table_respects_memory_bound() {
        // Two candidates spanning 100 item ids: the rank map alone would
        // exceed four entries per candidate, so the walk counts.
        let trie = CandidateTrie::build(2, vec![set(&[0, 50]), set(&[1, 99])]);
        assert!(!trie.uses_pair_table());
        assert!(!CandidateTrie::build(3, vec![set(&[0, 1, 2])]).uses_pair_table());
    }

    #[test]
    fn node_sharing_compresses_prefixes() {
        // {1,2,3} and {1,2,4} share the 1→2 path: 1 root + 2 shared + 2
        // leaves = 5 nodes.
        let trie = CandidateTrie::build(3, vec![set(&[1, 2, 3]), set(&[1, 2, 4])]);
        assert_eq!(trie.num_nodes(), 5);
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn arity_checked() {
        CandidateTrie::build(3, vec![set(&[1, 2])]);
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn pair_arity_checked() {
        CandidateTrie::build(2, vec![set(&[1, 2]), set(&[3])]);
    }
}
