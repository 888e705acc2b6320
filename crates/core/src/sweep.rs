//! Partition-parallel candidate gain sweep.
//!
//! The legacy candidate pipeline of [`crate::miner`] stages the work the
//! way the paper's MapReduce/Spark jobs do: emit one `(rule, aggregate)`
//! pair per (sample tuple, data tuple) LCA, shuffle, expand ancestors in
//! one stage per column group, shuffle again, then adjust and score. That
//! reproduces the platform economics of Chapter 3, but on a single machine
//! every shuffle is pure overhead: the same numbers fall out of **one scan
//! over the partitioned data** that folds every tuple's contributions into
//! per-partition `(Σm, Σm̂, pairs)` accumulators for *all* live candidates
//! at once — the group-by-style aggregation El Gebaly et al.'s explanation
//! tables use to stay competitive.
//!
//! [`sweep_gains`] is the one entry point. It runs two shuffle-free,
//! partition-parallel stages on the [`sirum_dataflow::Engine`] thread pool
//! ([`Dataset::aggregate_partitions`]) over the columnar dataset (one
//! [`TupleBlock`] per partition):
//!
//! 1. **Combine** — each data partition folds its `(sample tuple, data
//!    tuple)` LCAs into a local `LCA → (Σm, Σm̂, pairs)` map; the maps are
//!    merged in partition order into the globally distinct LCA frontier;
//! 2. **Expand** — the frontier is split over the same number of
//!    partitions and each task expands its LCAs' cube lattices once,
//!    folding the combined aggregates into every ancestor; the candidate
//!    maps are again merged in partition order.
//!
//! ## Packed rule codes
//!
//! On the hot path rules are interned as dense integer codes
//! ([`crate::rule::RuleLayout`]): each dimension gets a bit-field sized by
//! its dictionary cardinality (wildcard = the reserved all-ones slot), so
//! an LCA key is one `u64`/`u128` instead of a `&[u32]` slice — the
//! combine probe becomes an integer hash plus an integer compare, and
//! ancestor expansion is a couple of ORs per ancestor instead of slice
//! rewrites. When the summed widths exceed 128 bits the sweep runs on
//! `Rule`-keyed maps instead — the only path for such layouts;
//! [`SweepOptions`] picks the key type. Each packed combine partition also
//! chooses **how** to aggregate, from its own shape
//! ([`CombineStrategy::for_partition`], the one home of the rule):
//!
//! - **slot table** — a sample-indexed partition with `2^d ≤ rows` whose
//!   `|s| · 2^d`-entry table a `u32` slot id can span. `lca(s_j, t)` is
//!   determined by which dimensions of sample row `s_j` the tuple matches,
//!   so each `(row, sample)` pair is folded into the accumulator named by
//!   `slot_of[(j << d) | match mask]`: two table lookups, no code built
//!   and nothing hashed after a `(j, mask)`'s first touch
//!   ([`SampleIndex::match_masks_into_cols`] computes the masks);
//! - **hash-probe** — everything else (the full cube, `2^d > rows`):
//!   probe-or-insert into the hash map as the posting-list probe emits
//!   packed codes.
//!
//! The two are bit-identical by construction: emission order is row-major,
//! then sample order, and each distinct code's emissions reach exactly
//! one accumulator — a map entry or one slot — in that order, so its
//! float sums add in the same sequence.
//!
//! Determinism argument (see DESIGN.md "Partition-parallel gain sweep"
//! and "Packed rule codes" for the full version):
//!
//! 1. every partition task is a pure function of its partition's input
//!    (row order within a partition is fixed by the original encoding
//!    order);
//! 2. [`Dataset::aggregate_partitions`] returns task outputs in partition
//!    order regardless of which worker ran which task, and the driver folds
//!    them front-to-back — so each candidate's floating-point sums are
//!    accumulated in exactly the same order for 1 worker or N;
//! 3. the merged stage-1 frontier is sorted into **canonical rule order**
//!    before stage-2 chunking (packed codes are order-isomorphic to
//!    lexicographic `Rule::values` order, so every key representation
//!    sorts identically), and the final candidate list is sorted the same
//!    way — no intermediate hash map's iteration order reaches the output.
//!
//! Hence the sweep's per-candidate sums — and everything derived from them
//! (gains, the selected rule sequence) — are **bit-identical** for any
//! worker count and across the packed/`Rule`-keyed and
//! slot-table/hash-probe variants. A one-worker engine runs every task
//! inline on the calling thread in partition order, so "N workers ≡ 1
//! worker" is the sequential oracle; proptests in
//! `crates/core/tests/properties.rs` pin it across random tables,
//! partition counts and thread counts.
//!
//! Cancellation is polled at every partition boundary and every
//! [`CANCEL_POLL_ROWS`] **work units** inside both stages — a work unit is
//! one LCA fold (or scanned row) in the combine stage and one ancestor
//! fold in the expand stage, so the latency to observe a cancellation is
//! bounded even across stretches that emit nothing (a row whose LCAs all
//! hit existing entries still counts work). A cancelled sweep returns an
//! empty candidate list with [`SweepOutcome::cancelled`] set, and the
//! miner abandons the iteration without selecting from partial sums.

use crate::block::TupleBlock;
use crate::cancel::CancellationToken;
use crate::candidates::{adjust_for_sample, SampleIndex};
use crate::lattice::{packed_live_dims, MAX_EXPAND_BITS};
use crate::rule::{PackedCode, PackedMasks, Rule, RuleLayout, WILDCARD};
use sirum_dataflow::hash::FxHashMap;
use sirum_dataflow::Dataset;

/// Per-candidate aggregate carried by the sweep: `(Σm, Σm̂, pair count)` —
/// the same triple the legacy shuffle pipeline reduces by key.
type Agg = (f64, f64, u64);

/// How many units of work — LCA folds or scanned rows in the combine
/// stage, ancestor folds in the expand stage — a partition task processes
/// between cancellation polls (in addition to the poll at every partition
/// boundary). Counting *folds* rather than emitted pairs bounds the poll
/// latency even through long stretches that emit nothing new.
pub const CANCEL_POLL_ROWS: usize = 4096;

/// How a packed sweep partition folds its `(sample tuple, data tuple)` LCA
/// emissions into one `(Σm, Σm̂, pairs)` entry per distinct rule code. The
/// two strategies are bit-identical (see the module docs), so the choice
/// is purely one of speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineStrategy {
    /// `lca(s_j, t)` is fully determined by *which* dimensions of sample
    /// row `s_j` the tuple matches, so the pair's accumulator is addressed
    /// by the small integer `(j, d-bit match mask)` through a memoised
    /// `|s| · 2^d`-entry slot table — no code is built and nothing is
    /// hashed after a `(j, mask)`'s first touch.
    SlotTable,
    /// Probe-or-insert into an `FxHashMap<code, agg>` as codes are emitted.
    HashProbe,
}

impl CombineStrategy {
    /// The strategy one combine partition of `rows` tuples over `d`
    /// dimensions takes; `sample_rows` is `|s|` when the partition combines
    /// sample LCAs through an inverted index, `None` for the full cube.
    ///
    /// Slot table exactly when there are sample rows to address slots by,
    /// a match mask holds `d` bits (`d ≤ MAX_EXPAND_BITS`), the table
    /// amortises — `2^d ≤ rows`, so its `|s| · 2^d` entries never
    /// outnumber the `(row, sample)` pairs that read them — and a `u32`
    /// slot id spans it. Otherwise hash-probe. The sweep and `explain()`
    /// both ask here, so a plan cannot name a strategy the run does not
    /// take.
    pub fn for_partition(rows: usize, d: usize, sample_rows: Option<usize>) -> CombineStrategy {
        let slot_table = sample_rows.is_some_and(|s| {
            d <= MAX_EXPAND_BITS
                && (1usize << d) <= rows
                && s.checked_mul(1 << d)
                    .is_some_and(|len| u32::try_from(len).is_ok())
        });
        if slot_table {
            CombineStrategy::SlotTable
        } else {
            CombineStrategy::HashProbe
        }
    }
}

impl std::fmt::Display for CombineStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CombineStrategy::SlotTable => "slot-table",
            CombineStrategy::HashProbe => "hash-probe",
        })
    }
}

/// How the sweep keys its hot-path accumulators, chosen once per sweep
/// from the table's dictionary cardinalities (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    layout: Option<RuleLayout>,
    combine: Option<CombineStrategy>,
}

impl SweepOptions {
    /// `Rule`-keyed accumulators (what a packed layout over 128 bits runs
    /// on; tests ask for them directly to cover that path on small tables).
    pub fn rule_keyed() -> SweepOptions {
        SweepOptions::default()
    }

    /// Packed integer codes laid out by `layout`; `Rule`-keyed maps when
    /// the layout does not fit 128 bits.
    pub fn packed(layout: RuleLayout) -> SweepOptions {
        SweepOptions {
            layout: Some(layout),
            combine: None,
        }
    }

    /// Force every combine partition onto one [`CombineStrategy`] instead
    /// of the per-partition choice (the reference switch of the
    /// bit-identity tests; the mining output is identical either way).
    /// Forcing [`CombineStrategy::SlotTable`] waives only the rule's
    /// `2^d ≤ rows` clause: where no table can exist — no sample index, or
    /// one no mask or `u32` slot id can address — the partition probes.
    pub fn with_combine(mut self, strategy: CombineStrategy) -> SweepOptions {
        self.combine = Some(strategy);
        self
    }

    /// The packed code width this sweep will run with (64 or 128), or
    /// `None` when it runs `Rule`-keyed (no layout, or one over 128 bits).
    pub fn packed_bits(&self) -> Option<u32> {
        let layout = self.layout.as_ref()?;
        if layout.fits::<u64>() {
            Some(64)
        } else if layout.fits::<u128>() {
            Some(128)
        } else {
            None
        }
    }
}

/// What one full sweep over the data produces.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Exact per-candidate aggregates over their true support sets:
    /// `(rule, Σm, Σm̂, |support|)`, already adjusted for sample
    /// multiplicity when an index was supplied. Sorted in canonical rule
    /// order (lexicographic on values, wildcards last), which is identical
    /// across every sweep variant. Empty when [`Self::cancelled`].
    pub candidates: Vec<(Rule, f64, f64, u64)>,
    /// Distinct candidate rules seen by the sweep (the rank-limit
    /// denominator of multi-rule selection).
    pub distinct_candidates: u64,
    /// Total (candidate, tuple-contribution) pairs folded — the quantity
    /// the legacy pipeline's ancestor-generation mappers would have
    /// emitted (Fig 5.8).
    pub pairs_emitted: u64,
    /// True when a cancellation token stopped the sweep at a partition
    /// boundary (or an intra-partition poll); `candidates` is empty.
    pub cancelled: bool,
}

#[inline]
fn is_cancelled(cancel: Option<&CancellationToken>) -> bool {
    cancel.is_some_and(CancellationToken::is_cancelled)
}

/// One partition's fold state, generic over the accumulator key (a packed
/// code or a [`Rule`]). Used for both sweep stages — LCA combining over
/// the data and ancestor expansion over the frontier.
struct PartitionSweep<K> {
    map: FxHashMap<K, Agg>,
    /// Ancestor folds performed (the Fig 5.8 "ancestors emitted" quantity,
    /// counted by the expansion stage only).
    pairs: u64,
    /// Work units since the task started — the cancellation poll clock
    /// (never part of the output).
    work: u64,
    cancelled: bool,
}

impl<K: Eq + std::hash::Hash> PartitionSweep<K> {
    fn new() -> Self {
        PartitionSweep {
            map: FxHashMap::default(),
            pairs: 0,
            work: 0,
            cancelled: false,
        }
    }

    /// Pre-sized accumulator: rehashing a tens-of-thousands-entry map
    /// several times while it grows costs a measurable slice of the hot
    /// loop, so tasks seed their maps from a workload-derived hint.
    fn with_capacity(capacity: usize) -> Self {
        PartitionSweep {
            map: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
            pairs: 0,
            work: 0,
            cancelled: false,
        }
    }

    /// Count one unit of work and poll the cancellation token on the
    /// budget boundary. Returns `true` when the task should abandon.
    #[inline]
    fn tick(&mut self, cancel: Option<&CancellationToken>) -> bool {
        self.work += 1;
        if self.work.is_multiple_of(CANCEL_POLL_ROWS as u64) && is_cancelled(cancel) {
            self.cancelled = true;
            return true;
        }
        false
    }

    /// Fold `other` into `self`. Callers merge partitions **in partition
    /// order**, so each candidate's float sums accumulate deterministically.
    fn merge(&mut self, other: PartitionSweep<K>) {
        self.pairs += other.pairs;
        self.work += other.work;
        self.cancelled |= other.cancelled;
        for (key, agg) in other.map {
            match self.map.get_mut(&key) {
                Some(a) => {
                    a.0 += agg.0;
                    a.1 += agg.1;
                    a.2 += agg.2;
                }
                None => {
                    self.map.insert(key, agg);
                }
            }
        }
    }

    /// Probe-or-insert one full aggregate (both stages' hash inner fold:
    /// the combine stage passes `(m, m̂, 1)`, the expand stage the merged
    /// LCA aggregate).
    #[inline]
    fn fold_agg(&mut self, key: K, agg: Agg)
    where
        K: Copy,
    {
        match self.map.get_mut(&key) {
            Some(a) => {
                a.0 += agg.0;
                a.1 += agg.1;
                a.2 += agg.2;
            }
            None => {
                self.map.insert(key, agg);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Packed-code stages
// ---------------------------------------------------------------------------

/// Stage 1, one partition, packed keys: combine every `(sample tuple, data
/// tuple)` LCA (or the packed tuple itself when no index is given — the
/// full-cube strategy) into a partition-local `code → (Σm, Σm̂, pairs)`
/// map. This is the **single pass over the partitioned data**, a pure
/// function of the partition's rows; the LCA probe reads attribute values
/// directly from the shared columns.
fn combine_packed<C: PackedCode>(
    blocks: &[TupleBlock],
    d: usize,
    layout: &RuleLayout,
    masks: &PackedMasks<C>,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
    force: Option<CombineStrategy>,
) -> PartitionSweep<C> {
    let rows: usize = blocks.iter().map(TupleBlock::len).sum();
    let sample_rows = index.map(SampleIndex::len);
    let strategy = match force {
        // A forced slot table must still exist: ask the rule with its
        // amortisation clause waived.
        Some(CombineStrategy::SlotTable) => {
            CombineStrategy::for_partition(usize::MAX, d, sample_rows)
        }
        Some(forced) => forced,
        None => CombineStrategy::for_partition(rows, d, sample_rows),
    };
    if let (CombineStrategy::SlotTable, Some(idx)) = (strategy, index) {
        return combine_slot_table(blocks, d, masks, idx, cancel);
    }
    let mut acc = PartitionSweep::with_capacity(rows);
    if is_cancelled(cancel) {
        acc.cancelled = true;
        return acc;
    }
    let mut scratch: Vec<C> = Vec::new();
    let mut row_buf = Vec::with_capacity(d);
    // All-wild fast path: a (sample, data) pair with no shared constants
    // yields the `(*, …, *)` LCA — usually the most frequent code by far.
    // Its contributions touch no other key, so a register accumulator adds
    // them in exactly the emission order the map entry would have seen
    // (bit-identical), skipping one hash probe per such pair.
    let aw = masks.all_wild();
    let mut wild: Agg = (0.0, 0.0, 0);
    let mut dim_scratch = sirum_table::ColScratch::new();
    for block in blocks {
        let (m_col, mhat_col) = (block.m(), block.mhat());
        let dims = block.dims();
        // Morsel-driven: raw blocks scan as one whole-range morsel (direct
        // column borrows), compressed blocks decode segment-aligned
        // morsels into reusable scratch. The row visit order — and every
        // tick/fold position — is the same for both.
        for (ms, ml) in dims.morsel_bounds() {
            let cols = dims.morsel_cols(ms, ml, &mut dim_scratch);
            for li in 0..ml {
                let i = ms + li;
                match index {
                    Some(idx) => {
                        for &code in idx.packed_lcas_into_cols(masks, &cols, li, &mut scratch) {
                            if acc.tick(cancel) {
                                return acc;
                            }
                            if code == aw {
                                wild.0 += m_col[i];
                                wild.1 += mhat_col[i];
                                wild.2 += 1;
                            } else {
                                acc.fold_agg(code, (m_col[i], mhat_col[i], 1));
                            }
                        }
                    }
                    None => {
                        if acc.tick(cancel) {
                            return acc;
                        }
                        row_buf.clear();
                        row_buf.extend(cols.iter().map(|c| c[li]));
                        let code: C = layout.pack(&row_buf);
                        acc.fold_agg(code, (m_col[i], mhat_col[i], 1));
                    }
                }
            }
        }
    }
    if wild.2 > 0 {
        acc.fold_agg(aw, wild);
    }
    acc
}

/// [`combine_packed`] for a sample-indexed partition on
/// [`CombineStrategy::SlotTable`]: the same scan, the same pair order and
/// the same tick positions, but no code is built and nothing is hashed
/// per pair. `lca(s_j, t)` is determined by which dimensions of `s_j` the
/// tuple matches, so pair `(j, mask)` is folded into
/// `slots[slot_of[(j << d) | mask]]` — one `u32` load and three adds.
///
/// `slot_of` is filled lazily. Only the **first** touch of a `(j, mask)`
/// builds its packed code (the sample row's values on the mask's set
/// bits) and finds-or-creates the code's slot through `slot_by_code`, so
/// two sample rows that agree on the mask's dimensions share one slot:
/// each distinct code has exactly one accumulator, which receives its
/// contributions in emission order (row-major, then sample order) with
/// the first one stored rather than added to `0.0` — the float sequence
/// of a probe-or-insert map entry, hence bit-identical sums. `mask == 0`
/// is the all-wild LCA and keeps [`combine_packed`]'s register
/// accumulator.
fn combine_slot_table<C: PackedCode>(
    blocks: &[TupleBlock],
    d: usize,
    masks: &PackedMasks<C>,
    idx: &SampleIndex,
    cancel: Option<&CancellationToken>,
) -> PartitionSweep<C> {
    let mut acc = PartitionSweep::new();
    if is_cancelled(cancel) {
        acc.cancelled = true;
        return acc;
    }
    // 0 = not yet touched, otherwise the slot's index + 1 (which fits:
    // slots never outnumber the table's `|s| · 2^d` entries, which
    // `CombineStrategy::for_partition` keeps within `u32::MAX`).
    let mut slot_of: Vec<u32> = vec![0; idx.len() << d];
    let mut slots: Vec<(C, Agg)> = Vec::new();
    let mut slot_by_code: FxHashMap<C, u32> = FxHashMap::default();
    let aw = masks.all_wild();
    let mut wild: Agg = (0.0, 0.0, 0);
    let mut pair_masks: Vec<u32> = Vec::new();
    let mut dim_scratch = sirum_table::ColScratch::new();
    for block in blocks {
        let (m_col, mhat_col) = (block.m(), block.mhat());
        let dims = block.dims();
        for (ms, ml) in dims.morsel_bounds() {
            let cols = dims.morsel_cols(ms, ml, &mut dim_scratch);
            for li in 0..ml {
                let (m, mh) = (m_col[ms + li], mhat_col[ms + li]);
                let row_masks = idx.match_masks_into_cols(&cols, li, &mut pair_masks);
                for (j, &mask) in row_masks.iter().enumerate() {
                    if acc.tick(cancel) {
                        return acc;
                    }
                    if mask == 0 {
                        wild.0 += m;
                        wild.1 += mh;
                        wild.2 += 1;
                        continue;
                    }
                    let at = (j << d) | mask as usize;
                    if slot_of[at] == 0 {
                        let sample_row = &idx.rows()[j];
                        let mut code = aw;
                        let mut bits = mask;
                        while bits != 0 {
                            let col = bits.trailing_zeros() as usize;
                            code = masks.with_constant(code, col, sample_row[col]);
                            bits &= bits - 1;
                        }
                        let fresh = slots.len() as u32 + 1;
                        let slot = *slot_by_code.entry(code).or_insert(fresh);
                        slot_of[at] = slot;
                        if slot == fresh {
                            slots.push((code, (m, mh, 1)));
                            continue;
                        }
                    }
                    let agg = &mut slots[slot_of[at] as usize - 1].1;
                    agg.0 += m;
                    agg.1 += mh;
                    agg.2 += 1;
                }
            }
        }
    }
    // One slot per distinct code (none of them all-wild), so these
    // inserts never collide.
    acc.map.reserve(slots.len() + 1);
    acc.map.extend(slots);
    if wild.2 > 0 {
        acc.map.insert(aw, wild);
    }
    acc
}

/// Stage 2, one partition of the packed **frontier**: expand each globally
/// distinct LCA's cube lattice once — two ORs per ancestor — folding its
/// combined aggregate into every ancestor.
fn expand_packed<C: PackedCode>(
    frontier: &[(C, Agg)],
    masks: &PackedMasks<C>,
    cancel: Option<&CancellationToken>,
) -> PartitionSweep<C> {
    let mut acc = PartitionSweep::with_capacity(frontier.len() * 4);
    if is_cancelled(cancel) {
        acc.cancelled = true;
        return acc;
    }
    let mut live = Vec::with_capacity(masks.num_dims());
    let mut deltas: Vec<C> = Vec::with_capacity(masks.num_dims());
    for &(code, agg) in frontier {
        packed_live_dims(code, masks, &mut live);
        let w = live.len();
        // Unreachable through the miner, which rejects tables with more
        // than MAX_EXPAND_BITS dimensions up front (typed InvalidConfig).
        // lint:allow(SL001) — internal expansion-size invariant, not user-reachable
        assert!(w <= MAX_EXPAND_BITS, "refusing to expand 2^{w} ancestors");
        // Walk the lattice in binary-reflected Gray order: each step
        // toggles one live field between its value and all-ones, so every
        // ancestor is a single XOR from the previous one. Enumeration
        // order within a lattice is free to differ from the rule-keyed
        // path's 0..2^w order — subsets of distinct live dims yield
        // distinct codes, so each ancestor key still receives exactly one
        // fold per lattice and cross-variant sums are unchanged.
        deltas.clear();
        deltas.extend(live.iter().map(|&j| masks.wild(j).bitand(code.not())));
        let mut anc = code;
        for step in 0..(1u32 << w) {
            if step != 0 {
                anc = anc.bitxor(deltas[step.trailing_zeros() as usize]);
            }
            acc.pairs += 1;
            // One lattice can dwarf the whole frontier, so the poll clock
            // counts folds, not frontier entries.
            if acc.tick(cancel) {
                return acc;
            }
            acc.fold_agg(anc, agg);
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// Rule-keyed stages (layouts over 128 bits)
// ---------------------------------------------------------------------------

/// Fold one data row's LCA contributions into the partition map. Probing
/// with a borrowed `&[u32]` LCA key (see `Borrow<[u32]> for Rule`) keeps
/// the hot loop allocation-free on hits and lets the map stay keyed by
/// *rules*, which stays small — one entry per distinct LCA, not per
/// (sample row, LCA) pair.
#[inline]
fn fold_lca(map: &mut FxHashMap<Rule, Agg>, key: &[u32], agg: Agg) {
    match map.get_mut(key) {
        Some(a) => {
            a.0 += agg.0;
            a.1 += agg.1;
            a.2 += agg.2;
        }
        None => {
            map.insert(Rule::from_tuple(key), agg);
        }
    }
}

/// [`combine_packed`], `Rule`-keyed: the same scan, fold order, accumulator
/// capacity and cancellation poll points. A row-shaped key is materialized
/// into a reusable scratch buffer only where a contiguous row is
/// unavoidable (the full-cube fold); the sample-index probe reads
/// attribute values straight from the morsel columns.
fn combine_rulekey(
    blocks: &[TupleBlock],
    d: usize,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
) -> PartitionSweep<Rule> {
    let rows: usize = blocks.iter().map(TupleBlock::len).sum();
    let mut acc = PartitionSweep::with_capacity(rows);
    if is_cancelled(cancel) {
        acc.cancelled = true;
        return acc;
    }
    let mut scratch = Vec::new();
    let mut row_buf = Vec::with_capacity(d);
    let mut dim_scratch = sirum_table::ColScratch::new();
    for block in blocks {
        let (m_col, mhat_col) = (block.m(), block.mhat());
        let dims = block.dims();
        for (ms, ml) in dims.morsel_bounds() {
            let cols = dims.morsel_cols(ms, ml, &mut dim_scratch);
            for li in 0..ml {
                let i = ms + li;
                match index {
                    Some(idx) => {
                        let chunks = idx.lcas_into_cols(&cols, li, &mut scratch);
                        for chunk in chunks.chunks_exact(d) {
                            if acc.tick(cancel) {
                                return acc;
                            }
                            fold_lca(&mut acc.map, chunk, (m_col[i], mhat_col[i], 1));
                        }
                    }
                    None => {
                        if acc.tick(cancel) {
                            return acc;
                        }
                        row_buf.clear();
                        row_buf.extend(cols.iter().map(|c| c[li]));
                        fold_lca(&mut acc.map, &row_buf, (m_col[i], mhat_col[i], 1));
                    }
                }
            }
        }
    }
    acc
}

/// [`expand_packed`], `Rule`-keyed: fold each frontier LCA's combined
/// aggregate into every ancestor of its values — `2^w` entries for `w`
/// constants, enumerated by rewriting one scratch slice.
fn expand_rulekey(
    frontier: &[(Rule, Agg)],
    cancel: Option<&CancellationToken>,
) -> PartitionSweep<Rule> {
    let mut acc = PartitionSweep::with_capacity(frontier.len() * 4);
    if is_cancelled(cancel) {
        acc.cancelled = true;
        return acc;
    }
    let d = frontier.first().map_or(0, |(r, _)| r.arity());
    let mut live = Vec::with_capacity(d);
    let mut buf = Vec::with_capacity(d);
    for (lca, agg) in frontier {
        let values = lca.values();
        live.clear();
        live.extend((0..values.len()).filter(|&i| values[i] != WILDCARD));
        let w = live.len();
        // Unreachable through the miner, which rejects tables with more
        // than MAX_EXPAND_BITS dimensions up front (typed InvalidConfig).
        // lint:allow(SL001) — internal expansion-size invariant, not user-reachable
        assert!(w <= MAX_EXPAND_BITS, "refusing to expand 2^{w} ancestors");
        buf.clear();
        buf.extend_from_slice(values);
        for subset in 0..(1u32 << w) {
            for (bit, &pos) in live.iter().enumerate() {
                buf[pos] = if subset & (1 << bit) != 0 {
                    WILDCARD
                } else {
                    values[pos]
                };
            }
            acc.pairs += 1;
            // As in expand_packed: the poll clock counts folds, so one huge
            // lattice cannot stall a cancellation.
            if acc.tick(cancel) {
                return acc;
            }
            fold_lca(&mut acc.map, &buf, *agg);
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// A map's entries in **canonical order** — sorted by key, which for every
/// key type is lexicographic `Rule::values` order — so nothing downstream
/// depends on a hash map's iteration order.
fn sorted_entries<K: Ord>(map: FxHashMap<K, Agg>) -> Vec<(K, Agg)> {
    let mut entries: Vec<(K, Agg)> = map.into_iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    entries
}

fn cancelled_outcome<K>(acc: &PartitionSweep<K>) -> SweepOutcome {
    SweepOutcome {
        candidates: Vec::new(),
        distinct_candidates: 0,
        pairs_emitted: acc.pairs,
        cancelled: true,
    }
}

/// Both stages for one key type `K`: combine each data partition, chunk
/// the canonically ordered frontier over as many partitions and expand
/// it, then turn the merged accumulator into rules — dividing by sample
/// multiplicity when an index was used (§3.1.1) so every candidate carries
/// exact sums over its true support set. Expanding after the global
/// (partition-ordered) LCA merge performs the `2^w` lattice work exactly
/// once per distinct LCA — the same complexity as the legacy pipeline's
/// post-reduce expansion — while staying shuffle-free.
fn run_sweep<K, FC, FE, FU>(
    data: &Dataset<TupleBlock>,
    index: Option<&SampleIndex>,
    combine: FC,
    expand: FE,
    to_rule: FU,
) -> SweepOutcome
where
    K: Ord + std::hash::Hash + Send,
    (K, Agg): sirum_dataflow::Record,
    FC: Fn(&[TupleBlock]) -> PartitionSweep<K> + Send + Sync,
    FE: Fn(&[(K, Agg)]) -> PartitionSweep<K> + Send + Sync,
    FU: Fn(K) -> Rule,
{
    let combined = data.aggregate_partitions(
        "gain-sweep-combine",
        PartitionSweep::new,
        |_, blocks| combine(blocks),
        PartitionSweep::merge,
    );
    if combined.cancelled {
        return cancelled_outcome(&combined);
    }
    let frontier = data
        .engine()
        .parallelize(sorted_entries(combined.map), data.num_partitions());
    let acc = frontier.aggregate_partitions(
        "gain-sweep-expand",
        PartitionSweep::new,
        |_, lcas| expand(lcas),
        PartitionSweep::merge,
    );
    if acc.cancelled {
        return cancelled_outcome(&acc);
    }
    let distinct = acc.map.len() as u64;
    let rules = sorted_entries(acc.map)
        .into_iter()
        .map(|(key, agg)| (to_rule(key), agg));
    let candidates = match index {
        Some(idx) => adjust_for_sample(rules, idx),
        None => rules
            .map(|(rule, (sm, smh, cnt))| (rule, sm, smh, cnt))
            .collect(),
    };
    SweepOutcome {
        candidates,
        distinct_candidates: distinct,
        pairs_emitted: acc.pairs,
        cancelled: false,
    }
}

/// [`run_sweep`] on packed codes of width `C`. Packed integer order *is*
/// canonical rule order, so codes are unpacked only after the final sort.
fn sweep_packed<C: PackedCode>(
    data: &Dataset<TupleBlock>,
    d: usize,
    layout: &RuleLayout,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
    force: Option<CombineStrategy>,
) -> SweepOutcome {
    let masks: PackedMasks<C> = layout.masks();
    run_sweep(
        data,
        index,
        |blocks| combine_packed(blocks, d, layout, &masks, index, cancel, force),
        |lcas| expand_packed(lcas, &masks, cancel),
        |code| layout.unpack(code),
    )
}

/// Run the sweep over the columnar dataset as per-partition tasks on its
/// engine's thread pool, merged with the partition-ordered reduction of
/// [`Dataset::aggregate_partitions`]: one scan over the partitioned data
/// combines the LCA frontier, one pass over the distinct frontier expands
/// the cube lattice — no shuffle in either stage. `d` is the table's
/// dimension count; `index` enables the sample-LCA strategy (`None` =
/// full cube); `opts` selects packed codes vs `Rule` keys (see
/// [`SweepOptions`]).
///
/// Bit-identical for every worker count (see the module docs for the
/// argument) and across every [`SweepOptions`] choice.
pub fn sweep_gains(
    data: &Dataset<TupleBlock>,
    d: usize,
    index: Option<&SampleIndex>,
    cancel: Option<&CancellationToken>,
    opts: &SweepOptions,
) -> SweepOutcome {
    match (&opts.layout, opts.packed_bits()) {
        (Some(layout), Some(64)) => {
            sweep_packed::<u64>(data, d, layout, index, cancel, opts.combine)
        }
        (Some(layout), Some(_)) => {
            sweep_packed::<u128>(data, d, layout, index, cancel, opts.combine)
        }
        _ => run_sweep(
            data,
            index,
            |blocks| combine_rulekey(blocks, d, index, cancel),
            |lcas| expand_rulekey(lcas, cancel),
            |rule| rule,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::exhaustive_candidates;
    use sirum_dataflow::{Engine, EngineConfig};
    use sirum_table::generators::flights;
    use sirum_table::{Frame, Table};

    /// `frame` as the miner distributes it: one seeded block (`m̂ = 1`)
    /// per partition.
    fn blocks_of(engine: &Engine, frame: &Frame, partitions: usize) -> Dataset<TupleBlock> {
        let blocks = TupleBlock::seed_partitions(frame, &frame.measure_slice(), partitions);
        Dataset::from_partitioned(engine, blocks)
    }

    fn blocks(engine: &Engine, table: &Table, partitions: usize) -> Dataset<TupleBlock> {
        blocks_of(engine, &Frame::from_table(table), partitions)
    }

    fn sample_index(table: &Table, rows: &[usize]) -> SampleIndex {
        let sample = rows
            .iter()
            .map(|&i| table.row(i).to_vec().into_boxed_slice())
            .collect();
        SampleIndex::build(sample, table.num_dims())
    }

    fn packed_opts(table: &Table) -> SweepOptions {
        let cards: Vec<u32> = table.cardinalities().iter().map(|&c| c as u32).collect();
        SweepOptions::packed(RuleLayout::from_cardinalities(&cards))
    }

    fn all_variants(table: &Table) -> Vec<SweepOptions> {
        let packed = packed_opts(table);
        vec![
            SweepOptions::rule_keyed(),
            packed.clone(),
            packed.clone().with_combine(CombineStrategy::HashProbe),
            packed.with_combine(CombineStrategy::SlotTable),
        ]
    }

    #[test]
    fn full_cube_sweep_matches_exhaustive_reference() {
        let t = flights();
        let engine = Engine::new(EngineConfig::in_memory().with_workers(2));
        let data = blocks(&engine, &t, 4);
        for opts in all_variants(&t) {
            let out = sweep_gains(&data, 3, None, None, &opts);
            let exhaustive = exhaustive_candidates(&t, &[1.0; 14], None).expect("uncancelled");
            assert_eq!(out.candidates.len(), exhaustive.len());
            assert_eq!(out.distinct_candidates, exhaustive.len() as u64);
            for (rule, sm, smh, cnt) in &out.candidates {
                let (em, emh, ec) = exhaustive[rule];
                assert!((sm - em).abs() < 1e-9, "{rule:?}");
                assert!((smh - emh).abs() < 1e-9, "{rule:?}");
                assert_eq!(*cnt, ec, "{rule:?}");
            }
            // One pair per (tuple, lattice ancestor): 14 tuples × 2^3.
            assert_eq!(out.pairs_emitted, 14 * 8);
        }
    }

    #[test]
    fn sample_sweep_recovers_exact_support_sums() {
        let t = flights();
        let index = sample_index(&t, &[3, 8, 0]);
        let engine = Engine::new(EngineConfig::in_memory().with_workers(2));
        let data = blocks(&engine, &t, 3);
        for opts in all_variants(&t) {
            let out = sweep_gains(&data, 3, Some(&index), None, &opts);
            for (rule, sm, smh, cnt) in &out.candidates {
                let mut exp = (0.0, 0.0, 0u64);
                for (i, row) in t.rows().enumerate() {
                    if rule.matches(row) {
                        exp.0 += t.measure(i);
                        exp.1 += 1.0;
                        exp.2 += 1;
                    }
                }
                assert!((sm - exp.0).abs() < 1e-9, "{rule:?}");
                assert!((smh - exp.1).abs() < 1e-9, "{rule:?}");
                assert_eq!(*cnt, exp.2, "{rule:?}");
            }
        }
    }

    fn bits(out: SweepOutcome) -> Vec<(Rule, u64, u64, u64)> {
        out.candidates
            .into_iter()
            .map(|(r, a, b, c)| (r, a.to_bits(), b.to_bits(), c))
            .collect()
    }

    #[test]
    fn parallel_and_reference_paths_are_bit_identical() {
        // The reference is a one-worker engine: it runs every task inline
        // on the calling thread, in partition order.
        let t = flights();
        let sequential = Engine::new(EngineConfig::in_memory().with_workers(1));
        let seq_data = blocks(&sequential, &t, 5);
        for workers in [2, 4] {
            let engine = Engine::new(EngineConfig::in_memory().with_workers(workers));
            let data = blocks(&engine, &t, 5);
            for opts in all_variants(&t) {
                let par = sweep_gains(&data, 3, None, None, &opts);
                let seq = sweep_gains(&seq_data, 3, None, None, &opts);
                assert_eq!(par.pairs_emitted, seq.pairs_emitted);
                // Canonical ordering: identical bits AND identical order.
                assert_eq!(bits(par), bits(seq));
            }
        }
    }

    #[test]
    fn every_key_representation_is_bit_identical() {
        let t = flights();
        let engine = Engine::new(EngineConfig::in_memory().with_workers(2));
        let data = blocks(&engine, &t, 4);
        let index = sample_index(&t, &[3, 8]);
        for idx in [None, Some(&index)] {
            let baseline = bits(sweep_gains(
                &data,
                3,
                idx,
                None,
                &SweepOptions::rule_keyed(),
            ));
            for opts in all_variants(&t) {
                assert_eq!(baseline, bits(sweep_gains(&data, 3, idx, None, &opts)));
            }
        }
    }

    #[test]
    fn sample_rows_sharing_values_share_one_slot() {
        // (Fri, SF, London) twice, (Mon, SF, London) and (Sat, Frankfurt,
        // London): `(*, SF, London)` is the LCA behind three different
        // (sample row, mask) pairs and `(*, *, London)` behind four, so
        // the slot table must funnel several table entries into one
        // accumulator — in emission order — to match the hashed map.
        let t = flights();
        let index = sample_index(&t, &[0, 0, 10, 5]);
        let cards: Vec<u32> = t.cardinalities().iter().map(|&c| c as u32).collect();
        let layout = RuleLayout::from_cardinalities(&cards);
        let masks = layout.masks::<u64>();
        let frame = Frame::from_table(&t);
        let block = TupleBlock::seed_partitions(&frame, &frame.measure_slice(), 1);
        let combine = |strategy| {
            let acc = combine_packed(&block, 3, &layout, &masks, Some(&index), None, strategy);
            sorted_entries(acc.map)
                .into_iter()
                .map(|(code, (m, mh, n))| (code, m.to_bits(), mh.to_bits(), n))
                .collect::<Vec<_>>()
        };
        let slots = combine(Some(CombineStrategy::SlotTable));
        assert_eq!(slots, combine(Some(CombineStrategy::HashProbe)));
        // More (sample row, nonzero mask) table entries were touched than
        // there are distinct non-wild codes.
        let cols: Vec<&[u32]> = (0..3).map(|j| frame.col(j)).collect();
        let mut touched = std::collections::BTreeSet::new();
        let mut row_masks = Vec::new();
        for i in 0..t.num_rows() {
            for (j, &mask) in index
                .match_masks_into_cols(&cols, i, &mut row_masks)
                .iter()
                .enumerate()
            {
                if mask != 0 {
                    touched.insert((j, mask));
                }
            }
        }
        let non_wild = slots.iter().filter(|e| e.0 != masks.all_wild()).count();
        assert!(touched.len() > non_wild, "{} vs {non_wild}", touched.len());
        // And the whole sweep agrees with the Rule-keyed one, partitioned.
        let engine = Engine::new(EngineConfig::in_memory().with_workers(2));
        let data = blocks(&engine, &t, 3);
        let baseline = sweep_gains(&data, 3, Some(&index), None, &SweepOptions::rule_keyed());
        for opts in all_variants(&t) {
            let out = sweep_gains(&data, 3, Some(&index), None, &opts);
            assert_eq!(out.pairs_emitted, baseline.pairs_emitted);
            assert_eq!(bits(out), bits(baseline.clone()));
        }
    }

    #[test]
    fn slot_table_is_chosen_exactly_when_it_amortises() {
        use CombineStrategy::{HashProbe, SlotTable};
        // |s| = 16 sample rows over `rows` tuples of `d` dimensions.
        let indexed = |rows, d| CombineStrategy::for_partition(rows, d, Some(16));
        // tlc-shaped: 9 dims, tens of thousands of rows per partition.
        assert_eq!(indexed(32_000, 9), SlotTable);
        // The boundary is 2^d ≤ rows, inclusive.
        assert_eq!(indexed(512, 9), SlotTable);
        assert_eq!(indexed(511, 9), HashProbe);
        // Wide tables over few rows probe, whatever their emission volume.
        assert_eq!(indexed(125, 12), HashProbe);
        assert_eq!(indexed(1 << 16, 20), HashProbe);
        // A match mask holds MAX_EXPAND_BITS bits: past that there is no
        // table, however many rows there are.
        assert_eq!(indexed(usize::MAX, MAX_EXPAND_BITS), SlotTable);
        assert_eq!(indexed(usize::MAX, MAX_EXPAND_BITS + 1), HashProbe);
        assert_eq!(indexed(usize::MAX, 64), HashProbe);
        // Slot ids are u32s: |s| · 2^d = 2^32 entries is one too many for
        // them even though 2^20 ≤ rows, its neighbour below fits.
        let big = |s| CombineStrategy::for_partition(1 << 20, 20, Some(s));
        assert_eq!(big(4096), HashProbe);
        assert_eq!(big(4095), SlotTable);
        // No sample index, no sample rows to address slots by.
        assert_eq!(CombineStrategy::for_partition(1 << 20, 3, None), HashProbe);
        // Empty partitions probe (and fold nothing).
        assert_eq!(indexed(0, 3), HashProbe);
    }

    #[test]
    fn the_benchmark_has_a_workload_on_each_side_of_the_rule() {
        // The `sirum-bench` workloads (sirum-bench/src/workloads.rs) over
        // the default 16 partitions, as (rows/partition, d, |s|). Both
        // strategies stay only while the benchmark runs both.
        use CombineStrategy::{HashProbe, SlotTable};
        let shapes = [
            ("cold_sweep", 256_000 / 16, 9, 16, SlotTable),
            ("budget_spill", 256_000 / 16, 9, 16, SlotTable),
            ("wide_expand", 2_000 / 16, 12, 32, HashProbe),
            ("serve_mix", 4_000 / 16, 9, 16, HashProbe),
            // Variant::Baseline: the staged pipeline, which never sweeps.
            ("staged_baseline", 8_000 / 16, 9, 32, HashProbe),
        ];
        for (workload, rows, d, s, expected) in shapes {
            let chosen = CombineStrategy::for_partition(rows, d, Some(s));
            assert_eq!(chosen, expected, "{workload}");
        }
    }

    #[test]
    fn slot_table_and_hashed_partitions_merge_in_one_sweep() {
        // 23 rows × 3 dims over 3 partitions chunk as 8 + 8 + 7: the first
        // two meet 2^3 ≤ rows and take the slot table, the last falls
        // under it and probes — and their maps merge into one frontier.
        let n = 23;
        let cols = vec![
            (0..n).map(|i| (i % 3) as u32).collect(),
            (0..n).map(|i| (i % 2) as u32).collect(),
            (0..n).map(|i| (i / 5 % 2) as u32).collect(),
        ];
        let measures: Vec<f64> = (0..n).map(|i| 0.25 + (i % 4) as f64).collect();
        let frame = Frame::from_columns_with_cards(cols, measures, vec![3, 2, 2]);
        let sample: Vec<Box<[u32]>> = [1usize, 9, 22]
            .iter()
            .map(|&i| (0..3).map(|j| frame.col(j)[i]).collect())
            .collect();
        let index = SampleIndex::build(sample, 3);
        let chosen = |rows| CombineStrategy::for_partition(rows, 3, Some(index.len()));
        assert_eq!(chosen(8), CombineStrategy::SlotTable);
        assert_eq!(chosen(7), CombineStrategy::HashProbe);
        let engine = Engine::new(EngineConfig::in_memory().with_workers(2));
        let data = blocks_of(&engine, &frame, 3);
        let lens: Vec<usize> = (0..3).map(|p| data.part(p)[0].len()).collect();
        assert_eq!(lens, [8, 8, 7]);
        let layout = RuleLayout::from_cardinalities(&[3, 2, 2]);
        let mixed = sweep_gains(
            &data,
            3,
            Some(&index),
            None,
            &SweepOptions::packed(layout.clone()),
        );
        let rule_keyed = sweep_gains(&data, 3, Some(&index), None, &SweepOptions::rule_keyed());
        let hashed = sweep_gains(
            &data,
            3,
            Some(&index),
            None,
            &SweepOptions::packed(layout).with_combine(CombineStrategy::HashProbe),
        );
        assert_eq!(mixed.pairs_emitted, rule_keyed.pairs_emitted);
        assert_eq!(bits(mixed.clone()), bits(rule_keyed));
        assert_eq!(bits(mixed), bits(hashed));
    }

    #[test]
    fn forced_slot_table_without_a_sample_index_falls_back_to_hash_probe() {
        // No sample rows to address slots by: the forced strategy probes
        // instead of panicking, and the full-cube output is unchanged.
        let t = flights();
        let engine = Engine::new(EngineConfig::in_memory().with_workers(2));
        let data = blocks(&engine, &t, 2);
        let forced = packed_opts(&t).with_combine(CombineStrategy::SlotTable);
        let hashed = packed_opts(&t).with_combine(CombineStrategy::HashProbe);
        let out = sweep_gains(&data, 3, None, None, &forced);
        assert_eq!(out.pairs_emitted, 14 * 8);
        assert_eq!(bits(out), bits(sweep_gains(&data, 3, None, None, &hashed)));
    }

    #[test]
    fn u128_layouts_take_the_wide_path_and_agree() {
        // Inflated cardinalities force total_bits into (64, 128]; codes
        // still round-trip and the sweep output matches the rule-keyed one.
        let t = flights();
        let layout = RuleLayout::from_cardinalities(&[1 << 30, 1 << 30, 1 << 30]);
        assert!(!layout.fits::<u64>() && layout.fits::<u128>());
        let opts = SweepOptions::packed(layout);
        assert_eq!(opts.packed_bits(), Some(128));
        let engine = Engine::new(EngineConfig::in_memory().with_workers(2));
        let data = blocks(&engine, &t, 4);
        let wide = sweep_gains(&data, 3, None, None, &opts);
        let narrow = sweep_gains(&data, 3, None, None, &SweepOptions::rule_keyed());
        assert_eq!(bits(wide), bits(narrow));
        // Sample-LCA over u128 codes, every combine strategy included.
        let index = sample_index(&t, &[3, 8, 3]);
        let narrow = sweep_gains(&data, 3, Some(&index), None, &SweepOptions::rule_keyed());
        for strategy in [CombineStrategy::SlotTable, CombineStrategy::HashProbe] {
            let wide = sweep_gains(
                &data,
                3,
                Some(&index),
                None,
                &opts.clone().with_combine(strategy),
            );
            assert_eq!(wide.pairs_emitted, narrow.pairs_emitted);
            assert_eq!(bits(wide), bits(narrow.clone()), "{strategy}");
        }
    }

    #[test]
    fn oversized_layouts_fall_back_to_rule_keys() {
        let layout = RuleLayout::from_cardinalities(&[u32::MAX; 5]);
        let opts = SweepOptions::packed(layout);
        assert_eq!(opts.packed_bits(), None);
        let t = flights();
        let engine = Engine::new(EngineConfig::in_memory().with_workers(2));
        let data = blocks(&engine, &t, 2);
        // 3-dim data under a 5-dim layout would be an arity error on the
        // packed path; the fallback dispatch never touches the layout.
        let out = sweep_gains(&data, 3, None, None, &opts);
        let baseline = sweep_gains(&data, 3, None, None, &SweepOptions::rule_keyed());
        assert_eq!(out.distinct_candidates, baseline.distinct_candidates);
        assert_eq!(bits(out), bits(baseline));
    }

    #[test]
    fn cancelled_token_stops_the_sweep_without_partial_candidates() {
        let t = flights();
        let engine = Engine::new(EngineConfig::in_memory().with_workers(2));
        let data = blocks(&engine, &t, 2);
        for opts in all_variants(&t) {
            let token = CancellationToken::new();
            token.cancel();
            let out = sweep_gains(&data, 3, None, Some(&token), &opts);
            assert!(out.cancelled);
            assert!(out.candidates.is_empty());
            assert_eq!(out.distinct_candidates, 0);
        }
    }

    #[test]
    fn combine_polls_cancellation_through_zero_pair_stretches() {
        // Regression (ISSUE 6 satellite): the combine stage emits zero
        // "pairs" by definition — pairs count ancestor folds in stage 2 —
        // so a poll clock driven by the pair counter would never fire
        // during a long combine scan and cancel latency would be unbounded.
        // Arm a poll-budget token that self-cancels mid-combine and require
        // the sweep to notice within one CANCEL_POLL_ROWS window.
        let n = CANCEL_POLL_ROWS * 4;
        let cols = vec![
            (0..n).map(|i| (i % 7) as u32).collect(),
            (0..n).map(|i| (i % 3) as u32).collect(),
        ];
        let frame = Frame::from_columns_with_cards(cols, vec![1.0; n], vec![7, 3]);
        let engine = Engine::new(EngineConfig::single_thread());
        let data = blocks_of(&engine, &frame, 1);
        let layout = RuleLayout::from_cardinalities(&[7, 3]);
        for opts in [
            SweepOptions::rule_keyed(),
            SweepOptions::packed(layout.clone()),
        ] {
            let token = CancellationToken::new();
            // Self-cancel once the combine scan is mid-partition: after
            // the partition-boundary poll plus one work-budget poll.
            token.cancel_after_polls(2);
            let out = sweep_gains(&data, 2, None, Some(&token), &opts);
            assert!(out.cancelled, "combine scan never polled ({opts:?})");
            assert!(out.candidates.is_empty());
            // The second poll happens one work window in — long before
            // the scan ends — so no expansion pairs were ever folded.
            assert_eq!(out.pairs_emitted, 0);
        }
        // The same through a sample index, where each (row, sample) pair
        // is one work unit: 2 pairs a row, 8 windows in the partition. The
        // third poll is the second in-scan one; a combine that polled only
        // at its partition boundary would reach the expand stage's
        // boundary poll un-cancelled and finish the sweep.
        let sample: Vec<Box<[u32]>> = vec![Box::new([1, 2]), Box::new([6, 0])];
        let index = SampleIndex::build(sample, 2);
        assert_eq!(
            CombineStrategy::for_partition(n, 2, Some(index.len())),
            CombineStrategy::SlotTable
        );
        for opts in [
            SweepOptions::rule_keyed(),
            SweepOptions::packed(layout.clone()),
            SweepOptions::packed(layout.clone()).with_combine(CombineStrategy::SlotTable),
            SweepOptions::packed(layout.clone()).with_combine(CombineStrategy::HashProbe),
        ] {
            let token = CancellationToken::new();
            token.cancel_after_polls(3);
            let out = sweep_gains(&data, 2, Some(&index), Some(&token), &opts);
            assert!(out.cancelled, "indexed combine never polled ({opts:?})");
            assert!(out.candidates.is_empty());
            assert_eq!(out.pairs_emitted, 0);
        }
    }
}
