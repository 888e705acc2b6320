//! Partition-parallel candidate gain sweep.
//!
//! The staged candidate pipeline of [`crate::miner`] stages the work the
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
//! [`SweepState`] is the per-mine state the miner sweeps once per greedy
//! iteration. A sweep is two shuffle-free stages over the columnar dataset
//! (one [`TupleBlock`] per partition):
//!
//! 1. **Combine** — partition-parallel on the [`sirum_dataflow::Engine`]
//!    thread pool ([`Dataset::aggregate_partitions`]): each data partition
//!    folds its `(sample tuple, data tuple)` LCAs into a local
//!    `LCA → (Σm, Σm̂, pairs)` map (one scan, three sinks — below); the
//!    maps are merged in partition order into the globally distinct LCA
//!    frontier;
//! 2. **Expand** — on the driver: one sparse sum-over-subsets (zeta)
//!    transform pushes the canonically sorted frontier's sums up the cube
//!    lattice a dimension at a time — §4.3's multi-stage ancestor
//!    generation at its limit of one column per stage, shuffle-free: at
//!    most `d` additions per candidate where a lattice walk probes `2^w`
//!    times per LCA. Which slot feeds which (an `ExpandPlan`) cannot
//!    change inside a mine — the sample, the dimension columns and `m` are
//!    fixed, only `m̂` moves — so a [`SweepState`]'s first sweep builds it
//!    and later ones fold only the new `Σm̂` column through it, after
//!    checking that the frontier's keys and per-key pair counts are still
//!    the plan's. The build folds `Σm`, the pair counts and each
//!    candidate's sample multiplicity `c` (§3.1.1) along the links in one
//!    pass: a sample row's own tuple is the LCA it forms with itself, a
//!    frontier key, so one 1 per sample row at its slot folds up to the
//!    number of sample rows every candidate covers.
//!
//! The caller's `pick` then reads every candidate where the plan's slots
//! hold it ([`SlotSums`]): `Σm`, the folded `Σm̂` and the canonical rank
//! (the plan stores each slot's rank once per mine), with nothing gathered
//! into rank order. The miner keeps the best by gain in one pass over the
//! slots, against the `k`-th gain kept so far as a threshold, and takes an
//! `ln` only where a logarithm-free bound leaves a slot a chance to place
//! ([`crate::multirule::top_k_by_gain`]); it names the candidates it keeps
//! by slot, and only those become [`Rule`]s.
//!
//! ## Counting the rows that share an estimate
//!
//! Tuples with the same rule-coverage bit array share one estimate
//! `m̂ = ∏ λᵢ` (§4.1 — the observation the RCT is built on), and after a
//! few rules most of `D` still sits in one RCT group. So the first sweep of
//! a mine scans every row, and a later one — once the miner has named the
//! largest group's estimate ([`SweepState::set_shared_estimate`]) — passes
//! over every row whose `m̂` has exactly those bits: one tick, no mask
//! probe, no fold. The plan keeps each frontier slot's raw pair count from
//! the full scan, so the driver restores the column in closed form,
//! `Σm̂[slot] = est · (pairs[slot] − pairs scanned) + Σm̂ scanned`, by one
//! merge-walk of the scanned frontier against the plan's sorted keys, and
//! folds it through the links as usual. `Σm` and the counts are the plan's
//! already.
//!
//! The test is per row and on `m̂` alone. It is therefore correct for any
//! value handed in (no row equal → nothing passed over, and a slot with
//! nothing counted keeps its scanned sum bit for bit), it passes over the
//! same rows whatever the key type, combine strategy, frame encoding or
//! worker count, and it needs no bit-array column. A sweep scans `1 − (the
//! share of rows carrying the estimate)` of the data, never more than a
//! full scan; where that stops paying is a property of the data. On the
//! benchmark's tables (generator seeds 2016–2018, the default miner) the
//! largest RCT group holds 85 % of `tlc_like(256k)` before sweep 2 and
//! 73 % before sweep 3 (54 % falling to 47 % before sweeps 4 to 8 at
//! k = 8), 74–75 % of `income_like(4k)` before sweep 2, and 63–64 /
//! 43–45 / 31–34 % of `susy_like(2k)` over 12 dimensions before sweeps
//! 2 / 3 / 4.
//!
//! What it moves: `est · n + Σ_scanned` associates differently from
//! `Σ_t m̂(t)`, so `Σm̂` — and a gain computed from it — can differ from
//! the full scan's in the last ulp (the product is the better-rounded of
//! the two). Candidates, their order, `Σm`, counts and the pair accounting
//! do not move. A scanned key the plan does not hold, or more scanned
//! pairs in a slot than the plan gives it, means the rows are not the ones
//! the plan was built from: nothing is served from such a scan —
//! everything is rescanned and the plan rebuilt.
//!
//! ## One scan, three sinks
//!
//! Stage 1 is one scan driver, `combine`, over one per-row probe:
//! [`SampleIndex::match_masks_into_cols`] gives, per sample row `s_j`, the
//! mask of dimensions the tuple matches, and `lca(s_j, t)` is `s_j`'s
//! values on the set bits. The driver owns the morsel loop, the
//! cancellation ticks and the shared-estimate test above, and hands each
//! row's masks to a *sink* that turns every `(j, mask)` — or, under the
//! full cube, the tuple itself — into an accumulator:
//!
//! - **slot table** — `slot_of[(j << d) | mask]` names the accumulator.
//!   The all-wild LCA (`mask == 0`) is an ordinary slot, named by every
//!   `(j, 0)` entry from the start. Otherwise only a `(j, mask)`'s first
//!   touch reads `s_j`, builds the packed code and finds-or-creates the
//!   code's slot, so sample rows that agree on the mask's dimensions share
//!   one. A hit touches nothing but `slot_of` and its slot, and takes no
//!   branch on the mask;
//! - **hash-probe** — the packed code is built from the mask's set bits
//!   (or the whole tuple) and probed-or-inserted into a hash map; the
//!   all-wild LCA, which touches no other key, is added in a register;
//! - **`Rule` keys** — the LCA is spelled into a `d`-wide buffer and
//!   probed by slice, the all-wild LCA in a register: the only path for
//!   layouts over 128 bits.
//!
//! Packed codes ([`crate::rule::RuleLayout`]) give each dimension a
//! bit-field sized by its dictionary cardinality, the all-ones value being
//! the wildcard, so an LCA key is one `u64`/`u128`.
//! [`RuleLayout::packed_bits`] picks the key type — the crate's one
//! rule-key trait, which both stages are written over and whose sweep
//! extension picks the sink; on packed codes
//! [`CombineStrategy::for_partition`] picks slot table or hash-probe from
//! each partition's shape. The sinks are
//! bit-identical by construction: the driver hands each the same pairs in
//! the same order — row-major, then sample order — and each distinct LCA's
//! pairs reach exactly one accumulator, which stores the first and adds
//! the rest, so its float sums add in one sequence.
//!
//! Determinism argument (see DESIGN.md "Partition-parallel gain sweep"
//! and "Packed rule codes" for the full version):
//!
//! 1. every partition task is a pure function of its partition's input
//!    (row order within a partition is fixed by the original encoding
//!    order);
//! 2. [`Dataset::aggregate_partitions`] returns task outputs in partition
//!    order regardless of which worker ran which task, and the driver folds
//!    them front-to-back — so each LCA's floating-point sums are
//!    accumulated in exactly the same order for 1 worker or N;
//! 3. the merged stage-1 frontier is sorted into **canonical rule order**
//!    (packed codes are order-isomorphic to lexicographic `Rule::values`
//!    order, so every key representation sorts identically); stage 2 is a
//!    pure function of that list and the dimension order — one generic
//!    builder, hence the same links and the same float association for
//!    every key type, worker count and partition count — and candidates
//!    are ranked in canonical order again: no hash map's iteration order
//!    reaches the output.
//!
//! Hence the sweep's per-candidate sums — and everything derived from them
//! (gains, the selected rule sequence) — are **bit-identical** for any
//! worker count and across the packed/`Rule`-keyed and
//! slot-table/hash-probe variants, under one shared estimate (or none) and
//! one partitioning: the rows passed over are chosen by their `m̂` alone,
//! and the closed form is driver-side arithmetic on the merged frontier.
//! A one-worker engine runs every task inline on the calling thread in
//! partition order, so "N workers ≡ 1 worker" is the sequential oracle;
//! proptests in `crates/core/tests/properties.rs` pin it across random
//! tables, partition counts and thread counts.
//!
//! Cancellation is polled at every combine partition's boundary, where
//! stage 2 starts, and every [`CANCEL_POLL_ROWS`] **work units** inside
//! both — one pair (or, under the full cube or passed over, one row) in a
//! combine task, which adds up a row's pairs and polls once per row when
//! they cross a boundary; one sample row looked up or one link recorded or
//! folded in stage 2 (and one candidate's multiplicity counted, for a
//! sample the data does not hold) — so the latency to observe a
//! cancellation is bounded even across stretches that emit nothing. A
//! cancelled sweep returns an empty candidate list with
//! [`SweepOutcome::cancelled`] set (a plan caught mid-build is not kept),
//! and the miner abandons the iteration without selecting from partial
//! sums.

use crate::block::TupleBlock;
use crate::cancel::CancellationToken;
use crate::candidates::{merge_agg, Agg, SampleIndex};
use crate::lattice::MAX_EXPAND_BITS;
use crate::rule::{PackedCode, PackedMasks, Rule, RuleKey, RuleLayout, WILDCARD};
use sirum_dataflow::hash::{fx_hash_one, FxHashMap};
use sirum_dataflow::{Dataset, StageRecord, TaskRecord};
use std::time::Instant;

/// How many units of work — pairs (or rows, under the full cube or passed
/// over) in a combine task, sample rows looked up and links recorded or
/// folded in stage 2 — pass between cancellation polls (in addition to the
/// poll at every stage and partition boundary). Counting work rather than
/// new candidates bounds the poll latency even through long stretches that
/// find none.
pub(crate) const CANCEL_POLL_ROWS: usize = 4096;

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
    /// Build each pair's packed code from its match mask (or the tuple's,
    /// under the full cube) and probe-or-insert it into an
    /// `FxHashMap<code, agg>`.
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
pub(crate) struct SweepOptions {
    layout: Option<RuleLayout>,
    combine: Option<CombineStrategy>,
}

impl SweepOptions {
    /// `Rule`-keyed accumulators (what a packed layout over 128 bits runs
    /// on; tests ask for them directly to cover that path on small tables).
    pub(crate) fn rule_keyed() -> SweepOptions {
        SweepOptions::default()
    }

    /// Packed integer codes laid out by `layout`; `Rule`-keyed maps when
    /// the layout does not fit 128 bits.
    pub(crate) fn packed(layout: RuleLayout) -> SweepOptions {
        SweepOptions {
            layout: Some(layout),
            combine: None,
        }
    }
}

/// What one full sweep over the data produces.
#[derive(Debug, Clone)]
pub(crate) struct SweepOutcome {
    /// Exact per-candidate aggregates over their true support sets:
    /// `(rule, Σm, Σm̂, |support|, score)`, already adjusted for sample
    /// multiplicity when an index was supplied, in the order and with the
    /// score [`SweepState::sweep`]'s `pick` gave them. Empty when
    /// [`Self::cancelled`].
    pub(crate) candidates: Vec<(Rule, f64, f64, u64, f64)>,
    /// Distinct candidate rules seen by the sweep (the rank-limit
    /// denominator of multi-rule selection).
    pub(crate) distinct_candidates: u64,
    /// The (candidate, LCA-contribution) pairs single-stage ancestor
    /// generation *would* emit (Fig 5.8): `Σ 2^w` over the distinct LCAs,
    /// `w` an LCA's constant count. Computed arithmetically — stage 2
    /// folds far fewer links — and 0 when [`Self::cancelled`].
    pub(crate) pairs_emitted: u64,
    /// True when a cancellation token stopped the sweep at a stage or
    /// partition boundary (or an in-stage poll); `candidates` is empty.
    pub(crate) cancelled: bool,
}

fn cancelled_outcome() -> SweepOutcome {
    SweepOutcome {
        candidates: Vec::new(),
        distinct_candidates: 0,
        pairs_emitted: 0,
        cancelled: true,
    }
}

#[inline]
fn is_cancelled(cancel: Option<&CancellationToken>) -> bool {
    cancel.is_some_and(CancellationToken::is_cancelled)
}

/// What one combine task is told besides its partition's rows and keys.
#[derive(Clone, Copy, Default)]
struct CombineArgs<'a> {
    /// The sample the pairs are formed with; `None` folds every tuple
    /// itself (the full cube).
    index: Option<&'a SampleIndex>,
    cancel: Option<&'a CancellationToken>,
    force: Option<CombineStrategy>,
    /// `m̂.to_bits()` of the rows to pass over — one tick each, no probe, no
    /// fold; the driver accounts for them in closed form
    /// ([`ExpandPlan::closed_form`]). `None` scans every row.
    skip: Option<u64>,
    /// Dimensions per tuple: how wide a `Rule` key is (a code's masks
    /// carry their own width).
    d: usize,
}

/// One combine partition's fold state, generic over the accumulator key
/// (a packed code or a [`Rule`]).
struct PartitionSweep<K> {
    map: FxHashMap<K, Agg>,
    /// Work units since the task started — the cancellation poll clock
    /// (never part of the output).
    work: u64,
    cancelled: bool,
}

impl<K: Eq + std::hash::Hash> PartitionSweep<K> {
    fn new() -> Self {
        PartitionSweep {
            map: FxHashMap::default(),
            work: 0,
            cancelled: false,
        }
    }

    /// Count `units` of work and poll the cancellation token when they
    /// cross a budget boundary. Returns `true` when the task should abandon.
    #[inline]
    fn tick(&mut self, units: usize, cancel: Option<&CancellationToken>) -> bool {
        let before = self.work / CANCEL_POLL_ROWS as u64;
        self.work += units as u64;
        if self.work / CANCEL_POLL_ROWS as u64 != before && is_cancelled(cancel) {
            self.cancelled = true;
            return true;
        }
        false
    }

    /// Fold `other` into `self`. Callers merge partitions **in partition
    /// order**, so each candidate's float sums accumulate deterministically.
    fn merge(&mut self, other: PartitionSweep<K>) {
        self.work += other.work;
        self.cancelled |= other.cancelled;
        for (key, agg) in other.map {
            fold_into(&mut self.map, key, agg);
        }
    }
}

/// Probe-or-insert: the first aggregate a key meets is stored, not added
/// to `0.0`, and later ones are added in arrival order.
#[inline]
fn fold_into<K: Eq + std::hash::Hash>(map: &mut FxHashMap<K, Agg>, key: K, agg: Agg) {
    map.entry(key)
        .and_modify(|a| merge_agg(a, agg))
        .or_insert(agg);
}

// ---------------------------------------------------------------------------
// Stage 1: one scan, three sinks
// ---------------------------------------------------------------------------

/// Where [`combine`] folds the LCAs it meets: one accumulator per distinct
/// LCA, keyed by `Key`. The scan hands over one row's match masks — mask
/// `j` names `lca(s_j, t)`, sample row `j`'s values on the set bits and
/// wildcards elsewhere, the all-wild LCA where it is 0 — or, under the full
/// cube, the tuple itself.
trait Sink {
    type Key: Eq + std::hash::Hash;

    /// Fold `agg` into `lca(s_j, t)` for every sample row `j`, in sample
    /// order, each named by `masks[j]`.
    fn pairs(&mut self, masks: &[u32], agg: Agg);

    /// Fold `agg` into the tuple at `li` of `cols` (the full cube).
    fn row(&mut self, cols: &[&[u32]], li: usize, agg: Agg);

    /// Every accumulator that met a pair, by key.
    fn into_map(self) -> FxHashMap<Self::Key, Agg>;
}

/// Stage 1, one partition: the **single pass over the partitioned data**,
/// a pure function of the partition's rows. Every `(sample tuple, data
/// tuple)` pair — or, without an index, every tuple — reaches `sink` in
/// emission order: row-major, then sample order. A row's pairs are ticked
/// as one work unit each before the row is folded, and the token is polled
/// when they cross a [`CANCEL_POLL_ROWS`] boundary; under the full cube, or
/// for a row passed over, the row is the unit.
///
/// The one per-row probe is [`SampleIndex::match_masks_into_cols`], whose
/// masks go to the sink whole: a pair with no shared constants (`mask ==
/// 0`) yields the all-wild LCA, usually the most frequent by far, and the
/// sink folds it like any other.
fn combine<S: Sink>(
    blocks: &[TupleBlock],
    args: CombineArgs<'_>,
    mut sink: S,
) -> PartitionSweep<S::Key> {
    let CombineArgs {
        index,
        cancel,
        skip,
        ..
    } = args;
    let mut acc = PartitionSweep::new();
    if is_cancelled(cancel) {
        acc.cancelled = true;
        return acc;
    }
    let mut pair_masks: Vec<u32> = Vec::new();
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
                let agg = (m_col[ms + li], mhat_col[ms + li], 1);
                let passed_over = skip == Some(agg.1.to_bits());
                match index {
                    Some(idx) if !passed_over => {
                        let row_masks = idx.match_masks_into_cols(&cols, li, &mut pair_masks);
                        if acc.tick(row_masks.len(), cancel) {
                            return acc;
                        }
                        sink.pairs(row_masks, agg);
                    }
                    _ => {
                        if acc.tick(1, cancel) {
                            return acc;
                        }
                        if !passed_over {
                            sink.row(&cols, li, agg);
                        }
                    }
                }
            }
        }
    }
    acc.map = sink.into_map();
    acc
}

/// `map` with the all-wild LCA's register, when any pair reached it. The
/// sinks that name an LCA by its key add `mask == 0` pairs in a register
/// from `(0.0, 0.0, 0)`: such a pair touches no other key, so that is the
/// float sequence a map entry would see, without a probe. The all-wild key
/// only ever comes in here, so the insert never collides.
fn with_all_wild<K: Eq + std::hash::Hash>(
    mut map: FxHashMap<K, Agg>,
    all_wild: K,
    register: Agg,
) -> FxHashMap<K, Agg> {
    if register.2 > 0 {
        map.insert(all_wild, register);
    }
    map
}

/// The packed LCA of `sample` with a tuple that matches it on `mask`'s
/// dimensions: `sample`'s values on the set bits, wildcards elsewhere.
#[inline]
fn lca_code<C: PackedCode>(masks: &PackedMasks<C>, sample: &[u32], mask: u32) -> C {
    let mut code = masks.all_wild();
    let mut bits = mask;
    while bits != 0 {
        let col = bits.trailing_zeros() as usize;
        code = masks.with_constant(code, col, sample[col]);
        bits &= bits - 1;
    }
    code
}

/// [`CombineStrategy::SlotTable`]: pair `(j, mask)` folds into
/// `slots[slot_of[(j << d) | mask]]` — one `u32` load and three adds, no
/// code built and nothing hashed.
///
/// The all-wild LCA is an ordinary slot: every `(j, 0)` entry names slot
/// 0, which starts at `(0.0, 0.0, 0)` — the float sequence of the other
/// sinks' register — so a hit takes no branch on the mask. The rest of
/// `slot_of` is filled lazily. Only the **first** touch of a `(j, mask)`
/// reads sample row `j`, builds the packed code and finds-or-creates the
/// code's slot through `slot_by_code`, so two sample rows that agree on the
/// mask's dimensions share one slot: each distinct code has exactly one
/// accumulator, which stores its first contribution and adds the rest in
/// emission order — the float sequence of a probe-or-insert map entry.
struct SlotSink<'a, C> {
    masks: &'a PackedMasks<C>,
    sample: &'a [Box<[u32]>],
    d: usize,
    /// 0 = not yet touched, otherwise the slot's index + 1 (which fits:
    /// slots never outnumber the table's `|s| · 2^d` entries, which
    /// [`CombineStrategy::for_partition`] keeps within `u32::MAX`).
    slot_of: Vec<u32>,
    slots: Vec<(C, Agg)>,
    slot_by_code: FxHashMap<C, u32>,
}

impl<'a, C: PackedCode> SlotSink<'a, C> {
    fn new(masks: &'a PackedMasks<C>, sample: &'a [Box<[u32]>], d: usize) -> Self {
        let mut slot_of = vec![0; sample.len() << d];
        for wild in slot_of.iter_mut().step_by(1 << d) {
            *wild = 1;
        }
        SlotSink {
            masks,
            sample,
            d,
            slot_of,
            slots: vec![(masks.all_wild(), (0.0, 0.0, 0))],
            slot_by_code: FxHashMap::default(),
        }
    }
}

impl<C: PackedCode> Sink for SlotSink<'_, C> {
    type Key = C;

    #[inline]
    fn pairs(&mut self, masks: &[u32], agg: Agg) {
        for (j, &mask) in masks.iter().enumerate() {
            let at = (j << self.d) | mask as usize;
            match self.slot_of[at] {
                0 => self.first_touch(at, j, mask, agg),
                slot => merge_agg(&mut self.slots[slot as usize - 1].1, agg),
            }
        }
    }

    fn row(&mut self, _: &[&[u32]], _: usize, _: Agg) {
        unreachable!("CombineStrategy::for_partition names no slot table without a sample index")
    }

    fn into_map(self) -> FxHashMap<C, Agg> {
        // One slot per distinct code, so nothing collides. Every slot but
        // the all-wild one was made by a pair; that one may have met none.
        let mut map = FxHashMap::with_capacity_and_hasher(self.slots.len(), Default::default());
        map.extend(self.slots.into_iter().filter(|(_, agg)| agg.2 > 0));
        map
    }
}

impl<C: PackedCode> SlotSink<'_, C> {
    /// Table entry `at = (j, mask)`'s first pair: name its slot.
    #[cold]
    fn first_touch(&mut self, at: usize, j: usize, mask: u32, agg: Agg) {
        let code = lca_code(self.masks, &self.sample[j], mask);
        let fresh = self.slots.len() as u32 + 1;
        let slot = *self.slot_by_code.entry(code).or_insert(fresh);
        self.slot_of[at] = slot;
        if slot == fresh {
            self.slots.push((code, agg));
        } else {
            merge_agg(&mut self.slots[slot as usize - 1].1, agg);
        }
    }
}

/// [`CombineStrategy::HashProbe`]: each LCA's packed code — the sample
/// row's values on the mask's set bits, or the whole tuple under the full
/// cube — is probed-or-inserted into a hash map.
struct ProbeSink<'a, C> {
    masks: &'a PackedMasks<C>,
    sample: &'a [Box<[u32]>],
    map: FxHashMap<C, Agg>,
    wild: Agg,
}

impl<C: PackedCode> Sink for ProbeSink<'_, C> {
    type Key = C;

    #[inline]
    fn pairs(&mut self, masks: &[u32], agg: Agg) {
        for (j, &mask) in masks.iter().enumerate() {
            if mask == 0 {
                merge_agg(&mut self.wild, agg);
            } else {
                let code = lca_code(self.masks, &self.sample[j], mask);
                fold_into(&mut self.map, code, agg);
            }
        }
    }

    #[inline]
    fn row(&mut self, cols: &[&[u32]], li: usize, agg: Agg) {
        let code = (cols.iter().enumerate()).fold(self.masks.all_wild(), |code, (col, values)| {
            self.masks.with_constant(code, col, values[li])
        });
        fold_into(&mut self.map, code, agg);
    }

    fn into_map(self) -> FxHashMap<C, Agg> {
        with_all_wild(self.map, self.masks.all_wild(), self.wild)
    }
}

/// `Rule` keys, the only path for layouts over 128 bits: each LCA is
/// spelled into a reusable `d`-wide buffer and probed by slice (see
/// `Borrow<[u32]> for Rule`), so a hit allocates nothing and the map holds
/// one `Rule` per distinct LCA.
struct RuleSink<'a> {
    sample: &'a [Box<[u32]>],
    key: Vec<u32>,
    map: FxHashMap<Rule, Agg>,
    wild: Agg,
}

impl RuleSink<'_> {
    #[inline]
    fn fold(&mut self, agg: Agg) {
        match self.map.get_mut(self.key.as_slice()) {
            Some(a) => merge_agg(a, agg),
            None => {
                self.map.insert(Rule::from_tuple(&self.key), agg);
            }
        }
    }
}

impl Sink for RuleSink<'_> {
    type Key = Rule;

    #[inline]
    fn pairs(&mut self, masks: &[u32], agg: Agg) {
        for (sample, &mask) in self.sample.iter().zip(masks) {
            if mask == 0 {
                merge_agg(&mut self.wild, agg);
                continue;
            }
            for (col, k) in self.key.iter_mut().enumerate() {
                *k = if mask >> col & 1 == 1 {
                    sample[col]
                } else {
                    WILDCARD
                };
            }
            self.fold(agg);
        }
    }

    #[inline]
    fn row(&mut self, cols: &[&[u32]], li: usize, agg: Agg) {
        for (k, values) in self.key.iter_mut().zip(cols) {
            *k = values[li];
        }
        self.fold(agg);
    }

    fn into_map(self) -> FxHashMap<Rule, Agg> {
        with_all_wild(self.map, Rule::all_wildcards(self.key.len()), self.wild)
    }
}

/// A [`RuleKey`] the sweep can fold stage 1 into: the one place the sink
/// is picked per key type.
trait SweepKey: RuleKey {
    /// [`combine`] one partition into this key type's sink.
    fn combine(
        blocks: &[TupleBlock],
        cx: &Self::Codec,
        args: CombineArgs<'_>,
    ) -> PartitionSweep<Self>;
}

impl<C: PackedCode> SweepKey for C {
    /// The sink of the [`CombineStrategy`] the partition's shape picks —
    /// or `args.force`, where a table can exist.
    fn combine(
        blocks: &[TupleBlock],
        masks: &PackedMasks<C>,
        args: CombineArgs<'_>,
    ) -> PartitionSweep<C> {
        let d = masks.num_dims();
        let rows: usize = blocks.iter().map(TupleBlock::len).sum();
        let sample_rows = args.index.map(SampleIndex::len);
        let strategy = match args.force {
            // A forced slot table must still exist: ask the rule with its
            // amortisation clause waived.
            Some(CombineStrategy::SlotTable) => {
                CombineStrategy::for_partition(usize::MAX, d, sample_rows)
            }
            Some(forced) => forced,
            None => CombineStrategy::for_partition(rows, d, sample_rows),
        };
        let sample: &[Box<[u32]>] = args.index.map_or(&[], SampleIndex::rows);
        match strategy {
            CombineStrategy::SlotTable => combine(blocks, args, SlotSink::new(masks, sample, d)),
            CombineStrategy::HashProbe => {
                let sink = ProbeSink {
                    masks,
                    sample,
                    map: FxHashMap::default(),
                    wild: (0.0, 0.0, 0),
                };
                combine(blocks, args, sink)
            }
        }
    }
}

impl SweepKey for Rule {
    fn combine(blocks: &[TupleBlock], _: &(), args: CombineArgs<'_>) -> PartitionSweep<Rule> {
        let sink = RuleSink {
            sample: args.index.map_or(&[], SampleIndex::rows),
            key: vec![WILDCARD; args.d],
            map: FxHashMap::default(),
            wild: (0.0, 0.0, 0),
        };
        combine(blocks, args, sink)
    }
}

// ---------------------------------------------------------------------------
// Stage 2: the expand plan
// ---------------------------------------------------------------------------

/// Stage 2's work-unit clock: one per call, plan build and fold alike.
struct PollClock<'a> {
    work: u64,
    cancel: Option<&'a CancellationToken>,
}

impl PollClock<'_> {
    /// [`PartitionSweep::tick`], for the driver-side stage.
    #[inline]
    fn tick(&mut self) -> bool {
        self.work += 1;
        self.work.is_multiple_of(CANCEL_POLL_ROWS as u64) && is_cancelled(self.cancel)
    }
}

/// Run `add(a, t)` over `links` in recorded order; `None` when cancelled.
fn fold_links(
    links: &[(u32, u32)],
    clock: &mut PollClock<'_>,
    mut add: impl FnMut(usize, usize),
) -> Option<()> {
    for &(a, t) in links {
        if clock.tick() {
            return None;
        }
        add(a as usize, t as usize);
    }
    Some(())
}

/// The plan build's `key → slot` lookup: an open-addressing table of slot
/// ids into the build's own `keys` column, at most half full — four bytes a
/// bucket. A `HashMap<K, u32>` keeps a second copy of every key (17 bytes a
/// bucket for `u64` codes): on `wide_expand`'s ~121k slots 4.25 MiB against
/// 1 MiB, the largest single allocation of a mine. glibc takes its trim
/// threshold from the largest block it has unmapped (twice that), and that
/// one puts it within a few per cent of what a mine leaves free, so whether
/// a process gives ~8 MiB back or keeps it changes from run to run.
struct SlotIndex {
    /// `slot + 1` of the key that hashed here, 0 while empty; a power of
    /// two long.
    buckets: Vec<u32>,
    /// `64 − log2(buckets.len())`: a bucket is the hash's top bits, the
    /// best-mixed ones of a multiplicative hash.
    shift: u32,
}

impl SlotIndex {
    fn with_capacity(slots: usize) -> Self {
        let len = (slots * 2).next_power_of_two().max(8);
        SlotIndex {
            buckets: vec![0; len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    #[inline]
    fn home<K: std::hash::Hash>(&self, key: &K) -> usize {
        (fx_hash_one(key) >> self.shift) as usize
    }

    /// `Ok(the slot of key in keys)`, or `Err(the empty bucket it would
    /// take)`. Every key of `keys` must have come in through
    /// [`Self::get_or_push`].
    #[inline]
    fn find<K: Eq + std::hash::Hash>(&self, keys: &[K], key: &K) -> Result<u32, usize> {
        let mask = self.buckets.len() - 1;
        let mut b = self.home(key);
        loop {
            match self.buckets[b] {
                0 => return Err(b),
                s if keys[s as usize - 1] == *key => return Ok(s - 1),
                _ => b = (b + 1) & mask,
            }
        }
    }

    /// The slot of `key` in `keys`, pushing it as a new last slot when it
    /// has none.
    #[inline]
    fn get_or_push<K: Eq + std::hash::Hash>(&mut self, keys: &mut Vec<K>, key: K) -> u32 {
        let b = match self.find(keys, &key) {
            Ok(slot) => return slot,
            Err(b) => b,
        };
        #[expect(
            clippy::expect_used,
            reason = "internal expansion-size invariant (slot ids are u32s), not user-reachable"
        )]
        let next = u32::try_from(keys.len() + 1).expect("under 2^32 candidates");
        keys.push(key);
        self.buckets[b] = next;
        if keys.len() * 2 > self.buckets.len() {
            self.grow(keys);
        }
        next - 1
    }

    /// Twice the buckets, every key placed again.
    fn grow<K: std::hash::Hash>(&mut self, keys: &[K]) {
        let len = self.buckets.len() * 2;
        self.buckets = vec![0; len];
        self.shift -= 1;
        for (key, next) in keys.iter().zip(1..) {
            let mut b = self.home(key);
            while self.buckets[b] != 0 {
                b = (b + 1) & (len - 1);
            }
            self.buckets[b] = next;
        }
    }
}

/// The half of stage 2 that cannot change inside a mine. Candidates live
/// in **slots**: the sorted frontier in `0..pairs.len()`, then every
/// further ancestor in the order the build first reached it. For each
/// dimension `j` in turn, every slot `a` present when pass `j` starts
/// whose dimension `j` is a constant is linked to the slot `t` of
/// `widen(a, j)`. Folding `f[t] += f[a]` along the links in recorded
/// order over `f = x ‖ 0…` leaves in each slot the sum of `x` over the
/// frontier LCAs it generalises, each counted once: an LCA reaches an
/// ancestor along exactly one path (wildcard the differing dimensions in
/// increasing `j`), and inside a pass every read has dimension `j`
/// constant and every write has it wild, so the two never alias.
struct ExpandPlan<K> {
    keys: Vec<K>,
    /// Per frontier slot: the raw `(row, sample)` pair count a full scan
    /// folds into it — what a later scan is checked against, and what a
    /// skipping one counts its passed-over rows from.
    pairs: Vec<u64>,
    links: Vec<(u32, u32)>,
    /// Per slot, its canonical rank: its key's place in sorted key order.
    rank: Vec<u32>,
    /// Per slot, with the sample multiplicity `c` (§3.1.1; 1 without an
    /// index) already divided out: exact `Σm` and `|support|`.
    sum_m: Vec<f64>,
    count: Vec<u64>,
    /// Per slot: `c`, the divisor each sweep's `Σm̂` still needs (1
    /// without an index). The build folds it along the links with `Σm`
    /// and the pair counts: a sample row's own tuple — the LCA it forms
    /// with itself — is a frontier key whenever the row is one of the
    /// data's, and a candidate covers exactly the sample rows whose tuples
    /// it generalises.
    mult: Vec<u32>,
    pairs_emitted: u64,
}

impl<K: RuleKey> ExpandPlan<K> {
    /// `None` when `clock`'s token fires part-way, or when a sample row's
    /// own tuple is no frontier key.
    fn build(
        frontier: &[(K, Agg)],
        cx: SweepCx<'_>,
        codec: &K::Codec,
        clock: &mut PollClock<'_>,
    ) -> Option<Self> {
        // `w ≤ d ≤ MAX_EXPAND_BITS` ([`SweepState::new`]).
        let pairs_emitted = (frontier.iter())
            .map(|(key, _)| 1u64 << (0..cx.d).filter(|&j| !key.is_wild(codec, j)).count())
            .sum();
        let mut keys: Vec<K> = Vec::with_capacity(frontier.len());
        // Sized as candidates typically outnumber the frontier: rehashing
        // on the way up costs a measurable slice of the build.
        let mut slot_of = SlotIndex::with_capacity(frontier.len() * 4);
        for (key, _) in frontier {
            slot_of.get_or_push(&mut keys, key.clone());
        }
        // Per frontier slot, the sample rows whose own tuple it is. The
        // miner draws the sample from the rows it scans, so each row's
        // tuple is a frontier key unless a failed spill read left a
        // partition empty: then no plan is built, and the miner reports
        // the store's error.
        let mut mult = vec![0u32; keys.len()];
        for row in cx.index.map_or(&[][..], SampleIndex::rows) {
            if clock.tick() {
                return None;
            }
            let slot = slot_of.find(&keys, &K::lca(codec, row, row)).ok()?;
            mult[slot as usize] += 1;
        }
        let mut links = Vec::new();
        for j in 0..cx.d {
            for a in 0..keys.len() {
                if keys[a].is_wild(codec, j) {
                    continue;
                }
                if clock.tick() {
                    return None;
                }
                let wide = keys[a].widen(codec, j);
                let t = slot_of.get_or_push(&mut keys, wide);
                links.push((a as u32, t));
            }
        }
        drop(slot_of);
        // The plan outlives its build by the whole mine: hand back the
        // slack `push` doubled into — a quarter of the plan's largest column
        // on `wide_expand`, where the unshrunk 4 MiB block is the next one
        // the trim threshold would come from (`SlotIndex`): peak RSS reads
        // 42–49 MB with it, 30–35 without.
        links.shrink_to_fit();
        let (mut sum_m, mut count): (Vec<f64>, Vec<u64>) =
            frontier.iter().map(|(_, agg)| (agg.0, agg.2)).unzip();
        sum_m.resize(keys.len(), 0.0);
        count.resize(keys.len(), 0);
        mult.resize(keys.len(), 0);
        fold_links(&links, clock, |a, t| {
            sum_m[t] += sum_m[a];
            count[t] += count[a];
            mult[t] += mult[a];
        })?;
        match cx.index {
            None => mult.fill(1),
            Some(idx) => {
                for (slot, key) in keys.iter().enumerate() {
                    let c = u64::from(mult[slot]);
                    debug_assert_eq!(c, idx.multiplicity(key.constants(codec)), "{slot}");
                    debug_assert_eq!(count[slot] % c, 0, "pair multiplicity must be uniform");
                    sum_m[slot] /= c as f64;
                    count[slot] /= c;
                }
            }
        }
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
        let mut rank = vec![0u32; keys.len()];
        for (r, &slot) in order.iter().enumerate() {
            rank[slot as usize] = r as u32;
        }
        Some(ExpandPlan {
            keys,
            pairs: frontier.iter().map(|(_, agg)| agg.2).collect(),
            links,
            rank,
            sum_m,
            count,
            mult,
            pairs_emitted,
        })
    }

    /// Whether a full scan's `frontier` is the one this plan was built
    /// from, as far as a sweep can tell: the same keys fed by the same pair
    /// counts. (The same rows under another measure column would pass — that
    /// much stays the caller's promise.)
    fn holds(&self, frontier: &[(K, Agg)]) -> bool {
        self.pairs.len() == frontier.len()
            && (self.keys.iter().zip(&self.pairs).zip(frontier))
                .all(|((key, &pairs), entry)| *key == entry.0 && pairs == entry.1 .2)
    }

    /// The frontier's `Σm̂` column from a scan that passed over every row
    /// whose estimate is `est`: per slot, `est` times the pairs the scan did
    /// not fold plus the `Σm̂` of those it did — one merge-walk of the
    /// sorted `scanned` entries against the plan's sorted frontier keys. A
    /// slot whose pairs were all scanned keeps its scanned sum untouched, so
    /// an estimate no row carries reproduces the full scan's bits whatever
    /// its value.
    ///
    /// `None` when `scanned` cannot be a part of this plan's frontier — a
    /// key the plan does not hold, or more pairs in a slot than it has:
    /// the caller rescans everything.
    fn closed_form(&self, scanned: &[(K, Agg)], est: f64) -> Option<Vec<f64>> {
        let mut rest = scanned;
        let mut column = Vec::with_capacity(self.keys.len());
        for (key, &pairs) in self.keys.iter().zip(&self.pairs) {
            let (sum, seen) = match rest.split_first() {
                Some(((k, agg), tail)) if k == key => {
                    rest = tail;
                    (agg.1, agg.2)
                }
                _ => (0.0, 0),
            };
            let counted = pairs.checked_sub(seen)?;
            column.push(if counted == 0 {
                sum
            } else {
                est * counted as f64 + sum
            });
        }
        rest.is_empty().then_some(column)
    }
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

/// What every stage of one sweep call reads.
#[derive(Clone, Copy)]
struct SweepCx<'a> {
    data: &'a Dataset<TupleBlock>,
    d: usize,
    index: Option<&'a SampleIndex>,
    cancel: Option<&'a CancellationToken>,
    /// [`SweepState::set_shared_estimate`]'s value.
    shared: Option<f64>,
}

/// One sweep's candidates by plan slot, as [`SweepState::sweep`] shows them
/// to its `pick`: the plan's `Σm` and multiplicity columns, the sweep's
/// folded `Σm̂` column and each slot's canonical rank, read in place —
/// nothing is gathered into rank order.
pub(crate) struct SlotSums<'a> {
    sum_m: &'a [f64],
    /// Folded, with the sample multiplicity `c` not yet divided out.
    sum_mhat: &'a [f64],
    mult: &'a [u32],
    rank: &'a [u32],
}

impl SlotSums<'_> {
    /// The candidate count: one per slot.
    pub(crate) fn len(&self) -> usize {
        self.rank.len()
    }

    /// Per slot, in slot order: `(Σm, Σm̂, canonical rank)`, with `c`
    /// divided out of `Σm̂`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (f64, f64, usize)> + '_ {
        let slots = self
            .sum_m
            .iter()
            .zip(self.sum_mhat)
            .zip(self.mult)
            .zip(self.rank);
        slots.map(|(((&sum_m, &sum_mhat), &c), &rank)| {
            (sum_m, sum_mhat / f64::from(c), rank as usize)
        })
    }
}

/// Both stages for one key type `K`: combine each data partition into the
/// canonically ordered frontier, make sure `plan` is this frontier's
/// (building it when it is missing or, which one mine cannot cause, the
/// frontier's keys or pair counts moved), fold the frontier's `Σm̂` column
/// through it, show `pick` every candidate's sums by slot and turn the
/// `(score, slot)` pairs it returns into rules.
///
/// With a plan in hand and a `shared` estimate, the combine passes over
/// the rows carrying it and the column comes from
/// [`ExpandPlan::closed_form`]; a scan the plan cannot account for is
/// thrown away and everything rescanned. Stage 2 runs on the driver,
/// outside the engine's scheduler, so it pushes its own one-task
/// [`StageRecord`] (work units in — links recorded and folded — candidates
/// out).
fn run_sweep<K: SweepKey>(
    cx: SweepCx<'_>,
    codec: &K::Codec,
    args: CombineArgs<'_>,
    plan: &mut Option<ExpandPlan<K>>,
    pick: impl FnOnce(SlotSums<'_>) -> Vec<(f64, usize)>,
) -> SweepOutcome {
    let mut skip = cx.shared.filter(|_| plan.is_some());
    let (frontier, counted) = loop {
        let bits = skip.map(f64::to_bits);
        let combined = cx.data.aggregate_partitions(
            "gain-sweep-combine",
            PartitionSweep::new,
            |_, blocks| K::combine(blocks, codec, CombineArgs { skip: bits, ..args }),
            PartitionSweep::merge,
        );
        if combined.cancelled {
            return cancelled_outcome();
        }
        let frontier = sorted_entries(combined.map);
        let Some(est) = skip else {
            break (frontier, None);
        };
        match plan.as_ref().and_then(|p| p.closed_form(&frontier, est)) {
            Some(column) => break (frontier, Some(column)),
            None => skip = None,
        }
    };
    let started = Instant::now();
    let mut clock = PollClock {
        work: 0,
        cancel: cx.cancel,
    };
    let sum_mhat = (|| {
        if is_cancelled(cx.cancel) {
            return None;
        }
        let mut f = match counted {
            Some(column) => column,
            None => {
                if !plan.as_ref().is_some_and(|p| p.holds(&frontier)) {
                    // Assigned whole or not at all: a cancelled build leaves `None`.
                    *plan = ExpandPlan::build(&frontier, cx, codec, &mut clock);
                }
                frontier.iter().map(|(_, agg)| agg.1).collect()
            }
        };
        let plan = plan.as_ref()?;
        f.resize(plan.keys.len(), 0.0);
        fold_links(&plan.links, &mut clock, |a, t| f[t] += f[a])?;
        Some(f)
    })();
    cx.data.engine().metrics().push_stage(StageRecord {
        label: "gain-sweep-expand".to_string(),
        tasks: vec![TaskRecord {
            records_in: clock.work,
            records_out: plan.as_ref().map_or(0, |p| p.keys.len() as u64),
            nanos: started.elapsed().as_nanos() as u64,
        }],
        shuffled_records: 0,
        shuffled_bytes: 0,
    });
    let (Some(sum_mhat), Some(plan)) = (sum_mhat, plan.as_ref()) else {
        return cancelled_outcome();
    };
    let sums = SlotSums {
        sum_m: &plan.sum_m,
        sum_mhat: &sum_mhat,
        mult: &plan.mult,
        rank: &plan.rank,
    };
    let candidates = pick(sums).into_iter().map(|(score, slot)| {
        let rule = plan.keys[slot].clone().into_rule(codec);
        let sum_mhat = sum_mhat[slot] / f64::from(plan.mult[slot]);
        (rule, plan.sum_m[slot], sum_mhat, plan.count[slot], score)
    });
    SweepOutcome {
        candidates: candidates.collect(),
        distinct_candidates: plan.keys.len() as u64,
        pairs_emitted: plan.pairs_emitted,
        cancelled: false,
    }
}

/// The sweep state of **one mine**: the options, the sample index — held
/// by reference, so a plan cannot meet a different sample — and the
/// `ExpandPlan` the first [`Self::sweep`] builds and later ones reuse.
/// Every call must scan the same rows with the same measure column; only
/// `m̂` may move between calls. (A scan whose LCA keys or per-key pair
/// counts are not the plan's rebuilds it; the same rows under another
/// measure column would not be noticed.) The miner creates one per request
/// and drops it on return; it is never cached across requests.
///
/// The first sweep scans every row. A later one scans every row too,
/// unless the caller has named the estimate most rows carry
/// ([`Self::set_shared_estimate`]): then it folds only the rows whose `m̂`
/// differs and counts the rest.
pub(crate) struct SweepState<'a> {
    d: usize,
    index: Option<&'a SampleIndex>,
    opts: &'a SweepOptions,
    shared: Option<f64>,
    // One per key type; only the one `opts` selects is ever filled.
    plan64: Option<ExpandPlan<u64>>,
    plan128: Option<ExpandPlan<u128>>,
    plan_rule: Option<ExpandPlan<Rule>>,
}

impl<'a> SweepState<'a> {
    /// `d` is the table's dimension count; `index` enables the sample-LCA
    /// strategy (`None` = full cube); `opts` picks the key type.
    ///
    /// # Panics
    /// Panics if `d > MAX_EXPAND_BITS`: a match mask holds one bit per
    /// dimension, and an LCA with `w` constants has `2^w` ancestors.
    pub(crate) fn new(d: usize, index: Option<&'a SampleIndex>, opts: &'a SweepOptions) -> Self {
        // Unreachable through the miner, which rejects tables with more
        // than MAX_EXPAND_BITS dimensions up front (typed InvalidConfig).
        // lint:allow(SL001) — internal expansion-size invariant, not user-reachable
        assert!(d <= MAX_EXPAND_BITS, "refusing to sweep {d} dimensions");
        SweepState {
            d,
            index,
            opts,
            shared: None,
            plan64: None,
            plan128: None,
            plan_rule: None,
        }
    }

    /// Name the estimate the next sweeps should count instead of scan —
    /// the one thing a caller may tell a state — or `None` to scan every
    /// row again. Tuples with the same rule-coverage bit array share one
    /// `m̂ = ∏ λᵢ` (§4.1), so after a few rules most rows carry the same
    /// number: the miner hands over the estimate of the RCT's largest
    /// group after each scaling pass.
    ///
    /// Once the state holds a plan, a sweep passes over every row whose
    /// `m̂` has exactly `estimate`'s bits and gives each LCA slot
    /// `estimate · (the slot's pair count − the pairs scanned) +
    /// Σm̂(scanned)` — the plan knows every slot's pair count from the
    /// first, full scan. The test is per row and on `m̂` alone, so **any**
    /// value is safe: one no row carries skips nothing and returns the full
    /// scan's bits; one many rows carry only has to be *their* `m̂`, which
    /// it is by the test itself. A sweep therefore scans `1 − (the share of
    /// rows carrying the estimate)` of the data, never more than a full
    /// scan. Against the full scan, `Σm̂` differs in association —
    /// `est · n + Σ` for `Σ_t m̂(t)` — hence in the last ulp (the product is
    /// the better-rounded of the two); candidates, their order, `Σm` and
    /// counts are the plan's and do not move.
    pub(crate) fn set_shared_estimate(&mut self, estimate: Option<f64>) {
        self.shared = estimate;
    }

    /// Run one sweep over the columnar dataset: combine as per-partition
    /// tasks on its engine's thread pool, then one fold of the frontier
    /// through the expand plan on the calling thread. `pick` reads every
    /// candidate's exact `(Σm, Σm̂)` and **canonical rank** (lexicographic
    /// rule order, wildcards last) where the plan's slots hold them
    /// ([`SlotSums`]), and returns the `(score, slot)` pairs to turn into
    /// [`SweepOutcome::candidates`], in its order: the miner keeps the
    /// best by gain in one pass over the slots, scoring a slot only where
    /// a logarithm-free bound leaves it a chance against the `k`-th gain
    /// kept so far ([`crate::multirule::top_k_by_gain`]), and pays for a
    /// [`Rule`] only where it keeps one.
    ///
    /// Under one shared estimate (or none) and one partitioning,
    /// bit-identical for every worker count (see the module docs), across
    /// every [`SweepOptions`] choice and frame encoding, and between a
    /// reused state and a fresh one; [`Self::set_shared_estimate`] says
    /// what an estimate moves.
    pub(crate) fn sweep(
        &mut self,
        data: &Dataset<TupleBlock>,
        cancel: Option<&CancellationToken>,
        pick: impl FnOnce(SlotSums<'_>) -> Vec<(f64, usize)>,
    ) -> SweepOutcome {
        let (d, index) = (self.d, self.index);
        let cx = SweepCx {
            data,
            d,
            index,
            cancel,
            shared: self.shared,
        };
        let args = CombineArgs {
            index,
            cancel,
            force: self.opts.combine,
            skip: None,
            d,
        };
        let layout = self.opts.layout.as_ref();
        match (layout, layout.and_then(RuleLayout::packed_bits)) {
            (Some(layout), Some(64)) => {
                run_sweep(cx, &layout.masks::<u64>(), args, &mut self.plan64, pick)
            }
            (Some(layout), Some(_)) => {
                run_sweep(cx, &layout.masks::<u128>(), args, &mut self.plan128, pick)
            }
            _ => run_sweep(cx, &(), args, &mut self.plan_rule, pick),
        }
    }
}

#[cfg(test)]
impl SweepOptions {
    /// Force every combine partition onto one [`CombineStrategy`] instead
    /// of the per-partition choice (the reference switch of the
    /// bit-identity tests; the mining output is identical either way).
    /// Forcing [`CombineStrategy::SlotTable`] waives only the rule's
    /// `2^d ≤ rows` clause: where no table can exist — no sample index, or
    /// one no mask or `u32` slot id can address — the partition probes.
    pub(crate) fn with_combine(mut self, strategy: CombineStrategy) -> SweepOptions {
        self.combine = Some(strategy);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::exhaustive_candidates;
    use crate::rct::mhat_for_mask;
    use crate::testkit::{small_table, synthetic_mhat};
    use proptest::prelude::*;
    use sirum_dataflow::{Engine, EngineConfig};
    use sirum_table::generators::flights;
    use sirum_table::Compression;
    use sirum_table::{ColScratch, Frame, Table};

    /// The `pick` that keeps every candidate, in canonical order, unscored.
    fn all(sums: SlotSums<'_>) -> Vec<(f64, usize)> {
        let mut slots: Vec<(f64, usize)> = vec![(0.0, 0); sums.len()];
        for (slot, (_, _, rank)) in sums.iter().enumerate() {
            slots[rank].1 = slot;
        }
        slots
    }

    /// One sweep on a fresh [`SweepState`], every candidate materialised in
    /// canonical order.
    fn sweep_gains(
        data: &Dataset<TupleBlock>,
        d: usize,
        index: Option<&SampleIndex>,
        cancel: Option<&CancellationToken>,
        opts: &SweepOptions,
    ) -> SweepOutcome {
        SweepState::new(d, index, opts).sweep(data, cancel, all)
    }

    /// `frame` as the miner distributes it: one seeded block (`m̂ = 1`)
    /// per partition.
    fn blocks_of(engine: &Engine, frame: &Frame, partitions: usize) -> Dataset<TupleBlock> {
        let blocks = TupleBlock::seed_partitions(frame, &frame.measure_slice(), partitions);
        Dataset::from_partitioned(engine, blocks)
    }

    fn blocks(engine: &Engine, table: &Table, partitions: usize) -> Dataset<TupleBlock> {
        blocks_of(engine, table.frame(), partitions)
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
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap();
        let data = blocks(&engine, &t, 4);
        for opts in all_variants(&t) {
            let out = sweep_gains(&data, 3, None, None, &opts);
            let exhaustive = exhaustive_candidates(&t, &[1.0; 14], None).expect("uncancelled");
            assert_eq!(out.candidates.len(), exhaustive.len());
            assert_eq!(out.distinct_candidates, exhaustive.len() as u64);
            for (rule, sm, smh, cnt, _) in &out.candidates {
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
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap();
        let data = blocks(&engine, &t, 3);
        for opts in all_variants(&t) {
            let out = sweep_gains(&data, 3, Some(&index), None, &opts);
            for (rule, sm, smh, cnt, _) in &out.candidates {
                let mut exp = (0.0, 0.0, 0u64);
                for (i, row) in t.rows().enumerate() {
                    if rule.matches(&row) {
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
            .map(|(r, a, b, c, _)| (r, a.to_bits(), b.to_bits(), c))
            .collect()
    }

    #[test]
    fn parallel_and_reference_paths_are_bit_identical() {
        // The reference is a one-worker engine: it runs every task inline
        // on the calling thread, in partition order.
        let t = flights();
        let sequential = Engine::try_new(EngineConfig::in_memory().with_workers(1)).unwrap();
        let seq_data = blocks(&sequential, &t, 5);
        for workers in [2, 4] {
            let engine = Engine::try_new(EngineConfig::in_memory().with_workers(workers)).unwrap();
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
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap();
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
        let frame = t.frame();
        let block = TupleBlock::seed_partitions(frame, &frame.measure_slice(), 1);
        let combine = |strategy| {
            let args = CombineArgs {
                index: Some(&index),
                force: strategy,
                ..CombineArgs::default()
            };
            let acc = u64::combine(&block, &masks, args);
            sorted_entries(acc.map)
                .into_iter()
                .map(|(code, (m, mh, n))| (code, m.to_bits(), mh.to_bits(), n))
                .collect::<Vec<_>>()
        };
        let slots = combine(Some(CombineStrategy::SlotTable));
        assert_eq!(slots, combine(Some(CombineStrategy::HashProbe)));
        // More (sample row, nonzero mask) table entries were touched than
        // there are distinct non-wild codes.
        let (view, mut scratch) = (frame.view(), ColScratch::new());
        let cols = view.morsel_cols(0, view.len(), &mut scratch);
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
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap();
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
    #[should_panic(expected = "refusing to sweep")]
    fn a_state_wider_than_a_match_mask_is_refused() {
        // A match mask holds MAX_EXPAND_BITS dimensions; past that an
        // indexed scan would fold wrong LCAs, so no state is made at all.
        let index = SampleIndex::build(
            vec![vec![0; MAX_EXPAND_BITS + 1].into()],
            MAX_EXPAND_BITS + 1,
        );
        let opts = SweepOptions::rule_keyed();
        let _state = SweepState::new(MAX_EXPAND_BITS + 1, Some(&index), &opts);
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
            .map(|&i| frame.view().gather_row_boxed(i))
            .collect();
        let index = SampleIndex::build(sample, 3);
        let chosen = |rows| CombineStrategy::for_partition(rows, 3, Some(index.len()));
        assert_eq!(chosen(8), CombineStrategy::SlotTable);
        assert_eq!(chosen(7), CombineStrategy::HashProbe);
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap();
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
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap();
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
        assert_eq!(layout.packed_bits(), Some(128));
        let opts = SweepOptions::packed(layout);
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap();
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
        assert_eq!(layout.packed_bits(), None);
        let opts = SweepOptions::packed(layout);
        let t = flights();
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap();
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
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap();
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
        // "pairs" by definition — pairs are a stage-2 quantity — so a poll
        // clock driven by a pair counter would never fire during a long
        // combine scan and cancel latency would be unbounded.
        // Arm a poll-budget token that self-cancels mid-combine and require
        // the sweep to notice within one CANCEL_POLL_ROWS window.
        let n = CANCEL_POLL_ROWS * 4;
        let cols = vec![
            (0..n).map(|i| (i % 7) as u32).collect(),
            (0..n).map(|i| (i % 3) as u32).collect(),
        ];
        let frame = Frame::from_columns_with_cards(cols, vec![1.0; n], vec![7, 3]);
        let engine = Engine::try_new(EngineConfig::single_thread()).unwrap();
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
            // the scan ends — and a cancelled sweep reports no pairs.
            assert_eq!(out.pairs_emitted, 0);
        }
        // The same through a sample index, where each (row, sample) pair
        // is one work unit: 2 pairs a row, 8 windows in the partition. The
        // third poll is the second in-scan one; a combine that polled only
        // at its partition boundary would reach stage 2's boundary poll
        // un-cancelled and finish the sweep.
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

    /// 4 dims, 60 rows over 2·3·2·5 = 60 cells hit unevenly (so some rows
    /// repeat), non-uniform `m` and `m̂`, in one partition.
    fn duplicated_rows(engine: &Engine) -> (Frame, Dataset<TupleBlock>) {
        let n = 60;
        let cols = vec![
            (0..n).map(|i| (i % 2) as u32).collect(),
            (0..n).map(|i| (i / 2 % 3) as u32).collect(),
            (0..n).map(|i| (i * i % 2) as u32).collect(),
            (0..n).map(|i| (i * 7 % 5) as u32).collect(),
        ];
        let measures: Vec<f64> = (0..n).map(|i| 0.25 + (i % 4) as f64).collect();
        let frame = Frame::from_columns_with_cards(cols, measures, vec![2, 3, 2, 5]);
        let blocks = TupleBlock::seed_partitions(&frame, &frame.measure_slice(), 1)
            .into_iter()
            .map(|b| b.with_mhat((0..b.len()).map(|i| 0.5 + (i % 7) as f64).collect()))
            .collect();
        (frame, Dataset::from_partitioned(engine, blocks))
    }

    #[test]
    fn the_transform_sums_exactly_the_frontier_entries_a_candidate_generalises() {
        let engine = Engine::try_new(EngineConfig::single_thread()).unwrap();
        let (frame, data) = duplicated_rows(&engine);
        let distinct_rows: std::collections::BTreeSet<Vec<u32>> = (0..60)
            .map(|i| frame.view().gather_row_boxed(i).into_vec())
            .collect();
        assert!(distinct_rows.len() < 60, "the table repeats rows");
        // Picks 7 and 31 twice each: duplicate sample rows share LCAs.
        let sample: Vec<Box<[u32]>> = [7usize, 31, 7, 44, 31]
            .iter()
            .map(|&i| frame.view().gather_row_boxed(i))
            .collect();
        let index = SampleIndex::build(sample, 4);
        let layout = RuleLayout::from_cardinalities(&[2, 3, 2, 5]);
        let masks = layout.masks::<u64>();
        let args = CombineArgs {
            index: Some(&index),
            ..CombineArgs::default()
        };
        let combined = u64::combine(&data.part(0), &masks, args);
        let frontier = sorted_entries(combined.map);
        // Built without the index, the plan's columns are the raw pair-level
        // sums — the transform itself, before any multiplicity division.
        let cx = SweepCx {
            data: &data,
            d: 4,
            index: None,
            cancel: None,
            shared: None,
        };
        let mut clock = PollClock {
            work: 0,
            cancel: None,
        };
        let plan = ExpandPlan::build(&frontier, cx, &masks, &mut clock).expect("uncancelled");
        let mut sum_mhat: Vec<f64> = frontier.iter().map(|(_, agg)| agg.1).collect();
        sum_mhat.resize(plan.keys.len(), 0.0);
        fold_links(&plan.links, &mut clock, |a, t| sum_mhat[t] += sum_mhat[a])
            .expect("uncancelled");

        let lcas: Vec<(Rule, Agg)> = frontier
            .iter()
            .map(|&(code, agg)| (layout.unpack(code), agg))
            .collect();
        let mut pairs_by_definition = 0;
        for (slot, &key) in plan.keys.iter().enumerate() {
            let candidate = layout.unpack(key);
            let mut expected: Agg = (0.0, 0.0, 0);
            for (lca, agg) in &lcas {
                if candidate.is_ancestor_of(lca) {
                    expected.0 += agg.0;
                    expected.1 += agg.1;
                    expected.2 += agg.2;
                    pairs_by_definition += 1;
                }
            }
            assert!(
                (plan.sum_m[slot] - expected.0).abs() < 1e-9,
                "{candidate:?}"
            );
            assert!((sum_mhat[slot] - expected.1).abs() < 1e-9, "{candidate:?}");
            assert_eq!(plan.count[slot], expected.2, "{candidate:?}");
        }
        // Slots are exactly the distinct ancestors of the frontier…
        let mut ancestors: Vec<Rule> = lcas
            .iter()
            .flat_map(|(lca, _)| crate::lattice::ancestors(lca))
            .collect();
        assert_eq!(plan.pairs_emitted, ancestors.len() as u64);
        assert_eq!(plan.pairs_emitted, pairs_by_definition);
        ancestors.sort();
        ancestors.dedup();
        let mut in_order: Vec<Option<Rule>> = vec![None; plan.keys.len()];
        for (&key, &rank) in plan.keys.iter().zip(&plan.rank) {
            in_order[rank as usize] = Some(layout.unpack(key));
        }
        assert_eq!(
            in_order,
            ancestors.into_iter().map(Some).collect::<Vec<_>>()
        );
        // …and the transform, not a lattice walk, fills them.
        assert!(plan.links.len() <= 4 * plan.keys.len());
        assert!((plan.links.len() as u64) < plan.pairs_emitted);
    }

    #[test]
    fn a_plan_cancelled_mid_build_is_not_kept() {
        // Full cube over enough distinct cells that the plan build alone
        // outlasts a poll window.
        let n = 3 * CANCEL_POLL_ROWS;
        let cols = vec![
            (0..n).map(|i| (i % 11) as u32).collect(),
            (0..n).map(|i| (i / 11 % 13) as u32).collect(),
            (0..n).map(|i| (i / 143 % 7) as u32).collect(),
            (0..n).map(|i| (i % 5) as u32).collect(),
        ];
        let frame = Frame::from_columns_with_cards(cols, vec![1.0; n], vec![11, 13, 7, 5]);
        let engine = Engine::try_new(EngineConfig::single_thread()).unwrap();
        let data = blocks_of(&engine, &frame, 1);
        let opts = SweepOptions::packed(RuleLayout::from_cardinalities(&[11, 13, 7, 5]));
        let fresh = sweep_gains(&data, 4, None, None, &opts);
        assert!(fresh.distinct_candidates as usize > CANCEL_POLL_ROWS);
        // Polls: the combine task's boundary and its 3 in-scan windows,
        // stage 2's boundary, then one per window of links recorded — the
        // 6th fires inside the build.
        let mut state = SweepState::new(4, None, &opts);
        let token = CancellationToken::new();
        token.cancel_after_polls(6);
        let out = state.sweep(&data, Some(&token), all);
        assert!(out.cancelled && out.candidates.is_empty());
        assert_eq!((out.pairs_emitted, out.distinct_candidates), (0, 0));
        assert!(state.plan64.is_none(), "half-built plan kept");
        // The next call builds from scratch and equals a fresh sweep; the
        // one after reuses that plan and still does.
        for _ in 0..2 {
            let out = state.sweep(&data, None, all);
            assert_eq!(out.pairs_emitted, fresh.pairs_emitted);
            assert_eq!(bits(out), bits(fresh.clone()));
            assert!(state.plan64.is_some());
        }
        // One poll earlier is stage 2's boundary: nothing was started.
        let token = CancellationToken::new();
        token.cancel_after_polls(5);
        let mut state = SweepState::new(4, None, &opts);
        assert!(state.sweep(&data, Some(&token), all).cancelled);
        assert!(state.plan64.is_none());
    }

    #[test]
    fn slot_index_numbers_keys_in_arrival_order_through_growth() {
        // From the smallest table (8 buckets) to 2 000 keys: eight
        // doublings. Multiples of 2^40 share their low bits, keys a
        // bucket-from-low-bits table would pile into one run.
        let key = |i: u64| if i.is_multiple_of(2) { i << 40 } else { i };
        let mut keys: Vec<u64> = Vec::new();
        let mut index = SlotIndex::with_capacity(0);
        for i in 0..2_000u64 {
            assert_eq!(index.get_or_push(&mut keys, key(i)), i as u32);
            // A key already in keeps its slot and adds none.
            assert_eq!(index.get_or_push(&mut keys, key(i / 2)), (i / 2) as u32);
        }
        assert_eq!(keys, (0..2_000).map(key).collect::<Vec<_>>());
        assert!(index.buckets.len() >= 2 * keys.len());
        // Rule keys go through the same table.
        let mut rules: Vec<Rule> = Vec::new();
        let mut index = SlotIndex::with_capacity(1);
        let rule = |i: u32| Rule::from_values(vec![i % 7, i / 7, crate::rule::WILDCARD]);
        for i in 0..100 {
            assert_eq!(index.get_or_push(&mut rules, rule(i)), i);
        }
        assert_eq!(index.get_or_push(&mut rules, rule(42)), 42);
        assert_eq!(rules.len(), 100);
    }

    #[test]
    fn a_plan_meeting_other_rows_is_rebuilt_not_served() {
        // One state swept over table A, then over a table B of the same
        // five distinct rows in other multiplicities — the same LCA keys
        // under one sample, other pair counts — must answer for B. In the
        // second case A lacks the last row altogether, so B also brings
        // keys the plan does not hold.
        let rows: [[u32; 3]; 5] = [[0, 0, 0], [0, 1, 1], [1, 1, 0], [2, 0, 1], [2, 1, 1]];
        // B's estimates: `EST` on all but the copies of row `odd`.
        const EST: f64 = 2.0;
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap();
        let table = |copies: [usize; 5], odd: Option<usize>| {
            let kinds: Vec<usize> = (0..5).flat_map(|r| vec![r; copies[r]]).collect();
            let cols = (0..3)
                .map(|j| kinds.iter().map(|&r| rows[r][j]).collect())
                .collect();
            let measures = (0..kinds.len()).map(|i| 0.5 + (i % 3) as f64).collect();
            let frame = Frame::from_columns_with_cards(cols, measures, vec![3, 2, 2]);
            let mhat = |i: usize| match odd {
                Some(r) if kinds[i] != r => EST,
                _ => 0.75 + i as f64,
            };
            let blocks = TupleBlock::seed_partitions(&frame, &frame.measure_slice(), 2)
                .into_iter()
                .map(|b| {
                    let start = b.dims().start();
                    b.with_mhat((start..start + b.len()).map(mhat).collect())
                })
                .collect();
            Dataset::from_partitioned(&engine, blocks)
        };
        let sample = vec![rows[0].into(), rows[3].into()];
        let index = SampleIndex::build(sample, 3);
        let packed = SweepOptions::packed(RuleLayout::from_cardinalities(&[3, 2, 2]));
        let variants = [
            SweepOptions::rule_keyed(),
            packed.clone(),
            packed.clone().with_combine(CombineStrategy::HashProbe),
            packed.with_combine(CombineStrategy::SlotTable),
        ];
        let combines_run = || {
            let stages = engine.metrics().stages();
            let combine = |s: &&StageRecord| s.label == "gain-sweep-combine";
            stages.iter().filter(combine).count()
        };
        for (a_copies, b_copies, odd) in [
            ([1, 2, 1, 3, 1], [4, 1, 2, 1, 3], 0),
            ([1, 2, 1, 3, 0], [1, 2, 1, 3, 2], 4),
        ] {
            let a = table(a_copies, None);
            let b = table(b_copies, Some(odd));
            for idx in [Some(&index), None] {
                for opts in &variants {
                    let fresh = sweep_gains(&b, 3, idx, None, opts);
                    let whole =
                        |out: SweepOutcome| (out.pairs_emitted, out.distinct_candidates, bits(out));
                    // Told nothing, the full scan of B finds pair counts (or
                    // keys) that are not the plan's and rebuilds it.
                    let mut state = SweepState::new(3, idx, opts);
                    state.sweep(&a, None, all);
                    assert_eq!(whole(state.sweep(&b, None, all)), whole(fresh.clone()));
                    // Told B's shared estimate, the scan that passes over
                    // those rows folds more pairs into row `odd`'s slots than
                    // the plan gives them (or meets keys it lacks): nothing
                    // is served from it — everything is scanned again.
                    let mut state = SweepState::new(3, idx, opts);
                    state.sweep(&a, None, all);
                    state.set_shared_estimate(Some(EST));
                    let before = combines_run();
                    assert_eq!(whole(state.sweep(&b, None, all)), whole(fresh.clone()));
                    assert_eq!(combines_run() - before, 2, "one skipping scan, one full");
                    // The rebuilt plan is B's: the next skipping scan is
                    // accepted, and differs from the full one in Σm̂'s
                    // rounding alone.
                    let before = combines_run();
                    let counted = state.sweep(&b, None, all);
                    assert_eq!(combines_run() - before, 1);
                    assert_eq!(counted.candidates.len(), fresh.candidates.len());
                    for (c, f) in counted.candidates.iter().zip(&fresh.candidates) {
                        assert_eq!((&c.0, c.1.to_bits(), c.3), (&f.0, f.1.to_bits(), f.3));
                        assert!((c.2 - f.2).abs() <= 1e-12 * f.2.abs(), "{:?}", c.0);
                    }
                }
            }
        }
    }

    #[test]
    fn stage_two_records_one_driver_side_stage_per_sweep() {
        let t = flights();
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap();
        let data = blocks(&engine, &t, 4);
        let index = sample_index(&t, &[3, 8, 0]);
        let opts = packed_opts(&t);
        let mut state = SweepState::new(3, Some(&index), &opts);
        let distinct = state.sweep(&data, None, all).distinct_candidates;
        state.sweep(&data, None, all);
        let stages = engine.metrics().stages();
        let labels: Vec<&str> = stages.iter().map(|s| s.label.as_str()).collect();
        let (combine, expand) = ("gain-sweep-combine", "gain-sweep-expand");
        assert_eq!(labels, [combine, expand, combine, expand]);
        // One task each: work units in, candidates out. The first sweep
        // looks up each of the 3 sample rows' own tuples, records every
        // link, folds Σm, the pair counts and the sample multiplicities
        // along them in one pass and folds Σm̂; the second only folds Σm̂.
        let (built, reused) = (&stages[1].tasks, &stages[3].tasks);
        assert_eq!((built.len(), reused.len()), (1, 1));
        assert_eq!(
            (built[0].records_out, reused[0].records_out),
            (distinct, distinct)
        );
        let links = reused[0].records_in;
        assert!(links > 0 && links <= 3 * distinct);
        assert_eq!(built[0].records_in, 3 + 3 * links);
    }

    #[test]
    fn the_all_wild_slot_is_folded_only_when_a_pair_reaches_it() {
        // The slot table folds `mask == 0` into a pre-set slot that starts
        // at zero; the probing sinks into a register. (a) A constant column
        // puts every pair on that dimension, so no pair has mask 0 and the
        // slot stays empty; (b) rows that rarely agree with the sample put
        // most pairs there. Forced slot table ≡ forced hash-probe, frontier
        // and sweep alike, and an empty all-wild slot is not an entry.
        let n = 64;
        let constant = vec![
            vec![0; n],
            (0..n).map(|i| (i % 3) as u32).collect(),
            (0..n).map(|i| (i % 5) as u32).collect(),
        ];
        let scattered = vec![
            (0..n).map(|i| (i % 17) as u32).collect(),
            (0..n).map(|i| (i % 13) as u32).collect(),
            (0..n).map(|i| (i % 11) as u32).collect(),
        ];
        for (cols, cards, wild_pairs) in [
            (constant, vec![1, 3, 5], false),
            (scattered, vec![17, 13, 11], true),
        ] {
            let measures = (0..n).map(|i| 0.25 + (i % 6) as f64).collect();
            let frame = Frame::from_columns_with_cards(cols, measures, cards.clone());
            let sample = [2usize, 9, 40, 9]
                .iter()
                .map(|&i| frame.view().gather_row_boxed(i))
                .collect();
            let index = SampleIndex::build(sample, 3);
            let layout = RuleLayout::from_cardinalities(&cards);
            let masks = layout.masks::<u64>();
            let block = TupleBlock::seed_partitions(&frame, &frame.measure_slice(), 1);
            let frontier = |strategy| {
                let args = CombineArgs {
                    index: Some(&index),
                    force: Some(strategy),
                    ..CombineArgs::default()
                };
                let map = u64::combine(&block, &masks, args).map;
                (map.get(&masks.all_wild()).copied(), sorted_entries(map))
            };
            let (wild, slots) = frontier(CombineStrategy::SlotTable);
            let (probed_wild, probed) = frontier(CombineStrategy::HashProbe);
            let agg_bits = |e: &[(u64, Agg)]| {
                e.iter()
                    .map(|&(code, (m, mh, c))| (code, m.to_bits(), mh.to_bits(), c))
                    .collect::<Vec<_>>()
            };
            assert_eq!(agg_bits(&slots), agg_bits(&probed));
            assert_eq!(wild.is_some(), wild_pairs, "{cards:?}");
            assert_eq!(probed_wild.is_some(), wild_pairs);
            if let Some((_, _, pairs)) = wild {
                assert!(pairs > n as u64 * 2, "the all-wild LCA dominates: {pairs}");
            }
            let engine = Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap();
            let data = blocks_of(&engine, &frame, 2);
            let packed = SweepOptions::packed(layout);
            let sweep = |opts: &SweepOptions| bits(sweep_gains(&data, 3, Some(&index), None, opts));
            let table = sweep(&packed.clone().with_combine(CombineStrategy::SlotTable));
            assert_eq!(
                table,
                sweep(&packed.with_combine(CombineStrategy::HashProbe))
            );
            assert_eq!(table, sweep(&SweepOptions::rule_keyed()));
        }
    }

    /// Whether every slot of `plan` divides by the multiplicity the sample
    /// index counts for its key.
    fn folded_multiplicities_hold<K: RuleKey>(
        plan: Option<&ExpandPlan<K>>,
        codec: &K::Codec,
        index: &SampleIndex,
    ) -> bool {
        plan.is_some_and(|plan| {
            (plan.keys.iter().zip(&plan.mult))
                .all(|(key, &c)| u64::from(c) == index.multiplicity(key.constants(codec)))
        })
    }

    #[test]
    fn a_sample_row_the_scan_never_meets_builds_no_plan() {
        // Row 0 with row 7's origin is no row of the flights table, so its
        // own tuple is no frontier key, as when a failed spill read has
        // left a partition empty: every key type returns no plan and no
        // candidates, without tripping the multiplicity checks.
        let t = flights();
        let outside: Box<[u32]> = {
            let mut row = t.row(0).to_vec();
            row[1] = t.row(7)[1];
            assert!(t.rows().all(|r| *r != row[..]), "{row:?} is a row");
            row.into()
        };
        let mut sample: Vec<Box<[u32]>> = [3usize, 8, 3]
            .iter()
            .map(|&i| t.row(i).to_vec().into_boxed_slice())
            .collect();
        sample.push(outside);
        let index = SampleIndex::build(sample, 3);
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap();
        let data = blocks(&engine, &t, 3);
        for opts in all_variants(&t) {
            let mut state = SweepState::new(3, Some(&index), &opts);
            let out = state.sweep(&data, None, all);
            assert!(out.cancelled, "{opts:?}");
            assert_eq!((out.candidates.len(), out.distinct_candidates), (0, 0));
            let planned = [
                state.plan64.is_some(),
                state.plan128.is_some(),
                state.plan_rule.is_some(),
            ];
            assert_eq!(planned, [false; 3], "{opts:?}");
        }
    }

    mod multiplicity {
        use super::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn folded_multiplicity_matches_the_sample_index(
                (rows, picks, partitions, workers) in (1usize..=5).prop_flat_map(|d| (
                    prop::collection::vec(
                        (prop::collection::vec(0u32..3, d), 0.0f64..10.0),
                        1..40,
                    ),
                    prop::collection::vec(0usize..40, 1..7),
                    1usize..5,
                    1usize..=2,
                ))
            ) {
                // Every slot's `c`, folded along the links from the sample
                // rows' own tuples, is the index's count of the sample rows
                // the slot's key covers — for u64, u128 and `Rule` keys,
                // with duplicate sample rows.
                let d = rows[0].0.len();
                let cols = (0..d).map(|j| rows.iter().map(|r| r.0[j]).collect()).collect();
                let measures = rows.iter().map(|r| r.1).collect();
                let frame = Frame::from_columns_with_cards(cols, measures, vec![3; d]);
                let sample: Vec<Box<[u32]>> = (picks.iter())
                    .map(|&i| rows[i % rows.len()].0.clone().into())
                    .collect();
                let index = SampleIndex::build(sample, d);
                let engine =
                    Engine::try_new(EngineConfig::in_memory().with_workers(workers)).unwrap();
                let data = blocks_of(&engine, &frame, partitions);
                let narrow = RuleLayout::from_cardinalities(&vec![3; d]);
                let wide = RuleLayout::from_cardinalities(&vec![1 << 30; d]);
                let rule_keyed = SweepOptions::rule_keyed();
                let reference = bits(sweep_gains(&data, d, Some(&index), None, &rule_keyed));
                for opts in [
                    SweepOptions::rule_keyed(),
                    SweepOptions::packed(narrow.clone()),
                    SweepOptions::packed(wide.clone()),
                ] {
                    let mut state = SweepState::new(d, Some(&index), &opts);
                    prop_assert_eq!(&bits(state.sweep(&data, None, all)), &reference);
                    let held = match opts.layout.as_ref().and_then(RuleLayout::packed_bits) {
                        Some(64) => folded_multiplicities_hold(
                            state.plan64.as_ref(),
                            &opts.layout.as_ref().expect("packed").masks::<u64>(),
                            &index,
                        ),
                        Some(_) => folded_multiplicities_hold(
                            state.plan128.as_ref(),
                            &opts.layout.as_ref().expect("packed").masks::<u128>(),
                            &index,
                        ),
                        None => folded_multiplicities_hold(state.plan_rule.as_ref(), &(), &index),
                    };
                    prop_assert!(held, "{:?}", opts);
                }
            }
        }
    }

    /// `table` as the miner distributes it — one columnar block per partition
    /// — with the [`synthetic_mhat`] estimate column.
    fn sweep_blocks(engine: &Engine, table: &Table, partitions: usize) -> Dataset<TupleBlock> {
        sweep_blocks_with(engine, table, partitions, Compression::Never)
    }

    /// [`sweep_blocks`] over a frame stored under `compression`.
    fn sweep_blocks_with(
        engine: &Engine,
        table: &Table,
        partitions: usize,
        compression: Compression,
    ) -> Dataset<TupleBlock> {
        sweep_blocks_mhat(engine, table, partitions, compression, synthetic_mhat)
    }

    /// [`sweep_blocks_with`] under the estimate column `mhat(global row)`.
    fn sweep_blocks_mhat(
        engine: &Engine,
        table: &Table,
        partitions: usize,
        compression: Compression,
        mhat: fn(usize) -> f64,
    ) -> Dataset<TupleBlock> {
        let column: Vec<f64> = (0..table.num_rows()).map(mhat).collect();
        sweep_blocks_column(engine, table, partitions, compression, &column)
    }

    /// [`sweep_blocks_with`] under the estimate column `mhat`, one per row.
    fn sweep_blocks_column(
        engine: &Engine,
        table: &Table,
        partitions: usize,
        compression: Compression,
        mhat: &[f64],
    ) -> Dataset<TupleBlock> {
        let frame = table.frame().with_compression(compression);
        let blocks = TupleBlock::seed_partitions(&frame, &frame.measure_slice(), partitions)
            .into_iter()
            .map(|block| {
                let start = block.dims().start();
                block.with_mhat(mhat[start..start + block.len()].to_vec())
            })
            .collect();
        Dataset::from_partitioned(engine, blocks)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn parallel_sweep_is_bit_identical_to_the_sequential_reference(
            (table, picks, partitions, workers) in small_table().prop_flat_map(|t| {
                let n = t.num_rows();
                (
                    Just(t),
                    prop::collection::vec(0..n, 1..6),
                    1usize..7,
                    1usize..5,
                )
            })
        ) {
            // The determinism claim: per-candidate (Σm, Σm̂) from the
            // engine-parallel sweep equal the sequential reference — the same
            // sweep on a one-worker engine, which runs every task inline on
            // the calling thread in partition order — BIT FOR BIT for any
            // table, partition count and worker count, and across every
            // accumulator-key representation (Rule-keyed, packed u64
            // slot-table, packed hash-probe).
            let d = table.num_dims();
            let sample: Vec<Box<[u32]>> = picks
                .iter()
                .map(|&i| table.row(i).to_vec().into_boxed_slice())
                .collect();
            let index = SampleIndex::build(sample, d);
            let engine = Engine::try_new(EngineConfig::in_memory().with_workers(workers)).unwrap();
            let data = sweep_blocks(&engine, &table, partitions);
            let sequential = Engine::try_new(EngineConfig::in_memory().with_workers(1)).unwrap();
            let seq_data = sweep_blocks(&sequential, &table, partitions);
            for idx in [Some(&index), None] {
                let mut baseline = None;
                for opts in all_variants(&table) {
                    let par = sweep_gains(&data, d, idx, None, &opts);
                    let seq = sweep_gains(&seq_data, d, idx, None, &opts);
                    prop_assert_eq!(par.pairs_emitted, seq.pairs_emitted);
                    prop_assert_eq!(par.distinct_candidates, seq.distinct_candidates);
                    let par_bits = bits(par);
                    prop_assert_eq!(&par_bits, &bits(seq));
                    match &baseline {
                        None => baseline = Some(par_bits),
                        Some(b) => prop_assert_eq!(b, &par_bits),
                    }
                }
            }
        }

        #[test]
        fn combine_strategies_agree_across_frames_and_under_cancellation(
            (table, picks, partitions, workers, compressed) in small_table().prop_flat_map(|t| {
                let n = t.num_rows();
                (
                    Just(t),
                    prop::collection::vec(0..n, 1..6),
                    1usize..7,
                    1usize..5,
                    any::<bool>(),
                )
            })
        ) {
            // Addressing stage-1 accumulators by (sample row, match mask)
            // instead of hashing a code per pair changes NOTHING. Forced slot-table ≡ forced hash-probe ≡ the
            // per-partition choice (which mixes slot-table and hashed
            // partitions on these sizes) ≡ Rule-keyed: candidates
            // bit for bit AND in the same order, the same pair accounting —
            // on raw and compressed frames, for any partitioning and worker
            // count — and the same outcome when a token fires at any poll.
            let d = table.num_dims();
            // Duplicate picks stay in: they are the "two sample rows, one
            // slot" case.
            let sample: Vec<Box<[u32]>> = picks
                .iter()
                .map(|&i| table.row(i).to_vec().into_boxed_slice())
                .collect();
            let index = SampleIndex::build(sample, d);
            let compression = if compressed { Compression::Always } else { Compression::Never };
            let ordered = |out: &SweepOutcome| bits(out.clone());
            let engine = Engine::try_new(EngineConfig::in_memory().with_workers(workers)).unwrap();
            let data = sweep_blocks_with(&engine, &table, partitions, compression);
            let mut baseline = None;
            for opts in all_variants(&table) {
                let out = sweep_gains(&data, d, Some(&index), None, &opts);
                prop_assert!(!out.cancelled);
                let got = (ordered(&out), out.pairs_emitted, out.distinct_candidates);
                match &baseline {
                    None => baseline = Some(got),
                    Some(b) => prop_assert_eq!(b, &got, "{:?}", opts),
                }
            }
            // A one-worker engine polls in a fixed sequence (each combine
            // task's boundary, then stage 2's, then once per window of links
            // the key-generic plan build and fold go through), so a
            // poll-budget token stops every variant at the same point.
            let sequential = Engine::try_new(EngineConfig::in_memory().with_workers(1)).unwrap();
            let seq_data = sweep_blocks_with(&sequential, &table, partitions, compression);
            for polls in 1..=(2 * partitions as u64 + 1) {
                let mut baseline = None;
                for opts in all_variants(&table) {
                    let token = CancellationToken::new();
                    token.cancel_after_polls(polls);
                    let out = sweep_gains(&seq_data, d, Some(&index), Some(&token), &opts);
                    let got = (out.cancelled, out.pairs_emitted, ordered(&out));
                    match &baseline {
                        None => baseline = Some(got),
                        Some(b) => prop_assert_eq!(b, &got, "{:?} after {} polls", opts, polls),
                    }
                }
            }
        }

        #[test]
        fn a_reused_sweep_plan_is_a_fresh_sweep(
            (table, picks, partitions, workers, compressed) in small_table().prop_flat_map(|t| {
                let n = t.num_rows();
                (
                    Just(t),
                    prop::collection::vec(0..n, 1..6),
                    1usize..7,
                    1usize..5,
                    any::<bool>(),
                )
            })
        ) {
            // What stage 2 keeps between the iterations of a mine — links,
            // canonical order, multiplicities, Σm, support counts — changes
            // NOTHING. One state swept at m̂₁ and
            // then at m̂₂ equals a one-shot sweep at m̂₂: candidates bit for bit
            // AND in order, pair accounting, candidate count — for every key
            // type and combine strategy, with and without a sample (duplicate
            // picks kept), on raw and compressed frames, for any partitioning
            // and worker count — and whenever a token stops the reused sweep
            // it stops a fresh one with the same outcome.
            let d = table.num_dims();
            let sample: Vec<Box<[u32]>> = picks
                .iter()
                .map(|&i| table.row(i).to_vec().into_boxed_slice())
                .collect();
            let index = SampleIndex::build(sample, d);
            let compression = if compressed { Compression::Always } else { Compression::Never };
            let other_mhat: fn(usize) -> f64 = |i| 0.25 + 1.5 * (i % 5) as f64;
            let engine = Engine::try_new(EngineConfig::in_memory().with_workers(workers)).unwrap();
            let sequential = Engine::try_new(EngineConfig::in_memory().with_workers(1)).unwrap();
            let blocks = |engine, mhat| sweep_blocks_mhat(engine, &table, partitions, compression, mhat);
            let (first, second) = (blocks(&engine, synthetic_mhat), blocks(&engine, other_mhat));
            let (seq_first, seq_second) =
                (blocks(&sequential, synthetic_mhat), blocks(&sequential, other_mhat));
            let whole = |out: &SweepOutcome| {
                (out.cancelled, out.pairs_emitted, out.distinct_candidates, bits(out.clone()))
            };
            let armed = |polls: u64| {
                let token = CancellationToken::new();
                token.cancel_after_polls(polls);
                token
            };
            // More polls than any sweep of these tables makes.
            let poll_budgets = 1..=(partitions as u64 + 32);
            for idx in [Some(&index), None] {
                for opts in all_variants(&table) {
                    let fresh = whole(&sweep_gains(&second, d, idx, None, &opts));
                    let mut state = SweepState::new(d, idx, &opts);
                    let built = state.sweep(&first, None, all);
                    prop_assert_eq!(whole(&built), whole(&sweep_gains(&first, d, idx, None, &opts)));
                    prop_assert_ne!(&whole(&built), &fresh);
                    prop_assert_eq!(&whole(&state.sweep(&second, None, all)), &fresh, "{:?}", opts);

                    // A token firing at each poll of the reused sweep in turn
                    // (fixed sequence on one worker; a cancelled fold leaves
                    // the plan in place for the next budget).
                    let mut state = SweepState::new(d, idx, &opts);
                    state.sweep(&seq_first, None, all);
                    let mut completed = false;
                    for polls in poll_budgets.clone() {
                        let reused = state.sweep(&seq_second, Some(&armed(polls)), all);
                        if !reused.cancelled {
                            prop_assert_eq!(&whole(&reused), &fresh, "{:?}", opts);
                            completed = true;
                            break;
                        }
                        let one_shot = sweep_gains(&seq_second, d, idx, Some(&armed(polls)), &opts);
                        prop_assert_eq!(whole(&reused), whole(&one_shot), "{:?} after {} polls", opts, polls);
                    }
                    prop_assert!(completed);

                    // A state cancelled before it has a plan — in combine, at
                    // stage 2's boundary or part-way through the build — holds
                    // no half-built one: its next sweep matches a fresh one.
                    completed = false;
                    for polls in poll_budgets.clone() {
                        let mut state = SweepState::new(d, idx, &opts);
                        completed = !state.sweep(&seq_second, Some(&armed(polls)), all).cancelled;
                        prop_assert_eq!(&whole(&state.sweep(&seq_second, None, all)), &fresh, "{:?}", opts);
                        if completed {
                            break;
                        }
                    }
                    prop_assert!(completed);
                }
            }
        }

        #[test]
        fn rows_sharing_an_estimate_are_counted_not_scanned(
            (table, picks, masks, lambdas, partitions, workers) in small_table().prop_flat_map(|t| {
                let n = t.num_rows();
                (
                    Just(t),
                    prop::collection::vec(0..n, 1..6),
                    prop::collection::vec(0u64..8, n),
                    prop::collection::vec(0.25f64..4.0, 3),
                    1usize..7,
                    1usize..5,
                )
            })
        ) {
            // A sweep told the estimate most rows carry passes over those
            // rows and accounts for them as `est · pairs`, and that changes
            // nothing but Σm̂'s rounding. Rows
            // get random rule-coverage bit arrays and the estimate the RCT
            // write-out gives them, m̂ = ∏ λᵢ over the set bits; the state is
            // built at another m̂ and then told the largest group's estimate.
            let d = table.num_dims();
            let sample: Vec<Box<[u32]>> = picks
                .iter()
                .map(|&i| table.row(i).to_vec().into_boxed_slice())
                .collect();
            let index = SampleIndex::build(sample, d);
            let mhat: Vec<f64> = masks.iter().map(|&mask| mhat_for_mask(mask, &lambdas)).collect();
            let mut group_sizes = [0usize; 8];
            masks.iter().for_each(|&mask| group_sizes[mask as usize] += 1);
            let largest = (0..8).rev().max_by_key(|&mask| group_sizes[mask]).unwrap();
            let shared = mhat_for_mask(largest as u64, &lambdas);
            let carried = mhat.iter().filter(|mh| mh.to_bits() == shared.to_bits()).count();
            prop_assert!(carried >= group_sizes[largest] && carried > 0);
            let whole = |out: &SweepOutcome| {
                (out.cancelled, out.pairs_emitted, out.distinct_candidates, bits(out.clone()))
            };
            // Every frame encoding and worker count, as (blocks at the synthetic
            // m̂, blocks at `mhat`); the first pair is raw on one worker.
            let mut datasets = Vec::new();
            for compression in [Compression::Never, Compression::Always] {
                for workers in [1, workers] {
                    let engine = Engine::try_new(EngineConfig::in_memory().with_workers(workers)).unwrap();
                    datasets.push((
                        sweep_blocks_with(&engine, &table, partitions, compression),
                        sweep_blocks_column(&engine, &table, partitions, compression, &mhat),
                    ));
                }
            }
            for idx in [Some(&index), None] {
                // Under the same estimate every key type, combine strategy,
                // frame encoding and worker count gives the same bits.
                let mut counted: Option<SweepOutcome> = None;
                for opts in all_variants(&table) {
                    for (first, second) in &datasets {
                        // One state per sweep: built at the synthetic m̂, told
                        // `estimate`, swept at `mhat`.
                        let told = |estimate| {
                            let mut state = SweepState::new(d, idx, &opts);
                            state.sweep(first, None, all);
                            state.set_shared_estimate(Some(estimate));
                            state.sweep(second, None, all)
                        };
                        let fresh = sweep_gains(second, d, idx, None, &opts);
                        // An estimate no row carries — whatever it is —
                        // skips nothing: the full scan's bits.
                        for nobodys in [f64::NAN, -1.0, f64::INFINITY] {
                            let out = told(nobodys);
                            prop_assert_eq!(whole(&out), whole(&fresh), "{:?} {}", opts, nobodys);
                        }
                        // The largest group's: exact in everything but Σm̂,
                        // which moves in its last places only.
                        let out = told(shared);
                        prop_assert_eq!(
                            (out.cancelled, out.pairs_emitted, out.distinct_candidates),
                            (false, fresh.pairs_emitted, fresh.distinct_candidates)
                        );
                        prop_assert_eq!(out.candidates.len(), fresh.candidates.len());
                        for (c, f) in out.candidates.iter().zip(&fresh.candidates) {
                            prop_assert_eq!((&c.0, c.1.to_bits(), c.3), (&f.0, f.1.to_bits(), f.3));
                            prop_assert!(
                                (c.2 - f.2).abs() <= 1e-12 * f.2.abs(),
                                "{:?}: {} vs {} ({:?})", c.0, c.2, f.2, opts
                            );
                        }
                        match &counted {
                            None => counted = Some(out),
                            Some(b) => prop_assert_eq!(whole(b), whole(&out), "{:?}", opts),
                        }
                    }
                }
                let counted = whole(&counted.expect("at least one variant"));

                // A token firing at each poll of the skipping sweep in turn
                // (fixed sequence on one worker): cancelled and empty, or the
                // un-cancelled outcome — and the plan still serves the next.
                let (first, second) = &datasets[0];
                for opts in all_variants(&table) {
                    let mut state = SweepState::new(d, idx, &opts);
                    state.sweep(first, None, all);
                    state.set_shared_estimate(Some(shared));
                    let mut completed = false;
                    for polls in 1..=(partitions as u64 + 32) {
                        let token = CancellationToken::new();
                        token.cancel_after_polls(polls);
                        let out = state.sweep(second, Some(&token), all);
                        if !out.cancelled {
                            prop_assert_eq!(&whole(&out), &counted, "{:?}", opts);
                            completed = true;
                            break;
                        }
                        prop_assert_eq!(
                            (out.candidates.len(), out.pairs_emitted, out.distinct_candidates),
                            (0, 0, 0)
                        );
                        prop_assert_eq!(
                            &whole(&state.sweep(second, None, all)), &counted,
                            "{:?} after {} polls", opts, polls
                        );
                    }
                    prop_assert!(completed);
                }
            }
        }

        #[test]
        fn sweep_aggregates_equal_the_exhaustive_reference(
            (table, picks) in small_table().prop_flat_map(|t| {
                let n = t.num_rows();
                (Just(t), prop::collection::vec(0..n, 1..6))
            })
        ) {
            // Semantic exactness: the sweep's adjusted sums equal the exact
            // support-set sums of the exhaustive reference aggregation.
            let d = table.num_dims();
            let mhat: Vec<f64> = (0..table.num_rows()).map(synthetic_mhat).collect();
            let sample: Vec<Box<[u32]>> = picks
                .iter()
                .map(|&i| table.row(i).to_vec().into_boxed_slice())
                .collect();
            let index = SampleIndex::build(sample, d);
            let engine = Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap();
            let data = sweep_blocks(&engine, &table, 3);
            let exhaustive = exhaustive_candidates(&table, &mhat, None).expect("uncancelled");
            for opts in all_variants(&table) {
                let out = sweep_gains(&data, d, Some(&index), None, &opts);
                for (rule, sum_m, sum_mhat, count, _) in &out.candidates {
                    let (em, emh, ec) = exhaustive[rule];
                    prop_assert!((sum_m - em).abs() < 1e-6, "{:?}: {} vs {}", rule, sum_m, em);
                    prop_assert!((sum_mhat - emh).abs() < 1e-6, "{:?}", rule);
                    prop_assert_eq!(*count, ec, "{:?}", rule);
                }
            }
        }
    }
}
