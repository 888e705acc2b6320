//! Rules: elements of the multidimensional space
//! `(dom(A₁) ∪ {*}) × ⋯ × (dom(A_d) ∪ {*})` (§2.1 of the thesis), with the
//! match / least-common-ancestor / disjointness relations SIRUM is built on.

use crate::lattice::MAX_EXPAND_BITS;
use sirum_dataflow::hash::fx_hash_one;
use sirum_dataflow::{Encode, Record};
use sirum_table::Table;
use std::fmt;
use std::hash::Hash;

/// Sentinel dimension code meaning "matches every value" (the paper's `*`).
pub const WILDCARD: u32 = u32::MAX;

/// A rule: one dictionary code or [`WILDCARD`] per dimension attribute.
///
/// `Ord` (lexicographic over the value slice, like the derived `Eq`)
/// exists so rules can key ordered containers and sort shuffle output —
/// the dataflow layer orders reduce results by key to keep distributed
/// aggregation independent of hash-iteration order.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rule {
    values: Box<[u32]>,
}

impl Rule {
    /// The all-wildcards rule `(*, …, *)` over `d` dimensions — always the
    /// first rule SIRUM selects.
    pub fn all_wildcards(d: usize) -> Rule {
        // lint:allow(SL001) — documented constructor contract; zero-dimension rules are meaningless
        assert!(d > 0);
        Rule {
            values: vec![WILDCARD; d].into_boxed_slice(),
        }
    }

    /// Build a rule from explicit per-dimension codes.
    pub fn from_values(values: Vec<u32>) -> Rule {
        // lint:allow(SL001) — documented constructor contract; zero-dimension rules are meaningless
        assert!(!values.is_empty());
        Rule {
            values: values.into_boxed_slice(),
        }
    }

    /// Treat a tuple's dimension codes as the (bottom-of-lattice) rule that
    /// matches exactly that value combination.
    pub(crate) fn from_tuple(tuple: &[u32]) -> Rule {
        Rule {
            values: tuple.to_vec().into_boxed_slice(),
        }
    }

    /// Number of dimension attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Per-dimension codes (with [`WILDCARD`] entries).
    pub fn values(&self) -> &[u32] {
        &self.values
    }

    /// Value in dimension `i`.
    pub fn get(&self, i: usize) -> u32 {
        self.values[i]
    }

    /// Whether dimension `i` is a wildcard.
    pub fn is_wildcard(&self, i: usize) -> bool {
        self.values[i] == WILDCARD
    }

    /// The rule's constant positions with their codes, `(dimension, code)`
    /// — the only columns a columnar scan needs to touch. Every columnar
    /// match site (miner data path, evaluator, streaming history) resolves
    /// its column storage from this one iterator.
    pub(crate) fn constants(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != WILDCARD)
            .map(|(j, &v)| (j, v))
    }

    /// `t ⊨ r`: the tuple matches this rule (every non-wildcard position
    /// agrees). §2.1.
    #[inline]
    pub fn matches(&self, tuple: &[u32]) -> bool {
        debug_assert_eq!(tuple.len(), self.values.len());
        self.values
            .iter()
            .zip(tuple)
            .all(|(&r, &t)| r == WILDCARD || r == t)
    }

    /// Rules are disjoint iff some attribute has two different constants
    /// (§2.1). Disjoint rules have provably disjoint support sets.
    pub(crate) fn is_disjoint(&self, other: &Rule) -> bool {
        debug_assert_eq!(self.arity(), other.arity());
        self.values
            .iter()
            .zip(other.values.iter())
            .any(|(&a, &b)| a != WILDCARD && b != WILDCARD && a != b)
    }

    /// Replace position `i` with a wildcard, producing a parent rule.
    pub(crate) fn generalize(&self, i: usize) -> Rule {
        let mut values = self.values.to_vec();
        values[i] = WILDCARD;
        Rule {
            values: values.into_boxed_slice(),
        }
    }

    /// Render with the table's dictionaries, e.g. `(*, *, London)`.
    pub fn display(&self, table: &Table) -> String {
        let mut out = String::from("(");
        for (i, &v) in self.values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            if v == WILDCARD {
                out.push('*');
            } else {
                out.push_str(table.decode(i, v));
            }
        }
        out.push(')');
        out
    }
}

/// Rules hash and compare exactly like their value slices (the derived
/// `Hash`/`Eq` delegate to `Box<[u32]>`, which delegates to `[u32]`), so a
/// `HashMap<Rule, _>` can be probed with a borrowed `&[u32]` — the gain
/// sweep's per-partition accumulators rely on this to skip a `Rule`
/// allocation on every hit.
impl std::borrow::Borrow<[u32]> for Rule {
    fn borrow(&self) -> &[u32] {
        &self.values
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, &v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if v == WILDCARD {
                write!(f, "*")?;
            } else {
                write!(f, "{v}")?;
            }
        }
        write!(f, ")")
    }
}

impl Encode for Rule {
    fn encode(&self, out: &mut Vec<u8>) {
        self.values.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Self {
        Rule {
            values: Box::<[u32]>::decode(buf),
        }
    }
    fn size_estimate(&self) -> usize {
        8 + self.values.len() * 4
    }
}

/// An unsigned integer wide enough to hold a whole rule as one dense code —
/// the gain sweep's hot-path key type (`u64` or `u128`).
///
/// The supertraits are exactly what the sweep accumulators need: map keys
/// (`Eq + Hash`), canonical frontier ordering (`Ord`), spill via the
/// dataflow layer (`Encode`), and cross-thread frontier datasets
/// (`Send + Sync + 'static`).
/// The arithmetic surface is the minimal shift/mask set [`RuleLayout`]
/// packs and unpacks with, kept as named methods so the trait stays
/// object-simple and every call site inlines to single instructions.
pub(crate) trait PackedCode:
    Copy + Eq + Ord + std::hash::Hash + std::fmt::Debug + Encode + Send + Sync + 'static
{
    /// Width of the code type in bits.
    const BITS: u32;
    /// The all-zero code.
    const ZERO: Self;
    /// Zero-extend one dimension code into the low field.
    fn from_u32(v: u32) -> Self;
    /// The low 32 bits (a field isolated by shift/mask).
    fn low_u32(self) -> u32;
    /// Left shift by `n < Self::BITS`.
    fn shl(self, n: u32) -> Self;
    /// Right shift by `n < Self::BITS`.
    fn shr(self, n: u32) -> Self;
    /// Bitwise or.
    fn bitor(self, rhs: Self) -> Self;
    /// Bitwise and.
    fn bitand(self, rhs: Self) -> Self;
    /// Bitwise complement.
    fn not(self) -> Self;
}

macro_rules! impl_packed_code {
    ($($t:ty),*) => {$(
        impl PackedCode for $t {
            const BITS: u32 = <$t>::BITS;
            const ZERO: Self = 0;
            #[inline]
            fn from_u32(v: u32) -> Self {
                v as $t
            }
            #[inline]
            fn low_u32(self) -> u32 {
                self as u32
            }
            #[inline]
            fn shl(self, n: u32) -> Self {
                self << n
            }
            #[inline]
            fn shr(self, n: u32) -> Self {
                self >> n
            }
            #[inline]
            fn bitor(self, rhs: Self) -> Self {
                self | rhs
            }
            #[inline]
            fn bitand(self, rhs: Self) -> Self {
                self & rhs
            }
            #[inline]
            fn not(self) -> Self {
                !self
            }
        }
    )*};
}

impl_packed_code!(u64, u128);

/// The all-ones field mask of width `w` (`1 ≤ w ≤ C::BITS`) in the low bits.
#[inline]
fn field_mask<C: PackedCode>(w: u32) -> C {
    C::ZERO.not().shr(C::BITS - w)
}

/// Per-dimension bit-widths derived from the table's dictionary
/// cardinalities: the layout that packs a whole rule into one integer code.
///
/// Dimension `j` with cardinality `cⱼ` gets `wⱼ = max(1, bit_length(cⱼ))`
/// bits — wide enough for codes `0..cⱼ` *plus* a reserved all-ones slot
/// encoding the wildcard (`bit_length(c) = ceil(log2(c + 1))`, so
/// `2^wⱼ − 1 ≥ cⱼ` and no real code collides with the slot; for a full
/// 32-bit field the all-ones slot *is* `u32::MAX`, which is exactly
/// [`WILDCARD`]). Fields are laid out with dimension 0 in the most
/// significant bits, which makes the integer order of packed codes
/// identical to the lexicographic order of [`Rule::values`] slices with
/// `WILDCARD` sorting last in each position — so the canonical frontier
/// sort on codes equals the canonical sort on the rules they decode to.
///
/// A layout always constructs; [`RuleLayout::packed_bits`] picks `u64`,
/// `u128`, or the `Rule`-keyed fallback when `total_bits` exceeds even 128.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleLayout {
    widths: Box<[u32]>,
    /// `shifts[j]` = bits to the right of field `j` (dim 0 is most
    /// significant).
    shifts: Box<[u32]>,
    total_bits: u32,
}

impl RuleLayout {
    /// Derive the layout from per-dimension dictionary cardinalities.
    pub fn from_cardinalities(cards: &[u32]) -> RuleLayout {
        let widths: Box<[u32]> = cards
            .iter()
            .map(|&c| (32 - c.leading_zeros()).max(1))
            .collect();
        let total_bits = widths.iter().sum();
        let mut shifts = vec![0u32; widths.len()].into_boxed_slice();
        let mut acc = 0u32;
        for j in (0..widths.len()).rev() {
            shifts[j] = acc;
            acc += widths[j];
        }
        RuleLayout {
            widths,
            shifts,
            total_bits,
        }
    }

    /// Whether the layout fits in code type `C`.
    pub(crate) fn fits<C: PackedCode>(&self) -> bool {
        self.total_bits <= C::BITS
    }

    /// The code width candidate rules key by under this layout — the
    /// narrowest that holds it: `Some(64)` for `u64`, `Some(128)` for
    /// `u128`, `None` for [`Rule`] keys when it exceeds 128 bits. The
    /// sweep, the staged pipeline and the service's plan all ask here.
    pub fn packed_bits(&self) -> Option<u32> {
        if self.fits::<u64>() {
            Some(64)
        } else if self.fits::<u128>() {
            Some(128)
        } else {
            None
        }
    }

    /// Precompute the in-position field masks for hot-path code surgery.
    pub(crate) fn masks<C: PackedCode>(&self) -> PackedMasks<C> {
        debug_assert!(self.fits::<C>());
        let wild: Box<[C]> = (0..self.widths.len())
            .map(|j| field_mask::<C>(self.widths[j]).shl(self.shifts[j]))
            .collect();
        let all_wild = wild.iter().fold(C::ZERO, |acc, &m| acc.bitor(m));
        PackedMasks {
            wild,
            shifts: self.shifts.clone(),
            all_wild,
        }
    }
}

/// Precomputed in-position field masks for a [`RuleLayout`]: everything the
/// sweep's inner loops need to build LCA codes and widen dimensions without
/// re-deriving shifts.
#[derive(Debug, Clone)]
pub(crate) struct PackedMasks<C> {
    /// `wild[j]`: dimension `j`'s all-ones (wildcard) field, in position.
    wild: Box<[C]>,
    shifts: Box<[u32]>,
    all_wild: C,
}

impl<C: PackedCode> PackedMasks<C> {
    /// Number of dimension attributes.
    pub(crate) fn num_dims(&self) -> usize {
        self.wild.len()
    }

    /// The all-wildcards rule `(*, …, *)` as a code.
    #[inline]
    pub(crate) fn all_wild(&self) -> C {
        self.all_wild
    }

    /// Whether dimension `j` of `code` is the wildcard (real codes never
    /// fill their field with ones — the layout reserves that slot).
    #[inline]
    pub(crate) fn is_wild(&self, code: C, j: usize) -> bool {
        code.bitand(self.wild[j]) == self.wild[j]
    }

    /// Dimension `j`'s constant in `code`, or `None` where it is the
    /// wildcard.
    #[inline]
    pub(crate) fn constant(&self, code: C, j: usize) -> Option<u32> {
        let field = code.bitand(self.wild[j]);
        (field != self.wild[j]).then(|| field.shr(self.shifts[j]).low_u32())
    }

    /// `code` with dimension `j` set to the constant `v`.
    #[inline]
    pub(crate) fn with_constant(&self, code: C, j: usize, v: u32) -> C {
        code.bitand(self.wild[j].not())
            .bitor(C::from_u32(v).shl(self.shifts[j]))
    }

    /// `code` with dimension `j` generalized to the wildcard.
    #[inline]
    pub(crate) fn widen(&self, code: C, j: usize) -> C {
        code.bitor(self.wild[j])
    }
}

/// A candidate rule key: a [`Rule`], or the rule as one packed `u64`/`u128`
/// code ([`RuleLayout`]). Both candidate paths — the fused sweep
/// ([`crate::sweep`]) and the staged pipeline ([`crate::miner`]'s LCA join,
/// ancestor stages and adjust + gain) — are written once over this trait;
/// [`RuleLayout::packed_bits`] picks the implementation.
///
/// Both representations order, group and route alike: packed integer
/// order is lexicographic rule order, and [`Self::route`] is the `Rule`'s
/// own hash, so a key reaches the same reducer at the same position in
/// either form and every float sum adds in the same sequence.
pub(crate) trait RuleKey: Record + Eq + Hash + Ord {
    /// What building and reading keys takes: nothing for `Rule`, the
    /// layout's field masks for a code.
    type Codec: Sync;

    /// The all-wildcards rule `(*, …, *)` over `d` dimensions.
    fn all_wild(cx: &Self::Codec, d: usize) -> Self;

    /// Set dimension `j` to the constant `v`.
    fn set_constant(&mut self, cx: &Self::Codec, j: usize, v: u32);

    /// Whether dimension `j` is the wildcard.
    fn is_wild(&self, cx: &Self::Codec, j: usize) -> bool;

    /// The parent with dimension `j` generalized to the wildcard.
    fn widen(&self, cx: &Self::Codec, j: usize) -> Self;

    /// The constant positions with their codes, as [`Rule::constants`].
    fn constants<'a>(&'a self, cx: &'a Self::Codec) -> impl Iterator<Item = (usize, u32)> + 'a;

    /// The shuffle route: [`fx_hash_one`] of the equivalent [`Rule`]. That
    /// is the un-rotated Fx state, not the rotated
    /// [`std::hash::Hasher::finish`] maps bucket by: a route picks the
    /// reducer, and so which candidates survive there. A code computes it
    /// from its fields, without building the `Rule`.
    fn route(&self, cx: &Self::Codec) -> u64;

    /// The key as a [`Rule`].
    fn into_rule(self, cx: &Self::Codec) -> Rule;

    /// `lca(a, b)`, compared one dimension at a time (§3.1.1); `lca(t, t)`
    /// is the tuple `t` itself.
    #[inline]
    fn lca(cx: &Self::Codec, a: &[u32], b: &[u32]) -> Self {
        let mut key = Self::all_wild(cx, a.len());
        for (j, (&x, &y)) in a.iter().zip(b).enumerate() {
            if x == y {
                key.set_constant(cx, j, x);
            }
        }
        key
    }

    /// Append to `out` the ancestors of this key that widen a subset of
    /// its constants among `positions`, in subset order — subset `s`
    /// widens `live[b]` for every set bit `b`, `live` being the constant
    /// positions in `positions`' order. Each is one [`Self::widen`] of an
    /// earlier one (`s` without its lowest bit).
    fn expand_into(&self, cx: &Self::Codec, positions: &[usize], out: &mut Vec<Self>) {
        let is_live = |&&i: &&usize| !self.is_wild(cx, i);
        let w = positions.iter().filter(is_live).count();
        // lint:allow(SL001) — expansion-size cap; the miner and the service's stream() reject >MAX_EXPAND_BITS-dim tables with typed errors
        assert!(
            w <= MAX_EXPAND_BITS,
            "refusing to expand 2^{w} ancestors; use column grouping or sampling"
        );
        let mut live = [0usize; MAX_EXPAND_BITS];
        for (slot, &i) in live.iter_mut().zip(positions.iter().filter(is_live)) {
            *slot = i;
        }
        let base = out.len();
        out.reserve(1 << w);
        out.push(self.clone());
        for subset in 1..1usize << w {
            let wider = out[base + (subset & (subset - 1))]
                .widen(cx, live[subset.trailing_zeros() as usize]);
            out.push(wider);
        }
    }
}

impl RuleKey for Rule {
    type Codec = ();

    fn all_wild(_: &(), d: usize) -> Rule {
        Rule::all_wildcards(d)
    }

    fn set_constant(&mut self, _: &(), j: usize, v: u32) {
        self.values[j] = v;
    }

    fn is_wild(&self, _: &(), j: usize) -> bool {
        self.is_wildcard(j)
    }

    fn widen(&self, _: &(), j: usize) -> Rule {
        self.generalize(j)
    }

    fn constants<'a>(&'a self, _: &'a ()) -> impl Iterator<Item = (usize, u32)> + 'a {
        Rule::constants(self)
    }

    fn route(&self, _: &()) -> u64 {
        fx_hash_one(self)
    }

    fn into_rule(self, _: &()) -> Rule {
        self
    }
}

impl<C: PackedCode> RuleKey for C {
    type Codec = PackedMasks<C>;

    #[inline]
    fn all_wild(masks: &PackedMasks<C>, _: usize) -> C {
        masks.all_wild()
    }

    #[inline]
    fn set_constant(&mut self, masks: &PackedMasks<C>, j: usize, v: u32) {
        *self = masks.with_constant(*self, j, v);
    }

    #[inline]
    fn is_wild(&self, masks: &PackedMasks<C>, j: usize) -> bool {
        masks.is_wild(*self, j)
    }

    #[inline]
    fn widen(&self, masks: &PackedMasks<C>, j: usize) -> C {
        masks.widen(*self, j)
    }

    fn constants<'a>(
        &'a self,
        masks: &'a PackedMasks<C>,
    ) -> impl Iterator<Item = (usize, u32)> + 'a {
        (0..masks.num_dims()).filter_map(|j| Some((j, masks.constant(*self, j)?)))
    }

    /// The `Rule`'s hash, fed straight from the code's fields: no values
    /// are spelled out and nothing is allocated.
    #[inline]
    fn route(&self, masks: &PackedMasks<C>) -> u64 {
        fx_hash_one(&Spelled { code: *self, masks })
    }

    fn into_rule(self, masks: &PackedMasks<C>) -> Rule {
        Rule::from_values(spell(self, masks, &mut [WILDCARD; 128]).to_vec())
    }
}

/// A code read as the value slice of its [`Rule`], for hashing only.
struct Spelled<'a, C> {
    code: C,
    masks: &'a PackedMasks<C>,
}

impl<C: PackedCode> Hash for Spelled<'_, C> {
    /// What `Hash for [u32]` feeds [`sirum_dataflow::hash::FxHasher`] for
    /// the `Rule`'s values: the length, then the values' bytes, which the
    /// hasher takes eight at a time (two values, the first in the low
    /// half) and then a four-byte tail when the length is odd.
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let d = self.masks.num_dims();
        let value = |j| {
            let v = self.masks.constant(self.code, j).unwrap_or(WILDCARD);
            // The hasher reads the slice's native-order bytes as
            // little-endian words.
            v.to_le()
        };
        state.write_usize(d);
        for j in (0..d - d % 2).step_by(2) {
            state.write_u64(u64::from(value(j)) | u64::from(value(j + 1)) << 32);
        }
        if d % 2 == 1 {
            state.write_u32(value(d - 1));
        }
    }
}

/// `code`'s rule values, spelled into the front of `buf` (wildcards
/// preset; a code holds at most 128 one-bit fields).
fn spell<'a, C: PackedCode>(code: C, masks: &PackedMasks<C>, buf: &'a mut [u32; 128]) -> &'a [u32] {
    for (j, v) in code.constants(masks) {
        buf[j] = v;
    }
    &buf[..masks.num_dims()]
}

#[cfg(test)]
impl Rule {
    /// Number of non-wildcard positions (the rule's depth in the lattice).
    pub(crate) fn num_constants(&self) -> usize {
        self.values.iter().filter(|&&v| v != WILDCARD).count()
    }

    /// Indices of the non-wildcard positions.
    pub(crate) fn constant_positions(&self) -> Vec<usize> {
        (0..self.values.len())
            .filter(|&i| self.values[i] != WILDCARD)
            .collect()
    }

    /// Least common ancestor of two tuples (§2.1): keep positions where they
    /// agree, wildcard the rest.
    pub(crate) fn lca(a: &[u32], b: &[u32]) -> Rule {
        debug_assert_eq!(a.len(), b.len());
        Rule {
            values: a
                .iter()
                .zip(b)
                .map(|(&x, &y)| if x == y { x } else { WILDCARD })
                .collect(),
        }
    }

    /// `self` is an ancestor of `other` (generalization order, §2.5): every
    /// position is either a wildcard or equal to `other`'s. Every rule is its
    /// own ancestor.
    pub(crate) fn is_ancestor_of(&self, other: &Rule) -> bool {
        debug_assert_eq!(self.arity(), other.arity());
        self.values
            .iter()
            .zip(other.values.iter())
            .all(|(&a, &b)| a == WILDCARD || a == b)
    }
}

#[cfg(test)]
impl RuleLayout {
    /// Number of dimension attributes.
    pub(crate) fn num_dims(&self) -> usize {
        self.widths.len()
    }

    /// Bits needed to pack one whole rule.
    pub(crate) fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Bit-width of dimension `j`'s field.
    pub(crate) fn width(&self, j: usize) -> u32 {
        self.widths[j]
    }

    /// Pack a rule's value slice (codes and [`WILDCARD`]s) into one code.
    ///
    /// Callers must have checked [`RuleLayout::fits`]; packing into a
    /// too-narrow type would silently drop high fields, so this is guarded
    /// in debug builds.
    #[inline]
    pub(crate) fn pack<C: PackedCode>(&self, values: &[u32]) -> C {
        debug_assert_eq!(values.len(), self.widths.len());
        debug_assert!(self.fits::<C>());
        let mut code = C::ZERO;
        for (j, &v) in values.iter().enumerate() {
            let w = self.widths[j];
            let field = if v == WILDCARD {
                field_mask::<C>(w)
            } else {
                debug_assert!(w == 32 || u64::from(v) < (1u64 << w));
                C::from_u32(v)
            };
            code = code.shl(w).bitor(field);
        }
        code
    }

    /// Decode a packed code back into a [`Rule`] (all-ones fields become
    /// wildcards). Inverse of [`RuleLayout::pack`].
    pub(crate) fn unpack<C: PackedCode>(&self, code: C) -> Rule {
        let values: Vec<u32> = (0..self.widths.len())
            .map(|j| {
                let w = self.widths[j];
                let mask = field_mask::<C>(w);
                let field = code.shr(self.shifts[j]).bitand(mask);
                if field == mask {
                    WILDCARD
                } else {
                    field.low_u32()
                }
            })
            .collect();
        Rule::from_values(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{rule, tuple, MAX_D};
    use proptest::prelude::*;
    use proptest::prop::collection::vec;

    fn r(vals: &[i64]) -> Rule {
        // -1 denotes a wildcard in test shorthand.
        Rule::from_values(
            vals.iter()
                .map(|&v| if v < 0 { WILDCARD } else { v as u32 })
                .collect(),
        )
    }

    #[test]
    fn matches_per_paper_example() {
        // Table 1.1 tuple t6 = (Sat, Frankfurt, London) with codes.
        let t6 = [5u32, 4, 0];
        // r1=(*,*,*), r2=(*,*,London=0), r3=(Fri=0,*,*), r4=(Sat=5,*,*)
        assert!(r(&[-1, -1, -1]).matches(&t6));
        assert!(r(&[-1, -1, 0]).matches(&t6));
        assert!(!r(&[0, -1, -1]).matches(&t6));
        assert!(r(&[5, -1, -1]).matches(&t6));
    }

    #[test]
    fn lca_keeps_agreements() {
        // lca((Fri,SF,London),(Sun,Chicago,London)) = (*,*,London)
        let l = Rule::lca(&[0, 1, 2], &[3, 4, 2]);
        assert_eq!(l, r(&[-1, -1, 2]));
        // lca of identical tuples is the tuple itself.
        assert_eq!(Rule::lca(&[1, 2, 3], &[1, 2, 3]), r(&[1, 2, 3]));
        // lca of fully different tuples is all wildcards.
        assert_eq!(Rule::lca(&[1, 2, 3], &[4, 5, 6]), r(&[-1, -1, -1]));
    }

    #[test]
    fn ancestor_order() {
        let bottom = r(&[0, 1, 2]);
        let mid = r(&[-1, 1, 2]);
        let top = r(&[-1, -1, -1]);
        assert!(top.is_ancestor_of(&mid));
        assert!(mid.is_ancestor_of(&bottom));
        assert!(top.is_ancestor_of(&bottom));
        assert!(!bottom.is_ancestor_of(&mid));
        // Reflexive.
        assert!(mid.is_ancestor_of(&mid));
        // Incomparable rules.
        let other = r(&[0, -1, -1]);
        assert!(!other.is_ancestor_of(&mid));
        assert!(!mid.is_ancestor_of(&other));
    }

    #[test]
    fn disjointness_per_paper_examples() {
        // (Fri, London, LA) vs (*, SF, LA): different Origin → disjoint.
        assert!(r(&[0, 1, 2]).is_disjoint(&r(&[-1, 3, 2])));
        // (Wed, *, *) vs (*, *, London): overlapping by definition even
        // though their support sets in Table 1.1 are disjoint.
        assert!(!r(&[6, -1, -1]).is_disjoint(&r(&[-1, -1, 0])));
        // A rule always overlaps itself and its ancestors.
        let x = r(&[1, -1, 2]);
        assert!(!x.is_disjoint(&x));
        assert!(!x.is_disjoint(&r(&[-1, -1, 2])));
    }

    #[test]
    fn disjoint_rules_have_disjoint_support() {
        // Exhaustive check over a tiny universe: if two rules are disjoint,
        // no tuple matches both.
        let rules: Vec<Rule> = vec![
            r(&[-1, -1]),
            r(&[0, -1]),
            r(&[1, -1]),
            r(&[-1, 0]),
            r(&[0, 0]),
            r(&[1, 1]),
        ];
        for a in &rules {
            for b in &rules {
                if a.is_disjoint(b) {
                    for x in 0..3u32 {
                        for y in 0..3u32 {
                            assert!(
                                !(a.matches(&[x, y]) && b.matches(&[x, y])),
                                "{a:?} and {b:?} both match ({x},{y})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn generalize_and_counts() {
        let x = r(&[1, 2, 3]);
        assert_eq!(x.num_constants(), 3);
        let g = x.generalize(1);
        assert_eq!(g, r(&[1, -1, 3]));
        assert_eq!(g.num_constants(), 2);
        assert_eq!(g.constant_positions(), vec![0, 2]);
        assert!(g.is_ancestor_of(&x));
    }

    #[test]
    fn encode_round_trip() {
        let x = r(&[1, -1, 3, -1]);
        let mut buf = Vec::new();
        x.encode(&mut buf);
        let mut s = buf.as_slice();
        assert_eq!(Rule::decode(&mut s), x);
        assert!(s.is_empty());
    }

    #[test]
    fn layout_widths_reserve_the_wildcard_slot() {
        let l = RuleLayout::from_cardinalities(&[1, 2, 3, 4, 7, 8, 256]);
        // bit_length(c): room for codes 0..c plus the all-ones wildcard.
        let widths: Vec<u32> = (0..l.num_dims()).map(|j| l.width(j)).collect();
        assert_eq!(widths, vec![1, 2, 2, 3, 3, 4, 9]);
        assert_eq!(l.total_bits(), 24);
        assert!(l.fits::<u64>() && l.fits::<u128>());
        // Zero-cardinality columns still get one (wildcard-only) bit.
        assert_eq!(RuleLayout::from_cardinalities(&[0]).total_bits(), 1);
        // Saturated cardinality (u32::MAX) takes a full 32-bit field whose
        // all-ones slot coincides with the WILDCARD sentinel itself.
        let wide = RuleLayout::from_cardinalities(&[u32::MAX; 4]);
        assert_eq!(wide.total_bits(), 128);
        assert!(!wide.fits::<u64>() && wide.fits::<u128>());
        assert!(!RuleLayout::from_cardinalities(&[u32::MAX; 5]).fits::<u128>());
    }

    #[test]
    fn pack_unpack_round_trips() {
        let l = RuleLayout::from_cardinalities(&[6, 3, 300, 2]);
        for rule in [
            r(&[-1, -1, -1, -1]),
            r(&[5, 2, 299, 1]),
            r(&[0, 0, 0, 0]),
            r(&[-1, 2, -1, 0]),
            r(&[3, -1, 17, -1]),
        ] {
            let c64: u64 = l.pack(rule.values());
            let c128: u128 = l.pack(rule.values());
            assert_eq!(l.unpack(c64), rule);
            assert_eq!(l.unpack(c128), rule);
            assert_eq!(u128::from(c64), c128);
        }
    }

    #[test]
    fn packed_order_is_lexicographic_rule_order() {
        // Integer order of codes == lexicographic order of value slices
        // (wildcard = u32::MAX sorts last in both worlds).
        let l = RuleLayout::from_cardinalities(&[5, 9, 2]);
        let mut rules = Vec::new();
        for a in [0u32, 3, WILDCARD] {
            for b in [0u32, 8, WILDCARD] {
                for c in [0u32, 1, WILDCARD] {
                    rules.push(r(&[
                        if a == WILDCARD { -1 } else { a as i64 },
                        if b == WILDCARD { -1 } else { b as i64 },
                        if c == WILDCARD { -1 } else { c as i64 },
                    ]));
                }
            }
        }
        let mut by_code: Vec<Rule> = rules.clone();
        by_code.sort_by_key(|x| l.pack::<u64>(x.values()));
        let mut by_values = rules;
        by_values.sort_by(|x, y| x.values().cmp(y.values()));
        assert_eq!(by_code, by_values);
    }

    #[test]
    fn masks_do_in_place_code_surgery() {
        let l = RuleLayout::from_cardinalities(&[6, 3, 300]);
        let m = l.masks::<u64>();
        assert_eq!(m.num_dims(), 3);
        assert_eq!(l.unpack::<u64>(m.all_wild()), r(&[-1, -1, -1]));
        let c = m.with_constant(m.all_wild(), 1, 2);
        assert_eq!(l.unpack(c), r(&[-1, 2, -1]));
        assert!(!m.is_wild(c, 1) && m.is_wild(c, 0) && m.is_wild(c, 2));
        let c = m.with_constant(c, 0, 5);
        assert_eq!(l.unpack(c), r(&[5, 2, -1]));
        assert_eq!(l.unpack(m.widen(c, 1)), r(&[5, -1, -1]));
        assert_eq!((m.constant(c, 0), m.constant(c, 1)), (Some(5), Some(2)));
        assert_eq!(m.constant(c, 2), None);
        // Masks agree with pack on a fully-constant tuple.
        let t = [4u32, 1, 123];
        let mut built = m.all_wild();
        for (j, &v) in t.iter().enumerate() {
            built = m.with_constant(built, j, v);
        }
        assert_eq!(built, l.pack::<u64>(&t));
    }

    /// Every key operation the sample index drives on codes of width `C`,
    /// against the same operation on `Rule`s.
    fn indexed_codes_agree_with_rules<C: PackedCode>(layout: &RuleLayout, sample: &[Box<[u32]>]) {
        use crate::candidates::SampleIndex;
        let masks = layout.masks::<C>();
        let d = layout.num_dims();
        let index = SampleIndex::build(sample.to_vec(), d);
        let agg = (1.5, 2.5, 1);
        let rule_of = |code: C| code.into_rule(&masks);
        for tuple in sample {
            let (mut codes, mut rules) = (Vec::<(C, _)>::new(), Vec::<(Rule, _)>::new());
            index.lca_keys_into(&masks, tuple, agg, &mut codes);
            index.lca_keys_into(&(), tuple, agg, &mut rules);
            let lcas: Vec<Rule> = codes.iter().map(|&(c, _)| rule_of(c)).collect();
            let expected: Vec<Rule> = rules.into_iter().map(|(r, _)| r).collect();
            assert_eq!(lcas, expected);
            assert_eq!(
                rule_of(C::lca(&masks, tuple, tuple)),
                Rule::from_tuple(tuple)
            );
            for (s, (code, _)) in sample.iter().zip(&codes) {
                assert_eq!(C::lca(&masks, s, tuple), *code);
                let rule = rule_of(*code);
                assert_eq!(rule, Rule::lca(s, tuple));
                assert_eq!(*code, layout.pack::<C>(rule.values()));
                assert_eq!(code.route(&masks), fx_hash_one(&rule));
                assert!(code.constants(&masks).eq(rule.constants()));
                assert_eq!(
                    index.multiplicity(code.constants(&masks)),
                    index.multiplicity(rule.constants())
                );
                for group in [vec![0, 2], vec![1], (0..d).collect()] {
                    let group: Vec<usize> = group.into_iter().filter(|&j| j < d).collect();
                    let (mut wider, mut parents) = (Vec::new(), Vec::new());
                    code.expand_into(&masks, &group, &mut wider);
                    rule.expand_into(&(), &group, &mut parents);
                    assert_eq!(wider.into_iter().map(rule_of).collect::<Vec<_>>(), parents);
                }
            }
        }
    }

    #[test]
    fn rule_keys_agree_across_representations() {
        // Codes near the top of their fields included, so the u128 case
        // ([1 << 30; 3] needs 93 bits) exercises its upper word.
        let sample: Vec<Box<[u32]>> = [
            [0, 5, 1 << 29],
            [0, 5, 7],
            [(1 << 30) - 1, 5, 7],
            [3, (1 << 30) - 2, 1 << 29],
        ]
        .iter()
        .map(|row| row.to_vec().into_boxed_slice())
        .collect();
        let wide = RuleLayout::from_cardinalities(&[1 << 30; 3]);
        assert_eq!(wide.packed_bits(), Some(128));
        indexed_codes_agree_with_rules::<u128>(&wide, &sample);
        let narrow: Vec<Box<[u32]>> = sample
            .iter()
            .map(|row| row.iter().map(|&v| v % 9).collect())
            .collect();
        let layout = RuleLayout::from_cardinalities(&[9; 3]);
        assert_eq!(layout.packed_bits(), Some(64));
        indexed_codes_agree_with_rules::<u64>(&layout, &narrow);

        // One dimension, and an even four, in both widths. Each sample
        // holds two rows that differ everywhere, so the all-wild code is
        // among the keys whose routes are checked.
        let boxed =
            |rows: &[&[u32]]| -> Vec<Box<[u32]>> { rows.iter().map(|&r| r.into()).collect() };
        let one = boxed(&[&[0], &[4], &[4], &[2]]);
        let layout = RuleLayout::from_cardinalities(&[5]);
        indexed_codes_agree_with_rules::<u64>(&layout, &one);
        indexed_codes_agree_with_rules::<u128>(&layout, &one);
        let four = boxed(&[
            &[0, 5, 1 << 29, 2],
            &[0, 5, 7, 2],
            &[(1 << 30) - 1, 4, 7, 1],
            &[3, (1 << 30) - 2, 1 << 28, 0],
        ]);
        let wide = RuleLayout::from_cardinalities(&[1 << 30; 4]);
        assert_eq!(wide.packed_bits(), Some(128));
        indexed_codes_agree_with_rules::<u128>(&wide, &four);
        let narrow: Vec<Box<[u32]>> = (four.iter())
            .map(|row| row.iter().map(|&v| v % 9).collect())
            .collect();
        let layout = RuleLayout::from_cardinalities(&[9; 4]);
        assert_eq!(layout.packed_bits(), Some(64));
        indexed_codes_agree_with_rules::<u64>(&layout, &narrow);
    }

    #[test]
    fn routes_are_pinned() {
        // Values taken before map hashing rotated `finish`: a route picks
        // a key's reducer, and so which candidates survive there.
        let (rule, pinned) = (r(&[5, -1, 299, 1]), 0xb35f_0b24_0a98_1326);
        assert_eq!(fx_hash_one(&rule), pinned);
        let layout = RuleLayout::from_cardinalities(&[6, 3, 300, 2]);
        let code: u64 = layout.pack(rule.values());
        assert_eq!(code.route(&layout.masks()), pinned);
        let code: u128 = layout.pack(rule.values());
        assert_eq!(code.route(&layout.masks()), pinned);
        let (rule, pinned) = (r(&[-1, 2, -1]), 0xf7a1_4fbb_5225_9e4b);
        assert_eq!(fx_hash_one(&rule), pinned);
        let layout = RuleLayout::from_cardinalities(&[6, 3, 300]);
        let code: u64 = layout.pack(rule.values());
        assert_eq!(code.route(&layout.masks()), pinned);
    }

    #[test]
    fn map_buckets_spread_packed_codes() {
        // `income_like`'s codes with the first four dimensions free and the
        // other five wild, the shape of an ancestor aggregation's keys:
        // they agree in every low bit. A map buckets by the low bits of
        // `finish`; bucket them as a 4096-bucket table does.
        use sirum_dataflow::hash::FxHasher;
        use std::hash::Hasher;
        fn fullest_bucket<C: PackedCode>(layout: &RuleLayout, rules: &[Rule]) -> usize {
            let mut buckets = vec![0usize; 1 << 12];
            for rule in rules {
                let mut h = FxHasher::default();
                layout.pack::<C>(rule.values()).hash(&mut h);
                buckets[(h.finish() & 0xfff) as usize] += 1;
            }
            buckets.into_iter().max().unwrap_or(0)
        }
        let t = sirum_table::generators::income_like(16, 2016);
        let cards: Vec<u32> = t.cardinalities().iter().map(|&c| c as u32).collect();
        let layout = RuleLayout::from_cardinalities(&cards);
        let mut rules = vec![Rule::all_wildcards(cards.len())];
        for (j, &c) in cards.iter().enumerate().take(4) {
            let wider: Vec<Rule> = (rules.iter())
                .flat_map(|rule| {
                    (0..c).map(move |v| {
                        let mut values = rule.values().to_vec();
                        values[j] = v;
                        Rule::from_values(values)
                    })
                })
                .collect();
            rules.extend(wider);
        }
        assert_eq!(rules.len(), 10 * 3 * 6 * 8);
        let fullest = (
            fullest_bucket::<u64>(&layout, &rules),
            fullest_bucket::<u128>(&layout, &rules),
        );
        assert!(
            fullest.0 <= 8 && fullest.1 <= 8,
            "fullest buckets {fullest:?} of {}",
            rules.len()
        );
    }

    /// The [`RuleKey`] laws on codes of width `C` against their `Rule`s:
    /// every `(tuple, rule)` pair's rule is its tuple with some positions
    /// wild.
    fn key_laws_hold<C: PackedCode>(
        layout: &RuleLayout,
        pairs: &[(Vec<u32>, Rule)],
        groups: &[Vec<usize>],
    ) {
        let masks = layout.masks::<C>();
        let codes: Vec<C> = pairs.iter().map(|(_, r)| layout.pack(r.values())).collect();
        for (&code, (tuple, rule)) in codes.iter().zip(pairs) {
            assert_eq!(code.into_rule(&masks), *rule);
            assert_eq!(code.route(&masks), fx_hash_one(rule));
            assert!(code.constants(&masks).eq(rule.constants()));
            for j in 0..layout.num_dims() {
                assert_eq!(code.is_wild(&masks, j), rule.is_wild(&(), j));
                assert_eq!(code.widen(&masks, j).into_rule(&masks), rule.widen(&(), j));
            }
            for group in groups {
                let (mut wider, mut parents) = (Vec::new(), Vec::new());
                code.expand_into(&masks, group, &mut wider);
                rule.expand_into(&(), group, &mut parents);
                let wider: Vec<Rule> = wider.into_iter().map(|c| c.into_rule(&masks)).collect();
                assert_eq!(wider, parents, "{rule:?} over {group:?}");
            }
            for (&other_code, (other_tuple, other)) in codes.iter().zip(pairs) {
                assert_eq!(code.cmp(&other_code), rule.cmp(other));
                let lca = C::lca(&masks, tuple, other_tuple);
                assert_eq!(lca.into_rule(&masks), Rule::lca(tuple, other_tuple));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn rule_key_laws_hold_over_random_layouts(
            (fields, rows, (g, seed)) in (1usize..=5).prop_flat_map(|d| (
                vec((1u32..=32, any::<u64>()), d),
                vec(vec(any::<u64>(), d), 1..6),
                (1usize..=d, any::<u64>()),
            ))
        ) {
            // Field widths of 1 to 32 bits over up to five dimensions: u64
            // layouts, u128 ones and ones only `Rule` keys hold.
            let cards: Vec<u32> = (fields.iter())
                .map(|&(w, r)| ((1u64 << (w - 1)) | (r & ((1u64 << (w - 1)) - 1))) as u32)
                .collect();
            let layout = RuleLayout::from_cardinalities(&cards);
            let widths: Vec<u32> = (0..cards.len()).map(|j| layout.width(j)).collect();
            let drawn: Vec<u32> = fields.iter().map(|&(w, _)| w).collect();
            proptest::prop_assert_eq!(widths, drawn);
            // A third of the positions wild, the rest a random code.
            let pairs: Vec<(Vec<u32>, Rule)> = (rows.iter())
                .map(|row| {
                    let tuple: Vec<u32> = (row.iter().zip(&cards))
                        .map(|(&r, &c)| ((r >> 2) % u64::from(c)) as u32)
                        .collect();
                    let values = (tuple.iter().zip(row))
                        .map(|(&v, &r)| if r % 3 == 0 { WILDCARD } else { v })
                        .collect();
                    (tuple, Rule::from_values(values))
                })
                .collect();
            // And the all-wild rule, whose code is every field's mask.
            let mut pairs = pairs;
            pairs.push((pairs[0].0.clone(), Rule::all_wildcards(cards.len())));
            let groups = crate::lattice::column_groups(cards.len(), g, seed);
            match layout.packed_bits() {
                Some(64) => {
                    key_laws_hold::<u64>(&layout, &pairs, &groups);
                    key_laws_hold::<u128>(&layout, &pairs, &groups);
                }
                Some(bits) => {
                    proptest::prop_assert_eq!(bits, 128);
                    key_laws_hold::<u128>(&layout, &pairs, &groups);
                }
                None => proptest::prop_assert!(layout.total_bits() > 128),
            }
        }
    }

    #[test]
    fn display_uses_dictionaries() {
        let t = sirum_table::generators::flights();
        let london = t.dict(2).code("London").unwrap();
        let rule = Rule::from_values(vec![WILDCARD, WILDCARD, london]);
        assert_eq!(rule.display(&t), "(*, *, London)");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn packed_layout_round_trips_and_preserves_rule_order(
            (cards, seeds) in prop::collection::vec(1u32..(1u32 << 28), 1..10)
                .prop_flat_map(|cards| {
                    let d = cards.len();
                    let rules = prop::collection::vec(
                        prop::collection::vec(any::<u64>(), d),
                        2..16,
                    );
                    (Just(cards), rules)
                })
        ) {
            // Random dictionaries: widths span the u64 / u128 / fallback
            // regimes (up to 9 dims × ≤28 bits). Wherever the layout fits,
            // pack → unpack is the identity and packed integer order is
            // exactly lexicographic rule-value order (WILDCARD last), which is
            // what lets the sweep sort codes instead of rules.
            let layout = RuleLayout::from_cardinalities(&cards);
            let total: u32 = cards.iter().map(|&c| (32 - c.leading_zeros()).max(1)).sum();
            prop_assert_eq!(layout.total_bits(), total);
            prop_assert_eq!(layout.fits::<u64>(), total <= 64);
            prop_assert_eq!(layout.fits::<u128>(), total <= 128);
            if layout.fits::<u128>() {
                // Each dim's value drawn from {0..card-1} ∪ {WILDCARD}.
                let rules_vals: Vec<Vec<u32>> = seeds
                    .iter()
                    .map(|row| {
                        row.iter()
                            .zip(&cards)
                            .map(|(&s, &c)| {
                                let v = (s % (u64::from(c) + 1)) as u32;
                                if v == c { WILDCARD } else { v }
                            })
                            .collect()
                    })
                    .collect();
                let mut coded: Vec<(u128, Vec<u32>)> = rules_vals
                    .iter()
                    .map(|v| (layout.pack::<u128>(v), v.clone()))
                    .collect();
                for (code, vals) in &coded {
                    prop_assert_eq!(layout.unpack(*code).values(), &vals[..]);
                }
                if layout.fits::<u64>() {
                    for (code, vals) in &coded {
                        let narrow: u64 = layout.pack(vals);
                        prop_assert_eq!(u128::from(narrow), *code);
                        prop_assert_eq!(layout.unpack(narrow).values(), &vals[..]);
                    }
                }
                let by_values = {
                    let mut v = coded.clone();
                    v.sort_by(|a, b| a.1.cmp(&b.1));
                    v.into_iter().map(|(_, vals)| vals).collect::<Vec<_>>()
                };
                coded.sort_by_key(|(code, _)| *code);
                let by_code: Vec<Vec<u32>> = coded.into_iter().map(|(_, vals)| vals).collect();
                prop_assert_eq!(by_code, by_values);
            }
        }

        #[test]
        fn lca_is_a_common_ancestor((a, b) in (1usize..=MAX_D).prop_flat_map(|d| (tuple(d), tuple(d)))) {
            let lca = Rule::lca(&a, &b);
            prop_assert!(lca.matches(&a));
            prop_assert!(lca.matches(&b));
        }

        #[test]
        fn lca_is_least((a, b, r) in (1usize..=MAX_D).prop_flat_map(|d| (tuple(d), tuple(d), rule(d)))) {
            // Any rule covering both tuples is an ancestor of their LCA.
            let lca = Rule::lca(&a, &b);
            if r.matches(&a) && r.matches(&b) {
                prop_assert!(r.is_ancestor_of(&lca), "{r:?} not ancestor of {lca:?}");
            }
        }

        #[test]
        fn disjoint_rules_never_share_tuples(
            (a, b, t) in (1usize..=MAX_D).prop_flat_map(|d| (rule(d), rule(d), tuple(d)))
        ) {
            if a.is_disjoint(&b) {
                prop_assert!(!(a.matches(&t) && b.matches(&t)));
            }
        }

        #[test]
        fn disjointness_is_symmetric_and_irreflexive(
            (a, b) in (1usize..=MAX_D).prop_flat_map(|d| (rule(d), rule(d)))
        ) {
            prop_assert_eq!(a.is_disjoint(&b), b.is_disjoint(&a));
            prop_assert!(!a.is_disjoint(&a));
        }
    }
}
