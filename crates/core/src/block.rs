//! [`TupleBlock`]: one partition of the columnar mining dataset.
//!
//! The miner distributes `D` as **one record per partition**: a
//! [`FrameView`] range over the table's shared dimension columns
//! (immutable for the whole run, an `Arc` bump to carry forward), the
//! partition's window of the shared `m′` column, and two per-partition
//! arrays for the only state that actually changes between iterations —
//! the estimates `m̂` and the rule-coverage bit arrays. A scaling rewrite
//! allocates two fresh arrays per *partition*, never anything per *row*.
//!
//! Blocks implement [`Encode`], so partitions spill/round-trip through the
//! block store (DiskMr stage materialization, memory-pressure eviction):
//! each dimension column spills as the segments its range overlaps, in
//! their own formats, and a decoded block owns fresh columns with
//! identical values and segment formats.

use sirum_dataflow::Encode;
use sirum_table::{ColSlice, CompressedCol, Frame, FrameView, Segment};
use std::sync::Arc;

/// One columnar partition of the mining dataset: shared dimension columns
/// (a [`FrameView`] range), the shared `m′` window, and this partition's
/// estimate / bit-array state. Cloning bumps `Arc`s; no row data moves.
#[derive(Debug, Clone)]
pub(crate) struct TupleBlock {
    dims: FrameView,
    m: ColSlice<f64>,
    mhat: Arc<[f64]>,
    mask: Arc<[u64]>,
}

impl TupleBlock {
    /// Seed a block for the start of a run: `m̂ = 1`, empty bit arrays.
    ///
    /// # Panics
    /// Panics if the measure window is not row-aligned with the view.
    pub(crate) fn seed(dims: FrameView, m: ColSlice<f64>) -> TupleBlock {
        // lint:allow(SL001) — constructor contract: both windows come from the same partitioning
        assert_eq!(dims.len(), m.len(), "m′ window must align with the view");
        let n = dims.len();
        TupleBlock {
            dims,
            m,
            mhat: vec![1.0; n].into(),
            mask: vec![0u64; n].into(),
        }
    }

    /// Seed one block per partition of `frame` — its
    /// [`Frame::partition_views`] ranges, each with the matching window of
    /// the row-aligned `m′` column. Zero copies; this is the dataset the
    /// miner distributes.
    pub(crate) fn seed_partitions(
        frame: &Frame,
        m: &ColSlice<f64>,
        partitions: usize,
    ) -> Vec<TupleBlock> {
        frame
            .partition_views(partitions)
            .into_iter()
            .map(|view| {
                let window = m.slice(view.start(), view.len());
                TupleBlock::seed(view, window)
            })
            .collect()
    }

    /// The same rows with replaced estimates (dims, `m′` and bit arrays
    /// shared).
    pub(crate) fn with_mhat(&self, mhat: Vec<f64>) -> TupleBlock {
        debug_assert_eq!(mhat.len(), self.len());
        TupleBlock {
            dims: self.dims.clone(),
            m: self.m.clone(),
            mhat: mhat.into(),
            mask: Arc::clone(&self.mask),
        }
    }

    /// The same rows with replaced bit arrays.
    pub(crate) fn with_mask(&self, mask: Vec<u64>) -> TupleBlock {
        debug_assert_eq!(mask.len(), self.len());
        TupleBlock {
            dims: self.dims.clone(),
            m: self.m.clone(),
            mhat: Arc::clone(&self.mhat),
            mask: mask.into(),
        }
    }

    /// Number of rows in this partition.
    pub(crate) fn len(&self) -> usize {
        self.dims.len()
    }

    /// Number of dimension attributes.
    pub(crate) fn num_dims(&self) -> usize {
        self.dims.num_dims()
    }

    /// The dimension-column view.
    pub(crate) fn dims(&self) -> &FrameView {
        &self.dims
    }

    /// This partition's window of the transformed measure column `m′`.
    pub(crate) fn m(&self) -> &[f64] {
        &self.m
    }

    /// Current per-row estimates `m̂`.
    pub(crate) fn mhat(&self) -> &[f64] {
        &self.mhat
    }

    /// Current per-row rule-coverage bit arrays.
    pub(crate) fn mask(&self) -> &[u64] {
        &self.mask
    }
}

impl Encode for TupleBlock {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.num_dims() as u64).encode(out);
        (self.len() as u64).encode(out);
        // Dictionary cardinalities travel with the columns so a spilled
        // block decodes to a frame with the same packed-code layout
        // metadata, not observed-max estimates.
        for &card in self.dims.cards() {
            card.encode(out);
        }
        // Each column spills its overlapping segments as stored (boundary
        // segments clipped), so a spilled block keeps its formats on disk.
        for j in 0..self.num_dims() {
            let col = self.dims.frame().column(j);
            col.slice_segments(self.dims.start(), self.dims.len())
                .encode(out);
        }
        for &v in self.m.iter() {
            v.encode(out);
        }
        for &v in self.mhat.iter() {
            v.encode(out);
        }
        for &v in self.mask.iter() {
            v.encode(out);
        }
    }

    fn decode(buf: &mut &[u8]) -> Self {
        let d = u64::decode(buf) as usize;
        let n = u64::decode(buf) as usize;
        let cards: Vec<u32> = (0..d).map(|_| u32::decode(buf)).collect();
        let cols: Vec<CompressedCol> = (0..d)
            .map(|_| CompressedCol::from_segments(Vec::<Segment>::decode(buf)))
            .collect();
        let m: Vec<f64> = (0..n).map(|_| f64::decode(buf)).collect();
        let mhat: Vec<f64> = (0..n).map(|_| f64::decode(buf)).collect();
        let mask: Vec<u64> = (0..n).map(|_| u64::decode(buf)).collect();
        // The decoded frame's measure column is m′ (the raw measures never
        // cross a spill boundary — mining reads only m′); the block's `m`
        // window shares that Arc rather than copying the column again.
        let frame = Frame::from_compressed_columns_with_cards(cols, m, cards);
        let m = frame.measure_slice();
        TupleBlock {
            dims: frame.view(),
            m,
            mhat: mhat.into(),
            mask: mask.into(),
        }
    }

    fn size_estimate(&self) -> usize {
        // Dimension columns charge 4 B per row of a Raw segment and the
        // payload of every Packed/RLE segment the range overlaps — the
        // block store's budget sees (and rewards) the compression.
        16 + self.num_dims() * 4
            + self
                .dims
                .frame()
                .dim_bytes_in_range(self.dims.start(), self.dims.len())
            + self.len() * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirum_table::{generators, ColumnFormat, Compression};

    fn block() -> TupleBlock {
        let t = generators::flights();
        let frame = t.frame();
        let m: ColSlice<f64> = t.measures().to_vec().into();
        TupleBlock::seed(frame.partition_views(3)[1].clone(), m.slice(5, 5))
    }

    #[test]
    fn seed_state_and_windows() {
        let b = block();
        assert_eq!(b.len(), 5);
        assert_eq!(b.num_dims(), 3);
        assert!(b.mhat().iter().all(|&v| v == 1.0));
        assert!(b.mask().iter().all(|&v| v == 0));
        let t = generators::flights();
        let mut buf = Vec::new();
        for i in 0..b.len() {
            b.dims().gather_row(i, &mut buf);
            assert_eq!(buf.as_slice(), t.row(5 + i));
            assert_eq!(b.m()[i], t.measure(5 + i));
        }
    }

    #[test]
    fn state_rewrites_share_the_columns() {
        let b = block();
        let b2 = b.with_mhat(vec![2.0; 5]).with_mask(vec![1; 5]);
        assert!(std::ptr::eq(
            b.dims().frame().column(0).segments(),
            b2.dims().frame().column(0).segments()
        ));
        assert!(std::ptr::eq(b.m(), b2.m()));
        assert_eq!(b2.mhat(), &[2.0; 5]);
        assert_eq!(b2.mask(), &[1; 5]);
    }

    #[test]
    fn encode_round_trips_values() {
        let b = block().with_mhat(vec![0.5, 1.5, 2.5, 3.5, 4.5]);
        let mut buf = Vec::new();
        b.encode(&mut buf);
        // The estimate tracks the encoded footprint to within the framing of
        // each column's one Raw segment: a segment count, a format tag and a
        // length.
        assert_eq!(buf.len(), b.size_estimate() + (8 + 1 + 8) * b.num_dims());
        let mut slice = buf.as_slice();
        let back = TupleBlock::decode(&mut slice);
        assert!(slice.is_empty());
        assert_eq!(back.len(), b.len());
        let (mut a, mut c) = (Vec::new(), Vec::new());
        for i in 0..b.len() {
            b.dims().gather_row(i, &mut a);
            back.dims().gather_row(i, &mut c);
            assert_eq!(a, c);
        }
        assert_eq!(back.m(), b.m());
        assert_eq!(back.mhat(), b.mhat());
        assert_eq!(back.mask(), b.mask());
        // Dictionary cardinalities survive the spill round-trip, so the
        // decoded frame reproduces the exact packed-code layout.
        assert_eq!(back.dims().cards(), b.dims().cards());
    }

    #[test]
    fn compressed_blocks_spill_compressed_and_round_trip() {
        let t = generators::income_like(700, 5);
        let raw = t.frame().clone();
        let comp = raw.with_compression(Compression::Always);
        let m: ColSlice<f64> = t.measures().to_vec().into();
        // A mid-frame partition whose range does not align with segments.
        let view = comp.view().slice(123, 457);
        let b = TupleBlock::seed(view, m.slice(123, 457)).with_mask(vec![3; 457]);
        let raw_b =
            TupleBlock::seed(raw.view().slice(123, 457), m.slice(123, 457)).with_mask(vec![3; 457]);
        assert!(b.size_estimate() < raw_b.size_estimate());
        let mut buf = Vec::new();
        b.encode(&mut buf);
        let mut slice = buf.as_slice();
        let back = TupleBlock::decode(&mut slice);
        assert!(slice.is_empty());
        assert!(back.dims().frame().is_compressed());
        assert_eq!(back.len(), 457);
        let (mut a, mut c) = (Vec::new(), Vec::new());
        for i in 0..b.len() {
            b.dims().gather_row(i, &mut a);
            back.dims().gather_row(i, &mut c);
            assert_eq!(a, c, "row {i}");
        }
        assert_eq!(back.m(), b.m());
        assert_eq!(back.mhat(), b.mhat());
        assert_eq!(back.mask(), b.mask());
        assert_eq!(back.dims().cards(), b.dims().cards());
    }

    #[test]
    fn raw_blocks_clip_their_segments_and_reload_raw() {
        let t = generators::income_like(700, 5);
        let raw = t.frame().with_compression(Compression::Never);
        let m: ColSlice<f64> = t.measures().to_vec().into();
        // A partition that cuts the frame's one Raw segment at both ends.
        let b = TupleBlock::seed(raw.view().slice(123, 457), m.slice(123, 457));
        assert_eq!(raw.column(0).segments().len(), 1);
        let mut buf = Vec::new();
        b.encode(&mut buf);
        let mut slice = buf.as_slice();
        let back = TupleBlock::decode(&mut slice);
        assert!(slice.is_empty());
        let frame = back.dims().frame();
        assert!(frame
            .column_formats()
            .iter()
            .all(|f| *f == ColumnFormat::Raw));
        for j in 0..frame.num_dims() {
            assert!(matches!(frame.column(j).segments(), [Segment::Raw(v)] if v.len() == 457));
        }
        assert_eq!(back.size_estimate(), b.size_estimate());
        let (mut a, mut c) = (Vec::new(), Vec::new());
        for i in 0..b.len() {
            b.dims().gather_row(i, &mut a);
            back.dims().gather_row(i, &mut c);
            assert_eq!(a, c, "row {i}");
        }
    }
}
