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
//! block store (DiskMr stage materialization, memory-pressure eviction); a
//! decoded block owns fresh columns with identical values.

use sirum_dataflow::Encode;
use sirum_table::{ColSlice, Frame, FrameView};
use std::sync::Arc;

/// One columnar partition of the mining dataset: shared dimension columns
/// (a [`FrameView`] range), the shared `m′` window, and this partition's
/// estimate / bit-array state. Cloning bumps `Arc`s; no row data moves.
#[derive(Debug, Clone)]
pub struct TupleBlock {
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
    pub fn seed(dims: FrameView, m: ColSlice<f64>) -> TupleBlock {
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
    pub fn seed_partitions(frame: &Frame, m: &ColSlice<f64>, partitions: usize) -> Vec<TupleBlock> {
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
    pub fn with_mhat(&self, mhat: Vec<f64>) -> TupleBlock {
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
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// True when the partition holds no rows.
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Number of dimension attributes.
    pub fn num_dims(&self) -> usize {
        self.dims.num_dims()
    }

    /// The dimension-column view.
    pub fn dims(&self) -> &FrameView {
        &self.dims
    }

    /// This partition's window of the transformed measure column `m′`.
    pub fn m(&self) -> &[f64] {
        &self.m
    }

    /// Current per-row estimates `m̂`.
    pub fn mhat(&self) -> &[f64] {
        &self.mhat
    }

    /// Current per-row rule-coverage bit arrays.
    pub fn mask(&self) -> &[u64] {
        &self.mask
    }

    /// Copy row `i`'s dimension codes into `buf` (cleared first) — the
    /// gather boundary for row-shaped probes (LCA computation, rule
    /// hashing). Column scans should read [`FrameView::morsel_cols`].
    pub fn gather(&self, i: usize, buf: &mut Vec<u32>) {
        self.dims.gather_row(i, buf);
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
        // Raw columns spill their codes verbatim; compressed columns spill
        // their overlapping segments as stored (boundary segments clipped),
        // so a spilled block stays compressed on disk.
        for j in 0..self.num_dims() {
            match self.dims.frame().column(j) {
                sirum_table::Column::Raw(codes) => {
                    out.push(0);
                    let start = self.dims.start();
                    for &code in &codes[start..start + self.dims.len()] {
                        code.encode(out);
                    }
                }
                sirum_table::Column::Compressed(c) => {
                    out.push(1);
                    let segments = c.slice_segments(self.dims.start(), self.dims.len());
                    (segments.len() as u64).encode(out);
                    for seg in &segments {
                        sirum_dataflow::encode_segment(seg, out);
                    }
                }
            }
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
        let mut raw_cols: Vec<Vec<u32>> = Vec::new();
        let mut compressed_cols: Vec<sirum_table::CompressedCol> = Vec::new();
        for _ in 0..d {
            let tag = buf[0];
            *buf = &buf[1..];
            if tag == 0 {
                raw_cols.push((0..n).map(|_| u32::decode(buf)).collect());
            } else {
                let segs = u64::decode(buf) as usize;
                compressed_cols.push(sirum_table::CompressedCol::from_segments(
                    (0..segs)
                        .map(|_| sirum_dataflow::decode_segment(buf))
                        .collect(),
                ));
            }
        }
        let m: Vec<f64> = (0..n).map(|_| f64::decode(buf)).collect();
        let mhat: Vec<f64> = (0..n).map(|_| f64::decode(buf)).collect();
        let mask: Vec<u64> = (0..n).map(|_| u64::decode(buf)).collect();
        // The decoded frame's measure column is m′ (the raw measures never
        // cross a spill boundary — mining reads only m′); the block's `m`
        // window shares that Arc rather than copying the column again.
        let frame = if raw_cols.is_empty() && !compressed_cols.is_empty() {
            Frame::from_compressed_columns_with_cards(compressed_cols, m, cards)
        } else {
            // lint:allow(SL001) — framing invariant of this process's own encoder
            assert!(
                compressed_cols.is_empty(),
                "mixed raw/compressed columns in encoded block"
            );
            Frame::from_columns_with_cards(raw_cols, m, cards)
        };
        let m = frame.measure_slice();
        TupleBlock {
            dims: frame.view(),
            m,
            mhat: mhat.into(),
            mask: mask.into(),
        }
    }

    fn size_estimate(&self) -> usize {
        // Compressed dimension columns charge their encoded payload bytes —
        // the block store's budget sees (and rewards) the compression.
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
    use sirum_table::{generators, Column};
    use std::sync::Arc;

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
            b.gather(i, &mut buf);
            assert_eq!(buf.as_slice(), t.row(5 + i));
            assert_eq!(b.m()[i], t.measure(5 + i));
        }
    }

    #[test]
    fn state_rewrites_share_the_columns() {
        let b = block();
        let b2 = b.with_mhat(vec![2.0; 5]).with_mask(vec![1; 5]);
        let (Column::Raw(a), Column::Raw(a2)) =
            (b.dims().frame().column(0), b2.dims().frame().column(0))
        else {
            panic!("small blocks are raw");
        };
        assert!(Arc::ptr_eq(a, a2));
        assert!(std::ptr::eq(b.m(), b2.m()));
        assert_eq!(b2.mhat(), &[2.0; 5]);
        assert_eq!(b2.mask(), &[1; 5]);
    }

    #[test]
    fn encode_round_trips_values() {
        let b = block().with_mhat(vec![0.5, 1.5, 2.5, 3.5, 4.5]);
        let mut buf = Vec::new();
        b.encode(&mut buf);
        // The estimate tracks the encoded footprint to within the per-column
        // format tag bytes.
        assert_eq!(buf.len(), b.size_estimate() + b.num_dims());
        let mut slice = buf.as_slice();
        let back = TupleBlock::decode(&mut slice);
        assert!(slice.is_empty());
        assert_eq!(back.len(), b.len());
        let (mut a, mut c) = (Vec::new(), Vec::new());
        for i in 0..b.len() {
            b.gather(i, &mut a);
            back.gather(i, &mut c);
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
        use sirum_table::Compression;
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
            b.gather(i, &mut a);
            back.gather(i, &mut c);
            assert_eq!(a, c, "row {i}");
        }
        assert_eq!(back.m(), b.m());
        assert_eq!(back.mhat(), b.mhat());
        assert_eq!(back.mask(), b.mask());
        assert_eq!(back.dims().cards(), b.dims().cards());
    }
}
