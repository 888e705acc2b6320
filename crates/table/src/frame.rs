//! The columnar, `Arc`-shared frame: the one in-memory copy of a table's
//! data, and the representation the whole stack scans.
//!
//! A [`crate::Table`] stores its rows here and nowhere else, in
//! struct-of-arrays form — one code column per dimension attribute plus
//! the `f64` measure column, each behind an `Arc` — so that
//!
//! * every scan walks contiguous, type-homogeneous memory,
//! * partitions are [`FrameView`] *range views* over the shared columns
//!   (an `Arc` bump and two offsets — no per-row boxing, no copying), and
//! * the catalog's table, its mining preparation and every concurrent job
//!   mining it share one set of buffers.
//!
//! Every dimension column has one layout: a [`CompressedCol`], a run of
//! [`MORSEL_ROWS`]-row [`Segment`]s cut at the same rows in every column.
//! [`Compression`] decides one thing, once, when a table is built: whether
//! each segment goes through [`Segment::encode`] (bit-packed, RLE, or Raw
//! when nothing is smaller — see [`crate::compress`]) or is stored Raw.
//! Frames are scanned **morsel-driven**: [`FrameView::morsel_bounds`]
//! yields segment-aligned row ranges and [`FrameView::morsel_cols`] borrows
//! a morsel lying inside a Raw segment in place (zero copies) and decodes
//! any other morsel into a reusable [`ColScratch`]. A table of at most
//! [`MORSEL_ROWS`] rows is one segment per column, so a view over an
//! uncompressed small table scans as one borrowed morsel.
//!
//! A table's frame carries the table's content fingerprint so downstream
//! caches stay content-addressed without re-hashing.

use crate::compress::{CompressedCol, Segment, MORSEL_ROWS};
use crate::fingerprint::Fnv64;
use std::sync::{Arc, OnceLock};

/// A shared, immutable slice of one column: an `Arc`'d buffer plus a range.
/// Cloning is an `Arc` bump; deref yields the in-range `&[T]`.
#[derive(Debug, Clone)]
pub struct ColSlice<T> {
    data: Arc<[T]>,
    start: usize,
    len: usize,
}

impl<T> ColSlice<T> {
    /// View an entire shared buffer.
    pub fn full(data: Arc<[T]>) -> Self {
        let len = data.len();
        ColSlice {
            data,
            start: 0,
            len,
        }
    }

    /// Narrow this slice to `[start, start + len)` of *this* slice.
    ///
    /// # Panics
    /// Panics if the range exceeds the current slice.
    pub fn slice(&self, start: usize, len: usize) -> Self {
        // lint:allow(SL001) — documented range contract, mirrors `[T]` slicing
        assert!(start + len <= self.len, "ColSlice range out of bounds");
        ColSlice {
            data: Arc::clone(&self.data),
            start: self.start + start,
            len,
        }
    }

    /// The in-range elements.
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.data[self.start..self.start + self.len]
    }
}

impl<T> std::ops::Deref for ColSlice<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> From<Vec<T>> for ColSlice<T> {
    fn from(v: Vec<T>) -> Self {
        ColSlice::full(Arc::from(v))
    }
}

/// Store `codes` as one segment: verbatim, or through [`Segment::encode`].
fn store(codes: &[u32], encode: bool) -> Segment {
    if encode {
        Segment::encode(codes)
    } else {
        Segment::Raw(codes.into())
    }
}

/// Whether a frame's segments go through [`Segment::encode`] or are
/// stored Raw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// The size rule: encode when the raw dimension columns (`4·n·d`
    /// bytes) reach 8 MiB — small interactive tables keep
    /// zero-decode Raw segments, multi-million-row tables compress.
    /// [`crate::TableBuilder::build`] applies it; a frame that already
    /// exists keeps its layout ([`Frame::with_compression`]).
    #[default]
    Auto,
    /// Always encode (tests and memory-budget runs); a segment the
    /// encoder cannot shrink is still stored Raw.
    Always,
    /// Never encode: every segment Raw (the reference representation).
    Never,
}

impl Compression {
    /// Whether `rows × dims` codes are encoded under this policy.
    fn compresses(self, rows: usize, dims: usize) -> bool {
        match self {
            Compression::Never => false,
            Compression::Always => true,
            Compression::Auto => rows.saturating_mul(dims).saturating_mul(4) >= COMPRESS_MIN_BYTES,
        }
    }
}

/// The [`Compression::Auto`] threshold on raw dimension-column bytes
/// (`4·n·d`): below this the whole frame fits comfortably in cache-adjacent
/// memory and decode work would buy nothing.
pub(crate) const COMPRESS_MIN_BYTES: usize = 8 << 20;

/// Per-column format summary (what `explain()` reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnFormat {
    /// Every segment stored Raw.
    Raw,
    /// At least one segment bit-packed or run-length encoded.
    Compressed {
        /// Segments stored verbatim (incompressible).
        raw_segments: usize,
        /// Bit-packed segments.
        packed_segments: usize,
        /// Run-length-encoded segments.
        rle_segments: usize,
        /// Widest packed bit width across segments (0 when none packed).
        max_bits: u32,
        /// Total encoded payload bytes.
        bytes: usize,
    },
}

impl std::fmt::Display for ColumnFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ColumnFormat::Raw => write!(f, "raw"),
            ColumnFormat::Compressed {
                raw_segments,
                packed_segments,
                rle_segments,
                max_bits,
                ..
            } => {
                if packed_segments > 0 && rle_segments == 0 && raw_segments == 0 {
                    write!(f, "packed{max_bits}")
                } else if rle_segments > 0 && packed_segments == 0 && raw_segments == 0 {
                    write!(f, "rle")
                } else if packed_segments > 0 {
                    write!(f, "mixed(packed{max_bits}:{packed_segments},rle:{rle_segments},raw:{raw_segments})")
                } else {
                    write!(f, "mixed(rle:{rle_segments},raw:{raw_segments})")
                }
            }
        }
    }
}

/// The columnar frame: one dimension-code column per attribute plus the
/// measure column, all `Arc`-shared. Built once per table (by
/// [`crate::TableBuilder::build`]) and scanned by every request.
///
/// Cloning a `Frame` bumps its `Arc`s; no data moves.
#[derive(Debug, Clone)]
pub struct Frame {
    cols: Arc<[Arc<CompressedCol>]>,
    measure: Arc<[f64]>,
    rows: usize,
    /// Per-dimension dictionary cardinalities `|dom(Aⱼ)|` — the bit-width
    /// metadata packed rule codes are derived from. A table's frame takes
    /// them from its dictionaries; spill round-trips carry them through
    /// [`Frame::from_compressed_columns_with_cards`] so a decoded block
    /// reproduces the exact packed layout of the frame it was encoded from.
    cards: Arc<[u32]>,
    /// Content fingerprint: a table's frame is stamped with the table's at
    /// build; frames assembled from columns compute it lazily (first
    /// [`Self::fingerprint`] call), so the spill-decode path never pays a
    /// hash pass nobody reads.
    fingerprint: OnceLock<u64>,
}

impl Frame {
    /// Assemble a frame from finished columns, fingerprint unset.
    ///
    /// # Panics
    /// Panics on ragged columns or a cardinality count mismatch.
    fn assemble(cols: Vec<Arc<CompressedCol>>, measure: Arc<[f64]>, cards: Arc<[u32]>) -> Frame {
        let rows = measure.len();
        // lint:allow(SL001) — constructor contract; ragged columns are a logic error
        assert!(
            cols.iter().all(|c| c.len() == rows),
            "every dimension column must have one code per row"
        );
        // lint:allow(SL001) — constructor contract, same class as the ragged check
        assert!(
            cards.len() == cols.len(),
            "one cardinality per dimension column"
        );
        Frame {
            cols: Arc::from(cols),
            measure,
            rows,
            cards,
            fingerprint: OnceLock::new(),
        }
    }

    /// Store code columns under `compression` — the one place a table's
    /// segment formats are decided. Every column is cut into
    /// [`MORSEL_ROWS`]-row segments at the same rows, the shared
    /// segmentation morsel-driven scans rely on.
    pub(crate) fn encode(
        cols: Vec<Vec<u32>>,
        measure: Vec<f64>,
        cards: Vec<u32>,
        compression: Compression,
    ) -> Frame {
        let compress = compression.compresses(measure.len(), cols.len());
        Frame::encode_in(cols, measure.into(), cards.into(), compress, MORSEL_ROWS)
    }

    /// [`Self::encode`] with the policy and segment size given explicitly
    /// (tests use small morsels to exercise multi-segment frames cheaply).
    pub(crate) fn encode_in(
        cols: Vec<Vec<u32>>,
        measure: Arc<[f64]>,
        cards: Arc<[u32]>,
        compress: bool,
        morsel_rows: usize,
    ) -> Frame {
        let cols = cols
            .iter()
            .map(|codes| {
                let segments = codes.chunks(morsel_rows.max(1));
                let segments = segments.map(|c| store(c, compress)).collect();
                Arc::new(CompressedCol::from_segments(segments))
            })
            .collect();
        Frame::assemble(cols, measure, cards)
    }

    /// This frame stamped with a known content fingerprint.
    pub(crate) fn stamped(self, fingerprint: u64) -> Frame {
        Frame {
            fingerprint: OnceLock::from(fingerprint),
            ..self
        }
    }

    /// The first `d` dimension columns (shared) beside `measure`, or beside
    /// this frame's measure column when `None`. Fingerprint unset.
    pub(crate) fn share(&self, d: usize, measure: Option<Vec<f64>>) -> Frame {
        let measure = measure.map_or_else(|| Arc::clone(&self.measure), Arc::from);
        Frame::assemble(
            self.cols[..d].to_vec(),
            measure,
            Arc::from(&self.cards[..d]),
        )
    }

    /// This frame's content under `compression`. [`Compression::Auto`]
    /// keeps the segments the frame was built with; otherwise each segment
    /// not yet in the asked-for form (Raw under `Never`, not Raw under
    /// `Always`) is decoded and stored again, and a column with no such
    /// segment is shared (an `Arc` bump). The measure column is shared and
    /// the fingerprint carried over either way.
    pub fn with_compression(&self, compression: Compression) -> Frame {
        let encode = match compression {
            Compression::Auto => return self.clone(),
            Compression::Always => true,
            Compression::Never => false,
        };
        let settled = |seg: &Segment| matches!(seg, Segment::Raw(_)) != encode;
        let mut codes = Vec::new();
        let cols = self.cols.iter().map(|col| {
            if col.segments().iter().all(settled) {
                return Arc::clone(col);
            }
            let segments = col.segments().iter().map(|seg| {
                codes.clear();
                seg.decode_range_into(0, seg.len(), &mut codes);
                store(&codes, encode)
            });
            Arc::new(CompressedCol::from_segments(segments.collect()))
        });
        Frame {
            fingerprint: self.fingerprint.clone(),
            ..Frame::assemble(
                cols.collect(),
                Arc::clone(&self.measure),
                Arc::clone(&self.cards),
            )
        }
    }

    /// Assemble a frame from code columns, every segment Raw. Every
    /// dimension column must have one entry per measure value. The
    /// fingerprint — computed only if someone asks for it — covers the
    /// codes and measure bits: it identifies the *data*, not any schema or
    /// dictionary.
    ///
    /// # Panics
    /// Panics on ragged columns.
    pub fn from_columns(cols: Vec<Vec<u32>>, measure: Vec<f64>) -> Frame {
        // Without dictionary metadata the best cardinality bound is the
        // observed maximum code + 1 per column (saturating: a column that
        // contains the wildcard sentinel u32::MAX simply gets a cardinality
        // too wide to pack, which disables packing rather than corrupting it).
        let cards: Vec<u32> = cols
            .iter()
            .map(|c| c.iter().copied().max().map_or(0, |m| m.saturating_add(1)))
            .collect();
        Frame::from_columns_with_cards(cols, measure, cards)
    }

    /// [`Frame::from_columns`], but with explicit per-dimension
    /// cardinalities, which can be wider than the codes the columns happen
    /// to contain.
    ///
    /// # Panics
    /// Panics on ragged columns or a cardinality count mismatch.
    pub fn from_columns_with_cards(
        cols: Vec<Vec<u32>>,
        measure: Vec<f64>,
        cards: Vec<u32>,
    ) -> Frame {
        Frame::encode_in(cols, measure.into(), cards.into(), false, MORSEL_ROWS)
    }

    /// Assemble a frame from stored segment columns (the spill-decode
    /// path — segments round-trip in their own formats, and the explicit
    /// cardinalities reproduce the packed-code layout of the frame the
    /// block was encoded from).
    ///
    /// # Panics
    /// Panics on ragged columns or a cardinality count mismatch.
    pub fn from_compressed_columns_with_cards(
        cols: Vec<CompressedCol>,
        measure: Vec<f64>,
        cards: Vec<u32>,
    ) -> Frame {
        let cols = cols.into_iter().map(Arc::new).collect();
        Frame::assemble(cols, measure.into(), cards.into())
    }

    /// Number of rows `n`.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of dimension attributes `d`.
    pub fn num_dims(&self) -> usize {
        self.cols.len()
    }

    /// Column `j`'s segments.
    pub fn column(&self, j: usize) -> &CompressedCol {
        &self.cols[j]
    }

    /// True when any segment of any dimension column is bit-packed or
    /// run-length encoded.
    pub fn is_compressed(&self) -> bool {
        self.column_formats()
            .iter()
            .any(|f| *f != ColumnFormat::Raw)
    }

    /// Per-column format summaries (what `explain()` reports).
    pub fn column_formats(&self) -> Vec<ColumnFormat> {
        self.cols
            .iter()
            .map(|c| match c.format_counts() {
                (_, 0, 0, _) => ColumnFormat::Raw,
                (raw, packed, rle, max_bits) => ColumnFormat::Compressed {
                    raw_segments: raw,
                    packed_segments: packed,
                    rle_segments: rle,
                    max_bits,
                    bytes: c.encoded_bytes(),
                },
            })
            .collect()
    }

    /// In-memory bytes of the dimension columns for rows
    /// `[start, start + n)`, per column the encoded bytes of the segments
    /// the range overlaps (`4·n` for an all-Raw column). This is what spill budget accounting
    /// charges for a range view.
    pub fn dim_bytes_in_range(&self, start: usize, n: usize) -> usize {
        self.cols
            .iter()
            .map(|c| c.range_encoded_bytes(start, n))
            .sum()
    }

    /// In-memory bytes of all dimension columns.
    pub fn dim_bytes(&self) -> usize {
        self.dim_bytes_in_range(0, self.rows)
    }

    /// The full measure column.
    pub fn measures(&self) -> &[f64] {
        &self.measure
    }

    /// Per-dimension dictionary cardinalities (bit-width metadata for the
    /// packed rule-code layout).
    pub fn cards(&self) -> &[u32] {
        &self.cards
    }

    /// The measure column as a shared slice (an `Arc` bump).
    pub fn measure_slice(&self) -> ColSlice<f64> {
        ColSlice::full(Arc::clone(&self.measure))
    }

    /// Content fingerprint: the table's, for a table's frame, or computed
    /// on first call (and cached) for column-assembled frames. Covers the
    /// decoded codes, so frames over the same data fingerprint identically
    /// whatever their segment formats.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = Fnv64::new();
            h.write_u64(self.cols.len() as u64);
            h.write_u64(self.rows as u64);
            self.hash_codes(&mut h);
            for &m in self.measure.iter() {
                h.write_f64(m);
            }
            h.finish()
        })
    }

    /// Fold every dimension code into `h`, column by column: the same
    /// stream whatever the segment formats.
    pub(crate) fn hash_codes(&self, h: &mut Fnv64) {
        let mut buf = Vec::new();
        for seg in self.cols.iter().flat_map(|c| c.segments()) {
            buf.clear();
            seg.decode_range_into(0, seg.len(), &mut buf);
            hash_column(h, &buf);
        }
    }

    /// A view over the whole frame.
    pub fn view(&self) -> FrameView {
        FrameView {
            frame: self.clone(),
            start: 0,
            len: self.rows,
        }
    }

    /// Split the frame into exactly `partitions` contiguous range views of
    /// `⌈n / partitions⌉` rows each, trailing views possibly empty.
    pub fn partition_views(&self, partitions: usize) -> Vec<FrameView> {
        let partitions = partitions.max(1);
        let n = self.rows;
        let chunk = n.div_ceil(partitions).max(1);
        let mut views = Vec::with_capacity(partitions);
        let mut start = 0usize;
        for _ in 0..partitions {
            let len = chunk.min(n - start);
            views.push(FrameView {
                frame: self.clone(),
                start,
                len,
            });
            start += len;
        }
        views
    }

    /// Copy row `i`'s dimension codes into `buf` (cleared first). The
    /// gather boundary: row-shaped probes (LCA computation, rule hashing)
    /// read from here; everything else scans the columns directly.
    /// Each column decodes the single value in place (O(1) for Raw and
    /// packed segments).
    pub fn gather_row(&self, i: usize, buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend(self.cols.iter().map(|col| col.value_at(i)));
    }
}

/// Fold `codes` into `h` (one column's share of a content fingerprint).
pub(crate) fn hash_column(h: &mut Fnv64, codes: &[u32]) {
    for &code in codes {
        h.write_u32(code);
    }
}

/// Reusable per-column decode buffers for morsel-driven scans: one scratch
/// holds one decoded morsel of every column, reused across morsels and
/// blocks so the steady-state scan allocates nothing.
#[derive(Debug, Default)]
pub struct ColScratch {
    bufs: Vec<Vec<u32>>,
}

impl ColScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> ColScratch {
        ColScratch::default()
    }
}

/// A zero-copy range view over a [`Frame`]'s columns: the unit of
/// partitioning for columnar datasets. Cloning bumps the frame's `Arc`s.
#[derive(Debug, Clone)]
pub struct FrameView {
    frame: Frame,
    start: usize,
    len: usize,
}

impl FrameView {
    /// The underlying frame.
    pub fn frame(&self) -> &Frame {
        &self.frame
    }

    /// First row of the range (an offset into the frame).
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of rows in view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of dimension attributes.
    pub fn num_dims(&self) -> usize {
        self.frame.num_dims()
    }

    /// The scan chunks of this view as `(local_start, len)` ranges: the
    /// intersection with the frame's segment boundaries, so each morsel
    /// lies inside one segment of every column (a view of a table of at
    /// most 65 536 rows is one morsel). Empty views yield no
    /// morsels. Iterating morsels in order visits exactly the view's rows
    /// in ascending order — the fold order every scan preserves.
    pub fn morsel_bounds(&self) -> Vec<(usize, usize)> {
        if self.len == 0 {
            return Vec::new();
        }
        let Some(col) = self.frame.cols.first() else {
            return vec![(0, self.len)];
        };
        let (s, e) = (self.start, self.start + self.len);
        let mut out = Vec::new();
        for w in col.offsets().windows(2) {
            let (a, b) = (w[0].max(s), w[1].min(e));
            if a < b {
                out.push((a - s, b - a));
            }
        }
        out
    }

    /// Every dimension column for the morsel
    /// `[local_start, local_start + n)`: borrowed in place where the morsel
    /// lies inside a Raw segment (zero copies), decoded into `scratch`
    /// otherwise. Row `i` of the returned slices is view-local row
    /// `local_start + i`.
    ///
    /// # Panics
    /// Panics when the range exceeds the view.
    pub fn morsel_cols<'a>(
        &'a self,
        local_start: usize,
        n: usize,
        scratch: &'a mut ColScratch,
    ) -> Vec<&'a [u32]> {
        self.morsel_cols_of(0..self.num_dims(), local_start, n, scratch)
    }

    /// [`Self::morsel_cols`] for a subset of columns (scans that touch
    /// only a rule's constant columns decode only those). The returned
    /// slices parallel `idxs`.
    ///
    /// # Panics
    /// Panics when the range exceeds the view.
    pub fn morsel_cols_indexed<'a>(
        &'a self,
        idxs: &[usize],
        local_start: usize,
        n: usize,
        scratch: &'a mut ColScratch,
    ) -> Vec<&'a [u32]> {
        self.morsel_cols_of(idxs.iter().copied(), local_start, n, scratch)
    }

    /// The one body of [`Self::morsel_cols`] and
    /// [`Self::morsel_cols_indexed`]: slice `k` is column `idxs[k]`,
    /// decoded (if it must be) into scratch buffer `k`.
    fn morsel_cols_of<'a>(
        &'a self,
        idxs: impl Iterator<Item = usize> + Clone,
        local_start: usize,
        n: usize,
        scratch: &'a mut ColScratch,
    ) -> Vec<&'a [u32]> {
        // lint:allow(SL001) — documented range contract, mirrors `[T]` slicing
        assert!(local_start + n <= self.len, "morsel range out of bounds");
        let global = self.start + local_start;
        let cols = &self.frame.cols;
        for (k, j) in idxs.clone().enumerate() {
            if cols[j].raw_window(global, n).is_none() {
                if scratch.bufs.len() <= k {
                    scratch.bufs.resize_with(k + 1, Vec::new);
                }
                let buf = &mut scratch.bufs[k];
                buf.clear();
                cols[j].decode_range_into(global, n, buf);
            }
        }
        let scratch = &*scratch;
        idxs.enumerate()
            .map(|(k, j)| {
                cols[j]
                    .raw_window(global, n)
                    .unwrap_or_else(|| scratch.bufs[k].as_slice())
            })
            .collect()
    }

    /// Per-dimension dictionary cardinalities of the underlying frame.
    pub fn cards(&self) -> &[u32] {
        self.frame.cards()
    }

    /// Narrow to rows `[start, start + len)` of *this* view.
    ///
    /// # Panics
    /// Panics if the range exceeds the view.
    pub fn slice(&self, start: usize, len: usize) -> FrameView {
        // lint:allow(SL001) — documented range contract, mirrors `[T]` slicing
        assert!(start + len <= self.len, "FrameView range out of bounds");
        FrameView {
            frame: self.frame.clone(),
            start: self.start + start,
            len,
        }
    }

    /// Copy local row `i`'s dimension codes into `buf` (cleared first).
    pub fn gather_row(&self, i: usize, buf: &mut Vec<u32>) {
        debug_assert!(i < self.len);
        self.frame.gather_row(self.start + i, buf);
    }

    /// Local row `i`'s dimension codes as a fresh boxed slice (sample
    /// extraction; not the hot loop).
    pub fn gather_row_boxed(&self, i: usize) -> Box<[u32]> {
        let mut buf = Vec::with_capacity(self.num_dims());
        self.gather_row(i, &mut buf);
        buf.into_boxed_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Schema, Table};

    /// Column `j` of a one-segment Raw frame as one slice.
    fn raw_col(f: &Frame, j: usize) -> &[u32] {
        match f.column(j).segments() {
            [Segment::Raw(a)] => a,
            other => panic!("column {j} is not one Raw segment: {other:?}"),
        }
    }

    /// Whether two frames' columns `j` are one stored column.
    fn same_storage(a: &Frame, b: &Frame) -> bool {
        (0..a.num_dims()).all(|j| std::ptr::eq(a.column(j).segments(), b.column(j).segments()))
    }

    #[test]
    fn frame_transposes_the_table() {
        // The builder's rows come out as columns: row i's j-th code is
        // column j's i-th.
        let rows = [[0u32, 2, 1], [1, 0, 1], [2, 2, 0], [0, 1, 2]];
        let mut b = Table::builder(Schema::try_new(vec!["a", "b", "c"], "m").unwrap());
        for j in 0..3 {
            for v in ["x", "y", "z"] {
                b.try_intern(j, v).unwrap();
            }
        }
        for (i, row) in rows.iter().enumerate() {
            b.try_push_coded_row(row, i as f64).unwrap();
        }
        let t = b.build();
        let f = t.frame();
        assert_eq!(f.num_rows(), 4);
        assert_eq!(f.measures(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(f.cards(), &[3, 3, 3]);
        assert_eq!(f.fingerprint(), t.fingerprint());
        let mut buf = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            f.gather_row(i, &mut buf);
            assert_eq!(&buf, row);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(raw_col(f, j)[i], v);
            }
        }
    }

    #[test]
    fn partition_views_match_parallelize_chunking() {
        let t = generators::flights(); // 14 rows
        let f = t.frame();
        let views = f.partition_views(4); // ceil(14/4) = 4 → 4,4,4,2
        assert_eq!(views.len(), 4);
        let lens: Vec<usize> = views.iter().map(FrameView::len).collect();
        assert_eq!(lens, vec![4, 4, 4, 2]);
        assert_eq!(views[2].start(), 8);
        // Trailing views of an over-partitioned frame are empty.
        let many = f.partition_views(20);
        assert_eq!(many.len(), 20);
        assert_eq!(many.iter().map(FrameView::len).sum::<usize>(), 14);
        assert!(many[14].is_empty());
        // Degenerate request behaves like parallelize(.., 1).
        assert_eq!(f.partition_views(0).len(), 1);
    }

    #[test]
    fn views_and_slices_are_zero_copy_windows() {
        let t = generators::flights();
        let f = t.frame();
        let v = f.view().slice(3, 5);
        assert_eq!(v.len(), 5);
        let mut scratch = ColScratch::new();
        assert_eq!(v.morsel_cols(0, 5, &mut scratch)[0], &raw_col(f, 0)[3..8]);
        assert_eq!(&*v.gather_row_boxed(0), t.row(3).as_slice());
        let inner = v.slice(1, 2);
        assert_eq!(
            inner.morsel_cols(0, 2, &mut scratch)[1],
            &raw_col(f, 1)[4..6]
        );
    }

    #[test]
    fn from_columns_round_trips_values() {
        let cols = vec![vec![1u32, 2, 3], vec![9, 9, 9]];
        let f = Frame::from_columns(cols.clone(), vec![0.5, 1.5, 2.5]);
        assert_eq!(f.num_dims(), 2);
        assert_eq!(raw_col(&f, 0), &cols[0][..]);
        assert_eq!(f.measures(), &[0.5, 1.5, 2.5]);
        // Content-addressed: same columns, same fingerprint; any change moves it.
        let same = Frame::from_columns(cols.clone(), vec![0.5, 1.5, 2.5]);
        assert_eq!(f.fingerprint(), same.fingerprint());
        let diff = Frame::from_columns(cols, vec![0.5, 1.5, 2.0]);
        assert_ne!(f.fingerprint(), diff.fingerprint());
    }

    #[test]
    fn cards_come_from_the_dictionary_or_the_observed_codes() {
        let t = generators::flights();
        let f = t.frame();
        let expect: Vec<u32> = t.cardinalities().iter().map(|&c| c as u32).collect();
        assert_eq!(f.cards(), &expect[..]);
        // Column-assembled frames bound cardinality by max code + 1 …
        let g = Frame::from_columns(vec![vec![0, 4, 2], vec![1, 1, 0]], vec![1.0; 3]);
        assert_eq!(g.cards(), &[5, 2]);
        // … and a wildcard-bearing column saturates instead of wrapping.
        let w = Frame::from_columns(vec![vec![0, u32::MAX]], vec![1.0; 2]);
        assert_eq!(w.cards(), &[u32::MAX]);
        // Explicit cards survive the round trip wider than the observed codes.
        let e = Frame::from_columns_with_cards(vec![vec![0, 1]], vec![1.0; 2], vec![7]);
        assert_eq!(e.cards(), &[7]);
        assert_eq!(e.view().slice(0, 1).cards(), &[7]);
    }

    #[test]
    fn col_slice_windows_share_the_buffer() {
        let s: ColSlice<f64> = vec![0.0, 1.0, 2.0, 3.0, 4.0].into();
        assert_eq!(s.len(), 5);
        let w = s.slice(1, 3);
        assert_eq!(&*w, &[1.0, 2.0, 3.0]);
        let ww = w.slice(2, 1);
        assert_eq!(&*ww, &[3.0]);
        assert!(w.slice(0, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn col_slice_range_checked() {
        let s: ColSlice<u32> = vec![1, 2, 3].into();
        let _ = s.slice(2, 2);
    }

    // --- compressed representation ---------------------------------------

    /// The same table raw and compressed (small morsels so even tiny
    /// tables span several segments), both encoded from the raw codes.
    fn both_frames(rows: usize) -> (Frame, Frame) {
        let raw = generators::income_like(rows, 7).frame().clone();
        let cols = (0..raw.num_dims())
            .map(|j| raw_col(&raw, j).to_vec())
            .collect();
        let compressed = Frame::encode_in(
            cols,
            Arc::clone(&raw.measure),
            Arc::clone(&raw.cards),
            true,
            64,
        );
        (raw, compressed)
    }

    #[test]
    fn builder_matches_transpose_exactly() {
        let (raw, comp) = both_frames(300);
        assert!(comp.is_compressed());
        assert!(!raw.is_compressed());
        assert_eq!(comp.num_rows(), raw.num_rows());
        assert_eq!(comp.cards(), raw.cards());
        assert_eq!(comp.measures(), raw.measures());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..raw.num_rows() {
            raw.gather_row(i, &mut a);
            comp.gather_row(i, &mut b);
            assert_eq!(a, b, "row {i}");
        }
        // The lazy fingerprint covers decoded values, so a compressed frame
        // hashes identically to a raw frame assembled from the same columns.
        let cols: Vec<Vec<u32>> = (0..raw.num_dims())
            .map(|j| raw_col(&raw, j).to_vec())
            .collect();
        let lazy_raw =
            Frame::from_columns_with_cards(cols, raw.measures().to_vec(), raw.cards().to_vec());
        assert_eq!(comp.fingerprint(), lazy_raw.fingerprint());
    }

    #[test]
    fn compressed_frames_are_smaller() {
        let (raw, comp) = both_frames(2000);
        assert!(comp.dim_bytes() < raw.dim_bytes() / 2);
        assert_eq!(raw.dim_bytes(), 2000 * raw.num_dims() * 4);
    }

    #[test]
    fn morsel_scan_visits_rows_in_order() {
        let (raw, comp) = both_frames(300);
        for parts in [1, 3, 4, 7] {
            let raw_views = raw.partition_views(parts);
            let comp_views = comp.partition_views(parts);
            for (rv, cv) in raw_views.iter().zip(&comp_views) {
                // Raw views scan as one morsel.
                if !rv.is_empty() {
                    assert_eq!(rv.morsel_bounds(), vec![(0, rv.len())]);
                }
                // Compressed morsels tile the view in order.
                let bounds = cv.morsel_bounds();
                let mut expect = 0usize;
                let mut scratch = ColScratch::new();
                for &(s, n) in &bounds {
                    assert_eq!(s, expect);
                    expect += n;
                    let cols = cv.morsel_cols(s, n, &mut scratch);
                    for (j, col) in cols.iter().enumerate() {
                        assert_eq!(
                            *col,
                            &raw_col(&raw, j)[rv.start() + s..][..n],
                            "partition morsel col {j}"
                        );
                    }
                }
                assert_eq!(expect, cv.len());
            }
        }
    }

    #[test]
    fn indexed_morsel_cols_select_columns() {
        let (raw, comp) = both_frames(200);
        let view = comp.view().slice(33, 150);
        let mut scratch = ColScratch::new();
        for &(s, n) in &view.morsel_bounds() {
            let cols = view.morsel_cols_indexed(&[2, 0], s, n, &mut scratch);
            assert_eq!(cols.len(), 2);
            assert_eq!(cols[0], &raw_col(&raw, 2)[33 + s..][..n]);
            assert_eq!(cols[1], &raw_col(&raw, 0)[33 + s..][..n]);
        }
    }

    #[test]
    fn with_compression_honors_the_policy() {
        let t = generators::income_like(500, 11);
        // 500 × 9 × 4 B is far below the Auto threshold.
        let auto = t.frame();
        assert!(!auto.is_compressed());
        let never = auto.with_compression(Compression::Never);
        let always = auto.with_compression(Compression::Always);
        assert!(!never.is_compressed());
        assert!(always.is_compressed());
        // Segments already in the asked-for form are shared, not re-encoded.
        assert!(same_storage(&never, auto));
        assert!(same_storage(
            &always.with_compression(Compression::Auto),
            &always
        ));
        assert!(!same_storage(&always, auto));
        let back = always.with_compression(Compression::Never);
        assert!(!back.is_compressed());
        for f in [&never, &always, &back] {
            assert_eq!(f.fingerprint(), t.fingerprint());
            assert_eq!(f.cards(), auto.cards());
            assert!(Arc::ptr_eq(&f.measure, &auto.measure));
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..t.num_rows() {
            never.gather_row(i, &mut a);
            always.gather_row(i, &mut b);
            assert_eq!(a, b);
            back.gather_row(i, &mut b);
            assert_eq!(a, b);
        }
        // The size rule compresses from the threshold on.
        let rows = COMPRESS_MIN_BYTES / 4 / 9;
        assert!(Compression::Auto.compresses(rows + 1, 9));
        assert!(!Compression::Auto.compresses(rows - 1, 9));
    }

    #[test]
    fn compressed_column_formats_are_reported() {
        let (_, comp) = both_frames(300);
        let formats = comp.column_formats();
        assert_eq!(formats.len(), comp.num_dims());
        assert!(formats
            .iter()
            .all(|f| matches!(f, ColumnFormat::Compressed { .. })));
        // Display is compact and names the dominant format.
        let rendered: Vec<String> = formats.iter().map(ToString::to_string).collect();
        assert!(rendered.iter().all(|s| !s.is_empty()));
        assert_eq!(ColumnFormat::Raw.to_string(), "raw");
    }

    #[test]
    fn empty_builder_finishes_cleanly() {
        let t = Table::builder(Schema::try_new(vec!["a", "b", "c"], "m").unwrap())
            .build_with(Compression::Always);
        let f = t.frame();
        // No rows, no segments: nothing is encoded, so nothing reads as compressed.
        assert!((0..3).all(|j| f.column(j).segments().is_empty()));
        assert!(!f.is_compressed());
        assert_eq!(f.num_rows(), 0);
        assert_eq!(f.num_dims(), 3);
        assert_eq!(f.cards(), &[0, 0, 0]);
        assert!(f.view().morsel_bounds().is_empty());
    }
}
