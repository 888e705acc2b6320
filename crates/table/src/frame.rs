//! The columnar, `Arc`-shared mining frame: the one in-memory
//! representation the whole stack scans.
//!
//! A [`Table`] stores its dimension codes row-major, which is the right
//! layout for building and CSV I/O but the wrong one for the scan-dominated
//! mining workload: every greedy iteration re-aggregates all rows, and the
//! repeated-query setting means the same table is scanned across many
//! requests. A [`Frame`] transposes the table once into struct-of-arrays
//! form — one `u32` column per dimension attribute plus the `f64` measure
//! column, each behind an `Arc` — so that
//!
//! * every scan walks contiguous, type-homogeneous memory,
//! * partitions are [`FrameView`] *range views* over the shared columns
//!   (an `Arc` bump and two offsets — no per-row boxing, no copying), and
//! * concurrent jobs mining the same registered table share one set of
//!   buffers.
//!
//! A dimension column comes in two physical representations behind the
//! same view API: **raw** (one contiguous `Arc<[u32]>`, the layout small
//! tables keep) or **compressed** (a [`CompressedCol`] sequence of
//! bit-packed/RLE/raw [`crate::compress::Segment`]s, chosen per segment by
//! a size heuristic — see [`crate::compress`]). Compressed frames are
//! scanned **morsel-driven**: [`FrameView::morsel_bounds`] yields
//! segment-aligned row ranges and [`FrameView::morsel_cols`] decodes one
//! morsel of every column into a reusable [`ColScratch`], so a scan over a
//! raw frame degenerates to exactly the old single-range column borrow
//! (zero overhead) while a compressed frame is decoded 64Ki rows at a
//! time. [`FrameBuilder`] builds compressed frames incrementally, encoding
//! each morsel as rows arrive instead of materializing whole `Vec<u32>`
//! columns first.
//!
//! The frame carries the source table's content fingerprint so downstream
//! caches stay content-addressed without re-hashing.

use crate::compress::{CompressedCol, Segment, MORSEL_ROWS};
use crate::table::Table;
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

    /// Number of elements in range.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The in-range elements.
    pub fn as_slice(&self) -> &[T] {
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

/// One dimension column's physical representation.
#[derive(Debug, Clone)]
pub enum Column {
    /// One contiguous shared buffer — the layout of small frames, directly
    /// borrowable as `&[u32]`.
    Raw(Arc<[u32]>),
    /// Encoded segments — decoded morsel-by-morsel into scratch buffers.
    Compressed(Arc<CompressedCol>),
}

impl Column {
    #[inline]
    fn value_at(&self, i: usize) -> u32 {
        match self {
            Column::Raw(a) => a[i],
            Column::Compressed(c) => c.value_at(i),
        }
    }
}

/// When a frame built from a [`Table`] compresses its dimension columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// Compress when the raw dimension columns would exceed
    /// [`COMPRESS_MIN_BYTES`] — small interactive tables keep the
    /// zero-decode raw layout, multi-million-row tables compress.
    #[default]
    Auto,
    /// Always compress (tests and memory-budget runs).
    Always,
    /// Never compress (the raw reference representation).
    Never,
}

/// The [`Compression::Auto`] threshold on raw dimension-column bytes
/// (`4·n·d`): below this the whole frame fits comfortably in cache-adjacent
/// memory and decode work would buy nothing.
pub const COMPRESS_MIN_BYTES: usize = 8 << 20;

/// Per-column format summary (what `explain()` reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnFormat {
    /// One contiguous raw `u32` buffer.
    Raw,
    /// Segment-compressed column.
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
                } else if raw_segments > 0 && packed_segments == 0 && rle_segments == 0 {
                    write!(f, "raw-seg")
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
/// measure column, all `Arc`-shared. Built once per table (at registration
/// / preparation time) and scanned by every request.
///
/// Cloning a `Frame` bumps `d + 1` `Arc`s; no data moves.
#[derive(Debug, Clone)]
pub struct Frame {
    cols: Arc<[Column]>,
    measure: Arc<[f64]>,
    rows: usize,
    /// Per-dimension dictionary cardinalities `|dom(Aⱼ)|` — the bit-width
    /// metadata packed rule codes are derived from. Stamped from the source
    /// table's dictionaries by [`Frame::from_table`]; carried through spill
    /// round-trips by [`Frame::from_columns_with_cards`] so a decoded block
    /// reproduces the exact packed layout of the frame it was encoded from.
    cards: Arc<[u32]>,
    /// Content fingerprint: stamped from the source table by
    /// [`Frame::from_table`]; computed lazily (first [`Self::fingerprint`]
    /// call) for frames assembled from raw columns, so the spill-decode
    /// path never pays a hash pass nobody reads.
    fingerprint: OnceLock<u64>,
}

impl Frame {
    /// Transpose `table` into raw columnar form (one pass per column) and
    /// stamp it with the table's content fingerprint. Equivalent to
    /// [`Frame::from_table_with`] under [`Compression::Never`].
    pub fn from_table(table: &Table) -> Frame {
        let d = table.num_dims();
        let n = table.num_rows();
        let cols: Vec<Column> = (0..d)
            .map(|j| {
                let mut col = Vec::with_capacity(n);
                col.extend(table.rows().map(|row| row[j]));
                Column::Raw(Arc::from(col))
            })
            .collect();
        let fingerprint = OnceLock::new();
        let _ = fingerprint.set(table.fingerprint());
        Frame {
            cols: Arc::from(cols),
            measure: Arc::from(table.measures().to_vec()),
            rows: n,
            cards: Arc::from(table_cards(table)),
            fingerprint,
        }
    }

    /// Transpose `table` under an explicit [`Compression`] policy. The
    /// compressed path streams rows through a [`FrameBuilder`], encoding
    /// one morsel at a time — peak transient memory is one pending morsel
    /// (`d · MORSEL_ROWS · 4` bytes), not the full raw columns.
    pub fn from_table_with(table: &Table, compression: Compression) -> Frame {
        let d = table.num_dims();
        let n = table.num_rows();
        let compress = match compression {
            Compression::Never => false,
            Compression::Always => true,
            Compression::Auto => n.saturating_mul(d).saturating_mul(4) >= COMPRESS_MIN_BYTES,
        };
        if !compress {
            return Frame::from_table(table);
        }
        let mut builder = FrameBuilder::new(d);
        for (i, row) in table.rows().enumerate() {
            builder.push_row(row, table.measure(i));
        }
        let frame = builder.finish_with_cards(table_cards(table));
        let _ = frame.fingerprint.set(table.fingerprint());
        frame
    }

    /// Assemble a frame from raw columns (the spill-decode path). Every
    /// dimension column must have one entry per measure value. The
    /// fingerprint — computed only if someone asks for it — covers the raw
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
    /// cardinalities — the spill-decode path uses this to reproduce the
    /// packed-code layout of the frame the block was encoded from, which can
    /// be wider than the codes a single partition happens to contain.
    ///
    /// # Panics
    /// Panics on ragged columns or a cardinality count mismatch.
    pub fn from_columns_with_cards(
        cols: Vec<Vec<u32>>,
        measure: Vec<f64>,
        cards: Vec<u32>,
    ) -> Frame {
        let n = measure.len();
        // lint:allow(SL001) — constructor contract; ragged columns are a logic error
        assert!(
            cols.iter().all(|c| c.len() == n),
            "every dimension column must have one code per row"
        );
        // lint:allow(SL001) — constructor contract, same class as the ragged check
        assert!(
            cards.len() == cols.len(),
            "one cardinality per dimension column"
        );
        Frame {
            cols: Arc::from(
                cols.into_iter()
                    .map(|c| Column::Raw(Arc::from(c)))
                    .collect::<Vec<_>>(),
            ),
            measure: Arc::from(measure),
            rows: n,
            cards: Arc::from(cards),
            fingerprint: OnceLock::new(),
        }
    }

    /// Assemble a frame from already-encoded compressed columns (the
    /// compressed spill-decode path — segments round-trip without being
    /// re-encoded).
    ///
    /// # Panics
    /// Panics on ragged columns or a cardinality count mismatch.
    pub fn from_compressed_columns_with_cards(
        cols: Vec<CompressedCol>,
        measure: Vec<f64>,
        cards: Vec<u32>,
    ) -> Frame {
        let n = measure.len();
        // lint:allow(SL001) — constructor contract; ragged columns are a logic error
        assert!(
            cols.iter().all(|c| c.len() == n),
            "every dimension column must have one code per row"
        );
        // lint:allow(SL001) — constructor contract, same class as the ragged check
        assert!(
            cards.len() == cols.len(),
            "one cardinality per dimension column"
        );
        Frame {
            cols: Arc::from(
                cols.into_iter()
                    .map(|c| Column::Compressed(Arc::new(c)))
                    .collect::<Vec<_>>(),
            ),
            measure: Arc::from(measure),
            rows: n,
            cards: Arc::from(cards),
            fingerprint: OnceLock::new(),
        }
    }

    /// Number of rows `n`.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of dimension attributes `d`.
    pub fn num_dims(&self) -> usize {
        self.cols.len()
    }

    /// The full column of dimension attribute `j` as a contiguous slice.
    /// Only raw columns have one; compressed-frame scans must go through
    /// [`FrameView::morsel_cols`] (or [`Self::gather_row`] for point
    /// probes).
    ///
    /// # Panics
    /// Panics when column `j` is compressed.
    pub fn col(&self, j: usize) -> &[u32] {
        match &self.cols[j] {
            Column::Raw(a) => a,
            Column::Compressed(_) => {
                // lint:allow(SL001) — misuse of the raw-only accessor is a logic error; scans use morsel_cols
                panic!("dimension column {j} is compressed; decode via FrameView::morsel_cols")
            }
        }
    }

    /// Column `j`'s physical representation.
    pub fn column(&self, j: usize) -> &Column {
        &self.cols[j]
    }

    /// True when any dimension column is stored compressed.
    pub fn is_compressed(&self) -> bool {
        self.cols.iter().any(|c| matches!(c, Column::Compressed(_)))
    }

    /// Per-column format summaries (what `explain()` reports).
    pub fn column_formats(&self) -> Vec<ColumnFormat> {
        self.cols
            .iter()
            .map(|c| match c {
                Column::Raw(_) => ColumnFormat::Raw,
                Column::Compressed(c) => {
                    let (raw, packed, rle, max_bits) = c.format_counts();
                    ColumnFormat::Compressed {
                        raw_segments: raw,
                        packed_segments: packed,
                        rle_segments: rle,
                        max_bits,
                        bytes: c.encoded_bytes(),
                    }
                }
            })
            .collect()
    }

    /// In-memory bytes of the dimension columns for rows
    /// `[start, start + n)`: `4·n` per raw column, encoded payload bytes of
    /// the overlapping segments per compressed column. This is what spill
    /// budget accounting charges for a range view.
    pub fn dim_bytes_in_range(&self, start: usize, n: usize) -> usize {
        self.cols
            .iter()
            .map(|c| match c {
                Column::Raw(_) => 4 * n,
                Column::Compressed(c) => c.range_encoded_bytes(start, n),
            })
            .sum()
    }

    /// In-memory bytes of all dimension columns.
    pub fn dim_bytes(&self) -> usize {
        self.dim_bytes_in_range(0, self.rows)
    }

    /// Shared morsel boundaries of the frame's columns: segment start
    /// offsets when compressed (all columns are flushed together, so they
    /// segment identically), `None` for raw frames (one whole-frame
    /// morsel).
    fn segment_offsets(&self) -> Option<&[usize]> {
        self.cols.iter().find_map(|c| match c {
            Column::Compressed(c) => Some(c.offsets()),
            Column::Raw(_) => None,
        })
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

    /// Content fingerprint: carried from the source table, or computed on
    /// first call (and cached) for column-assembled frames. Covers the
    /// decoded codes, so raw and compressed frames over the same data
    /// fingerprint identically.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = crate::fingerprint::Fnv64::new();
            h.write_u64(self.cols.len() as u64);
            h.write_u64(self.rows as u64);
            let mut buf = Vec::new();
            for col in self.cols.iter() {
                match col {
                    Column::Raw(a) => {
                        for &code in a.iter() {
                            h.write_u32(code);
                        }
                    }
                    Column::Compressed(c) => {
                        for seg in c.segments() {
                            buf.clear();
                            seg.decode_range_into(0, seg.len(), &mut buf);
                            for &code in &buf {
                                h.write_u32(code);
                            }
                        }
                    }
                }
            }
            for &m in self.measure.iter() {
                h.write_f64(m);
            }
            h.finish()
        })
    }

    /// A view over the whole frame.
    pub fn view(&self) -> FrameView {
        FrameView {
            frame: self.clone(),
            start: 0,
            len: self.rows,
        }
    }

    /// Split the frame into exactly `partitions` contiguous range views
    /// using the same chunking as the dataflow engine's `parallelize`
    /// (`⌈n / partitions⌉` rows per chunk, trailing views possibly empty) —
    /// so a columnar dataset built from these views places every row in the
    /// same partition, at the same offset, as a record-per-row dataset
    /// over the same rows would.
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
    /// Compressed columns decode the single value in place (O(1) for
    /// packed segments).
    pub fn gather_row(&self, i: usize, buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend(self.cols.iter().map(|col| col.value_at(i)));
    }
}

fn table_cards(table: &Table) -> Vec<u32> {
    table
        .cardinalities()
        .into_iter()
        .map(|c| u32::try_from(c).unwrap_or(u32::MAX))
        .collect()
}

/// Streaming constructor for compressed [`Frame`]s: buffer rows into
/// per-column pending morsels and encode each morsel as it fills, so
/// building a multi-million-row frame never materializes whole raw
/// columns. All columns flush together — the resulting frame's columns
/// share one segmentation, which is what morsel-driven scans rely on.
#[derive(Debug)]
pub struct FrameBuilder {
    /// Per-column buffer of the current (unencoded) morsel.
    pending: Vec<Vec<u32>>,
    /// Per-column encoded segments.
    segments: Vec<Vec<Segment>>,
    /// Per-column observed maximum code (the cardinality bound when no
    /// dictionary is supplied at finish).
    max_code: Vec<u32>,
    measure: Vec<f64>,
    morsel_rows: usize,
    rows: usize,
}

impl FrameBuilder {
    /// A builder for `dims` dimension columns with the default
    /// [`MORSEL_ROWS`] segment size.
    pub fn new(dims: usize) -> FrameBuilder {
        FrameBuilder::with_morsel_rows(dims, MORSEL_ROWS)
    }

    /// A builder with an explicit morsel size (tests use small morsels to
    /// exercise multi-segment frames cheaply).
    pub fn with_morsel_rows(dims: usize, morsel_rows: usize) -> FrameBuilder {
        let morsel_rows = morsel_rows.max(1);
        FrameBuilder {
            pending: (0..dims).map(|_| Vec::with_capacity(morsel_rows)).collect(),
            segments: (0..dims).map(|_| Vec::new()).collect(),
            max_code: vec![0; dims],
            measure: Vec::new(),
            morsel_rows,
            rows: 0,
        }
    }

    /// Rows pushed so far.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Append one row of dimension codes plus its measure value.
    ///
    /// # Panics
    /// Panics when `codes` does not have one code per dimension column.
    pub fn push_row(&mut self, codes: &[u32], m: f64) {
        // lint:allow(SL001) — constructor contract; a ragged row is a logic error
        assert_eq!(
            codes.len(),
            self.pending.len(),
            "one code per dimension column"
        );
        for (j, &v) in codes.iter().enumerate() {
            self.pending[j].push(v);
            if v > self.max_code[j] {
                self.max_code[j] = v;
            }
        }
        self.measure.push(m);
        self.rows += 1;
        if self.rows.is_multiple_of(self.morsel_rows) {
            self.flush();
        }
    }

    /// Encode the pending morsel of every column.
    fn flush(&mut self) {
        for (buf, segs) in self.pending.iter_mut().zip(self.segments.iter_mut()) {
            if !buf.is_empty() {
                segs.push(Segment::encode(buf));
                buf.clear();
            }
        }
    }

    /// Finish into a compressed frame, bounding each cardinality by the
    /// observed maximum code + 1 (saturating — same convention as
    /// [`Frame::from_columns`]).
    pub fn finish(mut self) -> Frame {
        let cards: Vec<u32> = self
            .max_code
            .iter()
            .map(|&m| {
                if self.rows == 0 {
                    0
                } else {
                    m.saturating_add(1)
                }
            })
            .collect();
        self.flush();
        self.into_frame(cards)
    }

    /// Finish with explicit per-dimension dictionary cardinalities.
    ///
    /// # Panics
    /// Panics on a cardinality count mismatch.
    pub fn finish_with_cards(mut self, cards: Vec<u32>) -> Frame {
        // lint:allow(SL001) — constructor contract, mirrors from_columns_with_cards
        assert!(
            cards.len() == self.pending.len(),
            "one cardinality per dimension column"
        );
        self.flush();
        self.into_frame(cards)
    }

    fn into_frame(self, cards: Vec<u32>) -> Frame {
        let cols: Vec<Column> = self
            .segments
            .into_iter()
            .map(|segs| Column::Compressed(Arc::new(CompressedCol::from_segments(segs))))
            .collect();
        Frame {
            cols: Arc::from(cols),
            measure: Arc::from(self.measure),
            rows: self.rows,
            cards: Arc::from(cards),
            fingerprint: OnceLock::new(),
        }
    }
}

/// Reusable per-column decode buffers for morsel-driven scans: one scratch
/// holds one morsel of every compressed column, reused across morsels and
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

    /// The in-range slice of dimension column `j` (raw columns only — see
    /// [`Frame::col`]).
    ///
    /// # Panics
    /// Panics when column `j` is compressed.
    pub fn col(&self, j: usize) -> &[u32] {
        &self.frame.col(j)[self.start..self.start + self.len]
    }

    /// The scan chunks of this view as `(local_start, len)` ranges: one
    /// whole-view morsel for raw frames (scans degenerate to the direct
    /// column borrow), the intersection with the frame's segment
    /// boundaries for compressed frames (each morsel decodes without
    /// crossing a segment). Empty views yield no morsels. Iterating
    /// morsels in order visits exactly the view's rows in ascending order
    /// — the fold order every scan preserves.
    pub fn morsel_bounds(&self) -> Vec<(usize, usize)> {
        if self.len == 0 {
            return Vec::new();
        }
        match self.frame.segment_offsets() {
            None => vec![(0, self.len)],
            Some(offsets) => {
                let (s, e) = (self.start, self.start + self.len);
                let mut out = Vec::new();
                for w in offsets.windows(2) {
                    let (a, b) = (w[0].max(s), w[1].min(e));
                    if a < b {
                        out.push((a - s, b - a));
                    }
                }
                out
            }
        }
    }

    /// Borrow every dimension column for the morsel
    /// `[local_start, local_start + n)`: raw columns as direct sub-slices
    /// of the shared buffers (zero copies), compressed columns decoded
    /// into `scratch`. Row `i` of the returned slices is view-local row
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
        // lint:allow(SL001) — documented range contract, mirrors `[T]` slicing
        assert!(local_start + n <= self.len, "morsel range out of bounds");
        let d = self.num_dims();
        let global = self.start + local_start;
        if scratch.bufs.len() < d {
            scratch.bufs.resize_with(d, Vec::new);
        }
        for (j, col) in self.frame.cols.iter().enumerate() {
            if let Column::Compressed(c) = col {
                let buf = &mut scratch.bufs[j];
                buf.clear();
                c.decode_range_into(global, n, buf);
            }
        }
        let scratch = &*scratch;
        (0..d)
            .map(|j| match &self.frame.cols[j] {
                Column::Raw(a) => &a[global..global + n],
                Column::Compressed(_) => scratch.bufs[j].as_slice(),
            })
            .collect()
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
        // lint:allow(SL001) — documented range contract, mirrors `[T]` slicing
        assert!(local_start + n <= self.len, "morsel range out of bounds");
        let global = self.start + local_start;
        if scratch.bufs.len() < idxs.len() {
            scratch.bufs.resize_with(idxs.len(), Vec::new);
        }
        for (k, &j) in idxs.iter().enumerate() {
            if let Column::Compressed(c) = &self.frame.cols[j] {
                let buf = &mut scratch.bufs[k];
                buf.clear();
                c.decode_range_into(global, n, buf);
            }
        }
        let scratch = &*scratch;
        idxs.iter()
            .enumerate()
            .map(|(k, &j)| match &self.frame.cols[j] {
                Column::Raw(a) => &a[global..global + n],
                Column::Compressed(_) => scratch.bufs[k].as_slice(),
            })
            .collect()
    }

    /// The in-range slice of the measure column.
    pub fn measures(&self) -> &[f64] {
        &self.frame.measure[self.start..self.start + self.len]
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
    use crate::generators;

    #[test]
    fn frame_transposes_the_table() {
        let t = generators::flights();
        let f = Frame::from_table(&t);
        assert_eq!(f.num_rows(), t.num_rows());
        assert_eq!(f.num_dims(), t.num_dims());
        assert_eq!(f.measures(), t.measures());
        assert_eq!(f.fingerprint(), t.fingerprint());
        let mut buf = Vec::new();
        for (i, row) in t.rows().enumerate() {
            f.gather_row(i, &mut buf);
            assert_eq!(buf.as_slice(), row);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(f.col(j)[i], v);
            }
        }
    }

    #[test]
    fn partition_views_match_parallelize_chunking() {
        let t = generators::flights(); // 14 rows
        let f = Frame::from_table(&t);
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
        let f = Frame::from_table(&t);
        let v = f.view().slice(3, 5);
        assert_eq!(v.len(), 5);
        assert_eq!(v.col(0), &f.col(0)[3..8]);
        assert_eq!(v.measures(), &t.measures()[3..8]);
        assert_eq!(&*v.gather_row_boxed(0), t.row(3));
        let inner = v.slice(1, 2);
        assert_eq!(inner.col(1), &f.col(1)[4..6]);
    }

    #[test]
    fn from_columns_round_trips_values() {
        let cols = vec![vec![1u32, 2, 3], vec![9, 9, 9]];
        let f = Frame::from_columns(cols.clone(), vec![0.5, 1.5, 2.5]);
        assert_eq!(f.num_dims(), 2);
        assert_eq!(f.col(0), &cols[0][..]);
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
        let f = Frame::from_table(&t);
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

    /// Build the same table raw and compressed (small morsels so even tiny
    /// tables span several segments).
    fn both_frames(rows: usize) -> (Frame, Frame) {
        let t = generators::income_like(rows, 7);
        let raw = Frame::from_table(&t);
        let mut b = FrameBuilder::with_morsel_rows(t.num_dims(), 64);
        for (i, row) in t.rows().enumerate() {
            b.push_row(row, t.measure(i));
        }
        let compressed = b.finish_with_cards(
            t.cardinalities()
                .into_iter()
                .map(|c| u32::try_from(c).unwrap_or(u32::MAX))
                .collect(),
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
        let cols: Vec<Vec<u32>> = (0..raw.num_dims()).map(|j| raw.col(j).to_vec()).collect();
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
                        assert_eq!(*col, &rv.col(j)[s..s + n], "partition morsel col {j}");
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
        let rview = raw.view().slice(33, 150);
        let mut scratch = ColScratch::new();
        for &(s, n) in &view.morsel_bounds() {
            let cols = view.morsel_cols_indexed(&[2, 0], s, n, &mut scratch);
            assert_eq!(cols.len(), 2);
            assert_eq!(cols[0], &rview.col(2)[s..s + n]);
            assert_eq!(cols[1], &rview.col(0)[s..s + n]);
        }
    }

    #[test]
    fn from_table_with_honors_the_policy() {
        let t = generators::income_like(500, 11);
        let never = Frame::from_table_with(&t, Compression::Never);
        let auto = Frame::from_table_with(&t, Compression::Auto);
        let always = Frame::from_table_with(&t, Compression::Always);
        assert!(!never.is_compressed());
        // 500 × 9 × 4 B is far below the Auto threshold.
        assert!(!auto.is_compressed());
        assert!(always.is_compressed());
        assert_eq!(always.fingerprint(), t.fingerprint());
        assert_eq!(always.cards(), never.cards());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..t.num_rows() {
            never.gather_row(i, &mut a);
            always.gather_row(i, &mut b);
            assert_eq!(a, b);
        }
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
    #[should_panic(expected = "compressed")]
    fn raw_col_accessor_rejects_compressed_columns() {
        let (_, comp) = both_frames(100);
        let _ = comp.col(0);
    }

    #[test]
    fn empty_builder_finishes_cleanly() {
        let f = FrameBuilder::new(3).finish();
        assert_eq!(f.num_rows(), 0);
        assert_eq!(f.num_dims(), 3);
        assert_eq!(f.cards(), &[0, 0, 0]);
        assert!(f.view().morsel_bounds().is_empty());
    }
}
