//! Columnar segments: the one storage layout of a dimension column.
//!
//! The paper's scaling axis runs to 160M-row TLC samples; holding every
//! dimension as a raw `u32` column costs `4·n·d` bytes — 72 MB for the
//! 9-dimension 2M-row sample, 5.8 GB at 160M — when the dictionary
//! cardinalities need only a handful of bits per code. A [`CompressedCol`]
//! stores a column as a sequence of [`MORSEL_ROWS`]-row **segments**, each
//! in one of three formats:
//!
//! * **Packed** — codes bit-packed into `u64` words at
//!   `ceil(log2(max_code + 1))` bits each (values may straddle word
//!   boundaries); the general case for low-cardinality dimensions.
//! * **RLE** — `(value, run)` runs for skewed or sorted segments where a
//!   few values dominate long stretches; stored with prefix-summed run
//!   ends so random access is a binary search, not a walk.
//! * **Raw** — the `u32` values verbatim: every segment of a frame built
//!   under [`crate::Compression::Never`], and [`Segment::encode`]'s
//!   fallback when nothing is smaller.
//!
//! Every frame column is a `CompressedCol`; "uncompressed" is a segment
//! format, not a second column type. Scans borrow a morsel lying inside a
//! Raw segment and decode any other ([`crate::frame::FrameView::morsel_cols`]),
//! spills serialize segments without re-encoding, and point probes
//! ([`CompressedCol::value_at`]) decode one value.

/// Rows per morsel: the segment granularity of every column, and so the
/// decode unit of morsel-driven scans. At 64Ki rows one morsel of a
/// 9-dimension table decodes into ~2.3 MB of scratch — small enough to
/// stay cache-adjacent, large enough that per-segment overhead (offsets,
/// format tags) is noise.
pub(crate) const MORSEL_ROWS: usize = 65_536;

/// One stored run of a column: `MORSEL_ROWS` values (the last segment of a
/// column may be shorter) verbatim or in whichever format the size
/// heuristic chose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// Verbatim `u32` codes (4 bytes/value): the layout of uncompressed
    /// frames and the encoder's incompressible fallback. Scans borrow it.
    Raw(Box<[u32]>),
    /// Codes bit-packed little-endian into `u64` words, `bits` bits each;
    /// a value may straddle two words.
    Packed {
        /// Bits per value, `1..=32`, sized by the segment's maximum code.
        bits: u32,
        /// Number of values in the segment.
        len: u32,
        /// The packed words, `ceil(len · bits / 64)` of them.
        words: Box<[u64]>,
    },
    /// Run-length encoding: `values[k]` repeated for rows
    /// `[ends[k-1], ends[k])` (with `ends[-1] = 0`).
    Rle {
        /// One value per run.
        values: Box<[u32]>,
        /// Exclusive prefix-summed end row of each run; the last entry is
        /// the segment length.
        ends: Box<[u32]>,
    },
}

/// Bits needed to represent `max` (at least 1, so a constant-zero segment
/// still has a well-formed packed layout).
#[inline]
fn bits_for(max: u32) -> u32 {
    (32 - max.leading_zeros()).max(1)
}

impl Segment {
    /// Encode `values` in the smallest of the three formats. The
    /// comparison is on exact payload bytes (`4·len` raw,
    /// `8·ceil(len·bits/64)` packed, `8·runs` RLE); ties prefer the
    /// cheaper-to-decode format (raw over packed, packed over RLE).
    pub fn encode(values: &[u32]) -> Segment {
        let len = values.len();
        let max = values.iter().copied().max().unwrap_or(0);
        let bits = bits_for(max);
        let raw_bytes = 4 * len;
        let packed_bytes = 8 * (len * bits as usize).div_ceil(64);
        let runs = values.windows(2).filter(|w| w[0] != w[1]).count() + usize::from(len > 0);
        let rle_bytes = 8 * runs;
        if rle_bytes < packed_bytes.min(raw_bytes) {
            let breaks = values.windows(2).enumerate().filter(|(_, w)| w[0] != w[1]);
            let ends: Box<[u32]> = breaks
                .map(|(i, _)| i as u32 + 1)
                .chain([len as u32])
                .collect();
            let values = ends.iter().map(|&e| values[e as usize - 1]).collect();
            Segment::Rle { values, ends }
        } else if packed_bytes < raw_bytes {
            let mut words = vec![0u64; (len * bits as usize).div_ceil(64)];
            for (i, &v) in values.iter().enumerate() {
                let bit = i * bits as usize;
                let (w, off) = (bit / 64, (bit % 64) as u32);
                words[w] |= u64::from(v) << off;
                if off + bits > 64 {
                    words[w + 1] |= u64::from(v) >> (64 - off);
                }
            }
            Segment::Packed {
                bits,
                len: len as u32,
                words: words.into_boxed_slice(),
            }
        } else {
            Segment::Raw(values.into())
        }
    }

    /// Number of values in the segment.
    pub fn len(&self) -> usize {
        match self {
            Segment::Raw(v) => v.len(),
            Segment::Packed { len, .. } => *len as usize,
            Segment::Rle { ends, .. } => ends.last().map_or(0, |&e| e as usize),
        }
    }

    /// True when the segment holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload bytes of the encoded form (what the size heuristic and the
    /// block store's budget accounting charge).
    pub(crate) fn encoded_bytes(&self) -> usize {
        match self {
            Segment::Raw(v) => 4 * v.len(),
            Segment::Packed { words, .. } => 8 * words.len(),
            Segment::Rle { values, .. } => 8 * values.len(),
        }
    }

    /// The value at row `i` of this segment. O(1) for raw and packed
    /// segments, O(log runs) for RLE.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub(crate) fn value_at(&self, i: usize) -> u32 {
        match self {
            Segment::Raw(v) => v[i],
            Segment::Packed { bits, len, words } => {
                // lint:allow(SL001) — same range contract as `[u32]` indexing
                assert!(i < *len as usize, "segment row out of range");
                let bit = i * *bits as usize;
                let (w, off) = (bit / 64, (bit % 64) as u32);
                let mut v = words[w] >> off;
                if off + bits > 64 {
                    v |= words[w + 1] << (64 - off);
                }
                (v & mask(*bits)) as u32
            }
            Segment::Rle { values, ends } => {
                let k = ends.partition_point(|&e| e as usize <= i);
                values[k]
            }
        }
    }

    /// Append rows `[start, start + n)` of this segment to `out`.
    ///
    /// # Panics
    /// Panics when the range exceeds the segment.
    pub fn decode_range_into(&self, start: usize, n: usize, out: &mut Vec<u32>) {
        // lint:allow(SL001) — same range contract as `[u32]` slicing
        assert!(start + n <= self.len(), "segment range out of bounds");
        match self {
            Segment::Raw(v) => out.extend_from_slice(&v[start..start + n]),
            Segment::Packed { bits, words, .. } => {
                let m = mask(*bits);
                out.reserve(n);
                let mut bit = start * *bits as usize;
                for _ in 0..n {
                    let (w, off) = (bit / 64, (bit % 64) as u32);
                    let mut v = words[w] >> off;
                    if off + bits > 64 {
                        v |= words[w + 1] << (64 - off);
                    }
                    out.push((v & m) as u32);
                    bit += *bits as usize;
                }
            }
            Segment::Rle { values, ends } => {
                out.reserve(n);
                let mut k = ends.partition_point(|&e| e as usize <= start);
                let mut row = start;
                let stop = start + n;
                while row < stop {
                    let run_end = (ends[k] as usize).min(stop);
                    out.extend(std::iter::repeat_n(values[k], run_end - row));
                    row = run_end;
                    k += 1;
                }
            }
        }
    }
}

#[inline]
fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// A dimension column: a sequence of independently stored [`Segment`]s
/// with prefix-summed row offsets. All columns of one frame share the same
/// segmentation (they are cut together, morsel by morsel), which is what
/// lets scans take a whole morsel of every column at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedCol {
    segments: Box<[Segment]>,
    /// `offsets[k]` = first row of segment `k`; `offsets[segments.len()]`
    /// = column length.
    offsets: Box<[usize]>,
}

impl CompressedCol {
    /// Assemble a column from encoded segments (the spill-decode path).
    pub fn from_segments(segments: Vec<Segment>) -> CompressedCol {
        let mut offsets = Vec::with_capacity(segments.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for seg in &segments {
            total += seg.len();
            offsets.push(total);
        }
        CompressedCol {
            segments: segments.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
        }
    }

    /// Encode a whole column in `morsel_rows`-sized segments.
    pub fn from_values(values: &[u32], morsel_rows: usize) -> CompressedCol {
        let morsel = morsel_rows.max(1);
        CompressedCol::from_segments(values.chunks(morsel).map(Segment::encode).collect())
    }

    /// Number of rows in the column.
    pub(crate) fn len(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// The encoded segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Segment start offsets (`segments().len() + 1` entries; the last is
    /// the column length). Every column of one frame shares these — they
    /// are the frame's morsel boundaries.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Total encoded payload bytes.
    pub(crate) fn encoded_bytes(&self) -> usize {
        self.segments.iter().map(Segment::encoded_bytes).sum()
    }

    /// Each segment overlapping rows `[start, start + n)`, with the
    /// overlap `lo..hi` in the segment's own rows.
    fn overlapping(
        &self,
        start: usize,
        n: usize,
    ) -> impl Iterator<Item = (&Segment, usize, usize)> {
        let stop = start + n;
        let bounds = self.offsets.windows(2);
        self.segments
            .iter()
            .zip(bounds)
            .filter_map(move |(seg, w)| {
                let (lo, hi) = (start.max(w[0]), stop.min(w[1]));
                (lo < hi).then(|| (seg, lo - w[0], hi - w[0]))
            })
    }

    /// The budget charge of a range view over rows `[start, start + n)` of
    /// this column: 4 bytes per in-range row of a Raw segment, the whole
    /// payload of every overlapping Packed or RLE segment. The charge
    /// bounds a spill of the range from above: [`Self::slice_segments`]
    /// writes only the in-range rows of a boundary segment.
    pub(crate) fn range_encoded_bytes(&self, start: usize, n: usize) -> usize {
        let charge = |(seg, lo, hi): (&Segment, usize, usize)| match seg {
            Segment::Raw(_) => 4 * (hi - lo),
            _ => seg.encoded_bytes(),
        };
        self.overlapping(start, n).map(charge).sum()
    }

    /// The value at row `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub(crate) fn value_at(&self, i: usize) -> u32 {
        let k = self.offsets.partition_point(|&o| o <= i) - 1;
        self.segments[k].value_at(i - self.offsets[k])
    }

    /// Rows `[start, start + n)` borrowed in place, when they lie inside
    /// one Raw segment; `None` when they must be decoded.
    pub(crate) fn raw_window(&self, start: usize, n: usize) -> Option<&[u32]> {
        let mut parts = self.overlapping(start, n);
        match (parts.next()?, parts.next()) {
            ((Segment::Raw(v), lo, hi), None) if hi - lo == n => Some(&v[lo..hi]),
            _ => None,
        }
    }

    /// Append rows `[start, start + n)` to `out`, decoding one segment at
    /// a time.
    ///
    /// # Panics
    /// Panics when the range exceeds the column.
    pub(crate) fn decode_range_into(&self, start: usize, n: usize, out: &mut Vec<u32>) {
        // lint:allow(SL001) — same range contract as `[u32]` slicing
        assert!(start + n <= self.len(), "column range out of bounds");
        for (seg, lo, hi) in self.overlapping(start, n) {
            seg.decode_range_into(lo, hi - lo, out);
        }
    }

    /// Re-segment rows `[start, start + n)` as a standalone segment list:
    /// interior segments are carried whole, a boundary Raw segment is
    /// clipped to its in-range rows and stays Raw, any other boundary
    /// segment is re-encoded over just its in-range rows. This is how a
    /// range view (one partition of a frame) spills in its own formats
    /// without dragging out-of-range rows along.
    pub fn slice_segments(&self, start: usize, n: usize) -> Vec<Segment> {
        // lint:allow(SL001) — same range contract as `[u32]` slicing
        assert!(start + n <= self.len(), "column range out of bounds");
        let mut scratch = Vec::new();
        let clip = |(seg, lo, hi): (&Segment, usize, usize)| match seg {
            _ if hi - lo == seg.len() => seg.clone(),
            Segment::Raw(v) => Segment::Raw(v[lo..hi].into()),
            _ => {
                scratch.clear();
                seg.decode_range_into(lo, hi - lo, &mut scratch);
                Segment::encode(&scratch)
            }
        };
        self.overlapping(start, n).map(clip).collect()
    }

    /// Per-format segment counts `(raw, packed, rle)` and the maximum
    /// packed bit width — the summary [`crate::frame::ColumnFormat`] and
    /// `explain()` report.
    pub(crate) fn format_counts(&self) -> (usize, usize, usize, u32) {
        let (mut raw, mut packed, mut rle, mut max_bits) = (0usize, 0usize, 0usize, 0u32);
        for seg in self.segments.iter() {
            match seg {
                Segment::Raw(_) => raw += 1,
                Segment::Packed { bits, .. } => {
                    packed += 1;
                    max_bits = max_bits.max(*bits);
                }
                Segment::Rle { .. } => rle += 1,
            }
        }
        (raw, packed, rle, max_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_round_trip(values: &[u32], morsel: usize) {
        let col = CompressedCol::from_values(values, morsel);
        assert_eq!(col.len(), values.len());
        let mut out = Vec::new();
        col.decode_range_into(0, values.len(), &mut out);
        assert_eq!(out, values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(col.value_at(i), v, "value_at({i})");
        }
        // Every sub-range decodes correctly too.
        let probes = [
            (0, values.len() / 2),
            (values.len() / 3, values.len() / 2),
            (values.len().saturating_sub(1), values.len().min(1)),
            (0, 0),
        ];
        for &(s, n) in &probes {
            if s + n <= values.len() {
                out.clear();
                col.decode_range_into(s, n, &mut out);
                assert_eq!(out, &values[s..s + n], "range ({s}, {n})");
            }
        }
    }

    #[test]
    fn low_cardinality_packs() {
        let values: Vec<u32> = (0..10_000).map(|i| (i * 7) % 13).collect();
        let col = CompressedCol::from_values(&values, 4096);
        let (_, packed, _, bits) = col.format_counts();
        assert!(packed > 0, "13 distinct values must bit-pack");
        assert_eq!(bits, 4);
        assert!(col.encoded_bytes() < 4 * values.len() / 4, "≤ 4 bits/value");
        check_round_trip(&values, 4096);
    }

    #[test]
    fn constant_and_sorted_segments_rle() {
        let mut values = vec![3u32; 5000];
        values.extend(std::iter::repeat_n(9u32, 5000));
        let col = CompressedCol::from_values(&values, 2048);
        let (_, _, rle, _) = col.format_counts();
        assert!(rle > 0, "long runs must RLE");
        assert!(col.encoded_bytes() < 200);
        check_round_trip(&values, 2048);
    }

    #[test]
    fn high_cardinality_falls_back_to_raw() {
        // Random-ish 32-bit values: packing needs 32 bits (same as raw),
        // runs are all length 1 — raw must win.
        let values: Vec<u32> = (0..3000)
            .map(|i: u32| i.wrapping_mul(0x9E37_79B9) | 0x8000_0000)
            .collect();
        let col = CompressedCol::from_values(&values, 1024);
        let (raw, packed, rle, _) = col.format_counts();
        assert_eq!((packed, rle), (0, 0));
        assert!(raw > 0);
        check_round_trip(&values, 1024);
    }

    #[test]
    fn wildcard_sentinel_round_trips() {
        let values = vec![0, u32::MAX, 5, u32::MAX, u32::MAX];
        check_round_trip(&values, 2);
    }

    #[test]
    fn values_straddle_word_boundaries() {
        // 5 bits/value: value 12 starts at bit 60 and straddles words.
        let values: Vec<u32> = (0..200).map(|i| (i % 31) as u32).collect();
        let col = CompressedCol::from_values(&values, 200);
        match &col.segments()[0] {
            Segment::Packed { bits, .. } => assert_eq!(*bits, 5),
            other => panic!("expected packed, got {other:?}"),
        }
        check_round_trip(&values, 200);
    }

    #[test]
    fn empty_and_tiny_columns() {
        check_round_trip(&[], 16);
        check_round_trip(&[42], 16);
        let col = CompressedCol::from_values(&[], 16);
        assert_eq!(col.len(), 0);
        assert_eq!(col.range_encoded_bytes(0, 0), 0);
    }

    #[test]
    fn slice_segments_reencodes_boundaries_only() {
        let values: Vec<u32> = (0..1000).map(|i| i % 7).collect();
        let col = CompressedCol::from_values(&values, 100);
        // [150, 750): partial head (seg 1), whole segs 2..=6, partial tail.
        let sliced = CompressedCol::from_segments(col.slice_segments(150, 600));
        assert_eq!(sliced.len(), 600);
        let mut out = Vec::new();
        sliced.decode_range_into(0, 600, &mut out);
        assert_eq!(out, &values[150..750]);
        // Interior segments are carried whole (same encoded form).
        assert_eq!(sliced.segments()[1], col.segments()[2]);
        // Aligned slices carry every segment verbatim.
        let aligned = col.slice_segments(100, 300);
        assert_eq!(aligned.as_slice(), &col.segments()[1..4]);
        // A boundary Raw segment is clipped, not re-encoded: it stays Raw.
        let raw = CompressedCol::from_segments(vec![Segment::Raw(values.clone().into())]);
        let clipped = raw.slice_segments(150, 600);
        assert_eq!(clipped, vec![Segment::Raw(values[150..750].into())]);
    }

    #[test]
    fn range_encoded_bytes_counts_overlapping_segments() {
        let values: Vec<u32> = (0..400).map(|i| i % 3).collect();
        let col = CompressedCol::from_values(&values, 100);
        let per_seg = col.segments()[0].encoded_bytes();
        assert_eq!(col.range_encoded_bytes(0, 400), col.encoded_bytes());
        assert_eq!(col.range_encoded_bytes(50, 100), 2 * per_seg);
        assert_eq!(col.range_encoded_bytes(100, 100), per_seg);
        // Raw segments charge 4 B per in-range row, not their whole payload.
        let raw = CompressedCol::from_segments(vec![Segment::Raw(values.into())]);
        assert_eq!(raw.range_encoded_bytes(50, 100), 400);
        assert_eq!(raw.range_encoded_bytes(0, 400), raw.encoded_bytes());
    }

    #[test]
    fn heuristic_never_beats_raw_budget() {
        // Whatever the shape, the chosen format is never larger than raw.
        for values in [
            (0..500).map(|i| i % 2).collect::<Vec<u32>>(),
            (0..500).collect(),
            vec![7; 500],
            (0..500).map(|i: u32| i.wrapping_mul(0x85EB_CA6B)).collect(),
        ] {
            let col = CompressedCol::from_values(&values, 128);
            assert!(col.encoded_bytes() <= 4 * values.len());
        }
    }
}
