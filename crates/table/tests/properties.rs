//! Property-based tests for the table substrate: dictionary encode/decode
//! round-trips, CSV write→read identity, and one column layout under both
//! compression policies.

use proptest::prelude::*;
use sirum_table::csv::{read_csv, write_csv};
use sirum_table::fingerprint::Fnv64;
use sirum_table::{
    ColScratch, ColumnFormat, CompressedCol, Compression, Dictionary, Frame, Schema, Segment, Table,
};

/// A pool of categorical values of mixed scripts and lengths, including
/// the empty string and every shape RFC-4180 quoting must escort through
/// a round trip: embedded commas, double quotes (lone, doubled, leading,
/// trailing) and line breaks.
const VALUE_POOL: &[&str] = &[
    "",
    "a",
    "b",
    "ab",
    "SF",
    "London",
    "東京",
    "Zürich",
    "v 0",
    "v-1",
    "x_y",
    "0",
    "-1",
    "3.5",
    "NaN",
    "*",
    "c0:v1",
    "long value with spaces",
    "ümlaut",
    "ØΔπ",
    "London, UK",
    "a,b,c",
    ",leading and trailing,",
    "he said \"hi\"",
    "\"quoted\"",
    "double\"\"doubled",
    "multi\nline",
    "crlf\r\ninside",
    "comma, \"quote\" and\nnewline",
];

fn value() -> impl Strategy<Value = &'static str> {
    (0..VALUE_POOL.len()).prop_map(|i| VALUE_POOL[i])
}

/// A finite measure whose `Display` text parses back to the same bits
/// (Rust's shortest-round-trip float formatting guarantees this).
fn measure() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e6f64..1.0e6,
        (-50.0f64..50.0).prop_map(f64::trunc),
        Just(0.0),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dictionary_round_trips(values in prop::collection::vec(value(), 0..60)) {
        let mut dict = Dictionary::new();
        let codes: Vec<u32> = values.iter().map(|v| dict.try_intern(v).unwrap()).collect();
        // Every code decodes back to the value that produced it.
        for (v, &c) in values.iter().zip(&codes) {
            prop_assert_eq!(dict.value(c), *v);
            prop_assert_eq!(dict.code(v), Some(c));
        }
        // Codes are dense: 0..cardinality, first occurrence order.
        let mut seen = std::collections::HashSet::new();
        let distinct: Vec<&str> = values
            .iter()
            .copied()
            .filter(|v| seen.insert(*v))
            .collect();
        prop_assert_eq!(dict.cardinality(), distinct.len());
        for (expect_code, v) in distinct.iter().enumerate() {
            prop_assert_eq!(dict.code(v), Some(expect_code as u32));
        }
        // Re-interning changes nothing.
        for v in &values {
            prop_assert_eq!(dict.try_intern(v).unwrap(), dict.code(v).unwrap());
        }
    }

    #[test]
    fn dictionary_iter_matches_value(values in prop::collection::vec(value(), 0..40)) {
        let mut dict = Dictionary::new();
        for v in &values {
            dict.try_intern(v).unwrap();
        }
        let pairs: Vec<(u32, &str)> = dict.iter().collect();
        prop_assert_eq!(pairs.len(), dict.cardinality());
        for (code, v) in pairs {
            prop_assert_eq!(dict.value(code), v);
            prop_assert_eq!(dict.code(v), Some(code));
        }
    }

    #[test]
    fn csv_write_read_is_identity(
        (d, rows) in (1usize..5).prop_flat_map(|d| {
            (
                Just(d),
                prop::collection::vec(
                    (prop::collection::vec(0..VALUE_POOL.len(), d), measure()),
                    0..30,
                ),
            )
        })
    ) {
        // Column names exercise quoting too (a comma in the header).
        let names: Vec<String> = (0..d)
            .map(|i| {
                if i == 0 {
                    "dim, zero".to_string()
                } else {
                    format!("dim{i}")
                }
            })
            .collect();
        let mut builder = Table::builder(Schema::try_new(names, "measure").unwrap());
        for (value_ids, m) in &rows {
            let values: Vec<&str> = value_ids.iter().map(|&i| VALUE_POOL[i]).collect();
            builder.try_push_row(&values, *m).unwrap();
        }
        let table = builder.build();

        let mut buf = Vec::new();
        write_csv(&table, &mut buf).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();

        prop_assert_eq!(back.schema(), table.schema());
        prop_assert_eq!(back.num_rows(), table.num_rows());
        for i in 0..table.num_rows() {
            let orig: Vec<&str> = table
                .row(i)
                .iter()
                .enumerate()
                .map(|(c, &code)| table.decode(c, code))
                .collect();
            let reread: Vec<&str> = back
                .row(i)
                .iter()
                .enumerate()
                .map(|(c, &code)| back.decode(c, code))
                .collect();
            prop_assert_eq!(orig, reread, "row {}", i);
            // Shortest-round-trip float formatting makes this exact.
            prop_assert_eq!(table.measure(i), back.measure(i), "measure {}", i);
        }
        // A second round trip is byte-identical (fixpoint).
        let mut buf2 = Vec::new();
        write_csv(&back, &mut buf2).unwrap();
        prop_assert_eq!(buf, buf2);
    }
}

/// Pieces of CSV, well- and ill-formed, for the reader's totality property
/// to splice: quotes open and doubled, every line ending, measures that do
/// and do not parse, bytes that are not UTF-8.
const CSV_FRAGMENTS: &[&[u8]] = &[
    b"a",
    b"m",
    b"a,m",
    b",",
    b"\"",
    b"\"\"",
    b"\n",
    b"\r\n",
    b"\r",
    b"1.5",
    b"-0",
    b"NaN",
    b"inf",
    b"1e999",
    b"x",
    b" ",
    "東京".as_bytes(),
    b"\xef\xbb\xbf",
    b"\xff",
    b"\xe6\x9d",
];

/// Read `bytes` through a `capacity`-byte buffer: whatever the bytes, the
/// reader returns a table whose every code decodes, or a typed error.
fn read_csv_is_total(bytes: &[u8], capacity: usize) {
    if let Ok(table) = read_csv(std::io::BufReader::with_capacity(capacity, bytes)) {
        assert!(table.num_dims() >= 1);
        for i in 0..table.num_rows() {
            for (col, &code) in table.row(i).iter().enumerate() {
                table.decode(col, code);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn read_csv_is_total_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        capacity in 1usize..9,
    ) {
        read_csv_is_total(&bytes, capacity);
    }

    #[test]
    fn read_csv_is_total_on_spliced_fragments(
        picks in prop::collection::vec(0..CSV_FRAGMENTS.len(), 0..48),
        capacity in 1usize..9,
    ) {
        let bytes: Vec<u8> = picks.iter().flat_map(|&i| CSV_FRAGMENTS[i].iter().copied()).collect();
        read_csv_is_total(&bytes, capacity);
    }
}

/// Code columns of mixed shapes, `d` columns of `n` rows each: low
/// cardinality (bit-packs), long runs (RLE) and full-width codes (nothing
/// is smaller than Raw), so an encoded frame mixes all three formats.
fn code_columns() -> impl Strategy<Value = Vec<Vec<u32>>> {
    (1usize..5, 0usize..300).prop_flat_map(|(d, n)| {
        let col = (0u32..3, 1u32..9, prop::collection::vec(any::<u32>(), n));
        prop::collection::vec(col, d).prop_map(|cols| {
            cols.into_iter()
                .map(|(shape, k, raw)| {
                    let code = |(i, v): (usize, &u32)| match shape {
                        0 => v % k,
                        1 => i as u32 / (7 * k),
                        _ => *v,
                    };
                    raw.iter().enumerate().map(code).collect()
                })
                .collect()
        })
    })
}

/// The fingerprint stream over `cols` and `measure`, folded by hand: the
/// dimension count, the row count, every code column by column, then the
/// measure bits.
fn folded_fingerprint(cols: &[Vec<u32>], measure: &[f64]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(cols.len() as u64);
    h.write_u64(measure.len() as u64);
    for &code in cols.iter().flatten() {
        h.write_u32(code);
    }
    for &m in measure {
        h.write_f64(m);
    }
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A frame has one column layout, segments, whichever policy stored
    /// them. Cut every `morsel` rows, the `Always` frame (every segment
    /// through the encoder) and the `Never` frame (every segment Raw) hold
    /// the same codes: equal fingerprints (the code stream `hash_codes`
    /// folds), equal rows, equal morsels over any view. The `Never` frame
    /// is all Raw, its morsels borrow the segments in place, and it
    /// charges 4 B per row and column for any range.
    #[test]
    fn one_layout_under_both_policies(
        cols in code_columns(),
        morsel in 1usize..40,
        cut in (0usize..1000, 0usize..1000),
    ) {
        let (d, n) = (cols.len(), cols[0].len());
        let measure: Vec<f64> = (0..n).map(|i| i as f64 * 0.25 - 3.0).collect();
        let cards = vec![u32::MAX; d];
        let encoded = cols.iter().map(|c| CompressedCol::from_values(c, morsel)).collect();
        let always = Frame::from_compressed_columns_with_cards(encoded, measure.clone(), cards);
        let never = always.with_compression(Compression::Never);
        let again = never.with_compression(Compression::Always);
        for j in 0..d {
            prop_assert_eq!(again.column(j), always.column(j));
            prop_assert_eq!(never.column(j).offsets(), always.column(j).offsets());
        }
        prop_assert!(!never.is_compressed());
        prop_assert!(never.column_formats().iter().all(|f| *f == ColumnFormat::Raw));
        let fingerprint = folded_fingerprint(&cols, &measure);
        prop_assert_eq!(always.fingerprint(), fingerprint);
        prop_assert_eq!(never.fingerprint(), fingerprint);

        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..n {
            always.gather_row(i, &mut a);
            never.gather_row(i, &mut b);
            let row: Vec<u32> = cols.iter().map(|c| c[i]).collect();
            prop_assert_eq!(&a, &row);
            prop_assert_eq!(&b, &row);
        }

        let start = cut.0 * n / 1000;
        let len = cut.1 * (n - start) / 1000;
        prop_assert_eq!(never.dim_bytes_in_range(start, len), 4 * len * d);
        let reversed: Vec<usize> = (0..d).rev().collect();
        let mut scratch = ColScratch::new();
        for (frame, raw) in [(&always, false), (&never, true)] {
            let view = frame.view().slice(start, len);
            let mut next = 0;
            for (s, m) in view.morsel_bounds() {
                prop_assert_eq!(s, next);
                next += m;
                let at = start + s;
                for (j, got) in view.morsel_cols(s, m, &mut scratch).into_iter().enumerate() {
                    prop_assert_eq!(got, &cols[j][at..at + m]);
                    if raw {
                        let col = never.column(j);
                        let k = col.offsets().partition_point(|&o| o <= at) - 1;
                        let in_place = matches!(&col.segments()[k],
                            Segment::Raw(seg) if seg.as_ptr_range().contains(&got.as_ptr()));
                        prop_assert!(in_place, "morsel at row {} of column {} was copied", at, j);
                    }
                }
                let picked = view.morsel_cols_indexed(&reversed, s, m, &mut scratch);
                for (got, &j) in picked.into_iter().zip(&reversed) {
                    prop_assert_eq!(got, &cols[j][at..at + m]);
                }
            }
            prop_assert_eq!(next, len);
            // A range that crosses segments decodes whole.
            let whole = view.morsel_cols(0, len, &mut scratch);
            for (j, got) in whole.into_iter().enumerate() {
                prop_assert_eq!(got, &cols[j][start..start + len]);
            }
        }
    }
}
