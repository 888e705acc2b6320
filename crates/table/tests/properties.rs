//! Property-based tests for the table substrate: dictionary encode/decode
//! round-trips and CSV write→read identity.

use proptest::prelude::*;
use sirum_table::csv::{read_csv, write_csv};
use sirum_table::{Dictionary, Schema, Table};

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
