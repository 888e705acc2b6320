//! CSV I/O for [`Table`]s, in the RFC-4180 dialect.
//!
//! The paper stores its datasets as CSV files in HDFS; this module provides
//! the equivalent boundary for the reproduction. Fields are
//! comma-separated, the first line is the header (dimension names then the
//! measure name), and values containing commas, double quotes, carriage
//! returns or newlines are written inside double quotes with embedded
//! quotes doubled (`"` → `""`), so every categorical value round-trips —
//! the reader accepts quoted fields back, including multi-line ones.
//!
//! Both directions run at scan speed on plain data. The reader splits a
//! **plain record** — one whose `\n` lies in the reader's current buffer
//! with no `"` or `\r` before it — in place, into fields borrowed from the
//! buffer; every other record (quoted, CR-terminated, crossing a buffer
//! refill, or last without a `\n`) goes through one byte-wise state
//! machine, the single general grammar, and the fast path resumes after
//! it. The two agree on every input, errors included. The writer escapes
//! each dictionary value once and hands the output to its sink one morsel
//! of rows at a time.

use crate::error::TableError;
use crate::frame::ColScratch;
use crate::schema::Schema;
use crate::table::{Table, TableBuilder};
use std::io::{BufRead, Write};

/// True when `field` must be quoted under RFC 4180.
fn needs_quoting(field: &str) -> bool {
    field
        .chars()
        .any(|c| c == ',' || c == '"' || c == '\n' || c == '\r')
}

/// Append one field to `out`, quoting and escaping it if the dialect
/// requires.
fn push_field(out: &mut Vec<u8>, field: &str) {
    if needs_quoting(field) {
        out.push(b'"');
        out.extend_from_slice(field.replace('"', "\"\"").as_bytes());
        out.push(b'"');
    } else {
        out.extend_from_slice(field.as_bytes());
    }
}

/// Serialize a table as CSV (header + one line per row). Values with
/// commas, quotes or line breaks are quoted per RFC 4180 and round-trip
/// through [`read_csv`]. Returns [`TableError::Io`] on a write failure.
///
/// Each column's dictionary values are escaped once, up front; a morsel's
/// rows are assembled in one reused buffer and written with one
/// `write_all`, so an unbuffered `out` takes one write for the header and
/// one per morsel.
pub fn write_csv<W: Write>(table: &Table, out: &mut W) -> Result<(), TableError> {
    let schema = table.schema();
    let mut buf = Vec::new();
    let names = (schema.dim_names().iter().map(String::as_str)).chain([schema.measure_name()]);
    for (i, name) in names.enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        push_field(&mut buf, name);
    }
    buf.push(b'\n');
    out.write_all(&buf)?;
    // Per column, per code: the value's field, after its comma separator
    // past the first column.
    let fields: Vec<Vec<Vec<u8>>> = (0..schema.num_dims())
        .map(|col| {
            let field = |(_, value)| {
                let mut field = if col > 0 { vec![b','] } else { Vec::new() };
                push_field(&mut field, value);
                field
            };
            table.dict(col).iter().map(field).collect()
        })
        .collect();
    // One morsel of every column decoded at a time (borrowed when raw).
    let view = table.frame().view();
    let mut scratch = ColScratch::new();
    for (start, len) in view.morsel_bounds() {
        let cols = view.morsel_cols(start, len, &mut scratch);
        buf.clear();
        for (r, m) in table.measures()[start..start + len].iter().enumerate() {
            for (field, codes) in fields.iter().zip(&cols) {
                buf.extend_from_slice(&field[codes[r] as usize]);
            }
            writeln!(buf, ",{m}")?;
        }
        out.write_all(&buf)?;
    }
    Ok(())
}

/// The error a field or record that is not UTF-8 reads as.
fn invalid_utf8() -> TableError {
    TableError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

/// A streaming record splitter over a buffered reader, honoring RFC-4180
/// quoting: a field starting with `"` runs to the matching closing quote,
/// `""` inside quotes is a literal `"`, and commas *and line breaks*
/// inside quotes do not split — `\r`/`\n` bytes inside a quoted field are
/// preserved exactly (line-based readers would strip the `\r` of an
/// embedded CRLF). Outside quotes, `\n`, `\r\n` and a lone `\r` all
/// terminate a record. A lone `"` inside an unquoted field is taken
/// literally (lenient, like most real-world readers).
///
/// Records are pulled chunk-by-chunk from the reader as they are consumed,
/// so parsing holds one in-progress record — never the whole input.
/// [`Self::next_record`] scans byte-wise: every delimiter is ASCII and
/// UTF-8 guarantees ASCII bytes cannot occur inside a multi-byte sequence,
/// so a chunk boundary may split a multi-byte character without confusing
/// the state machine; fields are validated as UTF-8 only once complete.
/// [`Self::take_plain`] hands over the records that need none of this
/// straight out of the reader's buffer.
struct Records<R: BufRead> {
    input: R,
    /// One byte of lookahead (for CRLF pairs and doubled quotes) that has
    /// been pulled from the reader but not yet consumed by the parser.
    peeked: Option<u8>,
    /// 1-based physical line number of the *next* byte.
    line: usize,
    /// The byte offsets of the commas in the record [`Self::take_plain`]
    /// last looked at, kept to reuse its allocation.
    commas: Vec<usize>,
}

impl<R: BufRead> Records<R> {
    fn new(input: R) -> Self {
        Records {
            input,
            peeked: None,
            line: 1,
            commas: Vec::new(),
        }
    }

    fn next_byte(&mut self) -> Result<Option<u8>, TableError> {
        if let Some(b) = self.peeked.take() {
            return Ok(Some(b));
        }
        let buf = self.input.fill_buf()?;
        let Some(&b) = buf.first() else {
            return Ok(None);
        };
        self.input.consume(1);
        Ok(Some(b))
    }

    fn peek_byte(&mut self) -> Result<Option<u8>, TableError> {
        if self.peeked.is_none() {
            self.peeked = self.next_byte()?;
        }
        Ok(self.peeked)
    }

    /// Hand `take` the next record — as text borrowed from the reader's
    /// buffer, the byte offsets of its commas and its physical line — when
    /// the record is plain: its `\n` lies in the buffer and no `"` or `\r`
    /// comes before it, so splitting the text at its commas is exactly
    /// what [`Self::next_record`] would do. One pass over the bytes finds
    /// the end and the commas. The record is consumed once `take` returns
    /// `Ok`. `Ok(false)`, with
    /// nothing consumed, when the record is not plain, the input is at its
    /// end, or a byte is peeked.
    fn take_plain(
        &mut self,
        take: impl FnOnce(&str, &[usize], usize) -> Result<(), TableError>,
    ) -> Result<bool, TableError> {
        if self.peeked.is_some() {
            return Ok(false);
        }
        let buf = self.input.fill_buf()?;
        self.commas.clear();
        let mut end = None;
        for (i, &b) in buf.iter().enumerate() {
            match b {
                b',' => self.commas.push(i),
                b'\n' => {
                    end = Some(i);
                    break;
                }
                b'\r' | b'"' => return Ok(false),
                _ => {}
            }
        }
        let Some(len) = end else {
            return Ok(false);
        };
        let text = std::str::from_utf8(&buf[..len]).map_err(|_| invalid_utf8())?;
        take(text, &self.commas, self.line)?;
        self.input.consume(len + 1);
        self.line += 1;
        Ok(true)
    }

    /// Pull the next logical record as `(fields, first physical line)`,
    /// `None` at end of input.
    fn next_record(&mut self) -> Result<Option<(Vec<String>, usize)>, TableError> {
        if self.peek_byte()?.is_none() {
            return Ok(None);
        }
        let start_line = self.line;
        let mut fields = Vec::new();
        let mut cur = Vec::new();
        let take_field = |cur: &mut Vec<u8>| -> Result<String, TableError> {
            String::from_utf8(std::mem::take(cur)).map_err(|_| invalid_utf8())
        };
        let mut in_quotes = false;
        let mut at_field_start = true;
        while let Some(b) = self.next_byte()? {
            if b == b'\n' {
                self.line += 1;
            }
            if in_quotes {
                if b == b'"' {
                    if self.peek_byte()? == Some(b'"') {
                        self.next_byte()?;
                        cur.push(b'"');
                    } else {
                        in_quotes = false;
                    }
                } else {
                    cur.push(b); // commas, \r and \n included, verbatim
                }
                continue;
            }
            match b {
                b'"' if at_field_start => in_quotes = true,
                b',' => {
                    fields.push(take_field(&mut cur)?);
                    at_field_start = true;
                    continue;
                }
                b'\n' => {
                    fields.push(take_field(&mut cur)?);
                    return Ok(Some((fields, start_line)));
                }
                b'\r' => {
                    // CRLF or a lone CR (classic Mac): either way one
                    // physical line ends here.
                    if self.peek_byte()? == Some(b'\n') {
                        self.next_byte()?;
                    }
                    self.line += 1;
                    fields.push(take_field(&mut cur)?);
                    return Ok(Some((fields, start_line)));
                }
                _ => cur.push(b),
            }
            at_field_start = false;
        }
        if in_quotes {
            return Err(TableError::UnclosedQuote { line: start_line });
        }
        fields.push(take_field(&mut cur)?);
        Ok(Some((fields, start_line)))
    }
}

/// Add one record to `builder`: `found` fields starting on physical
/// `line`, `dims` the first `d` of them and `last` the last. A blank
/// record (one empty field) is skipped; any other must hold one field per
/// dimension plus a numeric measure.
fn push_record<'f>(
    builder: &mut TableBuilder,
    d: usize,
    line: usize,
    found: usize,
    dims: impl Iterator<Item = &'f str>,
    last: &str,
) -> Result<(), TableError> {
    if found != d + 1 {
        if found == 1 && last.is_empty() {
            return Ok(()); // blank line
        }
        return Err(TableError::RaggedLine {
            line,
            expected: d + 1,
            found,
        });
    }
    let m: f64 = last.parse().map_err(|_| TableError::BadMeasure {
        line,
        value: last.to_string(),
    })?;
    builder.push_values(dims.take(d), m)
}

/// Parse a CSV produced by [`write_csv`] (or any RFC-4180 file whose last
/// column is numeric) back into a [`Table`]. Quoted fields — including
/// values with embedded commas, doubled quotes and line breaks — are
/// unescaped.
///
/// Every malformed input maps to a typed [`TableError`]: a missing header
/// ([`TableError::EmptyInput`]), a header without dimension columns
/// ([`TableError::NoDimensions`]), repeated column names
/// ([`TableError::DuplicateDimension`]), a wrong field count
/// ([`TableError::RaggedLine`]), a non-numeric measure
/// ([`TableError::BadMeasure`]), a quote left open at end of input
/// ([`TableError::UnclosedQuote`]) or bytes that are not UTF-8
/// ([`TableError::Io`] of kind `InvalidData`); the first in record order
/// is reported.
///
/// A plain record — its `\n` inside the reader's current buffer, no `"`
/// or `\r` before it — is validated as UTF-8 once, split on `,` into
/// fields borrowed from the buffer and interned without a per-field or
/// per-record allocation. The header and every other record (quoted,
/// CR-terminated, crossing a buffer refill, or last without a `\n`) take
/// the byte-wise state machine, and the next record tries the fast path
/// again. Through an 8 KiB `BufReader` about 1 record in 130 of a
/// typical table crosses a refill; a whole-slice input never does. Either
/// way the same table or the same error comes out.
pub fn read_csv<R: BufRead>(input: R) -> Result<Table, TableError> {
    // Records are parsed straight out of the reader's buffer and
    // dictionary-encoded into the builder one at a time, so the input text
    // is never held whole. The builder does hold every code, as raw
    // columns, until `build` stores them (compressed when large) — peak
    // memory is the raw table, not one morsel.
    let mut records = Records::new(input);

    let Some((mut cols, _)) = records.next_record()? else {
        return Err(TableError::EmptyInput);
    };
    let measure = cols.pop().ok_or(TableError::NoDimensions)?;
    if cols.is_empty() {
        return Err(TableError::NoDimensions);
    }
    let schema = Schema::try_new(cols.iter().map(String::as_str).collect(), &measure)?;
    let d = schema.num_dims();
    let mut builder = Table::builder(schema);
    loop {
        let plain = records.take_plain(|text, commas, line| {
            let last = &text[commas.last().map_or(0, |&c| c + 1)..];
            let dims = commas.iter().scan(0, |start, &c| {
                let field = &text[*start..c];
                *start = c + 1;
                Some(field)
            });
            push_record(&mut builder, d, line, commas.len() + 1, dims, last)
        })?;
        if plain {
            continue;
        }
        let Some((fields, line)) = records.next_record()? else {
            break;
        };
        let last = fields.last().map_or("", String::as_str);
        let dims = fields.iter().map(String::as_str);
        push_record(&mut builder, d, line, fields.len(), dims, last)?;
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn round_trip(t: &Table) -> Table {
        let mut buf = Vec::new();
        write_csv(t, &mut buf).unwrap();
        read_csv(buf.as_slice()).unwrap()
    }

    fn assert_tables_equal(a: &Table, b: &Table) {
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.num_rows(), b.num_rows());
        for i in 0..a.num_rows() {
            let orig: Vec<&str> = a
                .row(i)
                .iter()
                .enumerate()
                .map(|(c, &code)| a.decode(c, code))
                .collect();
            let reread: Vec<&str> = b
                .row(i)
                .iter()
                .enumerate()
                .map(|(c, &code)| b.decode(c, code))
                .collect();
            assert_eq!(orig, reread);
            assert_eq!(a.measure(i), b.measure(i));
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = generators::flights();
        assert_tables_equal(&t, &round_trip(&t));
    }

    /// Values and a header name that need quoting: commas, quotes, a
    /// line break.
    fn quoting_table() -> Table {
        let mut b = Table::builder(Schema::try_new(vec!["City, Country", "Kind"], "m").unwrap());
        b.try_push_row(&["London, UK", "plain"], 1.0).unwrap();
        b.try_push_row(&["San Francisco, CA, USA", "with \"quotes\""], 2.5)
            .unwrap();
        b.try_push_row(&["multi\nline", "trailing,comma,"], -3.0)
            .unwrap();
        b.build()
    }

    #[test]
    fn quoted_fields_with_commas_round_trip() {
        let t = quoting_table();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("\"City, Country\",Kind,m\n"));
        assert!(text.contains("\"London, UK\""));
        assert!(text.contains("\"with \"\"quotes\"\"\""));
        assert!(text.contains("\"multi\nline\""));
        assert_tables_equal(&t, &read_csv(buf.as_slice()).unwrap());
    }

    #[test]
    fn reader_accepts_foreign_rfc4180_input() {
        let csv = "a,b,m\n\"x,1\",\"he said \"\"hi\"\"\",3\nplain,\"\",4\n";
        let t = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.decode(0, t.row(0)[0]), "x,1");
        assert_eq!(t.decode(1, t.row(0)[1]), "he said \"hi\"");
        assert_eq!(t.decode(1, t.row(1)[1]), "");
        assert_eq!(t.measure(1), 4.0);
    }

    #[test]
    fn carriage_returns_in_quoted_fields_survive_exactly() {
        // A line-based reader would strip the \r of an embedded CRLF; the
        // raw-text record splitter must not.
        let mut b = Table::builder(Schema::try_new(vec!["a"], "m").unwrap());
        b.try_push_row(&["x\r\ny"], 1.0).unwrap();
        b.try_push_row(&["lone\rcr"], 2.0).unwrap();
        let t = b.build();
        let back = round_trip(&t);
        assert_eq!(back.decode(0, back.row(0)[0]), "x\r\ny");
        assert_eq!(back.decode(0, back.row(1)[0]), "lone\rcr");
    }

    #[test]
    fn crlf_terminated_input_parses_without_stray_cr() {
        let csv = "a,m\r\nx,1\r\ny,2\r\n";
        let t = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.schema().measure_name(), "m");
        assert_eq!(t.decode(0, t.row(0)[0]), "x");
        assert_eq!(t.decode(0, t.row(1)[0]), "y");
        assert_eq!(t.measure(1), 2.0);
    }

    #[test]
    fn error_line_numbers_count_every_terminator_style() {
        // Lone-\r (classic Mac) terminators must advance the physical line
        // counter too, so diagnostics point at the right record.
        assert!(matches!(
            read_csv(&b"a,m\rx,1\ry,bad\r"[..]),
            Err(TableError::BadMeasure { line: 3, .. })
        ));
        assert!(matches!(
            read_csv(&b"a,m\r\nx,1\r\ny\r\n"[..]),
            Err(TableError::RaggedLine { line: 3, .. })
        ));
    }

    #[test]
    fn unterminated_quote_is_a_typed_error() {
        let csv = "a,m\n\"never closed,1\n";
        assert!(matches!(
            read_csv(csv.as_bytes()),
            Err(TableError::UnclosedQuote { line: 2 })
        ));
    }

    #[test]
    fn rejects_ragged_lines() {
        let csv = "a,b,m\nx,y,1\nx,2\n";
        let err = read_csv(csv.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 3 fields"));
    }

    #[test]
    fn rejects_non_numeric_measure() {
        let csv = "a,m\nx,notanumber\n";
        assert!(read_csv(csv.as_bytes()).is_err());
    }

    #[test]
    fn typed_errors_name_the_problem() {
        assert!(matches!(read_csv(&b""[..]), Err(TableError::EmptyInput)));
        assert!(matches!(
            read_csv(&b"m\n1\n"[..]),
            Err(TableError::NoDimensions)
        ));
        assert!(matches!(
            read_csv(&b"a,a,m\nx,y,1\n"[..]),
            Err(TableError::DuplicateDimension { .. })
        ));
        assert!(matches!(
            read_csv(&b"a,m\nx,notanumber\n"[..]),
            Err(TableError::BadMeasure { line: 2, .. })
        ));
    }

    #[test]
    fn streaming_reader_survives_chunk_boundaries() {
        // A 7-byte BufReader forces refills mid-field, mid-quote, between
        // the CR and LF of embedded CRLFs, and inside multi-byte UTF-8
        // characters; the parse must match the single-chunk one exactly.
        let mut csv = String::from("a,b,m\n");
        for i in 0..100 {
            csv.push_str(&format!(
                "\"row {i}, with commas\",\"naïve — ünïcode\r\nsecond line\",{i}.5\n"
            ));
        }
        let chunked = read_csv(std::io::BufReader::with_capacity(7, csv.as_bytes())).unwrap();
        assert_eq!(chunked.num_rows(), 100);
        assert_eq!(chunked.decode(0, chunked.row(41)[0]), "row 41, with commas");
        assert_eq!(
            chunked.decode(1, chunked.row(0)[1]),
            "naïve — ünïcode\r\nsecond line"
        );
        assert_eq!(chunked.measure(99), 99.5);
        let whole = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(chunked.fingerprint(), whole.fingerprint());
        // Error line numbers are unaffected by chunking: the quoted field
        // spans two physical lines, so the bad measure sits on line 4.
        let bad = "a,m\n\"multi\nline\",1\nx,notanumber\n";
        assert!(matches!(
            read_csv(std::io::BufReader::with_capacity(3, bad.as_bytes())),
            Err(TableError::BadMeasure { line: 4, .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_an_io_error_not_a_panic() {
        let csv = b"a,m\nx\xff\xfe,1\n";
        assert!(matches!(read_csv(&csv[..]), Err(TableError::Io(_))));
    }

    /// A `Write` that counts its `write` calls.
    struct CountingSink {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn fnv(bytes: &[u8]) -> u64 {
        let mut h = crate::fingerprint::Fnv64::new();
        h.write_bytes(bytes);
        h.finish()
    }

    #[test]
    fn writer_bytes_are_pinned_and_written_once_per_morsel() {
        // The hashes of the bytes the field-at-a-time writer produced: one
        // rendering per dictionary value must not move a byte.
        for (table, pinned) in [
            (generators::tlc_like(20_000, 42), 0xe7d4_b75d_ccaa_4cb0),
            (quoting_table(), 0x93ac_1bd2_d122_d39e),
        ] {
            let mut out = CountingSink {
                bytes: Vec::new(),
                calls: 0,
            };
            write_csv(&table, &mut out).unwrap();
            assert_eq!(fnv(&out.bytes), pinned);
            assert_eq!(out.calls, 1 + table.frame().view().morsel_bounds().len());
        }
        // Past one morsel, one write per morsel still.
        let table = generators::tlc_like(70_000, 7);
        let morsels = table.frame().view().morsel_bounds().len();
        assert!(morsels > 1);
        let mut out = CountingSink {
            bytes: Vec::new(),
            calls: 0,
        };
        write_csv(&table, &mut out).unwrap();
        assert_eq!(out.calls, 1 + morsels);
        assert_tables_equal(&table, &read_csv(out.bytes.as_slice()).unwrap());
    }

    /// Schema, fingerprint, every dictionary in code order and the measure
    /// bits of two reads agree.
    fn assert_same_read(a: &Table, b: &Table) {
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.fingerprint(), b.fingerprint());
        for col in 0..a.num_dims() {
            assert!(a.dict(col).iter().eq(b.dict(col).iter()), "column {col}");
        }
        let bits = |t: &Table| t.measures().iter().map(|m| m.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn an_8k_buffer_reads_what_the_whole_slice_reads() {
        // Through the CLI's 8 KiB buffer, records cross refills and fall
        // back to the state machine mid-stream; the whole slice takes the
        // fast path for every plain record.
        let mut tlc = Vec::new();
        write_csv(&generators::tlc_like(50_000, 3), &mut tlc).unwrap();
        // Plain, quoted, CRLF- and CR-terminated and blank records mixed.
        let mut mixed = String::from("\"City, Country\",Kind,m\r\n");
        for i in 0..2_000 {
            mixed.push_str(&match i % 5 {
                0 => format!("c{},plain,{i}\n", i % 7),
                1 => format!("\"q,{}\",\"he said \"\"hi\"\"\",{i}.5\r\n", i % 3),
                2 => format!("\"multi\nline\",k{},-{i}\n", i % 4),
                3 => format!("lone,cr,{i}\r"),
                _ => format!("\nc{},\"x\r\ny\",{i}e-3\n", i % 5),
            });
        }
        for bytes in [&tlc[..], mixed.as_bytes()] {
            let whole = read_csv(bytes).unwrap();
            let buffered = read_csv(std::io::BufReader::with_capacity(8192, bytes)).unwrap();
            assert_same_read(&whole, &buffered);
        }
        assert_eq!(read_csv(mixed.as_bytes()).unwrap().num_rows(), 2_000);
    }

    #[test]
    fn skips_blank_lines() {
        let csv = "a,m\nx,1\n\ny,2\n";
        let t = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(t.num_rows(), 2);
    }
}
