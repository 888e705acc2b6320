//! CSV I/O for [`Table`]s, in the RFC-4180 dialect.
//!
//! The paper stores its datasets as CSV files in HDFS; this module provides
//! the equivalent boundary for the reproduction. Fields are
//! comma-separated, the first line is the header (dimension names then the
//! measure name), and values containing commas, double quotes, carriage
//! returns or newlines are written inside double quotes with embedded
//! quotes doubled (`"` → `""`), so every categorical value round-trips —
//! the reader accepts quoted fields back, including multi-line ones.

use crate::error::TableError;
use crate::frame::ColScratch;
use crate::schema::Schema;
use crate::table::Table;
use std::io::{BufRead, Write};

/// True when `field` must be quoted under RFC 4180.
fn needs_quoting(field: &str) -> bool {
    field
        .chars()
        .any(|c| c == ',' || c == '"' || c == '\n' || c == '\r')
}

/// Write one field, quoting and escaping it if the dialect requires.
fn write_field<W: Write>(out: &mut W, field: &str) -> Result<(), TableError> {
    if needs_quoting(field) {
        out.write_all(b"\"")?;
        out.write_all(field.replace('"', "\"\"").as_bytes())?;
        out.write_all(b"\"")?;
    } else {
        out.write_all(field.as_bytes())?;
    }
    Ok(())
}

/// Serialize a table as CSV (header + one line per row). Values with
/// commas, quotes or line breaks are quoted per RFC 4180 and round-trip
/// through [`read_csv`]. Returns [`TableError::Io`] on a write failure.
pub fn write_csv<W: Write>(table: &Table, out: &mut W) -> Result<(), TableError> {
    let schema = table.schema();
    for (i, name) in schema.dim_names().iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write_field(out, name)?;
    }
    out.write_all(b",")?;
    write_field(out, schema.measure_name())?;
    out.write_all(b"\n")?;
    // One morsel of every column decoded at a time (borrowed when raw).
    let view = table.frame().view();
    let mut scratch = ColScratch::new();
    for (start, len) in view.morsel_bounds() {
        let cols = view.morsel_cols(start, len, &mut scratch);
        for (r, m) in table.measures()[start..start + len].iter().enumerate() {
            for (col, codes) in cols.iter().enumerate() {
                if col > 0 {
                    out.write_all(b",")?;
                }
                write_field(out, table.decode(col, codes[r]))?;
            }
            writeln!(out, ",{m}")?;
        }
    }
    Ok(())
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
/// Scanning is byte-wise: every delimiter is ASCII and UTF-8 guarantees
/// ASCII bytes cannot occur inside a multi-byte sequence, so a chunk
/// boundary may split a multi-byte character without confusing the state
/// machine; fields are validated as UTF-8 only once complete.
struct Records<R: BufRead> {
    input: R,
    /// One byte of lookahead (for CRLF pairs and doubled quotes) that has
    /// been pulled from the reader but not yet consumed by the parser.
    peeked: Option<u8>,
    /// 1-based physical line number of the *next* byte.
    line: usize,
}

impl<R: BufRead> Records<R> {
    fn new(input: R) -> Self {
        Records {
            input,
            peeked: None,
            line: 1,
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
            String::from_utf8(std::mem::take(cur)).map_err(|_| {
                TableError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                ))
            })
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
/// ([`TableError::BadMeasure`]) or a quote left open at end of input
/// ([`TableError::UnclosedQuote`]).
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
    while let Some((fields, line)) = records.next_record()? {
        if fields.len() == 1 && fields[0].is_empty() {
            continue; // blank line
        }
        if fields.len() != d + 1 {
            return Err(TableError::RaggedLine {
                line,
                expected: d + 1,
                found: fields.len(),
            });
        }
        let m: f64 = fields[d].parse().map_err(|_| TableError::BadMeasure {
            line,
            value: fields[d].clone(),
        })?;
        let dims: Vec<&str> = fields[..d].iter().map(String::as_str).collect();
        builder.try_push_row(&dims, m)?;
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

    #[test]
    fn quoted_fields_with_commas_round_trip() {
        let mut b = Table::builder(Schema::try_new(vec!["City, Country", "Kind"], "m").unwrap());
        b.try_push_row(&["London, UK", "plain"], 1.0).unwrap();
        b.try_push_row(&["San Francisco, CA, USA", "with \"quotes\""], 2.5)
            .unwrap();
        b.try_push_row(&["multi\nline", "trailing,comma,"], -3.0)
            .unwrap();
        let t = b.build();
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

    #[test]
    fn skips_blank_lines() {
        let csv = "a,m\nx,1\n\ny,2\n";
        let t = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(t.num_rows(), 2);
    }
}
