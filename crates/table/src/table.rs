//! The `Table` type: a dictionary-encoded multidimensional dataset with a
//! numeric measure column. Its rows live in one columnar [`Frame`] — the
//! frame the miner scans — so a table is held in memory exactly once.

use crate::dict::Dictionary;
use crate::error::TableError;
use crate::fingerprint::Fnv64;
use crate::frame::{hash_column, Compression, Frame};
use crate::schema::Schema;

/// A multidimensional dataset `D`: `n` rows × `d` categorical dimension
/// attributes (dictionary-encoded `u32`) plus one numeric measure column.
///
/// The codes and measures are stored in [`Self::frame`], column by column,
/// raw or compressed by the [`Compression::Auto`] size rule. Row access
/// gathers from the columns.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    dicts: Vec<Dictionary>,
    /// The data, stamped with the table's content fingerprint.
    frame: Frame,
}

impl Table {
    /// Start building a table for the given schema.
    pub fn builder(schema: Schema) -> TableBuilder {
        let d = schema.num_dims();
        TableBuilder {
            schema,
            dicts: (0..d).map(|_| Dictionary::new()).collect(),
            cols: vec![Vec::new(); d],
            measure: Vec::new(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows `n`.
    pub fn num_rows(&self) -> usize {
        self.frame.num_rows()
    }

    /// Number of dimension attributes `d`.
    pub fn num_dims(&self) -> usize {
        self.schema.num_dims()
    }

    /// The columnar frame holding the table's codes and measures — the
    /// buffers mining scans share.
    pub fn frame(&self) -> &Frame {
        &self.frame
    }

    /// Dimension codes of row `i`, gathered from the columns.
    pub fn row(&self, i: usize) -> Vec<u32> {
        let mut row = Vec::with_capacity(self.num_dims());
        self.frame.gather_row(i, &mut row);
        row
    }

    /// Measure value of row `i`.
    pub fn measure(&self, i: usize) -> f64 {
        self.measures()[i]
    }

    /// The whole measure column.
    pub fn measures(&self) -> &[f64] {
        self.frame.measures()
    }

    /// The dictionary of dimension attribute `col`.
    pub fn dict(&self, col: usize) -> &Dictionary {
        &self.dicts[col]
    }

    /// Decode `code` of dimension attribute `col` to its string value.
    pub fn decode(&self, col: usize, code: u32) -> &str {
        self.dicts[col].value(code)
    }

    /// Iterate over rows, each gathered as its dimension codes.
    pub fn rows(&self) -> impl Iterator<Item = Vec<u32>> + '_ {
        (0..self.num_rows()).map(|i| self.row(i))
    }

    /// Average of the measure column (`m(r)` for the all-wildcards rule).
    pub fn avg_measure(&self) -> f64 {
        if self.num_rows() == 0 {
            return 0.0;
        }
        self.sum_measure() / self.num_rows() as f64
    }

    /// Sum of the measure column.
    pub fn sum_measure(&self) -> f64 {
        self.measures().iter().sum()
    }

    /// Active-domain cardinalities per dimension attribute.
    pub fn cardinalities(&self) -> Vec<usize> {
        self.dicts.iter().map(Dictionary::cardinality).collect()
    }

    /// Number of syntactically possible rules `∏ (|dom(Aᵢ)| + 1)` (the
    /// quantity the paper quotes per dataset, e.g. 78 million for Income).
    pub fn possible_rule_count(&self) -> f64 {
        self.dicts
            .iter()
            .map(|d| d.cardinality() as f64 + 1.0)
            .product()
    }

    /// Restrict the table to its first `d` dimension attributes (the paper's
    /// SUSY projections, Fig 3.2 / 5.7). Shares the kept columns and the
    /// measure column.
    pub fn project(&self, d: usize) -> Table {
        // lint:allow(SL001) — documented projection contract; miner validates dimension counts first
        assert!(d >= 1 && d <= self.num_dims());
        Table::over(
            self.schema.project(d),
            self.dicts[..d].to_vec(),
            self.frame.share(d, None),
        )
    }

    /// Keep only the rows at the given indices (in the given order), built
    /// like any table under the [`Compression::Auto`] size rule.
    pub fn select_rows(&self, indices: &[usize]) -> Table {
        let cols = (0..self.num_dims())
            .map(|j| {
                let col = self.frame.column(j);
                indices.iter().map(|&i| col.value_at(i)).collect()
            })
            .collect();
        TableBuilder {
            schema: self.schema.clone(),
            dicts: self.dicts.clone(),
            cols,
            measure: indices.iter().map(|&i| self.measure(i)).collect(),
        }
        .build()
    }

    /// Replace the measure column (used by measure transforms). The new
    /// column must have one value per row; the dimension columns are
    /// shared.
    pub fn with_measure(&self, measure: Vec<f64>) -> Table {
        // lint:allow(SL001) — documented with_measure contract; test/bench helper for swapping columns
        assert_eq!(measure.len(), self.num_rows());
        let frame = self.frame.share(self.num_dims(), Some(measure));
        Table::over(self.schema.clone(), self.dicts.clone(), frame)
    }

    /// Logical in-memory size in bytes of the data as raw columns
    /// (`4·n·d + 8·n`), whatever the frame's physical layout.
    pub fn data_bytes(&self) -> usize {
        self.num_rows() * (4 * self.num_dims() + 8)
    }

    /// Deterministic 64-bit content fingerprint over schema, dictionaries,
    /// dimension codes and measure bits (see [`crate::fingerprint`]),
    /// computed once when the table is built.
    ///
    /// Tables with identical contents fingerprint identically regardless of
    /// how they were constructed or whether their columns are compressed;
    /// any changed value, column name or code assignment changes the
    /// fingerprint with overwhelming probability. The service layer keys
    /// its result cache on this, so a re-registered but unchanged table
    /// keeps serving cached results.
    pub fn fingerprint(&self) -> u64 {
        self.frame.fingerprint()
    }

    /// A table over `frame`, fingerprinted from the frame's codes.
    fn over(schema: Schema, dicts: Vec<Dictionary>, frame: Frame) -> Table {
        let fingerprint = content_fingerprint(&schema, &dicts, frame.measures(), |h| {
            frame.hash_codes(h);
        });
        Table {
            schema,
            dicts,
            frame: frame.stamped(fingerprint),
        }
    }
}

/// The content fingerprint: schema, dictionaries, row count, the codes
/// `hash_codes` folds in column by column, then the measure bits.
fn content_fingerprint(
    schema: &Schema,
    dicts: &[Dictionary],
    measure: &[f64],
    hash_codes: impl FnOnce(&mut Fnv64),
) -> u64 {
    let mut h = Fnv64::new();
    for name in schema.dim_names() {
        h.write_str(name);
    }
    h.write_str(schema.measure_name());
    for dict in dicts {
        h.write_u64(dict.cardinality() as u64);
        for (_, value) in dict.iter() {
            h.write_str(value);
        }
    }
    h.write_u64(measure.len() as u64);
    hash_codes(&mut h);
    for &m in measure {
        h.write_f64(m);
    }
    h.finish()
}

/// Incremental [`Table`] constructor: collects codes column by column.
#[derive(Debug)]
pub struct TableBuilder {
    schema: Schema,
    dicts: Vec<Dictionary>,
    cols: Vec<Vec<u32>>,
    measure: Vec<f64>,
}

impl TableBuilder {
    /// Append a row given as string values plus a measure, rejecting
    /// arity mismatches and dictionary overflow as typed errors. On error
    /// the builder is left unchanged.
    pub fn try_push_row(&mut self, values: &[&str], m: f64) -> Result<&mut Self, TableError> {
        if values.len() != self.schema.num_dims() {
            return Err(TableError::ArityMismatch {
                expected: self.schema.num_dims(),
                found: values.len(),
            });
        }
        self.push_values(values.iter().copied(), m)?;
        Ok(self)
    }

    /// [`Self::try_push_row`] over values the caller has already counted
    /// to one per dimension, borrowed from wherever they lie (the CSV
    /// reader splits them out of its input buffer). On error the builder's
    /// rows are left unchanged.
    pub(crate) fn push_values<'v>(
        &mut self,
        values: impl Iterator<Item = &'v str>,
        m: f64,
    ) -> Result<(), TableError> {
        for (col, v) in values.enumerate() {
            match self.dicts[col].try_intern(v) {
                Ok(code) => self.cols[col].push(code),
                Err(e) => {
                    for pushed in &mut self.cols[..col] {
                        pushed.pop();
                    }
                    return Err(e);
                }
            }
        }
        self.measure.push(m);
        Ok(())
    }

    /// Append a row given directly as dictionary codes, rejecting arity
    /// mismatches and codes never interned (e.g. via [`Self::try_intern`])
    /// as typed errors. On error the builder is left unchanged.
    pub fn try_push_coded_row(&mut self, codes: &[u32], m: f64) -> Result<&mut Self, TableError> {
        if codes.len() != self.schema.num_dims() {
            return Err(TableError::ArityMismatch {
                expected: self.schema.num_dims(),
                found: codes.len(),
            });
        }
        for (col, &c) in codes.iter().enumerate() {
            if (c as usize) >= self.dicts[col].cardinality() {
                return Err(TableError::UninternedCode {
                    column: col,
                    code: c,
                });
            }
        }
        for (col, &c) in self.cols.iter_mut().zip(codes) {
            col.push(c);
        }
        self.measure.push(m);
        Ok(self)
    }

    /// Intern a value in column `col` without adding a row (lets generators
    /// pre-populate domains so codes are stable). Fails with
    /// [`TableError::DictionaryOverflow`] when the column's code space is
    /// exhausted.
    pub fn try_intern(&mut self, col: usize, value: &str) -> Result<u32, TableError> {
        self.dicts[col].try_intern(value)
    }

    /// Finish and return the table, its columns stored under the
    /// [`Compression::Auto`] size rule.
    pub fn build(self) -> Table {
        self.build_with(Compression::Auto)
    }

    /// Finish under an explicit [`Compression`] policy (reference tables
    /// are built raw with `Never`). The fingerprint is computed here, once,
    /// from the codes the builder holds.
    pub(crate) fn build_with(self, compression: Compression) -> Table {
        let TableBuilder {
            schema,
            dicts,
            cols,
            measure,
        } = self;
        let fingerprint = content_fingerprint(&schema, &dicts, &measure, |h| {
            for col in &cols {
                hash_column(h, col);
            }
        });
        let cards = dicts
            .iter()
            .map(|d| u32::try_from(d.cardinality()).unwrap_or(u32::MAX))
            .collect();
        let frame = Frame::encode(cols, measure, cards, compression).stamped(fingerprint);
        Table {
            schema,
            dicts,
            frame,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::CompressedCol;
    use crate::frame::ColScratch;
    use crate::generators;

    fn flight_schema() -> Schema {
        Schema::try_new(vec!["Day", "Origin", "Destination"], "Delay").unwrap()
    }

    fn small_table() -> Table {
        let mut b = Table::builder(flight_schema());
        b.try_push_row(&["Fri", "SF", "London"], 20.0).unwrap();
        b.try_push_row(&["Fri", "London", "LA"], 16.0).unwrap();
        b.try_push_row(&["Sun", "Tokyo", "Frankfurt"], 10.0)
            .unwrap();
        b.build()
    }

    #[test]
    fn rows_round_trip_through_dictionaries() {
        let t = small_table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_dims(), 3);
        assert_eq!(t.decode(0, t.row(0)[0]), "Fri");
        assert_eq!(t.decode(1, t.row(1)[1]), "London");
        assert_eq!(t.decode(2, t.row(2)[2]), "Frankfurt");
        assert_eq!(t.measure(1), 16.0);
    }

    #[test]
    fn shared_values_share_codes() {
        let t = small_table();
        assert_eq!(t.row(0)[0], t.row(1)[0], "Fri appears twice");
        assert_eq!(t.dict(0).cardinality(), 2); // Fri, Sun
    }

    #[test]
    fn averages_and_rule_counts() {
        let t = small_table();
        assert!((t.avg_measure() - 46.0 / 3.0).abs() < 1e-12);
        // Domains: Day {Fri,Sun}=2, Origin {SF,London,Tokyo}=3, Dest 3.
        assert_eq!(t.possible_rule_count(), 3.0 * 4.0 * 4.0);
        assert_eq!(t.cardinalities(), vec![2, 3, 3]);
    }

    #[test]
    fn project_restricts_columns() {
        let t = small_table();
        let p = t.project(2);
        assert_eq!(p.num_dims(), 2);
        assert_eq!(p.num_rows(), 3);
        assert_eq!(p.row(0), &t.row(0)[..2]);
        assert_eq!(p.measures(), t.measures());
    }

    #[test]
    fn select_rows_subsets() {
        let t = small_table();
        let s = t.select_rows(&[2, 0]);
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.decode(0, s.row(0)[0]), "Sun");
        assert_eq!(s.measure(1), 20.0);
    }

    #[test]
    fn with_measure_replaces_column() {
        let t = small_table();
        let t2 = t.with_measure(vec![1.0, 2.0, 3.0]);
        assert_eq!(t2.measures(), &[1.0, 2.0, 3.0]);
        assert_eq!(t2.row(0), t.row(0));
    }

    #[test]
    fn coded_rows_must_be_interned() {
        let mut b = Table::builder(flight_schema());
        let day = b.try_intern(0, "Mon").unwrap();
        let org = b.try_intern(1, "SF").unwrap();
        let dst = b.try_intern(2, "Tokyo").unwrap();
        b.try_push_coded_row(&[day, org, dst], 5.0).unwrap();
        let t = b.build();
        assert_eq!(t.decode(0, t.row(0)[0]), "Mon");
    }

    #[test]
    fn uninterned_code_rejected() {
        let mut b = Table::builder(flight_schema());
        let err = b.try_push_coded_row(&[0, 0, 0], 1.0).unwrap_err();
        assert!(
            matches!(err, TableError::UninternedCode { column: 0, code: 0 }),
            "{err}"
        );
    }

    #[test]
    fn arity_checked() {
        let mut b = Table::builder(flight_schema());
        let err = b.try_push_row(&["Fri", "SF"], 1.0).unwrap_err();
        assert!(
            matches!(
                err,
                TableError::ArityMismatch {
                    expected: 3,
                    found: 2
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn fingerprint_is_content_addressed() {
        let a = small_table();
        let b = small_table();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same content, same hash");
        // Any data change moves the fingerprint.
        let c = a.with_measure(vec![20.0, 16.0, 10.5]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = a.select_rows(&[0, 1]);
        assert_ne!(a.fingerprint(), d.fingerprint());
        // A schema rename moves it even with identical data.
        let mut builder =
            Table::builder(Schema::try_new(vec!["Day", "Origin", "Arrival"], "Delay").unwrap());
        builder
            .try_push_row(&["Fri", "SF", "London"], 20.0)
            .unwrap();
        builder
            .try_push_row(&["Fri", "London", "LA"], 16.0)
            .unwrap();
        builder
            .try_push_row(&["Sun", "Tokyo", "Frankfurt"], 10.0)
            .unwrap();
        assert_ne!(a.fingerprint(), builder.build().fingerprint());
    }

    #[test]
    fn try_push_row_reports_arity_and_leaves_builder_intact() {
        let mut b = Table::builder(flight_schema());
        let err = b.try_push_row(&["Fri", "SF"], 1.0).unwrap_err();
        assert!(matches!(
            err,
            TableError::ArityMismatch {
                expected: 3,
                found: 2
            }
        ));
        let err = b.try_push_coded_row(&[0, 0, 0], 1.0).unwrap_err();
        assert!(matches!(
            err,
            TableError::UninternedCode { column: 0, code: 0 }
        ));
        b.try_push_row(&["Fri", "SF", "London"], 2.0).unwrap();
        let t = b.build();
        assert_eq!(
            t.num_rows(),
            1,
            "failed pushes must not leave partial state"
        );
    }

    /// The same rows as a raw table and as a compressed one cut into
    /// 16-row segments, both encoded from codes no segment encoder touched.
    fn raw_and_compressed() -> (Table, Table) {
        let raw = generators::income_like(200, 5);
        let f = raw.frame();
        assert!(!f.is_compressed());
        let mut scratch = ColScratch::new();
        let view = f.view();
        let cols = view.morsel_cols(0, view.len(), &mut scratch);
        let cols = cols.into_iter().map(<[u32]>::to_vec).collect();
        let frame = Frame::encode_in(cols, f.measures().into(), f.cards().into(), true, 16);
        let compressed = Table::over(raw.schema.clone(), raw.dicts.clone(), frame);
        (raw, compressed)
    }

    fn same_buffer(a: &CompressedCol, b: &CompressedCol) -> bool {
        std::ptr::eq(a.segments(), b.segments())
    }

    #[test]
    fn reshaping_agrees_across_raw_and_compressed_frames() {
        let (raw, comp) = raw_and_compressed();
        let (n, d) = (raw.num_rows(), raw.num_dims());
        assert!(comp.frame().is_compressed());
        assert!(
            comp.frame().view().morsel_bounds().len() > 1,
            "multi-segment"
        );
        let m2: Vec<f64> = raw.measures().iter().map(|m| m * 2.0 + 1.0).collect();
        let picks = [199, 3, 3, 57, 120, 0];
        let pairs = [
            (raw.clone(), comp.clone()),
            (raw.project(4), comp.project(4)),
            (raw.select_rows(&picks), comp.select_rows(&picks)),
            (raw.with_measure(m2.clone()), comp.with_measure(m2)),
        ];
        for (a, b) in &pairs {
            assert_eq!(a.num_rows(), b.num_rows());
            assert!(a.rows().eq(b.rows()));
            for i in 0..a.num_rows() {
                assert_eq!(a.row(i), b.row(i), "row {i}");
            }
            assert_eq!(a.measures(), b.measures());
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert_eq!(a.data_bytes(), a.num_rows() * (4 * a.num_dims() + 8));
            assert_eq!(b.data_bytes(), a.data_bytes());
        }
        assert_eq!(raw.data_bytes(), 4 * n * d + 8 * n);
        // A projection shares its columns' buffers and the measure column.
        for t in [&raw, &comp] {
            let p = t.project(4);
            for j in 0..4 {
                assert!(
                    same_buffer(p.frame().column(j), t.frame().column(j)),
                    "column {j}"
                );
            }
            assert!(std::ptr::eq(p.measures(), t.measures()));
        }
        // Each reshaping is a different table.
        let prints: Vec<u64> = pairs.iter().map(|(a, _)| a.fingerprint()).collect();
        for (i, p) in prints.iter().enumerate() {
            assert!(!prints[..i].contains(p));
        }
    }
}
