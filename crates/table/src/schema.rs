//! Schema description for a multidimensional dataset: named categorical
//! dimension attributes plus one numeric measure attribute.

use crate::error::TableError;

/// Names of the dimension attributes and the measure attribute of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    dims: Vec<String>,
    measure: String,
}

impl Schema {
    /// Build a schema from dimension attribute names and a measure name,
    /// rejecting an empty dimension list ([`TableError::NoDimensions`]) and
    /// duplicate attribute names ([`TableError::DuplicateDimension`]).
    pub fn try_new<S: Into<String>>(
        dims: Vec<S>,
        measure: impl Into<String>,
    ) -> Result<Self, TableError> {
        let dims: Vec<String> = dims.into_iter().map(Into::into).collect();
        if dims.is_empty() {
            return Err(TableError::NoDimensions);
        }
        for (i, a) in dims.iter().enumerate() {
            if dims[..i].contains(a) {
                return Err(TableError::DuplicateDimension { name: a.clone() });
            }
        }
        Ok(Schema {
            dims,
            measure: measure.into(),
        })
    }

    /// Number of dimension attributes (the paper's `d`).
    pub(crate) fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Dimension attribute names in column order.
    pub fn dim_names(&self) -> &[String] {
        &self.dims
    }

    /// Name of the measure attribute.
    pub fn measure_name(&self) -> &str {
        &self.measure
    }

    /// Schema restricted to the first `d` dimension attributes (used for the
    /// paper's SUSY projections over 10..18 dims).
    pub(crate) fn project(&self, d: usize) -> Schema {
        // lint:allow(SL001) — documented projection contract; miner validates dimension counts first
        assert!(d >= 1 && d <= self.dims.len());
        Schema {
            dims: self.dims[..d].to_vec(),
            measure: self.measure.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let s = Schema::try_new(vec!["Day", "Origin", "Destination"], "Delay").unwrap();
        assert_eq!(s.num_dims(), 3);
        assert_eq!(s.measure_name(), "Delay");
    }

    #[test]
    fn project_keeps_prefix() {
        let s = Schema::try_new(vec!["a", "b", "c"], "m").unwrap();
        let p = s.project(2);
        assert_eq!(p.dim_names(), &["a".to_string(), "b".to_string()]);
        assert_eq!(p.measure_name(), "m");
    }

    #[test]
    fn try_new_returns_typed_errors() {
        assert!(matches!(
            Schema::try_new(Vec::<String>::new(), "m"),
            Err(TableError::NoDimensions)
        ));
        assert!(matches!(
            Schema::try_new(vec!["a", "b", "a"], "m"),
            Err(TableError::DuplicateDimension { name }) if name == "a"
        ));
        assert!(Schema::try_new(vec!["a", "b"], "m").is_ok());
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::try_new(vec!["a", "a"], "m").unwrap_err();
        assert!(
            matches!(&err, TableError::DuplicateDimension { name } if name == "a"),
            "{err}"
        );
    }

    #[test]
    fn empty_dims_rejected() {
        let err = Schema::try_new(Vec::<String>::new(), "m").unwrap_err();
        assert!(matches!(err, TableError::NoDimensions), "{err}");
    }
}
