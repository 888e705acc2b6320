//! Per-column dictionary encoding: categorical string values ↔ dense `u32`
//! codes. SIRUM's rule machinery works entirely on codes; strings only
//! appear at the I/O boundary.

use crate::error::TableError;
use std::collections::HashMap;

/// Bidirectional mapping between the distinct values of one categorical
/// column and dense codes `0..cardinality`.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    to_code: HashMap<String, u32>,
    to_value: Vec<String>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return the code for `value`, inserting it if unseen, or
    /// [`TableError::DictionaryOverflow`] when the `u32` code space is
    /// exhausted (more than `u32::MAX − 1` distinct values; `u32::MAX` is
    /// reserved for the wildcard).
    pub fn try_intern(&mut self, value: &str) -> Result<u32, TableError> {
        if let Some(&code) = self.to_code.get(value) {
            return Ok(code);
        }
        let code = next_code(self.to_value.len())?;
        self.to_code.insert(value.to_string(), code);
        self.to_value.push(value.to_string());
        Ok(code)
    }

    /// Code for `value` if already interned.
    pub fn code(&self, value: &str) -> Option<u32> {
        self.to_code.get(value).copied()
    }

    /// String value for `code`.
    ///
    /// # Panics
    /// Panics if the code was never interned.
    pub fn value(&self, code: u32) -> &str {
        &self.to_value[code as usize]
    }

    /// Number of distinct values (the active domain size `|dom(A)|`).
    pub fn cardinality(&self) -> usize {
        self.to_value.len()
    }

    /// Iterate over `(code, value)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.to_value
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u32, v.as_str()))
    }
}

/// The code a dictionary of `cardinality` entries would assign next, or
/// [`TableError::DictionaryOverflow`] when the code space is exhausted.
///
/// `u32::MAX` is the rule wildcard sentinel (`sirum_core::rule::WILDCARD`
/// mirrors it): handing it out as a real value code would make that value
/// silently match every rule, so the boundary is `code < u32::MAX`, not
/// merely "fits in a `u32`". Kept as a free function so the boundary is
/// testable without interning four billion strings.
fn next_code(cardinality: usize) -> Result<u32, TableError> {
    match u32::try_from(cardinality) {
        Ok(code) if code < u32::MAX => Ok(code),
        _ => Err(TableError::DictionaryOverflow { cardinality }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.try_intern("SF").unwrap();
        let b = d.try_intern("London").unwrap();
        assert_eq!(d.try_intern("SF").unwrap(), a);
        assert_ne!(a, b);
        assert_eq!(d.cardinality(), 2);
    }

    #[test]
    fn codes_are_dense_and_reversible() {
        let mut d = Dictionary::new();
        for (i, v) in ["x", "y", "z"].iter().enumerate() {
            assert_eq!(d.try_intern(v).unwrap(), i as u32);
        }
        assert_eq!(d.value(1), "y");
        assert_eq!(d.code("z"), Some(2));
        assert_eq!(d.code("w"), None);
    }

    #[test]
    fn code_space_boundary_reserves_the_wildcard_sentinel() {
        // The last code a dictionary may hand out is u32::MAX - 1; the
        // sentinel slot itself and anything past it overflow with a typed
        // error rather than colliding with the wildcard.
        assert!(matches!(next_code(0), Ok(0)));
        assert!(matches!(
            next_code((u32::MAX - 1) as usize),
            Ok(c) if c == u32::MAX - 1
        ));
        assert!(matches!(
            next_code(u32::MAX as usize),
            Err(TableError::DictionaryOverflow { cardinality }) if cardinality == u32::MAX as usize
        ));
        assert!(matches!(
            next_code(u32::MAX as usize + 1),
            Err(TableError::DictionaryOverflow { .. })
        ));
    }

    #[test]
    fn iter_in_code_order() {
        let mut d = Dictionary::new();
        d.try_intern("b").unwrap();
        d.try_intern("a").unwrap();
        let pairs: Vec<(u32, &str)> = d.iter().collect();
        assert_eq!(pairs, vec![(0, "b"), (1, "a")]);
    }
}
