//! Generators and comparisons the crate's property tests share.

use crate::rule::{Rule, WILDCARD};
use proptest::prelude::*;
use sirum_table::{Schema, Table};

pub(crate) const MAX_D: usize = 5;
pub(crate) const MAX_CARD: u32 = 4;

/// Strategy: a random tuple over `d` attributes with small domains.
pub(crate) fn tuple(d: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..MAX_CARD, d)
}

/// Strategy: a random rule (each position constant or wildcard).
pub(crate) fn rule(d: usize) -> impl Strategy<Value = Rule> {
    prop::collection::vec(prop_oneof![Just(WILDCARD), 0..MAX_CARD], d).prop_map(Rule::from_values)
}

/// Strategy: a small random table with nonnegative measures.
pub(crate) fn small_table() -> impl Strategy<Value = Table> {
    (1usize..=MAX_D).prop_flat_map(|d| {
        prop::collection::vec((tuple(d), 0.0f64..10.0), 1..40).prop_map(move |rows| {
            let names: Vec<String> = (0..d).map(|i| format!("a{i}")).collect();
            let mut b = Table::builder(Schema::try_new(names, "m").unwrap());
            for col in 0..d {
                for v in 0..MAX_CARD {
                    b.try_intern(col, &format!("v{v}")).unwrap();
                }
            }
            for (codes, m) in rows {
                b.try_push_coded_row(&codes, m).unwrap();
            }
            b.build()
        })
    })
}

/// The synthetic non-uniform estimate of global row `i`.
pub(crate) fn synthetic_mhat(i: usize) -> f64 {
    0.5 + (i % 7) as f64
}
