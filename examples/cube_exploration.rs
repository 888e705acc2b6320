//! Smart data-cube exploration (thesis §1 Table 1.3, §5.6.2): the analyst
//! has already examined the two cheapest group-by views; SIRUM recommends
//! the cube cells that add the most information beyond what she has seen.
//!
//! Run with:
//! ```sh
//! cargo run --example cube_exploration
//! ```
//!
//! `SIRUM_EXAMPLE_ROWS` overrides the dataset size (the smoke-test harness
//! in `tests/examples.rs` sets it low so debug builds finish quickly).

use sirum::core::prior_rules_from_groupbys;
use sirum::prelude::*;

fn main() -> Result<(), SirumError> {
    let rows = std::env::var("SIRUM_EXAMPLE_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let service = SirumService::in_memory()?;
    let trips = service.register_demo_with("tlc", Some(rows), 7)?;
    println!(
        "Dataset: {} taxi trips × {} dimension attributes, measure = {}\n",
        trips.num_rows(),
        trips.num_dims(),
        trips.schema().measure_name(),
    );

    // The prior knowledge of §5.6.2: every examined group-by cell becomes a
    // rule already in the model; recommendations are mined on top, with
    // exhaustive (full-cube) candidate generation as in Sarawagi [29].
    let prior = prior_rules_from_groupbys(&trips, 2);
    let result = service
        .mine("tlc")
        .k(4)
        .full_cube()
        .prior(prior.clone())
        .run()?
        .result;

    println!(
        "Prior knowledge: the analyst has examined {} group-by cells over the\n\
         two lowest-cardinality attributes:",
        prior.len()
    );
    for (rule, mined) in prior.iter().zip(&result.rules[1..=prior.len()]) {
        println!(
            "   {}  AVG({})={:.2} count={}",
            rule.display(&trips),
            trips.schema().measure_name(),
            mined.avg_measure,
            mined.count,
        );
    }

    println!("\nSIRUM's recommended cells to explore next (cf. Table 1.3):");
    for (i, rec) in result.rules[1 + prior.len()..].iter().enumerate() {
        println!(
            "{:>2}. {}  AVG={:.2} count={} gain={:.3}",
            i + 1,
            rec.rule.display(&trips),
            rec.avg_measure,
            rec.count,
            rec.gain,
        );
    }
    println!(
        "\nKL divergence: {:.6} (prior knowledge only) → {:.6} (with recommendations)",
        result.kl_trace.first().copied().unwrap_or(f64::NAN),
        result.final_kl(),
    );
    Ok(())
}
