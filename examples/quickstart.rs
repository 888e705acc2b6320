//! Quickstart: mine informative rules from the paper's 14-row flight-delay
//! table (Table 1.1) through a `SirumService` and print the rule set of
//! Table 1.2.
//!
//! Run with:
//! ```sh
//! cargo run --example quickstart
//! ```

use sirum::prelude::*;

fn main() -> Result<(), SirumError> {
    // A service owns the engine (Spark-like, in-memory) and a catalog of
    // named tables; both are reused across requests.
    let service = SirumService::in_memory()?;
    let flights = service.register_demo("flights")?;
    println!(
        "Dataset: {} rows × {} dimension attributes ({}), measure = {}\n",
        flights.num_rows(),
        flights.num_dims(),
        flights.schema().dim_names().join(", "),
        flights.schema().measure_name(),
    );

    // With |s| = 14 (the whole table) the sample-based candidate pruning is
    // exact. The request is validated before execution; any bad knob comes
    // back as a typed SirumError instead of a panic.
    let result = service.mine("flights").k(3).sample_size(14).run()?.result;

    // Print the informative rule set (cf. Table 1.2 of the thesis).
    println!("Informative rule set:");
    println!(
        "{:>7} | {:^30} | {:>9} | {:>5} | {:>8}",
        "Rule ID", "Rule (Day, Origin, Destination)", "AVG(Late)", "count", "gain"
    );
    for (i, rule) in result.rules.iter().enumerate() {
        println!(
            "{:>7} | {:^30} | {:>9.1} | {:>5} | {:>8.3}",
            i + 1,
            rule.rule.display(&flights),
            rule.avg_measure,
            rule.count,
            rule.gain,
        );
    }

    // How much of the delay distribution the rules explain.
    println!("\nKL divergence trace (per mining iteration): ");
    for (i, kl) in result.kl_trace.iter().enumerate() {
        println!("  after iteration {i}: {kl:.6}");
    }
    println!(
        "\nInformation gain vs. the all-wildcards model: {:.6}",
        result.information_gain()
    );
    println!(
        "Phase breakdown: rule generation {:.3}s (pruning {:.3}s, ancestors {:.3}s, gain {:.3}s), iterative scaling {:.3}s",
        result.timings.rule_generation(),
        result.timings.candidate_pruning,
        result.timings.ancestor_generation,
        result.timings.gain_computation,
        result.timings.iterative_scaling,
    );
    Ok(())
}
