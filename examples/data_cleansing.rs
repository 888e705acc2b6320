//! Data cleansing with informative rules (thesis §1, Tables 1.4/1.5):
//! the measure attribute flags records whose `Actor2 Type` field is
//! missing; SIRUM surfaces the dimension-value combinations most
//! correlated with the defect. The request uses the *two-sided* gain so
//! unusually clean regions surface too, and a progress observer reports
//! each mining iteration.
//!
//! Run with:
//! ```sh
//! cargo run --example data_cleansing
//! ```

use sirum::prelude::*;

fn main() -> Result<(), SirumError> {
    // GDELT-like event records with a planted data-quality defect:
    // media-reported US material-conflict events usually lack Actor2 Type.
    let service = SirumService::in_memory()?;
    let events = service.register_demo_with("dirty", Some(30_000), 42)?;
    let base_rate = events.avg_measure();
    println!(
        "Dataset: {} events × {} dimension attributes; {:.1}% of records are dirty\n",
        events.num_rows(),
        events.num_dims(),
        base_rate * 100.0,
    );

    // Long mines are observable (and cancellable) through the iteration
    // hook; here it just narrates progress.
    let result = service
        .mine("dirty")
        .k(4)
        .sample_size(64)
        .two_sided()
        .on_iteration(|event| {
            eprintln!(
                "  [iteration {}] {} rules, KL {:.5}",
                event.iteration, event.rules_mined, event.kl
            );
            IterationDecision::Continue
        })
        .run()?
        .result;

    println!("Rules ranked by what they reveal about dirty records");
    println!("(AVG = fraction of covered records missing Actor2 Type, cf. Table 1.5):\n");
    for (i, rule) in result.rules.iter().enumerate() {
        let marker = if rule.avg_measure > 2.0 * base_rate {
            "  ← dirty cluster"
        } else if i > 0 && rule.avg_measure < 0.5 * base_rate {
            "  ← unusually clean (two-sided gain)"
        } else {
            ""
        };
        println!(
            "{:>2}. {}  AVG={:.2} count={}{}",
            i + 1,
            rule.rule.display(&events),
            rule.avg_measure,
            rule.count,
            marker,
        );
    }

    // A data steward would now drill into the flagged subsets:
    let dirty: Vec<&MinedRule> = result
        .rules
        .iter()
        .skip(1)
        .filter(|r| r.avg_measure > 2.0 * base_rate)
        .collect();
    println!(
        "\n{} rule(s) identify subsets with at least twice the overall defect rate.",
        dirty.len()
    );
    if let Some(worst) = dirty
        .iter()
        .max_by(|a, b| a.avg_measure.total_cmp(&b.avg_measure))
    {
        println!(
            "Worst offender: {} — {:.0}% of its {} records are missing Actor2 Type.",
            worst.rule.display(&events),
            worst.avg_measure * 100.0,
            worst.count,
        );
    }
    Ok(())
}
