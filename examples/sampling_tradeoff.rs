//! SIRUM on sample data (thesis §4.5, Figs 5.18/5.19): when the dataset
//! exceeds executor memory, mine on a row sample instead and measure the
//! time/quality trade-off — execution time from the sampled run,
//! information gain evaluated on the full data.
//!
//! Run with:
//! ```sh
//! cargo run --release --example sampling_tradeoff
//! ```

use sirum::prelude::*;
use std::time::Instant;

fn main() -> Result<(), SirumError> {
    // One service serves every rate: the engine and the registered table
    // are set up once and amortized across the repeated queries.
    let service = SirumService::builder().partitions(16).build()?;
    let table = service.register_demo_with("tlc", Some(120_000), 3)?;
    println!(
        "Dataset: {} taxi trips ({} MB of column data)\n",
        table.num_rows(),
        table.data_bytes() / (1024 * 1024),
    );

    println!(
        "{:>9} | {:>9} | {:>11} | {:>16} | {:>11}",
        "rate", "rows", "time (s)", "info gain", "gain vs 100%"
    );
    let mut full_gain = None;
    for rate in [1.0, 0.5, 0.1, 0.01] {
        let start = Instant::now();
        let out = service
            .mine("tlc")
            .k(6)
            .sample_size(16)
            .run_on_sample(rate)?;
        let secs = start.elapsed().as_secs_f64();
        let gain = out.eval.information_gain;
        let full = *full_gain.get_or_insert(gain);
        println!(
            "{:>8.1}% | {:>9} | {:>11.2} | {:>16.6} | {:>10.1}%",
            rate * 100.0,
            out.rows_used,
            secs,
            gain,
            100.0 * gain / full,
        );
    }

    println!(
        "\nAs in the paper, aggressive sampling cuts runtime dramatically while\n\
         information gain (scored on the FULL dataset) degrades only slowly —\n\
         until the sample becomes too small to expose the informative rules."
    );
    Ok(())
}
