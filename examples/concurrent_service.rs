//! Concurrent serving walkthrough: one shared `SirumService` under many
//! request threads — job submission, result caching, request coalescing,
//! cooperative cancellation, `explain()` plans and a §7-style incremental
//! stream.
//!
//! Run with:
//! ```sh
//! cargo run --example concurrent_service
//! ```

use sirum::prelude::*;

fn main() -> Result<(), SirumError> {
    let rows: usize = std::env::var("SIRUM_EXAMPLE_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000);

    // One service for the whole process: Send + Sync, Clone is an Arc bump.
    let service = SirumService::builder()
        .pool_workers(4)
        .cache_capacity(32)
        .build()?;
    service.register_demo_with("gdelt", Some(rows), 42)?;
    let table = service.table("gdelt")?;
    println!(
        "Registered gdelt: {} rows × {} dims (fingerprint {:016x})",
        table.num_rows(),
        table.num_dims(),
        table.fingerprint()
    );

    // Ask for the plan before spending anything.
    let plan = service.mine("gdelt").k(4).explain()?;
    println!("\n{plan}\n");

    // 8 request threads × 2 requests each against the shared service; the
    // distinct configurations execute once and repeats are served from the
    // cache (or coalesced onto an in-flight run).
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let service = service.clone();
            scope.spawn(move || {
                for r in 0..2u64 {
                    let seed = 40 + (t + r) % 4; // 4 distinct request shapes
                    let handle = service
                        .mine("gdelt")
                        .k(4)
                        .seed(seed)
                        .submit()
                        .map_err(|e| e.to_string())
                        .unwrap();
                    let output = handle.wait().map_err(|e| e.to_string()).unwrap();
                    println!(
                        "thread {t}: seed {seed} → {} rules, KL {:.4}{}",
                        output.result.rules.len(),
                        output.result.final_kl(),
                        if output.from_cache { " (cached)" } else { "" }
                    );
                }
            });
        }
    });
    let stats = service.stats();
    println!(
        "\n16 requests: {} executed, {} coalesced, {} cache hits ({} cached entries)",
        stats.jobs_executed, stats.jobs_coalesced, stats.cache_hits, stats.cache_entries
    );

    // Cooperative cancellation: start a long job and cancel it mid-mine.
    let handle = service.mine("gdelt").k(12).seed(1234).submit()?;
    handle.cancel();
    let partial = handle.wait()?;
    println!(
        "\ncancelled job: cancelled={}, {} rules mined before the stop",
        partial.result.cancelled,
        partial.result.rules.len() - 1
    );

    // Incremental maintenance: stream new batches into the model, then
    // let the miner extend it with the stream's rules as prior knowledge.
    let mut stream = service.stream("gdelt")?;
    let kl_before = stream.kl();
    let batch: Vec<(Vec<u32>, f64)> = (0..200)
        .map(|i| (table.row(i % table.num_rows()).to_vec(), 9.0))
        .collect();
    let coded: Vec<(&[u32], f64)> = batch.iter().map(|(r, m)| (r.as_slice(), *m)).collect();
    stream.ingest(&coded)?;
    let added = stream.mine_more(2)?;
    println!(
        "\nstream: {} rows after ingest, KL {:.4} → {:.4}, {} rule(s) mined incrementally",
        stream.len(),
        kl_before,
        stream.kl(),
        added.len()
    );
    Ok(())
}
