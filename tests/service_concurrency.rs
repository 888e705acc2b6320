//! Concurrency stress tests for the service layer: one shared
//! [`SirumService`] under N threads × M mixed requests, asserting
//! (1) per-request results bit-identical to a synchronous `run()` on an
//! independent single-worker service, (2) cache-hit identity (the same
//! allocation is returned, observable via `Arc::ptr_eq`), and (3) clean
//! cooperative cancellation mid-mine.
//!
//! CI runs this file additionally in release mode (more real parallelism
//! per wall-clock second).

use sirum::prelude::*;
use std::sync::mpsc;
use std::sync::Arc;

/// Bit-exact signature of everything deterministic in a mining result
/// (timings are wall-clock and excluded by design).
fn signature(result: &MiningResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in &result.rules {
        let codes: Vec<String> = (0..r.rule.arity())
            .map(|i| r.rule.get(i).to_string())
            .collect();
        let _ = write!(
            out,
            "[{} a{:x} c{} g{:x}]",
            codes.join(","),
            r.avg_measure.to_bits(),
            r.count,
            r.gain.to_bits()
        );
    }
    let kl: Vec<String> = result
        .kl_trace
        .iter()
        .map(|k| format!("{:x}", k.to_bits()))
        .collect();
    let _ = write!(
        out,
        "|kl:{}|si:{:?}|anc:{}|it:{}|shift:{:x}|c:{}",
        kl.join(","),
        result.scaling_iterations,
        result.ancestors_emitted,
        result.iterations,
        result.transform_shift.to_bits(),
        result.cancelled
    );
    out
}

/// The mixed request workload: distinct (table, k, variant, two-sided,
/// seed) combinations so concurrent jobs cannot all hit one cache entry.
struct Spec {
    table: &'static str,
    k: usize,
    variant: Option<Variant>,
    two_sided: bool,
    seed: u64,
}

const SPECS: [Spec; 4] = [
    Spec {
        table: "gdelt",
        k: 3,
        variant: None,
        two_sided: false,
        seed: 42,
    },
    Spec {
        table: "gdelt",
        k: 2,
        variant: Some(Variant::Rct),
        two_sided: false,
        seed: 7,
    },
    Spec {
        table: "income",
        k: 3,
        variant: None,
        two_sided: true,
        seed: 42,
    },
    Spec {
        table: "income",
        k: 2,
        variant: Some(Variant::MultiRule),
        two_sided: false,
        seed: 11,
    },
];

fn apply<'a>(request: ServiceRequest<'a>, spec: &Spec) -> ServiceRequest<'a> {
    let mut request = request.k(spec.k).seed(spec.seed);
    if let Some(v) = spec.variant {
        request = request.variant(v);
    }
    if spec.two_sided {
        request = request.two_sided();
    }
    request
}

fn register_workload(service: &SirumService) {
    service.register_demo_with("gdelt", Some(1_200), 5).unwrap();
    service
        .register_demo_with("income", Some(1_000), 9)
        .unwrap();
}

#[test]
fn concurrent_mixed_requests_match_the_synchronous_path_bit_for_bit() {
    // Reference results from synchronous runs on an independent service
    // whose engine has one worker, so stages execute inline in partition
    // order.
    let sequential = SirumService::builder().workers(1).build().unwrap();
    register_workload(&sequential);
    let reference: Vec<String> = SPECS
        .iter()
        .map(|spec| {
            let output = apply(sequential.mine(spec.table), spec).run().unwrap();
            signature(&output.result)
        })
        .collect();

    // 8 threads × 4 mixed requests against ONE shared service, all jobs
    // through the pool concurrently.
    let service = SirumService::builder().pool_workers(8).build().unwrap();
    register_workload(&service);
    let threads = 8;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let service = service.clone();
            let reference = &reference;
            scope.spawn(move || {
                // Stagger the spec order per thread so the pool sees a mix.
                for i in 0..SPECS.len() {
                    let idx = (i + t) % SPECS.len();
                    let spec = &SPECS[idx];
                    let handle = apply(service.mine(spec.table), spec).submit().unwrap();
                    let output = handle.wait().unwrap();
                    assert_eq!(
                        signature(&output.result),
                        reference[idx],
                        "thread {t} spec {idx}: pooled result diverged from the sequential run"
                    );
                }
            });
        }
    });
    let stats = service.stats();
    let total = (threads * SPECS.len()) as u64;
    assert_eq!(
        stats.jobs_executed + stats.cache_hits + stats.jobs_coalesced,
        total,
        "every request accounted for: {stats:?}"
    );
    assert!(
        stats.cache_hits + stats.jobs_coalesced > 0,
        "32 requests over 4 distinct specs must share executions: {stats:?}"
    );
}

#[test]
fn repeated_requests_hit_the_cache_with_pointer_identity() {
    let service = SirumService::builder().pool_workers(2).build().unwrap();
    register_workload(&service);
    let first = service.mine("gdelt").k(2).submit().unwrap().wait().unwrap();
    assert!(!first.from_cache);
    let hits_before = service.stats().cache_hits;
    let second = service.mine("gdelt").k(2).submit().unwrap().wait().unwrap();
    assert!(second.from_cache, "identical request must be served cached");
    assert!(
        Arc::ptr_eq(&first.result, &second.result),
        "cache hits return the same allocation"
    );
    assert_eq!(service.stats().cache_hits, hits_before + 1);
    assert_eq!(
        service.stats().jobs_executed,
        1,
        "the miner ran exactly once"
    );
}

#[test]
fn cancel_mid_mine_returns_a_partial_result() {
    let service = SirumService::builder().pool_workers(1).build().unwrap();
    service
        .register_demo_with("income", Some(3_000), 13)
        .unwrap();
    // The observer signals the driver after the first iteration, then keeps
    // mining; the driver cancels through the handle, and the cooperative
    // check at the next iteration boundary stops the run.
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let handle = service
        .mine("income")
        .k(20)
        .max_rules(20) // keep the rule budget inside the 64-bit array
        .rules_per_iter(1)
        .on_iteration(move |event| {
            if event.iteration == 1 {
                let _ = started_tx.send(());
            }
            IterationDecision::Continue
        })
        .submit()
        .unwrap();
    started_rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("first iteration reported");
    handle.cancel();
    let output = handle.wait().unwrap();
    assert!(output.result.cancelled, "cancelled mid-mine");
    assert!(!output.from_cache);
    let mined = output.result.rules.len() - 1;
    assert!(
        mined < 20,
        "cancellation must stop before the full k: mined {mined}"
    );
    assert!(mined >= 1, "at least the first iteration completed");
    assert_eq!(service.stats().jobs_cancelled, 1);
    // The partial result was not cached: the same request (sans observer)
    // re-executes.
    let rerun = service
        .mine("income")
        .k(20)
        .max_rules(20)
        .rules_per_iter(1)
        .run()
        .unwrap();
    assert!(!rerun.from_cache);
    assert!(!rerun.result.cancelled);
}

#[test]
fn cancelling_a_queued_job_stops_it_before_the_first_iteration() {
    // One pool worker: the first job occupies it while the second waits in
    // the queue; cancelling the queued job is observed before iteration 1.
    let service = SirumService::builder().pool_workers(1).build().unwrap();
    service
        .register_demo_with("income", Some(2_000), 17)
        .unwrap();
    let blocker = service
        .mine("income")
        .k(6)
        .on_iteration(|_| IterationDecision::Continue) // uncacheable
        .submit()
        .unwrap();
    let queued = service.mine("income").k(6).seed(99).submit().unwrap();
    queued.cancel();
    let queued_output = queued.wait().unwrap();
    assert!(queued_output.result.cancelled);
    assert_eq!(
        queued_output.result.iterations, 0,
        "queued job was cancelled before mining began"
    );
    let blocker_output = blocker.wait().unwrap();
    assert!(!blocker_output.result.cancelled);
}

#[test]
fn dropping_the_service_drains_queued_jobs_before_shutdown() {
    let service = SirumService::builder().pool_workers(1).build().unwrap();
    register_workload(&service);
    let handles: Vec<JobHandle> = (0..6)
        .map(|i| {
            service
                .mine(if i % 2 == 0 { "gdelt" } else { "income" })
                .k(1)
                .seed(i as u64)
                .submit()
                .unwrap()
        })
        .collect();
    drop(service); // joins the pool: queued jobs drain first
    for handle in handles {
        let output = handle.wait().unwrap();
        assert_eq!(output.result.rules.len(), 2);
    }
}
