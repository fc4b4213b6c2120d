//! The always-on annotation service end to end: many concurrent clients,
//! cross-request micro-batching, per-request deadlines, admission control
//! and a zero-downtime artifact hot-swap — with every response verified
//! bit-for-bit against the offline reference of the artifact that served
//! it.
//!
//! Run with:
//! ```text
//! cargo run --release --example annotation_service
//! ```

use sato::{SatoConfig, SatoModel, SatoPredictor, SatoVariant};
use sato_serve::{RequestOptions, SatoService, ServeError, ServiceConfig};
use sato_tabular::corpus::default_corpus;
use sato_tabular::table::Corpus;
use std::time::Duration;

fn train(seed: u64) -> SatoPredictor {
    let corpus = default_corpus(120, seed);
    SatoModel::train(
        &corpus,
        SatoConfig::fast().with_epochs(15),
        SatoVariant::Full,
    )
    .into_predictor()
}

fn main() {
    println!("training two model generations (v1, v2) ...");
    let v1 = train(21);
    let v2 = train(22);
    println!("  v1 artifact {:016x}", v1.content_hash());
    println!("  v2 artifact {:016x}", v2.content_hash());

    // Offline references for both generations, to verify serving exactness.
    let workload = default_corpus(60, 99);
    let reference_v1 = v1.predict_corpus(&workload);
    let reference_v2 = v2.predict_corpus(&workload);
    let (v1_hash, v2_hash) = (v1.content_hash(), v2.content_hash());

    // Start the service on v1. Small batches keep latency low on one core;
    // the queue bound keeps overload failures fast instead of slow.
    let service = SatoService::start(
        v1,
        ServiceConfig {
            batch_cols: 48,
            queue_depth: 128,
            default_deadline: Some(Duration::from_secs(30)),
            ..ServiceConfig::default()
        },
    );

    // Many concurrent clients, one table per request. Halfway through, the
    // main thread hot-swaps the artifact to v2 — no drain, no restart, no
    // dropped request. Every response says which artifact served it, so
    // each can be checked against the right reference.
    println!(
        "serving {} single-table requests across 4 client threads,",
        workload.len()
    );
    println!("hot-swapping v1 -> v2 mid-stream ...");
    let tables = &workload.tables;
    let swap_at = tables.len() / 2;
    let responses = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|c| {
                let service = &service;
                scope.spawn(move || {
                    tables
                        .iter()
                        .enumerate()
                        .skip(c)
                        .step_by(4)
                        .map(|(i, t)| {
                            let handle = service
                                .submit_table(t.clone(), RequestOptions::default())
                                .expect("admitted");
                            (i, handle.wait().expect("served"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        // Let roughly half the workload through on v1, then swap.
        while service.stats().completed < swap_at as u64 {
            std::thread::yield_now();
        }
        let meta = service.swap_predictor(v2);
        println!(
            "  swapped to {:016x} (live, in-flight rounds drained on v1)",
            meta.content_hash
        );
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client panicked"))
            .collect::<Vec<_>>()
    });

    // Verify: each response is bit-identical to the offline prediction of
    // whichever artifact tagged it.
    let mut by_artifact = [0usize; 2];
    for (i, response) in &responses {
        let (reference, slot) = if response.artifact_hash == v1_hash {
            (&reference_v1[*i], 0)
        } else {
            assert_eq!(response.artifact_hash, v2_hash, "unknown serving artifact");
            (&reference_v2[*i], 1)
        };
        assert_eq!(&response.predictions[0], reference, "table {i}");
        by_artifact[slot] += 1;
    }
    println!(
        "  all {} responses bit-identical to their artifact's reference ({} by v1, {} by v2)",
        responses.len(),
        by_artifact[0],
        by_artifact[1]
    );

    // Deadlines: a request that cannot be served in time is dropped before
    // its batch is formed and answered with `Expired` — it costs no forward
    // pass. Pause the batcher to force the situation deterministically.
    service.pause();
    let doomed = service
        .submit_table(
            tables[0].clone(),
            RequestOptions {
                deadline: Some(Duration::ZERO),
            },
        )
        .expect("admitted");
    service.resume();
    assert!(matches!(doomed.wait(), Err(ServeError::Expired)));
    println!("  zero-deadline request expired before batching, as configured");

    // A whole corpus in one request, served in coalesced micro-batches.
    let corpus_response = service
        .submit_corpus(Corpus::new(tables.clone()), RequestOptions::default())
        .expect("admitted")
        .wait()
        .expect("served");
    assert_eq!(corpus_response.predictions, reference_v2);
    println!(
        "  corpus request ({} tables) served on v2, bit-identical again",
        tables.len()
    );

    let stats = service.shutdown();
    println!("\nfinal service stats:");
    println!(
        "  admitted {} / rejected {} / expired {} / completed {}",
        stats.admitted, stats.rejected, stats.expired, stats.completed
    );
    println!("  artifact swaps: {}", stats.swaps);
    println!(
        "  {} micro-batches, mean fill {:.1} columns",
        stats.batches,
        stats.mean_batch_fill_cols()
    );
    println!(
        "  request latency: p50 {:.0} µs / p99 {:.0} µs / max {} µs",
        stats.p50_us(),
        stats.p99_us(),
        stats.latency.max_us
    );
    let lookups = (stats.topic_memo_hits + stats.topic_memo_misses).max(1);
    println!(
        "  topic memo: {} hits / {} misses ({:.0}% hit rate)",
        stats.topic_memo_hits,
        stats.topic_memo_misses,
        100.0 * stats.topic_memo_hits as f64 / lookups as f64
    );
}
