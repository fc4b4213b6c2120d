//! Chaos suite for the fault-tolerant serving stack (`faults` feature
//! only): deterministic injected panics, delays and I/O errors — armed
//! through `sato-faults` — must degrade exactly one request (or one swap
//! attempt) at a time, while every innocent response stays bit-identical
//! to the sequential `predict_corpus_batched` oracle and the service
//! always drains cleanly on shutdown.
//!
//! Run with: `cargo test -p sato-integration --features faults --test
//! chaos_serving`. Without the feature this file compiles to nothing.

#![cfg(feature = "faults")]

use proptest::prelude::*;
use sato::{PredictorError, SatoModel, SatoPredictor, SatoVariant, TablePrediction};
use sato_faults::{self as faults, FaultSpec};
use sato_serve::{
    ColumnRef, HnswConfig, IndexError, RequestOptions, SatoService, ServeError, ServiceConfig,
    MAX_CONSECUTIVE_RESTARTS,
};
use sato_tabular::colstore;
use sato_tabular::table::{Column, Corpus, Table};
use std::sync::{Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::time::Duration;

fn tiny_config() -> sato::SatoConfig {
    let mut config = sato::SatoConfig::fast();
    config.network.epochs = 5;
    config.lda.train_iterations = 15;
    config.crf.epochs = 3;
    config
}

/// Two generations of a trained Full-variant predictor (topic + CRF — the
/// whole serving pipeline in play) as canonical artifact bytes.
fn fixture_bytes() -> &'static (Vec<u8>, Vec<u8>) {
    static FIXTURE: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let train = |seed: u64| {
            SatoModel::train(
                &sato_tabular::corpus::default_corpus(20, seed),
                tiny_config(),
                SatoVariant::Full,
            )
            .into_predictor()
            .to_bytes()
        };
        (train(7), train(8))
    })
}

fn predictor(second_generation: bool) -> SatoPredictor {
    let (a, b) = fixture_bytes();
    SatoPredictor::from_bytes(if second_generation { b } else { a }).expect("fixture loads")
}

/// The fault registry is process-global and the test harness runs tests
/// concurrently, so every chaos test holds this gate for its whole body.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Injected panics are this suite's working fluid; silence their default
/// stderr backtraces (anything else still reports normally).
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&'static str>().copied());
            if message.is_some_and(|m| m.contains("injected fault")) {
                return;
            }
            previous(info);
        }));
    });
}

/// Deterministic cell pool mixing in-vocabulary words, numerics, blanks
/// and out-of-vocabulary noise (same pool as the serving-exactness suite).
fn cell_value(entropy: usize) -> &'static str {
    const POOL: [&str; 10] = [
        "Warsaw",
        "London",
        "Poland",
        "Rock",
        "12.5",
        "1,777,972",
        "",
        "alpha beta gamma",
        "zzzzqq",
        "2020-11-05",
    ];
    POOL[entropy % POOL.len()]
}

/// Build one request's tables from per-table column counts; `first_id`
/// keeps table ids unique across a test's requests (the id is also the
/// `core.feature_extract` injection key).
fn request_tables(col_counts: &[usize], first_id: u64, salt: usize) -> Vec<Table> {
    col_counts
        .iter()
        .enumerate()
        .map(|(t, &cols)| {
            let columns = (0..cols)
                .map(|c| {
                    let rows = 1 + (salt + t * 5 + c * 3) % 4;
                    Column::new((0..rows).map(|r| cell_value(salt + t * 31 + c * 7 + r)))
                })
                .collect();
            Table::unlabelled(first_id + t as u64, columns)
        })
        .collect()
}

/// The sequential oracle every non-culprit response must match bit for bit.
fn oracle(p: &SatoPredictor, tables: &[Table], batch_cols: usize) -> Vec<TablePrediction> {
    p.predict_corpus_batched(&Corpus::new(tables.to_vec()), batch_cols)
}

/// A unique temp-file path for this test binary.
fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sato_chaos_{}_{name}", std::process::id()))
}

/// The tentpole acceptance test, end to end in one service run:
///
/// 1. a `serve.round_formation` panic kills the batcher mid-round (before
///    any request is lost) — the supervisor restarts it
///    (`worker_restarts`), and no client sees the crash;
/// 2. one request carries a poison-pill table (`core.feature_extract`
///    panics on its id, every time): quarantine bisection fails exactly
///    that request with `ServeError::Poisoned` (`quarantined`), and every
///    other in-flight request is re-served **bit-identical** to the
///    sequential oracle;
/// 3. a corrupt-artifact hot-swap during the same run rolls back
///    (`swap_rollbacks`) — not a single response carries a wrong artifact
///    tag;
/// 4. afterwards, a *good* artifact file swaps in and serves.
#[test]
fn poison_pill_worker_crash_and_corrupt_swap_in_one_run() {
    let _gate = serial();
    quiet_injected_panics();
    let _faults = faults::scoped();
    let a = predictor(false);
    let b = predictor(true);

    // Request 3 is the culprit: its middle table (id 301) panics feature
    // extraction on every attempt, so bisection must converge on it.
    let shapes: [&[usize]; 8] = [
        &[2],
        &[1, 2],
        &[3],
        &[1, 1, 1],
        &[2, 1],
        &[1],
        &[4],
        &[2, 2],
    ];
    let requests: Vec<Vec<Table>> = shapes
        .iter()
        .enumerate()
        .map(|(r, cols)| request_tables(cols, (r * 100) as u64, r))
        .collect();
    const CULPRIT: usize = 3;
    faults::set("core.feature_extract", FaultSpec::panic().with_key(301));
    faults::set("serve.round_formation", FaultSpec::panic().once());

    let batch_cols = 4; // small target → rounds coalesce several requests
    let service = SatoService::start(
        predictor(false),
        ServiceConfig {
            batch_cols,
            ..ServiceConfig::default()
        },
    );
    service.pause(); // everything queues, then drains through chaos at once
    let handles: Vec<_> = requests
        .iter()
        .map(|tables| {
            service
                .submit(tables.clone(), RequestOptions::default())
                .expect("admitted")
        })
        .collect();
    service.resume();

    // While the queue drains through the crash/quarantine, a corrupt
    // artifact (a torn write: valid magic, half the bytes) tries to swap
    // in — and must roll back without touching the incumbent.
    let corrupt = temp_path("acceptance_corrupt.satoart");
    let bytes_b = b.to_bytes();
    std::fs::write(&corrupt, &bytes_b[..bytes_b.len() / 2]).unwrap();
    let swap_err = service.load_artifact(&corrupt).unwrap_err();
    assert!(matches!(swap_err, ServeError::Swap(_)), "{swap_err}");
    assert_eq!(service.artifact_meta(), a.artifact_meta());

    for (r, handle) in handles.into_iter().enumerate() {
        if r == CULPRIT {
            assert!(
                matches!(handle.wait(), Err(ServeError::Poisoned)),
                "culprit request must be quarantined"
            );
        } else {
            let response = handle.wait().unwrap_or_else(|e| {
                panic!("innocent request {r} must serve, got {e}");
            });
            assert_eq!(
                response.artifact_hash,
                a.content_hash(),
                "request {r} tagged with an artifact that never finished swapping in"
            );
            assert_eq!(
                response.predictions,
                oracle(&a, &requests[r], batch_cols),
                "innocent request {r} must stay bit-identical to the oracle"
            );
        }
    }

    // The service took a worker crash, a quarantine and a rolled-back swap
    // — and still serves new work.
    let followup = request_tables(&[2], 900, 17);
    let response = service.annotate(followup.clone()).expect("still serving");
    assert_eq!(response.predictions, oracle(&a, &followup, batch_cols));

    // A healthy artifact file still swaps in and serves under its own tag.
    let good = temp_path("acceptance_good.satoart");
    std::fs::write(&good, &bytes_b).unwrap();
    assert_eq!(service.load_artifact(&good).unwrap(), b.artifact_meta());
    let swapped = service.annotate(followup.clone()).expect("serving on B");
    assert_eq!(swapped.artifact_hash, b.content_hash());
    assert_eq!(swapped.predictions, oracle(&b, &followup, batch_cols));

    let stats = service.shutdown();
    assert_eq!(stats.worker_restarts, 1, "exactly one injected crash");
    assert_eq!(stats.quarantined, 1, "exactly one poison pill");
    assert_eq!(stats.swap_rollbacks, 1, "exactly one corrupt swap");
    assert_eq!(stats.swaps, 1, "exactly one good swap");
    assert_eq!(stats.completed, requests.len() as u64 - 1 + 2);
    for path in [corrupt, good] {
        let _ = std::fs::remove_file(path);
    }
}

/// A poison pill filled by a *helper* thread of a fanned-out micro-batch:
/// one round coalesces every request into a single multi-table batch (the
/// target exceeds the round's column count). The calling thread takes the
/// batch's wide first table, so whenever this process may run on more than
/// one core a helper takes the next one, the culprit. The helper's panic
/// resumes on the batcher after the rest of the batch was filled, so the
/// service's catch-unwind and bisection see it exactly as a sequential
/// fill's panic: only the culprit's request is quarantined, the batcher
/// never crashes, and every other answer stays bit-identical.
#[test]
fn poison_pill_on_a_fill_helper_quarantines_only_its_request() {
    let _gate = serial();
    quiet_injected_panics();
    let _faults = faults::scoped();
    let a = predictor(false);

    let shapes: [&[usize]; 6] = [&[12], &[2, 1], &[4, 1], &[2, 3], &[3], &[2, 2]];
    let requests: Vec<Vec<Table>> = shapes
        .iter()
        .enumerate()
        .map(|(r, cols)| request_tables(cols, (r * 100) as u64, r + 40))
        .collect();
    let culprit = 1;
    faults::set(
        "core.feature_extract",
        FaultSpec::panic().with_key(requests[culprit][0].id),
    );

    let batch_cols = 1_000; // the whole round is one micro-batch
    let service = SatoService::start(
        predictor(false),
        ServiceConfig {
            batch_cols,
            ..ServiceConfig::default()
        },
    );
    service.pause();
    let handles: Vec<_> = requests
        .iter()
        .map(|tables| {
            service
                .submit(tables.clone(), RequestOptions::default())
                .expect("admitted")
        })
        .collect();
    service.resume();

    for (r, handle) in handles.into_iter().enumerate() {
        if r == culprit {
            assert!(
                matches!(handle.wait(), Err(ServeError::Poisoned)),
                "culprit request must be quarantined"
            );
        } else {
            let response = handle
                .wait()
                .unwrap_or_else(|e| panic!("innocent request {r} must serve, got {e}"));
            assert_eq!(
                response.predictions,
                oracle(&a, &requests[r], batch_cols),
                "innocent request {r} must stay bit-identical to the oracle"
            );
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.quarantined, 1, "exactly one poison pill");
    assert_eq!(
        stats.worker_restarts, 0,
        "a fill panic never kills the batcher"
    );
    assert_eq!(stats.completed, requests.len() as u64 - 1);
}

/// A crash loop that never completes a round is a systemic fault, not a
/// poison pill: after `MAX_CONSECUTIVE_RESTARTS` no-progress crashes the
/// supervisor fail-stops — queued requests are answered `Stopped` (which
/// `wait_timeout` pollers observe instead of spinning on `None` forever),
/// new submissions are refused, and shutdown still returns.
#[test]
fn supervisor_gives_up_on_a_no_progress_crash_loop() {
    let _gate = serial();
    quiet_injected_panics();
    let _faults = faults::scoped();
    faults::set("serve.round_formation", FaultSpec::panic());

    let service = SatoService::start(predictor(false), ServiceConfig::default());
    let handle = service
        .submit(request_tables(&[1], 0, 0), RequestOptions::default())
        .expect("admitted");

    // Poll like a real client: must resolve to Stopped, never hang.
    let mut verdict = None;
    for _ in 0..3000 {
        if let Some(result) = handle.wait_timeout(Duration::from_millis(10)) {
            verdict = Some(result);
            break;
        }
    }
    assert!(matches!(
        verdict.expect("fail-stop resolves the poller within 30 s"),
        Err(ServeError::Stopped)
    ));
    // The terminal result is spent: polling again is Stopped immediately.
    assert!(matches!(
        handle.wait_timeout(Duration::from_millis(1)),
        Some(Err(ServeError::Stopped))
    ));

    assert!(matches!(
        service.submit(request_tables(&[1], 10, 1), RequestOptions::default()),
        Err(ServeError::ShuttingDown)
    ));
    let stats = service.shutdown();
    assert_eq!(stats.worker_restarts, u64::from(MAX_CONSECUTIVE_RESTARTS));
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.quarantined, 0);
}

/// `load_artifact` retries transient I/O with backoff: two injected I/O
/// failures are absorbed and the swap lands; more failures than the retry
/// budget roll the swap back while the incumbent keeps serving.
#[test]
fn transient_artifact_io_is_retried_with_backoff() {
    let _gate = serial();
    quiet_injected_panics();
    let _faults = faults::scoped();
    let b = predictor(true);
    let good = temp_path("transient_good.satoart");
    std::fs::write(&good, b.to_bytes()).unwrap();

    let service = SatoService::start(predictor(false), ServiceConfig::default());

    // Two transient failures, then the read succeeds within the budget.
    faults::set("core.artifact_load", FaultSpec::error().times(2));
    let meta = service.load_artifact(&good).expect("retries absorb it");
    assert_eq!(meta, b.artifact_meta());
    assert_eq!(faults::fired("core.artifact_load"), 2);

    // Persistent failure: the budget runs out, the swap rolls back, and
    // generation B (the incumbent by now) keeps serving.
    faults::set("core.artifact_load", FaultSpec::error());
    assert!(matches!(
        service.load_artifact(&good),
        Err(ServeError::Swap(PredictorError::Io(_)))
    ));
    assert_eq!(service.artifact_meta(), b.artifact_meta());
    faults::clear("core.artifact_load");
    let table = request_tables(&[2], 0, 3);
    let response = service.annotate(table.clone()).expect("still serving");
    assert_eq!(response.artifact_hash, b.content_hash());
    assert_eq!(response.predictions, oracle(&b, &table, 64));

    let stats = service.shutdown();
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.swap_rollbacks, 1);
    assert_eq!(stats.artifact.content_hash, b.content_hash());
    let _ = std::fs::remove_file(good);
}

/// A colstore decode fault fails exactly the submission that hit it — the
/// ingest path parses before anything queues — and the service serves the
/// identical bytes normally once the fault clears.
#[test]
fn colstore_decode_fault_degrades_one_submission_not_the_service() {
    let _gate = serial();
    quiet_injected_panics();
    let _faults = faults::scoped();
    let a = predictor(false);
    let tables = request_tables(&[2, 3, 1], 0, 5);
    let bytes = colstore::corpus_to_bytes(&Corpus::new(tables.clone()));

    let service = SatoService::start(predictor(false), ServiceConfig::default());
    faults::set("tabular.colstore_decode", FaultSpec::error().nth(2));
    assert!(matches!(
        service.submit_colstore_bytes(&bytes, RequestOptions::default()),
        Err(ServeError::Corpus(_))
    ));
    assert_eq!(faults::fired("tabular.colstore_decode"), 1);

    faults::clear("tabular.colstore_decode");
    let response = service
        .submit_colstore_bytes(&bytes, RequestOptions::default())
        .expect("admitted")
        .wait()
        .expect("served");
    assert_eq!(response.predictions, oracle(&a, &tables, 64));
    let stats = service.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.admitted, 1);
}

/// The validated index-load path rolls back on every failure class —
/// injected sidecar I/O, a torn write, a flipped payload byte — while the
/// incumbent in-memory index keeps answering searches, and the untouched
/// sidecar still loads cleanly once the fault clears.
#[test]
fn corrupt_index_load_rolls_back_and_the_incumbent_keeps_serving() {
    let _gate = serial();
    quiet_injected_panics();
    let _faults = faults::scoped();
    let a = predictor(false);

    let service = SatoService::start(
        predictor(false),
        ServiceConfig {
            batch_cols: 4,
            index_on_annotate: Some(HnswConfig::default()),
            ..ServiceConfig::default()
        },
    );
    let tables = request_tables(&[2, 1, 3], 0, 11);
    service.annotate(tables.clone()).expect("served");
    let indexed = service.index_len();
    assert_eq!(indexed, 6, "every annotated column is indexed");

    let sidecar = temp_path("index_sidecar.satoidx");
    service.save_index(&sidecar).expect("sidecar saved");

    // Injected I/O on the sidecar read fails the load typed ...
    faults::set("index.load", FaultSpec::error());
    assert!(matches!(
        service.load_index(&sidecar),
        Err(ServeError::Index(IndexError::Io(_)))
    ));
    assert_eq!(faults::fired("index.load"), 1);
    faults::clear("index.load");

    // ... as do a torn write (truncation) and a flipped payload byte ...
    let bytes = std::fs::read(&sidecar).unwrap();
    let torn = temp_path("index_torn.satoidx");
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
    assert!(matches!(
        service.load_index(&torn),
        Err(ServeError::Index(_))
    ));
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x20;
    std::fs::write(&torn, &flipped).unwrap();
    assert!(matches!(
        service.load_index(&torn),
        Err(ServeError::Index(IndexError::Checksum(_)))
    ));

    // ... and every rollback left the incumbent index answering queries.
    assert_eq!(service.index_len(), indexed);
    let query = a.column_embeddings(&tables[0]);
    let hits = service
        .search_index(&query[0], 1)
        .expect("still searchable");
    assert_eq!(
        hits[0].key,
        ColumnRef {
            table_id: 0,
            col_idx: 0
        }
    );
    assert_eq!(hits[0].distance, 0.0, "self-query must be exact");

    // The untouched sidecar still loads cleanly.
    assert_eq!(service.load_index(&sidecar).expect("healthy load"), indexed);

    let stats = service.shutdown();
    assert_eq!(stats.index_rollbacks, 3, "one rollback per failed load");
    assert_eq!(stats.indexed_columns, 6);
    for path in [sidecar, torn] {
        let _ = std::fs::remove_file(path);
    }
}

/// An injected panic inside a graph insert must never fail annotation: the
/// round's client is answered bit-identical to the oracle, the
/// possibly-torn index is dropped whole (`index_rollbacks`), and later
/// traffic rebuilds it from scratch.
#[test]
fn index_insert_panic_drops_the_index_but_never_the_response() {
    let _gate = serial();
    quiet_injected_panics();
    let _faults = faults::scoped();
    let a = predictor(false);
    faults::set("index.insert", FaultSpec::panic().once());

    let batch_cols = 4;
    let service = SatoService::start(
        predictor(false),
        ServiceConfig {
            batch_cols,
            index_on_annotate: Some(HnswConfig::default()),
            ..ServiceConfig::default()
        },
    );

    // The round that hits the insert fault still answers its client.
    let poisoned_round = request_tables(&[2, 2], 0, 3);
    let response = service
        .annotate(poisoned_round.clone())
        .expect("indexing failures never fail annotation");
    assert_eq!(
        response.predictions,
        oracle(&a, &poisoned_round, batch_cols)
    );
    assert_eq!(faults::fired("index.insert"), 1);
    assert_eq!(service.index_len(), 0, "torn index must be dropped whole");
    assert!(matches!(
        service.search_index(&[0.0; 4], 1),
        Err(ServeError::IndexUnavailable)
    ));

    // The fault is spent: fresh traffic rebuilds the index from scratch.
    let rebuild = request_tables(&[1, 2], 100, 4);
    service.annotate(rebuild.clone()).expect("served");
    assert_eq!(service.index_len(), 3);
    let query = a.column_embeddings(&rebuild[1]);
    let hits = service
        .search_index(&query[1], 1)
        .expect("searchable again");
    assert_eq!(
        hits[0].key,
        ColumnRef {
            table_id: 101,
            col_idx: 1
        }
    );

    let stats = service.shutdown();
    assert_eq!(stats.index_rollbacks, 1);
    assert_eq!(
        stats.indexed_columns, 3,
        "only the rebuilt round's inserts count"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Concurrent clients under chaos: delayed rounds (`serve.round`
    /// Delay), a worker crash at an arbitrary round (`serve.round_formation`
    /// Panic), and a corrupt hot-swap racing the submissions. No request
    /// may be lost, every response must be tagged with the only artifact
    /// that ever served and stay bit-identical to its sequential oracle,
    /// and the service must drain cleanly on shutdown.
    #[test]
    fn chaos_rounds_lose_no_request_and_stay_bit_identical(
        batch_cols in 1usize..16,
        shapes in proptest::collection::vec(
            proptest::collection::vec(0usize..4, 0..4), 2..8),
        salt in 0usize..10_000,
        delay_every in 1u64..4,
        crash_on_round in 1u64..5,
    ) {
        let _gate = serial();
        quiet_injected_panics();
        let _faults = faults::scoped();
        faults::set(
            "serve.round",
            FaultSpec::delay(Duration::from_micros(300)).every(delay_every),
        );
        faults::set("serve.round_formation", FaultSpec::panic().nth(crash_on_round));

        let a = predictor(false);
        let requests: Vec<Vec<Table>> = shapes
            .iter()
            .enumerate()
            .map(|(r, cols)| request_tables(cols, (r * 100) as u64, salt + r))
            .collect();
        let service = SatoService::start(
            predictor(false),
            ServiceConfig {
                batch_cols,
                ..ServiceConfig::default()
            },
        );
        let corrupt = temp_path("proptest_corrupt.satoart");
        let bytes = a.to_bytes();
        std::fs::write(&corrupt, &bytes[..bytes.len() / 3]).unwrap();

        let responses = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2)
                .map(|parity| {
                    let service = &service;
                    let requests = &requests;
                    scope.spawn(move || {
                        requests
                            .iter()
                            .enumerate()
                            .filter(|(r, _)| r % 2 == parity)
                            .map(|(r, tables)| {
                                let handle = service
                                    .submit(tables.clone(), RequestOptions::default())
                                    .expect("queue never fills in this test");
                                (r, handle.wait().expect("no request may be lost"))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            // The failing hot-swap races the clients from this thread.
            let swap = service.load_artifact(&corrupt);
            assert!(matches!(swap, Err(ServeError::Swap(_))));
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        });

        prop_assert_eq!(responses.len(), requests.len());
        for (r, response) in responses {
            prop_assert_eq!(
                response.artifact_hash,
                a.content_hash(),
                "request {} tagged with an artifact that never swapped in",
                r
            );
            prop_assert_eq!(
                &response.predictions,
                &oracle(&a, &requests[r], batch_cols),
                "request {} must stay bit-identical under chaos",
                r
            );
        }
        let stats = service.shutdown();
        prop_assert_eq!(stats.completed, requests.len() as u64);
        prop_assert_eq!(stats.quarantined, 0);
        prop_assert_eq!(stats.swap_rollbacks, 1);
        let _ = std::fs::remove_file(corrupt);
    }
}
