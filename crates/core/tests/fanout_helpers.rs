//! Lifecycle of the batch fill helpers a `ServingScratch` owns: a scratch
//! starts one helper per extra core on its first multi-table batch of a
//! topic-aware model, and dropping it — idle or after use — joins them, so
//! the process's thread count returns to where it was.
//!
//! This file deliberately contains a single `#[test]`: the thread count is
//! process-wide, and a concurrent test would move it between reads.

use sato::{SatoConfig, SatoModel, SatoVariant, ServingScratch};
use sato_tabular::corpus::default_corpus;
use sato_tabular::table::Table;

/// The `Threads:` line of `/proc/self/status`, where the platform has one.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

#[test]
fn dropping_a_scratch_joins_its_fill_helpers() {
    let Some(baseline) = threads() else {
        eprintln!("no /proc/self/status: thread count not observable here");
        return;
    };
    let mut config = SatoConfig::fast();
    config.network.epochs = 5;
    config.lda.train_iterations = 15;
    config.crf.epochs = 2;
    let corpus = default_corpus(16, 5);
    let predictor = SatoModel::train(&corpus, config, SatoVariant::Full).into_predictor();
    assert_eq!(
        threads(),
        Some(baseline),
        "training leaves no thread behind"
    );

    // An idle scratch starts nothing.
    drop(ServingScratch::new());
    assert_eq!(
        threads(),
        Some(baseline),
        "an idle scratch starts no helper"
    );

    // A two-table batch uses one helper when this process may run on more
    // than one core (a pinned process, e.g. under `taskset -c 0`, uses none).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let helpers = cores.min(2) - 1;
    let batch: Vec<&Table> = corpus.tables.iter().take(2).collect();
    let mut scratch = ServingScratch::new();
    let want = predictor.predict_corpus(&sato_tabular::table::Corpus::new(
        batch.iter().map(|t| (*t).clone()).collect(),
    ));
    for _ in 0..3 {
        assert_eq!(predictor.predict_batch(&batch, &mut scratch), want);
        assert_eq!(
            threads(),
            Some(baseline + helpers),
            "helpers are started once and parked between batches"
        );
    }
    drop(scratch);
    assert_eq!(
        threads(),
        Some(baseline),
        "dropping a used scratch joins its helpers"
    );
}
