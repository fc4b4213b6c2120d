//! Cross-crate parity tests for the batched serving core: every
//! `SatoPredictor` entry point — `predict`, `predict_proba`,
//! `predict_corpus` and `predict_corpus_batched` — must be bit-identical to
//! the unbatched `extract_inputs` → `predict_proba_from_inputs` → CRF
//! reference for every model variant, every topic sampler, every
//! micro-batch width, and arbitrarily ragged corpora — including
//! zero-column and single-column tables.

use proptest::prelude::*;
use sato::{SamplerKind, SatoConfig, SatoModel, SatoPredictor, SatoVariant};
use sato_integration::reference_predictions;
use sato_tabular::corpus::default_corpus;
use sato_tabular::table::{Column, Corpus, Table};
use std::sync::OnceLock;

fn tiny_config() -> SatoConfig {
    let mut config = SatoConfig::fast();
    config.network.epochs = 5;
    config.lda.train_iterations = 15;
    config.crf.epochs = 3;
    config
}

/// One trained Full predictor (topic + CRF, the most complex pipeline),
/// shared across the property cases so training cost is paid once.
fn full_predictor() -> &'static SatoPredictor {
    static PREDICTOR: OnceLock<SatoPredictor> = OnceLock::new();
    PREDICTOR.get_or_init(|| {
        let corpus = default_corpus(30, 41);
        SatoModel::train(&corpus, tiny_config(), SatoVariant::Full).into_predictor()
    })
}

/// Deterministic cell content for a synthetic ragged corpus: a mix of
/// wordy, numeric, formatted and blank cells.
fn cell_value(entropy: usize) -> &'static str {
    const POOL: [&str; 12] = [
        "Warsaw",
        "London",
        "12.5",
        "1,777,972",
        "",
        "Rock",
        "alpha beta",
        "75 kg",
        "-3",
        "  ",
        "Dr. Strange & Co.",
        "2020-11-05",
    ];
    POOL[entropy % POOL.len()]
}

/// Build a corpus from per-table column shapes: `shapes[t][c]` is the row
/// count of column `c` of table `t` (an empty inner vec is a zero-column
/// table).
fn ragged_corpus(shapes: &[Vec<usize>], salt: usize) -> Corpus {
    let tables = shapes
        .iter()
        .enumerate()
        .map(|(t, cols)| {
            let columns = cols
                .iter()
                .enumerate()
                .map(|(c, &rows)| {
                    Column::new((0..rows).map(|r| cell_value(salt + t * 31 + c * 7 + r * 3)))
                })
                .collect();
            Table::unlabelled(t as u64, columns)
        })
        .collect();
    Corpus::new(tables)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Batched serving is bit-identical to the unbatched reference on
    /// arbitrarily ragged corpora: tables with 0, 1 or many columns, columns
    /// with 0 to several rows, any micro-batch width.
    #[test]
    fn batched_serving_parity_over_ragged_corpora(
        shapes in proptest::collection::vec(
            proptest::collection::vec(0usize..6, 0..5), 1..9),
        batch_cols in 1usize..40,
        salt in 0usize..10_000,
    ) {
        let predictor = full_predictor();
        let corpus = ragged_corpus(&shapes, salt);
        let sequential = reference_predictions(predictor, &corpus);
        let batched = predictor.predict_corpus_batched(&corpus, batch_cols);
        prop_assert_eq!(&sequential, &batched);
        prop_assert_eq!(&sequential, &predictor.predict_corpus(&corpus));
        // Ragged or not, every table gets one prediction per column.
        for (pred, table) in sequential.iter().zip(corpus.iter()) {
            prop_assert_eq!(pred.predicted.len(), table.num_columns());
            prop_assert!(pred.gold.is_empty(), "unlabelled tables have empty gold");
        }
    }
}

/// All four variants × all three topic samplers: every entry point agrees
/// with the unbatched reference — single tables (`predict`,
/// `predict_proba`), `predict_corpus`, and the boundary batch widths of one
/// column per batch and a batch wider than the whole corpus.
#[test]
fn batched_parity_all_variants_boundary_batches() {
    let corpus = default_corpus(18, 77);
    let total_cols: usize = corpus.iter().map(|t| t.num_columns()).sum();
    for variant in SatoVariant::ALL {
        let mut predictor = SatoModel::train(&corpus, tiny_config(), variant).into_predictor();
        for kind in [
            SamplerKind::Dense,
            SamplerKind::SparseAlias,
            SamplerKind::MetropolisHastings,
        ] {
            predictor = predictor.with_sampler(kind);
            let what = format!("variant {} / {}", variant.name(), kind.name());
            let reference = reference_predictions(&predictor, &corpus);
            assert_eq!(reference, predictor.predict_corpus(&corpus), "{what}");
            for batch_cols in [1, total_cols + 1] {
                assert_eq!(
                    reference,
                    predictor.predict_corpus_batched(&corpus, batch_cols),
                    "{what} batch_cols {batch_cols}"
                );
            }
            let columnwise = predictor.columnwise();
            for (table, want) in corpus.iter().zip(&reference).take(6) {
                assert_eq!(predictor.predict(table), want.predicted, "{what}");
                assert_eq!(
                    predictor.predict_proba(table),
                    columnwise.predict_proba_from_inputs(&columnwise.extract_inputs(table)),
                    "{what} probabilities"
                );
            }
        }
    }
}

/// The batched path survives a round trip of the predictor through its
/// `SATOART1` bytes: a reloaded artifact serves batched predictions
/// bit-identical to the original's unbatched reference.
#[test]
fn batched_parity_after_artifact_round_trip() {
    let corpus = default_corpus(16, 5);
    let predictor =
        SatoModel::train(&corpus, tiny_config(), SatoVariant::SatoNoTopic).into_predictor();
    let reloaded = SatoPredictor::from_bytes(&predictor.to_bytes()).unwrap();
    assert_eq!(
        reference_predictions(&predictor, &corpus),
        reloaded.predict_corpus_batched(&corpus, 10)
    );
}
