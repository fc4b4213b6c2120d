//! Integration test crate for the Sato workspace (tests live in tests/).
//!
//! The library holds the one oracle several test files share: the
//! unbatched reference path the batched serving core is checked against.

use sato::{types_from_proba, SatoPredictor, StructuredLayer, TablePrediction};
use sato_tabular::table::{Corpus, Table};

/// The unbatched reference prediction of one table: `extract_inputs` →
/// `predict_proba_from_inputs` → CRF decode (row-wise argmax for variants
/// without a CRF). It shares no code with the batched core past the
/// feature extractor and the layer weights.
pub fn reference_prediction(predictor: &SatoPredictor, table: &Table) -> TablePrediction {
    let columnwise = predictor.columnwise();
    let proba = columnwise.predict_proba_from_inputs(&columnwise.extract_inputs(table));
    let predicted = match predictor.crf() {
        Some(crf) => StructuredLayer::from_crf(crf.clone()).decode_proba(&proba),
        None => types_from_proba(&proba),
    };
    TablePrediction {
        table_id: table.id,
        gold: if table.is_labelled() {
            table.labels.clone()
        } else {
            Vec::new()
        },
        predicted,
    }
}

/// [`reference_prediction`] for every table of a corpus, in order.
pub fn reference_predictions(predictor: &SatoPredictor, corpus: &Corpus) -> Vec<TablePrediction> {
    corpus
        .iter()
        .map(|table| reference_prediction(predictor, table))
        .collect()
}
