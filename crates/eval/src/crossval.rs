//! Cross-validated evaluation of the Sato variants (the experimental
//! protocol behind Table 1 and Figures 7/8): k-fold CV at the table level,
//! with each fold evaluated on the full held-out set `D` and on its
//! multi-column subset `D_mult`.

use crate::metrics::{mean_and_ci95, Evaluation};
use sato::{SatoConfig, SatoModel, SatoVariant};
use sato_tabular::split::k_fold;
use sato_tabular::table::Corpus;
use sato_tabular::types::SemanticType;

/// The evaluation of one fold for one variant.
#[derive(Debug, Clone)]
pub struct FoldResult {
    /// Fold index.
    pub fold: usize,
    /// Metrics over every held-out table (dataset `D`).
    pub all_tables: Evaluation,
    /// Metrics over the multi-column held-out tables only (`D_mult`).
    pub multi_column: Evaluation,
}

/// Aggregated cross-validation result for one variant.
#[derive(Debug, Clone)]
pub struct CrossValResult {
    /// The evaluated variant.
    pub variant: SatoVariant,
    /// Per-fold evaluations.
    pub folds: Vec<FoldResult>,
}

/// A (mean, ±95% CI half-width) pair.
pub type MeanCi = (f64, f64);

impl CrossValResult {
    /// Mean ± CI of the macro-average F1 over folds.
    pub fn macro_f1(&self, multi_column_only: bool) -> MeanCi {
        self.aggregate(|f| self.pick(f, multi_column_only).macro_f1)
    }

    /// Mean ± CI of the support-weighted F1 over folds.
    pub fn weighted_f1(&self, multi_column_only: bool) -> MeanCi {
        self.aggregate(|f| self.pick(f, multi_column_only).weighted_f1)
    }

    /// Mean per-type F1 across folds (for Figures 7 and 8).
    pub fn per_type_f1(&self, multi_column_only: bool) -> Vec<(SemanticType, f64)> {
        SemanticType::ALL
            .iter()
            .map(|&t| {
                let scores: Vec<f64> = self
                    .folds
                    .iter()
                    .map(|f| self.pick(f, multi_column_only).f1_of(t))
                    .collect();
                (t, scores.iter().sum::<f64>() / scores.len().max(1) as f64)
            })
            .collect()
    }

    fn pick<'a>(&self, fold: &'a FoldResult, multi_column_only: bool) -> &'a Evaluation {
        if multi_column_only {
            &fold.multi_column
        } else {
            &fold.all_tables
        }
    }

    fn aggregate(&self, metric: impl Fn(&FoldResult) -> f64) -> MeanCi {
        let values: Vec<f64> = self.folds.iter().map(metric).collect();
        mean_and_ci95(&values)
    }
}

/// Evaluate a trained model on a held-out corpus, producing both the `D` and
/// `D_mult` views.
pub fn evaluate_model(model: &SatoModel, test: &Corpus) -> (Evaluation, Evaluation) {
    let predictions = model.predict_corpus(test);
    let all = Evaluation::from_tables(
        predictions
            .iter()
            .map(|p| (p.gold.as_slice(), p.predicted.as_slice())),
    );
    let multi = Evaluation::from_tables(
        predictions
            .iter()
            .filter(|p| p.gold.len() > 1)
            .map(|p| (p.gold.as_slice(), p.predicted.as_slice())),
    );
    (all, multi)
}

/// Run `k`-fold cross-validation of one variant over a corpus.
///
/// This is the paper's protocol: the model (LDA, column-wise network, CRF)
/// is re-trained from scratch on the training portion of every fold and
/// evaluated on the held-out portion.
pub fn cross_validate(
    corpus: &Corpus,
    k: usize,
    config: &SatoConfig,
    variant: SatoVariant,
) -> CrossValResult {
    let folds = k_fold(corpus, k, config.seed ^ 0xf01d);
    let fold_results = folds
        .iter()
        .enumerate()
        .map(|(i, split)| {
            let model = SatoModel::train(&split.train, config.clone(), variant);
            let (all_tables, multi_column) = evaluate_model(&model, &split.test);
            FoldResult {
                fold: i,
                all_tables,
                multi_column,
            }
        })
        .collect();
    CrossValResult {
        variant,
        folds: fold_results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sato_tabular::corpus::default_corpus;

    #[test]
    fn cross_validation_produces_one_result_per_fold() {
        let corpus = default_corpus(60, 14);
        let config = SatoConfig::fast();
        let result = cross_validate(&corpus, 2, &config, SatoVariant::Base);
        assert_eq!(result.folds.len(), 2);
        for fold in &result.folds {
            assert!(fold.all_tables.total >= fold.multi_column.total);
            assert!(fold.all_tables.total > 0);
        }
        let (macro_mean, macro_ci) = result.macro_f1(true);
        assert!((0.0..=1.0).contains(&macro_mean));
        assert!(macro_ci >= 0.0);
        let per_type = result.per_type_f1(false);
        assert_eq!(per_type.len(), 78);
    }

    #[test]
    fn evaluate_model_separates_d_and_dmult() {
        let corpus = default_corpus(50, 15);
        let model = SatoModel::train(&corpus, SatoConfig::fast(), SatoVariant::Base);
        let (all, multi) = evaluate_model(&model, &corpus);
        // D includes singleton-table columns, so it has strictly more columns
        // than D_mult for this corpus configuration.
        assert!(all.total > multi.total);
        assert!(multi.total > 0);
    }
}
