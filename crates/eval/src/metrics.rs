//! Evaluation metrics (Section 4.4 of the paper): per-type F1, the
//! support-weighted average F1 (overall performance) and the macro average
//! F1 (sensitive to rare types), plus the full confusion matrix.

use sato_tabular::types::{SemanticType, NUM_TYPES};

/// Precision/recall/F1 and support of a single semantic type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypeMetrics {
    /// The semantic type.
    pub semantic_type: SemanticType,
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
    /// Number of gold columns of this type in the evaluation set.
    pub support: usize,
    /// Precision (0 when the type was never predicted).
    pub precision: f64,
    /// Recall (0 when the type never occurs).
    pub recall: f64,
    /// F1 = 2PR/(P+R).
    pub f1: f64,
}

/// Aggregate evaluation of a set of (gold, predicted) column labels.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Per-type metrics, indexed by `SemanticType::index()`.
    pub per_type: Vec<TypeMetrics>,
    /// Unweighted mean of per-type F1 over types with non-zero support.
    pub macro_f1: f64,
    /// Support-weighted mean of per-type F1.
    pub weighted_f1: f64,
    /// Plain accuracy (fraction of columns typed correctly).
    pub accuracy: f64,
    /// Number of evaluated columns.
    pub total: usize,
}

impl Evaluation {
    /// Compute metrics from parallel slices of gold and predicted labels.
    pub fn from_pairs(gold: &[SemanticType], predicted: &[SemanticType]) -> Self {
        assert_eq!(
            gold.len(),
            predicted.len(),
            "gold and predicted label counts differ"
        );
        let mut tp = vec![0usize; NUM_TYPES];
        let mut fp = vec![0usize; NUM_TYPES];
        let mut fn_ = vec![0usize; NUM_TYPES];
        let mut correct = 0usize;
        for (&g, &p) in gold.iter().zip(predicted) {
            if g == p {
                tp[g.index()] += 1;
                correct += 1;
            } else {
                fp[p.index()] += 1;
                fn_[g.index()] += 1;
            }
        }
        let per_type: Vec<TypeMetrics> = SemanticType::ALL
            .iter()
            .map(|&t| {
                let i = t.index();
                let support = tp[i] + fn_[i];
                let precision = if tp[i] + fp[i] > 0 {
                    tp[i] as f64 / (tp[i] + fp[i]) as f64
                } else {
                    0.0
                };
                let recall = if support > 0 {
                    tp[i] as f64 / support as f64
                } else {
                    0.0
                };
                let f1 = if precision + recall > 0.0 {
                    2.0 * precision * recall / (precision + recall)
                } else {
                    0.0
                };
                TypeMetrics {
                    semantic_type: t,
                    tp: tp[i],
                    fp: fp[i],
                    fn_: fn_[i],
                    support,
                    precision,
                    recall,
                    f1,
                }
            })
            .collect();

        let supported: Vec<&TypeMetrics> = per_type.iter().filter(|m| m.support > 0).collect();
        let macro_f1 = if supported.is_empty() {
            0.0
        } else {
            supported.iter().map(|m| m.f1).sum::<f64>() / supported.len() as f64
        };
        let total_support: usize = supported.iter().map(|m| m.support).sum();
        let weighted_f1 = if total_support == 0 {
            0.0
        } else {
            supported
                .iter()
                .map(|m| m.f1 * m.support as f64)
                .sum::<f64>()
                / total_support as f64
        };
        Evaluation {
            per_type,
            macro_f1,
            weighted_f1,
            accuracy: if gold.is_empty() {
                0.0
            } else {
                correct as f64 / gold.len() as f64
            },
            total: gold.len(),
        }
    }

    /// Compute metrics from per-table prediction pairs (flattens columns).
    ///
    /// Tables with an empty gold slice are unlabelled under the empty-gold
    /// convention (see `TablePrediction::gold` in the `sato` crate) and are
    /// skipped: they carry no ground truth to score against.
    pub fn from_tables<'a>(
        pairs: impl Iterator<Item = (&'a [SemanticType], &'a [SemanticType])>,
    ) -> Self {
        let mut gold = Vec::new();
        let mut pred = Vec::new();
        for (g, p) in pairs {
            if g.is_empty() {
                continue;
            }
            assert_eq!(g.len(), p.len(), "table with mismatched label counts");
            gold.extend_from_slice(g);
            pred.extend_from_slice(p);
        }
        Self::from_pairs(&gold, &pred)
    }

    /// F1 of a specific type.
    pub fn f1_of(&self, t: SemanticType) -> f64 {
        self.per_type[t.index()].f1
    }
}

/// Mean and (normal-approximation) 95% confidence interval half-width of a
/// sample of values — the `±` columns of Table 1 and Table 2.
pub fn mean_and_ci95(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
    let se = (var / n).sqrt();
    (mean, 1.96 * se)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use SemanticType as T;

    #[test]
    fn perfect_prediction_scores_one() {
        let gold = vec![T::City, T::Country, T::Age];
        let eval = Evaluation::from_pairs(&gold, &gold);
        assert_eq!(eval.macro_f1, 1.0);
        assert_eq!(eval.weighted_f1, 1.0);
        assert_eq!(eval.accuracy, 1.0);
        assert_eq!(eval.total, 3);
    }

    #[test]
    fn completely_wrong_prediction_scores_zero() {
        let gold = vec![T::City, T::City];
        let pred = vec![T::Country, T::Country];
        let eval = Evaluation::from_pairs(&gold, &pred);
        assert_eq!(eval.macro_f1, 0.0);
        assert_eq!(eval.weighted_f1, 0.0);
        assert_eq!(eval.accuracy, 0.0);
    }

    #[test]
    fn hand_computed_example() {
        // gold: 3 city, 1 country; predictions: 2 city right, 1 city -> country,
        // country right.
        let gold = vec![T::City, T::City, T::City, T::Country];
        let pred = vec![T::City, T::City, T::Country, T::Country];
        let eval = Evaluation::from_pairs(&gold, &pred);
        let city = eval.per_type[T::City.index()];
        assert_eq!(city.support, 3);
        assert!((city.precision - 1.0).abs() < 1e-12);
        assert!((city.recall - 2.0 / 3.0).abs() < 1e-12);
        assert!((city.f1 - 0.8).abs() < 1e-12);
        let country = eval.per_type[T::Country.index()];
        assert!((country.precision - 0.5).abs() < 1e-12);
        assert!((country.recall - 1.0).abs() < 1e-12);
        assert!((country.f1 - 2.0 / 3.0).abs() < 1e-12);
        // macro over the two supported types
        assert!((eval.macro_f1 - (0.8 + 2.0 / 3.0) / 2.0).abs() < 1e-12);
        // weighted by supports 3 and 1
        assert!((eval.weighted_f1 - (0.8 * 3.0 + (2.0 / 3.0)) / 4.0).abs() < 1e-12);
        assert!((eval.accuracy - 0.75).abs() < 1e-12);
    }

    #[test]
    fn weighted_f1_tracks_common_types_macro_tracks_rare_ones() {
        // 99 correct "name" columns, 1 wrong "sales" column: weighted stays
        // high, macro drops towards 0.5.
        let mut gold = vec![T::Name; 99];
        gold.push(T::Sales);
        let mut pred = vec![T::Name; 99];
        pred.push(T::Age);
        let eval = Evaluation::from_pairs(&gold, &pred);
        assert!(eval.weighted_f1 > 0.95);
        assert!(eval.macro_f1 < 0.55);
    }

    #[test]
    fn unsupported_types_are_excluded_from_macro() {
        let gold = vec![T::City];
        let pred = vec![T::City];
        let eval = Evaluation::from_pairs(&gold, &pred);
        assert_eq!(eval.macro_f1, 1.0);
        assert_eq!(eval.per_type[T::Sales.index()].support, 0);
    }

    #[test]
    #[should_panic(expected = "differ")]
    fn mismatched_lengths_panic() {
        Evaluation::from_pairs(&[T::City], &[]);
    }

    #[test]
    fn from_tables_flattens_columns() {
        let g1 = [T::City, T::Country];
        let p1 = [T::City, T::Country];
        let g2 = [T::Age];
        let p2 = [T::Weight];
        let eval =
            Evaluation::from_tables(vec![(&g1[..], &p1[..]), (&g2[..], &p2[..])].into_iter());
        assert_eq!(eval.total, 3);
        assert!((eval.accuracy - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn from_tables_skips_unlabelled_tables() {
        // An empty gold slice marks an unlabelled table (empty-gold
        // convention); its predictions must not panic or dilute metrics.
        let g1 = [T::City, T::Country];
        let p1 = [T::City, T::Country];
        let unlabelled_gold: [T; 0] = [];
        let p2 = [T::Age, T::Weight, T::Name];
        let eval = Evaluation::from_tables(
            vec![(&g1[..], &p1[..]), (&unlabelled_gold[..], &p2[..])].into_iter(),
        );
        assert_eq!(eval.total, 2);
        assert_eq!(eval.accuracy, 1.0);
    }

    #[test]
    fn ci_helper_matches_hand_computation() {
        let (mean, ci) = mean_and_ci95(&[1.0, 2.0, 3.0]);
        assert!((mean - 2.0).abs() < 1e-12);
        // sample std = 1, se = 1/sqrt(3)
        assert!((ci - 1.96 / 3.0_f64.sqrt()).abs() < 1e-9);
        assert_eq!(mean_and_ci95(&[]), (0.0, 0.0));
        assert_eq!(mean_and_ci95(&[5.0]).1, 0.0);
    }

    proptest! {
        #[test]
        fn f1_scores_are_bounded(
            labels in proptest::collection::vec((0usize..10, 0usize..10), 1..200)
        ) {
            let gold: Vec<SemanticType> =
                labels.iter().map(|(g, _)| SemanticType::from_index(*g).unwrap()).collect();
            let pred: Vec<SemanticType> =
                labels.iter().map(|(_, p)| SemanticType::from_index(*p).unwrap()).collect();
            let eval = Evaluation::from_pairs(&gold, &pred);
            prop_assert!((0.0..=1.0).contains(&eval.macro_f1));
            prop_assert!((0.0..=1.0).contains(&eval.weighted_f1));
            prop_assert!((0.0..=1.0).contains(&eval.accuracy));
            for m in &eval.per_type {
                prop_assert!((0.0..=1.0).contains(&m.f1));
                prop_assert!(m.tp + m.fn_ == m.support);
            }
        }

        #[test]
        fn accuracy_equals_weighted_recall(
            labels in proptest::collection::vec((0usize..5, 0usize..5), 1..100)
        ) {
            let gold: Vec<SemanticType> =
                labels.iter().map(|(g, _)| SemanticType::from_index(*g).unwrap()).collect();
            let pred: Vec<SemanticType> =
                labels.iter().map(|(_, p)| SemanticType::from_index(*p).unwrap()).collect();
            let eval = Evaluation::from_pairs(&gold, &pred);
            let weighted_recall: f64 = eval
                .per_type
                .iter()
                .filter(|m| m.support > 0)
                .map(|m| m.recall * m.support as f64)
                .sum::<f64>() / gold.len() as f64;
            prop_assert!((eval.accuracy - weighted_recall).abs() < 1e-9);
        }
    }
}
