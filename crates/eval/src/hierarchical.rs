//! Hierarchy-aware evaluation (the Section 6 "type hierarchy" extension).
//!
//! The paper's evaluation treats the 78 types as flat classes. Its
//! discussion section argues that an ontology over the types would allow
//! partial credit for near-miss predictions (e.g. predicting `city` for a
//! `birthPlace` column). Using the parent categories of
//! [`sato_tabular::hierarchy`], this module reports both the strict
//! (flat-type) accuracy and the lenient category-level accuracy, plus the
//! share of errors that stay within the gold type's category — a measure of
//! how "semantically close" a model's mistakes are.

use sato_tabular::hierarchy::{category_of, same_category};
use sato_tabular::types::SemanticType;

/// Strict and category-level agreement of a set of predictions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchicalEvaluation {
    /// Number of evaluated columns.
    pub total: usize,
    /// Exact (flat 78-type) accuracy.
    pub exact_accuracy: f64,
    /// Accuracy at the parent-category level (predicting any type of the
    /// gold type's category counts as correct).
    pub category_accuracy: f64,
    /// Among the *incorrect* exact predictions, the fraction whose predicted
    /// type still falls in the gold category ("near misses").
    pub near_miss_rate: f64,
}

impl HierarchicalEvaluation {
    /// Evaluate parallel gold/predicted label slices.
    pub fn from_pairs(gold: &[SemanticType], predicted: &[SemanticType]) -> Self {
        assert_eq!(gold.len(), predicted.len(), "label counts differ");
        let total = gold.len();
        if total == 0 {
            return HierarchicalEvaluation {
                total: 0,
                exact_accuracy: 0.0,
                category_accuracy: 0.0,
                near_miss_rate: 0.0,
            };
        }
        let mut exact = 0usize;
        let mut category = 0usize;
        let mut near_miss = 0usize;
        for (&g, &p) in gold.iter().zip(predicted) {
            if g == p {
                exact += 1;
                category += 1;
            } else if same_category(g, p) {
                category += 1;
                near_miss += 1;
            }
        }
        let errors = total - exact;
        HierarchicalEvaluation {
            total,
            exact_accuracy: exact as f64 / total as f64,
            category_accuracy: category as f64 / total as f64,
            near_miss_rate: if errors == 0 {
                0.0
            } else {
                near_miss as f64 / errors as f64
            },
        }
    }

    /// Per-category exact accuracy, useful for spotting which parent classes
    /// a model confuses internally (location vs person vs organisation, …).
    pub fn per_category_accuracy(
        gold: &[SemanticType],
        predicted: &[SemanticType],
    ) -> Vec<(sato_tabular::hierarchy::TypeCategory, usize, f64)> {
        use sato_tabular::hierarchy::TypeCategory;
        assert_eq!(gold.len(), predicted.len(), "label counts differ");
        TypeCategory::ALL
            .iter()
            .filter_map(|&cat| {
                let pairs: Vec<(&SemanticType, &SemanticType)> = gold
                    .iter()
                    .zip(predicted)
                    .filter(|(g, _)| category_of(**g) == cat)
                    .collect();
                if pairs.is_empty() {
                    return None;
                }
                let correct = pairs.iter().filter(|(g, p)| g == p).count();
                Some((cat, pairs.len(), correct as f64 / pairs.len() as f64))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SemanticType as T;

    #[test]
    fn exact_and_category_accuracy_on_mixed_predictions() {
        let gold = vec![T::City, T::BirthPlace, T::Sales, T::Name];
        let pred = vec![T::City, T::City, T::Age, T::Name];
        let eval = HierarchicalEvaluation::from_pairs(&gold, &pred);
        assert_eq!(eval.total, 4);
        // Exact: city and name correct.
        assert!((eval.exact_accuracy - 0.5).abs() < 1e-12);
        // Category: birthPlace→city stays in Location, sales→age stays in
        // Quantity, so all four are category-correct.
        assert!((eval.category_accuracy - 1.0).abs() < 1e-12);
        // Both errors are near misses.
        assert!((eval.near_miss_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn category_accuracy_never_below_exact_accuracy() {
        let gold = vec![T::City, T::Company, T::Year, T::Isbn];
        let pred = vec![T::Sales, T::Club, T::Day, T::Name];
        let eval = HierarchicalEvaluation::from_pairs(&gold, &pred);
        assert!(eval.category_accuracy >= eval.exact_accuracy);
        assert_eq!(eval.exact_accuracy, 0.0);
        // company→club and year→day are near misses; city→sales, isbn→name not.
        assert!((eval.near_miss_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_input_is_all_zero() {
        let eval = HierarchicalEvaluation::from_pairs(&[], &[]);
        assert_eq!(eval.total, 0);
        assert_eq!(eval.exact_accuracy, 0.0);
    }

    #[test]
    fn perfect_predictions_have_zero_near_miss_rate() {
        let gold = vec![T::City, T::Sales];
        let eval = HierarchicalEvaluation::from_pairs(&gold, &gold);
        assert_eq!(eval.exact_accuracy, 1.0);
        assert_eq!(eval.category_accuracy, 1.0);
        assert_eq!(eval.near_miss_rate, 0.0);
    }

    #[test]
    fn per_category_breakdown_only_reports_observed_categories() {
        let gold = vec![T::City, T::Country, T::Name];
        let pred = vec![T::City, T::City, T::Artist];
        let rows = HierarchicalEvaluation::per_category_accuracy(&gold, &pred);
        assert_eq!(rows.len(), 2); // Location and Person only
        let loc = rows
            .iter()
            .find(|(c, _, _)| c.name() == "location")
            .unwrap();
        assert_eq!(loc.1, 2);
        assert!((loc.2 - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "differ")]
    fn mismatched_lengths_panic() {
        HierarchicalEvaluation::from_pairs(&[T::City], &[]);
    }
}
