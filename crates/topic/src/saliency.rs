//! Topic interpretation and saliency analysis (Section 5.5 / Table 3).
//!
//! The paper interprets LDA topics by (1) computing the average topic
//! distribution of every semantic type (averaging the θ of the tables that
//! contain the type), (2) selecting, for each topic, the top-k semantic
//! types by probability, and (3) ranking topics by a *saliency* score — the
//! mean probability of those top-k types — so that "flat" topics that do not
//! discriminate between types sink to the bottom.

use crate::intent::{TableIntentEstimator, TopicScratch};
use crate::sampler::SamplerKind;
use sato_tabular::table::Corpus;
use sato_tabular::types::{SemanticType, NUM_TYPES};

/// The analysis result for one topic.
#[derive(Debug, Clone)]
pub struct TopicSummary {
    /// Topic index in the LDA model.
    pub topic: usize,
    /// Saliency score (mean probability of the top-k types).
    pub saliency: f64,
    /// The top-k semantic types for this topic with their probabilities.
    pub top_types: Vec<(SemanticType, f64)>,
}

/// Per-type average topic distributions plus the derived topic summaries.
#[derive(Debug, Clone)]
pub struct TopicTypeAnalysis {
    /// `type_topic[t][k]`: average probability of topic `k` for tables that
    /// contain a column of type `t`.
    pub type_topic: Vec<Vec<f64>>,
    /// One summary per topic, sorted by descending saliency.
    pub topics_by_saliency: Vec<TopicSummary>,
}

/// Run the Section 5.5 analysis: estimate topic vectors for every table of a
/// labelled corpus, average them per semantic type, and rank topics by
/// saliency of their top-`k` types.
pub fn analyze_topics(
    estimator: &TableIntentEstimator,
    corpus: &Corpus,
    top_k: usize,
) -> TopicTypeAnalysis {
    let num_topics = estimator.num_topics();
    let mut type_topic = vec![vec![0.0f64; num_topics]; NUM_TYPES];
    let mut type_counts = vec![0usize; NUM_TYPES];

    let dense = estimator.build_sampler(SamplerKind::Dense);
    let mut scratch = TopicScratch::new();
    for table in corpus.iter() {
        if !table.is_labelled() {
            continue;
        }
        let theta = estimator.estimate_with(table, &dense, &mut scratch);
        // A type present several times in one table still counts once, the
        // table-level θ being the unit of aggregation.
        let mut seen = [false; NUM_TYPES];
        for label in &table.labels {
            let t = label.index();
            if seen[t] {
                continue;
            }
            seen[t] = true;
            type_counts[t] += 1;
            for (k, &p) in theta.iter().enumerate() {
                type_topic[t][k] += p as f64;
            }
        }
    }
    for (t, row) in type_topic.iter_mut().enumerate() {
        if type_counts[t] > 0 {
            let n = type_counts[t] as f64;
            row.iter_mut().for_each(|x| *x /= n);
        }
    }

    // For each topic, rank types by their (average) probability of that topic.
    let mut topics_by_saliency: Vec<TopicSummary> = (0..num_topics)
        .map(|k| {
            let mut scored: Vec<(SemanticType, f64)> = SemanticType::ALL
                .iter()
                .filter(|t| type_counts[t.index()] > 0)
                .map(|t| (*t, type_topic[t.index()][k]))
                .collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            scored.truncate(top_k);
            let saliency = if scored.is_empty() {
                0.0
            } else {
                scored.iter().map(|(_, p)| p).sum::<f64>() / scored.len() as f64
            };
            TopicSummary {
                topic: k,
                saliency,
                top_types: scored,
            }
        })
        .collect();
    topics_by_saliency.sort_by(|a, b| {
        b.saliency
            .partial_cmp(&a.saliency)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    TopicTypeAnalysis {
        type_topic,
        topics_by_saliency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lda::LdaConfig;
    use sato_tabular::corpus::default_corpus;

    fn analysis() -> TopicTypeAnalysis {
        let corpus = default_corpus(200, 33);
        let estimator = TableIntentEstimator::fit(&corpus, LdaConfig::tiny());
        analyze_topics(&estimator, &corpus, 5)
    }

    #[test]
    fn every_topic_is_summarised_once() {
        let a = analysis();
        assert_eq!(a.topics_by_saliency.len(), 8);
        let mut topics: Vec<usize> = a.topics_by_saliency.iter().map(|s| s.topic).collect();
        topics.sort_unstable();
        assert_eq!(topics, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn summaries_are_sorted_by_saliency() {
        let a = analysis();
        assert!(a
            .topics_by_saliency
            .windows(2)
            .all(|w| w[0].saliency >= w[1].saliency));
        assert!(a.topics_by_saliency[0].saliency > 0.0);
    }

    #[test]
    fn top_types_are_at_most_k_and_probabilities_valid() {
        let a = analysis();
        for s in &a.topics_by_saliency {
            assert!(s.top_types.len() <= 5);
            assert!(s.top_types.iter().all(|(_, p)| (0.0..=1.0).contains(p)));
            // sorted descending
            assert!(s.top_types.windows(2).all(|w| w[0].1 >= w[1].1));
        }
    }

    #[test]
    fn type_topic_rows_are_distributions_for_observed_types() {
        let a = analysis();
        let mut observed = 0;
        for row in &a.type_topic {
            let s: f64 = row.iter().sum();
            if s > 0.0 {
                observed += 1;
                assert!(
                    (s - 1.0).abs() < 0.05,
                    "type topic distribution sums to {s}"
                );
            }
        }
        assert!(observed > 40, "only {observed} types observed in analysis");
    }
}
