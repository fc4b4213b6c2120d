//! Semantic-type co-occurrence statistics.
//!
//! Section 4.1 / Figure 6 of the paper analyse how often pairs of semantic
//! types appear in the same table, and Section 4.3 initialises the CRF's
//! pairwise potentials with a column co-occurrence matrix computed from a
//! held-out portion of the corpus. This module provides both statistics:
//! *same-table* co-occurrence (Figure 6) and *adjacent-column* co-occurrence
//! (CRF initialisation).

use crate::table::Corpus;
use crate::types::{SemanticType, NUM_TYPES};

/// A dense |T|×|T| matrix of co-occurrence counts.
#[derive(Debug, Clone, PartialEq)]
pub struct CooccurrenceMatrix {
    counts: Vec<u64>,
}

impl Default for CooccurrenceMatrix {
    fn default() -> Self {
        Self::new()
    }
}

impl CooccurrenceMatrix {
    /// An all-zero matrix.
    pub fn new() -> Self {
        CooccurrenceMatrix {
            counts: vec![0; NUM_TYPES * NUM_TYPES],
        }
    }

    /// Count same-table co-occurrences over a corpus (the statistic plotted
    /// in Figure 6). Every unordered pair of columns in a table contributes
    /// one count to both `(a, b)` and `(b, a)`; pairs of columns with the
    /// same type contribute to the diagonal, which is why the paper notes
    /// non-zero diagonal values.
    pub fn same_table(corpus: &Corpus) -> Self {
        let mut m = Self::new();
        for table in corpus.iter() {
            let labels = &table.labels;
            for i in 0..labels.len() {
                for j in (i + 1)..labels.len() {
                    m.increment(labels[i], labels[j]);
                }
            }
        }
        m
    }

    /// Count adjacent-column co-occurrences (columns `i` and `i+1`), which is
    /// what the linear-chain CRF's pairwise potentials model and what the
    /// paper uses to initialise them.
    pub fn adjacent_columns(corpus: &Corpus) -> Self {
        let mut m = Self::new();
        for table in corpus.iter() {
            for pair in table.labels.windows(2) {
                m.increment(pair[0], pair[1]);
            }
        }
        m
    }

    /// Add one symmetric co-occurrence of `(a, b)`.
    pub fn increment(&mut self, a: SemanticType, b: SemanticType) {
        let (ia, ib) = (a.index(), b.index());
        self.counts[ia * NUM_TYPES + ib] += 1;
        if ia != ib {
            self.counts[ib * NUM_TYPES + ia] += 1;
        }
    }

    /// Raw count for the pair `(a, b)`.
    pub fn count(&self, a: SemanticType, b: SemanticType) -> u64 {
        self.counts[a.index() * NUM_TYPES + b.index()]
    }

    /// Natural-log count (`ln(1 + count)`), the scale used by Figure 6 and a
    /// numerically safe initialisation for CRF pairwise potentials.
    pub fn log_count(&self, a: SemanticType, b: SemanticType) -> f64 {
        (1.0 + self.count(a, b) as f64).ln()
    }

    /// The full matrix as a dense row-major `Vec<f64>` of `ln(1 + count)`,
    /// indexed `[a * NUM_TYPES + b]`. This is the initial pairwise-potential
    /// matrix handed to the CRF.
    pub fn log_matrix(&self) -> Vec<f64> {
        self.counts.iter().map(|&c| (1.0 + c as f64).ln()).collect()
    }

    /// Total number of counted pairs (symmetric pairs counted once).
    pub fn total_pairs(&self) -> u64 {
        let mut total = 0;
        for a in 0..NUM_TYPES {
            for b in a..NUM_TYPES {
                total += self.counts[a * NUM_TYPES + b];
            }
        }
        total
    }

    /// The `k` most frequent unordered pairs of *distinct* types, descending.
    /// These are the "most frequently co-occurring pairs" the paper lists
    /// ((city, state), (age, weight), (age, name), (code, description)).
    pub fn top_pairs(&self, k: usize) -> Vec<(SemanticType, SemanticType, u64)> {
        let mut pairs = Vec::new();
        for a in 0..NUM_TYPES {
            for b in (a + 1)..NUM_TYPES {
                let c = self.counts[a * NUM_TYPES + b];
                if c > 0 {
                    pairs.push((
                        SemanticType::from_index(a).unwrap(),
                        SemanticType::from_index(b).unwrap(),
                        c,
                    ));
                }
            }
        }
        pairs.sort_by_key(|p| std::cmp::Reverse(p.2));
        pairs.truncate(k);
        pairs
    }

    /// Extract the log-scale sub-matrix for a selected list of types (the
    /// heat map of Figure 6 shows a selected subset of 28 types).
    pub fn submatrix_log(&self, types: &[SemanticType]) -> Vec<Vec<f64>> {
        types
            .iter()
            .map(|a| types.iter().map(|b| self.log_count(*a, *b)).collect())
            .collect()
    }
}

/// The selected types displayed on the axes of Figure 6 of the paper.
pub const FIGURE6_TYPES: &[SemanticType] = &[
    SemanticType::Address,
    SemanticType::Language,
    SemanticType::Component,
    SemanticType::Elevation,
    SemanticType::Company,
    SemanticType::Collection,
    SemanticType::Gender,
    SemanticType::Day,
    SemanticType::Description,
    SemanticType::Type,
    SemanticType::Rank,
    SemanticType::Year,
    SemanticType::Location,
    SemanticType::Status,
    SemanticType::City,
    SemanticType::State,
    SemanticType::County,
    SemanticType::Country,
    SemanticType::Class,
    SemanticType::Position,
    SemanticType::Code,
    SemanticType::Weight,
    SemanticType::Category,
    SemanticType::Team,
    SemanticType::Notes,
    SemanticType::Result,
    SemanticType::Age,
    SemanticType::Name,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::default_corpus;
    use crate::table::{Column, Table};

    fn small_corpus() -> Corpus {
        Corpus::new(vec![
            Table::labelled(
                0,
                vec![Column::new(["a"]), Column::new(["b"]), Column::new(["c"])],
                vec![SemanticType::City, SemanticType::State, SemanticType::City],
            ),
            Table::labelled(
                1,
                vec![Column::new(["a"]), Column::new(["b"])],
                vec![SemanticType::Age, SemanticType::Weight],
            ),
        ])
    }

    #[test]
    fn same_table_counts_are_symmetric() {
        let m = CooccurrenceMatrix::same_table(&small_corpus());
        assert_eq!(
            m.count(SemanticType::City, SemanticType::State),
            m.count(SemanticType::State, SemanticType::City)
        );
        assert_eq!(m.count(SemanticType::City, SemanticType::State), 2);
        assert_eq!(m.count(SemanticType::Age, SemanticType::Weight), 1);
        // Diagonal: city co-occurs with itself once in the first table.
        assert_eq!(m.count(SemanticType::City, SemanticType::City), 1);
    }

    #[test]
    fn adjacent_counts_only_neighbours() {
        let m = CooccurrenceMatrix::adjacent_columns(&small_corpus());
        assert_eq!(m.count(SemanticType::City, SemanticType::State), 2);
        // city and city are NOT adjacent in the first table (positions 0, 2).
        assert_eq!(m.count(SemanticType::City, SemanticType::City), 0);
    }

    #[test]
    fn log_count_is_monotone_in_count() {
        let m = CooccurrenceMatrix::same_table(&small_corpus());
        assert!(
            m.log_count(SemanticType::City, SemanticType::State)
                > m.log_count(SemanticType::Age, SemanticType::Weight)
        );
        assert_eq!(m.log_count(SemanticType::Isbn, SemanticType::Day), 0.0);
    }

    #[test]
    fn top_pairs_sorted_descending() {
        let corpus = default_corpus(1500, 6);
        let m = CooccurrenceMatrix::same_table(&corpus);
        let top = m.top_pairs(15);
        assert!(!top.is_empty());
        assert!(top.windows(2).all(|w| w[0].2 >= w[1].2));
        // The paper's flagship pair must be near the top of our corpus too.
        let city_state_rank = top.iter().position(|(a, b, _)| {
            (*a == SemanticType::City && *b == SemanticType::State)
                || (*a == SemanticType::State && *b == SemanticType::City)
        });
        assert!(
            city_state_rank.is_some(),
            "city/state not in top-15: {top:?}"
        );
    }

    #[test]
    fn submatrix_has_requested_shape() {
        let m = CooccurrenceMatrix::same_table(&small_corpus());
        let sub = m.submatrix_log(FIGURE6_TYPES);
        assert_eq!(sub.len(), FIGURE6_TYPES.len());
        assert!(sub.iter().all(|row| row.len() == FIGURE6_TYPES.len()));
    }

    #[test]
    fn log_matrix_dimensions() {
        let m = CooccurrenceMatrix::same_table(&small_corpus());
        assert_eq!(m.log_matrix().len(), NUM_TYPES * NUM_TYPES);
        assert!(m.total_pairs() >= 4);
    }
}
