//! # sato-topic
//!
//! Topic modelling substrate for the Sato reproduction: a from-scratch
//! Latent Dirichlet Allocation implementation (collapsed Gibbs sampling),
//! the table intent estimator that turns a table's values into a topic
//! vector (Section 3.2 / Figure 3 of the paper), and the topic/type saliency
//! analysis of Section 5.5.
//!
//! ```
//! use sato_tabular::corpus::default_corpus;
//! use sato_topic::{LdaConfig, TableIntentEstimator};
//!
//! let corpus = default_corpus(80, 7);
//! let estimator = TableIntentEstimator::fit(&corpus, LdaConfig::tiny());
//! let theta = estimator.estimate(&corpus.tables[0]);
//! assert_eq!(theta.len(), estimator.num_topics());
//! ```

#![warn(missing_docs)]

pub mod intent;
pub mod lda;
pub mod saliency;
pub mod sampler;
pub mod serialize;
pub mod vocab;

pub use intent::{TableIntentEstimator, TopicScratch};
pub use lda::{LdaConfig, LdaInferScratch, LdaModel};
pub use saliency::{analyze_topics, TopicSummary, TopicTypeAnalysis};
pub use sampler::{PhiTable, SamplerKind, SparseAliasTables, TopicSampler};
pub use serialize::TopicBytesError;
pub use vocab::Vocabulary;
