//! The column-wise prediction models: the Sherlock-style **Base** network
//! (Section 3.1) and its **topic-aware** extension (Section 3.2), which are
//! the same multi-input architecture with and without the additional topic
//! subnetwork.
//!
//! Architecture (following the paper): every high-dimensional feature group
//! (Char, Word, Para and, for topic-aware models, Topic) passes through its
//! own compression subnetwork; the 27 Stat features are concatenated
//! directly; the concatenation feeds a primary network of two
//! fully-connected ReLU layers with BatchNorm and Dropout, followed by a
//! 78-way output layer with softmax.
//!
//! The training and serving API surfaces are distinct: [`ColumnwiseTrainer`]
//! is the `&mut self` fitting interface, [`ColumnwiseInference`] is the
//! `&self` prediction interface, and a trained [`ColumnwiseModel`] can be
//! [frozen](ColumnwiseModel::freeze) into an immutable [`FrozenColumnwise`]
//! that drops all training-time state and serves predictions concurrently.

use crate::config::SatoConfig;
use crate::dataset::{Standardizer, TableInputs, TrainingData};
use crate::fanout::{FanOut, MAX_WORKERS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sato_features::{FeatureExtractor, FeatureGroup, FeatureScratch};
use sato_kernels::Fnv1a;
use sato_nn::layers::{BatchNorm, Dense, Dropout, Layer, ReLU};
use sato_nn::loss::{softmax_cross_entropy, softmax_in_place};
use sato_nn::network::{InferScratch, MultiInferScratch, MultiInputNetwork, Sequential};
use sato_nn::optim::Adam;
use sato_nn::serialize::{LoadError, StateDict};
use sato_nn::Matrix;
use sato_tabular::table::{Corpus, Table, TableCells};
use sato_tabular::types::{SemanticType, NUM_TYPES};
use sato_topic::{SamplerKind, TableIntentEstimator, TopicSampler, TopicScratch};
use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, PoisonError};

/// Index of the maximum probability in one row (ties resolve to the last
/// maximal entry, matching `Iterator::max_by`).
#[inline]
fn argmax_row(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Per-column hard predictions from probability rows (row-wise argmax).
pub fn types_from_proba(proba: &[Vec<f32>]) -> Vec<SemanticType> {
    proba
        .iter()
        .map(|p| SemanticType::from_index(argmax_row(p)).expect("class index in range"))
        .collect()
}

/// Per-column hard predictions from a row range of a flat probability
/// matrix — the batched counterpart of [`types_from_proba`].
pub(crate) fn types_from_rows(proba: &Matrix, start: usize, end: usize) -> Vec<SemanticType> {
    (start..end)
        .map(|r| SemanticType::from_index(argmax_row(proba.row(r))).expect("class index in range"))
        .collect()
}

/// The `&self` **inference** interface of a single-column (column-wise)
/// predictor: the pluggable slot of Sato's extensible architecture (the
/// paper swaps the Sherlock model for BERT in Section 6 without touching the
/// rest). Everything here is read-only, so a trained predictor can be shared
/// across threads.
pub trait ColumnwiseInference {
    /// Per-column class probabilities for every column of `table`
    /// (each inner vector has [`NUM_TYPES`] entries summing to one).
    fn predict_proba(&self, table: &Table) -> Vec<Vec<f32>>;

    /// Per-column hard predictions.
    fn predict_types(&self, table: &Table) -> Vec<SemanticType> {
        types_from_proba(&self.predict_proba(table))
    }
}

/// The `&mut self` **training** interface of a column-wise predictor,
/// deliberately separate from [`ColumnwiseInference`]: fitting mutates
/// (optimiser state, activation caches, RNG streams), serving must not.
pub trait ColumnwiseTrainer {
    /// Train on a labelled corpus, returning the per-epoch loss history.
    fn fit(&mut self, corpus: &Corpus) -> &[f32];
}

/// Build the Sherlock/Sato multi-input network (branch subnetworks + primary
/// trunk) and its classification head for the given feature-group widths.
///
/// Shared by training (fresh random weights that are then fitted) and by
/// predictor deserialization (fresh weights immediately overwritten by a
/// state dict), so both paths agree on the architecture.
pub(crate) fn build_network(
    config: &SatoConfig,
    widths: &[usize],
) -> (MultiInputNetwork, Sequential) {
    let cfg = &config.network;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut branches = Vec::new();
    let mut concat_dim = 0usize;
    // Branch order mirrors TrainingData: Char, Word, Para, Stat [, Topic].
    for (i, &w) in widths.iter().enumerate() {
        let is_stat = i == FeatureGroup::ALL.len() - 1; // Stat is the 4th group
        if is_stat {
            branches.push(Sequential::new());
            concat_dim += w;
        } else {
            branches.push(
                Sequential::new()
                    .push(Dense::new(w, cfg.subnetwork_dim, &mut rng))
                    .push(ReLU::new())
                    .push(Dropout::new(
                        cfg.dropout,
                        StdRng::seed_from_u64(config.seed ^ (i as u64 + 1)),
                    )),
            );
            concat_dim += cfg.subnetwork_dim;
        }
    }
    let trunk = Sequential::new()
        .push(Dense::new(concat_dim, cfg.hidden_dim, &mut rng))
        .push(ReLU::new())
        .push(BatchNorm::new(cfg.hidden_dim))
        .push(Dropout::new(
            cfg.dropout,
            StdRng::seed_from_u64(config.seed ^ 0x100),
        ))
        .push(Dense::new(cfg.hidden_dim, cfg.hidden_dim, &mut rng))
        .push(ReLU::new())
        .push(BatchNorm::new(cfg.hidden_dim))
        .push(Dropout::new(
            cfg.dropout,
            StdRng::seed_from_u64(config.seed ^ 0x200),
        ));
    let head = Sequential::new().push(Dense::new(cfg.hidden_dim, NUM_TYPES, &mut rng));
    (MultiInputNetwork::new(branches, trunk), head)
}

/// The Sherlock/Sato column-wise neural model (training-capable).
pub struct ColumnwiseModel {
    config: SatoConfig,
    use_topic: bool,
    extractor: FeatureExtractor,
    /// The table intent estimator with its dense sampler, both built when
    /// a topic-aware model is trained.
    topic: Option<(TableIntentEstimator, TopicSampler)>,
    /// Branch subnetworks + primary trunk (everything up to the last hidden
    /// representation, i.e. the *column embedding* of Section 5.6).
    net: Option<MultiInputNetwork>,
    /// Final classification layer on top of the trunk.
    head: Option<Sequential>,
    /// Per-group feature standardizers fitted on the training data.
    scalers: Vec<Standardizer>,
    group_widths: Vec<usize>,
    loss_history: Vec<f32>,
}

impl ColumnwiseModel {
    /// Create an untrained Base model (no topic subnetwork).
    pub fn base(config: SatoConfig) -> Self {
        Self::new(config, false)
    }

    /// Create an untrained topic-aware model.
    pub fn topic_aware(config: SatoConfig) -> Self {
        Self::new(config, true)
    }

    fn new(config: SatoConfig, use_topic: bool) -> Self {
        let extractor = FeatureExtractor::new(config.features.clone());
        ColumnwiseModel {
            config,
            use_topic,
            extractor,
            topic: None,
            net: None,
            head: None,
            scalers: Vec::new(),
            group_widths: Vec::new(),
            loss_history: Vec::new(),
        }
    }

    /// Whether this model uses the table topic vector (global context).
    pub fn uses_topic(&self) -> bool {
        self.use_topic
    }

    /// Whether the model has been trained.
    pub fn is_trained(&self) -> bool {
        self.net.is_some()
    }

    /// Mean training loss per epoch (available after [`ColumnwiseTrainer::fit`]).
    pub fn loss_history(&self) -> &[f32] {
        &self.loss_history
    }

    /// The feature extractor used by this model.
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// The table intent estimator (present after training a topic-aware model).
    pub fn intent_estimator(&self) -> Option<&TableIntentEstimator> {
        self.topic.as_ref().map(|(est, _)| est)
    }

    /// Extract the network inputs for a table (features + topic vector).
    /// Exposed so the permutation-importance experiment can shuffle feature
    /// groups before calling [`Self::predict_proba_from_inputs`].
    pub fn extract_inputs(&self, table: &Table) -> TableInputs {
        TableInputs::extract(table, &self.extractor, pair(&self.topic))
    }

    /// Immutable forward pass (evaluation mode) on pre-extracted inputs,
    /// returning the per-column probability rows.
    pub fn predict_proba_from_inputs(&self, inputs: &TableInputs) -> Vec<Vec<f32>> {
        let net = self.net.as_ref().expect("model must be trained first");
        let head = self.head.as_ref().expect("model must be trained first");
        infer_proba(net, head, &self.scalers, self.use_topic, inputs)
    }

    /// Column embeddings (the final hidden representation before the output
    /// layer), used by the Col2Vec analysis of Section 5.6 / Figure 10.
    pub fn column_embeddings(&self, table: &Table) -> Vec<Vec<f32>> {
        let inputs = self.extract_inputs(table);
        let net = self.net.as_ref().expect("model must be trained first");
        infer_embeddings(net, &self.scalers, self.use_topic, &inputs)
    }

    /// Snapshot the trained model into an immutable [`FrozenColumnwise`]
    /// without consuming it (parameters and running statistics are copied).
    ///
    /// Panics if the model has not been trained.
    pub fn freeze(&self) -> FrozenColumnwise {
        let net = self.net.as_ref().expect("model must be trained first");
        let head = self.head.as_ref().expect("model must be trained first");
        FrozenColumnwise::from_state(
            &self.config,
            self.use_topic,
            self.intent_estimator().cloned(),
            self.scalers.clone(),
            self.group_widths.clone(),
            &net.state_dict(),
            &head.state_dict(),
            SamplerKind::Dense,
            None,
        )
        .expect("snapshot of an identical architecture cannot fail")
    }

    /// Consume the trained model into an immutable [`FrozenColumnwise`],
    /// moving the network weights instead of copying them.
    ///
    /// Panics if the model has not been trained.
    pub fn into_frozen(self) -> FrozenColumnwise {
        let net = self.net.expect("model must be trained first");
        let head = self.head.expect("model must be trained first");
        FrozenColumnwise {
            use_topic: self.use_topic,
            extractor: self.extractor,
            topic: self.topic,
            net,
            head,
            scalers: self.scalers,
            group_widths: self.group_widths,
            sampler_kind: SamplerKind::Dense,
        }
    }
}

impl ColumnwiseTrainer for ColumnwiseModel {
    /// Train on a labelled corpus. For topic-aware models the table intent
    /// estimator (LDA) is pre-trained on the same corpus first, using only
    /// cell values.
    fn fit(&mut self, corpus: &Corpus) -> &[f32] {
        if self.use_topic {
            let estimator = TableIntentEstimator::fit(corpus, self.config.lda.clone());
            let dense = estimator.build_sampler(SamplerKind::Dense);
            self.topic = Some((estimator, dense));
        }
        let mut data = TrainingData::build(corpus, &self.extractor, pair(&self.topic));
        assert!(!data.is_empty(), "cannot train on an empty corpus");
        // Standardise every feature group (Sherlock-style preprocessing); the
        // fitted scalers are reused at prediction time.
        self.scalers = Standardizer::fit_groups(&data.groups);
        data.groups = Standardizer::transform_groups(&self.scalers, &data.groups);
        let widths = data.group_widths();
        let (net, head) = build_network(&self.config, &widths);
        self.net = Some(net);
        self.head = Some(head);
        self.group_widths = widths;
        let net = self.net.as_mut().expect("network just built");
        let head = self.head.as_mut().expect("head just built");

        let cfg = &self.config.network;
        let mut adam = Adam::new(cfg.learning_rate, cfg.weight_decay);
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xbeef);
        let mut indices: Vec<usize> = (0..data.len()).collect();
        self.loss_history.clear();

        for _epoch in 0..cfg.epochs {
            indices.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for batch_idx in indices.chunks(cfg.batch_size) {
                let (groups, labels) = data.batch(batch_idx);
                let embedding = net.forward(&groups, true);
                let logits = head.forward(&embedding, true);
                let out = softmax_cross_entropy(&logits, &labels);
                let grad_embed = head.backward(&out.grad_logits);
                net.backward(&grad_embed);
                let mut params = net.params_mut();
                params.extend(head.params_mut());
                adam.step(&mut params);
                epoch_loss += out.loss;
                batches += 1;
            }
            self.loss_history.push(epoch_loss / batches.max(1) as f32);
        }
        &self.loss_history
    }
}

impl ColumnwiseInference for ColumnwiseModel {
    fn predict_proba(&self, table: &Table) -> Vec<Vec<f32>> {
        let inputs = self.extract_inputs(table);
        self.predict_proba_from_inputs(&inputs)
    }
}

/// Evaluation-mode forward pass to per-column probability rows, shared by
/// the live [`ColumnwiseModel`] and its [`FrozenColumnwise`] snapshot's
/// unbatched reference path so the two cannot drift apart.
fn infer_proba(
    net: &MultiInputNetwork,
    head: &Sequential,
    scalers: &[Standardizer],
    use_topic: bool,
    inputs: &TableInputs,
) -> Vec<Vec<f32>> {
    if inputs.columns.is_empty() {
        return Vec::new();
    }
    let groups = inputs.to_matrices(use_topic);
    let groups = Standardizer::transform_groups(scalers, &groups);
    let embedding = net.infer(&groups);
    let mut probs = head.infer(&embedding);
    softmax_in_place(&mut probs);
    row_vecs(&probs)
}

/// Evaluation-mode forward pass to column embeddings (the final hidden
/// representation before the output layer); see [`infer_proba`].
fn infer_embeddings(
    net: &MultiInputNetwork,
    scalers: &[Standardizer],
    use_topic: bool,
    inputs: &TableInputs,
) -> Vec<Vec<f32>> {
    if inputs.columns.is_empty() {
        return Vec::new();
    }
    let groups = inputs.to_matrices(use_topic);
    let groups = Standardizer::transform_groups(scalers, &groups);
    row_vecs(&net.infer(&groups))
}

/// The rows of a matrix as owned vectors.
pub(crate) fn row_vecs(m: &Matrix) -> Vec<Vec<f32>> {
    (0..m.rows()).map(|r| m.row(r).to_vec()).collect()
}

/// Default capacity (entries) of the topic memo enabled by
/// [`ServingScratch::with_topic_memo`].
pub const DEFAULT_TOPIC_MEMO_CAPACITY: usize = 4096;

/// Token ids the memo may hold per entry of its capacity, on average: a
/// memo of capacity `c` stores at most `c * MEMO_TOKENS_PER_ENTRY` ids in
/// total, so a few wide tables cannot pin an unbounded amount of memory.
const MEMO_TOKENS_PER_ENTRY: usize = 256;

/// The memo key of an encoded table: FNV-1a-64 over its token ids, each
/// as the four little-endian bytes the memo stores it in. An id that does
/// not fit in `u32` is never stored, so truncating it here can only cause
/// a miss.
fn token_key(ids: &[usize]) -> u64 {
    let mut hash = Fnv1a::new();
    for &id in ids {
        hash.write(&(id as u32).to_le_bytes());
    }
    hash.finish()
}

/// One memoised topic vector with the token ids it was inferred from.
struct MemoEntry {
    ids: Box<[u32]>,
    theta: Box<[f32]>,
}

/// A table a fill worker estimated while the memo was on, kept until the
/// fill is over and then inserted: its key and its token ids.
struct Fresh {
    key: u64,
    ids: Box<[u32]>,
}

/// Bounded topic cache keyed by a table's **encoded token ids**: a hash map
/// from the ids' FNV-1a-64 key to the ids and their topic vector, plus an
/// insertion-order queue. A topic vector is a function of the token ids,
/// the model's fixed inference seed and the artifact's sampler alone, so a
/// hit replays exactly what inference would compute — whatever the table's
/// id, letter case or out-of-vocabulary cells. A hit also requires equal
/// ids, so two sequences under one key (a hash collision) miss rather than
/// replay each other's vector.
///
/// Memory is bounded twice: by entry count and by the total number of
/// stored token ids. When an insert exceeds either, the **oldest
/// inserted** entries are evicted (FIFO — O(1), deterministic, no recency
/// bookkeeping on the hit path) until both hold. A table with no tokens
/// (its vector is the uniform one, cheap to infer) or with more tokens
/// than the whole budget is never stored.
struct TopicMemo {
    map: HashMap<u64, MemoEntry>,
    order: VecDeque<u64>,
    capacity: usize,
    /// Upper bound on `stored_tokens`.
    token_budget: usize,
    /// Token ids held across all entries.
    stored_tokens: usize,
    /// The key function: [`token_key`] except in collision tests.
    key: fn(&[usize]) -> u64,
    /// Content hash of the artifact whose topic vectors are cached here
    /// (`None` until the first serve). The same token ids yield different
    /// topics under different artifacts, so entries cached under another
    /// artifact are cleared rather than replayed (see
    /// [`ServingScratch::bind_artifact`]).
    artifact: Option<u64>,
}

impl TopicMemo {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TopicMemo {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            token_budget: capacity.saturating_mul(MEMO_TOKENS_PER_ENTRY),
            stored_tokens: 0,
            key: token_key,
            artifact: None,
        }
    }

    /// The topic vector stored for exactly these token ids.
    fn get(&self, key: u64, ids: &[usize]) -> Option<&[f32]> {
        self.map
            .get(&key)
            .filter(|entry| {
                entry.ids.len() == ids.len()
                    && entry.ids.iter().zip(ids).all(|(&a, &b)| a as usize == b)
            })
            .map(|entry| &*entry.theta)
    }

    /// Look up the table a fill worker just encoded into `scratch`. On a
    /// hit, copy its topic vector into `theta` and return `true`. On a
    /// miss, leave the table's key and ids in `fresh` if the memo would
    /// store them, and return `false`.
    fn recall(
        &self,
        scratch: &mut FillScratch,
        theta: &mut [f32],
        fresh: &mut Option<Fresh>,
    ) -> bool {
        let ids = scratch.topic.tokens();
        let key = (self.key)(ids);
        if let Some(hit) = self.get(key, ids) {
            theta.copy_from_slice(hit);
            scratch.memo_hits += 1;
            return true;
        }
        scratch.memo_misses += 1;
        if !ids.is_empty() && ids.len() <= self.token_budget {
            *fresh = ids
                .iter()
                .map(|&id| u32::try_from(id).ok())
                .collect::<Option<_>>()
                .map(|ids| Fresh { key, ids });
        }
        false
    }

    /// Store `theta` for `fresh`'s ids (which [`Self::recall`] admitted),
    /// then evict the oldest entries until both bounds hold. An occupied
    /// key keeps its entry: it holds either the same ids (the table
    /// appeared twice in one batch) or colliding ones, which keep missing.
    fn insert(&mut self, fresh: Fresh, theta: &[f32]) {
        let Fresh { key, ids } = fresh;
        if self.map.contains_key(&key) {
            return;
        }
        self.stored_tokens += ids.len();
        let theta = theta.into();
        self.map.insert(key, MemoEntry { ids, theta });
        self.order.push_back(key);
        while self.map.len() > self.capacity || self.stored_tokens > self.token_budget {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if let Some(entry) = self.map.remove(&oldest) {
                self.stored_tokens -= entry.ids.len();
            }
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.stored_tokens = 0;
    }
}

/// The reference model the memo tests check a memo of `capacity` against:
/// `held` (oldest first) after one batch of tables with the token ids in
/// `batch`. Hits are judged against the memo as it stood before the batch;
/// the misses are then stored in table order, except empty sequences, ones
/// over the token budget and ones already held, each insert evicting the
/// oldest entries until both bounds hold. Returns the batch's hits and
/// misses.
#[cfg(test)]
pub(crate) fn model_topic_memo(
    held: &mut Vec<Vec<usize>>,
    capacity: usize,
    batch: &[Vec<usize>],
) -> (u64, u64) {
    let capacity = capacity.max(1);
    let budget = capacity * MEMO_TOKENS_PER_ENTRY;
    let misses: Vec<&Vec<usize>> = batch.iter().filter(|ids| !held.contains(ids)).collect();
    let counts = ((batch.len() - misses.len()) as u64, misses.len() as u64);
    for ids in misses {
        if ids.is_empty() || ids.len() > budget || held.contains(ids) {
            continue;
        }
        held.push(ids.clone());
        while held.len() > capacity || held.iter().map(Vec::len).sum::<usize>() > budget {
            held.remove(0);
        }
    }
    counts
}

/// One fill worker's workspace: the feature and topic buffers it extracts
/// with.
#[derive(Default)]
struct FillScratch {
    features: FeatureScratch,
    /// Streaming table-topic estimation workspace (token ids, token buffer,
    /// Gibbs-inference buffers — including the sparse-sampler structures).
    topic: TopicScratch,
    /// Tables this worker found in the topic memo, cumulative.
    memo_hits: u64,
    /// Tables this worker estimated while the memo was on, cumulative.
    memo_misses: u64,
}

impl FillScratch {
    /// Grow every buffer to at least the capacity of the same buffer in
    /// `other`.
    fn grow_to(&mut self, other: &FillScratch) {
        self.features.grow_to(&other.features);
        self.topic.grow_to(&other.topic);
    }
}

/// Reusable workspace for the corpus-batched serving path: feature
/// extraction buffers, per-group batch input matrices, the network's
/// ping-pong activation buffers, the flat probability matrix and the CRF
/// unary buffer. One scratch serves any number of micro-batches; after the
/// first batch has warmed the buffers, a batch's only steady-state
/// allocations are its per-table outputs.
///
/// For a topic-aware model, the tables of a batch of two or more are
/// filled on several cores at once. The scratch owns one parked helper
/// thread per extra core (`std::thread::available_parallelism`, which
/// honours the affinity mask and the cgroup CPU quota, queried once per
/// scratch). The helpers are started by the first batch that uses them,
/// park between batches, and are joined when the scratch is dropped. A
/// process pinned to one core, a single-table batch and a model without
/// topics all stay on the calling thread. Outputs are bit-identical either
/// way: every table's topic chain runs from the model's fixed inference
/// seed.
#[derive(Default)]
pub struct ServingScratch {
    /// One fill workspace per worker; the calling thread fills with the
    /// first.
    fill: Vec<FillScratch>,
    /// The last batch's topic vectors, `num_topics` floats per table in
    /// batch order.
    thetas: Vec<f32>,
    /// One slot per table of the batch, beside `thetas`: the key and token
    /// ids of a table estimated while the memo was on, inserted once the
    /// fill is over.
    fresh: Vec<Option<Fresh>>,
    /// Opt-in bounded memo of encoded tokens → topic vector (see
    /// [`Self::with_topic_memo`]).
    topic_memo: Option<TopicMemo>,
    /// The helper threads that fill a batch next to the calling thread.
    fanout: FanOut,
    net: MultiInferScratch,
    head: InferScratch,
    groups: Vec<Matrix>,
    /// Row-major column embeddings of the last batch (one row per column
    /// across all tables of the batch; the head reads it, never writes it).
    pub(crate) embedding: Matrix,
    /// Flat row-major probability matrix of the last batch (one row per
    /// column across all tables of the batch).
    pub(crate) probs: Matrix,
    /// Flat unary-potential buffer for CRF decoding.
    pub(crate) unary: Vec<f64>,
}

impl ServingScratch {
    /// A fresh workspace with empty (but growable) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable the topic memo with the default capacity
    /// ([`DEFAULT_TOPIC_MEMO_CAPACITY`] entries): the topic vector of every
    /// table is cached in this scratch under the table's encoded token ids
    /// and reused whenever a table that encodes to the same ids is served
    /// again, skipping the (comparatively expensive) LDA Gibbs inference —
    /// the common shape of a serving loop that sees the same cells more
    /// than once.
    ///
    /// A hit is bit-identical to inference by construction: the topic
    /// vector depends only on the token ids, the model's fixed inference
    /// seed and the artifact's sampler, a hit requires equal ids (not just
    /// an equal hash), and every batched entry point binds the memo to the
    /// serving predictor's content hash first, clearing entries cached under
    /// a different artifact (hot-swap, or one scratch shared across
    /// predictors).
    pub fn with_topic_memo(self) -> Self {
        self.with_topic_memo_capacity(DEFAULT_TOPIC_MEMO_CAPACITY)
    }

    /// [`Self::with_topic_memo`] with an explicit capacity in entries
    /// (clamped to at least 1); the memo also holds at most 256 token ids
    /// per entry of capacity in total. When an insert exceeds either bound,
    /// the oldest *inserted* entries are evicted (FIFO), bounding memory on
    /// long-lived serving loops that see an unbounded stream of distinct
    /// tables; evicted tables are simply re-estimated on their next serve.
    pub fn with_topic_memo_capacity(mut self, capacity: usize) -> Self {
        self.topic_memo = Some(TopicMemo::new(capacity));
        self
    }

    /// Number of topic vectors currently memoised (0 when the memo is
    /// disabled).
    pub fn topic_memo_len(&self) -> usize {
        self.topic_memo.as_ref().map_or(0, |m| m.map.len())
    }

    /// The memo's entry capacity (0 when the memo is disabled).
    pub fn topic_memo_capacity(&self) -> usize {
        self.topic_memo.as_ref().map_or(0, |m| m.capacity)
    }

    /// Tables whose topic vector this scratch took from the memo, since it
    /// was created.
    pub fn topic_memo_hits(&self) -> u64 {
        self.fill.iter().map(|f| f.memo_hits).sum()
    }

    /// Tables whose topic vector this scratch estimated while the memo was
    /// on, since it was created (0 when the memo is disabled).
    pub fn topic_memo_misses(&self) -> u64 {
        self.fill.iter().map(|f| f.memo_misses).sum()
    }

    /// Pin the fan-out width instead of querying the host, so unit tests
    /// cover every width on any machine.
    #[cfg(test)]
    pub(crate) fn with_fill_width(mut self, width: usize) -> Self {
        self.fanout.set_width(width);
        self
    }

    /// Number of fan-out helper threads this scratch has started.
    #[cfg(test)]
    pub(crate) fn fill_helpers(&self) -> usize {
        self.fanout.helpers()
    }

    /// The memoised token id sequences, oldest insertion first.
    #[cfg(test)]
    pub(crate) fn topic_memo_order(&self) -> Vec<Vec<usize>> {
        self.topic_memo.as_ref().map_or_else(Vec::new, |m| {
            m.order
                .iter()
                .map(|key| m.map[key].ids.iter().map(|&id| id as usize).collect())
                .collect()
        })
    }

    /// Token ids held across all memo entries, and the memo's budget for
    /// them.
    #[cfg(test)]
    pub(crate) fn topic_memo_tokens(&self) -> (usize, usize) {
        self.topic_memo
            .as_ref()
            .map_or((0, 0), |m| (m.stored_tokens, m.token_budget))
    }

    /// Replace the memo's key function, so a test can force two token
    /// sequences under one key.
    #[cfg(test)]
    pub(crate) fn with_topic_memo_key(mut self, key: fn(&[usize]) -> u64) -> Self {
        if let Some(memo) = &mut self.topic_memo {
            memo.key = key;
        }
        self
    }

    /// The column embeddings of the **last batch** run through this
    /// scratch: one row per column, table after table in batch order (the
    /// final hidden representation before the output layer). Valid after
    /// any batched entry point — `SatoPredictor::predict_batch` computes
    /// them on the way to its probabilities, so an annotate-and-index
    /// pipeline reads them here without a second forward pass. An empty
    /// batch leaves a 0-row matrix.
    pub fn embeddings(&self) -> &Matrix {
        &self.embedding
    }

    /// Bind the topic memo to the artifact identified by `content_hash`
    /// (called by every batched serving entry point before a batch runs):
    /// entries cached under a **different** artifact are cleared, so a
    /// scratch that outlives a hot-swap — the long-lived worker shape of
    /// `sato-serve` — re-estimates every table under the new artifact
    /// instead of replaying the old one's stale topic vectors. No-op when
    /// the memo is disabled or already bound to this artifact.
    pub(crate) fn bind_artifact(&mut self, content_hash: u64) {
        if let Some(memo) = &mut self.topic_memo {
            if memo.artifact != Some(content_hash) {
                memo.clear();
                memo.artifact = Some(content_hash);
            }
        }
    }
}

/// Input groups of a batch: the four feature groups, then the topic group
/// of topic-aware models.
const GROUPS: usize = FeatureGroup::ALL.len() + 1;

/// One row slice per input group (the topic slice stays empty for models
/// without topics).
type GroupRows<'a> = [&'a mut [f32]; GROUPS];

/// Borrow an owned (estimator, sampler) pair.
fn pair(
    topic: &Option<(TableIntentEstimator, TopicSampler)>,
) -> Option<(&TableIntentEstimator, &TopicSampler)> {
    topic.as_ref().map(|(est, sampler)| (est, sampler))
}

/// Row `row` of a row-major slice `w` floats wide.
fn row_of(rows: &mut [f32], row: usize, w: usize) -> &mut [f32] {
    &mut rows[row * w..(row + 1) * w]
}

/// One table taken by a fill worker: the table, its input rows, its
/// topic-vector slot and its memo slot.
type Taken<'a, T> = (&'a T, GroupRows<'a>, &'a mut [f32], &'a mut Option<Fresh>);

/// The tables of a batch not yet taken by a fill worker, with the input
/// rows, topic-vector slot and memo slot of each. Workers take the next
/// table one at a time, so a worker that runs slower (a wide table, or a
/// core shared with another process) simply takes fewer tables.
struct Pending<'a, T: ?Sized> {
    tables: &'a [&'a T],
    rows: GroupRows<'a>,
    thetas: &'a mut [f32],
    fresh: &'a mut [Option<Fresh>],
}

impl<'a, T: TableCells + ?Sized> Pending<'a, T> {
    /// Take the next table with its row slices (`widths` floats per row
    /// and group), its `k`-float topic slot and its memo slot.
    fn take(&mut self, widths: &[usize], k: usize) -> Option<Taken<'a, T>> {
        let (&table, tables) = self.tables.split_first()?;
        self.tables = tables;
        let mut rows: GroupRows<'a> = Default::default();
        for ((slot, left), &w) in rows.iter_mut().zip(&mut self.rows).zip(widths) {
            let (head, tail) = std::mem::take(left).split_at_mut(table.cell_columns() * w);
            *slot = head;
            *left = tail;
        }
        let (theta, thetas) = std::mem::take(&mut self.thetas).split_at_mut(k);
        self.thetas = thetas;
        let (fresh, rest) = std::mem::take(&mut self.fresh).split_first_mut()?;
        self.fresh = rest;
        Some((table, rows, theta, fresh))
    }
}

/// The immutable, `Send + Sync` inference core of a trained column-wise
/// model: feature extractor, optional topic estimator, fitted standardizers
/// and the network weights — and nothing else. No optimiser state, no
/// activation caches, no RNG; every method takes `&self`.
pub struct FrozenColumnwise {
    use_topic: bool,
    extractor: FeatureExtractor,
    /// The table intent estimator with the ready-to-run sampling strategy,
    /// pre-built from `sampler_kind` against the estimator's frozen model
    /// at freeze/load time.
    topic: Option<(TableIntentEstimator, TopicSampler)>,
    net: MultiInputNetwork,
    head: Sequential,
    scalers: Vec<Standardizer>,
    group_widths: Vec<usize>,
    /// The configured topic-sampler axis (serialized into artifacts; moot
    /// for models without a topic estimator).
    sampler_kind: SamplerKind,
}

impl FrozenColumnwise {
    /// Whether the frozen model consumes the table topic vector.
    pub fn uses_topic(&self) -> bool {
        self.use_topic
    }

    /// The table intent estimator (present for topic-aware models).
    pub fn intent_estimator(&self) -> Option<&TableIntentEstimator> {
        self.topic.as_ref().map(|(est, _)| est)
    }

    /// The configured topic-sampler variant.
    pub fn sampler_kind(&self) -> SamplerKind {
        self.sampler_kind
    }

    /// The pre-built sampling strategy serving inference runs with.
    ///
    /// # Panics
    ///
    /// For a model without a table intent estimator ([`Self::intent_estimator`]
    /// is `None`), which has no topic stage to sample for.
    pub fn sampler(&self) -> &TopicSampler {
        self.topic_sampler()
            .expect("only a model with a table intent estimator has a topic sampler")
    }

    /// The pre-built sampling strategy, for models with an intent
    /// estimator.
    pub(crate) fn topic_sampler(&self) -> Option<&TopicSampler> {
        self.topic.as_ref().map(|(_, sampler)| sampler)
    }

    /// Reconfigure the topic-sampler axis, rebuilding whatever pre-computed
    /// state the strategy needs (per-word alias tables for
    /// [`SamplerKind::SparseAlias`] and [`SamplerKind::MetropolisHastings`])
    /// from the frozen intent model. For models without a topic estimator
    /// the kind is recorded (and serialized) but has no effect on
    /// predictions.
    pub(crate) fn with_sampler_kind(mut self, kind: SamplerKind) -> Self {
        self.sampler_kind = kind;
        if let Some((est, sampler)) = &mut self.topic {
            *sampler = est.build_sampler(kind);
        }
        self
    }

    /// The per-group input widths the network was trained with.
    pub fn group_widths(&self) -> &[usize] {
        &self.group_widths
    }

    /// Extract the network inputs for a table (features + topic vector,
    /// estimated with the configured sampler).
    ///
    /// With [`Self::predict_proba_from_inputs`] this is the **unbatched
    /// reference** path: one table at a time, through owned per-column
    /// vectors. Serving never takes it; it exists for permutation
    /// importance (which shuffles the extracted groups), for layer-by-layer
    /// replays, and as the oracle the batched core is checked against.
    pub fn extract_inputs(&self, table: &Table) -> TableInputs {
        TableInputs::extract(table, &self.extractor, pair(&self.topic))
    }

    /// Evaluation-mode forward pass on pre-extracted inputs (the unbatched
    /// reference; see [`Self::extract_inputs`]).
    pub fn predict_proba_from_inputs(&self, inputs: &TableInputs) -> Vec<Vec<f32>> {
        infer_proba(&self.net, &self.head, &self.scalers, self.use_topic, inputs)
    }

    /// Column embeddings from pre-extracted inputs: the unbatched
    /// reference of [`Self::embed_batch_cells`].
    #[cfg(test)]
    pub(crate) fn embeddings_from_inputs(&self, inputs: &TableInputs) -> Vec<Vec<f32>> {
        infer_embeddings(&self.net, &self.scalers, self.use_topic, inputs)
    }

    /// Run the column-wise network over **many tables at once**: every
    /// column of every table becomes one row of one input matrix per feature
    /// group, the network runs a single forward pass, and
    /// `scratch.probs` ends up holding one probability row per column, table
    /// after table in order.
    ///
    /// Row-major batching is exact: every stage of the eval-mode pipeline
    /// (standardisation, dense layers, ReLU, BatchNorm running statistics,
    /// softmax) operates row-independently, so the batch output is
    /// bit-identical to per-table inference.
    ///
    /// Generic over any [`TableCells`] source — the seam that lets the
    /// colstore serving path feed decoded frames straight into the batched
    /// network without materializing `Table`s. Cells visit in the identical
    /// column/row order for every source, so the probability rows are
    /// bit-identical across sources describing the same table.
    pub(crate) fn infer_batch_cells<T: TableCells + ?Sized>(
        &self,
        tables: &[&T],
        scratch: &mut ServingScratch,
    ) {
        if !self.fill_batch_groups(tables, scratch) {
            scratch.embedding.resize(0, 0);
            scratch.probs.resize(0, NUM_TYPES);
            return;
        }
        self.net
            .infer_with(&scratch.groups, &mut scratch.net, &mut scratch.embedding);
        self.head
            .infer_with(&scratch.embedding, &mut scratch.head, &mut scratch.probs);
        softmax_in_place(&mut scratch.probs);
    }

    /// Run the batched pipeline only as far as the **column embeddings**
    /// (the final hidden representation before the output layer;
    /// Section 5.6 / Figure 10): identical feature extraction, topic
    /// estimation, standardisation and network trunk as
    /// [`Self::infer_batch_cells`], but the classification head and
    /// softmax never run. `scratch.embedding` ends up holding one
    /// embedding row per column, table after table in order.
    pub(crate) fn embed_batch_cells<T: TableCells + ?Sized>(
        &self,
        tables: &[&T],
        scratch: &mut ServingScratch,
    ) {
        if !self.fill_batch_groups(tables, scratch) {
            scratch.embedding.resize(0, 0);
            return;
        }
        self.net
            .infer_with(&scratch.groups, &mut scratch.net, &mut scratch.embedding);
    }

    /// Fill `scratch.groups` with one input-matrix row per column across
    /// all `tables` (the shared front half of [`Self::infer_batch_cells`]
    /// and [`Self::embed_batch_cells`]), then standardize in place.
    /// Returns `false` — leaving the group matrices untouched — when the
    /// batch carries no columns at all.
    ///
    /// Topic-aware batches of two or more tables are filled by several
    /// workers at once (see [`ServingScratch`]): the calling thread and the
    /// scratch's helpers take tables one at a time, each writing its
    /// table's own rows. The topic memo is read-only while they run; each
    /// miss leaves its token ids in the table's slot, and the misses are
    /// inserted afterwards in table order, so the memo ends up exactly as a
    /// one-worker fill leaves it.
    fn fill_batch_groups<T: TableCells + ?Sized>(
        &self,
        tables: &[&T],
        scratch: &mut ServingScratch,
    ) -> bool {
        let widths = &self.group_widths;
        let total_rows: usize = tables.iter().map(|t| t.cell_columns()).sum();
        if total_rows == 0 {
            return false;
        }
        let ServingScratch {
            fill,
            thetas,
            fresh,
            topic_memo,
            fanout,
            groups,
            ..
        } = scratch;
        groups.resize_with(widths.len(), Matrix::default);
        for (group, &w) in groups.iter_mut().zip(widths) {
            group.resize(total_rows, w);
        }
        let topic = self.topic();
        let k = topic.map_or(0, |(est, _)| est.num_topics());
        thetas.resize(tables.len() * k, 0.0);
        fresh.clear();
        fresh.resize_with(tables.len(), || None);

        // Estimating topics is most of a batch's cost; features alone are
        // too cheap to pay for waking a helper.
        let workers = match topic {
            Some(_) if tables.len() >= 2 => fanout.width().min(tables.len()),
            _ => 1,
        };
        if fill.len() < workers {
            fill.resize_with(workers, FillScratch::default);
        }
        let mut rows: GroupRows = Default::default();
        for (slot, group) in rows.iter_mut().zip(groups.iter_mut()) {
            *slot = group.data_mut();
        }
        let pending = Mutex::new(Pending {
            tables,
            rows,
            thetas: &mut thetas[..],
            fresh: &mut fresh[..],
        });
        let memo = topic_memo.as_ref();
        if workers == 1 {
            self.fill_pending(&pending, memo, &mut fill[0]);
        } else {
            // One job per worker, each with its own fill scratch; the jobs
            // share one closure type so they fit a fixed array, and only
            // the first `workers` run.
            let mut scratches = fill.iter_mut();
            let mut jobs: [_; MAX_WORKERS] = std::array::from_fn(|_| {
                let (pending, mut scratch) = (&pending, scratches.next());
                move || {
                    if let Some(scratch) = &mut scratch {
                        self.fill_pending(pending, memo, scratch);
                    }
                }
            });
            fanout.run(&mut jobs[..workers]);
            // Workers take tables dynamically, so each one's buffers grew
            // only to fit the tables it happened to take. Grow them all to
            // the largest any worker reached: once a batch has run warm,
            // whichever worker takes one of its tables finds room for it.
            let (first, rest) = fill.split_first_mut().expect("one scratch per worker");
            for other in rest.iter() {
                first.grow_to(other);
            }
            for other in rest {
                other.grow_to(first);
            }
        }

        if let Some(memo) = topic_memo.as_mut().filter(|_| k > 0) {
            for (slot, theta) in fresh.iter_mut().zip(thetas.chunks_exact(k)) {
                if let Some(table) = slot.take() {
                    memo.insert(table, theta);
                }
            }
        }
        for (scaler, group) in self.scalers.iter().zip(groups.iter_mut()) {
            scaler.transform_in_place(group);
        }
        true
    }

    /// The intent estimator and its sampler, for topic-aware models only.
    fn topic(&self) -> Option<(&TableIntentEstimator, &TopicSampler)> {
        self.use_topic
            .then(|| pair(&self.topic).expect("topic-aware model carries an intent estimator"))
    }

    /// One fill worker: take tables from `pending` until none is left and
    /// fill each one's rows. A table's cells are encoded into token ids;
    /// its topic vector comes from the memo entry for those ids or is
    /// estimated from them through the worker's scratch (Gibbs buffers,
    /// bit-identical to `TableIntentEstimator::estimate`), is kept in its
    /// topic slot and is replicated across the table's rows; features are
    /// extracted straight into the rows (no per-column feature vectors).
    fn fill_pending<T: TableCells + ?Sized>(
        &self,
        pending: &Mutex<Pending<'_, T>>,
        memo: Option<&TopicMemo>,
        scratch: &mut FillScratch,
    ) {
        let topic = self.topic();
        let w = &self.group_widths;
        let k = topic.map_or(0, |(est, _)| est.num_topics());
        loop {
            // Recovering a poisoned lock is sound: at every step `take`
            // leaves the cursor holding disjoint slices of this batch.
            let next = pending
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take(w, k);
            let Some((table, [g_char, g_word, g_para, g_stat, g_topic], theta, fresh)) = next
            else {
                return;
            };
            // Named injection point `core.feature_extract`, keyed by table
            // id (chaos builds only). There is no error channel this deep
            // in a prediction, so an armed Error escalates to a panic —
            // the serving layer contains it and quarantines the culprit.
            #[cfg(feature = "faults")]
            sato_faults::fire_panic("core.feature_extract", table.table_id());
            if let Some((est, sampler)) = topic {
                est.encode_cells_into(table, &mut scratch.topic);
                if !memo.is_some_and(|memo| memo.recall(scratch, theta, fresh)) {
                    theta.fill(0.0);
                    est.infer_encoded_into(sampler, &mut scratch.topic, theta);
                }
            }
            for c in 0..table.cell_columns() {
                let column = table.cells(c);
                self.extractor.extract_column_into(
                    &column,
                    &mut scratch.features,
                    row_of(g_char, c, w[0]),
                    row_of(g_word, c, w[1]),
                    row_of(g_para, c, w[2]),
                    row_of(g_stat, c, w[3]),
                );
                if topic.is_some() {
                    row_of(g_topic, c, k).copy_from_slice(theta);
                }
            }
        }
    }

    /// State dict of the multi-input network (for serialization).
    pub(crate) fn net_state(&self) -> StateDict {
        self.net.state_dict()
    }

    /// State dict of the classification head (for serialization).
    pub(crate) fn head_state(&self) -> StateDict {
        self.head.state_dict()
    }

    /// Scalers fitted on the training data (for serialization).
    pub(crate) fn scalers(&self) -> &[Standardizer] {
        &self.scalers
    }

    /// Rebuild a frozen core from its serialized parts: the architecture is
    /// reconstructed from `config` + `group_widths`, the weights (and
    /// BatchNorm running statistics) loaded from the state dicts, and the
    /// sampler of `sampler_kind` taken from `prebuilt` (the alias tables a
    /// binary artifact stores) or, when `None`, built from the intent
    /// estimator's frozen model. A caller passing `prebuilt` vouches that
    /// it was built from the very intent model being loaded.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_state(
        config: &SatoConfig,
        use_topic: bool,
        intent: Option<TableIntentEstimator>,
        scalers: Vec<Standardizer>,
        group_widths: Vec<usize>,
        net_state: &StateDict,
        head_state: &StateDict,
        sampler_kind: SamplerKind,
        prebuilt: Option<TopicSampler>,
    ) -> Result<Self, LoadError> {
        let (mut net, mut head) = build_network(config, &group_widths);
        net.load_state_dict(net_state)?;
        head.load_state_dict(head_state)?;
        let topic = intent.map(|est| {
            let sampler = prebuilt.unwrap_or_else(|| est.build_sampler(sampler_kind));
            (est, sampler)
        });
        Ok(FrozenColumnwise {
            use_topic,
            extractor: FeatureExtractor::new(config.features.clone()),
            topic,
            net,
            head,
            scalers,
            group_widths,
            sampler_kind,
        })
    }
}

impl ColumnwiseInference for FrozenColumnwise {
    /// A batch of one on the batched core, through a fresh scratch (which
    /// never queries the core count or wakes a helper for one table).
    fn predict_proba(&self, table: &Table) -> Vec<Vec<f32>> {
        let mut scratch = ServingScratch::new();
        self.infer_batch_cells(&[table], &mut scratch);
        row_vecs(&scratch.probs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sato_tabular::corpus::default_corpus;

    fn train_small(use_topic: bool) -> (ColumnwiseModel, Corpus) {
        let corpus = default_corpus(60, 11);
        let mut model = if use_topic {
            ColumnwiseModel::topic_aware(SatoConfig::fast())
        } else {
            ColumnwiseModel::base(SatoConfig::fast())
        };
        model.fit(&corpus);
        (model, corpus)
    }

    #[test]
    fn base_model_trains_and_loss_decreases() {
        let (model, _) = train_small(false);
        let history = model.loss_history();
        assert!(!history.is_empty());
        assert!(
            history.last().unwrap() < history.first().unwrap(),
            "loss did not decrease: {history:?}"
        );
        assert!(model.is_trained());
        assert!(!model.uses_topic());
        assert!(model.intent_estimator().is_none());
    }

    #[test]
    fn topic_model_trains_with_intent_estimator() {
        let (model, _) = train_small(true);
        assert!(model.uses_topic());
        assert!(model.intent_estimator().is_some());
    }

    #[test]
    fn probabilities_are_normalised_per_column() {
        let (model, corpus) = train_small(false);
        let table = &corpus.tables[0];
        let probs = model.predict_proba(table);
        assert_eq!(probs.len(), table.num_columns());
        for p in probs {
            assert_eq!(p.len(), NUM_TYPES);
            let s: f32 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn predictions_beat_chance_on_training_data() {
        let (model, corpus) = train_small(false);
        let mut correct = 0usize;
        let mut total = 0usize;
        for table in corpus.iter().take(30) {
            let preds = model.predict_types(table);
            correct += preds
                .iter()
                .zip(&table.labels)
                .filter(|(a, b)| a == b)
                .count();
            total += table.labels.len();
        }
        let acc = correct as f32 / total as f32;
        assert!(
            acc > 0.3,
            "training accuracy {acc} barely above chance (1/78)"
        );
    }

    #[test]
    fn column_embeddings_have_hidden_dim() {
        let (model, corpus) = train_small(false);
        let table = &corpus.tables[1];
        let emb = model.column_embeddings(table);
        assert_eq!(emb.len(), table.num_columns());
        assert!(emb
            .iter()
            .all(|e| e.len() == SatoConfig::fast().network.hidden_dim));
    }

    #[test]
    fn prediction_is_deterministic_in_eval_mode() {
        let (model, corpus) = train_small(false);
        let table = &corpus.tables[2];
        assert_eq!(model.predict_proba(table), model.predict_proba(table));
    }

    #[test]
    fn frozen_model_matches_source_bit_for_bit() {
        let (model, corpus) = train_small(true);
        let snapshot = model.freeze();
        // The live model's per-table path against the snapshot's batched
        // core, one table per batch.
        let mut scratch = ServingScratch::new();
        for table in corpus.iter().take(10) {
            assert_eq!(model.predict_proba(table), snapshot.predict_proba(table));
            snapshot.embed_batch_cells(&[table], &mut scratch);
            assert_eq!(model.column_embeddings(table), row_vecs(&scratch.embedding));
        }
        // Consuming freeze agrees too (moves the very same weights).
        let frozen = model.into_frozen();
        let table = &corpus.tables[0];
        assert_eq!(frozen.predict_proba(table), snapshot.predict_proba(table));
        assert!(frozen.uses_topic());
        assert!(frozen.intent_estimator().is_some());
    }

    #[test]
    #[should_panic(expected = "trained")]
    fn predicting_before_training_panics() {
        let corpus = default_corpus(3, 1);
        let model = ColumnwiseModel::base(SatoConfig::fast());
        model.predict_proba(&corpus.tables[0]);
    }

    #[test]
    #[should_panic(expected = "trained")]
    fn freezing_before_training_panics() {
        ColumnwiseModel::base(SatoConfig::fast()).freeze();
    }

    #[test]
    #[should_panic(expected = "empty corpus")]
    fn training_on_empty_corpus_panics() {
        let mut model = ColumnwiseModel::base(SatoConfig::fast());
        model.fit(&Corpus::new(vec![]));
    }
}
