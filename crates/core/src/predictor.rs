//! The frozen serving artifact: [`SatoPredictor`], an immutable,
//! `Send + Sync` snapshot of a trained [`SatoModel`](crate::SatoModel).
//!
//! Training and serving have different needs — training mutates (optimiser
//! state, activation caches for backprop, RNG streams), serving must share
//! one set of weights across many threads. `SatoPredictor` is the
//! read-optimised side of that split: it owns the column-wise network
//! weights (with BatchNorm running statistics), the optional CRF layer and
//! the configuration, exposes every prediction entry point by `&self`,
//! round-trips through the `SATOART1` binary artifact
//! ([`crate::artifact`]), and serves a corpus in column micro-batches with
//! [`SatoPredictor::predict_corpus_batched`], whose topic estimation runs
//! on every core the process may use.
//!
//! Every entry point runs on one batched core: a single table is a batch
//! of one, so per-table and batched predictions cannot drift apart.
//!
//! ```no_run
//! use sato::{SatoConfig, SatoModel, SatoVariant};
//! use sato_tabular::corpus::default_corpus;
//!
//! let corpus = default_corpus(200, 42);
//! let model = SatoModel::train(&corpus, SatoConfig::fast(), SatoVariant::Full);
//! let predictor = model.into_predictor(); // frozen, Send + Sync
//! let bytes = predictor.to_bytes(); // deployable SATOART1 artifact
//! let served = sato::SatoPredictor::from_bytes(&bytes).unwrap();
//! assert_eq!(
//!     served.predict(&corpus.tables[0]),
//!     predictor.predict(&corpus.tables[0])
//! );
//! ```

use crate::columnwise::{
    row_vecs, types_from_rows, ColumnwiseInference, FrozenColumnwise, ServingScratch,
};
use crate::config::SatoConfig;
use crate::model::{SatoVariant, TablePrediction};
use crate::structured::StructuredLayer;
use sato_crf::LinearChainCrf;
use sato_nn::serialize::LoadError;
use sato_tabular::colstore::{ColStoreError, ColStoreReader, TableBuf};
use sato_tabular::table::{Corpus, Table, TableCells};
use sato_tabular::types::SemanticType;
use sato_topic::SamplerKind;
use std::borrow::Borrow;
use std::convert::Infallible;

/// Error raised when loading a serialized [`SatoPredictor`] artifact.
#[derive(Debug)]
pub enum PredictorError {
    /// The artifact's `META` section is not valid JSON or does not match
    /// the expected shape.
    Json(serde_json::Error),
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion(u64),
    /// The stored weights do not fit the architecture described by the
    /// stored configuration (count/shape mismatch).
    State(LoadError),
    /// The artifact's fields are mutually inconsistent (e.g. a scaler count
    /// that does not match the input groups), which would panic at predict
    /// time if loaded.
    Inconsistent(&'static str),
    /// Reading or writing the artifact file failed.
    Io(std::io::Error),
    /// The artifact ended before the named structure was complete.
    Truncated(&'static str),
    /// The artifact does not start with the `SATOART1` magic bytes.
    BadMagic,
    /// A section's stored checksum does not match its payload (bit rot,
    /// torn write, or mid-file corruption).
    Checksum(&'static str),
    /// The artifact is missing a section the described model requires.
    MissingSection(&'static str),
    /// A section decoded to structurally invalid data.
    Corrupt(String),
}

impl std::fmt::Display for PredictorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictorError::Json(e) => write!(f, "predictor artifact: {e}"),
            PredictorError::UnsupportedVersion(v) => {
                write!(f, "predictor artifact: unsupported format version {v}")
            }
            PredictorError::State(e) => write!(f, "predictor artifact: {e}"),
            PredictorError::Inconsistent(msg) => write!(f, "predictor artifact: {msg}"),
            PredictorError::Io(e) => write!(f, "predictor artifact: {e}"),
            PredictorError::Truncated(what) => {
                write!(f, "predictor artifact: truncated while reading {what}")
            }
            PredictorError::BadMagic => {
                write!(f, "predictor artifact: bad magic (not a SATOART1 file)")
            }
            PredictorError::Checksum(section) => {
                write!(
                    f,
                    "predictor artifact: checksum mismatch in section {section}"
                )
            }
            PredictorError::MissingSection(section) => {
                write!(f, "predictor artifact: missing required section {section}")
            }
            PredictorError::Corrupt(msg) => write!(f, "predictor artifact: {msg}"),
        }
    }
}

impl std::error::Error for PredictorError {}

impl From<sato_topic::TopicBytesError> for PredictorError {
    fn from(e: sato_topic::TopicBytesError) -> Self {
        match e {
            sato_topic::TopicBytesError::Truncated(what) => PredictorError::Truncated(what),
            other => PredictorError::Corrupt(other.to_string()),
        }
    }
}

impl From<sato_nn::serialize::StateBytesError> for PredictorError {
    fn from(e: sato_nn::serialize::StateBytesError) -> Self {
        match e {
            sato_nn::serialize::StateBytesError::Truncated(what) => PredictorError::Truncated(what),
            other => PredictorError::Corrupt(other.to_string()),
        }
    }
}

impl From<serde_json::Error> for PredictorError {
    fn from(e: serde_json::Error) -> Self {
        PredictorError::Json(e)
    }
}

impl From<LoadError> for PredictorError {
    fn from(e: LoadError) -> Self {
        PredictorError::State(e)
    }
}

impl From<std::io::Error> for PredictorError {
    fn from(e: std::io::Error) -> Self {
        PredictorError::Io(e)
    }
}

/// Stable identity of a serving artifact, reported by
/// [`SatoPredictor::artifact_meta`]: what hot-swap observability (the
/// `sato-serve` service, dashboards, response tagging) needs to name *which*
/// artifact served a request without holding the artifact itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// FNV-1a 64 over the artifact's canonical `SATOART1` byte stream (see
    /// [`SatoPredictor::content_hash`]).
    pub content_hash: u64,
    /// The variant the source model was trained as.
    pub variant: SatoVariant,
    /// The configured serving-time topic sampler.
    pub sampler: SamplerKind,
    /// Whether the artifact consumes the table topic vector.
    pub uses_topic: bool,
    /// Whether the artifact carries a CRF structured layer.
    pub has_crf: bool,
}

/// An immutable, thread-safe (`Send + Sync`) serving artifact frozen from a
/// trained [`SatoModel`](crate::SatoModel).
///
/// Obtain one with [`SatoModel::into_predictor`](crate::SatoModel::into_predictor)
/// (consuming, zero-copy) or [`SatoModel::predictor`](crate::SatoModel::predictor)
/// (snapshot). Every prediction method takes `&self`, so one predictor can
/// be shared by reference across any number of threads — no locks, no
/// interior mutability, no training-time state.
pub struct SatoPredictor {
    variant: SatoVariant,
    config: SatoConfig,
    columnwise: FrozenColumnwise,
    structured: Option<StructuredLayer>,
    /// FNV-1a 64 over the `SATOART1` byte form, fixed at freeze/load time.
    content_hash: u64,
}

impl SatoPredictor {
    pub(crate) fn from_parts(
        variant: SatoVariant,
        config: SatoConfig,
        columnwise: FrozenColumnwise,
        crf: Option<LinearChainCrf>,
    ) -> Self {
        let mut predictor = SatoPredictor {
            variant,
            config,
            columnwise,
            structured: crf.map(StructuredLayer::from_crf),
            content_hash: 0,
        };
        predictor.content_hash = predictor.canonical_hash();
        predictor
    }

    /// [`Self::from_parts`] with the content hash already computed over the
    /// loaded bytes (the binary-load path, which would otherwise pay a full
    /// re-serialization just to recover the hash of what it just read).
    pub(crate) fn from_parts_hashed(
        variant: SatoVariant,
        config: SatoConfig,
        columnwise: FrozenColumnwise,
        crf: Option<LinearChainCrf>,
        content_hash: u64,
    ) -> Self {
        SatoPredictor {
            variant,
            config,
            columnwise,
            structured: crf.map(StructuredLayer::from_crf),
            content_hash,
        }
    }

    /// The content hash of this predictor's canonical binary form.
    fn canonical_hash(&self) -> u64 {
        crate::artifact::fnv1a64(&self.to_bytes())
    }

    /// FNV-1a 64 over the predictor's `SATOART1` byte stream
    /// ([`Self::to_bytes`]), computed once at freeze/load time.
    ///
    /// The hash is a stable *content* identity: freezing a model and
    /// loading its artifact yield the same hash (the binary codec is
    /// canonical and round-trip-stable), while any change to the served
    /// weights or serving configuration — including [`Self::with_sampler`]
    /// — yields a different one. Hot-swap observability is built on it:
    /// `sato-serve` tags every response with the hash of the artifact that
    /// served it.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Stable identity snapshot of this artifact (hash, variant, sampler,
    /// layer presence) for hot-swap observability; see [`ArtifactMeta`].
    pub fn artifact_meta(&self) -> ArtifactMeta {
        ArtifactMeta {
            content_hash: self.content_hash,
            variant: self.variant,
            sampler: self.columnwise.sampler_kind(),
            uses_topic: self.columnwise.uses_topic(),
            has_crf: self.structured.is_some(),
        }
    }

    /// The variant the source model was trained as.
    pub fn variant(&self) -> SatoVariant {
        self.variant
    }

    /// The configuration the source model was trained with.
    pub fn config(&self) -> &SatoConfig {
        &self.config
    }

    /// Whether this predictor consumes the table topic vector.
    pub fn uses_topic(&self) -> bool {
        self.columnwise.uses_topic()
    }

    /// The configured topic-sampler variant (see [`Self::with_sampler`]).
    pub fn sampler_kind(&self) -> SamplerKind {
        self.columnwise.sampler_kind()
    }

    /// Reconfigure the serving-time topic sampler, the accuracy/speed axis
    /// of topic estimation:
    ///
    /// * [`SamplerKind::Dense`] (default) — the exact collapsed sweep,
    ///   bit-identical to historical predictions.
    /// * [`SamplerKind::SparseAlias`] — `O(k_d)`-per-token sparse/alias
    ///   sampling; statistically close but not bit-identical. The per-word
    ///   alias tables are pre-built **here** (freeze time), never on the
    ///   serving hot path.
    /// * [`SamplerKind::MetropolisHastings`] — `O(1)`-amortized-per-token
    ///   LightLDA-style cycle proposals (alias word proposal + assignment
    ///   array doc proposal, each with a Metropolis–Hastings accept step).
    ///   Reuses the same pre-built alias tables; statistically close but
    ///   not bit-identical.
    ///
    /// The choice is respected by every serving entry point (`predict`,
    /// `predict_corpus`, `predict_corpus_batched`, `predict_batch`, …) and
    /// recorded in the `SATOART1` artifact's `META` section (the alias
    /// samplers' tables in its `ALIA` section), so a loaded predictor
    /// reproduces the saved one bit for bit. For variants without a topic
    /// estimator the kind is recorded but predictions are unaffected.
    pub fn with_sampler(mut self, kind: SamplerKind) -> Self {
        self.columnwise = self.columnwise.with_sampler_kind(kind);
        // The sampler is part of the serialized artifact, so the content
        // identity changes with it.
        self.content_hash = self.canonical_hash();
        self
    }

    /// The CRF layer, if the frozen variant has one.
    pub fn crf(&self) -> Option<&LinearChainCrf> {
        self.structured.as_ref().map(|s| s.crf())
    }

    /// The frozen column-wise inference core.
    pub fn columnwise(&self) -> &FrozenColumnwise {
        &self.columnwise
    }

    /// Per-column probability rows from the column-wise stage (before any
    /// structured decoding): a batch of one through a fresh scratch.
    pub fn predict_proba(&self, table: &Table) -> Vec<Vec<f32>> {
        self.columnwise.predict_proba(table)
    }

    /// Predict the semantic type of every column of a table: a batch of one
    /// through a fresh scratch, which never queries the core count or wakes
    /// a helper thread.
    pub fn predict(&self, table: &Table) -> Vec<SemanticType> {
        let mut scratch = ServingScratch::new();
        self.columnwise.infer_batch_cells(&[table], &mut scratch);
        self.decode(&mut scratch, 0, table.num_columns())
    }

    /// Column embeddings (the final hidden representation before the output
    /// layer; Section 5.6 / Figure 10): a batch of one through a fresh
    /// scratch.
    pub fn column_embeddings(&self, table: &Table) -> Vec<Vec<f32>> {
        row_vecs(self.embed_batch(&[table], &mut ServingScratch::new()))
    }

    /// Width of the column-embedding space (the network's final hidden
    /// dimension) — the `dim` an ANN index over this predictor's
    /// embeddings must be created with.
    pub fn embedding_dim(&self) -> usize {
        self.config.network.hidden_dim
    }

    /// [`Self::column_embeddings`] through a caller-owned
    /// [`ServingScratch`]: the returned matrix (one row per column,
    /// [`Self::embedding_dim`] wide) borrows the scratch's reusable
    /// embedding buffer, so a warm loop extracts embeddings table after
    /// table with **zero steady-state allocations**.
    pub fn column_embeddings_into<'s>(
        &self,
        table: &Table,
        scratch: &'s mut ServingScratch,
    ) -> &'s sato_nn::Matrix {
        self.embed_batch(&[table], scratch)
    }

    /// Run exactly one micro-batch to the **column embeddings** (no
    /// classification head, no CRF): one row per column, table after table
    /// in order, borrowed from the scratch. The embedding sibling of
    /// [`Self::predict_batch`] — same feature extraction, topic estimation
    /// (memo included) and network trunk. An empty batch yields a 0-row
    /// matrix.
    pub fn embed_batch<'s, T: TableCells + ?Sized>(
        &self,
        batch: &[&T],
        scratch: &'s mut ServingScratch,
    ) -> &'s sato_nn::Matrix {
        scratch.bind_artifact(self.content_hash);
        self.columnwise.embed_batch_cells(batch, scratch);
        scratch.embeddings()
    }

    /// Stream the column embeddings of a whole corpus in column
    /// micro-batches (the same accumulation rule as
    /// [`Self::predict_corpus_batched`]): `on_column` is called once per
    /// column, table after table in corpus order, with the owning table's
    /// id, the column position and the embedding row — the feed an ANN
    /// index build consumes without materializing a `Vec` per column.
    pub fn embed_corpus_batched_with(
        &self,
        corpus: &Corpus,
        batch_cols: usize,
        scratch: &mut ServingScratch,
        mut on_column: impl FnMut(u64, u32, &[f32]),
    ) {
        let mut tables = corpus.tables.iter();
        let Ok(()) = for_each_batch(
            batch_cols,
            |_| Ok::<_, Infallible>(tables.next()),
            |batch: &[&Table]| {
                let embedding = self.embed_batch(batch, scratch);
                let mut row = 0usize;
                for table in batch {
                    for c in 0..table.num_columns() {
                        on_column(table.id, c as u32, embedding.row(row));
                        row += 1;
                    }
                }
            },
        );
    }

    /// Predict every table of a corpus, one table per batch through one
    /// reused scratch (see [`TablePrediction::gold`] for the empty-gold
    /// convention).
    pub fn predict_corpus(&self, corpus: &Corpus) -> Vec<TablePrediction> {
        let mut scratch = ServingScratch::new();
        let mut out = Vec::with_capacity(corpus.len());
        for table in corpus.iter() {
            self.flush_batch(&[table], &mut scratch, &mut out);
        }
        out
    }

    /// Predict every table of a corpus in **column micro-batches**: tables
    /// are accumulated until they carry at least `batch_cols` columns, the
    /// whole micro-batch runs through the column-wise network in a single
    /// forward pass (one input matrix per feature group, with per-table row
    /// offsets), and the probability rows are split back per table for CRF
    /// decoding.
    ///
    /// The output is exactly — bit for bit — the output of
    /// [`Self::predict_corpus`]; only the wall-clock time changes. Batching
    /// is exact because every eval-mode stage operates row-independently.
    /// `batch_cols` is clamped to at least 1; `1` degenerates to one batch
    /// per table, and a value larger than the corpus's total column count
    /// runs the whole corpus as a single batch.
    ///
    /// For topic-aware models every batch of two or more tables estimates
    /// its topics on all the cores the process may run on (see
    /// [`ServingScratch`]), so sharding the corpus across threads on top of
    /// this would only oversubscribe them.
    pub fn predict_corpus_batched(
        &self,
        corpus: &Corpus,
        batch_cols: usize,
    ) -> Vec<TablePrediction> {
        self.predict_corpus_batched_with(corpus, batch_cols, &mut ServingScratch::new())
    }

    /// [`Self::predict_corpus_batched`] with a caller-owned
    /// [`ServingScratch`]: a serving loop that predicts corpus after corpus
    /// can keep one warm scratch and pay zero steady-state buffer
    /// allocations across calls. Output is identical.
    pub fn predict_corpus_batched_with(
        &self,
        corpus: &Corpus,
        batch_cols: usize,
        scratch: &mut ServingScratch,
    ) -> Vec<TablePrediction> {
        let mut out = Vec::with_capacity(corpus.len());
        let mut tables = corpus.tables.iter();
        let Ok(()) = for_each_batch(
            batch_cols,
            |_| Ok::<_, Infallible>(tables.next()),
            |batch: &[&Table]| self.flush_batch(batch, scratch, &mut out),
        );
        out
    }

    /// Run one micro-batch through the network and split the probability
    /// rows back per table for decoding. Generic over the cell source, so
    /// in-memory tables and decoded colstore frames share one code path
    /// (and therefore cannot drift): [`TableCells::gold_labels`] keeps the
    /// empty-gold convention of [`TablePrediction::gold`].
    fn flush_batch<T: TableCells + ?Sized>(
        &self,
        batch: &[&T],
        scratch: &mut ServingScratch,
        out: &mut Vec<TablePrediction>,
    ) {
        // A scratch's topic memo caches *this predictor's* topic vectors; if
        // the scratch last served a different artifact (hot-swap, or a
        // caller sharing one scratch across predictors), its entries are
        // stale and must not be replayed.
        scratch.bind_artifact(self.content_hash);
        self.columnwise.infer_batch_cells(batch, scratch);
        let mut row = 0usize;
        for table in batch {
            let end = row + table.cell_columns();
            out.push(TablePrediction {
                table_id: table.table_id(),
                gold: table.gold_labels().to_vec(),
                predicted: self.decode(scratch, row, end),
            });
            row = end;
        }
    }

    /// Decode rows `[start, end)` of the last batch's probabilities (one
    /// table) into types: CRF Viterbi when the variant has the structured
    /// layer, row-wise argmax otherwise.
    fn decode(&self, scratch: &mut ServingScratch, start: usize, end: usize) -> Vec<SemanticType> {
        // Disjoint borrows: the probability matrix is read while the unary
        // buffer is reused.
        let ServingScratch { probs, unary, .. } = scratch;
        match &self.structured {
            Some(layer) => layer.decode_rows(probs, start, end, unary),
            None => types_from_rows(probs, start, end),
        }
    }

    /// Run exactly **one micro-batch** through the column-wise network (a
    /// single forward pass over every column of every table in `batch`) and
    /// return one [`TablePrediction`] per table, in order.
    ///
    /// This is the public seam for *external batchers* — callers that form
    /// their own micro-batches, like the `sato-serve` service coalescing
    /// columns from different requests into one shared batch. Because every
    /// eval-mode stage operates row-independently, any table-granularity
    /// batching composition built on this method is bit-identical to
    /// [`Self::predict_corpus`] (and therefore to
    /// [`Self::predict_corpus_batched`] at any `batch_cols`).
    ///
    /// The scratch's topic memo (if enabled) is automatically invalidated
    /// when the scratch last served a different artifact, so reusing one
    /// warm scratch across a hot-swap cannot replay stale topic vectors.
    pub fn predict_batch<T: TableCells + ?Sized>(
        &self,
        batch: &[&T],
        scratch: &mut ServingScratch,
    ) -> Vec<TablePrediction> {
        let mut out = Vec::with_capacity(batch.len());
        self.flush_batch(batch, scratch, &mut out);
        out
    }

    /// Serve a corpus **straight off its columnar on-disk form**: frames are
    /// decoded one at a time into reusable [`TableBuf`]s (the column pool and
    /// string arena warm up once and are recycled), accumulated into the same
    /// column micro-batches as [`Self::predict_corpus_batched`] and fed to
    /// the network without ever materializing a [`Table`].
    ///
    /// Batch boundaries follow the identical accumulate-until-`batch_cols`
    /// rule, so the output is — bit for bit — what
    /// [`Self::predict_corpus_batched`] produces on the decoded corpus.
    pub fn predict_colstore<R: std::io::Read>(
        &self,
        reader: &mut ColStoreReader<R>,
        batch_cols: usize,
        scratch: &mut ServingScratch,
    ) -> Result<Vec<TablePrediction>, ColStoreError> {
        let mut out = Vec::new();
        for_each_batch(
            batch_cols,
            |spare: Option<TableBuf>| {
                let mut buf = spare.unwrap_or_default();
                Ok::<_, ColStoreError>(reader.read_into(&mut buf)?.then_some(buf))
            },
            |batch: &[&TableBuf]| self.flush_batch(batch, scratch, &mut out),
        )?;
        Ok(out)
    }

    /// [`Self::predict_colstore`] over an in-memory colstore byte buffer
    /// (fresh scratch) — the convenience shape for artifacts already read
    /// or mapped into memory.
    pub fn predict_colstore_bytes(
        &self,
        bytes: &[u8],
        batch_cols: usize,
    ) -> Result<Vec<TablePrediction>, ColStoreError> {
        let mut reader = ColStoreReader::new(bytes)?;
        self.predict_colstore(&mut reader, batch_cols, &mut ServingScratch::new())
    }
}

/// The one micro-batch rule of every corpus entry point: tables are taken
/// from `next` in order until they carry at least `batch_cols` columns
/// (clamped to at least 1), each full batch goes to `flush`, and so does
/// the remainder at the end. A zero-column table rides in whichever batch
/// it falls into.
///
/// `next` is handed a warm slot left over from an earlier batch (or `None`
/// while there is none), and returns the next table's slot, or `None` once
/// the source is exhausted — so a decoding source recycles its buffers,
/// and a borrowing source simply ignores the spare.
fn for_each_batch<S, T, E>(
    batch_cols: usize,
    mut next: impl FnMut(Option<S>) -> Result<Option<S>, E>,
    mut flush: impl FnMut(&[&T]),
) -> Result<(), E>
where
    S: Borrow<T>,
    T: TableCells + ?Sized,
{
    let batch_cols = batch_cols.max(1);
    // `slots[..used]` hold the open batch; later slots are warm spares.
    let mut slots: Vec<S> = Vec::new();
    let mut used = 0usize;
    let mut pending_cols = 0usize;
    let mut flush_open = |slots: &[S]| flush(&slots.iter().map(S::borrow).collect::<Vec<_>>());
    loop {
        let spare = if slots.len() > used {
            slots.pop()
        } else {
            None
        };
        let Some(slot) = next(spare)? else { break };
        pending_cols += slot.borrow().cell_columns();
        slots.push(slot);
        let last = slots.len() - 1;
        slots.swap(used, last);
        used += 1;
        if pending_cols >= batch_cols {
            flush_open(&slots[..used]);
            used = 0;
            pending_cols = 0;
        }
    }
    if used > 0 {
        flush_open(&slots[..used]);
    }
    Ok(())
}

/// The unbatched reference the batched core is checked against.
#[cfg(test)]
impl SatoPredictor {
    /// Per table: `extract_inputs` → `predict_proba_from_inputs` → CRF
    /// decode.
    pub(crate) fn reference_predict_corpus(&self, corpus: &Corpus) -> Vec<TablePrediction> {
        corpus
            .iter()
            .map(|table| {
                let inputs = self.columnwise.extract_inputs(table);
                let proba = self.columnwise.predict_proba_from_inputs(&inputs);
                TablePrediction {
                    table_id: table.id,
                    gold: crate::model::gold_of(table),
                    predicted: match &self.structured {
                        Some(layer) => layer.decode_proba(&proba),
                        None => crate::columnwise::types_from_proba(&proba),
                    },
                }
            })
            .collect()
    }

    /// Per table: `extract_inputs` → the network trunk.
    pub(crate) fn reference_column_embeddings(&self, table: &Table) -> Vec<Vec<f32>> {
        let inputs = self.columnwise.extract_inputs(table);
        self.columnwise.embeddings_from_inputs(&inputs)
    }

    /// The token ids a topic-aware model encodes `table` to (the topic
    /// memo's content key).
    pub(crate) fn token_ids(&self, table: &Table) -> Vec<usize> {
        let est = self
            .columnwise
            .intent_estimator()
            .expect("a topic-aware model carries an intent estimator");
        let mut scratch = sato_topic::TopicScratch::new();
        est.encode_cells_into(table, &mut scratch);
        scratch.tokens().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SatoModel;
    use sato_tabular::corpus::default_corpus;

    /// Compile-time proof that the frozen artifact is shareable across
    /// threads; this is part of the public API contract.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SatoPredictor>();
    };

    fn tiny_config() -> SatoConfig {
        let mut config = SatoConfig::fast();
        config.network.epochs = 6;
        config.lda.train_iterations = 20;
        config.crf.epochs = 3;
        config
    }

    #[test]
    fn frozen_predictor_matches_source_model() {
        let corpus = default_corpus(40, 3);
        let model = SatoModel::train(&corpus, tiny_config(), SatoVariant::Full);
        let by_snapshot = model.predictor();
        let model_preds: Vec<_> = corpus.iter().take(8).map(|t| model.predict(t)).collect();
        let by_move = model.into_predictor();
        for (i, table) in corpus.iter().take(8).enumerate() {
            assert_eq!(by_snapshot.predict(table), model_preds[i]);
            assert_eq!(by_move.predict(table), model_preds[i]);
            assert_eq!(
                by_snapshot.predict_proba(table),
                by_move.predict_proba(table)
            );
        }
        assert_eq!(by_move.variant(), SatoVariant::Full);
        assert!(by_move.crf().is_some());
        assert!(by_move.uses_topic());
    }

    /// Input that is not an artifact at all: shorter than a header, then a
    /// JSON document of the retired artifact format.
    #[test]
    fn corrupted_artifacts_are_rejected() {
        assert!(matches!(
            SatoPredictor::from_bytes(b"not json at all"),
            Err(PredictorError::Truncated(_))
        ));
        assert!(matches!(
            SatoPredictor::from_bytes(b"{\"format_version\": 1}"),
            Err(PredictorError::BadMagic)
        ));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let corpus = default_corpus(30, 6);
        let predictor =
            SatoModel::train(&corpus, tiny_config(), SatoVariant::Base).into_predictor();
        let mut bytes = predictor.to_bytes();
        bytes[8..12].copy_from_slice(&999u32.to_le_bytes());
        assert!(matches!(
            SatoPredictor::from_bytes(&bytes),
            Err(PredictorError::UnsupportedVersion(999))
        ));
    }

    #[test]
    fn batched_prediction_matches_sequential_exactly() {
        // All four variants, several micro-batch widths including the
        // degenerate ones (1 column per batch, whole corpus in one batch).
        let corpus = default_corpus(25, 9);
        let total_cols: usize = corpus.iter().map(|t| t.num_columns()).sum();
        for variant in SatoVariant::ALL {
            let predictor = SatoModel::train(&corpus, tiny_config(), variant).into_predictor();
            let sequential = predictor.reference_predict_corpus(&corpus);
            assert_eq!(sequential, predictor.predict_corpus(&corpus));
            for batch_cols in [1, 3, 16, total_cols, total_cols + 100] {
                let batched = predictor.predict_corpus_batched(&corpus, batch_cols);
                assert_eq!(
                    sequential,
                    batched,
                    "variant {} batch_cols {batch_cols}",
                    variant.name()
                );
            }
        }
    }

    #[test]
    fn batched_prediction_handles_degenerate_corpora() {
        use sato_tabular::table::{Column, Table};
        let corpus = default_corpus(20, 12);
        let predictor =
            SatoModel::train(&corpus, tiny_config(), SatoVariant::Full).into_predictor();
        // Zero-column and single-column tables mixed between normal ones,
        // plus an unlabelled table (empty-gold convention).
        let ragged = Corpus::new(vec![
            Table::unlabelled(900, vec![]),
            corpus.tables[0].clone(),
            Table::unlabelled(901, vec![Column::new(["Warsaw", "London"])]),
            Table::unlabelled(902, vec![]),
            corpus.tables[1].clone(),
        ]);
        let sequential = predictor.reference_predict_corpus(&ragged);
        assert_eq!(sequential, predictor.predict_corpus(&ragged));
        // One warm caller-owned scratch across every batch width.
        let mut scratch = ServingScratch::new();
        for batch_cols in [1, 2, 1000] {
            assert_eq!(
                sequential,
                predictor.predict_corpus_batched(&ragged, batch_cols),
                "batch_cols {batch_cols}"
            );
            assert_eq!(
                sequential,
                predictor.predict_corpus_batched_with(&ragged, batch_cols, &mut scratch),
                "warm-scratch batch_cols {batch_cols}"
            );
        }
        assert!(sequential[0].predicted.is_empty());
        assert!(sequential[0].gold.is_empty());
        // An entirely empty corpus also works.
        let empty = Corpus::new(vec![]);
        assert!(predictor.predict_corpus_batched(&empty, 8).is_empty());
    }

    #[test]
    fn batched_embeddings_match_per_table_path_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let corpus = default_corpus(20, 9);
        let predictor =
            SatoModel::train(&corpus, tiny_config(), SatoVariant::Full).into_predictor();
        assert_eq!(predictor.embedding_dim(), tiny_config().network.hidden_dim);
        let mut scratch = ServingScratch::new();
        // Per-table into-path parity, twice (cold buffers, then warm).
        for pass in 0..2 {
            for table in corpus.iter().take(8) {
                let reference = predictor.reference_column_embeddings(table);
                assert_eq!(predictor.column_embeddings(table), reference);
                let into = predictor.column_embeddings_into(table, &mut scratch);
                assert_eq!(into.rows(), reference.len());
                assert_eq!(into.cols(), predictor.embedding_dim());
                for (r, want) in reference.iter().enumerate() {
                    assert_eq!(
                        bits(into.row(r)),
                        bits(want),
                        "pass {pass} table {} row {r}",
                        table.id
                    );
                }
            }
        }
        // Corpus streaming in micro-batches: identical rows in identical
        // (table, column) order at every batch width, ragged shapes
        // included.
        let ragged = {
            use sato_tabular::table::{Column, Table};
            let mut tables = vec![
                Table::unlabelled(900, vec![]),
                Table::unlabelled(901, vec![Column::new(["Warsaw", "London"])]),
            ];
            tables.extend(corpus.tables.iter().cloned());
            Corpus::new(tables)
        };
        let reference: Vec<(u64, u32, Vec<f32>)> = ragged
            .iter()
            .flat_map(|t| {
                predictor
                    .reference_column_embeddings(t)
                    .into_iter()
                    .enumerate()
                    .map(|(c, e)| (t.id, c as u32, e))
                    .collect::<Vec<_>>()
            })
            .collect();
        for batch_cols in [1, 7, 64, 100_000] {
            let mut streamed = Vec::new();
            predictor.embed_corpus_batched_with(&ragged, batch_cols, &mut scratch, |id, c, row| {
                streamed.push((id, c, row.to_vec()));
            });
            assert_eq!(streamed.len(), reference.len(), "batch_cols {batch_cols}");
            for (got, want) in streamed.iter().zip(&reference) {
                assert_eq!(
                    (got.0, got.1),
                    (want.0, want.1),
                    "batch_cols {batch_cols} column identity"
                );
                assert_eq!(bits(&got.2), bits(&want.2), "batch_cols {batch_cols}");
            }
        }
        // An empty batch yields a 0-row matrix (and stays well-defined).
        let none: [&Table; 0] = [];
        assert_eq!(predictor.embed_batch(&none, &mut scratch).rows(), 0);
    }

    /// Distinct non-empty token id sequences among `tables`: the entries a
    /// memo large enough for all of them ends up holding.
    fn distinct_encodings(predictor: &SatoPredictor, tables: &[Table]) -> usize {
        let mut seen: Vec<Vec<usize>> = tables.iter().map(|t| predictor.token_ids(t)).collect();
        seen.retain(|ids| !ids.is_empty());
        seen.sort();
        seen.dedup();
        seen.len()
    }

    #[test]
    fn topic_memo_preserves_batched_parity_across_repeated_serves() {
        let corpus = default_corpus(20, 8);
        let predictor =
            SatoModel::train(&corpus, tiny_config(), SatoVariant::Full).into_predictor();
        let sequential = predictor.reference_predict_corpus(&corpus);
        let mut scratch = ServingScratch::new().with_topic_memo();
        assert_eq!(scratch.topic_memo_len(), 0);
        assert_eq!(
            scratch.topic_memo_capacity(),
            crate::columnwise::DEFAULT_TOPIC_MEMO_CAPACITY
        );
        // First serve fills the memo, later serves hit it — output must stay
        // bit-identical to the unbatched reference every time.
        for pass in 0..3 {
            assert_eq!(
                sequential,
                predictor.predict_corpus_batched_with(&corpus, 64, &mut scratch),
                "memoised serve diverged on pass {pass}"
            );
        }
        let stored = distinct_encodings(&predictor, &corpus.tables);
        assert_eq!(stored, corpus.len(), "the fixture's tables encode apart");
        assert_eq!(scratch.topic_memo_len(), stored);
        assert_eq!(scratch.topic_memo_misses(), corpus.len() as u64);
        assert_eq!(scratch.topic_memo_hits(), 2 * corpus.len() as u64);
    }

    /// The topic memo is bounded: with capacity `c`, serving any number of
    /// distinct tables keeps at most `c` entries and at most `c * 256`
    /// token ids (oldest-inserted entries evicted first, exactly as the
    /// reference model says), and eviction never affects correctness — an
    /// evicted table is simply re-estimated on its next serve.
    #[test]
    fn topic_memo_capacity_bounds_growth_and_evicts_oldest() {
        let corpus = default_corpus(12, 8);
        let predictor =
            SatoModel::train(&corpus, tiny_config(), SatoVariant::Full).into_predictor();
        let sequential = predictor.reference_predict_corpus(&corpus);
        for capacity in [0, 3] {
            let mut scratch = ServingScratch::new().with_topic_memo_capacity(capacity);
            // Capacity clamps to at least one entry.
            assert_eq!(scratch.topic_memo_capacity(), capacity.max(1));
            let mut expected: Vec<Vec<usize>> = Vec::new();
            for pass in 0..3 {
                for (i, batch) in corpus.tables.chunks(4).enumerate() {
                    let refs: Vec<&Table> = batch.iter().collect();
                    assert_eq!(
                        predictor.predict_batch(&refs, &mut scratch),
                        sequential[4 * i..4 * i + batch.len()],
                        "bounded-memo serve diverged on pass {pass} batch {i}"
                    );
                    let ids: Vec<Vec<usize>> =
                        batch.iter().map(|t| predictor.token_ids(t)).collect();
                    crate::columnwise::model_topic_memo(&mut expected, capacity, &ids);
                    assert_eq!(
                        scratch.topic_memo_order(),
                        expected,
                        "pass {pass} batch {i}"
                    );
                    assert!(scratch.topic_memo_len() <= capacity.max(1));
                    let (stored, budget) = scratch.topic_memo_tokens();
                    assert!(stored <= budget, "pass {pass}: {stored} tokens > {budget}");
                }
                assert!(
                    !expected.is_empty(),
                    "capacity {capacity} pass {pass}: the memo holds the newest tables"
                );
            }
        }
    }

    /// The content hash is a stable identity — freezing and loading the
    /// artifact agree — and it tracks the artifact's content (a different
    /// sampler, or differently-trained weights, hash differently).
    #[test]
    fn content_hash_is_consistent_across_load_paths_and_tracks_content() {
        let corpus = default_corpus(30, 6);
        let predictor =
            SatoModel::train(&corpus, tiny_config(), SatoVariant::Full).into_predictor();
        let frozen_hash = predictor.content_hash();
        let binary_loaded = SatoPredictor::from_bytes(&predictor.to_bytes()).unwrap();
        assert_eq!(frozen_hash, binary_loaded.content_hash());
        // The meta snapshot carries the same identity.
        let meta = predictor.artifact_meta();
        assert_eq!(meta.content_hash, frozen_hash);
        assert_eq!(meta.variant, SatoVariant::Full);
        assert_eq!(meta.sampler, sato_topic::SamplerKind::Dense);
        assert!(meta.uses_topic);
        assert!(meta.has_crf);
        assert_eq!(meta, binary_loaded.artifact_meta());
        // A different serving configuration is a different content identity,
        // consistently across load paths again.
        let sparse = binary_loaded.with_sampler(sato_topic::SamplerKind::SparseAlias);
        assert_ne!(sparse.content_hash(), frozen_hash);
        assert_eq!(
            sparse.content_hash(),
            SatoPredictor::from_bytes(&sparse.to_bytes())
                .unwrap()
                .content_hash()
        );
        // Differently-trained weights hash differently.
        let other = SatoModel::train(&corpus, tiny_config(), SatoVariant::Base).into_predictor();
        assert_ne!(other.content_hash(), frozen_hash);
    }

    /// Satellite regression: the topic memo must not survive an artifact
    /// swap. One warm scratch serves predictor A (filling the memo), then
    /// serves the same table ids through predictor B — B's output must be
    /// B's fresh predictions, not A's cached topic vectors replayed into
    /// B's network.
    #[test]
    fn topic_memo_is_invalidated_across_artifact_swap() {
        let corpus = default_corpus(18, 8);
        let a = SatoModel::train(&corpus, tiny_config(), SatoVariant::Full).into_predictor();
        let b = {
            let mut config = tiny_config();
            config.seed = 777; // different weights AND a different topic model
            SatoModel::train(&corpus, config, SatoVariant::Full).into_predictor()
        };
        assert_ne!(a.content_hash(), b.content_hash());
        let mut scratch = ServingScratch::new().with_topic_memo();
        let served_a = a.predict_corpus_batched_with(&corpus, 64, &mut scratch);
        assert_eq!(served_a, a.reference_predict_corpus(&corpus));
        let stored_a = distinct_encodings(&a, &corpus.tables);
        assert_eq!(stored_a, corpus.len(), "the fixture's tables encode apart");
        assert_eq!(scratch.topic_memo_len(), stored_a);
        // Swap: serving even one table through B must clear A's cached
        // entries first — the memo ends up holding exactly B's one entry,
        // not A's entries plus one. The same cells encode to non-empty ids
        // under both artifacts, so only the artifact binding keeps B from
        // replaying A's vector.
        assert!(!b.token_ids(&corpus.tables[0]).is_empty());
        let first = Corpus::new(vec![corpus.tables[0].clone()]);
        assert_eq!(
            b.predict_corpus_batched_with(&first, 64, &mut scratch),
            b.reference_predict_corpus(&first)
        );
        assert_eq!(
            scratch.topic_memo_len(),
            1,
            "memo entries from the old artifact survived the swap"
        );
        // The full corpus under B is B's fresh predictions, end to end.
        assert_eq!(
            b.predict_corpus_batched_with(&corpus, 64, &mut scratch),
            b.reference_predict_corpus(&corpus)
        );
        // Swapping back re-estimates under A again (the memo was rebound).
        let hits = scratch.topic_memo_hits();
        assert_eq!(
            a.predict_corpus_batched_with(&corpus, 64, &mut scratch),
            served_a
        );
        assert_eq!(scratch.topic_memo_len(), stored_a);
        assert_eq!(
            scratch.topic_memo_hits(),
            hits,
            "nothing replays across the swap"
        );
    }

    /// The Full artifact the content-key tests share, trained once, with
    /// its training corpus.
    fn memo_fixture() -> &'static (SatoPredictor, Corpus) {
        static FIXTURE: std::sync::OnceLock<(SatoPredictor, Corpus)> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let corpus = default_corpus(16, 8);
            let predictor =
                SatoModel::train(&corpus, tiny_config(), SatoVariant::Full).into_predictor();
            (predictor, corpus)
        })
    }

    /// The ROADMAP's safety claim: serving *different* cells under a table
    /// id the memo has already seen re-estimates them — one batch at a
    /// time and many at once — instead of replaying the id's old vector.
    #[test]
    fn topic_memo_never_replays_a_stale_theta_for_a_reused_id() {
        let (predictor, corpus) = memo_fixture();
        let reused: Vec<Table> = corpus
            .iter()
            .map(|t| Table { id: 5, ..t.clone() })
            .collect();
        let want = predictor.reference_predict_corpus(&Corpus::new(reused.clone()));
        let mut scratch = ServingScratch::new().with_topic_memo();
        for (table, want) in reused.iter().zip(&want) {
            assert_eq!(
                predictor.predict_batch(&[table], &mut scratch),
                std::slice::from_ref(want)
            );
        }
        let batch: Vec<&Table> = reused.iter().collect();
        assert_eq!(predictor.predict_batch(&batch, &mut scratch), want);
        let distinct = distinct_encodings(predictor, &reused);
        assert_eq!(distinct, reused.len(), "the fixture's tables encode apart");
        assert_eq!(scratch.topic_memo_len(), distinct);
        assert_eq!(scratch.topic_memo_misses(), reused.len() as u64);
        assert_eq!(scratch.topic_memo_hits(), reused.len() as u64);
    }

    /// Tables that differ only in their id, the letter case of their cells
    /// or out-of-vocabulary cells encode to the same token ids: Gibbs runs
    /// once for all of them, and every answer stays exact.
    #[test]
    fn topic_memo_runs_gibbs_once_for_equal_cells_under_different_ids() {
        let (predictor, corpus) = memo_fixture();
        let source = &corpus.tables[3];
        let shout = |v: &String| v.to_uppercase();
        let variants: Vec<Table> = (0..4u64)
            .map(|i| {
                let mut table = Table {
                    id: 9000 + i,
                    ..source.clone()
                };
                if i == 2 {
                    for column in &mut table.columns {
                        column.values = column.values.iter().map(shout).collect();
                    }
                }
                if i == 3 {
                    table.columns[0].values.push("zzqxqzzq".to_string());
                }
                table
            })
            .collect();
        let ids = predictor.token_ids(source);
        assert!(!ids.is_empty());
        for table in &variants {
            assert_eq!(predictor.token_ids(table), ids, "table {}", table.id);
        }
        let want = predictor.reference_predict_corpus(&Corpus::new(variants.clone()));
        // One table per batch: the first misses, the rest hit.
        let mut scratch = ServingScratch::new().with_topic_memo();
        for (table, want) in variants.iter().zip(&want) {
            assert_eq!(
                predictor.predict_batch(&[table], &mut scratch),
                std::slice::from_ref(want)
            );
        }
        assert_eq!(scratch.topic_memo_misses(), 1);
        assert_eq!(scratch.topic_memo_hits(), variants.len() as u64 - 1);
        assert_eq!(scratch.topic_memo_len(), 1);
        // All in one batch: the memo is read-only during a fill, so each
        // misses, yet the batch stores one entry.
        let mut scratch = ServingScratch::new().with_topic_memo();
        let batch: Vec<&Table> = variants.iter().collect();
        assert_eq!(predictor.predict_batch(&batch, &mut scratch), want);
        assert_eq!(scratch.topic_memo_misses(), variants.len() as u64);
        assert_eq!(scratch.topic_memo_len(), 1);
        assert_eq!(predictor.predict_batch(&batch, &mut scratch), want);
        assert_eq!(scratch.topic_memo_hits(), variants.len() as u64);
    }

    /// Two different token sequences under one key — a forced FNV
    /// collision — never replay each other's vector: the first stored
    /// keeps the key and hits, every other sequence misses.
    #[test]
    fn topic_memo_key_collision_is_a_miss() {
        let (predictor, corpus) = memo_fixture();
        let want = predictor.reference_predict_corpus(corpus);
        let mut scratch = ServingScratch::new()
            .with_topic_memo()
            .with_topic_memo_key(|_| 0x5a70);
        for pass in 0..3u64 {
            for (table, want) in corpus.iter().zip(&want) {
                assert_eq!(
                    predictor.predict_batch(&[table], &mut scratch),
                    std::slice::from_ref(want),
                    "pass {pass} table {}",
                    table.id
                );
            }
            assert_eq!(
                scratch.topic_memo_len(),
                1,
                "pass {pass}: one key, one entry"
            );
            assert_eq!(
                scratch.topic_memo_order(),
                [predictor.token_ids(&corpus.tables[0])]
            );
            assert_eq!(scratch.topic_memo_hits(), pass, "only the first table hits");
        }
        let batch: Vec<&Table> = corpus.tables.iter().collect();
        assert_eq!(predictor.predict_batch(&batch, &mut scratch), want);
    }

    /// A table with more token ids than the memo's whole budget (here 10k
    /// rows) and a table without any are never stored, and serving a
    /// stream of tables never lets the stored-token total pass the budget.
    #[test]
    fn topic_memo_never_stores_huge_or_empty_tables_and_keeps_its_token_budget() {
        use sato_tabular::table::Column;
        let (predictor, corpus) = memo_fixture();
        let capacity = 8;
        let huge = Table::unlabelled(
            77,
            vec![Column::new((0..10_000).map(|r| {
                corpus.tables[r % corpus.len()].columns[0].values[0].clone()
            }))],
        );
        let empty = Table::unlabelled(78, vec![Column::new(["", "  "])]);
        let mut scratch = ServingScratch::new().with_topic_memo_capacity(capacity);
        let (_, budget) = scratch.topic_memo_tokens();
        assert_eq!(budget, capacity * 256);
        assert!(predictor.token_ids(&huge).len() > budget);
        assert!(predictor.token_ids(&empty).is_empty());
        let mut stream = vec![huge.clone(), empty.clone()];
        stream.extend(corpus.tables.iter().cloned());
        stream.extend([huge, empty]);
        let want = predictor.reference_predict_corpus(&Corpus::new(stream.clone()));
        let mut expected: Vec<Vec<usize>> = Vec::new();
        for pass in 0..2 {
            for (batch, want) in stream.chunks(3).zip(want.chunks(3)) {
                let refs: Vec<&Table> = batch.iter().collect();
                assert_eq!(predictor.predict_batch(&refs, &mut scratch), want);
                let ids: Vec<Vec<usize>> = batch.iter().map(|t| predictor.token_ids(t)).collect();
                crate::columnwise::model_topic_memo(&mut expected, capacity, &ids);
                assert_eq!(scratch.topic_memo_order(), expected, "pass {pass}");
                let (stored, _) = scratch.topic_memo_tokens();
                assert!(stored <= budget, "pass {pass}: {stored} tokens > {budget}");
            }
        }
        assert!(scratch
            .topic_memo_order()
            .iter()
            .all(|ids| !ids.is_empty() && ids.len() <= budget));
    }

    #[test]
    fn sampler_kind_round_trips_and_defaults_to_dense() {
        use sato_topic::SamplerKind;
        let corpus = default_corpus(30, 6);
        let predictor =
            SatoModel::train(&corpus, tiny_config(), SatoVariant::Full).into_predictor();
        assert_eq!(predictor.sampler_kind(), SamplerKind::Dense);
        let sparse = predictor.with_sampler(SamplerKind::SparseAlias);
        assert_eq!(sparse.sampler_kind(), SamplerKind::SparseAlias);
        let loaded = SatoPredictor::from_bytes(&sparse.to_bytes()).unwrap();
        assert_eq!(loaded.sampler_kind(), SamplerKind::SparseAlias);
        for table in corpus.iter().take(5) {
            assert_eq!(sparse.predict(table), loaded.predict(table));
        }
    }
}
