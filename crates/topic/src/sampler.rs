//! Pluggable topic-sampler layer: the strategy that draws the per-token
//! topic assignment inside serving-time Gibbs inference.
//!
//! Serving inference samples each token's topic from the full conditional
//! `p(z = t) ∝ phi_w(t) · (n_{d,t} + α)` against **frozen** topic–word
//! counts (only the document–topic counts change between sweeps). Every
//! strategy reads `phi` from one pre-built [`PhiTable`]: the frozen
//! topic–word probabilities, word-major, so one token's `K` values are one
//! contiguous row. It is built once per frozen model (at freeze or artifact
//! load, never per table) and costs `K · V · 8` bytes — 0.92 MiB for 64
//! topics over a 1,893-word vocabulary. Three strategies implement the
//! draw:
//!
//! * [`TopicSampler::Dense`] — the collapsed dense sweep: all `K` weights
//!   per token, `O(K)` per token, read off the token's word-major `phi`
//!   row. Bit-identical to the historical strided sweep that recomputed
//!   `phi` per token; it is the parity oracle every other sampler is
//!   measured against.
//! * [`TopicSampler::SparseAlias`] — a SparseLDA/alias-table hybrid. The
//!   conditional splits into a *static* part `α · phi_w(t)` (frozen, so it
//!   is pre-built into one Walker alias table per word at predictor freeze
//!   time and sampled in `O(1)`) and a *document* part
//!   `n_{d,t} · phi_w(t)` that only ranges over the topics actually
//!   present in the document — `O(k_d)` per token, `k_d ≤ min(len, K)`.
//!   Same target distribution, different floating-point/RNG consumption,
//!   so outputs are statistically close but **not** bit-identical to
//!   Dense.
//! * [`TopicSampler::MetropolisHastings`] — LightLDA-style cycle
//!   Metropolis–Hastings over the same target: each token alternates a
//!   *word proposal* (an `O(1)` alias draw from `q_w ∝ phi_w`, reusing the
//!   same pre-built [`SparseAliasTables`]) with a *doc proposal* (an `O(1)`
//!   draw from `q_d ∝ n_{d,·} + α` taken directly off the assignment
//!   array), each followed by an accept/reject step whose ratio needs only
//!   a handful of multiplies. `O(1)` amortized per token with **no**
//!   per-token walk at all — not even the sparse `O(k_d)` document scan.
//!
//! The sampler is an enum-dispatched strategy (not `dyn`) so the per-token
//! hot loops stay monomorphized; the serialized artifact only records the
//! [`SamplerKind`] (plus, for the alias samplers, their tables), and the
//! dense table is rebuilt at load time.

use crate::lda::LdaModel;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which Gibbs sampler variant serves topic inference. This is the
/// *configuration* side of the sampler layer: it is `Copy`, serializable
/// (stored in predictor artifacts) and turned into a ready-to-run
/// [`TopicSampler`] with [`LdaModel::sampler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SamplerKind {
    /// Exact dense sweep, bit-identical to the historical implementation.
    #[default]
    Dense,
    /// Sparse document part + per-word alias tables for the static part.
    SparseAlias,
    /// LightLDA-style cycle Metropolis–Hastings: alternating word/doc
    /// proposals with `O(1)` accept/reject steps per token.
    MetropolisHastings,
}

impl SamplerKind {
    /// Stable lowercase name (CLI flags, benchmark JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            SamplerKind::Dense => "dense",
            SamplerKind::SparseAlias => "sparse-alias",
            SamplerKind::MetropolisHastings => "mh",
        }
    }
}

/// A ready-to-run topic-sampling strategy: [`SamplerKind`] plus the
/// pre-built state the strategy reads. Built once per frozen model (at
/// `into_predictor()` / artifact-load time) with [`LdaModel::sampler`] and
/// shared by reference across serving threads (`Send + Sync`, no interior
/// mutability). Every variant carries a word-major [`PhiTable`]
/// (`K · V · 8` bytes); the alias variants add their Walker tables.
#[derive(Debug, Clone)]
pub enum TopicSampler {
    /// The dense parity oracle: each token reads its word's pre-built
    /// `phi` row.
    Dense(Box<PhiTable>),
    /// Sparse/alias sampling against pre-built per-word tables.
    SparseAlias(Box<SparseAliasTables>),
    /// Cycle Metropolis–Hastings; the word proposal draws from the same
    /// pre-built per-word alias tables as [`TopicSampler::SparseAlias`].
    MetropolisHastings(Box<SparseAliasTables>),
}

impl TopicSampler {
    /// The configuration this strategy was built from.
    pub fn kind(&self) -> SamplerKind {
        match self {
            TopicSampler::Dense(_) => SamplerKind::Dense,
            TopicSampler::SparseAlias(_) => SamplerKind::SparseAlias,
            TopicSampler::MetropolisHastings(_) => SamplerKind::MetropolisHastings,
        }
    }
}

/// The frozen topic–word probabilities of one [`LdaModel`], word-major:
/// `phi[w * K + t] = (n_{t,w} + β) / (n_t + V·β)`, each entry computed with
/// exactly the expression of [`LdaModel::phi`], so every value is
/// bit-identical to it. One token's `K` probabilities are one contiguous
/// row, which is the layout every sampler's per-token loop reads.
///
/// Costs `K · V · 8` bytes and is built once per frozen model or artifact
/// load, by [`LdaModel::sampler`] — never per table or per token.
#[derive(Debug, Clone)]
pub struct PhiTable {
    /// Number of topics (the row width).
    k: usize,
    /// Vocabulary size (the row count).
    v: usize,
    /// `phi[w * k + t]`.
    phi: Vec<f64>,
}

impl PhiTable {
    /// Build the table from a trained model in `O(K · V)`. The counts are
    /// sparse (most words occur under few topics), so every row starts as
    /// the per-topic zero-count value `β / (n_t + V·β)` and only the
    /// non-zero counts are then scattered in, reading the topic-major
    /// counts in order.
    pub(crate) fn build(model: &LdaModel) -> Self {
        let k = model.num_topics();
        let v = model.vocabulary().len();
        // The count stride and `V·β` use the model's own `max(1)` guard.
        let stride = v.max(1);
        let beta = model.config().beta;
        let v_beta = beta * stride as f64;
        let den: Vec<f64> = model
            .topic_total_counts()
            .iter()
            .map(|&n| n as f64 + v_beta)
            .collect();
        // The scatter's expression below at `n = 0`, so zero-count entries
        // are bit-identical to `LdaModel::phi` as well.
        let zero_row: Vec<f64> = den.iter().map(|&d| (0.0 + beta) / d).collect();
        let mut phi = Vec::with_capacity(v * k);
        for _ in 0..v {
            phi.extend_from_slice(&zero_row);
        }
        let counts = model.topic_word_counts();
        for (t, &d) in den.iter().enumerate() {
            for (w, &n) in counts[t * stride..t * stride + v].iter().enumerate() {
                if n != 0 {
                    phi[w * k + t] = (n as f64 + beta) / d;
                }
            }
        }
        PhiTable { k, v, phi }
    }

    /// Reassemble a table from its flat word-major values (the alias-table
    /// codec's load path). Returns `None` unless `phi` holds `v * k`
    /// values.
    pub(crate) fn from_parts(k: usize, v: usize, phi: Vec<f64>) -> Option<Self> {
        (Some(phi.len()) == v.checked_mul(k)).then_some(PhiTable { k, v, phi })
    }

    /// The flat word-major values (the alias-table codec's write path).
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.phi
    }

    /// Panic unless the table was built for a model of this shape (it
    /// embeds the frozen topic–word term, so it is only valid against the
    /// model that produced it).
    pub(crate) fn assert_matches(&self, k: usize, v: usize) {
        assert_eq!(self.k, k, "sampler built for a different topic count");
        assert_eq!(self.v, v, "sampler built for a different vocabulary");
    }

    /// The contiguous `phi_w(·)` row of one word.
    #[inline]
    pub(crate) fn row(&self, word: usize) -> &[f64] {
        &self.phi[word * self.k..(word + 1) * self.k]
    }
}

/// The frozen topic–word term of one [`LdaModel`], pre-processed for
/// `O(k_d)`-per-token sampling: the word-major [`PhiTable`], the static
/// mass `s_w = α · Σ_t phi_w(t)` and one Walker alias table per word over
/// the normalized static distribution.
#[derive(Debug, Clone)]
pub struct SparseAliasTables {
    /// Topic–word probabilities, word-major.
    phi: PhiTable,
    /// Walker acceptance probability per `(word, slot)`.
    alias_prob: Vec<f64>,
    /// Walker alias index per `(word, slot)`.
    alias: Vec<u32>,
    /// `s_w = α · Σ_t phi_w(t)`: total mass of the static part.
    static_mass: Vec<f64>,
}

impl SparseAliasTables {
    /// Pre-build the tables from a trained model (`O(K · V)` time and
    /// space; runs once at predictor freeze/load time, never per token).
    pub fn build(model: &LdaModel) -> Self {
        let phi = PhiTable::build(model);
        let (k, v) = (phi.k, phi.v);
        let alpha = model.config().alpha;
        let mut alias_prob = vec![0.0f64; v * k];
        let mut alias = vec![0u32; v * k];
        let mut static_mass = vec![0.0f64; v];
        // Reusable Walker worklists across words.
        let mut scaled = vec![0.0f64; k];
        let mut small: Vec<u32> = Vec::with_capacity(k);
        let mut large: Vec<u32> = Vec::with_capacity(k);
        for w in 0..v {
            let row = phi.row(w);
            let mut sum = 0.0;
            for &p in row {
                sum += p;
            }
            static_mass[w] = alpha * sum;
            // Walker/Vose construction over p_t = phi_w(t) / sum.
            for (t, s) in scaled.iter_mut().enumerate() {
                *s = row[t] / sum * k as f64;
            }
            small.clear();
            large.clear();
            for t in 0..k as u32 {
                if scaled[t as usize] < 1.0 {
                    small.push(t);
                } else {
                    large.push(t);
                }
            }
            let prob = &mut alias_prob[w * k..(w + 1) * k];
            let idx = &mut alias[w * k..(w + 1) * k];
            while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
                small.pop();
                prob[s as usize] = scaled[s as usize];
                idx[s as usize] = l;
                scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
                if scaled[l as usize] < 1.0 {
                    large.pop();
                    small.push(l);
                }
            }
            // Leftovers on either worklist are full slots (the other list is
            // empty, so their residual mass can only be 1 up to rounding).
            for &t in large.iter().chain(small.iter()) {
                prob[t as usize] = 1.0;
                idx[t as usize] = t;
            }
        }
        SparseAliasTables {
            phi,
            alias_prob,
            alias,
            static_mass,
        }
    }

    /// Number of topics the tables were built for.
    pub fn num_topics(&self) -> usize {
        self.phi.k
    }

    /// Vocabulary size the tables were built for.
    pub fn vocab_size(&self) -> usize {
        self.phi.v
    }

    /// Reassemble pre-built tables from their parts (the binary-codec load
    /// path, which is what lets an artifact skip the `O(K·V)` rebuild).
    /// Returns `None` when the buffer shapes are inconsistent or an alias
    /// index is out of range.
    pub(crate) fn from_parts(
        k: usize,
        v: usize,
        phi: Vec<f64>,
        alias_prob: Vec<f64>,
        alias: Vec<u32>,
        static_mass: Vec<f64>,
    ) -> Option<Self> {
        let phi = PhiTable::from_parts(k, v, phi)?;
        if k == 0
            || alias_prob.len() != v * k
            || alias.len() != v * k
            || static_mass.len() != v
            || alias.iter().any(|&t| t as usize >= k)
        {
            return None;
        }
        Some(SparseAliasTables {
            phi,
            alias_prob,
            alias,
            static_mass,
        })
    }

    /// Borrow all parts in [`Self::from_parts`] order (the binary-codec
    /// write path).
    #[allow(clippy::type_complexity)]
    pub(crate) fn parts(&self) -> (usize, usize, &[f64], &[f64], &[u32], &[f64]) {
        (
            self.phi.k,
            self.phi.v,
            self.phi.as_slice(),
            &self.alias_prob,
            &self.alias,
            &self.static_mass,
        )
    }

    /// The word-major topic–word table the alias tables were built from.
    #[inline]
    pub(crate) fn phi(&self) -> &PhiTable {
        &self.phi
    }

    /// Total mass of the static part for `word`.
    #[inline]
    pub(crate) fn static_mass(&self, word: usize) -> f64 {
        self.static_mass[word]
    }

    /// Draw a topic from the static distribution of `word` using a single
    /// unit uniform `x ∈ [0, 1)`: `O(1)` Walker alias lookup.
    #[inline]
    pub(crate) fn sample_alias(&self, word: usize, x: f64) -> usize {
        let k = self.phi.k;
        let scaled = x * k as f64;
        let slot = (scaled as usize).min(k - 1);
        let frac = scaled - slot as f64;
        let base = word * k;
        if frac < self.alias_prob[base + slot] {
            slot
        } else {
            self.alias[base + slot] as usize
        }
    }
}

/// Walk `weights` until the running sum passes `target`, returning the
/// bucket index; if accumulated floating-point rounding keeps the sum from
/// ever reaching `target`, fall back to the **last** bucket.
///
/// This is the single rounding-fallback shared by both samplers: the dense
/// sweep walks all `K` full-conditional weights ([`sample_discrete`]), the
/// sparse sampler walks the `k_d` document-part weights with the branch
/// draw as `target`. `weights` must be non-empty; all-zero weights resolve
/// to the last bucket (nothing compares below a zero weight).
#[inline]
pub(crate) fn pick_bucket(weights: &[f64], target: f64) -> usize {
    let mut target = target;
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

/// Sample an index proportionally to `weights` (whose sum is `total`),
/// consuming exactly one uniform draw from `rng`. Shared rounding fallback:
/// see [`pick_bucket`].
#[inline]
pub(crate) fn sample_discrete(weights: &[f64], total: f64, rng: &mut StdRng) -> usize {
    let target = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    pick_bucket(weights, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lda::LdaConfig;
    use rand::SeedableRng;

    fn themed_documents() -> Vec<String> {
        (0..30)
            .map(|i| {
                if i % 2 == 0 {
                    "rock jazz blues album artist guitar song melody".to_string()
                } else {
                    "warsaw london paris city country europe capital river".to_string()
                }
            })
            .collect()
    }

    #[test]
    fn kind_round_trips_through_json_and_defaults_to_dense() {
        assert_eq!(SamplerKind::default(), SamplerKind::Dense);
        for kind in [
            SamplerKind::Dense,
            SamplerKind::SparseAlias,
            SamplerKind::MetropolisHastings,
        ] {
            let json = serde_json::to_string(&kind).unwrap();
            let back: SamplerKind = serde_json::from_str(&json).unwrap();
            assert_eq!(kind, back);
        }
        assert!(serde_json::from_str::<SamplerKind>("\"Turbo\"").is_err());
        assert_eq!(SamplerKind::Dense.name(), "dense");
        assert_eq!(SamplerKind::SparseAlias.name(), "sparse-alias");
        assert_eq!(SamplerKind::MetropolisHastings.name(), "mh");
    }

    #[test]
    fn pick_bucket_selects_by_cumulative_weight() {
        let weights = [0.25, 0.5, 0.25];
        assert_eq!(pick_bucket(&weights, 0.0), 0);
        assert_eq!(pick_bucket(&weights, 0.2), 0);
        assert_eq!(pick_bucket(&weights, 0.3), 1);
        assert_eq!(pick_bucket(&weights, 0.74), 1);
        assert_eq!(pick_bucket(&weights, 0.8), 2);
    }

    /// The rounding fallback: a target the accumulated weights never reach
    /// (the caller's `total` can exceed the true sum by accumulated ulps)
    /// must resolve to the last bucket instead of running off the end.
    #[test]
    fn pick_bucket_falls_back_to_last_bucket_when_weights_never_reach_target() {
        let weights = [0.3, 0.3, 0.3];
        assert_eq!(pick_bucket(&weights, 0.95), 2);
        assert_eq!(pick_bucket(&weights, f64::MAX), 2);
    }

    /// All-zero weights (a degenerate conditional) must not panic or loop:
    /// no target compares below a zero weight, so the shared fallback
    /// resolves to the last bucket deterministically.
    #[test]
    fn pick_bucket_handles_all_zero_weights() {
        let weights = [0.0, 0.0, 0.0, 0.0];
        assert_eq!(pick_bucket(&weights, 0.0), 3);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(sample_discrete(&weights, 0.0, &mut rng), 3);
        }
    }

    #[test]
    fn sample_discrete_respects_weights_statistically() {
        let weights = [1.0, 3.0, 6.0];
        let total: f64 = weights.iter().sum();
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 3];
        let draws = 60_000;
        for _ in 0..draws {
            counts[sample_discrete(&weights, total, &mut rng)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / total;
            let got = counts[i] as f64 / draws as f64;
            assert!(
                (got - expected).abs() < 0.01,
                "bucket {i}: got {got}, expected {expected}"
            );
        }
    }

    /// The Walker alias tables must reproduce the static distribution
    /// `phi_w(t) / Σ_t phi_w(t)` they were built from, word by word.
    #[test]
    fn alias_tables_sample_the_static_distribution() {
        let model = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        let tables = SparseAliasTables::build(&model);
        let k = model.num_topics();
        let mut rng = StdRng::seed_from_u64(23);
        for w in [0usize, 3, model.vocabulary().len() - 1] {
            let sum: f64 = (0..k).map(|t| model.phi(t, w)).sum();
            let mut counts = vec![0usize; k];
            let draws = 40_000;
            for _ in 0..draws {
                counts[tables.sample_alias(w, rng.gen_range(0.0..1.0))] += 1;
            }
            for (t, &c) in counts.iter().enumerate() {
                let expected = model.phi(t, w) / sum;
                let got = c as f64 / draws as f64;
                assert!(
                    (got - expected).abs() < 0.015,
                    "word {w} topic {t}: got {got}, expected {expected}"
                );
            }
        }
    }

    /// The static mass recorded per word is `α · Σ_t phi_w(t)`, and the
    /// alias slot probabilities are a valid Walker table (each slot in
    /// `[0, 1]`, aliases in range).
    #[test]
    fn table_invariants_hold() {
        let model = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        let tables = SparseAliasTables::build(&model);
        let k = model.num_topics();
        let alpha = model.config().alpha;
        for w in 0..model.vocabulary().len() {
            let sum: f64 = (0..k).map(|t| model.phi(t, w)).sum();
            assert!(
                (tables.static_mass(w) - alpha * sum).abs() < 1e-12,
                "static mass of word {w}"
            );
            for t in 0..k {
                assert_eq!(model.phi(t, w).to_bits(), tables.phi().row(w)[t].to_bits());
                let slot = tables.alias_prob[w * k + t];
                assert!((0.0..=1.0 + 1e-9).contains(&slot), "slot prob {slot}");
                assert!((tables.alias[w * k + t] as usize) < k);
            }
        }
    }

    /// The sparse scatter build reproduces `LdaModel::phi` bit for bit at
    /// every (word, topic), zero and non-zero counts alike.
    #[test]
    fn phi_table_is_bit_identical_to_model_phi() {
        for num_topics in [2usize, 8, 64] {
            let cfg = LdaConfig {
                num_topics,
                ..LdaConfig::tiny()
            };
            let model = LdaModel::fit(&themed_documents(), 1, cfg);
            let table = PhiTable::build(&model);
            assert_eq!((table.k, table.v), (num_topics, model.vocabulary().len()));
            for w in 0..model.vocabulary().len() {
                for (t, p) in table.row(w).iter().enumerate() {
                    assert_eq!(p.to_bits(), model.phi(t, w).to_bits(), "word {w} topic {t}");
                }
            }
        }
    }

    #[test]
    fn sampler_kind_accessor_matches_strategy() {
        let model = LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny());
        assert_eq!(model.sampler(SamplerKind::Dense).kind(), SamplerKind::Dense);
        assert_eq!(
            model.sampler(SamplerKind::SparseAlias).kind(),
            SamplerKind::SparseAlias
        );
        assert_eq!(
            model.sampler(SamplerKind::MetropolisHastings).kind(),
            SamplerKind::MetropolisHastings
        );
        assert!(matches!(
            model.sampler(SamplerKind::Dense),
            TopicSampler::Dense(_)
        ));
    }
}
