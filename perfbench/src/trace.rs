//! Out-of-program tracing: spans recorded around the calls into each
//! layer's public functions, kept in memory and written out at exit, plus
//! the layer replay that attributes a micro-batch's time to the layers.

use sato::{unary_from_proba, SatoPredictor, ServingScratch, TableInputs, TablePrediction};
use sato_features::{ColumnFeatures, FeatureExtractor, FeatureGroup, FeatureScratch};
use sato_tabular::table::{CellSource, TableCells};
use sato_tabular::types::SemanticType;
use sato_topic::TopicScratch;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    parent: u32,
    /// Batch, request or cycle id the span belongs to.
    tag: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. A layer's self time is the total duration of
/// its spans minus the part covered by their child spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span starting now; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, tag: u64) -> SpanId {
        let now = self.ns(Instant::now());
        self.push(name, parent, tag, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        let now = self.ns(Instant::now());
        self.spans[id as usize].end_ns = now;
    }

    /// Record a span whose interval was measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        tag: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(name, parent, tag, start_ns, end_ns)
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        tag: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            parent: parent.unwrap_or(NO_PARENT),
            tag,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time in µs per layer, the layer being the span name's prefix
    /// before the first `.`.
    pub fn self_time_us(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let own = (span.end_ns - span.start_ns).saturating_sub(child);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e3;
        }
        out
    }

    /// Write every span as one tab-separated line:
    /// `id parent name tag start_ns end_ns` (`parent` is `-` for roots).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\ttag\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Write the spans next to the build output, named after the run.
    pub fn write_for(&self, args: &crate::Args) {
        let path = crate::fixtures::cache_dir()
            .with_file_name("perfbench-traces")
            .join(format!("{}-seed{}.tsv", args.workload_name, args.seed));
        match self.write_tsv(&path) {
            Ok(()) => println!(
                "# trace: {} spans written to {}",
                self.len(),
                path.display()
            ),
            Err(e) => println!("# trace: could not write {}: {e}", path.display()),
        }
    }

    /// Share of `wall_s` spent recording spans, from the measured cost of
    /// recording one.
    pub fn overhead_share(&self, wall_s: f64) -> f64 {
        self.len() as f64 * Self::span_cost_ns() / (wall_s * 1e9)
    }

    /// Measured cost of recording one span (open + close), in ns.
    pub fn span_cost_ns() -> f64 {
        const N: usize = 50_000;
        let mut probe = Tracer::new();
        probe.spans.reserve(N);
        let start = Instant::now();
        for i in 0..N {
            let id = probe.open("probe", None, i as u64);
            probe.close(id);
        }
        start.elapsed().as_nanos() as f64 / N as f64
    }
}

/// Work counts of the replayed layers.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    pub batches: u64,
    pub batch_cols: u64,
    pub feature_cols: u64,
    pub feature_cells: u64,
    pub topic_tables: u64,
    pub topic_tokens: u64,
    pub nn_rows: u64,
    pub crf_chains: u64,
    pub crf_chain_cols: u64,
    pub mismatched_tables: u64,
}

/// Runs one micro-batch through `SatoPredictor::predict_batch` under a
/// `core.predict_batch` span, then replays the same batch layer by layer
/// through the layers' public calls, each under its own span:
///
/// * `features.extract` — `FeatureExtractor::extract_column_into`;
/// * `topic.estimate` — `TableIntentEstimator::estimate_cells_into` with the
///   artifact's sampler;
/// * `nn.forward` — `FrozenColumnwise::predict_proba_from_inputs`, a
///   **per-table** forward pass (the batched trunk is private);
/// * `crf.viterbi` — `LinearChainCrf::viterbi_flat`.
///
/// The replayed types must equal the `predict_batch` output.
pub struct LayerReplay<'p> {
    predictor: &'p SatoPredictor,
    extractor: FeatureExtractor,
    serving: ServingScratch,
    features: FeatureScratch,
    topic: TopicScratch,
    token_buf: String,
    token_ids: Vec<usize>,
    inputs: TableInputs,
    unary: Vec<f64>,
    pub counts: LayerCounts,
}

impl<'p> LayerReplay<'p> {
    pub fn new(predictor: &'p SatoPredictor) -> Self {
        LayerReplay {
            predictor,
            extractor: FeatureExtractor::new(predictor.config().features.clone()),
            serving: ServingScratch::new(),
            features: FeatureScratch::new(),
            topic: TopicScratch::new(),
            token_buf: String::new(),
            token_ids: Vec::new(),
            inputs: TableInputs {
                columns: Vec::new(),
                topic: None,
            },
            unary: Vec::new(),
            counts: LayerCounts::default(),
        }
    }

    /// Count a replay that disagreed with `predict_batch` as failures.
    pub fn check(&self, report: &mut crate::Report) {
        let n = self.counts.mismatched_tables;
        if n > 0 {
            report.errors.push(format!(
                "layer replay disagrees with predict_batch on {n} tables"
            ));
            report.failed += n;
        }
    }

    /// Predict one micro-batch and replay it; returns the `predict_batch`
    /// output.
    pub fn run<T: TableCells + ?Sized>(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
        batch: &[&T],
        tag: u64,
    ) -> Vec<TablePrediction> {
        let span = tracer.open("core.predict_batch", parent, tag);
        let out = self.predictor.predict_batch(batch, &mut self.serving);
        tracer.close(span);
        self.counts.batches += 1;
        self.counts.batch_cols += batch.iter().map(|t| t.cell_columns() as u64).sum::<u64>();

        let replay = tracer.open("replay.batch", parent, tag);
        for (table, served) in batch.iter().zip(&out) {
            let replayed = self.replay_table(tracer, replay, *table, tag);
            if replayed != served.predicted {
                self.counts.mismatched_tables += 1;
            }
        }
        tracer.close(replay);
        out
    }

    fn replay_table<T: TableCells + ?Sized>(
        &mut self,
        tracer: &mut Tracer,
        parent: SpanId,
        table: &T,
        tag: u64,
    ) -> Vec<SemanticType> {
        let columnwise = self.predictor.columnwise();
        let n = table.cell_columns();

        // Topic: count the tokens the estimator sees (outside the span),
        // then estimate.
        self.inputs.topic = None;
        if let Some(est) = columnwise
            .intent_estimator()
            .filter(|_| columnwise.uses_topic())
        {
            let vocab = est.model().vocabulary();
            self.token_ids.clear();
            table.for_each_cell(|v| {
                vocab.encode_value_into(v, &mut self.token_buf, &mut self.token_ids)
            });
            self.counts.topic_tokens += self.token_ids.len() as u64;
            self.counts.topic_tables += 1;
            let mut theta = vec![0.0f32; est.num_topics()];
            let span = tracer.open("topic.estimate", Some(parent), tag);
            est.estimate_cells_into(table, columnwise.sampler(), &mut self.topic, &mut theta);
            tracer.close(span);
            self.inputs.topic = Some(theta);
        }

        // Features, into buffers sized before the span opens.
        let dims = self.extractor.group_dims();
        let width = |g: FeatureGroup| dims.iter().find(|(d, _)| *d == g).map_or(0, |(_, w)| *w);
        self.inputs.columns.resize_with(n, || ColumnFeatures {
            char: vec![0.0; width(FeatureGroup::Char)],
            word: vec![0.0; width(FeatureGroup::Word)],
            para: vec![0.0; width(FeatureGroup::Para)],
            stat: vec![0.0; width(FeatureGroup::Stat)],
        });
        let span = tracer.open("features.extract", Some(parent), tag);
        for (c, f) in self.inputs.columns.iter_mut().enumerate() {
            let cells = table.cells(c);
            self.counts.feature_cells += cells.num_cells() as u64;
            self.extractor.extract_column_into(
                &cells,
                &mut self.features,
                &mut f.char,
                &mut f.word,
                &mut f.para,
                &mut f.stat,
            );
        }
        tracer.close(span);
        self.counts.feature_cols += n as u64;

        if n == 0 {
            return Vec::new();
        }
        let span = tracer.open("nn.forward", Some(parent), tag);
        let proba = columnwise.predict_proba_from_inputs(&self.inputs);
        tracer.close(span);
        self.counts.nn_rows += proba.len() as u64;

        match self.predictor.crf() {
            Some(crf) => {
                let span = tracer.open("crf.viterbi", Some(parent), tag);
                self.unary.clear();
                for row in &proba {
                    self.unary.extend(unary_from_proba(row));
                }
                let states = crf.viterbi_flat(&self.unary);
                tracer.close(span);
                self.counts.crf_chains += 1;
                self.counts.crf_chain_cols += states.len() as u64;
                states
                    .into_iter()
                    .map(|i| SemanticType::from_index(i).expect("state index in range"))
                    .collect()
            }
            None => sato::types_from_proba(&proba),
        }
    }
}
