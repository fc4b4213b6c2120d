//! `lake_bulk` and `lake_notopic`: one closed-loop caller annotates an
//! in-memory `SATOCOL1` lake of unique tables, pass after pass.
//!
//! The annotation loop is `ColStoreReader::read_into` +
//! `SatoPredictor::predict_batch` under the accumulate-until-`batch_cols`
//! rule of `predict_colstore`, written out so that each table's latency
//! (frame read to labels out) is observable; `predict_colstore` itself runs
//! once per run as part of the output check.

use crate::layers::{EndToEnd, LayerMetrics};
use crate::speed::Probe;
use crate::trace::{LayerReplay, Tracer};
use crate::{median, median_of_quantiles, quantile, sample_note, secs, timed_loads, Args, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sato::{SatoPredictor, ServingScratch, TablePrediction};
use sato_eval::Evaluation;
use sato_tabular::colstore::{corpus_to_bytes, ColStoreReader, TableBuf};
use sato_tabular::corpus::{CorpusConfig, CorpusGenerator};
use sato_tabular::intents::sample_intent;
use sato_tabular::table::{Corpus, Table};
use std::time::Instant;

/// Times the artifact is loaded to measure set-up.
const SETUP_REPS: usize = 15;
/// Passes over the lake a run makes at least.
const MIN_PASSES: usize = 8;
/// Lake table ids start here, apart from every other id the benchmark uses.
const LAKE_ID_BASE: u64 = 1 << 40;
/// Salt mixed into the workload seed for the lake generator.
const LAKE_SALT: u64 = 0x1a4e;

/// The shape of a lake workload.
pub struct LakeSpec {
    name: &'static str,
    shape: CorpusConfig,
    /// Whether tables join several table intents' columns side by side, all
    /// with the table's row count: the generator draws one intent's columns
    /// at most (about ten), fewer than `shape.max_columns`.
    wide: bool,
}

impl LakeSpec {
    /// Default generator shape: 40% singletons, 2-6 columns, 8-40 rows.
    pub fn bulk() -> Self {
        LakeSpec {
            name: "lake_bulk",
            shape: CorpusConfig {
                num_tables: 2000,
                ..CorpusConfig::default()
            },
            wide: false,
        }
    }

    /// Wide tables, no singletons: 12-30 columns, 8-40 rows.
    pub fn notopic() -> Self {
        LakeSpec {
            name: "lake_notopic",
            shape: CorpusConfig {
                num_tables: 300,
                singleton_fraction: 0.0,
                min_columns: 12,
                max_columns: 30,
                ..CorpusConfig::default()
            },
            wide: true,
        }
    }

    pub fn describe(&self) -> String {
        let s = &self.shape;
        format!(
            "{}: {} unique tables, {:.0}% singletons, {}-{} columns{}, {}-{} rows, {:.0}% missing cells; one in-memory SATOCOL1 stream; batch_cols {}",
            self.name,
            s.num_tables,
            100.0 * s.singleton_fraction,
            s.min_columns,
            s.max_columns,
            if self.wide {
                " (several table intents side by side)"
            } else {
                ""
            },
            s.min_rows,
            s.max_rows,
            100.0 * s.missing_cell_rate,
            batch_cols()
        )
    }

    /// The lake for `seed`, every table with its own id.
    fn generate(&self, seed: u64) -> Corpus {
        let generator = CorpusGenerator::new(CorpusConfig {
            seed: seed ^ LAKE_SALT,
            ..self.shape.clone()
        });
        let mut corpus = if self.wide {
            let mut rng = StdRng::seed_from_u64(seed ^ LAKE_SALT);
            let s = &self.shape;
            let tables = (0..s.num_tables)
                .map(|_| {
                    let width = rng.gen_range(s.min_columns..=s.max_columns);
                    let rows = rng.gen_range(s.min_rows..=s.max_rows);
                    let (mut columns, mut labels) = (Vec::new(), Vec::new());
                    while columns.len() < width {
                        let intent = sample_intent(&mut rng);
                        let part = generator.generate_table_with(
                            0,
                            intent,
                            width - columns.len(),
                            rows,
                            &mut rng,
                        );
                        columns.extend(part.columns);
                        labels.extend(part.labels);
                    }
                    Table::labelled(0, columns, labels)
                })
                .collect();
            Corpus::new(tables)
        } else {
            generator.generate()
        };
        for (i, table) in corpus.tables.iter_mut().enumerate() {
            table.id = LAKE_ID_BASE + i as u64;
        }
        corpus
    }
}

/// Columns per micro-batch: the serving default, so bulk and online
/// annotation batch alike.
fn batch_cols() -> usize {
    sato_serve::ServiceConfig::default().batch_cols
}

/// What one pass over the lake observed.
struct Pass {
    seconds: f64,
    cols: u64,
    /// Per-table latency, frame read to labels out, in ms.
    table_ms: Vec<f64>,
    mismatches: u64,
    tables: u64,
    /// Machine-speed probe readings, one after each micro-batch.
    probe_ns: Vec<f64>,
}

impl Pass {
    fn probe_ns(&self) -> f64 {
        median(&self.probe_ns)
    }
}

/// Annotate the whole lake once. With a tracer, every frame read records a
/// `tabular.decode` span and every micro-batch goes through the layer
/// replay under a `lake.batch` span.
fn pass(
    predictor: &SatoPredictor,
    lake: &[u8],
    reference: &[TablePrediction],
    scratch: &mut ServingScratch,
    mut traced: Option<(&mut Tracer, &mut LayerReplay)>,
    probe: &Probe,
) -> Result<Pass, String> {
    let batch_cols = batch_cols();
    let start = Instant::now();
    let mut reader = ColStoreReader::new(lake).map_err(|e| format!("lake header: {e}"))?;
    let mut pool: Vec<TableBuf> = Vec::new();
    let mut read_at: Vec<Instant> = Vec::new();
    let (mut used, mut pending_cols) = (0usize, 0usize);
    let mut out = Pass {
        seconds: 0.0,
        cols: 0,
        table_ms: Vec::with_capacity(reference.len()),
        mismatches: 0,
        tables: 0,
        probe_ns: Vec::new(),
    };
    let mut batch_span = None;
    let mut batch_no = 0u64;
    loop {
        if used == pool.len() {
            pool.push(TableBuf::new());
            read_at.push(start);
        }
        read_at[used] = Instant::now();
        if let Some((tracer, _)) = traced.as_mut() {
            if batch_span.is_none() {
                batch_span = Some(tracer.open("lake.batch", None, batch_no));
            }
        }
        let more = reader
            .read_into(&mut pool[used])
            .map_err(|e| format!("lake frame: {e}"))?;
        if let Some((tracer, _)) = traced.as_mut() {
            tracer.record(
                "tabular.decode",
                batch_span,
                batch_no,
                read_at[used],
                Instant::now(),
            );
        }
        if more {
            pending_cols += pool[used].num_columns();
            used += 1;
        }
        if used > 0 && (pending_cols >= batch_cols || !more) {
            let batch: Vec<&TableBuf> = pool[..used].iter().collect();
            let predictions = match traced.as_mut() {
                Some((tracer, replay)) => replay.run(tracer, batch_span, &batch, batch_no),
                None => predictor.predict_batch(&batch, scratch),
            };
            let done = Instant::now();
            for (i, got) in predictions.iter().enumerate() {
                let idx = out.tables as usize;
                out.table_ms
                    .push(done.duration_since(read_at[i]).as_secs_f64() * 1e3);
                out.cols += got.predicted.len() as u64;
                if reference.get(idx) != Some(got) {
                    out.mismatches += 1;
                }
                out.tables += 1;
            }
            used = 0;
            pending_cols = 0;
            batch_no += 1;
            out.probe_ns.push(probe.run());
        }
        if let (Some((tracer, _)), Some(span)) = (traced.as_mut(), batch_span) {
            if used == 0 {
                tracer.close(span);
                batch_span = None;
            }
        }
        if !more {
            break;
        }
    }
    out.seconds = secs(start) - out.probe_ns.iter().sum::<f64>() / 1e9;
    if out.tables as usize != reference.len() {
        out.mismatches += (reference.len() as u64).abs_diff(out.tables);
    }
    Ok(out)
}

pub fn run(args: &Args, spec: &LakeSpec, artifact: &[u8]) -> Report {
    let mut report = Report::default();
    let probe = Probe::new();
    let (predictor, setup_s, setup_ref_s) = match timed_loads(artifact, SETUP_REPS, &probe) {
        Ok(loaded) => loaded,
        Err(e) => {
            report.errors.push(e);
            return report;
        }
    };

    let corpus = spec.generate(args.seed);
    let lake = corpus_to_bytes(&corpus);
    let reference = predictor.predict_corpus(&corpus);
    let quality = Evaluation::from_tables(
        reference
            .iter()
            .map(|p| (p.gold.as_slice(), p.predicted.as_slice())),
    )
    .macro_f1;
    let t = Instant::now();
    match predictor.predict_colstore(
        &mut ColStoreReader::new(lake.as_slice()).expect("lake header"),
        batch_cols(),
        &mut ServingScratch::new(),
    ) {
        Ok(served) if served == reference => {}
        Ok(_) => report
            .errors
            .push("predict_colstore differs from predict_corpus".into()),
        Err(e) => report.errors.push(format!("predict_colstore: {e}")),
    }
    println!(
        "# check: predict_colstore over the lake equals predict_corpus ({:.0} cols/s, untimed)",
        corpus.num_columns() as f64 / secs(t)
    );
    println!(
        "# lake: {} tables, {} columns, {} bytes",
        corpus.len(),
        corpus.num_columns(),
        lake.len()
    );
    drop(corpus);

    let mut tracer = Tracer::new();
    let mut replay = LayerReplay::new(&predictor);
    let mut scratch = ServingScratch::new();
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_PASSES || secs(start) < args.seconds {
        let traced = args.trace.then_some((&mut tracer, &mut replay));
        match pass(&predictor, &lake, &reference, &mut scratch, traced, &probe) {
            Ok(p) => passes.push(p),
            Err(e) => {
                report.errors.push(e);
                break;
            }
        }
    }
    let wall = secs(start);
    report.attempted = passes.iter().map(|p| p.tables).sum();
    report.failed = passes.iter().map(|p| p.mismatches).sum();
    if report.failed > 0 {
        report.errors.push(format!(
            "{} bulk predictions differ from predict_corpus",
            report.failed
        ));
    }
    replay.check(&mut report);

    // Each pass is one slice, scaled to reference machine speed by the
    // probes taken during it: the run reports the median pass rate and the
    // median over chunks of passes of the scaled per-table latency quantiles.
    let raw_rates: Vec<f64> = passes.iter().map(|p| p.cols as f64 / p.seconds).collect();
    let rates: Vec<f64> = passes
        .iter()
        .zip(&raw_rates)
        .map(|(p, &r)| probe.ref_rate(r, p.probe_ns()))
        .collect();
    let table_ms: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| {
            p.table_ms
                .iter()
                .map(|&ms| probe.ref_time(ms, p.probe_ns()))
                .collect()
        })
        .collect();
    let probes: Vec<f64> = passes.iter().map(Pass::probe_ns).collect();
    println!(
        "# {} passes; per-table latency {}; probe median {:.0} ns; raw pass cols/s min {:.0} median {:.0} max {:.0}; raw setup {:.6} s",
        passes.len(),
        sample_note(table_ms.iter().map(Vec::len).sum()),
        median(&probes),
        quantile(&raw_rates, 0.0),
        median(&raw_rates),
        quantile(&raw_rates, 1.0),
        median(&setup_s)
    );
    println!(
        "# named figures (reference speed): bulk_cols_per_s={} macro_f1={quality}",
        median(&rates)
    );

    if args.trace {
        let n = passes.len().max(1) as f64;
        let mut layers = LayerMetrics {
            core_artifact_load_us: median(&setup_s) * 1e6,
            tabular_frames: (passes.iter().map(|p| p.tables).sum::<u64>()) as f64 / n,
            tabular_bytes: lake.len() as f64,
            trace_overhead_share: tracer.overhead_share(wall),
            speed_probe_ns: median(&probes),
            fail_share: report.failed as f64 / report.attempted.max(1) as f64,
            ..LayerMetrics::default()
        };
        layers.set_replay(&tracer, &replay.counts, n);
        layers.tabular_decode_us = tracer.self_time_us().get("tabular").copied().unwrap_or(0.0) / n;
        println!(
            "# nn.busy_us is a per-table forward pass (FrozenColumnwise::predict_proba_from_inputs): the batched trunk is private"
        );
        tracer.write_for(args);
        report.metrics = layers.metrics();
    } else {
        report.metrics = EndToEnd {
            setup_s: median(&setup_ref_s),
            peak_rss_mb: crate::peak_rss_mb(),
            p50_ms: median_of_quantiles(&table_ms, 0.5),
            p99_ms: median_of_quantiles(&table_ms, 0.99),
            throughput_per_s: median(&rates),
            quality,
        }
        .metrics();
    }
    report
}
