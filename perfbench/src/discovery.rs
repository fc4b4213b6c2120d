//! `discovery`: an `HnswIndex` is built by inserting column embeddings that
//! were computed, untimed, before the run (writes); held-out kNN queries
//! then run one at a time (reads); finally the index is saved and reloaded
//! through `save` / `load_sidecar`. The cycle repeats until the run's time
//! is used.

use crate::layers::{EndToEnd, LayerMetrics};
use crate::speed::Probe;
use crate::trace::Tracer;
use crate::{median, median_of_quantiles, quantile, sample_note, secs, timed_loads, Args, Report};
use sato::{SatoPredictor, ServingScratch};
use sato_index::{ColumnRef, HnswConfig, HnswIndex, Neighbor};
use sato_tabular::corpus::{CorpusConfig, CorpusGenerator};
use sato_tabular::table::Corpus;
use std::time::Instant;

/// Tables whose columns are inserted, and held-out tables whose columns
/// are the queries (default generator shape).
const BUILD_TABLES: usize = 2500;
const QUERY_TABLES: usize = 900;
const K: usize = 10;
/// Times the artifact is loaded to measure set-up.
const SETUP_REPS: usize = 15;
const MIN_CYCLES: usize = 5;
const DISCOVERY_ID_BASE: u64 = 3 << 40;
const DISCOVERY_SALT: u64 = 0xd15c;

pub fn shape() -> String {
    format!(
        "discovery: embeddings of {BUILD_TABLES} unique default-shape tables inserted into HnswIndex (HnswConfig::default()), {QUERY_TABLES} held-out tables' columns queried one at a time for k={K} (recall against search_exact), then save + load_sidecar; Full artifact"
    )
}

type Embedded = Vec<(ColumnRef, Vec<f32>)>;

fn embed(predictor: &SatoPredictor, corpus: &Corpus) -> Embedded {
    let mut out = Vec::new();
    predictor.embed_corpus_batched_with(
        corpus,
        sato_serve::ServiceConfig::default().batch_cols,
        &mut ServingScratch::new(),
        |table_id, col_idx, row| out.push((ColumnRef { table_id, col_idx }, row.to_vec())),
    );
    out
}

fn keys(neighbors: &[Neighbor]) -> Vec<ColumnRef> {
    neighbors.iter().map(|n| n.key).collect()
}

/// What one build/query/save/load cycle observed.
struct Cycle {
    build_s: f64,
    insert_us: Vec<f64>,
    query_ms: Vec<f64>,
    exact_us: Vec<f64>,
    answers: Vec<Vec<ColumnRef>>,
    recall: f64,
    save_us: f64,
    load_us: f64,
    sidecar_bytes: u64,
    /// Machine-speed probe readings taken during the cycle.
    probe_ns: Vec<f64>,
}

/// Inserts or queries between two machine-speed probes.
const PROBE_EVERY: usize = 500;

/// What every cycle works on.
struct Inputs {
    hash: u64,
    dim: usize,
    inserts: Embedded,
    queries: Embedded,
    sidecar: std::path::PathBuf,
    probe: Probe,
}

fn cycle(
    input: &Inputs,
    tracer: &mut Option<&mut Tracer>,
    tag: u64,
    errors: &mut Vec<String>,
) -> Cycle {
    let Inputs {
        hash,
        dim,
        inserts,
        queries,
        sidecar,
        probe,
    } = input;
    let (hash, dim) = (*hash, *dim);
    let root = tracer
        .as_mut()
        .map(|t| t.open("discovery.cycle", None, tag));
    let span = |tracer: &mut Option<&mut Tracer>, name, start, end| {
        if let Some(t) = tracer.as_mut() {
            t.record(name, root, tag, start, end);
        }
    };

    let mut index = HnswIndex::new(dim, hash, HnswConfig::default());
    let mut insert_us = Vec::with_capacity(inserts.len());
    let mut probe_ns = Vec::new();
    let build = Instant::now();
    for (n, (key, vector)) in inserts.iter().enumerate() {
        if n % PROBE_EVERY == PROBE_EVERY - 1 {
            probe_ns.push(probe.run());
        }
        let t = Instant::now();
        let fresh = index.insert(*key, vector);
        let done = Instant::now();
        insert_us.push(done.duration_since(t).as_secs_f64() * 1e6);
        span(tracer, "index.insert", t, done);
        if !fresh {
            errors.push(format!("insert of new column {key:?} reported a duplicate"));
        }
    }
    let build_s = secs(build) - probe_ns.iter().sum::<f64>() / 1e9;

    let mut query_ms = Vec::with_capacity(queries.len());
    let mut answers = Vec::with_capacity(queries.len());
    for (n, (_, q)) in queries.iter().enumerate() {
        if n % PROBE_EVERY == PROBE_EVERY - 1 {
            probe_ns.push(probe.run());
        }
        let t = Instant::now();
        let ann = index.search_knn(q, K);
        let done = Instant::now();
        query_ms.push(done.duration_since(t).as_secs_f64() * 1e3);
        span(tracer, "index.search", t, done);
        answers.push(keys(&ann));
    }

    // Construction is deterministic, so every cycle answers alike: the
    // exact oracle runs in the first cycle only.
    let (mut exact_us, mut hits) = (Vec::new(), 0usize);
    if tag == 0 {
        for ((_, q), ann) in queries.iter().zip(&answers) {
            let t = Instant::now();
            let exact = index.search_exact(q, K);
            let done = Instant::now();
            exact_us.push(done.duration_since(t).as_secs_f64() * 1e6);
            span(tracer, "index.exact_search", t, done);
            let truth = keys(&exact);
            hits += ann.iter().filter(|key| truth.contains(key)).count();
        }
    }
    let recall = hits as f64 / (K * queries.len().max(1)) as f64;

    let save_start = Instant::now();
    if let Err(e) = index.save(sidecar) {
        errors.push(format!("save: {e}"));
    }
    let saved = Instant::now();
    span(tracer, "index.save", save_start, saved);
    let sidecar_bytes = std::fs::metadata(sidecar).map_or(0, |m| m.len());
    let load_start = Instant::now();
    let loaded = HnswIndex::load_sidecar(sidecar, hash);
    let loaded_at = Instant::now();
    span(tracer, "index.load", load_start, loaded_at);
    match loaded {
        Ok(loaded) => {
            let same = loaded.len() == index.len()
                && queries
                    .iter()
                    .zip(&answers)
                    .all(|((_, q), a)| keys(&loaded.search_knn(q, K)) == *a);
            if !same {
                errors.push("reloaded index answers differently".into());
            }
        }
        Err(e) => errors.push(format!("load_sidecar: {e}")),
    }
    if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
        t.close(root);
    }
    Cycle {
        build_s,
        insert_us,
        query_ms,
        exact_us,
        answers,
        recall,
        save_us: saved.duration_since(save_start).as_secs_f64() * 1e6,
        load_us: loaded_at.duration_since(load_start).as_secs_f64() * 1e6,
        sidecar_bytes,
        probe_ns,
    }
}

pub fn run(args: &Args, artifact: &[u8]) -> Report {
    let mut report = Report::default();
    let probe = Probe::new();
    let (predictor, load_s, load_ref_s) = match timed_loads(artifact, SETUP_REPS, &probe) {
        Ok(loaded) => loaded,
        Err(e) => {
            report.errors.push(e);
            return report;
        }
    };
    let hash = predictor.content_hash();

    let mut corpus = CorpusGenerator::new(CorpusConfig {
        num_tables: BUILD_TABLES + QUERY_TABLES,
        seed: args.seed ^ DISCOVERY_SALT,
        ..CorpusConfig::default()
    })
    .generate();
    for (i, t) in corpus.tables.iter_mut().enumerate() {
        t.id = DISCOVERY_ID_BASE + i as u64;
    }
    let held_out = Corpus::new(corpus.tables.split_off(BUILD_TABLES));
    let inserts = embed(&predictor, &corpus);
    let queries = embed(&predictor, &held_out);
    let dim = predictor.embedding_dim();
    println!(
        "# index: {} inserted columns, {} query columns, dim {dim}",
        inserts.len(),
        queries.len()
    );

    let sidecar = crate::fixtures::cache_dir()
        .with_file_name("perfbench-sidecars")
        .join(format!("discovery-{}.satoidx", std::process::id()));
    if let Some(dir) = sidecar.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            report.errors.push(format!("create {}: {e}", dir.display()));
            return report;
        }
    }

    let input = Inputs {
        hash,
        dim,
        inserts,
        queries,
        sidecar,
        probe,
    };
    let mut tracer = Tracer::new();
    let mut cycles: Vec<Cycle> = Vec::new();
    let start = Instant::now();
    while cycles.len() < MIN_CYCLES || secs(start) < args.seconds {
        let mut traced = args.trace.then_some(&mut tracer);
        let tag = cycles.len() as u64;
        let c = cycle(&input, &mut traced, tag, &mut report.errors);
        // Construction is deterministic: every cycle must answer alike.
        if let Some(first) = cycles.first() {
            if first.answers != c.answers {
                report
                    .errors
                    .push(format!("cycle {tag} answers differ from cycle 0"));
            }
        }
        cycles.push(c);
    }
    let wall = secs(start);
    let _ = std::fs::remove_file(&input.sidecar);

    let per_cycle = input.inserts.len() + input.queries.len() + 2;
    report.attempted = (cycles.len() * per_cycle) as u64;
    report.failed = report.errors.len() as u64;

    // Each cycle is one slice, scaled to reference machine speed by the
    // probes taken during it: the run reports the median build rate and the
    // median over chunks of cycles of the scaled query latency quantiles.
    let cycle_probe = |c: &Cycle| median(&c.probe_ns);
    let raw_rates: Vec<f64> = cycles
        .iter()
        .map(|c| input.inserts.len() as f64 / c.build_s)
        .collect();
    let rates: Vec<f64> = cycles
        .iter()
        .zip(&raw_rates)
        .map(|(c, &r)| input.probe.ref_rate(r, cycle_probe(c)))
        .collect();
    let query_ms: Vec<Vec<f64>> = cycles
        .iter()
        .map(|c| {
            c.query_ms
                .iter()
                .map(|&ms| input.probe.ref_time(ms, cycle_probe(c)))
                .collect()
        })
        .collect();
    let load_us: Vec<f64> = cycles.iter().map(|c| c.load_us).collect();
    let load_ref_us: Vec<f64> = cycles
        .iter()
        .map(|c| input.probe.ref_time(c.load_us, cycle_probe(c)))
        .collect();
    let recall = cycles[0].recall;
    let probes: Vec<f64> = cycles.iter().map(cycle_probe).collect();
    println!(
        "# {} cycles; queries {}; probe median {:.0} ns; raw build cols/s min {:.0} median {:.0} max {:.0}; raw query p50 {:.1} us",
        cycles.len(),
        sample_note(query_ms.iter().map(Vec::len).sum()),
        median(&probes),
        quantile(&raw_rates, 0.0),
        median(&raw_rates),
        quantile(&raw_rates, 1.0),
        median(&cycles.iter().map(|c| quantile(&c.query_ms, 0.5)).collect::<Vec<_>>()) * 1e3
    );
    println!(
        "# named figures (reference speed): index_build_cols_per_s={} query_p50_us={} query_p99_us={} recall_at_10={recall}",
        median(&rates),
        median_of_quantiles(&query_ms, 0.5) * 1e3,
        median_of_quantiles(&query_ms, 0.99) * 1e3
    );

    if args.trace {
        let flat = |f: fn(&Cycle) -> &Vec<f64>| -> Vec<f64> {
            cycles.iter().flat_map(|c| f(c).iter().copied()).collect()
        };
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
        report.metrics = LayerMetrics {
            core_artifact_load_us: median(&load_s) * 1e6,
            index_insert_us: mean(flat(|c| &c.insert_us)),
            index_inserts: input.inserts.len() as f64,
            index_search_us: mean(flat(|c| &c.query_ms)) * 1e3,
            index_exact_search_us: mean(flat(|c| &c.exact_us)),
            index_save_us: median(&cycles.iter().map(|c| c.save_us).collect::<Vec<_>>()),
            index_load_us: median(&load_us),
            index_sidecar_bytes: cycles[0].sidecar_bytes as f64,
            trace_overhead_share: tracer.overhead_share(wall),
            speed_probe_ns: median(&probes),
            fail_share: report.failed as f64 / report.attempted.max(1) as f64,
            ..LayerMetrics::default()
        }
        .metrics();
        tracer.write_for(args);
    } else {
        report.metrics = EndToEnd {
            setup_s: median(&load_ref_s) + median(&load_ref_us) / 1e6,
            peak_rss_mb: crate::peak_rss_mb(),
            p50_ms: median_of_quantiles(&query_ms, 0.5),
            p99_ms: median_of_quantiles(&query_ms, 0.99),
            throughput_per_s: median(&rates),
            quality: recall,
        }
        .metrics();
    }
    report
}
