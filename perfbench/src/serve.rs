//! `serve_online`: seeded Poisson arrivals of single-table requests into
//! `SatoService` (`ServiceConfig::default()`, Full artifact, dense
//! sampler): open-loop slices at two fixed rates and closed-loop slices at
//! capacity, in rounds.
//!
//! Each request is timed from when it was due, from raw per-request
//! samples: the generator's own lateness is part of the latency, and the
//! service's completion time is `submit + AnnotationResponse::latency`.

use crate::layers::{EndToEnd, LayerMetrics};
use crate::speed::{pin_to_one_core, Probe};
use crate::trace::{LayerReplay, Tracer};
use crate::{median, median_of_quantiles, quantile, sample_note, secs, Args, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sato::{SatoPredictor, TablePrediction};
use sato_eval::Evaluation;
use sato_serve::{
    AnnotationResponse, RequestOptions, ResponseHandle, SatoService, ServeError, ServiceConfig,
    ServiceStats,
};
use sato_tabular::corpus::{CorpusConfig, CorpusGenerator};
use sato_tabular::table::Table;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// The `low` and `high` offered rates, requests/s: about a quarter and two
/// thirds of the highest rate the service sustained with p99 within 20 ms
/// at the commit that introduced the benchmark (about 950 req/s on 2
/// cores). Frozen, so every commit is offered the same load.
pub const LOW_RPS: f64 = 250.0;
pub const HIGH_RPS: f64 = 650.0;
/// Requests submitted at once in each capacity burst (below the default
/// admission bound of 256, so nothing is refused).
const BURST: usize = 128;
/// Share of requests that resubmit an earlier request's cells under a new id.
const REPEAT_SHARE: f64 = 0.25;
/// One round is a slice at each rate plus a capacity slice; rounds repeat
/// until the run's time is used, so interference from other tenants of
/// the machine spreads over all three figures alike. The high slice holds
/// enough requests to support a p99.
const LOW_SLICE_S: f64 = 1.0;
const HIGH_SLICE_REQUESTS: f64 = 1000.0;
const CAPACITY_SLICE_S: f64 = 1.5;
const MIN_ROUNDS: usize = 3;
/// Distinct tables the requests draw their cells from.
const POOL_TABLES: usize = 4000;
/// Request table ids start here, apart from every other id the benchmark
/// uses.
const SERVE_ID_BASE: u64 = 2 << 40;
const SERVE_SALT: u64 = 0x5e7e;

pub fn shape() -> String {
    format!(
        "serve_online: single-table requests drawn from {POOL_TABLES} default-shape tables (40% singletons, 2-6 columns, 8-40 rows); {:.0}% resubmit an earlier request's cells under a new id; rounds of open-loop Poisson slices at low={LOW_RPS} req/s ({LOW_SLICE_S} s) and high={HIGH_RPS} req/s ({HIGH_SLICE_REQUESTS} requests), then {CAPACITY_SLICE_S} s of bursts of {BURST} requests submitted at once; ServiceConfig::default(), Full artifact, dense sampler",
        100.0 * REPEAT_SHARE
    )
}

/// One scheduled request.
struct Request {
    /// Seconds after the phase start at which the request is due.
    due_s: f64,
    /// Index of the request's cells in the table pool.
    src: usize,
    id: u64,
}

/// Seeded Poisson schedule at `rate` for `seconds`. Every request gets its
/// own table id; a `REPEAT_SHARE` of them reuse an earlier request's cells.
fn schedule(rng: &mut StdRng, rate: f64, seconds: f64, next_id: &mut u64) -> Vec<Request> {
    let mut out: Vec<Request> = Vec::new();
    let (mut t, mut fresh) = (0.0f64, 0usize);
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= seconds {
            return out;
        }
        let src = if !out.is_empty() && rng.gen_bool(REPEAT_SHARE) {
            out[rng.gen_range(0..out.len())].src
        } else {
            fresh += 1;
            (fresh - 1) % POOL_TABLES
        };
        out.push(Request {
            due_s: t,
            src,
            id: *next_id,
        });
        *next_id += 1;
    }
}

fn content_hash(table: &Table) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for column in &table.columns {
        column.values.hash(&mut h);
    }
    h.finish()
}

/// What one phase observed.
#[derive(Default)]
struct Phase {
    /// Per request, in schedule order: latency from its due time to its
    /// response in ms (NaN when it was refused).
    lat_ms: Vec<f64>,
    /// Generator lateness (submit start − due), µs.
    lag_us: Vec<f64>,
    submit_us: Vec<f64>,
    service_us: Vec<f64>,
    attempted: u64,
    /// Refused, expired, poisoned or errored requests.
    refused: u64,
    /// Responses with a wrong prediction or artifact hash.
    wrong: u64,
    repeats: u64,
    /// Capacity slices: requests answered per second of burst time.
    rate: f64,
    stats: Option<ServiceStats>,
    /// `(pool index, request index)` of every answered request.
    served: Vec<(usize, usize)>,
    /// Set-up time: artifact load plus service start, raw and at reference
    /// machine speed.
    setup_s: f64,
    setup_ref_s: f64,
}

impl Phase {
    fn answered(&self) -> Vec<f64> {
        self.lat_ms
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect()
    }
}

struct Ctx<'a> {
    artifact: &'a [u8],
    probe: Probe,
    pool: &'a [Table],
    /// Content hash of each pool table's cells.
    pool_hashes: Vec<u64>,
    reference: &'a [TablePrediction],
    expected_hash: u64,
}

impl Ctx<'_> {
    /// The table of `req`, under the request's id, and whether its cells
    /// repeat an earlier request's.
    fn table(&self, req: &Request, seen: &mut HashSet<u64>) -> (Table, bool) {
        let mut t = self.pool[req.src].clone();
        t.id = req.id;
        let repeat = !seen.insert(self.pool_hashes[req.src]);
        (t, repeat)
    }

    /// Load the artifact and start a service, timing both as set-up, at
    /// reference machine speed.
    fn start(&self, phase: &mut Phase) -> Result<SatoService, String> {
        let probe_ns = self.probe.run();
        let t = Instant::now();
        let predictor =
            SatoPredictor::from_bytes(self.artifact).map_err(|e| format!("artifact load: {e}"))?;
        let service = SatoService::start(predictor, ServiceConfig::default());
        phase.setup_s = secs(t);
        phase.setup_ref_s = self.probe.ref_time(phase.setup_s, probe_ns);
        Ok(service)
    }

    /// Check one answered request and record its latency from due time.
    #[allow(clippy::too_many_arguments)]
    fn settle(
        &self,
        phase: &mut Phase,
        i: usize,
        req: &Request,
        due: Instant,
        submitted: Instant,
        result: Result<AnnotationResponse, ServeError>,
        tracer: &mut Option<&mut Tracer>,
    ) {
        let Ok(resp) = result else {
            phase.refused += 1;
            return;
        };
        let expected = &self.reference[req.src];
        let ok = resp.artifact_hash == self.expected_hash
            && resp.predictions.len() == 1
            && resp.predictions[0].table_id == req.id
            && resp.predictions[0].predicted == expected.predicted
            && resp.predictions[0].gold == expected.gold;
        if !ok {
            phase.wrong += 1;
        }
        let done = submitted + resp.latency;
        phase.lat_ms[i] = done.saturating_duration_since(due).as_secs_f64() * 1e3;
        phase.service_us.push(resp.latency.as_secs_f64() * 1e6);
        phase.served.push((req.src, i));
        if let Some(tr) = tracer.as_mut() {
            tr.record("serve.request", None, req.id, due, done);
        }
    }
}

/// Offer `reqs` to a freshly started service on their schedule, never
/// waiting for a response before sending the next request.
fn run_phase(
    ctx: &Ctx,
    reqs: &[Request],
    mut tracer: Option<&mut Tracer>,
) -> Result<Phase, String> {
    let mut phase = Phase {
        lat_ms: vec![f64::NAN; reqs.len()],
        ..Phase::default()
    };
    // Tables are built before the clock starts, so the generator stays
    // punctual.
    let mut seen = HashSet::new();
    let mut tables: Vec<Option<(Table, bool)>> =
        reqs.iter().map(|r| Some(ctx.table(r, &mut seen))).collect();
    let service = ctx.start(&mut phase)?;

    let mut pending: VecDeque<(usize, Instant, ResponseHandle)> = VecDeque::new();
    let start = Instant::now();
    let due_of = |i: usize| start + Duration::from_secs_f64(reqs[i].due_s);
    for (i, req) in reqs.iter().enumerate() {
        let due = due_of(i);
        loop {
            while let Some(result) = pending
                .front()
                .and_then(|(_, _, h)| h.wait_timeout(Duration::ZERO))
            {
                let (j, submitted, _) = pending.pop_front().expect("front exists");
                ctx.settle(
                    &mut phase,
                    j,
                    &reqs[j],
                    due_of(j),
                    submitted,
                    result,
                    &mut tracer,
                );
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            // Sleep most of the gap, spin the rest: sleeps overshoot.
            let left = due - now;
            if left > Duration::from_micros(300) {
                std::thread::sleep(left - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        let (table, repeat) = tables[i].take().expect("each request is submitted once");
        phase.repeats += u64::from(repeat);
        let submitted = Instant::now();
        let handle = service.submit_table(table, RequestOptions::default());
        let submit_end = Instant::now();
        phase.attempted += 1;
        phase
            .lag_us
            .push(submitted.duration_since(due).as_secs_f64() * 1e6);
        phase
            .submit_us
            .push(submit_end.duration_since(submitted).as_secs_f64() * 1e6);
        if let Some(tr) = tracer.as_mut() {
            tr.record("serve.submit", None, req.id, submitted, submit_end);
        }
        match handle {
            Ok(h) => pending.push_back((i, submitted, h)),
            Err(_) => phase.refused += 1,
        }
    }
    while let Some((j, submitted, handle)) = pending.pop_front() {
        ctx.settle(
            &mut phase,
            j,
            &reqs[j],
            due_of(j),
            submitted,
            handle.wait(),
            &mut tracer,
        );
    }
    phase.stats = Some(service.shutdown());
    Ok(phase)
}

/// One burst of the capacity slice, scaled to reference machine speed.
struct Burst {
    rate: f64,
    lat_ms: Vec<f64>,
    probe_ns: f64,
}

/// Capacity in bursts: submit `BURST` requests at once, wait for every
/// answer, repeat for `seconds` of burst time. The machine-speed probe runs
/// in the gaps, while the service is idle, on the core the process is
/// pinned to (see `pin_to_one_core`).
fn run_capacity(
    ctx: &Ctx,
    reqs: &[Request],
    seconds: f64,
    bursts: &mut Vec<Burst>,
) -> Result<Phase, String> {
    let probe = &ctx.probe;
    let mut phase = Phase {
        lat_ms: vec![f64::NAN; reqs.len()],
        ..Phase::default()
    };
    let mut seen = HashSet::new();
    let service = ctx.start(&mut phase)?;
    let mut none = None;
    let (mut busy_s, mut next) = (0.0f64, 0usize);
    let mut before = probe.run();
    while busy_s < seconds && next + BURST <= reqs.len() {
        let first = phase.served.len();
        let start = Instant::now();
        let mut pending = Vec::with_capacity(BURST);
        for (j, req) in reqs.iter().enumerate().skip(next).take(BURST) {
            let (table, repeat) = ctx.table(req, &mut seen);
            phase.repeats += u64::from(repeat);
            phase.attempted += 1;
            let submitted = Instant::now();
            match service.submit_table(table, RequestOptions::default()) {
                Ok(h) => pending.push((j, submitted, h)),
                Err(_) => phase.refused += 1,
            }
        }
        for (j, submitted, handle) in pending {
            ctx.settle(
                &mut phase,
                j,
                &reqs[j],
                start,
                submitted,
                handle.wait(),
                &mut none,
            );
        }
        let burst_s = secs(start);
        busy_s += burst_s;
        next += BURST;
        let after = probe.run();
        let probe_ns = (before + after) / 2.0;
        before = after;
        bursts.push(Burst {
            rate: probe.ref_rate((phase.served.len() - first) as f64 / burst_s, probe_ns),
            lat_ms: phase.lat_ms[next - BURST..next]
                .iter()
                .filter(|v| v.is_finite())
                .map(|&ms| probe.ref_time(ms, probe_ns))
                .collect(),
            probe_ns,
        });
    }
    phase.rate = phase.served.len() as f64 / busy_s.max(1e-9);
    phase.stats = Some(service.shutdown());
    Ok(phase)
}

pub fn run(args: &Args, artifact: &[u8]) -> Report {
    measure(args, artifact).unwrap_or_else(|e| Report {
        errors: vec![e],
        ..Report::default()
    })
}

/// The slices of one round.
struct Round {
    low: Phase,
    high: Phase,
    capacity: Phase,
}

fn measure(args: &Args, artifact: &[u8]) -> Result<Report, String> {
    let mut report = Report::default();
    match pin_to_one_core() {
        Some(cpu) => println!("# pinned to cpu {cpu} with the service it starts"),
        None => println!("# could not pin to one core: capacity figures are less steady"),
    }
    let predictor =
        SatoPredictor::from_bytes(artifact).map_err(|e| format!("artifact load: {e}"))?;
    let mut corpus = CorpusGenerator::new(CorpusConfig {
        num_tables: POOL_TABLES,
        seed: args.seed ^ SERVE_SALT,
        ..CorpusConfig::default()
    })
    .generate();
    for (i, table) in corpus.tables.iter_mut().enumerate() {
        table.id = SERVE_ID_BASE - 1 - i as u64;
    }
    let reference = predictor.predict_corpus(&corpus);
    let pool = corpus.tables;
    let ctx = Ctx {
        artifact,
        probe: Probe::new(),
        pool_hashes: pool.iter().map(content_hash).collect(),
        pool: &pool,
        reference: &reference,
        expected_hash: predictor.content_hash(),
    };

    let mut rng = StdRng::seed_from_u64(args.seed ^ SERVE_SALT);
    let mut next_id = SERVE_ID_BASE;
    let high_slice_s = HIGH_SLICE_REQUESTS / HIGH_RPS;
    let mut bursts = Vec::new();
    let mut tracer = Tracer::new();
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || secs(start) < args.seconds {
        let low = schedule(&mut rng, LOW_RPS, LOW_SLICE_S, &mut next_id);
        let high = schedule(&mut rng, HIGH_RPS, high_slice_s, &mut next_id);
        // More requests than the service can answer in the slice.
        let capacity = schedule(&mut rng, 4_000.0, CAPACITY_SLICE_S, &mut next_id);
        let traced = (args.trace && rounds.is_empty()).then_some(&mut tracer);
        rounds.push(Round {
            low: run_phase(&ctx, &low, None)?,
            high: run_phase(&ctx, &high, traced)?,
            capacity: run_capacity(&ctx, &capacity, CAPACITY_SLICE_S, &mut bursts)?,
        });
    }
    let traced_wall = secs(start);
    let phases: Vec<&Phase> = rounds
        .iter()
        .flat_map(|r| [&r.low, &r.high, &r.capacity])
        .collect();

    let refused: u64 = phases.iter().map(|p| p.refused).sum();
    let wrong: u64 = phases.iter().map(|p| p.wrong).sum();
    report.attempted = phases.iter().map(|p| p.attempted).sum();
    report.failed = refused + wrong;
    if wrong > 0 {
        report.errors.push(format!(
            "{wrong} responses differ from predict_corpus or carry another artifact's hash"
        ));
    }
    if refused > 0 {
        report
            .errors
            .push(format!("{refused} requests refused, expired or failed"));
    }

    let setup: Vec<f64> = phases.iter().map(|p| p.setup_s).collect();
    let setup_ref: Vec<f64> = phases.iter().map(|p| p.setup_ref_s).collect();
    let lag: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.lag_us.iter().copied())
        .collect();
    let repeats: u64 = phases.iter().map(|p| p.repeats).sum();
    let repeat_share = repeats as f64 / report.attempted.max(1) as f64;
    let quality = Evaluation::from_tables(phases.iter().flat_map(|p| p.served.iter()).map(
        |&(src, _)| {
            (
                reference[src].gold.as_slice(),
                reference[src].predicted.as_slice(),
            )
        },
    ))
    .macro_f1;
    // The end-to-end figures come from the capacity bursts, each scaled to
    // reference machine speed: the run reports the median burst rate and the
    // median over chunks of bursts of the scaled request latency quantiles.
    let cap_rates: Vec<f64> = bursts.iter().map(|b| b.rate).collect();
    let cap_ms: Vec<Vec<f64>> = bursts.iter().map(|b| b.lat_ms.clone()).collect();
    let pooled = |f: fn(&Round) -> &Phase| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).answered()).collect()
    };
    let (low_all, high_all) = (pooled(|r| &r.low), pooled(|r| &r.high));
    println!(
        "# {} rounds; latency from due, pooled: low {} p50 {:.3} ms p99 {:.3} ms; high {} p50 {:.3} ms p99 {:.3} ms; generator lag p50 {:.0} us p99 {:.0} us",
        rounds.len(),
        sample_note(low_all.len()),
        median(&low_all),
        quantile(&low_all, 0.99),
        sample_note(high_all.len()),
        median(&high_all),
        quantile(&high_all, 0.99),
        median(&lag),
        quantile(&lag, 0.99)
    );
    println!(
        "# capacity: {} bursts of {BURST}; raw req/s per round {:?}; raw setup {:.6} s",
        bursts.len(),
        rounds.iter().map(|r| r.capacity.rate).collect::<Vec<_>>(),
        median(&setup)
    );
    let capacity_rps = median(&cap_rates);
    println!(
        "# named figures (pooled): serve_p50_ms.low={} serve_p99_ms.low={} serve_p50_ms.high={} serve_p99_ms.high={} gen.lag_p99_us={} serve.repeat_share={repeat_share} serve_capacity_rps={capacity_rps}",
        median(&low_all),
        quantile(&low_all, 0.99),
        median(&high_all),
        quantile(&high_all, 0.99),
        quantile(&lag, 0.99)
    );

    if !args.trace {
        report.metrics = EndToEnd {
            setup_s: median(&setup_ref),
            peak_rss_mb: crate::peak_rss_mb(),
            p50_ms: median_of_quantiles(&cap_ms, 0.5),
            p99_ms: median_of_quantiles(&cap_ms, 0.99),
            throughput_per_s: capacity_rps,
            quality,
        }
        .metrics();
        return Ok(report);
    }

    // The traced run records spans for the first round's high slice and
    // reports its service counters.
    let high = &rounds[0].high;
    let stats = high.stats.as_ref().expect("finished phases carry stats");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mut layers = LayerMetrics {
        core_artifact_load_us: median(&setup) * 1e6,
        serve_submit_us: mean(&high.submit_us),
        serve_service_latency_us: mean(&high.service_us),
        serve_batches: stats.batches as f64,
        serve_fill_cols_mean: stats.mean_batch_fill_cols(),
        serve_rounds: stats.rounds as f64,
        serve_rejected: stats.rejected as f64,
        serve_expired: stats.expired as f64,
        serve_quarantined: stats.quarantined as f64,
        serve_worker_restarts: stats.worker_restarts as f64,
        serve_repeat_share: repeat_share,
        serve_low_p50_ms: median(&low_all),
        serve_low_p99_ms: quantile(&low_all, 0.99),
        serve_high_p50_ms: median(&high_all),
        serve_high_p99_ms: quantile(&high_all, 0.99),
        gen_lag_p99_us: quantile(&lag, 0.99),
        speed_probe_ns: median(&bursts.iter().map(|b| b.probe_ns).collect::<Vec<_>>()),
        ..LayerMetrics::default()
    };
    // The service's batches are not visible from outside: replay that
    // slice's tables, in request order, through the layers in micro-batches
    // of the service's mean fill.
    let fill = stats.mean_batch_fill_cols().ceil().max(1.0) as usize;
    let mut order = high.served.clone();
    order.sort_by_key(|&(_, i)| i);
    let tables: Vec<Table> = order.iter().map(|&(src, _)| pool[src].clone()).collect();
    let mut replay = LayerReplay::new(&predictor);
    let replay_start = Instant::now();
    let (mut first, mut cols) = (0usize, 0usize);
    for k in 0..tables.len() {
        cols += tables[k].num_columns();
        if cols >= fill || k + 1 == tables.len() {
            let batch: Vec<&Table> = tables[first..=k].iter().collect();
            let out = replay.run(&mut tracer, None, &batch, k as u64);
            for (got, &(src, _)) in out.iter().zip(&order[first..=k]) {
                if got.predicted != reference[src].predicted {
                    report.failed += 1;
                    report.errors.push(format!(
                        "predict_batch differs from predict_corpus on table {}",
                        got.table_id
                    ));
                }
            }
            first = k + 1;
            cols = 0;
        }
    }
    let wall = traced_wall + secs(replay_start);
    replay.check(&mut report);
    layers.set_replay(&tracer, &replay.counts, 1.0);
    layers.trace_overhead_share = tracer.overhead_share(wall);
    layers.fail_share = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "# per-layer: core/topic/features/nn/crf replay the first high slice's {} tables in batches of >= {fill} columns (the service's mean fill); nn.busy_us is a per-table forward pass (the batched trunk is private)",
        tables.len()
    );
    tracer.write_for(args);
    report.metrics = layers.metrics();
    Ok(report)
}
