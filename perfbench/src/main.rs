//! End-to-end and per-layer benchmark of sato-rs.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_online|lake_bulk|lake_notopic|discovery> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end metrics of `BENCHMARK.json`;
//! with `--trace 1` they are the per-layer metrics of a separate traced
//! run. See `perfbench/README.md` for the metric catalogue.

mod discovery;
mod fixtures;
mod lake;
mod layers;
mod serve;
mod speed;
mod trace;

use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeOnline,
    LakeBulk,
    LakeNoTopic,
    Discovery,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "serve_online" => Workload::ServeOnline,
            "lake_bulk" => Workload::LakeBulk,
            "lake_notopic" => Workload::LakeNoTopic,
            "discovery" => Workload::Discovery,
            _ => return None,
        })
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub workload_name: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                workload = Some((w, value));
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let (workload, workload_name) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed (each also counted in `failed`).
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0
            && self.errors.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // A non-finite value is not JSON; `correct()` is false then.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Load the artifact `reps` times, each after a machine-speed probe: the
/// last predictor, and the load times raw and at reference speed.
pub fn timed_loads(
    artifact: &[u8],
    reps: usize,
    probe: &speed::Probe,
) -> Result<(sato::SatoPredictor, Vec<f64>, Vec<f64>), String> {
    let (mut raw, mut scaled) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps.max(1) {
        let probe_ns = probe.run();
        let t = Instant::now();
        let predictor =
            sato::SatoPredictor::from_bytes(artifact).map_err(|e| format!("artifact load: {e}"))?;
        raw.push(secs(t));
        scaled.push(probe.ref_time(secs(t), probe_ns));
        last = Some(predictor);
    }
    Ok((last.expect("at least one load"), raw, scaled))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples per chunk for [`median_of_quantiles`]: enough for a p99 with ten
/// samples beyond it.
const CHUNK_SAMPLES: usize = 1000;

/// Split per-slice samples into chunks of whole slices holding at least
/// [`CHUNK_SAMPLES`] each (the remainder joins the last chunk), take
/// quantile `q` of every chunk, and return the median: one stall inflates
/// one chunk's tail, not the run's.
pub fn median_of_quantiles(slices: &[Vec<f64>], q: f64) -> f64 {
    let mut chunks: Vec<Vec<f64>> = vec![Vec::new()];
    for slice in slices {
        if chunks.last().is_some_and(|c| c.len() >= CHUNK_SAMPLES) {
            chunks.push(Vec::new());
        }
        chunks
            .last_mut()
            .expect("one chunk")
            .extend_from_slice(slice);
    }
    if chunks.len() > 1 && chunks.last().is_some_and(|c| c.len() < CHUNK_SAMPLES) {
        let tail = chunks.pop().expect("more than one chunk");
        chunks.last_mut().expect("one chunk").extend(tail);
    }
    let per_chunk: Vec<f64> = chunks.iter().map(|c| quantile(c, q)).collect();
    median(&per_chunk)
}

/// `n=<count> max_pct=<p>`: the sample count and the highest percentile
/// with at least ten samples beyond it.
pub fn sample_note(n: usize) -> String {
    let max_pct = if n > 10 {
        100.0 * (1.0 - 10.0 / n as f64)
    } else {
        0.0
    };
    format!("n={n} max_pct=p{max_pct:.2}")
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// FNV-1a 64 over every file under `crates/` plus the root manifests, in
/// path order: identifies the benchmarked source when no git metadata is
/// present.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        for byte in path
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&path).unwrap_or_default())
        {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// The checked-out commit, read from `.git` when present.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "none (not a git checkout)".into(),
    }
}

fn print_header(args: &Args, artifacts: &[(fixtures::Fixture, u64)], shape: &str) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# sato-perfbench workload={} seed={} seconds={} trace={}",
        args.workload_name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# nproc={nproc} commit={} source_digest={}",
        git_commit(),
        source_digest()
    );
    for (fixture, hash) in artifacts {
        println!(
            "# artifact {}: content_hash={hash:016x} (fixture seed {:#x}, {} training tables)",
            fixture.name(),
            fixtures::FIXTURE_SEED,
            fixtures::TRAIN_TABLES
        );
    }
    println!("# shape: {shape}");
}

fn run(args: &Args) -> Result<Report, String> {
    let setup = fixtures::Fixture::ALL
        .iter()
        .map(|&f| fixtures::load(f).map(|bytes| (f, bytes)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut hashes = Vec::new();
    for (fixture, bytes) in &setup {
        let predictor = sato::SatoPredictor::from_bytes(bytes)
            .map_err(|e| format!("fixture {}: {e}", fixture.name()))?;
        hashes.push((*fixture, predictor.content_hash()));
    }
    let bytes_of = |f: fixtures::Fixture| -> Vec<u8> {
        setup
            .iter()
            .find(|(g, _)| *g == f)
            .map(|(_, b)| b.clone())
            .expect("every fixture is loaded")
    };
    let report = match args.workload {
        Workload::ServeOnline => {
            print_header(args, &hashes, &serve::shape());
            serve::run(args, &bytes_of(fixtures::Fixture::Full))
        }
        Workload::LakeBulk => {
            let spec = lake::LakeSpec::bulk();
            print_header(args, &hashes, &spec.describe());
            lake::run(args, &spec, &bytes_of(fixtures::Fixture::Full))
        }
        Workload::LakeNoTopic => {
            let spec = lake::LakeSpec::notopic();
            print_header(args, &hashes, &spec.describe());
            lake::run(args, &spec, &bytes_of(fixtures::Fixture::NoTopic))
        }
        Workload::Discovery => {
            print_header(args, &hashes, &discovery::shape());
            discovery::run(args, &bytes_of(fixtures::Fixture::Full))
        }
    };
    Ok(report)
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--train-fixtures") {
        let dir = argv.nth(1).unwrap_or_default();
        if let Err(e) = fixtures::train_all(std::path::Path::new(&dir)) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: --workload <serve_online|lake_bulk|lake_notopic|discovery> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for error in &report.errors {
        println!("# CHECK FAILED: {error}");
    }
    println!(
        "# fail_share={} ({} of {} operations failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!("{}", report.to_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
