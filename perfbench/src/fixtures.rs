//! Model fixtures: the two artifacts the workloads serve, trained
//! deterministically from a fixed fixture seed (independent of the workload
//! seed) and cached as `SATOART1` bytes.
//!
//! Training runs in a child process, so the measured process's peak RSS
//! holds the workload alone, and its result is cached in the build
//! directory, so only the first run in a checkout pays for it. Every run
//! prints each artifact's `content_hash`: runs on different models cannot
//! be compared silently.

use sato::{SamplerKind, SatoConfig, SatoModel, SatoVariant};
use sato_tabular::corpus::default_corpus;
use std::path::{Path, PathBuf};

/// Seed of the fixture training corpus and of model initialisation.
pub const FIXTURE_SEED: u64 = 0x5a70_f1c5;

/// Tables in the fixture training corpus (default generator shape).
pub const TRAIN_TABLES: usize = 400;

/// The artifacts the workloads serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fixture {
    /// `Sato` (topic + CRF) with the dense sampler.
    Full,
    /// `Sato_noTopic` (CRF, no topic estimation).
    NoTopic,
}

impl Fixture {
    pub const ALL: [Fixture; 2] = [Fixture::Full, Fixture::NoTopic];

    pub fn name(self) -> &'static str {
        match self {
            Fixture::Full => "full",
            Fixture::NoTopic => "notopic",
        }
    }

    fn variant(self) -> SatoVariant {
        match self {
            Fixture::Full => SatoVariant::Full,
            Fixture::NoTopic => SatoVariant::SatoNoTopic,
        }
    }

    fn file(self, dir: &Path) -> PathBuf {
        dir.join(format!("{}-{FIXTURE_SEED:x}.satoart", self.name()))
    }

    /// Train this fixture and return its binary artifact.
    fn train(self) -> Vec<u8> {
        let corpus = default_corpus(TRAIN_TABLES, FIXTURE_SEED);
        let config = SatoConfig::default().with_seed(FIXTURE_SEED);
        SatoModel::train(&corpus, config, self.variant())
            .into_predictor()
            .with_sampler(SamplerKind::Dense)
            .to_bytes()
    }
}

/// Where cached fixtures live: inside the Cargo target directory, which is
/// ignored by git and private to the checkout.
pub fn cache_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target.join("perfbench-fixtures")
}

/// Train every fixture into `dir` (the child-process entry point). Files
/// are written under a temporary name and renamed, so a reader never sees
/// a torn artifact.
pub fn train_all(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for fixture in Fixture::ALL {
        let path = fixture.file(dir);
        if path.exists() {
            continue;
        }
        let bytes = fixture.train();
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, &bytes).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))?;
    }
    Ok(())
}

/// The artifact bytes of `fixture`, training every missing fixture first in
/// a child process of this executable.
pub fn load(fixture: Fixture) -> Result<Vec<u8>, String> {
    let dir = cache_dir();
    let path = fixture.file(&dir);
    if !path.exists() {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let status = std::process::Command::new(exe)
            .arg("--train-fixtures")
            .arg(&dir)
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("spawn fixture trainer: {e}"))?;
        if !status.success() {
            return Err(format!("fixture trainer failed: {status}"));
        }
    }
    std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))
}
