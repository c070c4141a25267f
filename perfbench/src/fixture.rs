//! Working directories, the cached n = 9 catalogue, and the indexed
//! store each workload builds in set-up.
//!
//! The catalogue is classified once per checkout (one cold sweep, kept
//! under `.perfbench/cache/`) and checked against the oracle when it is
//! made. Set-up then builds a fresh store from it the way README
//! workflow 1 does: engine-ordered `append_records`, `mark_complete`,
//! `build_index`. Both run in child processes of the benchmark, so the
//! catalogue they hold never counts toward the timed phase's memory
//! high-water mark.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use bnf_atlas::{build_index, index_path, ClassificationAtlas};
use bnf_empirics::sweep::WindowSweep;

use crate::oracle::Oracle;
use crate::{N, THREADS};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The benchmark's directories inside the checkout. The per-run
/// directory is removed when this is dropped.
#[derive(Debug)]
pub struct Dirs {
    cache: PathBuf,
    run: PathBuf,
}

impl Dirs {
    /// Creates `.perfbench/cache` and a per-process run directory
    /// under the current directory.
    pub fn new() -> Result<Dirs, String> {
        let root = std::env::current_dir()
            .map_err(|e| format!("no working directory: {e}"))?
            .join(".perfbench");
        let cache = root.join("cache");
        let run = root.join(format!("run-{}", std::process::id()));
        for dir in [&cache, &run] {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        Ok(Dirs { cache, run })
    }

    /// The cached catalogue store.
    pub fn catalogue(&self) -> PathBuf {
        self.cache.join(format!("n{N}-catalogue.bnfatlas"))
    }

    /// A path inside this run's directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.run.join(name)
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.run);
    }
}

/// Removes a store and its index sidecar if present.
pub fn remove_store(store: &Path) {
    let _ = std::fs::remove_file(store);
    let _ = std::fs::remove_file(index_path(store));
}

/// Runs this executable with `--internal <args>` and returns the value
/// on its last stdout line.
fn run_child(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .arg("--internal")
        .args(args)
        .output()
        .map_err(|e| format!("cannot run set-up child {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up child {args:?} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    stdout
        .lines()
        .last()
        .map(str::to_owned)
        .ok_or_else(|| format!("set-up child {args:?} printed nothing"))
}

/// Makes the cached catalogue if this checkout has none yet.
pub fn ensure_catalogue(dirs: &Dirs) -> Result<(), String> {
    let path = dirs.catalogue();
    if path.exists() {
        return Ok(());
    }
    let started = Instant::now();
    run_child(&["catalogue", &path.to_string_lossy()])?;
    eprintln!(
        "catalogue cache built in {:.1} s (once per checkout, not part of any metric)",
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Builds the indexed store at `store` from the cached catalogue in a
/// child process; returns the child's set-up seconds.
pub fn build_store(dirs: &Dirs, store: &Path) -> Result<f64, String> {
    let line = run_child(&[
        "store",
        &dirs.catalogue().to_string_lossy(),
        &store.to_string_lossy(),
    ])?;
    line.parse()
        .map_err(|_| format!("set-up child printed {line:?}, not seconds"))
}

/// `--internal` entry point: `catalogue <path>` or `store <catalogue> <path>`.
pub fn internal(args: &[String]) -> Result<String, String> {
    match args {
        [cmd, path] if cmd == "catalogue" => make_catalogue(Path::new(path)).map(|()| "ok".into()),
        [cmd, catalogue, store] if cmd == "store" => {
            make_store(Path::new(catalogue), Path::new(store)).map(|s| s.to_string())
        }
        _ => Err(format!("unknown internal command {args:?}")),
    }
}

/// One cold orchestrated sweep, checked against the oracle, written as
/// an engine-ordered coverage-complete store (atomically renamed).
fn make_catalogue(path: &Path) -> Result<(), String> {
    let (sweep, _) = WindowSweep::run_orchestrated(N, THREADS, None, None, |_| {});
    let oracle = Oracle::load();
    oracle.check("topologies", &sweep.records.len().to_string())?;
    oracle.check(
        "catalogue",
        &crate::figures::catalogue_digest(&sweep.records),
    )?;
    let tmp = path.with_extension("tmp");
    remove_store(&tmp);
    let mut atlas = ClassificationAtlas::open(&tmp).map_err(|e| e.to_string())?;
    atlas
        .append_records(&sweep.records)
        .map_err(|e| e.to_string())?;
    atlas
        .mark_complete(N, sweep.records.len())
        .map_err(|e| e.to_string())?;
    drop(atlas);
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot publish the catalogue: {e}"))
}

/// The set-up step itself: read the catalogue, write a fresh store in
/// engine order, declare coverage, build the sidecar.
fn make_store(catalogue: &Path, store: &Path) -> Result<f64, String> {
    let started = Instant::now();
    let source = ClassificationAtlas::open(catalogue).map_err(|e| e.to_string())?;
    let records = source
        .complete_sweep(N)
        .ok_or("the cached catalogue has no complete sweep")?;
    drop(source);
    remove_store(store);
    let mut atlas = ClassificationAtlas::open(store).map_err(|e| e.to_string())?;
    atlas.append_records(&records).map_err(|e| e.to_string())?;
    atlas
        .mark_complete(N, records.len())
        .map_err(|e| e.to_string())?;
    drop(atlas);
    build_index(store).map_err(|e| e.to_string())?;
    Ok(started.elapsed().as_secs_f64())
}
