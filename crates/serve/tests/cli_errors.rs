//! Operator errors of `bnf_serve` and `serve_bench`, through the real
//! binaries: an unknown, repeated or stray argument, a missing
//! `--atlas`, a value that is not a number, or a zero `--threads`
//! (`bnf_serve`) or `--clients`/`--requests` (`serve_bench`) prints
//! exactly one `error:` line and exits 2 before the store is opened; a
//! store that cannot be served prints exactly one `error:` line and
//! exits 1.

use std::path::PathBuf;
use std::process::Output;

use bnf_atlas::{build_index, ClassificationAtlas};
use bnf_core::WindowRecord;
use bnf_graph::{BfsScratch, Graph};

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "bnf-serve-cli-{}-{tag}.bnfatlas",
        std::process::id()
    ))
}

fn run(bin: &str, args: &[&str]) -> Output {
    std::process::Command::new(bin)
        .args(args)
        .output()
        .expect("spawn the serve binary")
}

/// Asserts the exit status, no panic, nothing on stdout, and exactly
/// one `error:` line containing `needle`.
fn assert_error(out: &Output, status: i32, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(status), "{needle}: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "{needle}: stdout was written");
    let errors: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("error: "))
        .collect();
    assert!(
        errors.len() == 1 && errors[0].contains(needle),
        "{needle}: {errors:?}"
    );
}

/// An indexed store holding both connected graphs on three vertices
/// with their coverage declared, so a run that got past its flags
/// would serve it.
fn indexed_store(tag: &str) -> PathBuf {
    let store = scratch_path(tag);
    let mut scratch = BfsScratch::new();
    let records: Vec<WindowRecord> = [&[(0, 1), (1, 2)][..], &[(0, 1), (1, 2), (2, 0)]]
        .iter()
        .map(|edges| Graph::from_edges(3, edges.iter().copied()).unwrap())
        .map(|g| WindowRecord::classify(&g, &mut scratch))
        .collect();
    let mut atlas = ClassificationAtlas::open(&store).unwrap();
    atlas.append_records(&records).unwrap();
    atlas.mark_complete(3, records.len()).unwrap();
    drop(atlas);
    build_index(&store).unwrap();
    store
}

fn remove_store(store: &PathBuf) {
    std::fs::remove_file(store).ok();
    std::fs::remove_file(bnf_atlas::index_path(store)).ok();
}

#[test]
fn usage_mistakes_exit_2_before_the_store_is_opened() {
    let store = indexed_store("usage");
    let path = store.to_str().unwrap();
    let serve = env!("CARGO_BIN_EXE_bnf_serve");
    let bench = env!("CARGO_BIN_EXE_serve_bench");
    let cases: [(&str, &[&str], &str); 16] = [
        (
            serve,
            &["--atlas", path, "--bogus"],
            "unknown argument \"--bogus\"",
        ),
        (
            serve,
            &["--atlas", path, "--bogus", "1"],
            "unknown argument \"--bogus\"",
        ),
        (
            serve,
            &["--atlas", path, "--atlas", path],
            "--atlas given twice",
        ),
        (
            serve,
            &["--atlas", path, "stray"],
            "unknown argument \"stray\"",
        ),
        (serve, &[], "missing --atlas"),
        (serve, &["--atlas", path, "--threads", "0"], "--threads"),
        (
            serve,
            &["--atlas", path, "--live-cap", "x"],
            "--live-cap wants a number",
        ),
        (
            bench,
            &["--atlas", path, "--bogus"],
            "unknown argument \"--bogus\"",
        ),
        (
            bench,
            &["--atlas", path, "--bogus", "1"],
            "unknown argument \"--bogus\"",
        ),
        (
            bench,
            &["--atlas", path, "--seed", "1", "--seed", "2"],
            "--seed given twice",
        ),
        (
            bench,
            &["--atlas", path, "stray"],
            "unknown argument \"stray\"",
        ),
        (bench, &["--clients", "2"], "missing --atlas"),
        (
            bench,
            &["--atlas", path, "--requests", "many"],
            "--requests wants a number",
        ),
        (
            bench,
            &["--atlas", path, "--requests", "0"],
            "--requests must be at least 1",
        ),
        (
            bench,
            &["--atlas", path, "--clients", "0"],
            "--clients must be at least 1",
        ),
        (
            bench,
            &["--atlas", path, "--threads"],
            "--threads needs a value",
        ),
    ];
    for (bin, args, needle) in cases {
        assert_error(&run(bin, args), 2, needle);
    }
    remove_store(&store);
}

#[test]
fn stores_that_cannot_be_served_exit_1_with_one_error_line() {
    // A store without its index sidecar.
    let store = indexed_store("unindexed");
    std::fs::remove_file(bnf_atlas::index_path(&store)).unwrap();
    let path = store.to_str().unwrap();
    let serve = run(env!("CARGO_BIN_EXE_bnf_serve"), &["--atlas", path]);
    assert_error(&serve, 1, "atlas_index --atlas");
    let bench = run(env!("CARGO_BIN_EXE_serve_bench"), &["--atlas", path]);
    assert_error(&bench, 1, "cannot open");
    remove_store(&store);
}
