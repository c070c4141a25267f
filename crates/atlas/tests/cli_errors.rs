//! Operator errors of the atlas binaries, through the real
//! `atlas_compact`, `atlas_index` and `shard_merge`: an unknown flag — such as a
//! leftover `--format 3` from the days v3 stores could still be
//! written — a flag without its value, a repeated flag, a stray argument, a missing
//! `--atlas` or `--out`, or a merge without segments prints exactly one `error:` line and exits 2 before any
//! work; a store the binary cannot read exits 1 with one `error:` line
//! naming the way out, and a merge whose `--report-json` path cannot be
//! written exits 1 with one `error:` line and no report. An empty merge
//! segment is refused by the strict merge and salvaged by `--recover`.

use std::path::PathBuf;
use std::process::Output;

const V3_FIXTURE: &[u8] = include_bytes!("fixtures/v3-n6.bnfatlas");

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "bnf-atlas-cli-{}-{tag}.bnfatlas",
        std::process::id()
    ))
}

fn run(bin: &str, args: &[&str]) -> Output {
    std::process::Command::new(bin)
        .args(args)
        .output()
        .expect("spawn the atlas binary")
}

/// Asserts the exit status, no panic, and exactly one `error:` line
/// containing `needle`.
fn assert_error(out: &Output, status: i32, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(status), "{needle}: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let errors: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("error: "))
        .collect();
    assert!(
        errors.len() == 1 && errors[0].contains(needle),
        "{needle}: {errors:?}"
    );
}

#[test]
fn flag_mistakes_exit_2_before_any_work() {
    let store = scratch_path("flags");
    std::fs::write(&store, V3_FIXTURE).unwrap();
    let path = store.to_str().unwrap();
    let compact = env!("CARGO_BIN_EXE_atlas_compact");
    let index = env!("CARGO_BIN_EXE_atlas_index");
    let cases: [(&str, &[&str], &str); 8] = [
        (compact, &["--atlas", path, "--format", "3"], "\"--format\""),
        (compact, &["--atlas", path, "--out"], "--out needs a value"),
        (
            compact,
            &["--atlas", path, "stray.bnfatlas"],
            "\"stray.bnfatlas\"",
        ),
        (
            compact,
            &["--atlas", path, "--atlas", path],
            "--atlas given twice",
        ),
        (compact, &["--out", path], "missing --atlas"),
        (index, &["--atlas", path, "--format", "3"], "\"--format\""),
        (index, &["--atlas"], "--atlas needs a value"),
        (index, &[], "missing --atlas"),
    ];
    for (bin, args, needle) in cases {
        assert_error(&run(bin, args), 2, needle);
    }
    // Nothing was compacted or indexed.
    assert_eq!(std::fs::read(&store).unwrap(), V3_FIXTURE);
    assert!(!bnf_atlas::index_path(&store).exists());
    std::fs::remove_file(&store).ok();
}

#[test]
fn shard_merge_flag_mistakes_exit_2_before_any_work() {
    let out = scratch_path("merge-out");
    let segment = scratch_path("merge-seg");
    std::fs::write(&segment, V3_FIXTURE).unwrap();
    let (out_path, seg) = (out.to_str().unwrap(), segment.to_str().unwrap());
    let merge = env!("CARGO_BIN_EXE_shard_merge");
    let cases: [(&[&str], &str); 7] = [
        // The value of an unknown flag must not become a segment path.
        (&["--out", out_path, "--format", "3", seg], "\"--format\""),
        (&["--out", out_path, "--bogus", seg], "\"--bogus\""),
        (&[seg, "--out"], "--out needs a value"),
        (&[seg], "missing --out"),
        (&["--out", out_path], "no segment files given"),
        (
            &["--out", out_path, "--recover", "--recover", seg],
            "--recover given twice",
        ),
        (
            &["--out", out_path, "--out", out_path, seg],
            "--out given twice",
        ),
    ];
    for (args, needle) in cases {
        assert_error(&run(merge, args), 2, needle);
    }
    // Nothing was merged: no output store, the segment untouched.
    assert!(!out.exists());
    assert_eq!(std::fs::read(&segment).unwrap(), V3_FIXTURE);
    std::fs::remove_file(&segment).ok();
}

#[test]
fn shard_merge_unwritable_manifest_exits_1_before_any_report() {
    let segment = scratch_path("manifest-seg");
    let out = scratch_path("manifest-out");
    let star = bnf_graph::Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
    let record = bnf_core::WindowRecord::classify(&star, &mut bnf_graph::BfsScratch::new());
    bnf_atlas::ClassificationAtlas::open(&segment)
        .unwrap()
        .append_records(&[record])
        .unwrap();
    let json = scratch_path("no-such-dir").join("report.json");
    let args = [
        "--out",
        out.to_str().unwrap(),
        "--report-json",
        json.to_str().unwrap(),
        segment.to_str().unwrap(),
    ];
    let result = run(env!("CARGO_BIN_EXE_shard_merge"), &args);
    assert_error(&result, 1, "cannot write run manifest to");
    assert!(result.stdout.is_empty(), "the merge report was printed");
    std::fs::remove_file(&segment).ok();
    std::fs::remove_file(&out).ok();
}

#[test]
fn empty_segment_is_refused_strict_and_salvaged_under_recover() {
    // An empty segment is torn inside its header: the strict merge
    // refuses it and leaves it empty; `--recover` salvages it like any
    // other tear, printing a `salvaged` line with 0 bytes dropped.
    let segment = scratch_path("empty-seg");
    let out = scratch_path("empty-out");
    std::fs::write(&segment, b"").unwrap();
    let merge = env!("CARGO_BIN_EXE_shard_merge");
    let args = ["--out", out.to_str().unwrap(), segment.to_str().unwrap()];
    assert_error(&run(merge, &args), 1, "not an atlas file (bad magic)");
    assert_eq!(std::fs::metadata(&segment).unwrap().len(), 0);

    let recovered = run(merge, &[&args[..], &["--recover"][..]].concat());
    let stdout = String::from_utf8_lossy(&recovered.stdout);
    assert_eq!(recovered.status.code(), Some(0), "{stdout}");
    let want = format!(
        "salvaged {}: recovered: dropped 0 torn tail byte(s) at offset 12 \
         (file ends 0 bytes into the 12-byte header)",
        segment.display()
    );
    assert!(stdout.lines().any(|l| l == want), "{stdout}");
    std::fs::remove_file(&segment).ok();
    std::fs::remove_file(&out).ok();
}

#[test]
fn v3_stores_are_indexed_only_after_compaction() {
    let store = scratch_path("v3");
    std::fs::write(&store, V3_FIXTURE).unwrap();
    let path = store.to_str().unwrap();
    let index = env!("CARGO_BIN_EXE_atlas_index");
    assert_error(&run(index, &["--atlas", path]), 1, "atlas_compact");

    let out = run(env!("CARGO_BIN_EXE_atlas_compact"), &["--atlas", path]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let migrated = std::fs::read(&store).unwrap();
    assert_eq!(migrated[8], 4, "version byte after migration");
    assert!(V3_FIXTURE.len() as f64 >= 2.5 * migrated.len() as f64);

    assert!(run(index, &["--atlas", path]).status.success());
    std::fs::remove_file(&store).ok();
    std::fs::remove_file(bnf_atlas::index_path(&store)).ok();
}

#[test]
fn unknown_repeated_and_stray_arguments_exit_2_with_nothing_on_stdout() {
    let store = scratch_path("strict");
    std::fs::write(&store, V3_FIXTURE).unwrap();
    let path = store.to_str().unwrap();
    let out = scratch_path("strict-out");
    let out_path = out.to_str().unwrap();
    let compact = env!("CARGO_BIN_EXE_atlas_compact");
    let index = env!("CARGO_BIN_EXE_atlas_index");
    let merge = env!("CARGO_BIN_EXE_shard_merge");
    let cases: [(&str, &[&str], &str); 11] = [
        (compact, &["--atlas", path, "--bogus"], "\"--bogus\""),
        (compact, &["--atlas", path, "--bogus", "1"], "\"--bogus\""),
        (
            compact,
            &["--atlas", path, "--out", out_path, "--out", out_path],
            "--out given twice",
        ),
        (compact, &["--atlas", path, "stray"], "\"stray\""),
        (index, &["--atlas", path, "--bogus"], "\"--bogus\""),
        (index, &["--atlas", path, "--bogus", "1"], "\"--bogus\""),
        (
            index,
            &["--atlas", path, "--atlas", path],
            "--atlas given twice",
        ),
        (index, &["--atlas", path, "stray"], "\"stray\""),
        (merge, &["--out", out_path, path, "--bogus"], "\"--bogus\""),
        (
            merge,
            &["--out", out_path, path, "--bogus", "1"],
            "\"--bogus\"",
        ),
        (
            merge,
            &[
                "--out",
                out_path,
                "--report-json",
                out_path,
                "--report-json",
                out_path,
                path,
            ],
            "--report-json given twice",
        ),
    ];
    for (bin, args, needle) in cases {
        let result = run(bin, args);
        assert_error(&result, 2, needle);
        assert!(result.stdout.is_empty(), "{args:?} printed a report");
    }
    assert_eq!(std::fs::read(&store).unwrap(), V3_FIXTURE);
    assert!(!out.exists() && !bnf_atlas::index_path(&store).exists());
    std::fs::remove_file(&store).ok();
}
