//! The crash/resume property test: an orchestrated sweep killed at
//! seeded random points (SIGKILL, torn-write truncation, writer panic —
//! the `bnf-faults` kill modes), then resumed, must converge to a store
//! and Figure 2 CSV **byte-identical** to an uninterrupted run — and
//! must never re-execute a range a prior run durably completed
//! (counter-asserted against the resume provenance and the store's
//! shard metadata).
//!
//! Real processes, real kills: the test spawns the actual
//! `fig2_avg_poa` binary so the whole stack is on the hook — CLI flag
//! plumbing, torn-tail recovery on open, partition reconstruction from
//! `ShardMeta` frames, cross-run coverage declaration, and the warm
//! replay that produces the figure output.

use bnf_atlas::ClassificationAtlas;
use bnf_obs::RunManifest;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::PathBuf;
use std::process::{Command, Output};

const N: usize = 7;
const RANGES: usize = 10;

fn scratch_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let k = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("bnf-crash-resume-{}-{k}-{tag}", std::process::id()))
}

/// Spawns the real `fig2_avg_poa` with an optional armed fault.
fn run_fig2(atlas: &PathBuf, extra: &[&str], fault: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig2_avg_poa"));
    cmd.args([
        "--n",
        &N.to_string(),
        "--shards",
        &RANGES.to_string(),
        "--threads",
        "2",
        "--csv",
        "--atlas",
    ]);
    cmd.arg(atlas);
    cmd.args(extra);
    cmd.env_remove("BNF_FAULT");
    if let Some(spec) = fault {
        cmd.env("BNF_FAULT", spec);
    }
    cmd.output().expect("spawn fig2_avg_poa")
}

#[test]
fn killed_and_resumed_sweep_is_byte_identical_to_uninterrupted() {
    // The uninterrupted reference: CSV bytes and the complete store.
    let cold_atlas = scratch_path("cold.bnfatlas");
    let cold = run_fig2(&cold_atlas, &[], None);
    assert!(cold.status.success(), "reference run failed: {cold:?}");
    assert!(!cold.stdout.is_empty(), "reference run produced no CSV");
    let cold_records = ClassificationAtlas::open(&cold_atlas)
        .unwrap()
        .complete_sweep(N)
        .expect("reference run must declare coverage");

    for seed in [7u64, 23, 1202_5025] {
        let mut rng = StdRng::seed_from_u64(seed);
        let warm_atlas = scratch_path(&format!("seed{seed}.bnfatlas"));

        // Two seeded crashes (the second on top of a resumed run), each
        // at a random kill point in a random mode. Kill counts stay low
        // enough that every armed fault actually fires — a run that
        // quietly completes would make the resume assertions vacuous.
        for round in 0..2 {
            let hit = rng.gen_range(1..4u64);
            let fault = match rng.gen_range(0..3u32) {
                0 => format!("range_commit:{hit}"),
                1 => format!("range_commit:{hit}:tear:{}", rng.gen_range(1..49u64)),
                _ => format!("range_commit:{hit}:panic"),
            };
            let extra: &[&str] = if round == 0 { &[] } else { &["--resume"] };
            let crashed = run_fig2(&warm_atlas, extra, Some(&fault));
            assert!(
                !crashed.status.success(),
                "seed {seed} round {round}: armed {fault} but the run completed"
            );
            assert!(
                String::from_utf8_lossy(&crashed.stderr).contains("bnf-faults: tripping"),
                "seed {seed} round {round}: fault {fault} never fired"
            );
        }

        // The clean resume must finish the partition and byte-match.
        let manifest_path = scratch_path(&format!("seed{seed}.json"));
        let resumed = run_fig2(
            &warm_atlas,
            &["--resume", "--report-json", manifest_path.to_str().unwrap()],
            None,
        );
        assert!(
            resumed.status.success(),
            "seed {seed}: resume failed: {}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        let stderr = String::from_utf8_lossy(&resumed.stderr);
        assert!(
            stderr.contains("resumed sweep: recovered"),
            "seed {seed}: no resume provenance line in:\n{stderr}"
        );
        assert_eq!(
            resumed.stdout, cold.stdout,
            "seed {seed}: resumed CSV differs from the uninterrupted run"
        );

        // The stores agree record for record (ShardMeta timing and run
        // ids legitimately differ): identical catalogue, identical
        // engine replay order, coverage declared.
        let warm = ClassificationAtlas::open(&warm_atlas).unwrap();
        assert_eq!(warm.coverage(N), Some(cold_records.len() as u64));
        assert_eq!(
            warm.complete_sweep(N).as_deref(),
            Some(&cold_records[..]),
            "seed {seed}: resumed store replays a different catalogue"
        );

        // Completed ranges were never re-executed. Counter side: the
        // final run's provenance covers exactly the redone ranges, and
        // recovered + redone closes the partition. Store side: every
        // range committed exactly one ShardMeta across all runs — a
        // re-execution would have stamped a second one.
        let manifest =
            RunManifest::from_json(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
        let recovered = manifest.counter("resume_recovered_ranges").unwrap();
        let redone = manifest.counter("resume_redone_ranges").unwrap();
        assert_eq!(recovered + redone, RANGES as u64, "seed {seed}");
        assert!(recovered > 0, "seed {seed}: crashes committed no ranges");
        assert_eq!(manifest.shards.len() as u64, redone, "seed {seed}");
        let mut indices: Vec<u32> = warm
            .shard_metas()
            .iter()
            .filter(|m| usize::from(m.order) == N)
            .map(|m| m.shard_index)
            .collect();
        indices.sort_unstable();
        assert_eq!(
            indices,
            (0..RANGES as u32).collect::<Vec<_>>(),
            "seed {seed}: duplicate or missing ShardMeta — a completed range was re-executed"
        );

        std::fs::remove_file(&warm_atlas).ok();
        std::fs::remove_file(&manifest_path).ok();
    }
    std::fs::remove_file(&cold_atlas).ok();
}

#[test]
fn whole_partition_gets_at_most_one_range_per_parent() {
    // n = 1 has a one-parent frontier: `--shards auto` on two threads
    // asks for 32 ranges but commits exactly one.
    let atlas = scratch_path("n1.bnfatlas");
    let cold = Command::new(env!("CARGO_BIN_EXE_fig2_avg_poa"))
        .args(["--n", "1", "--threads", "2", "--shards", "auto", "--csv"])
        .arg("--atlas")
        .arg(&atlas)
        .env_remove("BNF_FAULT")
        .output()
        .expect("spawn fig2_avg_poa");
    assert!(cold.status.success(), "{cold:?}");
    let store = ClassificationAtlas::open(&atlas).unwrap();
    let metas = store.shard_metas();
    assert_eq!(metas.len(), 1, "{metas:?}");
    assert_eq!((metas[0].shard_index, metas[0].shard_count), (0, 1));
    assert_eq!(store.coverage(1), Some(1));
    std::fs::remove_file(&atlas).ok();
}

/// Spawns `fig2_avg_poa --n n --shard spec --atlas segment` on one
/// thread, plus `extra`, with an optional armed fault.
fn run_block(
    n: &str,
    spec: &str,
    segment: &PathBuf,
    extra: &[&str],
    fault: Option<&str>,
) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig2_avg_poa"));
    cmd.args(["--n", n, "--threads", "1", "--shard", spec, "--atlas"]);
    cmd.arg(segment).args(extra).env_remove("BNF_FAULT");
    if let Some(spec) = fault {
        cmd.env("BNF_FAULT", spec);
    }
    cmd.output().expect("spawn fig2_avg_poa")
}

#[test]
fn fleet_blocks_get_at_most_one_range_per_parent() {
    // n = 1 has a one-parent frontier: a two-process fleet cuts it into
    // min(16·2, 1) = 1 range, which block 1/2 owns and block 0/2 leaves
    // empty — the merge adds one slot, not 32.
    let segments: Vec<PathBuf> = (0..2)
        .map(|i| {
            let segment = scratch_path(&format!("n1-seg{i}.bnfatlas"));
            let out = run_block("1", &format!("{i}/2"), &segment, &[], None);
            assert!(out.status.success(), "{out:?}");
            segment
        })
        .collect();
    let merged_path = scratch_path("n1-merged.bnfatlas");
    let mut merged = ClassificationAtlas::open(&merged_path).unwrap();
    let report = bnf_atlas::merge_segments(&mut merged, &segments).unwrap();
    assert_eq!(report.metas_added, 1);
    assert_eq!(
        report.coverage,
        vec![(1, bnf_atlas::ShardCoverage::Declared(1))]
    );
    for p in segments.iter().chain([&merged_path]) {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn killed_clamped_block_resumes_its_ranges() {
    // n = 5 has a six-parent frontier: block 1/2 of the clamped
    // min(32, 6) = 6-range cut owns ranges 3..6. Killed at its second
    // commit, the resume recovers those two and redoes one.
    let segment = scratch_path("n5-block.bnfatlas");
    let killed = run_block("5", "1/2", &segment, &[], Some("range_commit:2"));
    assert!(
        !killed.status.success() && killed.status.code().is_none(),
        "the armed kill must fire, got {killed:?}"
    );
    let manifest_path = scratch_path("n5-block.json");
    let manifest_arg = manifest_path.to_str().unwrap();
    let resumed = run_block(
        "5",
        "1/2",
        &segment,
        &["--resume", "--report-json", manifest_arg],
        None,
    );
    assert!(resumed.status.success(), "{resumed:?}");
    let manifest =
        RunManifest::from_json(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
    assert_eq!(manifest.counter("resume_recovered_ranges"), Some(2));
    assert_eq!(manifest.counter("resume_redone_ranges"), Some(1));
    let store = ClassificationAtlas::open(&segment).unwrap();
    let mut slots: Vec<(u32, u32)> = store
        .shard_metas()
        .iter()
        .map(|m| (m.shard_index, m.shard_count))
        .collect();
    slots.sort_unstable();
    assert_eq!(slots, vec![(3, 6), (4, 6), (5, 6)]);
    std::fs::remove_file(&segment).ok();
    std::fs::remove_file(&manifest_path).ok();
}
