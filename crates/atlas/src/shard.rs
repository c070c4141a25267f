//! Shard provenance: [`ShardMeta`], the payload of the store's tag-3
//! frame — which contiguous parent range one sweep invocation (or one
//! orchestrated range) classified, what it cost, and its
//! pruning-counter shares — with its frame codec and the folds
//! `shard_merge` and the sweep reports use. See
//! `docs/ATLAS_FORMAT.md` for the byte layout.

use std::collections::{BTreeSet, HashMap, HashSet};

use bnf_stream::PruneCounters;

use crate::store::Cursor;

/// Metadata of one shard segment: which contiguous range of the sorted
/// level-`n − 1` parent frontier one sweep invocation classified, what
/// it cost, and its pruning-counter shares — written into the segment
/// file by `--shard i/m` runs and folded by `shard_merge` into
/// coverage declarations and the merged work/RSS report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Graph order of the sweep this shard belongs to.
    pub order: u16,
    /// Zero-based shard index within the partition.
    pub shard_index: u32,
    /// Total shards in the partition.
    pub shard_count: u32,
    /// Size of the full parent frontier the range was cut from — the
    /// partition is a pure function of `(frontier_len, shard_count)`,
    /// so equal values here mean compatible segments.
    pub frontier_len: u64,
    /// First owned parent index (inclusive).
    pub parent_lo: u64,
    /// One past the last owned parent index.
    pub parent_hi: u64,
    /// Final-level graphs this shard classified and stored.
    pub emitted: u64,
    /// Wall-clock of the shard invocation in milliseconds.
    pub elapsed_ms: u64,
    /// Peak RSS in KiB of the process that ran this shard, at the time
    /// the shard completed (`None` where unmeasurable, e.g. off Linux).
    /// For a standalone `--shard` process this is that process's own
    /// `VmHWM`; for an in-process orchestrated range it is a snapshot
    /// of the *shared* process's high-water mark — see
    /// [`ShardMeta::orchestrator_run`] and [`ShardMeta::rss_summary`].
    pub peak_rss_kb: Option<u64>,
    /// `None` for a standalone `--shard` process invocation; `Some(id)`
    /// for a range executed inside an in-process orchestrator run,
    /// where `id` identifies the run. All ranges of one run share one
    /// process, so honest RSS accounting must count the run **once**
    /// (its max snapshot), not sum 256 copies of the same high-water
    /// mark — [`ShardMeta::rss_summary`] groups by this field.
    pub orchestrator_run: Option<u64>,
    /// Pruning counters of the frontier build (levels `1..n − 1`) —
    /// identical across every shard of one partition; kept separate so
    /// a merge counts this shared work once, not `m` times.
    pub frontier_prune: PruneCounters,
    /// Pruning counters of the final level restricted to this shard's
    /// parent range — these sum across a partition.
    pub final_prune: PruneCounters,
}

impl ShardMeta {
    /// The fields that identify a shard slot: two metas with equal
    /// identity describe the same range of the same deterministic
    /// partition and must agree on everything but timings.
    pub(crate) fn identity(&self) -> (u16, u32, u64, u32) {
        (
            self.order,
            self.shard_count,
            self.frontier_len,
            self.shard_index,
        )
    }

    /// Whether `other` is a legitimate re-run of the same shard slot:
    /// same range and emission count (wall-clock and RSS may differ).
    pub(crate) fn compatible(&self, other: &ShardMeta) -> bool {
        self.parent_lo == other.parent_lo
            && self.parent_hi == other.parent_hi
            && self.emitted == other.emitted
    }

    /// This range's run-manifest provenance entry.
    pub fn provenance(&self) -> bnf_obs::ShardProvenance {
        bnf_obs::ShardProvenance {
            order: u32::from(self.order),
            index: self.shard_index,
            count: self.shard_count,
            parent_lo: self.parent_lo,
            parent_hi: self.parent_hi,
            emitted: self.emitted,
            elapsed_ms: self.elapsed_ms,
            peak_rss_kb: self.peak_rss_kb,
            orchestrator_run: self.orchestrator_run,
        }
    }

    /// The one partition fold: groups `metas` by `(order, shard_count,
    /// frontier_len)` — the triple that fixes every range boundary — into
    /// one [`ShardPartition`] each, sorted by that triple. Coverage
    /// declaration, the merge report and the `--resume` rule all read
    /// partitions from here. A slot outside its partition belongs to
    /// none, and a repeated slot counts once (a store already keeps one
    /// meta per slot).
    pub fn partitions(metas: &[ShardMeta]) -> Vec<ShardPartition> {
        let mut sorted: Vec<&ShardMeta> = metas
            .iter()
            .filter(|m| m.shard_index < m.shard_count)
            .collect();
        sorted.sort_by_key(|m| m.identity());
        let mut out: Vec<ShardPartition> = Vec::new();
        for m in sorted {
            let key = (m.order, m.shard_count, m.frontier_len);
            match out.last_mut() {
                Some(p) if (p.order, p.shard_count, p.frontier_len) == key => {
                    if p.done.last() == Some(&(m.shard_index as usize)) {
                        continue;
                    }
                    if p.frontier_prune != Some(m.frontier_prune) {
                        p.frontier_prune = None;
                    }
                }
                _ => out.push(ShardPartition {
                    order: m.order,
                    shard_count: m.shard_count,
                    frontier_len: m.frontier_len,
                    done: Vec::new(),
                    emitted: 0,
                    frontier_prune: Some(m.frontier_prune),
                    final_prune: PruneCounters::default(),
                    runs: BTreeSet::new(),
                }),
            }
            let p = out.last_mut().expect("pushed above");
            p.done.push(m.shard_index as usize);
            p.emitted += m.emitted;
            p.final_prune.merge(&m.final_prune);
            p.runs.insert(m.orchestrator_run);
        }
        out
    }

    /// Max and sum of peak RSS **per process**, over the metas that
    /// report one — `None` when none do (non-Linux shards stay
    /// gracefully unreported rather than counting as zero).
    ///
    /// Each standalone shard meta (`orchestrator_run: None`) is its own
    /// process and contributes its value directly; all metas sharing an
    /// `orchestrator_run` id ran in one process and contribute a single
    /// value — the max of their snapshots — so an orchestrated run's
    /// `VmHWM` is counted once, not once per range.
    pub fn rss_summary(metas: &[ShardMeta]) -> Option<(u64, u64)> {
        let mut runs: HashMap<u64, u64> = HashMap::new();
        let mut seen = None;
        for m in metas {
            let Some(kb) = m.peak_rss_kb else { continue };
            match m.orchestrator_run {
                None => {
                    let (max, sum) = seen.unwrap_or((0u64, 0u64));
                    seen = Some((max.max(kb), sum + kb));
                }
                Some(id) => {
                    let peak = runs.entry(id).or_insert(0);
                    *peak = (*peak).max(kb);
                }
            }
        }
        for &kb in runs.values() {
            let (max, sum) = seen.unwrap_or((0, 0));
            seen = Some((max.max(kb), sum + kb));
        }
        seen
    }

    /// How many distinct OS processes produced these metas: one per
    /// standalone shard plus one per distinct orchestrator run — the
    /// denominator the merged provenance report labels its RSS line
    /// with.
    pub fn process_count(metas: &[ShardMeta]) -> usize {
        let mut runs: HashSet<u64> = HashSet::new();
        let mut standalone = 0usize;
        for m in metas {
            match m.orchestrator_run {
                None => standalone += 1,
                Some(id) => {
                    runs.insert(id);
                }
            }
        }
        standalone + runs.len()
    }
}

/// One partition of stored ranges, as [`ShardMeta::partitions`] folds
/// it: which ranges of the `shard_count`-way cut of an order's
/// `frontier_len`-parent frontier are stored, and their summed shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPartition {
    /// Graph order of the partition.
    pub order: u16,
    /// Ranges the frontier is cut into.
    pub shard_count: u32,
    /// Parents of the frontier the ranges were cut from.
    pub frontier_len: u64,
    /// The stored range indices, ascending, each once.
    pub done: Vec<usize>,
    /// Final-level graphs the stored ranges emitted, summed.
    pub emitted: u64,
    /// The frontier-build share every stored range carries — `None`
    /// when they disagree (incompatible builds), so no single total
    /// exists.
    pub frontier_prune: Option<PruneCounters>,
    /// The stored ranges' final-level counters, summed.
    pub final_prune: PruneCounters,
    /// The distinct [`ShardMeta::orchestrator_run`] ids of the stored
    /// ranges — one per prior run (`None` for standalone processes).
    pub runs: BTreeSet<Option<u64>>,
}

fn put_counters(out: &mut Vec<u8>, c: &PruneCounters) {
    for v in [
        c.candidates,
        c.orbit_skipped,
        c.cheap_rejected,
        c.search_rejected,
        c.duplicates,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

pub(crate) fn encode_shard_meta(meta: &ShardMeta, out: &mut Vec<u8>) {
    out.extend_from_slice(&meta.order.to_le_bytes());
    out.extend_from_slice(&meta.shard_index.to_le_bytes());
    out.extend_from_slice(&meta.shard_count.to_le_bytes());
    for v in [
        meta.frontier_len,
        meta.parent_lo,
        meta.parent_hi,
        meta.emitted,
        meta.elapsed_ms,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    match meta.peak_rss_kb {
        None => out.push(0),
        Some(kb) => {
            out.push(1);
            out.extend_from_slice(&kb.to_le_bytes());
        }
    }
    match meta.orchestrator_run {
        None => out.push(0),
        Some(id) => {
            out.push(1);
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
    put_counters(out, &meta.frontier_prune);
    put_counters(out, &meta.final_prune);
}

pub(crate) fn decode_shard_meta(payload: &[u8]) -> Result<ShardMeta, String> {
    let mut c = Cursor::new(payload);
    let order = c.u16()?;
    let shard_index = c.u32()?;
    let shard_count = c.u32()?;
    if shard_count == 0 || shard_index >= shard_count {
        return Err(format!(
            "shard index {shard_index} out of range 0..{shard_count}"
        ));
    }
    let frontier_len = c.u64()?;
    let parent_lo = c.u64()?;
    let parent_hi = c.u64()?;
    let emitted = c.u64()?;
    let elapsed_ms = c.u64()?;
    let peak_rss_kb = match c.u8()? {
        0 => None,
        1 => Some(c.u64()?),
        t => return Err(format!("unknown peak-RSS tag {t}")),
    };
    let orchestrator_run = match c.u8()? {
        0 => None,
        1 => Some(c.u64()?),
        t => return Err(format!("unknown orchestrator-run tag {t}")),
    };
    let frontier_prune = counters(&mut c)?;
    let final_prune = counters(&mut c)?;
    if c.remaining() != 0 {
        return Err(format!(
            "{} trailing bytes after shard metadata",
            c.remaining()
        ));
    }
    Ok(ShardMeta {
        order,
        shard_index,
        shard_count,
        frontier_len,
        parent_lo,
        parent_hi,
        emitted,
        elapsed_ms,
        peak_rss_kb,
        orchestrator_run,
        frontier_prune,
        final_prune,
    })
}

fn counters(c: &mut Cursor<'_>) -> Result<PruneCounters, String> {
    Ok(PruneCounters {
        candidates: c.u64()?,
        orbit_skipped: c.u64()?,
        cheap_rejected: c.u64()?,
        search_rejected: c.u64()?,
        duplicates: c.u64()?,
    })
}
