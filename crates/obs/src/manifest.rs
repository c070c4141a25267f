//! The versioned machine-readable run manifest behind
//! `--report-json <path>`.
//!
//! One JSON document per run: what was run (tool, exact CLI, order,
//! enumeration path), what happened (emitted count, wall-clock, peak
//! RSS, level sizes, counters, spans, histograms), gate-facing derived
//! metrics (`bench_gate` reads the `metrics` array — each entry an
//! `{"id": …, "value": …}` pair in the same id namespace as the
//! criterion-shim estimates), and per-shard provenance for sharded /
//! orchestrated runs.
//!
//! The schema is versioned ([`MANIFEST_VERSION`]); readers reject
//! documents from a different version outright — a manifest is a
//! cross-run contract, and silently misreading an old layout is worse
//! than failing loudly.

use crate::json::{push_json_string, Json};
use crate::recorder::{Histogram, Snapshot};

/// The run-manifest schema version this crate reads and writes.
pub const MANIFEST_VERSION: u64 = 1;

/// A sparse summary of a [`Histogram`]: exact aggregates plus the
/// non-empty log₂ buckets as `(bucket_lo, count)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact (saturating) sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Non-empty buckets, ascending: `(smallest value in bucket, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl From<&Histogram> for HistogramSummary {
    fn from(h: &Histogram) -> HistogramSummary {
        HistogramSummary {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            buckets: h.nonempty_buckets(),
        }
    }
}

/// A gate-facing derived metric (`bench_gate` compares these against a
/// baseline the same way it compares criterion-shim means).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric id, e.g. `manifest/candidates_per_survivor/8`.
    pub id: String,
    /// The measured value.
    pub value: f64,
}

/// Provenance of one shard / orchestrated range that contributed to
/// the run's store — the manifest-side mirror of `bnf-atlas`'s
/// `ShardMeta` frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardProvenance {
    /// Graph order the shard enumerated.
    pub order: u32,
    /// Shard / range index within the partition.
    pub index: u32,
    /// Total shards / ranges in the partition.
    pub count: u32,
    /// First parent (inclusive) of the frontier range.
    pub parent_lo: u64,
    /// One past the last parent of the frontier range.
    pub parent_hi: u64,
    /// Graphs emitted by this shard.
    pub emitted: u64,
    /// Shard wall-clock, milliseconds.
    pub elapsed_ms: u64,
    /// The producing process's peak RSS in KiB, where measurable.
    pub peak_rss_kb: Option<u64>,
    /// The orchestrator run id when the shard was an in-process
    /// range (`None`: a standalone shard process).
    pub orchestrator_run: Option<u64>,
}

/// The versioned run manifest — see the module docs for the schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunManifest {
    /// Schema version ([`MANIFEST_VERSION`]).
    pub version: u64,
    /// The reporting binary (`fig2_avg_poa`, `stream_count`, …).
    pub tool: String,
    /// The exact command line (`argv`, including the binary path).
    pub command: Vec<String>,
    /// Graph order the run swept (0 when not order-scoped, e.g. a
    /// merge over mixed segments).
    pub order: u32,
    /// Which path ran: `orchestrated` (any enumerating sweep),
    /// `replay` (a warm store replay), `trivial` (an order below 2),
    /// `merge` (a segment merge), or a tool-specific label.
    pub path: String,
    /// Topologies emitted / records merged by the run.
    pub emitted: u64,
    /// End-to-end wall-clock of the reported phase, milliseconds.
    pub elapsed_ms: u64,
    /// This process's peak RSS in KiB; `None` (serialized `null`)
    /// where `/proc/self/status` is unavailable.
    pub peak_rss_kb: Option<u64>,
    /// Non-isomorphic graphs per enumeration level (empty when the
    /// run did not enumerate, e.g. warm replay or merge).
    pub level_sizes: Vec<u64>,
    /// Named counters (prune shares, steal counts, high-water marks).
    pub counters: Vec<(String, u64)>,
    /// Named spans: accumulated wall-clock per phase, milliseconds.
    pub spans_ms: Vec<(String, u64)>,
    /// Named log₂-bucketed histograms.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Gate-facing derived metrics (see [`Metric`]).
    pub metrics: Vec<Metric>,
    /// Per-shard / per-range provenance.
    pub shards: Vec<ShardProvenance>,
}

impl RunManifest {
    /// A manifest for the current invocation: schema version stamped,
    /// `command` captured from `std::env::args()`.
    pub fn new(tool: &str, order: u32, path: &str) -> RunManifest {
        RunManifest {
            version: MANIFEST_VERSION,
            tool: tool.to_owned(),
            command: std::env::args().collect(),
            order,
            path: path.to_owned(),
            ..RunManifest::default()
        }
    }

    /// The value of counter `name`, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Sets counter `name` (replacing any previous value), keeping the
    /// counter list name-sorted so serialization is deterministic.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        match self
            .counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
        {
            Ok(i) => self.counters[i].1 = value,
            Err(i) => self.counters.insert(i, (name.to_owned(), value)),
        }
    }

    /// Adds a gate-facing metric.
    pub fn push_metric(&mut self, id: &str, value: f64) {
        self.metrics.push(Metric {
            id: id.to_owned(),
            value,
        });
    }

    /// Folds a [`Recorder`](crate::Recorder) snapshot in: snapshot
    /// counters/spans that collide with already-set names are summed
    /// into them (the manifest may have been seeded from exact
    /// `StreamStats` before the recorder drain).
    pub fn absorb(&mut self, snapshot: Snapshot) {
        for (name, value) in snapshot.counters {
            let prior = self.counter(&name).unwrap_or(0);
            self.set_counter(&name, prior.saturating_add(value));
        }
        for (name, ms) in snapshot.spans_ms {
            match self.spans_ms.iter_mut().find(|(k, _)| *k == name) {
                Some((_, slot)) => *slot = slot.saturating_add(ms),
                None => self.spans_ms.push((name, ms)),
            }
        }
        for (name, hist) in snapshot.histograms {
            self.histograms.push((name, HistogramSummary::from(&hist)));
        }
        self.spans_ms.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// The `--report-json` epilogue every binary shares: folds the
    /// global [`Recorder`](crate::Recorder)'s telemetry in, writes the
    /// manifest as JSON to `path` and notes the path on stderr. The
    /// caller reports a write failure.
    pub fn write(mut self, path: &str) -> std::io::Result<()> {
        self.absorb(crate::Recorder::global().take());
        std::fs::write(path, self.to_json())?;
        eprintln!("run manifest written to {path}");
        Ok(())
    }

    /// Serializes the manifest (one top-level key per line — small
    /// enough to read as a CI artifact, still plain JSON).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        push_kv(&mut out, "bnf_manifest_version", |o| {
            o.push_str(&self.version.to_string())
        });
        push_kv(&mut out, "tool", |o| push_json_string(o, &self.tool));
        push_kv(&mut out, "command", |o| {
            push_arr(o, &self.command, |o, c| push_json_string(o, c))
        });
        push_kv(&mut out, "order", |o| o.push_str(&self.order.to_string()));
        push_kv(&mut out, "path", |o| push_json_string(o, &self.path));
        push_kv(&mut out, "emitted", |o| {
            o.push_str(&self.emitted.to_string())
        });
        push_kv(&mut out, "elapsed_ms", |o| {
            o.push_str(&self.elapsed_ms.to_string())
        });
        push_kv(&mut out, "peak_rss_kb", |o| {
            push_opt_u64(o, self.peak_rss_kb)
        });
        push_kv(&mut out, "level_sizes", |o| {
            push_arr(o, &self.level_sizes, |o, v| o.push_str(&v.to_string()))
        });
        push_kv(&mut out, "counters", |o| {
            push_arr(o, &self.counters, |o, (name, value)| {
                o.push_str("{\"name\":");
                push_json_string(o, name);
                o.push_str(",\"value\":");
                o.push_str(&value.to_string());
                o.push('}');
            })
        });
        push_kv(&mut out, "spans_ms", |o| {
            push_arr(o, &self.spans_ms, |o, (name, ms)| {
                o.push_str("{\"name\":");
                push_json_string(o, name);
                o.push_str(",\"ms\":");
                o.push_str(&ms.to_string());
                o.push('}');
            })
        });
        push_kv(&mut out, "histograms", |o| {
            push_arr(o, &self.histograms, |o, (name, h)| {
                o.push_str("{\"name\":");
                push_json_string(o, name);
                o.push_str(&format!(
                    ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":",
                    h.count, h.sum, h.min, h.max
                ));
                push_arr(o, &h.buckets, |o, (lo, c)| {
                    o.push_str(&format!("[{lo},{c}]"));
                });
                o.push('}');
            })
        });
        push_kv(&mut out, "metrics", |o| {
            push_arr(o, &self.metrics, |o, m| {
                o.push_str("{\"id\":");
                push_json_string(o, &m.id);
                o.push_str(&format!(",\"value\":{}}}", fmt_f64(m.value)));
            })
        });
        out.push_str("\"shards\":");
        push_arr(&mut out, &self.shards, |o, s| {
            o.push_str(&format!(
                "{{\"order\":{},\"index\":{},\"count\":{},\"parent_lo\":{},\"parent_hi\":{},\
                 \"emitted\":{},\"elapsed_ms\":{},\"peak_rss_kb\":",
                s.order, s.index, s.count, s.parent_lo, s.parent_hi, s.emitted, s.elapsed_ms
            ));
            push_opt_u64(o, s.peak_rss_kb);
            o.push_str(",\"orchestrator_run\":");
            push_opt_u64(o, s.orchestrator_run);
            o.push('}');
        });
        out.push_str("\n}\n");
        out
    }

    /// Parses a manifest document, rejecting unknown schema versions.
    pub fn from_json(text: &str) -> Result<RunManifest, String> {
        let doc = Json::parse(text).map_err(|e| format!("run manifest is not JSON: {e}"))?;
        let version = doc
            .get("bnf_manifest_version")
            .and_then(Json::as_u64)
            .ok_or("run manifest lacks bnf_manifest_version")?;
        if version != MANIFEST_VERSION {
            return Err(format!(
                "unsupported run-manifest version {version} (this reader understands \
                 {MANIFEST_VERSION})"
            ));
        }
        let str_field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("manifest field {key:?} missing or not a string"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("manifest field {key:?} missing or not an integer"))
        };
        let arr_field = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("manifest field {key:?} missing or not an array"))
        };
        let named_u64s = |key: &str, value_key: &str| -> Result<Vec<(String, u64)>, String> {
            arr_field(key)?
                .iter()
                .map(|entry| {
                    let name = entry
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("{key} entry lacks a name"))?;
                    let value = entry
                        .get(value_key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("{key} entry {name:?} lacks {value_key}"))?;
                    Ok((name.to_owned(), value))
                })
                .collect()
        };
        let opt_u64 = |entry: &Json, key: &str| -> Result<Option<u64>, String> {
            match entry.get(key) {
                None => Err(format!("entry lacks {key}")),
                Some(v) if v.is_null() => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("{key} is not an integer")),
            }
        };
        Ok(RunManifest {
            version,
            tool: str_field("tool")?,
            command: arr_field("command")?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_owned)
                        .ok_or("command entry is not a string".to_owned())
                })
                .collect::<Result<_, _>>()?,
            order: u64_field("order")? as u32,
            path: str_field("path")?,
            emitted: u64_field("emitted")?,
            elapsed_ms: u64_field("elapsed_ms")?,
            peak_rss_kb: opt_u64(&doc, "peak_rss_kb")?,
            level_sizes: arr_field("level_sizes")?
                .iter()
                .map(|v| v.as_u64().ok_or("level size is not an integer".to_owned()))
                .collect::<Result<_, _>>()?,
            counters: named_u64s("counters", "value")?,
            spans_ms: named_u64s("spans_ms", "ms")?,
            histograms: arr_field("histograms")?
                .iter()
                .map(|entry| {
                    let name = entry
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("histogram lacks a name")?;
                    let pick = |k: &str| {
                        entry
                            .get(k)
                            .and_then(Json::as_u64)
                            .ok_or_else(|| format!("histogram {name:?} lacks {k}"))
                    };
                    let buckets = entry
                        .get("buckets")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| format!("histogram {name:?} lacks buckets"))?
                        .iter()
                        .map(|pair| {
                            let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                                format!("histogram {name:?} bucket is not a pair")
                            })?;
                            Ok((
                                pair[0]
                                    .as_u64()
                                    .ok_or("bucket lo is not an integer".to_owned())?,
                                pair[1]
                                    .as_u64()
                                    .ok_or("bucket count is not an integer".to_owned())?,
                            ))
                        })
                        .collect::<Result<_, String>>()?;
                    Ok((
                        name.to_owned(),
                        HistogramSummary {
                            count: pick("count")?,
                            sum: pick("sum")?,
                            min: pick("min")?,
                            max: pick("max")?,
                            buckets,
                        },
                    ))
                })
                .collect::<Result<_, String>>()?,
            metrics: arr_field("metrics")?
                .iter()
                .map(|entry| {
                    Ok(Metric {
                        id: entry
                            .get("id")
                            .and_then(Json::as_str)
                            .ok_or("metric lacks an id")?
                            .to_owned(),
                        value: entry
                            .get("value")
                            .and_then(Json::as_f64)
                            .ok_or("metric lacks a value")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            shards: arr_field("shards")?
                .iter()
                .map(|entry| {
                    let field = |k: &str| {
                        entry
                            .get(k)
                            .and_then(Json::as_u64)
                            .ok_or_else(|| format!("shard entry lacks {k}"))
                    };
                    Ok(ShardProvenance {
                        order: field("order")? as u32,
                        index: field("index")? as u32,
                        count: field("count")? as u32,
                        parent_lo: field("parent_lo")?,
                        parent_hi: field("parent_hi")?,
                        emitted: field("emitted")?,
                        elapsed_ms: field("elapsed_ms")?,
                        peak_rss_kb: opt_u64(entry, "peak_rss_kb")?,
                        orchestrator_run: opt_u64(entry, "orchestrator_run")?,
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

fn push_kv(out: &mut String, key: &str, write_value: impl FnOnce(&mut String)) {
    push_json_string(out, key);
    out.push(':');
    write_value(out);
    out.push_str(",\n");
}

fn push_arr<T>(out: &mut String, items: &[T], write_item: impl Fn(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_item(out, item);
    }
    out.push(']');
}

fn push_opt_u64(out: &mut String, value: Option<u64>) {
    match value {
        Some(v) => out.push_str(&v.to_string()),
        None => out.push_str("null"),
    }
}

/// Formats an `f64` so it parses back to the same value (Rust's
/// shortest-round-trip `Display`), forcing a decimal point so the
/// token is unambiguously floating-point.
fn fmt_f64(value: f64) -> String {
    let s = format!("{value}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        RunManifest {
            version: MANIFEST_VERSION,
            tool: "fig2_avg_poa".into(),
            command: vec![
                "fig2".into(),
                "--atlas".into(),
                "a.bnfatlas".into(),
                "--shards".into(),
                "auto".into(),
            ],
            order: 8,
            path: "orchestrated".into(),
            emitted: 11_117,
            elapsed_ms: 1234,
            peak_rss_kb: Some(51_200),
            level_sizes: vec![1, 1, 2, 6, 21, 112, 853, 11_117],
            counters: vec![
                ("accepted".into(), 11_117),
                ("candidates".into(), 65_431),
                ("ranges".into(), 64),
            ],
            spans_ms: vec![("frontier_build".into(), 120), ("sort".into(), 4)],
            histograms: vec![(
                "range_wall_ms".into(),
                HistogramSummary {
                    count: 64,
                    sum: 4096,
                    min: 2,
                    max: 410,
                    buckets: vec![(2, 10), (4, 30), (256, 24)],
                },
            )],
            metrics: vec![Metric {
                id: "manifest/candidates_per_survivor/8".into(),
                value: 5.886,
            }],
            shards: vec![
                ShardProvenance {
                    order: 8,
                    index: 0,
                    count: 2,
                    parent_lo: 0,
                    parent_hi: 427,
                    emitted: 5_000,
                    elapsed_ms: 600,
                    peak_rss_kb: Some(40_000),
                    orchestrator_run: Some(u64::MAX - 3),
                },
                ShardProvenance {
                    order: 8,
                    index: 1,
                    count: 2,
                    parent_lo: 427,
                    parent_hi: 853,
                    emitted: 6_117,
                    elapsed_ms: 610,
                    peak_rss_kb: None,
                    orchestrator_run: None,
                },
            ],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let original = sample();
        let json = original.to_json();
        let parsed = RunManifest::from_json(&json).unwrap();
        assert_eq!(parsed, original);
        // And the serialization itself is stable (no hidden state).
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn none_rss_serializes_as_null_and_round_trips() {
        let mut m = sample();
        m.peak_rss_kb = None;
        let json = m.to_json();
        assert!(json.contains("\"peak_rss_kb\":null"));
        assert_eq!(RunManifest::from_json(&json).unwrap().peak_rss_kb, None);
    }

    #[test]
    fn unknown_versions_are_rejected() {
        let json = sample().to_json();
        let bumped = json.replace("\"bnf_manifest_version\":1", "\"bnf_manifest_version\":999");
        let err = RunManifest::from_json(&bumped).unwrap_err();
        assert!(
            err.contains("unsupported run-manifest version 999"),
            "{err}"
        );
        let missing = json.replace("\"bnf_manifest_version\":1,\n", "");
        assert!(RunManifest::from_json(&missing).is_err());
        assert!(RunManifest::from_json("not json").is_err());
    }

    #[test]
    fn orchestrator_run_ids_survive_full_u64_range() {
        let m = sample();
        let parsed = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed.shards[0].orchestrator_run, Some(u64::MAX - 3));
    }

    #[test]
    fn counter_upsert_keeps_names_sorted() {
        let mut m = RunManifest::new("t", 7, "streaming");
        m.set_counter("zeta", 1);
        m.set_counter("alpha", 2);
        m.set_counter("zeta", 3);
        assert_eq!(m.counters, vec![("alpha".into(), 2), ("zeta".into(), 3)]);
        assert_eq!(m.counter("alpha"), Some(2));
        assert_eq!(m.counter("missing"), None);
    }

    #[test]
    fn absorb_merges_recorder_snapshots() {
        let mut m = RunManifest::new("t", 7, "streaming");
        m.set_counter("candidates", 100);
        let r = crate::Recorder::new();
        r.add("candidates", 11);
        r.add("steals", 5);
        r.add_span_ms("merge", 9);
        r.record_hist("range_ms", 3);
        m.absorb(r.take());
        assert_eq!(m.counter("candidates"), Some(111));
        assert_eq!(m.counter("steals"), Some(5));
        assert_eq!(m.spans_ms, vec![("merge".into(), 9)]);
        assert_eq!(m.histograms.len(), 1);
        assert_eq!(m.histograms[0].1.count, 1);
    }

    #[test]
    fn metric_values_round_trip() {
        let mut m = RunManifest::new("t", 8, "streaming");
        m.push_metric("manifest/x/8", 5.0);
        m.push_metric("manifest/y/8", 0.015625);
        let parsed = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed.metrics[0].value, 5.0);
        assert_eq!(parsed.metrics[1].value, 0.015625);
    }
}
