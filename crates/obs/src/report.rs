//! End-of-run reports: a serializable snapshot of the registry.
//!
//! [`RunReport::capture`] turns the live atomics into plain rows — spans
//! split per evaluator worker, counters, gauges and histograms — and
//! [`RunReport::to_json`] / [`RunReport::from_json`] round-trip the result
//! through `report.json`, the file the experiment harness writes next to
//! each NAS trace CSV. The schema is documented in DESIGN.md §8. A whole
//! report is also what a distributed worker's snapshot carries to its
//! coordinator, so it and each of its rows have a `swt_wire::Wire` codec.

use crate::json::Json;
use crate::metrics::bucket_bound;
use crate::registry::{self, Registry, UNATTRIBUTED_SLOT, WORKER_SLOTS};
use std::io;
use std::path::Path;
use swt_wire::wire_struct;

wire_struct! {
    /// Accumulated wall time of one span path on one worker (`worker: None`
    /// is the unattributed slot — scheduler/main-thread time).
    #[derive(Debug, Clone, PartialEq)]
    pub struct SpanRow {
        pub path: String,
        pub worker: Option<usize>,
        pub count: u64,
        pub total_secs: f64,
        pub min_secs: f64,
        pub max_secs: f64,
    }
}

wire_struct! {
    /// One counter's total.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CounterRow {
        pub name: String,
        pub value: u64,
    }
}

wire_struct! {
    /// One gauge's final value and high-watermark.
    #[derive(Debug, Clone, PartialEq)]
    pub struct GaugeRow {
        pub name: String,
        pub value: i64,
        pub max: i64,
    }
}

/// One histogram: only non-empty buckets are kept, as `(inclusive upper
/// bound, count)` pairs. Its `Wire` codec is in [`crate::wire`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramRow {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u64, u64)>,
}

/// One layer kind's share of the training step (see
/// [`RunReport::layer_kinds`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LayerKindRow {
    pub kind: String,
    pub fwd_secs: f64,
    pub fwd_calls: u64,
    pub bwd_secs: f64,
    pub bwd_calls: u64,
}

wire_struct! {
    /// A complete observability snapshot plus free-form metadata (app,
    /// scheme, seed, wall_secs, …).
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct RunReport {
        pub meta: Vec<(String, String)>,
        pub spans: Vec<SpanRow>,
        pub counters: Vec<CounterRow>,
        pub gauges: Vec<GaugeRow>,
        pub histograms: Vec<HistogramRow>,
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

impl RunReport {
    /// Snapshot the process-global registry.
    pub fn capture() -> RunReport {
        Self::capture_from(registry::global())
    }

    /// Snapshot an explicit registry (tests).
    pub fn capture_from(reg: &Registry) -> RunReport {
        let mut report = RunReport::default();
        reg.for_each_span(|path, stat| {
            for slot in 0..=WORKER_SLOTS {
                let (count, total_ns, min_ns, max_ns) = stat.snapshot(slot);
                if count == 0 {
                    continue;
                }
                report.spans.push(SpanRow {
                    path: path.to_string(),
                    worker: (slot != UNATTRIBUTED_SLOT).then_some(slot),
                    count,
                    total_secs: secs(total_ns),
                    min_secs: secs(min_ns),
                    max_secs: secs(max_ns),
                });
            }
        });
        reg.for_each_counter(|name, c| {
            let value = c.get();
            if value > 0 {
                report.counters.push(CounterRow { name: name.to_string(), value });
            }
        });
        reg.for_each_gauge(|name, g| {
            let (value, max) = (g.get(), g.max());
            if value != 0 || max != 0 {
                report.gauges.push(GaugeRow { name: name.to_string(), value, max });
            }
        });
        reg.for_each_histogram(|name, h| {
            let count = h.count();
            if count == 0 {
                return;
            }
            let buckets = h
                .buckets()
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (bucket_bound(i), c))
                .collect();
            report.histograms.push(HistogramRow {
                name: name.to_string(),
                count,
                sum: h.sum(),
                buckets,
            });
        });
        report
    }

    /// Attach a metadata key/value (builder style).
    pub fn with_meta(mut self, key: &str, value: impl ToString) -> Self {
        self.meta.push((key.to_string(), value.to_string()));
        self
    }

    /// Worker ids that recorded at least one span, ascending.
    pub fn workers(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.spans.iter().filter_map(|s| s.worker).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Total seconds under `path` for one worker (0 when absent).
    pub fn worker_span_secs(&self, worker: Option<usize>, path: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.worker == worker && s.path == path)
            .map(|s| s.total_secs)
            .sum()
    }

    /// Total seconds under `path` across all workers.
    pub fn span_total_secs(&self, path: &str) -> f64 {
        self.spans.iter().filter(|s| s.path == path).map(|s| s.total_secs).sum()
    }

    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
    }

    /// Sum of every counter whose name starts with `prefix`.
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters.iter().filter(|c| c.name.starts_with(prefix)).map(|c| c.value).sum()
    }

    /// Where the training time went by layer kind: one row per `<kind>` of
    /// the `nn.layer.<kind>.{fwd,bwd}_ns` histograms (count = calls, sum =
    /// nanoseconds), largest total first; empty when the run recorded none.
    pub fn layer_kinds(&self) -> Vec<LayerKindRow> {
        let mut rows: Vec<LayerKindRow> = Vec::new();
        for h in &self.histograms {
            let Some((kind, pass)) =
                h.name.strip_prefix("nn.layer.").and_then(|rest| rest.rsplit_once('.'))
            else {
                continue;
            };
            let at = rows.iter().position(|r| r.kind == kind).unwrap_or_else(|| {
                rows.push(LayerKindRow { kind: kind.to_string(), ..Default::default() });
                rows.len() - 1
            });
            let row = &mut rows[at];
            match pass {
                "fwd_ns" => (row.fwd_secs, row.fwd_calls) = (secs(h.sum), h.count),
                "bwd_ns" => (row.bwd_secs, row.bwd_calls) = (secs(h.sum), h.count),
                _ => {}
            }
        }
        rows.sort_by(|a, b| (b.fwd_secs + b.bwd_secs).total_cmp(&(a.fwd_secs + a.bwd_secs)));
        rows
    }

    /// Fold `other` into `self` — the cross-process aggregation primitive.
    ///
    /// Counters sum by name; histograms sum counts/sums and merge buckets by
    /// bound; spans sum counts/totals and combine min/max per `(path,
    /// worker)`; gauges sum both value and high-watermark (the summed
    /// watermark is an upper bound on the true cluster-wide peak, since
    /// per-process peaks need not coincide). Metadata keeps the first
    /// occurrence of each key. Rows are re-sorted afterwards, so for
    /// integer-valued sections (counters, histograms) the merge is
    /// associative and commutative — the property that makes "merge worker
    /// snapshots in arrival order" well-defined.
    pub fn merge(&mut self, other: &RunReport) {
        for (k, v) in &other.meta {
            if !self.meta.iter().any(|(mine, _)| mine == k) {
                self.meta.push((k.clone(), v.clone()));
            }
        }
        for s in &other.spans {
            match self.spans.iter_mut().find(|m| m.path == s.path && m.worker == s.worker) {
                Some(mine) => {
                    mine.count += s.count;
                    mine.total_secs += s.total_secs;
                    mine.min_secs = mine.min_secs.min(s.min_secs);
                    mine.max_secs = mine.max_secs.max(s.max_secs);
                }
                None => self.spans.push(s.clone()),
            }
        }
        for c in &other.counters {
            match self.counters.iter_mut().find(|m| m.name == c.name) {
                Some(mine) => mine.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        for g in &other.gauges {
            match self.gauges.iter_mut().find(|m| m.name == g.name) {
                Some(mine) => {
                    mine.value += g.value;
                    mine.max += g.max;
                }
                None => self.gauges.push(g.clone()),
            }
        }
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|m| m.name == h.name) {
                Some(mine) => {
                    mine.count += h.count;
                    mine.sum += h.sum;
                    for &(le, c) in &h.buckets {
                        match mine.buckets.iter_mut().find(|(b, _)| *b == le) {
                            Some((_, mc)) => *mc += c,
                            None => mine.buckets.push((le, c)),
                        }
                    }
                    mine.buckets.sort_unstable_by_key(|&(le, _)| le);
                }
                None => self.histograms.push(h.clone()),
            }
        }
        // Canonical ordering: capture produces name-sorted sections, and a
        // merged report must look the same regardless of merge order.
        self.spans.sort_by(|a, b| {
            (a.path.as_str(), a.worker.map_or(0, |w| w + 1))
                .cmp(&(b.path.as_str(), b.worker.map_or(0, |w| w + 1)))
        });
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        self.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Fold this report's counters and histograms into `reg` (interning
    /// names as needed) — how a coordinator makes worker-side totals visible
    /// to its own later [`RunReport::capture`]. Spans and gauges are *not*
    /// absorbed: span worker-slot attribution and gauge current-values are
    /// process-local notions that would mislead when summed into a live
    /// registry; they stay in the per-process reports.
    pub fn absorb_into(&self, reg: &Registry) {
        for c in &self.counters {
            reg.merge_counter(&c.name, c.value);
        }
        for h in &self.histograms {
            reg.merge_histogram(&h.name, h.count, h.sum, &h.buckets);
        }
    }

    /// Render the report as a JSON document.
    pub fn to_json(&self) -> String {
        let meta =
            Json::Obj(self.meta.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect());
        let spans = Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("path".into(), Json::Str(s.path.clone())),
                        ("worker".into(), s.worker.map_or(Json::Null, |w| Json::Num(w as f64))),
                        ("count".into(), Json::Num(s.count as f64)),
                        ("total_secs".into(), Json::Num(s.total_secs)),
                        ("min_secs".into(), Json::Num(s.min_secs)),
                        ("max_secs".into(), Json::Num(s.max_secs)),
                    ])
                })
                .collect(),
        );
        let counters = Json::Arr(
            self.counters
                .iter()
                .map(|c| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(c.name.clone())),
                        ("value".into(), Json::Num(c.value as f64)),
                    ])
                })
                .collect(),
        );
        let gauges = Json::Arr(
            self.gauges
                .iter()
                .map(|g| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(g.name.clone())),
                        ("value".into(), Json::Num(g.value as f64)),
                        ("max".into(), Json::Num(g.max as f64)),
                    ])
                })
                .collect(),
        );
        let histograms = Json::Arr(
            self.histograms
                .iter()
                .map(|h| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(h.name.clone())),
                        ("count".into(), Json::Num(h.count as f64)),
                        ("sum".into(), Json::Num(h.sum as f64)),
                        (
                            "buckets".into(),
                            Json::Arr(
                                h.buckets
                                    .iter()
                                    .map(|&(le, c)| {
                                        Json::Arr(vec![
                                            // The overflow bound u64::MAX is
                                            // not exactly representable in
                                            // f64; serialize it as -1.
                                            if le == u64::MAX {
                                                Json::Num(-1.0)
                                            } else {
                                                Json::Num(le as f64)
                                            },
                                            Json::Num(c as f64),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("meta".into(), meta),
            ("spans".into(), spans),
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
        ])
        .render()
    }

    /// Parse a report previously produced by [`RunReport::to_json`].
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let doc = Json::parse(text)?;
        let mut report = RunReport::default();
        if let Some(Json::Obj(members)) = doc.get("meta") {
            for (k, v) in members {
                let v = v.as_str().ok_or("meta values must be strings")?;
                report.meta.push((k.clone(), v.to_string()));
            }
        }
        let field = |row: &Json, key: &str| -> Result<f64, String> {
            row.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing field '{key}'"))
        };
        for row in doc.get("spans").and_then(Json::as_array).unwrap_or(&[]) {
            report.spans.push(SpanRow {
                path: row
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or("span row missing 'path'")?
                    .to_string(),
                worker: match row.get("worker") {
                    Some(Json::Null) | None => None,
                    Some(v) => Some(v.as_u64().ok_or("bad span worker")? as usize),
                },
                count: field(row, "count")? as u64,
                total_secs: field(row, "total_secs")?,
                min_secs: field(row, "min_secs")?,
                max_secs: field(row, "max_secs")?,
            });
        }
        for row in doc.get("counters").and_then(Json::as_array).unwrap_or(&[]) {
            report.counters.push(CounterRow {
                name: row
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("counter row missing 'name'")?
                    .to_string(),
                value: field(row, "value")? as u64,
            });
        }
        for row in doc.get("gauges").and_then(Json::as_array).unwrap_or(&[]) {
            report.gauges.push(GaugeRow {
                name: row
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("gauge row missing 'name'")?
                    .to_string(),
                value: field(row, "value")? as i64,
                max: field(row, "max")? as i64,
            });
        }
        for row in doc.get("histograms").and_then(Json::as_array).unwrap_or(&[]) {
            let mut buckets = Vec::new();
            for pair in row.get("buckets").and_then(Json::as_array).unwrap_or(&[]) {
                let pair = pair.as_array().ok_or("histogram bucket must be a pair")?;
                if pair.len() != 2 {
                    return Err("histogram bucket must be a pair".into());
                }
                let le = match pair[0].as_f64() {
                    Some(x) if x < 0.0 => u64::MAX,
                    Some(x) => x as u64,
                    None => return Err("bad bucket bound".into()),
                };
                buckets.push((le, pair[1].as_u64().ok_or("bad bucket count")?));
            }
            report.histograms.push(HistogramRow {
                name: row
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("histogram row missing 'name'")?
                    .to_string(),
                count: field(row, "count")? as u64,
                sum: field(row, "sum")? as u64,
                buckets,
            });
        }
        Ok(report)
    }

    /// Write the JSON rendering to `path`.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Read a report back from `path`.
    pub fn read_json(path: &Path) -> io::Result<RunReport> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            meta: vec![("app".into(), "Uno".into()), ("seed".into(), "3".into())],
            spans: vec![
                SpanRow {
                    path: "nas.eval".into(),
                    worker: Some(0),
                    count: 4,
                    total_secs: 1.25,
                    min_secs: 0.2,
                    max_secs: 0.4,
                },
                SpanRow {
                    path: "nas.eval".into(),
                    worker: None,
                    count: 1,
                    total_secs: 0.1,
                    min_secs: 0.1,
                    max_secs: 0.1,
                },
            ],
            counters: vec![CounterRow { name: "nn.batches".into(), value: 128 }],
            gauges: vec![GaugeRow { name: "ckpt.queue".into(), value: 0, max: 7 }],
            histograms: vec![HistogramRow {
                name: "ckpt.save_ns".into(),
                count: 3,
                sum: 3000,
                buckets: vec![(1023, 2), (u64::MAX, 1)],
            }],
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let report = sample();
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn file_round_trip() {
        let report = sample();
        let path = std::env::temp_dir().join(format!("swt_report_{}.json", std::process::id()));
        report.write_json(&path).unwrap();
        let back = RunReport::read_json(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn accessors_aggregate_rows() {
        let report = sample();
        assert_eq!(report.workers(), vec![0]);
        assert_eq!(report.worker_span_secs(Some(0), "nas.eval"), 1.25);
        assert_eq!(report.worker_span_secs(None, "nas.eval"), 0.1);
        assert_eq!(report.span_total_secs("nas.eval"), 1.35);
        assert_eq!(report.counter("nn.batches"), 128);
        assert_eq!(report.counter("missing"), 0);
    }

    #[test]
    fn layer_kinds_groups_the_nn_layer_histograms() {
        let hist = |name: &str, count, sum| HistogramRow {
            name: name.into(),
            count,
            sum,
            buckets: vec![],
        };
        let report = RunReport {
            histograms: vec![
                hist("ckpt.save_ns", 3, 3000),
                hist("nn.layer.act.bwd_ns", 4, 1_000_000_000),
                hist("nn.layer.act.fwd_ns", 6, 500_000_000),
                hist("nn.layer.conv2d.bwd_ns", 4, 3_000_000_000),
                hist("nn.layer.conv2d.fwd_ns", 6, 2_000_000_000),
            ],
            ..Default::default()
        };
        let conv = LayerKindRow {
            kind: "conv2d".into(),
            fwd_secs: 2.0,
            fwd_calls: 6,
            bwd_secs: 3.0,
            bwd_calls: 4,
        };
        let act = LayerKindRow { kind: "act".into(), fwd_secs: 0.5, bwd_secs: 1.0, ..conv.clone() };
        assert_eq!(report.layer_kinds(), vec![conv, act]);
        assert!(sample().layer_kinds().is_empty());
    }

    #[test]
    fn from_json_rejects_malformed_reports() {
        assert!(RunReport::from_json("not json").is_err());
        assert!(RunReport::from_json(r#"{"spans":[{"worker":0}]}"#).is_err());
        assert!(RunReport::from_json(r#"{"counters":[{"name":"x"}]}"#).is_err());
    }

    #[test]
    fn capture_collects_live_metrics() {
        let _lock = crate::test_lock();
        crate::enable();
        crate::reset();
        crate::counter!("obs_test.report.counter").add(3);
        crate::gauge!("obs_test.report.gauge").add(2);
        crate::histogram!("obs_test.report.hist").observe(100);
        {
            crate::span::set_worker(1);
            let _g = crate::span!("obs_test.report.span");
        }
        crate::span::clear_worker();
        crate::disable();
        let report = RunReport::capture().with_meta("k", "v");
        assert_eq!(report.counter("obs_test.report.counter"), 3);
        assert!(report.workers().contains(&1));
        assert!(report.worker_span_secs(Some(1), "obs_test.report.span") >= 0.0);
        let hist = report.histograms.iter().find(|h| h.name == "obs_test.report.hist").unwrap();
        assert_eq!((hist.count, hist.sum), (1, 100));
        assert_eq!(report.meta.last().unwrap(), &("k".to_string(), "v".to_string()));
        // Round-trip the captured report too.
        assert_eq!(RunReport::from_json(&report.to_json()).unwrap(), report);
    }
}
