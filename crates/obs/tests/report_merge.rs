//! `RunReport::merge` algebra: counter and pow2-histogram merges must be
//! associative and commutative (so folding worker snapshots in arrival
//! order is well-defined), and a merged report must render to JSON whole —
//! report.json for a multi-process run is produced exactly this way.

use swt_obs::json::Json;
use swt_obs::report::{CounterRow, GaugeRow, HistogramRow, SpanRow};
use swt_obs::{Registry, RunReport};

fn report_a() -> RunReport {
    RunReport {
        meta: vec![],
        spans: vec![SpanRow {
            path: "nas.eval".into(),
            worker: Some(0),
            count: 3,
            total_secs: 1.5,
            min_secs: 0.25,
            max_secs: 0.75,
        }],
        counters: vec![
            // Already in canonical (name-sorted) order, as capture produces.
            CounterRow { name: "ckpt.bytes".into(), value: 4096 },
            CounterRow { name: "gemm.calls".into(), value: 100 },
        ],
        gauges: vec![GaugeRow { name: "cache.resident".into(), value: 10, max: 20 }],
        histograms: vec![HistogramRow {
            name: "save_ns".into(),
            count: 4,
            sum: 1000,
            buckets: vec![(255, 3), (511, 1)],
        }],
    }
}

fn report_b() -> RunReport {
    RunReport {
        meta: vec![],
        spans: vec![SpanRow {
            path: "nas.eval".into(),
            worker: Some(1),
            count: 2,
            total_secs: 0.8,
            min_secs: 0.1,
            max_secs: 0.7,
        }],
        counters: vec![
            CounterRow { name: "gemm.calls".into(), value: 40 },
            CounterRow { name: "cache.hits".into(), value: 7 },
        ],
        gauges: vec![GaugeRow { name: "cache.resident".into(), value: 5, max: 9 }],
        histograms: vec![HistogramRow {
            name: "save_ns".into(),
            count: 2,
            sum: 600,
            buckets: vec![(255, 1), (1023, 1)],
        }],
    }
}

fn report_c() -> RunReport {
    RunReport {
        counters: vec![CounterRow { name: "ckpt.bytes".into(), value: 1 }],
        histograms: vec![HistogramRow {
            name: "save_ns".into(),
            count: 1,
            sum: 9,
            buckets: vec![(15, 1)],
        }],
        ..RunReport::default()
    }
}

fn merged(parts: &[&RunReport]) -> RunReport {
    let mut out = RunReport::default();
    for p in parts {
        out.merge(p);
    }
    out
}

#[test]
fn counter_totals_are_conserved() {
    let m = merged(&[&report_a(), &report_b()]);
    assert_eq!(m.counter("gemm.calls"), 140, "sum over processes");
    assert_eq!(m.counter("ckpt.bytes"), 4096, "one-sided counters survive");
    assert_eq!(m.counter("cache.hits"), 7);
    let h = m.histograms.iter().find(|h| h.name == "save_ns").unwrap();
    assert_eq!((h.count, h.sum), (6, 1600));
    assert_eq!(h.buckets, vec![(255, 4), (511, 1), (1023, 1)]);
    // Per-worker span rows stay distinct; shared-path totals aggregate.
    assert_eq!(m.span_total_secs("nas.eval"), 1.5 + 0.8);
    assert_eq!(m.workers(), vec![0, 1]);
}

#[test]
fn merge_is_commutative() {
    let ab = merged(&[&report_a(), &report_b()]);
    let ba = merged(&[&report_b(), &report_a()]);
    assert_eq!(ab, ba);
}

#[test]
fn merge_is_associative() {
    let left = {
        let mut ab = merged(&[&report_a(), &report_b()]);
        ab.merge(&report_c());
        ab
    };
    let right = {
        let bc = merged(&[&report_b(), &report_c()]);
        let mut a = report_a();
        a.merge(&bc);
        a
    };
    assert_eq!(left, right);
}

#[test]
fn merging_an_empty_report_is_identity() {
    let mut a = report_a();
    a.merge(&RunReport::default());
    assert_eq!(a, report_a());
    let mut e = RunReport::default();
    e.merge(&report_a());
    assert_eq!(e, report_a());
}

#[test]
fn merged_report_round_trips_through_json() {
    let mut m = merged(&[&report_a(), &report_b(), &report_c()]);
    m.meta.push(("mode".into(), "dist-run".into()));
    assert_renders(&m, &m.to_json());
}

/// `doc`'s rows of `section`, each as its values of `keys`.
fn rows(doc: &Json, section: &str, keys: &[&str]) -> Vec<Vec<Json>> {
    let rows = doc.get(section).and_then(Json::as_array).unwrap_or(&[]);
    rows.iter()
        .map(|r| keys.iter().map(|k| r.get(k).cloned().unwrap_or(Json::Null)).collect())
        .collect()
}

/// `text`, read through `Json::parse`, holds every field of `report`,
/// section by section.
fn assert_renders(report: &RunReport, text: &str) {
    let doc = Json::parse(text).expect("report.json must parse");
    let (s, n) = (|v: &str| Json::Str(v.to_string()), Json::Num);
    let meta = report.meta.iter().map(|(k, v)| (k.clone(), s(v))).collect();
    assert_eq!(doc.get("meta"), Some(&Json::Obj(meta)));
    let keys = ["path", "worker", "count", "total_secs", "min_secs", "max_secs"];
    let spans: Vec<_> = report
        .spans
        .iter()
        .map(|r| {
            let worker = r.worker.map_or(Json::Null, |w| n(w as f64));
            vec![
                s(&r.path),
                worker,
                n(r.count as f64),
                n(r.total_secs),
                n(r.min_secs),
                n(r.max_secs),
            ]
        })
        .collect();
    assert_eq!(rows(&doc, "spans", &keys), spans);
    let counters: Vec<_> =
        report.counters.iter().map(|c| vec![s(&c.name), n(c.value as f64)]).collect();
    assert_eq!(rows(&doc, "counters", &["name", "value"]), counters);
    let gauges: Vec<_> = report
        .gauges
        .iter()
        .map(|g| vec![s(&g.name), n(g.value as f64), n(g.max as f64)])
        .collect();
    assert_eq!(rows(&doc, "gauges", &["name", "value", "max"]), gauges);
    let histograms: Vec<_> = report
        .histograms
        .iter()
        .map(|h| {
            // The overflow bound renders as -1.
            let bound = |le| if le == u64::MAX { -1.0 } else { le as f64 };
            let buckets =
                h.buckets.iter().map(|&(le, c)| Json::Arr(vec![n(bound(le)), n(c as f64)]));
            vec![s(&h.name), n(h.count as f64), n(h.sum as f64), Json::Arr(buckets.collect())]
        })
        .collect();
    assert_eq!(rows(&doc, "histograms", &["name", "count", "sum", "buckets"]), histograms);
}

#[test]
fn absorb_into_registry_matches_pure_merge() {
    // The registry absorb path (coordinator merging worker snapshots into
    // its live registry) must agree with the pure RunReport::merge totals.
    let reg = Registry::new();
    for part in [&report_a(), &report_b(), &report_c()] {
        part.absorb_into(&reg);
    }
    let pure = merged(&[&report_a(), &report_b(), &report_c()]);
    for c in &pure.counters {
        assert_eq!(reg.counter(&c.name).get(), c.value, "counter {} diverged", c.name);
    }
    for h in &pure.histograms {
        let live = reg.histogram(&h.name);
        assert_eq!((live.count(), live.sum()), (h.count, h.sum), "histogram {} diverged", h.name);
    }
}

#[test]
fn gauge_merge_sums_values_and_watermarks() {
    let m = merged(&[&report_a(), &report_b()]);
    let g = m.gauges.iter().find(|g| g.name == "cache.resident").unwrap();
    assert_eq!((g.value, g.max), (15, 29));
}
