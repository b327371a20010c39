//! A small, offline benchmark harness.
//!
//! The container builds with no external registry, so criterion is not
//! available; this module provides the subset the repository needs: warmed-up
//! median timing, a named-result collector, and machine-readable JSON output
//! (`BENCH_*.json`) for tracking numbers across commits.

use std::hint::black_box;
use std::time::Instant;
use swt::obs::json::escape;

/// One measured benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Dotted path, e.g. `"gemm.blocked.256x256x256"`.
    pub name: String,
    /// Median wall time of one iteration, in nanoseconds.
    pub median_ns: f64,
    /// Iterations actually timed (after warm-up).
    pub iters: usize,
}

/// Time `f` and return the median nanoseconds per iteration.
///
/// The sample count adapts to the cost of `f`: fast closures run often
/// enough for a stable median, second-scale ones only a handful of times.
/// The median (not the mean) is reported so one preempted iteration cannot
/// skew the result.
pub fn median_ns<F: FnMut()>(mut f: F) -> (f64, usize) {
    // One untimed call to warm caches and lazy state.
    f();
    // Calibrate: how long does one call take?
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_nanos().max(1) as u64;
    // Target ~200ms of total measurement, clamped to [5, 301] samples.
    let iters = (200_000_000 / once).clamp(5, 301) as usize;
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    let mid = samples.len() / 2;
    let median = if samples.len() % 2 == 0 {
        (samples[mid - 1] + samples[mid]) as f64 / 2.0
    } else {
        samples[mid] as f64
    };
    (median, iters)
}

/// Collects named results and renders them as a report or JSON.
#[derive(Debug, Default)]
pub struct Harness {
    results: Vec<BenchResult>,
}

impl Harness {
    pub fn new() -> Self {
        Self::default()
    }

    /// Run one benchmark, print a human-readable line, record the result.
    pub fn bench<F: FnMut()>(&mut self, name: &str, f: F) {
        let (median, iters) = median_ns(f);
        self.record(name, median, iters);
    }

    /// Record an externally measured result. For benchmarks whose iteration
    /// structure the harness cannot drive — e.g. alternating A/B runs where
    /// the two arms must interleave to share drift — the caller times the
    /// runs itself and reports the median here.
    pub fn record(&mut self, name: &str, median_ns: f64, iters: usize) {
        println!("{name:<48} {:>14} ns/iter  ({iters} iters)", group_digits(median_ns));
        self.results.push(BenchResult { name: name.to_string(), median_ns, iters });
    }

    /// Like [`Harness::bench`] but with a per-iteration setup closure whose
    /// cost is excluded by construction: setup output feeds the timed
    /// closure through `black_box`.
    ///
    /// Note the reported time *includes* one `setup` call per iteration, so
    /// use this only when setup is cheap relative to the routine.
    pub fn bench_with_setup<S, T, F>(&mut self, name: &str, mut setup: S, mut f: F)
    where
        S: FnMut() -> T,
        F: FnMut(T),
    {
        self.bench(name, || {
            let input = black_box(setup());
            f(input)
        });
    }

    /// Median of a previously recorded benchmark.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.results.iter().find(|r| r.name == name).map(|r| r.median_ns)
    }

    /// Render all results as a JSON document (stable key order).
    pub fn to_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\n");
        for (k, v) in meta {
            out.push_str(&format!("  {}: {},\n", escape(k), json_value(v)));
        }
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"median_ns\": {:.1}, \"iters\": {}}}{}\n",
                escape(&r.name),
                r.median_ns,
                r.iters,
                if i + 1 == self.results.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// A header value as JSON: a number when the text is one (`59.8`, `-3`, `1`),
/// so readers can compare it without parsing strings; a string otherwise.
fn json_value(s: &str) -> String {
    let digits = |t: &str| !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit());
    let unsigned = s.strip_prefix('-').unwrap_or(s);
    let (int, frac) = unsigned.split_once('.').unwrap_or((unsigned, "0"));
    // JSON allows no leading zeros (and `007` is more likely a label).
    if digits(int) && digits(frac) && (int == "0" || !int.starts_with('0')) {
        s.to_string()
    } else {
        escape(s)
    }
}

/// `1234567.8` -> `"1_234_567"` for readable console output.
fn group_digits(ns: f64) -> String {
    let n = ns.round() as u128;
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ns_measures_something() {
        let mut x = 0u64;
        let (ns, iters) = median_ns(|| {
            for i in 0..1000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        });
        assert!(ns > 0.0);
        assert!((5..=301).contains(&iters));
    }

    #[test]
    fn harness_records_and_serialises() {
        let mut h = Harness::new();
        h.bench("noop.fast", || {
            std::hint::black_box(1 + 1);
        });
        assert!(h.get("noop.fast").is_some());
        assert!(h.get("missing").is_none());
        let json = h.to_json(&[("host", "test".to_string()), ("gflops.x", "59.8".to_string())]);
        assert!(json.contains("\"host\": \"test\""));
        assert!(json.contains("\"gflops.x\": 59.8,"));
        assert!(json.contains("\"name\": \"noop.fast\""));
        assert!(json.contains("\"median_ns\""));
    }

    #[test]
    fn header_values_that_are_numbers_are_written_as_numbers() {
        for number in ["1", "0", "-3", "59.8", "0.25", "-0.5", "120"] {
            assert_eq!(json_value(number), number);
        }
        for text in ["avx2+fma", "", "-", "1.", ".5", "1.2.3", "007", "1e5", "inf", "NaN", "+1"] {
            assert_eq!(json_value(text), escape(text));
        }
    }

    #[test]
    fn digit_grouping() {
        assert_eq!(group_digits(1234567.8), "1_234_568");
        assert_eq!(group_digits(12.0), "12");
        assert_eq!(group_digits(123.0), "123");
    }
}
