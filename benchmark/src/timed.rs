//! Benchmark-owned decorators on the program's two public traits. They put
//! a clock and a count around every call that crosses a layer boundary, so
//! a layer is measured from outside without a line of it changing.

use crate::api::{BackendResult, Candidate, CheckpointIndex, CheckpointStore, EvalBackend, Tensor};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Calls, time and errors of one store operation. Relaxed atomics: these are
/// statistics read after the workers have been joined.
#[derive(Default)]
pub struct OpStat {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl OpStat {
    fn record(&self, since: Instant) {
        self.nanos.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
pub struct StoreStats {
    pub save: OpStat,
    pub load: OpStat,
    pub load_raw: OpStat,
    pub load_index: OpStat,
    pub load_tensors: OpStat,
    read_bytes: AtomicU64,
    write_bytes: AtomicU64,
    errors: AtomicU64,
}

impl StoreStats {
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes.load(Ordering::Relaxed)
    }

    pub fn write_bytes(&self) -> u64 {
        self.write_bytes.load(Ordering::Relaxed)
    }

    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Every read the store served, whatever its form.
    pub fn reads(&self) -> u64 {
        self.load.calls()
            + self.load_raw.calls()
            + self.load_index.calls()
            + self.load_tensors.calls()
    }
}

/// A store that times the five data operations of the store behind it.
pub struct TimedStore<S> {
    inner: S,
    pub stats: std::sync::Arc<StoreStats>,
}

impl<S: CheckpointStore> TimedStore<S> {
    pub fn new(inner: S) -> Self {
        TimedStore { inner, stats: Default::default() }
    }

    fn timed<T>(
        &self,
        op: &OpStat,
        call: impl FnOnce(&S) -> io::Result<T>,
        bytes: impl FnOnce(&T) -> (u64, u64),
    ) -> io::Result<T> {
        let t0 = Instant::now();
        let out = call(&self.inner);
        op.record(t0);
        match &out {
            Ok(value) => {
                let (read, written) = bytes(value);
                self.stats.read_bytes.fetch_add(read, Ordering::Relaxed);
                self.stats.write_bytes.fetch_add(written, Ordering::Relaxed);
            }
            Err(_) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }
}

fn tensor_bytes(entries: &[(String, Tensor)]) -> u64 {
    entries.iter().map(|(_, t)| t.numel() as u64 * 4).sum()
}

impl<S: CheckpointStore> CheckpointStore for TimedStore<S> {
    fn save(&self, id: &str, entries: &[(String, Tensor)]) -> io::Result<u64> {
        self.timed(&self.stats.save, |s| s.save(id, entries), |n| (0, *n))
    }

    fn load(&self, id: &str) -> io::Result<Vec<(String, Tensor)>> {
        self.timed(&self.stats.load, |s| s.load(id), |e| (tensor_bytes(e), 0))
    }

    fn load_raw(&self, id: &str) -> io::Result<Vec<u8>> {
        self.timed(&self.stats.load_raw, |s| s.load_raw(id), |b| (b.len() as u64, 0))
    }

    fn load_index(&self, id: &str) -> io::Result<CheckpointIndex> {
        self.timed(&self.stats.load_index, |s| s.load_index(id), |_| (0, 0))
    }

    fn load_tensors(&self, id: &str, names: &[String]) -> io::Result<Vec<(String, Tensor)>> {
        self.timed(
            &self.stats.load_tensors,
            |s| s.load_tensors(id, names),
            |e| (tensor_bytes(e), 0),
        )
    }

    fn exists(&self, id: &str) -> bool {
        self.inner.exists(id)
    }

    fn size_bytes(&self, id: &str) -> Option<u64> {
        self.inner.size_bytes(id)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn delete(&self, id: &str) -> bool {
        self.inner.delete(id)
    }
}

/// What the runner's thread spent inside the backend, and how long each
/// candidate took from `submit` to the `next_result` that returned it.
#[derive(Default)]
pub struct BackendStats {
    pub submit_s: f64,
    pub wait_s: f64,
    /// `(candidate id, seconds from submit to result)`, first delivery only.
    pub turnaround: Vec<(u64, f64)>,
    pub duplicates: u64,
}

/// A backend that times `submit` and `next_result` of the backend behind it.
pub struct TimedBackend<B> {
    inner: B,
    stats: BackendStats,
    submitted: HashMap<u64, Instant>,
}

impl<B: EvalBackend> TimedBackend<B> {
    pub fn new(inner: B) -> Self {
        TimedBackend { inner, stats: Default::default(), submitted: HashMap::new() }
    }

    /// The backend behind, to tear it down, and what was measured.
    pub fn into_parts(self) -> (B, BackendStats) {
        (self.inner, self.stats)
    }
}

impl<B: EvalBackend> EvalBackend for TimedBackend<B> {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn submit(&mut self, cand: Candidate) -> io::Result<()> {
        let t0 = Instant::now();
        self.submitted.insert(cand.id, t0);
        let out = self.inner.submit(cand);
        self.stats.submit_s += t0.elapsed().as_secs_f64();
        out
    }

    fn next_result(&mut self) -> io::Result<BackendResult> {
        let t0 = Instant::now();
        let out = self.inner.next_result();
        let now = Instant::now();
        self.stats.wait_s += (now - t0).as_secs_f64();
        if let Ok(result) = &out {
            match self.submitted.remove(&result.cand.id) {
                Some(at) => self.stats.turnaround.push((result.cand.id, (now - at).as_secs_f64())),
                None => self.stats.duplicates += 1,
            }
        }
        out
    }
}
