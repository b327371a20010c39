//! Integration: the NAS runner across transfer schemes — trace invariants,
//! checkpointing of every candidate, single-worker determinism, and the
//! provider cache holding the lineage's live set.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use swt::prelude::*;

fn quick_run(scheme: TransferScheme, workers: usize, seed: u64) -> (NasTrace, Arc<MemStore>) {
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let store = Arc::new(MemStore::new());
    let cfg = NasConfig::quick(scheme, 8, workers, seed);
    let trace = run_nas(problem, space, Arc::clone(&store) as Arc<dyn CheckpointStore>, &cfg);
    (trace, store)
}

#[test]
fn every_scheme_produces_a_complete_valid_trace() {
    for scheme in TransferScheme::all() {
        let (trace, store) = quick_run(scheme, 2, 7);
        assert_eq!(trace.events.len(), 8, "{scheme:?}");
        assert_eq!(trace.scheme, scheme);

        let mut ids: Vec<u64> = trace.events.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "{scheme:?}: candidate ids must be unique");

        for e in &trace.events {
            assert!(e.score.is_finite(), "{scheme:?} c{}", e.id);
            assert!(e.t_end >= e.t_start, "{scheme:?} c{}", e.id);
            assert!(e.checkpoint_bytes > 0, "{scheme:?} c{}", e.id);
            // Every candidate's checkpoint is retrievable for later transfer.
            assert!(store.exists(&format!("c{}", e.id)), "{scheme:?} c{}", e.id);
        }

        let transferred = trace.events.iter().filter(|e| e.transfer_tensors > 0).count();
        if scheme == TransferScheme::Baseline {
            assert_eq!(transferred, 0, "baseline must never transfer");
        }
    }
}

#[test]
fn lcs_scheme_actually_transfers_weights() {
    // The quick config's warmup population is 16 random candidates; a
    // 24-candidate budget guarantees 8 mutated children, and Uno is the
    // paper's most shareable app — transfer must fire.
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
    let cfg = NasConfig::quick(TransferScheme::Lcs, 24, 2, 7);
    let trace = run_nas(problem, space, store, &cfg);
    let transferred: Vec<_> = trace.events.iter().filter(|e| e.transfer_tensors > 0).collect();
    assert!(!transferred.is_empty(), "no candidate received weights");
    for e in transferred {
        assert!(e.parent.is_some(), "c{} transferred without a parent", e.id);
        assert!(e.transfer_bytes > 0, "c{}", e.id);
    }
}

#[test]
fn single_worker_runs_are_deterministic() {
    let (a, _) = quick_run(TransferScheme::Lcs, 1, 13);
    let (b, _) = quick_run(TransferScheme::Lcs, 1, 13);
    let key = |t: &NasTrace| {
        let mut v: Vec<(u64, String, u64)> = t
            .events
            .iter()
            .map(|e| (e.id, format!("{:.9}", e.score), e.checkpoint_bytes))
            .collect();
        v.sort();
        v
    };
    assert_eq!(key(&a), key(&b), "same seed + 1 worker must reproduce scores");
}

#[test]
fn trace_csv_round_trip_preserves_events() {
    let (trace, _) = quick_run(TransferScheme::Lp, 1, 3);
    let dir = std::env::temp_dir().join(format!("swt_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.csv");
    trace.write_csv(&path).unwrap();
    let back = NasTrace::read_csv(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(back.events.len(), trace.events.len());
    for (x, y) in trace.events.iter().zip(&back.events) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.parent, y.parent);
        assert!((x.score - y.score).abs() < 1e-9, "c{}", x.id);
        assert_eq!(x.transfer_tensors, y.transfer_tensors);
    }
}

/// Run with an explicit store and namespace (the helpers above own their
/// stores; the shared-store tests below need to inject one).
fn run_with_store(
    store: Arc<dyn CheckpointStore>,
    namespace: &str,
    seed: u64,
    candidates: usize,
) -> NasTrace {
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let mut cfg = NasConfig::quick(TransferScheme::Lcs, candidates, 2, seed);
    cfg.namespace = namespace.to_string();
    // No per-run cache wrapper: these tests read and write the injected
    // store directly (one of them wraps it in a single shared CachedStore).
    cfg.cache_bytes = 0;
    run_nas(problem, space, store, &cfg)
}

fn score_bits(t: &NasTrace) -> Vec<(u64, u64, usize)> {
    t.events.iter().map(|e| (e.id, e.score.to_bits(), e.transfer_tensors)).collect()
}

#[test]
fn concurrent_namespaced_runs_on_one_store_match_isolated_runs() {
    // Two searches share one store — the paper's experiments share one
    // parallel file system — under *concurrent* load. Distinct namespaces
    // must keep them fully independent: each concurrent trace must be
    // bit-identical to the same search run alone on a private store.
    let iso_a = run_with_store(Arc::new(MemStore::new()), "", 21, 24);
    let iso_b = run_with_store(Arc::new(MemStore::new()), "", 22, 24);

    let shared = Arc::new(MemStore::new());
    let (a, b) = std::thread::scope(|s| {
        let sa = Arc::clone(&shared);
        let sb = Arc::clone(&shared);
        let ha = s.spawn(move || run_with_store(sa, "expA_", 21, 24));
        let hb = s.spawn(move || run_with_store(sb, "expB_", 22, 24));
        (ha.join().unwrap(), hb.join().unwrap())
    });

    assert_eq!(score_bits(&iso_a), score_bits(&a), "run A corrupted by its neighbour");
    assert_eq!(score_bits(&iso_b), score_bits(&b), "run B corrupted by its neighbour");
    for e in &a.events {
        assert!(shared.exists(&format!("expA_c{}", e.id)));
    }
    for e in &b.events {
        assert!(shared.exists(&format!("expB_c{}", e.id)));
    }
    assert!(!shared.exists("c0"), "no run may write outside its namespace");
}

#[test]
fn shared_cached_store_stays_coherent_under_concurrent_runs() {
    // Same workload through one *shared* CachedStore, two namespaces: both
    // runs save through it, re-read providers from it and retire their own
    // ids in it concurrently. Every score must still match the uncached
    // isolated baselines exactly, and the cache must serve hits, under two
    // budgets. Three checkpoints, far below the joint live set: the cap
    // evicts and holds, and it has taken a dying id long before its hint
    // comes. Room for all 48: nothing is capped, so every hinted id is
    // resident and the hint retires it. (Process-wide counters: lower
    // bounds only.)
    let iso_a = run_with_store(Arc::new(MemStore::new()), "", 21, 24);
    let iso_b = run_with_store(Arc::new(MemStore::new()), "", 22, 24);

    swt::obs::enable();
    let reg = swt::obs::registry::global();
    let count = |name: &str| reg.counter(&format!("ckpt.cache.{name}")).get();
    let (tight, roomy): (u64, u64) = (1 << 20, 64 << 20);
    for budget in [tight, roomy] {
        let before = ["hits", "retired", "capped"].map(count);
        let cached = Watch::new(CachedStore::new(MemStore::new(), budget), |c| c.resident_bytes());
        let (a, b) = std::thread::scope(|s| {
            let sa: Arc<dyn CheckpointStore> = Arc::clone(&cached) as _;
            let sb: Arc<dyn CheckpointStore> = Arc::clone(&cached) as _;
            let ha = s.spawn(move || run_with_store(sa, "expA_", 21, 24));
            let hb = s.spawn(move || run_with_store(sb, "expB_", 22, 24));
            (ha.join().unwrap(), hb.join().unwrap())
        });

        let what = format!("budget {budget} B");
        assert_eq!(score_bits(&iso_a), score_bits(&a), "{what}: cached run A diverged");
        assert_eq!(score_bits(&iso_b), score_bits(&b), "{what}: cached run B diverged");
        let [hits, retired, capped] = ["hits", "retired", "capped"].map(count);
        assert!(hits > before[0], "{what}: provider re-reads should hit the shared cache");
        assert!(cached.peak.load(Ordering::Relaxed) <= budget, "{what}: cache exceeded its budget");
        if budget == tight {
            assert!(capped > before[2], "48 checkpoints passed through a three-checkpoint cap");
        } else {
            let largest = cached.largest.load(Ordering::Relaxed);
            assert!(48 * largest <= budget, "{what}: too small to hold every checkpoint");
            assert!(retired > before[1], "24 candidates outlive a 16-member population");
        }
    }
}

/// Forwards to `inner`, counting what reaches it and sampling
/// `resident(inner)` after every save (residency only peaks there).
struct Watch<S> {
    inner: S,
    resident: fn(&S) -> u64,
    reads: AtomicU64,
    saves: AtomicU64,
    raw_saves: AtomicU64,
    largest: AtomicU64,
    peak: AtomicU64,
}

impl<S: CheckpointStore> Watch<S> {
    fn new(inner: S, resident: fn(&S) -> u64) -> Arc<Self> {
        let zero = || AtomicU64::new(0);
        let (reads, saves, raw_saves, largest, peak) = (zero(), zero(), zero(), zero(), zero());
        Arc::new(Watch { inner, resident, reads, saves, raw_saves, largest, peak })
    }

    fn read<R>(&self, result: R) -> R {
        self.reads.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn saved(&self, calls: &AtomicU64, result: io::Result<u64>) -> io::Result<u64> {
        calls.fetch_add(1, Ordering::Relaxed);
        self.largest.fetch_max(*result.as_ref().unwrap_or(&0), Ordering::Relaxed);
        self.peak.fetch_max((self.resident)(&self.inner), Ordering::Relaxed);
        result
    }
}

impl<S: CheckpointStore> CheckpointStore for Watch<S> {
    fn save(&self, id: &str, entries: &[(String, Tensor)]) -> io::Result<u64> {
        self.saved(&self.saves, self.inner.save(id, entries))
    }
    fn save_raw(&self, id: &str, bytes: &[u8]) -> io::Result<u64> {
        self.saved(&self.raw_saves, self.inner.save_raw(id, bytes))
    }
    fn load(&self, id: &str) -> io::Result<Vec<(String, Tensor)>> {
        self.read(self.inner.load(id))
    }
    fn load_raw(&self, id: &str) -> io::Result<Vec<u8>> {
        self.read(self.inner.load_raw(id))
    }
    fn load_index(&self, id: &str) -> io::Result<CheckpointIndex> {
        self.read(self.inner.load_index(id))
    }
    fn load_tensors(&self, id: &str, names: &[String]) -> io::Result<Vec<(String, Tensor)>> {
        self.read(self.inner.load_tensors(id, names))
    }
    fn evict(&self, id: &str) {
        self.inner.evict(id)
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

#[test]
fn the_provider_cache_holds_the_live_set_and_the_store_is_never_read() {
    // tab_lcs_pool's shape: 400 Uno candidates, LCS, 2 workers, population 16.
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let run = |store: Arc<dyn CheckpointStore>, cfg: &NasConfig| {
        run_nas(Arc::clone(&problem), Arc::clone(&space), store, cfg)
    };
    let cfg = NasConfig::quick(TransferScheme::Lcs, 400, 2, 7);
    let uncached = NasConfig { cache_bytes: 0, ..cfg.clone() };
    let count = |n: &AtomicU64| n.load(Ordering::Relaxed);

    // As a user runs it: every checkpoint reaches the store once, as the
    // bytes the cache encoded, and no provider is ever read back from it.
    let beneath = Watch::new(MemStore::new(), |_| 0);
    let cached_trace = run(Arc::clone(&beneath) as _, &cfg);
    assert_eq!(count(&beneath.reads), 0, "a provider this process trained was read from the store");
    assert_eq!((count(&beneath.raw_saves), count(&beneath.saves)), (400, 0));

    // Residency changes what is kept, never what is read: same trace bytes
    // with no cache at all (and then the store does serve the reads).
    let bare = Watch::new(MemStore::new(), |_| 0);
    let bare_trace = run(Arc::clone(&bare) as _, &uncached);
    assert_eq!(cached_trace.canonical_csv(), bare_trace.canonical_csv());
    assert!(count(&bare.reads) > 400, "index + tensors per child, from the store");

    // The same search through a cache this test can see into: what it holds
    // is the population plus what is in flight on either side of it, not the
    // 400 checkpoints that passed through (nor the 32 MiB it may hold).
    let seen =
        Watch::new(CachedStore::new(MemStore::new(), cfg.cache_bytes), |c| c.resident_bytes());
    let seen_trace = run(Arc::clone(&seen) as _, &uncached);
    assert_eq!(cached_trace.canonical_csv(), seen_trace.canonical_csv());
    let live_set = (cfg.population_size + 2 * cfg.workers + 1) as u64 * count(&seen.largest);
    let peak = count(&seen.peak);
    assert!(0 < peak && peak <= live_set, "resident peak {peak} B, live set {live_set} B");
    assert!(seen.inner.resident_bytes() <= peak);

    // Without a transfer scheme nothing is read back, so `run_nas` puts no
    // cache in front: the store sees plain saves, and nothing is resident.
    let baseline = NasConfig::quick(TransferScheme::Baseline, 40, 2, 7);
    let plain = Watch::new(MemStore::new(), |_| 0);
    run(Arc::clone(&plain) as _, &baseline);
    assert_eq!((count(&plain.saves), count(&plain.raw_saves), count(&plain.reads)), (40, 0, 0));
}

/// One Cifar10-space candidate with both pool windows, batch-norm, identity
/// nodes and dense layers, trained for one epoch: its score and every
/// `state_dict` tensor must keep the bits recorded in
/// `tests/golden/cifar10_candidate.txt` (one line per GEMM micro-kernel,
/// taken from the commit before activations moved into the model's arena).
/// A layer refactor that changes one rounding anywhere in forward, backward
/// or the pooling route shows up here. Every fusing kernel contracts in the
/// same pinned order, so their lines must be one and the same; a host whose
/// kernel has no line passes with a note here and fails `scripts/check.sh`.
#[test]
fn cifar10_candidate_keeps_its_golden_bits() {
    let problem = AppKind::Cifar10.problem(DataScale::Quick, 11);
    let space = SearchSpace::for_app(AppKind::Cifar10);
    // conv 8/same, pool 2/2, bn | conv 16/valid/l2, id, id |
    // conv 24/same, pool 3/2, bn | conv 16/same, id, id | dense 64, id, dense 32
    let arch = ArchSeq::new(vec![0, 1, 1, 7, 0, 0, 8, 2, 1, 4, 0, 0, 2, 0, 1]);
    let spec = space.materialize(&arch).unwrap();
    let mut model = Model::build(&spec, 0x5EED).unwrap();
    let cfg = TrainConfig { batch_size: problem.batch_size, shuffle_seed: 3, ..Default::default() };
    let report = Trainer::new(problem.loss, problem.metric).fit(
        &mut model,
        &problem.train,
        &problem.val,
        &cfg,
    );

    // FNV-1a over names, shapes and value bits, in state_dict order.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (name, t) in model.state_dict() {
        eat(name.as_bytes());
        t.shape().dims().iter().for_each(|d| eat(&(*d as u64).to_le_bytes()));
        t.data().iter().for_each(|v| eat(&v.to_bits().to_le_bytes()));
    }
    let got = format!("{:016x} {hash:016x}", report.final_metric.to_bits());

    let kernel = swt::tensor::gemm_kernel_name();
    let golden = include_str!("golden/cifar10_candidate.txt");
    let lines: Vec<(&str, &str)> = (golden.lines())
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .collect();
    let mut fused = lines.iter().filter(|(name, _)| *name != "scalar");
    let first = fused.next().expect("a fused-kernel golden line");
    for line in fused {
        assert_eq!(line.1, first.1, "`{}` and `{}` fuse alike: one line", line.0, first.0);
    }
    let want = lines.iter().find(|(name, _)| *name == kernel).map(|(_, bits)| *bits);
    match want {
        Some(want) => assert_eq!(got, want, "kernel {kernel}: score bits / state_dict hash moved"),
        // A kernel nobody has recorded on (e.g. FMA hardware without AVX2).
        None => eprintln!("no golden line for kernel `{kernel}`; measured `{got}`"),
    }
}
