//! Integration: the NAS runner across transfer schemes — trace invariants,
//! checkpointing of every candidate, single-worker determinism, one read of
//! each provider from the store, and the provider cache holding the
//! lineage's live set.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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

/// Forwards to `inner`, counting what reaches it — every `read` by id
/// (`load`, `load_index` and `load_tensors` are the trait's, built on it),
/// every `load_raw` in one count — and sampling `resident(inner)` after
/// every save (residency only peaks there).
struct Watch<S> {
    inner: S,
    resident: fn(&S) -> u64,
    reads: Mutex<Vec<String>>,
    raw_reads: AtomicU64,
    saves: AtomicU64,
    raw_saves: AtomicU64,
    evicts: AtomicU64,
    largest: AtomicU64,
    peak: AtomicU64,
}

impl<S: CheckpointStore> Watch<S> {
    fn new(inner: S, resident: fn(&S) -> u64) -> Arc<Self> {
        let zero = || AtomicU64::new(0);
        Arc::new(Watch {
            inner,
            resident,
            reads: Mutex::default(),
            raw_reads: zero(),
            saves: zero(),
            raw_saves: zero(),
            evicts: zero(),
            largest: zero(),
            peak: zero(),
        })
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
    fn load_raw(&self, id: &str) -> io::Result<Vec<u8>> {
        self.raw_reads.fetch_add(1, Ordering::Relaxed);
        self.inner.load_raw(id)
    }
    fn read(&self, id: &str, f: &mut dyn FnMut(&[u8]) -> io::Result<()>) -> io::Result<()> {
        self.reads.lock().unwrap().push(id.to_string());
        self.inner.read(id, f)
    }
    fn evict(&self, id: &str) {
        self.evicts.fetch_add(1, Ordering::Relaxed);
        self.inner.evict(id)
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
fn each_provider_is_read_once_from_the_store_and_nothing_is_resident() {
    // tab_lcs_pool's shape: 400 Uno candidates, LCS, 2 workers, population 16.
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let run = |store: Arc<dyn CheckpointStore>, cfg: &NasConfig| {
        run_nas(Arc::clone(&problem), Arc::clone(&space), store, cfg)
    };
    let cfg = NasConfig::quick(TransferScheme::Lcs, 400, 2, 7);
    let count = |n: &AtomicU64| n.load(Ordering::Relaxed);

    // As a user runs it, on a directory: `run_nas` puts nothing in front of
    // the store it is given, so the OS page cache is the provider cache.
    // Every checkpoint is saved once, by `save` (a cache in front would hand
    // down `save_raw`); every child reads its provider once, whole, by one
    // `read` the store lends, and nothing else is read (no `load_raw`, which
    // copies); the watermark's hints reach the
    // store, because nothing holds a copy to drop.
    let dir = std::env::temp_dir().join(format!("swt_one_read_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let on_disk = Watch::new(DirStore::new(&dir).unwrap(), |_| 0);
    let trace = run(Arc::clone(&on_disk) as _, &cfg);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!((count(&on_disk.saves), count(&on_disk.raw_saves)), (400, 0));
    let mut providers: Vec<String> =
        trace.events.iter().filter_map(|e| Some(format!("c{}", e.parent?))).collect();
    let mut reads = on_disk.reads.lock().unwrap().clone();
    providers.sort();
    reads.sort();
    assert!(providers.len() > 300, "{} children of 400", providers.len());
    assert_eq!(reads, providers, "one read of its provider per child");
    assert_eq!(count(&on_disk.raw_reads), 0, "a load_raw reached the store");
    assert!(count(&on_disk.evicts) > 0, "the lineage watermark's hints never reached the store");

    // The same search through a cache this test can see into: the same trace
    // bytes, and what it holds is the population plus what is in flight on
    // either side of it, not the 400 checkpoints that passed through (nor
    // the 32 MiB it may hold).
    let seen =
        Watch::new(CachedStore::new(MemStore::new(), cfg.cache_bytes), |c| c.resident_bytes());
    let seen_trace = run(Arc::clone(&seen) as _, &cfg);
    assert_eq!(trace.canonical_csv(), seen_trace.canonical_csv());
    let live_set = (cfg.population_size + 2 * cfg.workers + 1) as u64 * count(&seen.largest);
    let peak = count(&seen.peak);
    assert!(0 < peak && peak <= live_set, "resident peak {peak} B, live set {live_set} B");
    assert!(seen.inner.resident_bytes() <= peak);

    // Without a transfer scheme nothing is read back.
    let baseline = NasConfig::quick(TransferScheme::Baseline, 40, 2, 7);
    let plain = Watch::new(MemStore::new(), |_| 0);
    run(Arc::clone(&plain) as _, &baseline);
    assert_eq!((count(&plain.saves), count(&plain.raw_saves), count(&plain.raw_reads)), (40, 0, 0));
    assert!(plain.reads.lock().unwrap().is_empty());
}

/// One candidate per convolution rank, trained for one epoch from a fixed
/// build seed: its score and every `state_dict` tensor must keep the bits
/// recorded in its `tests/golden/*_candidate.txt` (one line per GEMM
/// micro-kernel). A layer refactor that changes one rounding anywhere in
/// forward, backward or the pooling route shows up here. Every fusing kernel
/// contracts in the same pinned order, so their lines must be one and the
/// same; a host whose kernel has no line passes with a note here and fails
/// `scripts/check.sh`.
fn assert_golden_bits(app: AppKind, arch: &[u16], golden: &str, file: &str) {
    let problem = app.problem(DataScale::Quick, 11);
    let spec = SearchSpace::for_app(app).materialize(&ArchSeq::new(arch.to_vec())).unwrap();
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
    let lines: Vec<(&str, &str)> = (golden.lines())
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .collect();
    let mut fused = lines.iter().filter(|(name, _)| *name != "scalar");
    let first = fused.next().expect("a fused-kernel golden line");
    for line in fused {
        assert_eq!(line.1, first.1, "{file}: `{}` and `{}` fuse alike: one line", line.0, first.0);
    }
    let want = lines.iter().find(|(name, _)| *name == kernel).map(|(_, bits)| *bits);
    match want {
        Some(want) => {
            assert_eq!(got, want, "{file}, kernel {kernel}: score bits / state_dict hash moved")
        }
        // A kernel nobody has recorded on (e.g. FMA hardware without AVX2).
        None => eprintln!("{file}: no golden line for kernel `{kernel}`; measured `{got}`"),
    }
}

/// 2-D convolutions and pools, batch-norm, identity nodes and dense layers
/// (lines taken from the commit before activations moved into the model's
/// arena).
#[test]
fn cifar10_candidate_keeps_its_golden_bits() {
    // conv 8/same, pool 2/2, bn | conv 16/valid/l2, id, id |
    // conv 24/same, pool 3/2, bn | conv 16/same, id, id | dense 64, id, dense 32
    let arch = [0, 1, 1, 7, 0, 0, 8, 2, 1, 4, 0, 0, 2, 0, 1];
    let golden = include_str!("golden/cifar10_candidate.txt");
    assert_golden_bits(AppKind::Cifar10, &arch, golden, "tests/golden/cifar10_candidate.txt");
}

/// A 1-D convolution with its activation folded in, a 1-D pool, dropout and
/// dense layers (lines taken from the commit before the 1-D layers became
/// the one-row case of the 2-D ones).
#[test]
fn nt3_candidate_keeps_its_golden_bits() {
    // conv 8/k5/same, relu, pool 3/3 | dense 32, relu, dropout 0.1, id, sigmoid
    let arch = [9, 0, 2, 1, 0, 3, 0, 2];
    let golden = include_str!("golden/nt3_candidate.txt");
    assert_golden_bits(AppKind::Nt3, &arch, golden, "tests/golden/nt3_candidate.txt");
}
