//! Selective checkpoint I/O benchmark, emitting `BENCH_ckpt.json`.
//!
//! Usage: `cargo run --release -p swt-bench --bin bench_ckpt [--smoke] [out.json]`
//!
//! Measures the checkpoint data path the NAS evaluator exercises:
//!
//! 1. a full save and a full load of a provider-sized checkpoint,
//! 2. the *transfer path*: what a child evaluation pays to read its
//!    provider — an index read plus a partial load of only the matched
//!    tensors, against the full `load` it replaced,
//! 3. the same transfer path against a [`CachedStore`] the provider was
//!    saved through (a search's steady state: the save that creates a
//!    population member leaves it resident until the lineage retires it),
//! 4. the per-call split of one Uno-sized save — checksum alone, the fused
//!    convert + checksum, `File::create`, `write`, `rename` — on one thread
//!    and on two at once, under the system temp directory and under the
//!    working directory (the cost of creating a file is the directory's,
//!    not the code's: EXPERIMENTS.md),
//! 5. an end-to-end A/B: two identical single-worker quick NAS runs, one on
//!    a full-load-only store and one on the selective path + cache. Scores
//!    and transferred-tensor counts must match exactly; only
//!    `transfer_secs` may differ.
//!
//! Exits non-zero if the provider read on the transfer path is not at least
//! 3x faster than a full load, or if the A/B runs diverge.
//!
//! `--smoke` writes the JSON to a temp directory instead of the repository
//! root so CI checks do not dirty the tree.

use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use swt::checkpoint::{payload_checksum, with_encoded};
use swt::prelude::*;
use swt_bench::Harness;

/// A store wrapper that hides the inner store's selective-read overrides, so
/// the trait's default implementations (full load + filter) take over — the
/// provider read path before selective reads, reproduced exactly.
struct FullLoadOnly<S: CheckpointStore>(S);

impl<S: CheckpointStore> CheckpointStore for FullLoadOnly<S> {
    fn save(&self, id: &str, entries: &[(String, Tensor)]) -> io::Result<u64> {
        self.0.save(id, entries)
    }
    fn load(&self, id: &str) -> io::Result<Vec<(String, Tensor)>> {
        self.0.load(id)
    }
    fn exists(&self, id: &str) -> bool {
        self.0.exists(id)
    }
    fn size_bytes(&self, id: &str) -> Option<u64> {
        self.0.size_bytes(id)
    }
    fn list(&self) -> Vec<String> {
        self.0.list()
    }
    fn delete(&self, id: &str) -> bool {
        self.0.delete(id)
    }
}

/// A provider checkpoint shaped like a real candidate: a small conv stack
/// whose tensors transfer to a mutated child, plus a flatten-dependent dense
/// head that dominates the payload but never matches (its input dim changes
/// with any upstream mutation) and batch-norm running statistics that the
/// planner filters out.
fn provider_entries() -> Vec<(String, Tensor)> {
    let mut rng = Rng::seed(0xC4C4);
    let t = |dims: &[usize], rng: &mut Rng| Tensor::rand_normal(dims.to_vec(), 0.0, 0.1, rng);
    vec![
        ("n1_conv2d/kernel".into(), t(&[3, 3, 16, 32], &mut rng)),
        ("n1_conv2d/bias".into(), t(&[32], &mut rng)),
        ("n2_conv2d/kernel".into(), t(&[3, 3, 32, 64], &mut rng)),
        ("n2_conv2d/bias".into(), t(&[64], &mut rng)),
        ("n3_batchnorm/gamma".into(), t(&[64], &mut rng)),
        ("n3_batchnorm/beta".into(), t(&[64], &mut rng)),
        ("n3_batchnorm/running_mean".into(), t(&[64], &mut rng)),
        ("n3_batchnorm/running_var".into(), t(&[64], &mut rng)),
        ("n4_conv2d/kernel".into(), t(&[3, 3, 64, 64], &mut rng)),
        ("n4_conv2d/bias".into(), t(&[64], &mut rng)),
        ("n5_dense/kernel".into(), t(&[6400, 512], &mut rng)),
        ("n5_dense/bias".into(), t(&[512], &mut rng)),
        ("n6_dense/kernel".into(), t(&[512, 10], &mut rng)),
        ("n6_dense/bias".into(), t(&[10], &mut rng)),
    ]
}

/// The provider tensors a d=1 mutated child actually receives: the conv
/// stack, batch-norm parameters and the output head — everything except the
/// flatten-dependent `n5_dense` giant and the running statistics.
fn transfer_subset() -> Vec<String> {
    [
        "n1_conv2d/kernel",
        "n1_conv2d/bias",
        "n2_conv2d/kernel",
        "n2_conv2d/bias",
        "n3_batchnorm/gamma",
        "n3_batchnorm/beta",
        "n4_conv2d/kernel",
        "n4_conv2d/bias",
        "n6_dense/kernel",
        "n6_dense/bias",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// The state of one sampled Uno candidate: what `tab_*` workloads save and
/// read a few hundred times a second.
fn uno_state() -> Vec<(String, Tensor)> {
    let space = SearchSpace::for_app(AppKind::Uno);
    let arch = space.sample(&mut Rng::seed(21));
    let spec = space.materialize(&arch).expect("a sampled architecture is valid");
    Model::build(&spec, 7).expect("a materialised spec builds").state_dict()
}

/// Steps of one save, in the order [`save_split`] returns their medians.
const SAVE_STEPS: [&str; 5] = ["hash", "encode", "create", "write", "rename"];

/// Median nanoseconds of each of [`SAVE_STEPS`] over `iters` saves of
/// `state` into `dir`, each to a file that does not exist yet — the steps of
/// `DirStore::save`, spelled out so that each can be timed. `hash` is the
/// payload checksum alone over the finished bytes; `encode` is the codec's
/// fused convert + checksum.
fn save_split(state: &[(String, Tensor)], dir: &Path, tag: &str, iters: usize) -> [f64; 5] {
    let mut samples = vec![[0u64; 5]; iters];
    for (i, row) in samples.iter_mut().enumerate() {
        let (tmp, dst) = (dir.join(format!(".{tag}_{i}.tmp")), dir.join(format!("{tag}_{i}.wtc")));
        let mut t = Instant::now();
        let mut lap = || std::mem::replace(&mut t, Instant::now()).elapsed().as_nanos() as u64;
        with_encoded(state, |bytes| {
            row[1] = lap();
            let mut f = std::fs::File::create(&tmp).expect("create");
            row[2] = lap();
            f.write_all(bytes).expect("write");
            drop(f);
            row[3] = lap();
            std::fs::rename(&tmp, &dst).expect("rename");
            row[4] = lap();
            black_box(payload_checksum(bytes));
            row[0] = lap();
        });
    }
    std::array::from_fn(|step| {
        let mut column: Vec<u64> = samples.iter().map(|row| row[step]).collect();
        column.sort_unstable();
        column[iters / 2] as f64
    })
}

fn sum_transfer_secs(trace: &NasTrace) -> f64 {
    trace.events.iter().map(|e| e.transfer_secs).sum()
}

fn sum_transfer_tensors(trace: &NasTrace) -> usize {
    trace.events.iter().map(|e| e.transfer_tensors).sum()
}

fn main() {
    let mut smoke = false;
    let mut out_arg = None;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_arg = Some(arg);
        }
    }
    let out_path = out_arg.unwrap_or_else(|| {
        if smoke {
            std::env::temp_dir().join("BENCH_ckpt.json").to_string_lossy().into_owned()
        } else {
            "BENCH_ckpt.json".to_string()
        }
    });
    if let Err(e) = std::fs::write(&out_path, "{}\n") {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    swt::tensor::parallel::set_max_threads(1);
    swt::obs::disable();

    let scratch = std::env::temp_dir().join(format!("bench_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch dir");

    let entries = provider_entries();
    let subset = transfer_subset();
    let payload: u64 = entries.iter().map(|(_, t)| 4 * t.data().len() as u64).sum();
    let subset_payload: u64 = entries
        .iter()
        .filter(|(n, _)| subset.contains(n))
        .map(|(_, t)| 4 * t.data().len() as u64)
        .sum();
    println!(
        "provider checkpoint: {} tensors, {:.1} MiB payload; transfer subset: {} tensors, \
         {:.2} MiB",
        entries.len(),
        payload as f64 / (1 << 20) as f64,
        subset.len(),
        subset_payload as f64 / (1 << 20) as f64
    );

    let mut h = Harness::new();

    // --- 1. a full save and a full load -------------------------------------
    let store = Arc::new(DirStore::new(scratch.join("store")).expect("open store"));
    h.bench("ckpt.save", || {
        store.save("provider", &entries).expect("save");
    });
    h.bench("ckpt.load.full", || {
        black_box(store.load("provider").expect("load"));
    });

    // --- 2. the transfer path: index + partial load -------------------------
    h.bench("ckpt.load.index", || {
        black_box(store.load_index("provider").expect("load index"));
    });
    h.bench("ckpt.load.transfer", || {
        let index = store.load_index("provider").expect("load index");
        black_box(&index);
        black_box(store.load_tensors("provider", &subset).expect("partial load"));
    });

    // --- 3. the same transfer path against the provider cache ---------------
    // Write-through: the save that creates the provider leaves it resident,
    // so even the first read below is a hit.
    let cached = CachedStore::new(Arc::clone(&store), 256 << 20);
    cached.save("provider", &entries).expect("save through the cache");
    assert!(cached.resident_bytes() > 0, "provider must fit the cache cap");
    h.bench("ckpt.load.transfer.cached", || {
        let index = cached.load_index("provider").expect("cached index");
        black_box(&index);
        black_box(cached.load_tensors("provider", &subset).expect("cached partial load"));
    });

    let full = h.get("ckpt.load.full").unwrap();
    let transfer = h.get("ckpt.load.transfer").unwrap();
    let cached_transfer = h.get("ckpt.load.transfer.cached").unwrap();
    let provider_read_speedup = full / transfer;
    let cache_speedup = full / cached_transfer;
    println!();
    println!(
        "provider read on the transfer path: {provider_read_speedup:.1}x faster than a full \
         load ({:.2} ms -> {:.3} ms)",
        full / 1e6,
        transfer / 1e6
    );
    println!(
        "warm cache hit: {cache_speedup:.1}x faster than a full load ({:.3} ms)",
        cached_transfer / 1e6
    );

    // --- 4. per-call split of an Uno-sized save, 1 and 2 threads ------------
    let uno = uno_state();
    let uno_bytes = swt::checkpoint::encoded_len(&uno);
    println!();
    println!("uno state: {} tensors, {uno_bytes} bytes encoded", uno.len());
    let cwd_scratch = Path::new("target").join(format!("bench_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&cwd_scratch).expect("create scratch dir under the working directory");
    for (place, dir) in [("tmp", scratch.as_path()), ("cwd", cwd_scratch.as_path())] {
        for threads in [1usize, 2] {
            let medians = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let uno = &uno;
                        s.spawn(move || save_split(uno, dir, &format!("split{threads}{t}"), 101))
                    })
                    .collect();
                // Every thread ran the same loop at the same time; report
                // the first one's medians.
                let all: Vec<_> =
                    handles.into_iter().map(|h| h.join().expect("split thread")).collect();
                all[0]
            });
            for (step, median) in SAVE_STEPS.iter().zip(medians) {
                h.record(&format!("ckpt.uno.{step}.{place}.t{threads}"), median, 101);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&cwd_scratch);

    // --- 5. end-to-end A/B: full-load-only vs selective + cache -------------
    // 16-member quick population + 8 children, so the tail of the run
    // exercises the parent-read path under both stores.
    let candidates = 24;
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 21));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let before_store: Arc<dyn CheckpointStore> = Arc::new(FullLoadOnly(
        DirStore::new(scratch.join("nas_before")).expect("open before store"),
    ));
    let before_cfg =
        NasConfig { cache_bytes: 0, ..NasConfig::quick(TransferScheme::Lcs, candidates, 1, 9) };
    let before = run_nas(Arc::clone(&problem), Arc::clone(&space), before_store, &before_cfg);
    let after_store: Arc<dyn CheckpointStore> =
        Arc::new(DirStore::new(scratch.join("nas_after")).expect("open after store"));
    let after_cfg = NasConfig::quick(TransferScheme::Lcs, candidates, 1, 9);
    let after = run_nas(problem, space, after_store, &after_cfg);

    let mut ab_ok = true;
    for (b, a) in before.events.iter().zip(&after.events) {
        if b.id != a.id || b.score != a.score || b.transfer_tensors != a.transfer_tensors {
            eprintln!(
                "A/B divergence at candidate {}: score {} vs {}, tensors {} vs {}",
                b.id, b.score, a.score, b.transfer_tensors, a.transfer_tensors
            );
            ab_ok = false;
        }
    }
    let before_transfer = sum_transfer_secs(&before);
    let after_transfer = sum_transfer_secs(&after);
    println!();
    println!(
        "quick NAS A/B ({candidates} candidates, 1 worker, seed 9): identical scores and \
         {} transferred tensors in both runs",
        sum_transfer_tensors(&after)
    );
    println!(
        "total transfer_secs: {before_transfer:.4}s full-load-only -> {after_transfer:.4}s \
         selective+cache"
    );

    let _ = std::fs::remove_dir_all(&scratch);

    let meta = [
        ("bench", "ckpt".to_string()),
        ("threads", "1".to_string()),
        (
            "hardware_threads",
            std::thread::available_parallelism().map_or(1, |n| n.get()).to_string(),
        ),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
        ("payload_bytes", payload.to_string()),
        ("transfer_subset_bytes", subset_payload.to_string()),
        ("uno_state_bytes", uno_bytes.to_string()),
        ("provider_read_speedup", format!("{provider_read_speedup:.2}")),
        ("cache_hit_speedup", format!("{cache_speedup:.2}")),
        ("nas_transfer_secs_fullload", format!("{before_transfer:.6}")),
        ("nas_transfer_secs_selective", format!("{after_transfer:.6}")),
        ("nas_transfer_tensors", sum_transfer_tensors(&after).to_string()),
    ];
    std::fs::write(&out_path, h.to_json(&meta)).expect("write benchmark JSON");
    println!("wrote {out_path}");

    let mut failed = false;
    if provider_read_speedup < 3.0 {
        eprintln!("FAIL: provider read speedup {provider_read_speedup:.2}x < 3x");
        failed = true;
    }
    if !ab_ok {
        eprintln!("FAIL: selective transfer changed NAS results");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "PASS: transfer-path read {provider_read_speedup:.1}x faster, cache hit \
         {cache_speedup:.1}x, A/B runs identical"
    );
}
