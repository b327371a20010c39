//! Seeded fuzz coverage of the segment log a `DirStore` (and so the
//! server's spill) reads back: truncations, bit flips, and headers whose id
//! and container lengths run past every cap, each written as a segment file
//! and fed through a fresh store's scan. Every case must read as the record
//! that was saved, stay invisible, or come back as a typed error — never a
//! panic, and never an allocation sized by a length the file does not back.
//! Deterministic (fixed seeds) so a failure always reproduces.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use swt_checkpoint::{encode, CheckpointStore, DirStore};
use swt_tensor::{Rng, Tensor};

/// No read here may allocate more than a segment can hold.
const HUGE: usize = 16 << 20;

struct CountingAlloc;

static HUGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= HUGE {
            HUGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= HUGE {
            HUGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The record layout (DESIGN.md §9 "The segment log"): a 40-byte fixed
/// header — magic, `id_len u32`, `gen`, `len`, and a tombstone's target
/// `seg` and `at` as `u64` — then the id, then `check u64`.
const FIXED: usize = 40;
const IDS: [&str; 3] = ["a", "bb", "ccc"];
const NAME: &str = "00000000000000a1.wtlog";

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn entries(seed: u64) -> Vec<(String, Tensor)> {
    let mut rng = Rng::seed(seed);
    vec![
        ("a/kernel".into(), Tensor::rand_normal([6, 3], 0.0, 1.0, &mut rng)),
        ("a/bias".into(), Tensor::rand_normal([3], 0.0, 1.0, &mut rng)),
    ]
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swt_fuzz_seg_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A clean segment as a store writes it: three records, a re-save of the
/// first and a tombstone killing the second. Returns its bytes and each
/// record's start.
fn clean_segment(tag: &str) -> (Vec<u8>, Vec<usize>) {
    let dir = scratch(&format!("{tag}_clean"));
    let store = DirStore::new(&dir).unwrap();
    for (i, id) in IDS.iter().enumerate() {
        store.save(id, &entries(i as u64)).unwrap();
    }
    store.save("a", &entries(7)).unwrap();
    assert!(store.delete("bb"));
    let files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(files.len(), 1, "{files:?}");
    let bytes = std::fs::read(&files[0]).unwrap();
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
    let mut starts = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        starts.push(at);
        let word = |i: usize| u64::from_le_bytes(bytes[at + i..at + i + 8].try_into().unwrap());
        let id_len = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap()) as usize;
        at += FIXED + id_len + 8 + word(16) as usize;
    }
    assert_eq!(starts.len(), 5);
    (bytes, starts)
}

/// Every container the clean segment saved under `id`: a damaged segment may
/// lose a record, so an id can read as an older one, never as another's.
fn saved(id: &str) -> Vec<Vec<u8>> {
    let seeds: &[u64] = match id {
        "a" => &[0, 7],
        "bb" => &[1],
        "ccc" => &[2],
        _ => &[],
    };
    seeds.iter().map(|&seed| encode(&entries(seed))).collect()
}

/// Write `bytes` as the only segment of `dir` and read every id through a
/// fresh store, on every read path. Returns the ids that read whole.
fn read_back(dir: &Path, bytes: &[u8], what: &str) -> Vec<String> {
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join(NAME), bytes).unwrap();
    let store = DirStore::new(dir).unwrap();
    let names = vec!["a/kernel".to_string(), "a/bias".to_string()];
    let listed = store.list();
    for id in &listed {
        assert!(IDS.contains(&id.as_str()), "{what}: {id:?} was never saved");
    }
    let mut whole = Vec::new();
    for id in IDS.iter().chain(&["zz"]) {
        let results = [
            store.load(id).map(|e| e.len()),
            store.load_tensors(id, &names).map(|e| e.len()),
            store.load_index(id).map(|i| i.len()),
            store.load_raw(id).map(|b| b.len()),
        ];
        for result in &results {
            if let Err(e) = result {
                let typed = matches!(e.kind(), ErrorKind::NotFound | ErrorKind::InvalidData);
                assert!(typed, "{what}: {id}: untyped error {e}");
            }
        }
        let visible = store.exists(id);
        assert_eq!(visible, listed.contains(&id.to_string()), "{what}: {id}: list and exists");
        if results.iter().all(Result::is_ok) {
            assert!(visible, "{what}: {id} read while invisible");
            let raw = store.load_raw(id).unwrap();
            assert!(saved(id).contains(&raw), "{what}: {id} reads bytes never saved under it");
            whole.push(id.to_string());
        }
    }
    drop(store);
    std::fs::remove_dir_all(dir).unwrap();
    whole
}

#[test]
fn the_clean_segment_reads_back() {
    let (clean, _) = clean_segment("ok");
    let dir = scratch("ok");
    assert_eq!(read_back(&dir, &clean, "clean"), ["a", "ccc"]);
    let store_dir = scratch("ok_values");
    std::fs::create_dir_all(&store_dir).unwrap();
    std::fs::write(store_dir.join(NAME), &clean).unwrap();
    let store = DirStore::new(&store_dir).unwrap();
    assert_eq!(store.load_raw("a").unwrap(), encode(&entries(7)), "the re-save wins");
    assert_eq!(store.load_raw("ccc").unwrap(), encode(&entries(2)));
    drop(store);
    std::fs::remove_dir_all(&store_dir).unwrap();
}

#[test]
fn every_truncation_hides_the_torn_record_and_nothing_before_it() {
    let (clean, starts) = clean_segment("cut");
    let dir = scratch("cut");
    let ends: Vec<usize> = starts.iter().skip(1).copied().chain([clean.len()]).collect();
    for cut in 0..clean.len() {
        // The records wholly inside the prefix, replayed in order.
        let complete = ends.iter().filter(|&&end| end <= cut).count();
        let want: &[&str] = match complete {
            0 => &[],
            1 => &["a"],
            2 => &["a", "bb"],
            3 | 4 => &["a", "bb", "ccc"],
            _ => &["a", "ccc"],
        };
        assert_eq!(read_back(&dir, &clean[..cut], &format!("cut {cut}")), want, "cut {cut}");
    }
    assert_eq!(HUGE_ALLOCS.load(Ordering::Relaxed), 0);
}

#[test]
fn bit_flips_are_invisible_or_typed_errors() {
    let (clean, _) = clean_segment("flip");
    let dir = scratch("flip");
    let mut rng = Rng::seed(0x5E6);
    for case in 0..600 {
        let mut dirty = clean.clone();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(dirty.len());
            dirty[at] ^= 1 << rng.below(8);
        }
        read_back(&dir, &dirty, &format!("flip case {case}"));
    }
    assert_eq!(HUGE_ALLOCS.load(Ordering::Relaxed), 0);
}

#[test]
fn lengths_past_every_cap_are_invisible() {
    // Header words rewritten to hostile values, with the check recomputed so
    // the scan has to judge the lengths themselves.
    let (clean, starts) = clean_segment("len");
    let dir = scratch("len");
    let mut rng = Rng::seed(0x1E9);
    let hostile = [u64::MAX, u64::MAX / 2, 1 << 40, 1 << 32, u32::MAX as u64, 256, 0];
    for case in 0..400 {
        let mut dirty = clean.clone();
        let at = starts[rng.below(starts.len())];
        let id_len = u32::from_le_bytes(dirty[at + 4..at + 8].try_into().unwrap()) as usize;
        let value = if rng.below(2) == 0 {
            hostile[rng.below(hostile.len())]
        } else {
            rng.next_u64() >> rng.below(64)
        };
        let field = rng.below(3);
        match field {
            // id_len: past the 255-byte cap, or pointing the check elsewhere.
            0 => dirty[at + 4..at + 8].copy_from_slice(&(value as u32).to_le_bytes()),
            // the container length, or the generation
            1 => dirty[at + 16..at + 24].copy_from_slice(&value.to_le_bytes()),
            _ => dirty[at + 8..at + 16].copy_from_slice(&value.to_le_bytes()),
        }
        let n = FIXED + id_len;
        let check = fnv1a(&dirty[at..at + n]);
        dirty[at + n..at + n + 8].copy_from_slice(&check.to_le_bytes());
        read_back(&dir, &dirty, &format!("case {case}: field {field} = {value}"));
    }
    // Random bytes as a whole segment, and after the clean one.
    for case in 0..200 {
        let noise: Vec<u8> = (0..rng.below(600)).map(|_| rng.below(256) as u8).collect();
        read_back(&dir, &noise, &format!("noise {case}"));
        let tail = [clean.as_slice(), &noise].concat();
        let whole = read_back(&dir, &tail, &format!("noise tail {case}"));
        assert!(whole.starts_with(&["a".to_string()]), "noise tail {case}: {whole:?}");
    }
    assert_eq!(HUGE_ALLOCS.load(Ordering::Relaxed), 0);
}
