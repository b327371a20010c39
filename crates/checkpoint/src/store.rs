//! Checkpoint storage backends.

use crate::format::{
    decode, decode_named, encode, parse_container, with_encoded, with_thread_bytes,
};
use crate::index::CheckpointIndex;
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;
use swt_tensor::Tensor;

/// A place to persist candidate checkpoints, keyed by candidate id.
///
/// The paper's evaluators write each scored candidate to a parallel file
/// system and later read parents back for weight transfer (Fig. 6 steps
/// ③/⑤); this trait is that interface. The provided `load_index` /
/// `load_tensors` methods are the *selective* read path (Section VIII-E
/// identifies checkpoint reads as the dominant transfer overhead): every
/// store here overrides them to read the container whole, once, and convert
/// only the payloads a transfer plan names.
pub trait CheckpointStore: Send + Sync {
    /// Persist a checkpoint; returns the serialized size in bytes (Fig. 11's
    /// measured quantity).
    fn save(&self, id: &str, entries: &[(String, Tensor)]) -> io::Result<u64>;

    /// Load a checkpoint by id.
    fn load(&self, id: &str) -> io::Result<Vec<(String, Tensor)>>;

    /// The raw encoded bytes of a checkpoint. Default: re-encode a full
    /// load; backends that hold encoded bytes return them directly (this is
    /// what [`crate::CachedStore`] keeps resident).
    fn load_raw(&self, id: &str) -> io::Result<Vec<u8>> {
        Ok(encode(&self.load(id)?))
    }

    /// The checkpoint's table of contents: names, shapes and layout, without
    /// tensor data. Default: synthesize from a full load (correct but not
    /// faster); the stores here parse it from the container's header.
    fn load_index(&self, id: &str) -> io::Result<CheckpointIndex> {
        let entries = self.load(id)?;
        Ok(CheckpointIndex::synthesized(
            entries.into_iter().map(|(n, t)| (n, t.shape().dims().to_vec())),
        ))
    }

    /// Load only the named tensors. Names absent from the checkpoint are
    /// omitted from the result, not errors (a stale plan must degrade, not
    /// fail). Default: full load + filter.
    fn load_tensors(&self, id: &str, names: &[String]) -> io::Result<Vec<(String, Tensor)>> {
        let want: HashSet<&str> = names.iter().map(String::as_str).collect();
        let mut entries = self.load(id)?;
        entries.retain(|(n, _)| want.contains(n.as_str()));
        Ok(entries)
    }

    /// True iff a checkpoint with this id exists.
    fn exists(&self, id: &str) -> bool;

    /// Size in bytes of a stored checkpoint, if present.
    fn size_bytes(&self, id: &str) -> Option<u64>;

    /// Ids of all stored checkpoints (unordered).
    fn list(&self) -> Vec<String>;

    /// Delete a checkpoint if present; returns whether it existed. NAS runs
    /// checkpoint every candidate (Section VI), so long searches need
    /// retention management.
    fn delete(&self, id: &str) -> bool;

    /// Persist an already-encoded WTC container under `id`; returns the byte
    /// count. The bytes are trusted to be a valid container — callers on
    /// untrusted paths validate via [`crate::parse_container`] first — and
    /// later reads must be indistinguishable from a [`CheckpointStore::save`]
    /// of the same entries. Default: decode + `save`; backends that hold
    /// encoded bytes take them as they are (a `Put` at the checkpoint server,
    /// the write-through of [`crate::CachedStore`]).
    fn save_raw(&self, id: &str, bytes: &[u8]) -> io::Result<u64> {
        self.save(id, &decode(bytes)?)
    }

    /// Hint that this process will not read `id` again (the search's
    /// lineage has moved past it). Only an in-memory copy may go: the
    /// durable checkpoint stays, and reading `id` afterwards is still
    /// correct. Default: nothing to drop.
    fn evict(&self, _id: &str) {}
}

/// Stores are routinely shared across worker threads as `Arc<dyn
/// CheckpointStore>`; this impl lets wrappers like [`crate::CachedStore`]
/// hold one generically while still dispatching to the inner store's
/// overridden selective-read methods.
impl<T: CheckpointStore + ?Sized> CheckpointStore for Arc<T> {
    fn save(&self, id: &str, entries: &[(String, Tensor)]) -> io::Result<u64> {
        (**self).save(id, entries)
    }
    fn load(&self, id: &str) -> io::Result<Vec<(String, Tensor)>> {
        (**self).load(id)
    }
    fn load_raw(&self, id: &str) -> io::Result<Vec<u8>> {
        (**self).load_raw(id)
    }
    fn load_index(&self, id: &str) -> io::Result<CheckpointIndex> {
        (**self).load_index(id)
    }
    fn load_tensors(&self, id: &str, names: &[String]) -> io::Result<Vec<(String, Tensor)>> {
        (**self).load_tensors(id, names)
    }
    fn exists(&self, id: &str) -> bool {
        (**self).exists(id)
    }
    fn size_bytes(&self, id: &str) -> Option<u64> {
        (**self).size_bytes(id)
    }
    fn list(&self) -> Vec<String> {
        (**self).list()
    }
    fn delete(&self, id: &str) -> bool {
        (**self).delete(id)
    }
    fn save_raw(&self, id: &str, bytes: &[u8]) -> io::Result<u64> {
        (**self).save_raw(id, bytes)
    }
    fn evict(&self, id: &str) {
        (**self).evict(id)
    }
}

/// Retention helper: delete every checkpoint not in `keep`. Returns the
/// number deleted. Typical use: after the top-K are selected, prune the
/// thousands of non-elite candidate checkpoints.
pub fn prune_except(store: &dyn CheckpointStore, keep: &[String]) -> usize {
    let keep: HashSet<&str> = keep.iter().map(String::as_str).collect();
    store
        .list()
        .into_iter()
        .filter(|id| !keep.contains(id.as_str()))
        .filter(|id| store.delete(id))
        .count()
}

/// Directory-backed store: one `<id>.wtc` file per candidate. Stands in for
/// the paper's HDF5-on-PFS checkpoints.
pub struct DirStore {
    root: PathBuf,
}

/// Monotonic suffix making concurrent temp files unique within a process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl DirStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DirStore { root })
    }

    fn path(&self, id: &str) -> PathBuf {
        assert!(
            !id.is_empty() && id.chars().all(|c| c.is_ascii_alphanumeric() || "._-".contains(c)),
            "checkpoint id {id:?} must be a simple token"
        );
        self.root.join(format!("{id}.wtc"))
    }

    /// Read `id`'s whole file into this thread's byte buffer and lend the
    /// bytes to `f`: one `read` per checkpoint, and no allocation once the
    /// buffer has held the thread's largest container. `f` sees exactly what
    /// is on disk, so a torn or padded file meets [`parse_container`].
    fn with_file<R>(&self, id: &str, f: impl FnOnce(&[u8]) -> io::Result<R>) -> io::Result<R> {
        let mut file = File::open(self.path(id))?;
        with_thread_bytes(|buf| {
            buf.clear();
            file.read_to_end(buf)?;
            f(buf)
        })
    }

    /// One `write` of the whole container to a temp file, then a `rename`,
    /// so concurrent readers never observe a torn file. The temp name
    /// carries pid + a process-wide sequence number: concurrent saves of the
    /// *same id* (two workers re-checkpointing a shared elite) must not
    /// clobber each other's half-written file.
    fn write_atomic(&self, id: &str, bytes: &[u8], t0: Instant) -> io::Result<u64> {
        let dst = self.path(id);
        let tmp = self.root.join(format!(
            ".{id}.{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let result = File::create(&tmp)
            .and_then(|mut f| f.write_all(bytes))
            .and_then(|()| std::fs::rename(&tmp, &dst));
        if result.is_err() {
            // Never leave a stale temp file behind on a failed save.
            let _ = std::fs::remove_file(&tmp);
        }
        result?;
        swt_obs::histogram!("ckpt.dir.save_ns").observe(t0.elapsed().as_nanos() as u64);
        swt_obs::counter!("ckpt.dir.saved_bytes").add(bytes.len() as u64);
        Ok(bytes.len() as u64)
    }
}

impl CheckpointStore for DirStore {
    fn save(&self, id: &str, entries: &[(String, Tensor)]) -> io::Result<u64> {
        let t0 = Instant::now();
        with_encoded(entries, |bytes| self.write_atomic(id, bytes, t0))
    }

    fn load(&self, id: &str) -> io::Result<Vec<(String, Tensor)>> {
        self.with_file(id, |buf| Ok(decode(buf)?))
    }

    fn load_raw(&self, id: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(id))
    }

    fn load_index(&self, id: &str) -> io::Result<CheckpointIndex> {
        self.with_file(id, |buf| Ok(parse_container(buf)?))
    }

    fn load_tensors(&self, id: &str, names: &[String]) -> io::Result<Vec<(String, Tensor)>> {
        self.with_file(id, |buf| Ok(decode_named(buf, names)?))
    }

    fn exists(&self, id: &str) -> bool {
        self.path(id).exists()
    }

    fn size_bytes(&self, id: &str) -> Option<u64> {
        std::fs::metadata(self.path(id)).ok().map(|m| m.len())
    }

    fn list(&self) -> Vec<String> {
        let Ok(dir) = std::fs::read_dir(&self.root) else { return Vec::new() };
        dir.filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".wtc").map(str::to_string)
        })
        .collect()
    }

    fn delete(&self, id: &str) -> bool {
        std::fs::remove_file(self.path(id)).is_ok()
    }

    fn save_raw(&self, id: &str, bytes: &[u8]) -> io::Result<u64> {
        self.write_atomic(id, bytes, Instant::now())
    }
}

/// In-memory store for tests, pair experiments and the cluster simulator.
#[derive(Default)]
pub struct MemStore {
    map: RwLock<HashMap<String, Vec<u8>>>,
}

impl MemStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes across all checkpoints.
    pub fn total_bytes(&self) -> u64 {
        self.map.read().unwrap().values().map(|v| v.len() as u64).sum()
    }

    fn with_buf<R>(&self, id: &str, f: impl FnOnce(&[u8]) -> io::Result<R>) -> io::Result<R> {
        let guard = self.map.read().unwrap();
        let buf = guard.get(id).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no checkpoint {id}"))
        })?;
        f(buf)
    }
}

impl CheckpointStore for MemStore {
    fn save(&self, id: &str, entries: &[(String, Tensor)]) -> io::Result<u64> {
        let t0 = Instant::now();
        let buf = encode(entries);
        let len = buf.len() as u64;
        self.map.write().unwrap().insert(id.to_string(), buf);
        swt_obs::histogram!("ckpt.mem.save_ns").observe(t0.elapsed().as_nanos() as u64);
        swt_obs::counter!("ckpt.mem.saved_bytes").add(len);
        Ok(len)
    }

    fn load(&self, id: &str) -> io::Result<Vec<(String, Tensor)>> {
        let t0 = Instant::now();
        let entries = self.with_buf(id, |buf| Ok(decode(buf)?))?;
        swt_obs::histogram!("ckpt.mem.load_ns").observe(t0.elapsed().as_nanos() as u64);
        Ok(entries)
    }

    fn load_raw(&self, id: &str) -> io::Result<Vec<u8>> {
        self.with_buf(id, |buf| Ok(buf.to_vec()))
    }

    fn load_index(&self, id: &str) -> io::Result<CheckpointIndex> {
        self.with_buf(id, |buf| Ok(parse_container(buf)?))
    }

    fn load_tensors(&self, id: &str, names: &[String]) -> io::Result<Vec<(String, Tensor)>> {
        self.with_buf(id, |buf| Ok(decode_named(buf, names)?))
    }

    fn exists(&self, id: &str) -> bool {
        self.map.read().unwrap().contains_key(id)
    }

    fn size_bytes(&self, id: &str) -> Option<u64> {
        self.map.read().unwrap().get(id).map(|v| v.len() as u64)
    }

    fn list(&self) -> Vec<String> {
        self.map.read().unwrap().keys().cloned().collect()
    }

    fn delete(&self, id: &str) -> bool {
        self.map.write().unwrap().remove(id).is_some()
    }

    fn save_raw(&self, id: &str, bytes: &[u8]) -> io::Result<u64> {
        let len = bytes.len() as u64;
        self.map.write().unwrap().insert(id.to_string(), bytes.to_vec());
        swt_obs::counter!("ckpt.mem.saved_bytes").add(len);
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swt_tensor::Rng;

    fn entries(seed: u64) -> Vec<(String, Tensor)> {
        let mut rng = Rng::seed(seed);
        vec![
            ("a/kernel".into(), Tensor::rand_normal([4, 4], 0.0, 1.0, &mut rng)),
            ("a/bias".into(), Tensor::zeros([4])),
        ]
    }

    fn exercise(store: &dyn CheckpointStore) {
        assert!(!store.exists("c0"));
        assert!(store.load("c0").is_err());
        let size = store.save("c0", &entries(1)).unwrap();
        assert!(size > 0);
        assert!(store.exists("c0"));
        assert_eq!(store.size_bytes("c0"), Some(size));
        let loaded = store.load("c0").unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].0, "a/kernel");
        // Overwrite wins.
        store.save("c0", &entries(2)).unwrap();
        let again = store.load("c0").unwrap();
        assert!(!again[0].1.approx_eq(&loaded[0].1, 0.0));
        store.save("c1", &entries(3)).unwrap();
        let mut ids = store.list();
        ids.sort();
        assert_eq!(ids, vec!["c0", "c1"]);
    }

    /// The selective read path must agree with a full load, on any backend.
    fn exercise_selective(store: &dyn CheckpointStore) {
        store.save("sel", &entries(9)).unwrap();
        let index = store.load_index("sel").unwrap();
        assert_eq!(index.len(), 2);
        assert_eq!(index.tensors()[0].name, "a/kernel");
        assert_eq!(index.tensors()[0].shape().dims(), &[4, 4]);
        let full = store.load("sel").unwrap();
        let some = store.load_tensors("sel", &["a/bias".to_string(), "ghost".to_string()]).unwrap();
        assert_eq!(some.len(), 1, "absent names are omitted");
        assert_eq!(some[0].0, "a/bias");
        assert!(some[0].1.approx_eq(&full[1].1, 0.0));
        let raw = store.load_raw("sel").unwrap();
        assert_eq!(raw.len() as u64, store.size_bytes("sel").unwrap());
    }

    #[test]
    fn mem_store_behaviour() {
        let store = MemStore::new();
        exercise(&store);
        exercise_selective(&store);
        assert!(store.total_bytes() > 0);
    }

    #[test]
    fn dir_store_behaviour() {
        let dir = std::env::temp_dir().join(format!("swt_ckpt_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DirStore::new(&dir).unwrap();
        exercise(&store);
        exercise_selective(&store);
        // Files actually land on disk with the expected suffix.
        assert!(dir.join("c0.wtc").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("swt_ckpt_reopen_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = DirStore::new(&dir).unwrap();
            store.save("persist", &entries(7)).unwrap();
        }
        let store = DirStore::new(&dir).unwrap();
        assert!(store.exists("persist"));
        assert_eq!(store.load("persist").unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_store_refuses_damaged_and_retired_files_with_typed_errors() {
        // Written behind the store's back: every strict prefix, every
        // single-bit flip of a payload, one trailing byte, and a file of a
        // retired container version. `load_tensors` (and `load`) must answer
        // each with `InvalidData`, never a panic and never data.
        let dir = std::env::temp_dir().join(format!("swt_ckpt_damage_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DirStore::new(&dir).unwrap();
        let clean = encode(&entries(4));
        let names = vec!["a/kernel".to_string(), "a/bias".to_string()];
        let refused = |bytes: &[u8], what: &str| {
            std::fs::write(dir.join("x.wtc"), bytes).unwrap();
            for result in [store.load_tensors("x", &names), store.load("x")] {
                let err = result.err().unwrap_or_else(|| panic!("{what}: accepted"));
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            }
        };
        for cut in 0..clean.len() {
            refused(&clean[..cut], &format!("prefix of {cut} bytes"));
        }
        let first_payload = clean.len() - 4 * (16 + 4);
        let mut dirty = clean.clone();
        for bit in 8 * first_payload..8 * clean.len() {
            dirty[bit / 8] ^= 1 << (bit % 8);
            refused(&dirty, &format!("payload bit {bit} flipped"));
            dirty[bit / 8] ^= 1 << (bit % 8);
        }
        dirty.push(0);
        refused(&dirty, "one trailing byte");
        assert!(store.load_index("x").is_err(), "load_index accepted a trailing byte");
        for magic in [b"WTC1", b"WTC2"] {
            dirty = clean.clone();
            dirty[..4].copy_from_slice(magic);
            refused(&dirty, "retired magic");
            let err = store.load_index("x").unwrap_err();
            assert!(err.to_string().contains("bad magic"), "{err}");
        }
        refused(&[], "empty file");
        std::fs::write(dir.join("x.wtc"), &clean).unwrap();
        assert_eq!(store.load_tensors("x", &names).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_store_selective_reads_refuse_a_torn_padded_or_flipped_file() {
        // The whole file meets `parse_container` (its length against its
        // index) and each requested payload its checksum. A flipped payload
        // byte leaves the header intact, so the index is still served; the
        // tensor read that asks for that payload is refused.
        let dir = std::env::temp_dir().join(format!("swt_ckpt_torn_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DirStore::new(&dir).unwrap();
        let clean = encode(&entries(6));
        let bias = vec!["a/bias".to_string()];
        let mut flipped = clean.clone();
        flipped[parse_container(&clean).unwrap().get("a/bias").unwrap().offset as usize] ^= 0x10;
        for (what, bytes, index_refused) in [
            ("one byte missing", &clean[..clean.len() - 1], true),
            ("one trailing byte", &[clean.as_slice(), &[0]].concat()[..], true),
            ("a flipped byte in a requested payload", &flipped[..], false),
        ] {
            std::fs::write(dir.join("t.wtc"), bytes).unwrap();
            let err = store.load_tensors("t", &bias).err();
            let err = err.unwrap_or_else(|| panic!("load_tensors accepted {what}"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "load_tensors, {what}: {err}");
            match store.load_index("t") {
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "load_index, {what}: {e}")
                }
                Ok(index) => assert!(!index_refused && index.len() == 2, "load_index: {what}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "simple token")]
    fn dir_store_rejects_path_traversal() {
        let dir = std::env::temp_dir().join(format!("swt_ckpt_evil_{}", std::process::id()));
        let store = DirStore::new(&dir).unwrap();
        let _ = store.save("../evil", &entries(1));
    }

    #[test]
    fn delete_and_prune() {
        let store = MemStore::new();
        for i in 0..6 {
            store.save(&format!("c{i}"), &entries(i)).unwrap();
        }
        assert!(store.delete("c0"));
        assert!(!store.delete("c0"), "double delete reports absence");
        assert!(!store.exists("c0"));
        let kept = vec!["c2".to_string(), "c4".to_string()];
        let pruned = prune_except(&store, &kept);
        assert_eq!(pruned, 3); // c1, c3, c5
        let mut left = store.list();
        left.sort();
        assert_eq!(left, kept);
    }

    #[test]
    fn dir_store_delete() {
        let dir = std::env::temp_dir().join(format!("swt_ckpt_del_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DirStore::new(&dir).unwrap();
        store.save("x", &entries(1)).unwrap();
        assert!(store.delete("x"));
        assert!(!dir.join("x.wtc").exists());
        assert!(!store.delete("x"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_store_is_threadsafe() {
        let store = Arc::new(MemStore::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..20 {
                    let id = format!("t{t}_{i}");
                    store.save(&id, &entries(t * 100 + i)).unwrap();
                    assert!(store.exists(&id));
                    store.load(&id).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.list().len(), 160);
    }

    #[test]
    fn dir_store_concurrent_same_id_never_tears() {
        // Regression for the shared-tmp-path collision: several writers
        // repeatedly overwrite one id while readers hammer every read path.
        // Every observed state must be a complete, checksum-valid file
        // holding one of the written values — torn or mixed bytes would fail
        // decode (or the per-tensor checksums).
        let dir = std::env::temp_dir().join(format!("swt_ckpt_race_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(DirStore::new(&dir).unwrap());
        store.save("hot", &entries(0)).unwrap();
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..30 {
                    store.save("hot", &entries(t * 1000 + i)).unwrap();
                }
            }));
        }
        for _ in 0..3 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..60 {
                    let loaded = store.load("hot").expect("load never sees a torn file");
                    assert_eq!(loaded.len(), 2);
                    if i % 2 == 0 {
                        let index = store.load_index("hot").expect("index never torn");
                        assert_eq!(index.len(), 2);
                        let some = store.load_tensors("hot", &["a/kernel".to_string()]).unwrap();
                        assert_eq!(some.len(), 1);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // No temp droppings left behind by the unique-name scheme.
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stale temp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_raw_round_trips_on_every_backend() {
        // Bytes ingested verbatim must be indistinguishable from a `save`
        // of the same entries on every read path.
        let encoded = encode(&entries(5));
        let mem = MemStore::new();
        mem.save_raw("raw", &encoded).unwrap();
        assert_eq!(mem.load_raw("raw").unwrap(), encoded);
        assert_eq!(mem.load("raw").unwrap().len(), 2);

        let dir = std::env::temp_dir().join(format!("swt_ckpt_raw_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DirStore::new(&dir).unwrap();
        store.save_raw("raw", &encoded).unwrap();
        assert_eq!(store.load_raw("raw").unwrap(), encoded);
        assert_eq!(store.load_index("raw").unwrap().encoded_len(), encoded.len() as u64);
        let some = store.load_tensors("raw", &["a/bias".to_string()]).unwrap();
        assert_eq!(some.len(), 1);
        // Arc dispatch reaches the impl too.
        let arc: Arc<DirStore> = Arc::new(store);
        arc.save_raw("raw2", &encoded).unwrap();
        assert!(arc.exists("raw2"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn arc_dispatch_reaches_overridden_methods() {
        // The blanket Arc impl must forward to MemStore's native index
        // reader (which knows the layout), not the synthesized default
        // (which has none: `encoded_len` 0).
        let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        let bytes = store.save("c", &entries(2)).unwrap();
        assert_eq!(store.load_index("c").unwrap().encoded_len(), bytes);
    }
}
