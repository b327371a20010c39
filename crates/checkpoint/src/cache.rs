//! Byte-budgeted provider cache.
//!
//! Regularized evolution re-mutates a small elite set, so the same provider
//! checkpoints are read from the store over and over (Underwood et al.
//! observe exactly this evolution pattern in NAS traces). [`CachedStore`]
//! wraps any [`CheckpointStore`] and keeps hot checkpoints resident as
//! *encoded bytes plus their parsed index* — the two artifacts every
//! selective read needs — so a cache hit serves `load_index` without I/O and
//! `load_tensors` with nothing but the bulk byte→f32 conversion of the
//! requested payloads.
//!
//! The cache is sharded (id-hashed) so concurrent evaluator workers do not
//! serialise on one lock, and each shard evicts least-recently-used entries
//! once its slice of the byte budget fills. Writes go straight through to
//! the inner store and invalidate the cached entry; a per-shard generation
//! counter closes the fill/invalidate race, so a reader refilling the cache
//! concurrently with a save can never resurrect pre-save bytes.
//!
//! Observability: `ckpt.cache.hits` / `ckpt.cache.misses` /
//! `ckpt.cache.evictions` counters and the `ckpt.cache.resident_bytes`
//! gauge.

use crate::format::{decode, decode_tensors, parse_container};
use crate::index::CheckpointIndex;
use crate::store::{CheckpointStore, RawCheckpointStore};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use swt_tensor::Tensor;

const SHARDS: usize = 8;

struct CacheEntry {
    raw: Arc<Vec<u8>>,
    index: Arc<CheckpointIndex>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, CacheEntry>,
    bytes: u64,
    /// Bumped on every invalidation; fills racing an invalidation are
    /// discarded instead of inserting stale bytes.
    generation: u64,
}

/// A read-through, write-through cache over another checkpoint store.
pub struct CachedStore<S: CheckpointStore> {
    inner: S,
    shards: Vec<Mutex<Shard>>,
    shard_budget: u64,
    clock: AtomicU64,
    resident: AtomicU64,
}

impl<S: CheckpointStore> CachedStore<S> {
    /// Wrap `inner`, keeping at most `budget_bytes` of encoded checkpoints
    /// resident (split evenly across the shards). Entries larger than one
    /// shard's slice are served but never cached.
    pub fn new(inner: S, budget_bytes: u64) -> Self {
        CachedStore {
            inner,
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: budget_bytes / SHARDS as u64,
            clock: AtomicU64::new(0),
            resident: AtomicU64::new(0),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Bytes currently resident across all shards.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    fn shard(&self, id: &str) -> &Mutex<Shard> {
        &self.shards[crate::format::fnv1a(id.as_bytes()) as usize % SHARDS]
    }

    fn set_gauge(&self) {
        swt_obs::gauge!("ckpt.cache.resident_bytes")
            .set(self.resident.load(Ordering::Relaxed) as i64);
    }

    fn lookup(&self, id: &str) -> Option<(Arc<Vec<u8>>, Arc<CheckpointIndex>)> {
        let mut shard = self.shard(id).lock().unwrap();
        if let Some(entry) = shard.map.get_mut(id) {
            entry.last_used = self.clock.fetch_add(1, Ordering::Relaxed);
            swt_obs::counter!("ckpt.cache.hits").inc();
            Some((Arc::clone(&entry.raw), Arc::clone(&entry.index)))
        } else {
            swt_obs::counter!("ckpt.cache.misses").inc();
            None
        }
    }

    fn invalidate(&self, id: &str) {
        let mut shard = self.shard(id).lock().unwrap();
        shard.generation += 1;
        if let Some(entry) = shard.map.remove(id) {
            shard.bytes -= entry.raw.len() as u64;
            self.resident.fetch_sub(entry.raw.len() as u64, Ordering::Relaxed);
            self.set_gauge();
        }
    }

    /// Serve `id`'s encoded bytes *and* parsed index from the cache,
    /// filling from the inner store on a miss. This is the server-side
    /// range-read primitive: `swt-ckpt-server` answers `GetIndex` and
    /// `GetTensors` straight off the returned pair without re-parsing.
    pub fn raw_and_index(&self, id: &str) -> io::Result<(Arc<Vec<u8>>, Arc<CheckpointIndex>)> {
        self.fetch(id)
    }

    /// Serve `id` from the cache, filling from the inner store on a miss.
    fn fetch(&self, id: &str) -> io::Result<(Arc<Vec<u8>>, Arc<CheckpointIndex>)> {
        if let Some(hit) = self.lookup(id) {
            return Ok(hit);
        }
        // Record the shard generation *before* the inner read: if a save
        // invalidates while we read, the observed bytes may predate it and
        // must not enter the cache.
        let gen_before = self.shard(id).lock().unwrap().generation;
        let raw = self.inner.load_raw(id)?;
        let index = parse_container(&raw)?;
        let raw = Arc::new(raw);
        let index = Arc::new(index);
        let len = raw.len() as u64;
        if len <= self.shard_budget {
            let mut shard = self.shard(id).lock().unwrap();
            if shard.generation == gen_before {
                let entry = CacheEntry {
                    raw: Arc::clone(&raw),
                    index: Arc::clone(&index),
                    last_used: self.clock.fetch_add(1, Ordering::Relaxed),
                };
                if let Some(old) = shard.map.insert(id.to_string(), entry) {
                    shard.bytes -= old.raw.len() as u64;
                    self.resident.fetch_sub(old.raw.len() as u64, Ordering::Relaxed);
                }
                shard.bytes += len;
                self.resident.fetch_add(len, Ordering::Relaxed);
                // Evict least-recently-used entries until this shard fits
                // its slice of the budget again.
                while shard.bytes > self.shard_budget {
                    let Some(victim) = shard
                        .map
                        .iter()
                        .filter(|(k, _)| k.as_str() != id)
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(k, _)| k.clone())
                    else {
                        break;
                    };
                    let evicted = shard.map.remove(&victim).unwrap();
                    shard.bytes -= evicted.raw.len() as u64;
                    self.resident.fetch_sub(evicted.raw.len() as u64, Ordering::Relaxed);
                    swt_obs::counter!("ckpt.cache.evictions").inc();
                }
                self.set_gauge();
            }
        }
        Ok((raw, index))
    }
}

impl<S: RawCheckpointStore> RawCheckpointStore for CachedStore<S> {
    fn save_raw(&self, id: &str, bytes: &[u8]) -> io::Result<u64> {
        let n = self.inner.save_raw(id, bytes)?;
        self.invalidate(id);
        Ok(n)
    }
}

impl<S: CheckpointStore> CheckpointStore for CachedStore<S> {
    fn save(&self, id: &str, entries: &[(String, Tensor)]) -> io::Result<u64> {
        let bytes = self.inner.save(id, entries)?;
        self.invalidate(id);
        Ok(bytes)
    }

    fn load(&self, id: &str) -> io::Result<Vec<(String, Tensor)>> {
        let (raw, _) = self.fetch(id)?;
        Ok(decode(&raw)?)
    }

    fn load_raw(&self, id: &str) -> io::Result<Vec<u8>> {
        let (raw, _) = self.fetch(id)?;
        Ok((*raw).clone())
    }

    fn load_index(&self, id: &str) -> io::Result<CheckpointIndex> {
        let (_, index) = self.fetch(id)?;
        Ok((*index).clone())
    }

    fn load_tensors(&self, id: &str, names: &[String]) -> io::Result<Vec<(String, Tensor)>> {
        let (raw, index) = self.fetch(id)?;
        Ok(decode_tensors(&raw, &index, names)?)
    }

    fn exists(&self, id: &str) -> bool {
        self.shard(id).lock().unwrap().map.contains_key(id) || self.inner.exists(id)
    }

    fn size_bytes(&self, id: &str) -> Option<u64> {
        if let Some(entry) = self.shard(id).lock().unwrap().map.get(id) {
            return Some(entry.raw.len() as u64);
        }
        self.inner.size_bytes(id)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn delete(&self, id: &str) -> bool {
        self.invalidate(id);
        self.inner.delete(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use swt_tensor::Rng;

    fn entries(seed: u64) -> Vec<(String, Tensor)> {
        let mut rng = Rng::seed(seed);
        vec![
            ("a/kernel".into(), Tensor::rand_normal([16, 16], 0.0, 1.0, &mut rng)),
            ("a/bias".into(), Tensor::rand_normal([16], 0.0, 1.0, &mut rng)),
        ]
    }

    fn cached(budget: u64) -> CachedStore<MemStore> {
        CachedStore::new(MemStore::new(), budget)
    }

    #[test]
    fn hit_serves_identical_data() {
        let store = cached(1 << 20);
        store.save("c", &entries(1)).unwrap();
        let cold = store.load("c").unwrap();
        assert!(store.resident_bytes() > 0, "first load fills the cache");
        let warm = store.load("c").unwrap();
        assert_eq!(cold.len(), warm.len());
        for ((n1, t1), (n2, t2)) in cold.iter().zip(&warm) {
            assert_eq!(n1, n2);
            assert!(t1.approx_eq(t2, 0.0));
        }
        // Index and partial loads hit the same resident entry.
        assert_eq!(store.load_index("c").unwrap().len(), 2);
        let some = store.load_tensors("c", &["a/bias".to_string()]).unwrap();
        assert!(some[0].1.approx_eq(&cold[1].1, 0.0));
    }

    #[test]
    fn save_invalidates() {
        let store = cached(1 << 20);
        store.save("c", &entries(1)).unwrap();
        let before = store.load("c").unwrap();
        store.save("c", &entries(2)).unwrap();
        let after = store.load("c").unwrap();
        assert!(!before[0].1.approx_eq(&after[0].1, 0.0), "stale bytes served after save");
    }

    #[test]
    fn save_raw_invalidates_and_raw_and_index_serves_fresh_bytes() {
        let store = cached(1 << 20);
        store.save("c", &entries(1)).unwrap();
        let before = store.load("c").unwrap();
        let newer = crate::format::encode(&entries(2));
        store.save_raw("c", &newer).unwrap();
        let after = store.load("c").unwrap();
        assert!(!before[0].1.approx_eq(&after[0].1, 0.0), "stale bytes served after save_raw");
        let (raw, index) = store.raw_and_index("c").unwrap();
        assert_eq!(raw.len(), newer.len());
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn delete_invalidates_and_removes() {
        let store = cached(1 << 20);
        store.save("c", &entries(1)).unwrap();
        store.load("c").unwrap();
        assert!(store.delete("c"));
        assert!(!store.exists("c"));
        assert!(store.load("c").is_err());
        assert_eq!(store.resident_bytes(), 0);
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let one = encode_len_of(&entries(0));
        // Budget fits ~2 entries per shard; loading many distinct ids must
        // keep residency bounded and evict the least recently used.
        let store = cached(one * 2 * SHARDS as u64);
        for i in 0..64 {
            store.save(&format!("c{i}"), &entries(i)).unwrap();
            store.load(&format!("c{i}")).unwrap();
        }
        assert!(
            store.resident_bytes() <= one * 2 * SHARDS as u64,
            "resident {} exceeds budget",
            store.resident_bytes()
        );
        // The most recently loaded id is still resident: loading it again
        // must not change residency (a hit, not a refill).
        let resident = store.resident_bytes();
        store.load("c63").unwrap();
        assert_eq!(store.resident_bytes(), resident);
    }

    #[test]
    fn oversized_entries_are_served_but_not_cached() {
        let store = cached(8); // absurdly small budget
        store.save("big", &entries(3)).unwrap();
        let loaded = store.load("big").unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(store.resident_bytes(), 0);
    }

    #[test]
    fn concurrent_readers_and_writers_stay_consistent() {
        let store = Arc::new(cached(1 << 20));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    let id = format!("c{}", (t * 25 + i) % 10);
                    store.save(&id, &entries(t * 100 + i)).unwrap();
                    let loaded = store.load(&id).unwrap();
                    assert_eq!(loaded.len(), 2);
                    store.load_index(&id).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.list().len(), 10);
    }

    #[test]
    fn torn_containers_are_refused_like_the_store_beneath_refuses_them() {
        // One byte missing and one byte too many, under an intact header:
        // the cache fill must refuse what `DirStore`'s own indexed reads
        // refuse, and keep nothing resident.
        let dir = std::env::temp_dir().join(format!("swt_cache_torn_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CachedStore::new(crate::DirStore::new(&dir).unwrap(), 1 << 20);
        let clean = crate::format::encode(&entries(1));
        let names = vec!["a/bias".to_string()];
        for (what, bytes) in [
            ("one missing byte", clean[..clean.len() - 1].to_vec()),
            ("one trailing byte", [clean.as_slice(), &[0]].concat()),
        ] {
            std::fs::write(dir.join("t.wtc"), &bytes).unwrap();
            for (path, err) in [
                ("dir load_index", store.inner().load_index("t").err()),
                ("dir load_tensors", store.inner().load_tensors("t", &names).err()),
                ("cache load_index", store.load_index("t").err()),
                ("cache load_tensors", store.load_tensors("t", &names).err()),
                ("cache raw_and_index", store.raw_and_index("t").err()),
                ("cache load", store.load("t").err()),
            ] {
                let err = err.unwrap_or_else(|| panic!("{what} accepted by {path}"));
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}, {path}: {err}");
            }
            assert_eq!(store.resident_bytes(), 0, "{what} entered the cache");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn encode_len_of(entries: &[(String, Tensor)]) -> u64 {
        crate::format::encoded_len(entries)
    }
}
