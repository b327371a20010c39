//! Lineage-resident provider cache.
//!
//! Under regularized evolution the provider is the mutation parent, parents
//! come only from the population, and the population ages out oldest first
//! (Underwood et al. characterise these patterns to drive checkpoint
//! caching): which checkpoints can be read again is known, not guessed.
//! [`CachedStore`] wraps any [`CheckpointStore`] and holds that set as
//! *encoded bytes plus their parsed index*, so a hit serves `load_index`
//! without I/O and `load_tensors` with only the byte→f32 conversion.
//!
//! * **Born:** `save` encodes once into a cache-owned slab, hands those
//!   bytes to the inner store's `save_raw` and keeps the slab: a child never
//!   reaches disk or the wire for a parent this process trained. A parent
//!   trained elsewhere is a miss, filled from `inner.load_raw`; `save_raw`
//!   on the cache itself (a `Put` at the checkpoint server, which cannot
//!   know who reads next) only drops the stale copy.
//! * **Dies:** `evict` — the strategy's watermark, passed down by the
//!   evaluator — drops the resident copy, never the durable one, and keeps
//!   the slab as a later save's encode buffer. The byte budget is a hard cap
//!   behind that: over it the oldest-inserted entry goes, which under ageing
//!   evolution is the next member to die anyway.
//!
//! Correctness never depends on a hint: an evicted id is a miss. One mutex
//! guards one map; the `ckpt.cache.{hits,misses,retired,capped}` counters
//! and the `ckpt.cache.resident_bytes` gauge (high-watermark = peak) watch it.

use crate::format::{decode, decode_tensors, encode_into, parse_container, parse_index};
use crate::index::CheckpointIndex;
use crate::store::CheckpointStore;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};
use swt_tensor::Tensor;

/// Evicted slabs kept as encode buffers: a steady search evicts one entry per
/// save, so one per saving thread is all that is ever taken.
const SPARE_SLABS: usize = 8;

/// What a hit hands out: the container's bytes and its parsed index.
type Resident = (Arc<Vec<u8>>, Arc<CheckpointIndex>);

#[derive(Default)]
struct State {
    map: HashMap<String, (Resident, u64)>,
    /// Insertion sequence → id; the cap evicts from the front.
    order: BTreeMap<u64, String>,
    next_seq: u64,
    bytes: u64,
    /// Ids being mutated in the inner store: mutations in flight, and whether
    /// two ever overlapped (then whose bytes landed last is unknown, and none
    /// stay resident).
    writing: HashMap<String, (u32, bool)>,
    /// Bumped when a mutation ends; a fill that read across one is dropped.
    generation: u64,
    spare: Vec<Vec<u8>>,
}

impl State {
    fn remove(&mut self, id: &str) -> bool {
        let Some(((raw, _), seq)) = self.map.remove(id) else { return false };
        self.order.remove(&seq);
        self.bytes -= raw.len() as u64;
        swt_obs::gauge!("ckpt.cache.resident_bytes").set(self.bytes as i64);
        // A reader still decoding from the slab keeps it; otherwise it is
        // the next save's buffer.
        if self.spare.len() < SPARE_SLABS {
            self.spare.extend(Arc::try_unwrap(raw));
        }
        true
    }

    fn insert(&mut self, id: &str, hit: Resident, budget: u64) {
        let len = hit.0.len() as u64;
        if len > budget {
            return;
        }
        self.remove(id);
        while self.bytes + len > budget {
            let oldest = self.order.first_key_value().map(|(_, id)| id.clone());
            self.remove(&oldest.expect("resident bytes without a resident entry"));
            swt_obs::counter!("ckpt.cache.capped").inc();
        }
        self.order.insert(self.next_seq, id.to_string());
        self.map.insert(id.to_string(), (hit, self.next_seq));
        self.next_seq += 1;
        self.bytes += len;
        swt_obs::gauge!("ckpt.cache.resident_bytes").set(self.bytes as i64);
    }
}

/// A read-through, write-through cache over another checkpoint store.
pub struct CachedStore<S: CheckpointStore> {
    inner: S,
    budget: u64,
    state: Mutex<State>,
}

impl<S: CheckpointStore> CachedStore<S> {
    /// Wrap `inner`, keeping at most `budget_bytes` of encoded checkpoints
    /// resident. An entry larger than the whole budget is served but never
    /// kept.
    pub fn new(inner: S, budget_bytes: u64) -> Self {
        CachedStore { inner, budget: budget_bytes, state: Mutex::default() }
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.state().bytes
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("a thread panicked inside the provider cache")
    }

    /// Serve `id`'s encoded bytes *and* parsed index, filling from the inner
    /// store's `load_raw` on a miss. Every read goes through here;
    /// `swt-ckpt-server` sends `GetRaw`'s answer from the shared bytes.
    pub fn raw_and_index(&self, id: &str) -> io::Result<Resident> {
        let gen_before = {
            let st = self.state();
            if let Some((hit, _)) = st.map.get(id) {
                swt_obs::counter!("ckpt.cache.hits").inc();
                return Ok(hit.clone());
            }
            swt_obs::counter!("ckpt.cache.misses").inc();
            st.generation
        };
        let raw = self.inner.load_raw(id)?;
        let index = parse_container(&raw)?;
        let hit = (Arc::new(raw), Arc::new(index));
        let mut st = self.state();
        // Bytes read while the inner store was being written may predate
        // the write: they are served, never kept.
        if st.generation == gen_before && !st.writing.contains_key(id) {
            st.insert(id, hit.clone(), self.budget);
        }
        Ok(hit)
    }

    /// Run one mutation of `id` on the inner store. The resident copy goes
    /// first and fills are refused until the mutation ends; the bytes `op`
    /// returns stay resident only if no other mutation of `id` overlapped
    /// this one. (An `op` that panics leaves `id` uncached, no more.)
    fn mutate<R>(&self, id: &str, op: impl FnOnce(&S) -> (R, Option<Resident>)) -> R {
        {
            let mut st = self.state();
            st.remove(id);
            let writers = st.writing.entry(id.to_string()).or_insert((0, false));
            writers.0 += 1;
            writers.1 |= writers.0 > 1;
        }
        let (done, fresh) = op(&self.inner);
        let mut st = self.state();
        st.generation += 1;
        let writers = st.writing.get_mut(id).expect("counted on entry");
        writers.0 -= 1;
        if let (0, overlapped) = *writers {
            st.writing.remove(id);
            if let Some(fresh) = fresh.filter(|_| !overlapped) {
                st.insert(id, fresh, self.budget);
            }
        }
        done
    }
}

impl<S: CheckpointStore> CheckpointStore for CachedStore<S> {
    fn save(&self, id: &str, entries: &[(String, Tensor)]) -> io::Result<u64> {
        let mut slab = self.state().spare.pop().unwrap_or_default();
        encode_into(entries, &mut slab);
        let index = parse_index(&slab)?;
        self.mutate(id, move |inner| {
            let saved = inner.save_raw(id, &slab);
            let fresh = saved.is_ok().then(|| (Arc::new(slab), Arc::new(index)));
            (saved, fresh)
        })
    }

    fn save_raw(&self, id: &str, bytes: &[u8]) -> io::Result<u64> {
        self.mutate(id, |inner| (inner.save_raw(id, bytes), None))
    }

    fn evict(&self, id: &str) {
        if self.state().remove(id) {
            swt_obs::counter!("ckpt.cache.retired").inc();
        }
    }

    fn load(&self, id: &str) -> io::Result<Vec<(String, Tensor)>> {
        Ok(decode(&self.raw_and_index(id)?.0)?)
    }

    fn load_raw(&self, id: &str) -> io::Result<Vec<u8>> {
        Ok((*self.raw_and_index(id)?.0).clone())
    }

    fn load_index(&self, id: &str) -> io::Result<CheckpointIndex> {
        Ok((*self.raw_and_index(id)?.1).clone())
    }

    fn load_tensors(&self, id: &str, names: &[String]) -> io::Result<Vec<(String, Tensor)>> {
        let (raw, index) = self.raw_and_index(id)?;
        Ok(decode_tensors(&raw, &index, names)?)
    }

    fn exists(&self, id: &str) -> bool {
        let resident = self.state().map.contains_key(id);
        resident || self.inner.exists(id)
    }

    fn size_bytes(&self, id: &str) -> Option<u64> {
        let resident = self.state().map.get(id).map(|((raw, _), _)| raw.len() as u64);
        resident.or_else(|| self.inner.size_bytes(id))
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn delete(&self, id: &str) -> bool {
        self.mutate(id, |inner| (inner.delete(id), None))
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
        assert!(store.resident_bytes() > 0, "the save keeps its container resident");
        let cold = store.inner.load("c").unwrap();
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
    fn byte_budget_evicts_oldest_inserted() {
        // Each entry is half the budget — more than the old per-shard slice
        // of an eighth ever admitted — so exactly the two newest stay.
        let one = crate::format::encoded_len(&entries(0));
        let store = cached(one * 2);
        for i in 0..8 {
            store.save(&format!("c{i}"), &entries(i)).unwrap();
            store.load("c0").unwrap(); // a hit ranks nothing; a miss refills c0 as newest
            assert!(store.resident_bytes() <= one * 2, "resident exceeds the budget");
        }
        let resident = |id: &str| store.state().map.contains_key(id);
        assert!(resident("c0") && resident("c7") && !resident("c6"), "oldest-inserted goes");
    }

    #[test]
    fn evict_drops_the_resident_copy_and_keeps_the_durable_one() {
        let store = cached(1 << 20);
        store.save("c", &entries(1)).unwrap();
        store.evict("c");
        store.evict("never-saved");
        assert_eq!(store.resident_bytes(), 0);
        assert_eq!(store.state().spare.len(), 1, "the slab waits for the next save");
        assert_eq!(store.load("c").unwrap().len(), 2, "an evicted id is a miss, not an error");
        store.save("d", &entries(2)).unwrap();
        assert!(store.state().spare.is_empty(), "the save encoded into the spare slab");
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
                ("dir load_index", store.inner.load_index("t").err()),
                ("dir load_tensors", store.inner.load_tensors("t", &names).err()),
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
}
