//! `CachedStore` against the interleavings its bookkeeping exists for,
//! forced with a ticket gate rather than hoped for with threads: a fill
//! whose inner read straddles a write of the same id (released before the
//! write ends, and after), and two saves of one id whose inner writes land
//! in the opposite order to their returns. In each the cache may keep only
//! what it can vouch for: a later read must see what the inner store holds.

use std::io;
use std::sync::{Arc, Condvar, Mutex};
use swt_checkpoint::{encode, CachedStore, CheckpointStore, MemStore};
use swt_tensor::Tensor;

/// Every gated call takes the next ticket on arrival and returns only once
/// the test has released that ticket (or opened the gate for good).
#[derive(Default)]
struct Gate {
    /// (tickets handed out, tickets released, open to all).
    state: Mutex<(usize, Vec<usize>, bool)>,
    moved: Condvar,
}

impl Gate {
    fn hold(&self) {
        let mut st = self.state.lock().unwrap();
        let ticket = st.0;
        st.0 += 1;
        self.moved.notify_all();
        while !st.2 && !st.1.contains(&ticket) {
            st = self.moved.wait(st).unwrap();
        }
    }

    fn await_arrivals(&self, n: usize) {
        let mut st = self.state.lock().unwrap();
        while st.0 < n {
            st = self.moved.wait(st).unwrap();
        }
    }

    fn release(&self, ticket: usize) {
        self.state.lock().unwrap().1.push(ticket);
        self.moved.notify_all();
    }

    fn open(&self) {
        self.state.lock().unwrap().2 = true;
        self.moved.notify_all();
    }
}

/// A `MemStore` whose raw reads and writes do their work, then wait at the
/// gate before returning it.
#[derive(Default)]
struct Gated {
    mem: MemStore,
    gate: Gate,
}

impl CheckpointStore for Gated {
    fn save(&self, id: &str, entries: &[(String, Tensor)]) -> io::Result<u64> {
        self.mem.save(id, entries)
    }
    fn load_raw(&self, id: &str) -> io::Result<Vec<u8>> {
        let raw = self.mem.load_raw(id);
        self.gate.hold();
        raw
    }
    fn save_raw(&self, id: &str, bytes: &[u8]) -> io::Result<u64> {
        let saved = self.mem.save_raw(id, bytes);
        self.gate.hold();
        saved
    }
    fn size_bytes(&self, id: &str) -> Option<u64> {
        self.mem.size_bytes(id)
    }
    fn list(&self) -> Vec<String> {
        self.mem.list()
    }
    fn delete(&self, id: &str) -> bool {
        self.mem.delete(id)
    }
}

type Cache = CachedStore<Arc<Gated>>;

fn state(fill: f32) -> Vec<(String, Tensor)> {
    vec![("w".to_string(), Tensor::full([8], fill))]
}

fn value(store: &impl CheckpointStore) -> f32 {
    store.load("c").expect("load")[0].1.data()[0]
}

/// Run `first` until it waits at the gate, then `second` until it does, then
/// let them return in the order `release` names their tickets (0 = `first`).
/// Returns what the cache serves afterwards.
fn interleave(
    first: impl FnOnce(&Cache) + Send,
    second: impl FnOnce(&Cache) + Send,
    release: [usize; 2],
) -> f32 {
    let gated = Arc::new(Gated::default());
    let (cache, gate) = (CachedStore::new(Arc::clone(&gated), 1 << 20), &gated.gate);
    gated.mem.save("c", &state(1.0)).unwrap();
    std::thread::scope(|s| {
        let mut handles = [Some(s.spawn(|| first(&cache))), None];
        gate.await_arrivals(1);
        handles[1] = Some(s.spawn(|| second(&cache)));
        gate.await_arrivals(2);
        for ticket in release {
            gate.release(ticket);
            handles[ticket].take().unwrap().join().unwrap();
        }
    });
    gate.open();
    let served = value(&cache);
    assert_eq!(served, value(&gated.mem), "cache and inner store disagree");
    served
}

#[test]
fn racing_fills_and_overlapping_saves_leave_nothing_stale_resident() {
    let read = |cache: &Cache| assert_eq!(value(cache), 1.0, "read began first");
    let save = |fill: f32| move |cache: &Cache| drop(cache.save("c", &state(fill)));
    let put = |cache: &Cache| drop(cache.save_raw("c", &encode(&state(2.0))));

    // The read returns while the write is still inside the inner store.
    assert_eq!(interleave(read, put, [0, 1]), 2.0);
    // The write ends, and keeps its bytes, before the read it overlapped.
    assert_eq!(interleave(read, save(2.0), [1, 0]), 2.0);
    // Two saves: 3.0 lands last in the inner store, 2.0's save returns last.
    assert_eq!(interleave(save(2.0), save(3.0), [1, 0]), 3.0);
}
