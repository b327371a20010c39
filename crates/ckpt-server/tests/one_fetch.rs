//! What a foreign parent costs on the wire, counted at the server. Alone in
//! its binary: `ckptsrv.gets_raw` is process-wide, and any other test's read
//! would move it.

use std::sync::Arc;
use swt_checkpoint::{CachedStore, CheckpointStore};
use swt_ckpt_server::{CkptServer, RemoteStore, ServerConfig};
use swt_tensor::{Rng, Tensor};

#[test]
fn a_foreign_parent_is_fetched_whole_once_per_residency() {
    swt_obs::enable();
    let spill = std::env::temp_dir().join(format!("swt_ckptsrv_onefetch_{}", std::process::id()));
    let server =
        CkptServer::start(ServerConfig::new("127.0.0.1:0", &spill)).expect("server must start");
    let addr = server.addr().to_string();

    // One worker trains the parent; its own cache holds it from the save.
    let mut rng = Rng::seed(7);
    let parent: Vec<(String, Tensor)> = ["a/kernel", "a/bias", "b/kernel"]
        .iter()
        .map(|name| (name.to_string(), Tensor::rand_normal([8, 4], 0.0, 1.0, &mut rng)))
        .collect();
    let trainer = CachedStore::new(Arc::new(RemoteStore::connect(&addr, "run", "")), 1 << 20);
    trainer.save("c1", &parent).expect("save");

    // Another worker evaluates three children of it: an index read and three
    // plans' worth of tensor reads are one fetch of the whole container.
    let gets_raw = || swt_obs::counter!("ckptsrv.gets_raw").get();
    let before = gets_raw();
    let reader = CachedStore::new(Arc::new(RemoteStore::connect(&addr, "run", "")), 1 << 20);
    assert_eq!(reader.load_index("c1").expect("index").len(), 3);
    for (name, original) in &parent {
        let got = reader.load_tensors("c1", std::slice::from_ref(name)).expect("tensors");
        assert!(got.len() == 1 && got[0].1.approx_eq(original, 0.0), "{name}");
    }
    assert_eq!(gets_raw() - before, 1, "one fetch serves every read of a resident parent");
    trainer.load_tensors("c1", &["a/bias".to_string()]).expect("own checkpoint");
    assert_eq!(gets_raw() - before, 1, "a worker never fetches what it trained");

    // The lineage moves past the parent and back (a reassigned child names
    // it again): an evicted id is a miss, and a miss is one more fetch.
    reader.evict("c1");
    assert_eq!(reader.load_index("c1").expect("index after evict").len(), 3);
    reader.load_tensors("c1", &["a/bias".to_string()]).expect("tensors after evict");
    assert_eq!(gets_raw() - before, 2);

    drop(server);
    let _ = std::fs::remove_dir_all(spill);
}
