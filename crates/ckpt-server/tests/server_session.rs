//! End-to-end sessions against a live [`CkptServer`]: reads through a bare
//! [`RemoteStore`] and through the lineage cache a worker fronts it with,
//! authentication (including the constant-time-rejection regression test),
//! malformed- and old-version-Hello hardening, and restart-with-durable-spill.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use swt_checkpoint::{encode, CachedStore, CheckpointStore, DirStore};
use swt_ckpt_server::auth::ct_eq;
use swt_ckpt_server::proto::ErrCode;
use swt_ckpt_server::{CkptServer, RemoteStore, ServerConfig, StoreMsg, STORE_PROTOCOL_VERSION};
use swt_tensor::{Rng, Tensor};

fn temp_spill(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("swt_ckptsrv_{tag}_{}", std::process::id()))
}

fn entries(seed: u64) -> Vec<(String, Tensor)> {
    let mut rng = Rng::seed(seed);
    vec![
        ("a/kernel".into(), Tensor::rand_normal([16, 8], 0.0, 1.0, &mut rng)),
        ("a/bias".into(), Tensor::rand_normal([8], 0.0, 1.0, &mut rng)),
        ("b/kernel".into(), Tensor::rand_normal([8, 4], 0.0, 1.0, &mut rng)),
    ]
}

fn start(tag: &str, secret: &str) -> (CkptServer, PathBuf) {
    let spill = temp_spill(tag);
    let mut cfg = ServerConfig::new("127.0.0.1:0", &spill);
    cfg.secret = secret.to_string();
    let server = CkptServer::start(cfg).expect("server must start");
    (server, spill)
}

/// A second session on `bucket`, fronted by the lineage cache the way a dist
/// worker holds its store: every checkpoint in the bucket is foreign to it.
fn worker_view(server: &CkptServer, bucket: &str) -> CachedStore<Arc<RemoteStore>> {
    let remote = RemoteStore::connect(&server.addr().to_string(), bucket, "");
    CachedStore::new(Arc::new(remote), 1 << 20)
}

#[test]
fn put_and_selective_reads_round_trip() {
    swt_obs::enable();
    let (server, spill) = start("roundtrip", "");
    let client = RemoteStore::connect(&server.addr().to_string(), "tenant_a", "");

    let saved = entries(7);
    let raw = encode(&saved);
    let n = client.save("cand_1", &saved).expect("save");
    assert_eq!(n, raw.len() as u64);

    // Full read returns the exact container bytes the client encoded.
    assert_eq!(client.load_raw("cand_1").expect("load_raw"), raw);

    // The index and the selective read are views of those bytes — on the
    // bare client, and behind the cache a worker fronts it with.
    let worker = worker_view(&server, "tenant_a");
    let names = vec!["a/kernel".to_string(), "b/kernel".to_string()];
    for (view, store) in [("bare", &client as &dyn CheckpointStore), ("cached", &worker)] {
        // The index sees every tensor and the container's length.
        let index = store.load_index("cand_1").expect("load_index");
        assert_eq!(index.len(), saved.len(), "{view}");
        assert_eq!(index.encoded_len(), raw.len() as u64, "{view}");

        // Selective read: exactly the requested subset, bit-identical values.
        let got = store.load_tensors("cand_1", &names).expect("load_tensors");
        assert_eq!(got.len(), 2, "{view}");
        for (name, tensor) in &got {
            let original = &saved.iter().find(|(n, _)| n == name).expect("requested name").1;
            assert!(tensor.approx_eq(original, 0.0), "{view}: {name} must round-trip bit-exactly");
        }
    }

    // Metadata surface.
    assert!(client.exists("cand_1"));
    assert_eq!(client.size_bytes("cand_1"), Some(raw.len() as u64));
    assert_eq!(client.list(), vec!["cand_1".to_string()]);
    assert!(!client.exists("cand_2"));
    assert!(client.load_raw("cand_2").is_err());
    assert!(client.delete("cand_1"));
    assert!(!client.exists("cand_1"));

    drop(server);
    let _ = std::fs::remove_dir_all(spill);
}

#[test]
fn damaged_spill_files_are_typed_errors_on_the_range_path() {
    // Records damaged behind the server's back — appended by another store
    // instance on the bucket's directory, which the server's store finds by
    // rescanning on a miss — each under its own id so no cache ever answers
    // for another: every strict prefix of a container is
    // refused by the server's cache fill (a complete `Err` response), and
    // every single-bit flip of a payload — which the server forwards without
    // reading — fails the reader's checksum. The path is `GetRaw`, read bare
    // and through a worker's cache (v2's range read, which named this test,
    // is gone).
    let (server, spill) = start("damage", "");
    let client = RemoteStore::connect(&server.addr().to_string(), "tenant_a", "");
    let worker = worker_view(&server, "tenant_a");
    let views = [("bare", &client as &dyn CheckpointStore), ("cached", &worker)];
    let mut rng = Rng::seed(3);
    let saved: Vec<(String, Tensor)> = vec![
        ("a/kernel".into(), Tensor::rand_normal([4, 4], 0.0, 1.0, &mut rng)),
        ("a/bias".into(), Tensor::rand_normal([4], 0.0, 1.0, &mut rng)),
    ];
    let names: Vec<String> = saved.iter().map(|(n, _)| n.clone()).collect();
    client.save("clean", &saved).expect("save creates the bucket directory");
    let clean = encode(&saved);
    let beside = DirStore::new(spill.join("tenant_a")).expect("open the bucket directory");

    for cut in 0..clean.len() {
        beside.save_raw(&format!("p{cut}"), &clean[..cut]).expect("append prefix");
        for (view, store) in views {
            let err = store.load_tensors(&format!("p{cut}"), &names).expect_err("prefix accepted");
            let kind = std::io::ErrorKind::InvalidInput;
            assert_eq!(err.kind(), kind, "{view}: prefix of {cut} bytes: {err}");
        }
    }
    let first_payload = clean.len() - 4 * (16 + 4);
    let mut dirty = clean.clone();
    for bit in 8 * first_payload..8 * clean.len() {
        dirty[bit / 8] ^= 1 << (bit % 8);
        beside.save_raw(&format!("f{bit}"), &dirty).expect("append flipped");
        for (view, store) in views {
            let err = store.load_tensors(&format!("f{bit}"), &names).expect_err("flip accepted");
            let kind = std::io::ErrorKind::InvalidData;
            assert_eq!(err.kind(), kind, "{view}: payload bit {bit}: {err}");
            assert!(store.load(&format!("f{bit}")).is_err(), "{view}: full load accepted {bit}");
        }
        dirty[bit / 8] ^= 1 << (bit % 8);
    }
    // Both sessions survived all of it.
    for (view, store) in views {
        assert_eq!(store.load_tensors("clean", &names).expect(view).len(), 2, "{view}");
    }

    drop(server);
    let _ = std::fs::remove_dir_all(spill);
}

#[test]
fn buckets_isolate_tenants() {
    swt_obs::enable();
    let (server, spill) = start("tenants", "");
    let addr = server.addr().to_string();
    let a = RemoteStore::connect(&addr, "tenant_a", "");
    let b = RemoteStore::connect(&addr, "tenant_b", "");

    a.save("cand_1", &entries(1)).expect("save into a");
    assert!(a.exists("cand_1"));
    assert!(!b.exists("cand_1"), "tenant_b must not observe tenant_a's ids");
    assert!(b.list().is_empty());

    drop(server);
    let _ = std::fs::remove_dir_all(spill);
}

#[test]
fn wrong_secret_is_rejected_as_a_final_error() {
    swt_obs::enable();
    let (server, spill) = start("auth", "orchid-lattice");
    let addr = server.addr().to_string();

    let failures_before = swt_obs::counter!("ckptsrv.auth_failures").get();
    let wrong = RemoteStore::connect(&addr, "tenant_a", "wrong-secret");
    let err = wrong.save("cand_1", &entries(3)).expect_err("wrong secret must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied, "{err}");
    let open = RemoteStore::connect(&addr, "tenant_a", "");
    let err = open.save("cand_1", &entries(3)).expect_err("missing secret must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied, "{err}");
    assert!(swt_obs::counter!("ckptsrv.auth_failures").get() >= failures_before + 2);

    // The right secret works — and the failed attempts left nothing behind.
    let right = RemoteStore::connect(&addr, "tenant_a", "orchid-lattice");
    right.save("cand_1", &entries(3)).expect("correct secret must be accepted");
    assert!(right.exists("cand_1"));

    drop(server);
    let _ = std::fs::remove_dir_all(spill);
}

#[test]
fn hostile_bucket_and_ids_are_final_errors() {
    swt_obs::enable();
    let (server, spill) = start("tokens", "");
    let addr = server.addr().to_string();

    // Path-traversal bucket: refused at Hello, surfaced as a final error
    // (no retry loop — retrying cannot make "../evil" valid).
    let evil_bucket = RemoteStore::connect(&addr, "../evil", "");
    let t0 = Instant::now();
    let err = evil_bucket.save("cand_1", &entries(4)).expect_err("bucket must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(t0.elapsed().as_secs() < 2, "final errors must not spin the backoff loop");

    // Hostile checkpoint ids: refused per-request, session stays usable.
    let client = RemoteStore::connect(&addr, "tenant_a", "");
    for id in ["../escape", "", ".hidden", "a/b"] {
        let err = client.put_raw(id, &encode(&entries(5))).expect_err("id must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "id {id:?}: {err}");
    }
    // Garbage bytes that are not a WTC container are refused server-side.
    let err = client.put_raw("cand_1", b"definitely not a checkpoint").expect_err("bad container");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    client.save("cand_1", &entries(5)).expect("session must survive refused requests");

    drop(server);
    let _ = std::fs::remove_dir_all(spill);
}

#[test]
fn malformed_hello_is_dropped_and_server_keeps_serving() {
    swt_obs::enable();
    let (server, spill) = start("badhello", "");
    let addr = server.addr().to_string();
    let bad_before = swt_obs::counter!("ckptsrv.bad_hello").get();

    // Raw garbage: an HTTP-looking blast whose "length prefix" is absurd.
    let mut garbage = TcpStream::connect(&addr).expect("connect");
    garbage.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").expect("write");
    let _ = garbage.shutdown(std::net::Shutdown::Write);

    // A well-framed frame that is not a Hello as the first frame.
    let mut wrong_first = TcpStream::connect(&addr).expect("connect");
    swt_wire::send(&mut wrong_first, &swt_ckpt_server::StoreMsg::List).expect("frame");
    let _ = wrong_first.shutdown(std::net::Shutdown::Write);

    // Both are dropped with a counter bump, and a real client still works —
    // the joiner-hardening posture: garbage never wedges the accept loop.
    let client = RemoteStore::connect(&addr, "tenant_a", "");
    client.save("cand_1", &entries(6)).expect("server must still serve");
    let deadline = Instant::now() + std::time::Duration::from_secs(5);
    while swt_obs::counter!("ckptsrv.bad_hello").get() < bad_before + 2 {
        assert!(Instant::now() < deadline, "bad_hello counter must record both drops");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    drop(server);
    let _ = std::fs::remove_dir_all(spill);
}

/// The server has closed its side of `stream`: a read returns EOF — within
/// the timeout, so a socket the server forgot to close fails the test
/// instead of hanging it.
fn assert_reads_eof(stream: &mut TcpStream, why: &str) {
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("timeout");
    let mut rest = Vec::new();
    match stream.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "{why}: {} stray bytes before EOF", rest.len()),
        Err(e) => panic!("{why}: the refused connection was not closed ({e})"),
    }
}

#[test]
fn a_hello_with_a_bad_mac_is_refused_and_the_connection_closed() {
    let (server, spill) = start("badmac", "orchid-lattice");
    let mut client = TcpStream::connect(server.addr()).expect("connect");
    let hello = StoreMsg::Hello {
        version: STORE_PROTOCOL_VERSION,
        bucket: "run_a".into(),
        nonce: [7; 16],
        mac: [9; 32],
    };
    swt_wire::send(&mut client, &hello).expect("frame");
    let mut buf = Vec::new();
    match swt_wire::recv::<StoreMsg>(&mut client, &mut buf).expect("the Hello is answered") {
        StoreMsg::Err { code, .. } => assert_eq!(code, ErrCode::Unauthorized),
        other => panic!("a forged Hello was answered with {other:?}"),
    }
    assert_reads_eof(&mut client, "bad MAC");

    drop(server);
    let _ = std::fs::remove_dir_all(spill);
}

#[test]
fn a_v2_hello_is_answered_with_a_final_error() {
    // A v2 client's Hello, written out byte for byte (v2's golden frame): it
    // is well formed, so it is answered — `BadRequest`, the code `RemoteStore`
    // maps to `InvalidInput`, which its retry loop treats as final. A v2
    // worker against a v3 server fails at once, not on its first read.
    let (server, spill) = start("oldhello", "");
    let mut payload = vec![2, 0, 0, 0, 5, 0];
    payload.extend_from_slice(b"run_a");
    payload.extend_from_slice(&[7; 16]);
    payload.extend_from_slice(&[9; 32]);
    let mut old = TcpStream::connect(server.addr()).expect("connect");
    swt_wire::write_frame(&mut old, 0x41, &payload).expect("frame");
    let mut buf = Vec::new();
    match swt_wire::recv::<StoreMsg>(&mut old, &mut buf).expect("the Hello is answered") {
        StoreMsg::Err { code, message } => {
            assert_eq!(code, ErrCode::BadRequest, "{message}");
            assert!(message.contains("version"), "{message}");
        }
        other => panic!("a v2 Hello was answered with {other:?}"),
    }
    assert_reads_eof(&mut old, "bad version");

    drop(server);
    let _ = std::fs::remove_dir_all(spill);
}

#[test]
fn restart_on_same_port_serves_spilled_state_to_a_live_client() {
    swt_obs::enable();
    let (mut server, spill) = start("restart", "");
    let addr = server.addr().to_string();
    let client = RemoteStore::connect(&addr, "tenant_a", "");

    let saved = entries(9);
    client.save("cand_1", &saved).expect("save before restart");
    server.stop();

    // Same port, same spill root: the restarted server rebuilds lazily
    // from disk, and the same client rides the retry/backoff loop through
    // the outage without any caller-visible error.
    let mut cfg = ServerConfig::new(&addr, &spill);
    cfg.secret = String::new();
    let server2 = CkptServer::start(cfg).expect("rebind on the same port");
    let names = vec!["a/kernel".to_string()];
    let got = client.load_tensors("cand_1", &names).expect("read across restart");
    assert_eq!(got.len(), 1);
    assert!(got[0].1.approx_eq(&saved[0].1, 0.0), "spilled tensor must be bit-identical");

    drop(server2);
    let _ = std::fs::remove_dir_all(spill);
}

/// Median nanoseconds to run `iters` constant-time comparisons of
/// `expected` against `candidate`.
fn median_cmp_ns(expected: &[u8; 32], candidate: &[u8; 32]) -> u64 {
    const ROUNDS: usize = 31;
    const ITERS: usize = 20_000;
    let mut samples = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let mut acc = false;
        for _ in 0..ITERS {
            acc ^= ct_eq(std::hint::black_box(expected), std::hint::black_box(candidate));
        }
        std::hint::black_box(acc);
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    samples[ROUNDS / 2]
}

#[test]
fn rejection_time_does_not_reveal_where_the_mac_diverges() {
    // A short-circuiting comparison rejects a first-byte mismatch ~32×
    // faster than a last-byte mismatch — that gradient is exactly what an
    // adversary uses to forge a MAC byte by byte. ct_eq folds every byte,
    // so the two medians must be close. The 5× bound is deliberately
    // generous: shared CI machines are noisy, and the regression this
    // guards against (early exit) shows up as a far larger ratio.
    let expected = swt_ckpt_server::auth::sha256(b"expected mac");
    let mut first = expected;
    first[0] ^= 0x01;
    let mut last = expected;
    last[31] ^= 0x01;

    // Warm up, then measure.
    let _ = median_cmp_ns(&expected, &first);
    let early = median_cmp_ns(&expected, &first) as f64;
    let late = median_cmp_ns(&expected, &last) as f64;
    let ratio = if early > late { early / late } else { late / early };
    assert!(
        ratio < 5.0,
        "divergence position must not change rejection time: byte-0 {early}ns vs byte-31 {late}ns"
    );
    // And it must still be a correct equality check.
    assert!(ct_eq(&expected, &expected));
    assert!(!ct_eq(&expected, &first) && !ct_eq(&expected, &last));
}
