//! The checkpoint server: a multi-tenant tensor store behind framed TCP.
//!
//! Every bucket (tenant namespace) is its own `DirStore` rooted at
//! `spill_dir/<bucket>`: `GetRaw`, the one read, is one read of the
//! container from the segment log, checked before it is sent, and `Put` is
//! on disk before it is acknowledged — so a server restart mid-run loses
//! nothing that was ever acked. The server keeps no copy of its own: no
//! eviction hint reaches it, and the OS page cache already holds what was
//! just written.
//!
//! Connections are thread-per-client (worker counts are small). Hostile
//! input never panics: the CI no-panic gate covers this crate, tokens are
//! validated before any store touch, and a malformed Hello is dropped with
//! a counter bump — the same hardening posture as the dist joiner path.
//! Application-level failures (missing id, bad request) travel as `Err`
//! frames and leave the session usable; wire-level desyncs drop it.

use crate::auth::{ct_eq, hello_mac};
use crate::proto::{
    recv_chunks, send_chunks, valid_token, ErrCode, StoreMsg, MAX_LIST_IDS, STORE_PROTOCOL_VERSION,
};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;
use swt_checkpoint::{parse_container, CheckpointStore, DirStore};
use swt_obs::serve::{prometheus_text, ObsServer, ServeSource};
use swt_obs::RunReport;
use swt_wire::{read_frame, recv, send, write_frame, WireError};

/// How the server is run. `bind` takes `"host:port"` (port 0 for
/// ephemeral); `secret` empty disables authentication (open mode).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    pub bind: String,
    /// Durable WTC3 spill root; each bucket gets a subdirectory.
    pub spill_dir: PathBuf,
    /// Shared HMAC secret; empty = open mode.
    pub secret: String,
    /// Optional `host:port` for the server's own live `/status` endpoint.
    pub serve: Option<String>,
}

impl ServerConfig {
    pub fn new(bind: impl Into<String>, spill_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            bind: bind.into(),
            spill_dir: spill_dir.into(),
            secret: String::new(),
            serve: None,
        }
    }
}

type BucketStore = Arc<DirStore>;

struct Shared {
    cfg: ServerConfig,
    buckets: Mutex<HashMap<String, BucketStore>>,
    /// A handle on every live session's socket, by session number, so `stop`
    /// can shut them down; a session takes its own out when it ends.
    conns: Mutex<HashMap<u64, TcpStream>>,
    stop: AtomicBool,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    fn bucket(&self, name: &str) -> io::Result<BucketStore> {
        let mut buckets = lock(&self.buckets);
        if let Some(store) = buckets.get(name) {
            return Ok(Arc::clone(store));
        }
        let store = Arc::new(DirStore::new(self.cfg.spill_dir.join(name))?);
        buckets.insert(name.to_string(), Arc::clone(&store));
        Ok(store)
    }
}

/// Live-endpoint source: bucket inventory on `/status`, the process
/// registry (all `ckptsrv.*` counters) on `/metrics`.
struct StoreStatus(Arc<Shared>);

impl ServeSource for StoreStatus {
    fn status_json(&self) -> String {
        use std::fmt::Write as _;
        let buckets = lock(&self.0.buckets);
        let mut out = String::from("{\"buckets\":[");
        for (i, (name, store)) in buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Bucket names pass `valid_token`, so no JSON escaping needed.
            let _ = write!(out, "{{\"name\":\"{name}\",\"checkpoints\":{}}}", store.list().len());
        }
        let _ = write!(
            out,
            "],\"puts\":{},\"gets_raw\":{},\"full_bytes_tx\":{}}}",
            swt_obs::counter!("ckptsrv.puts").get(),
            swt_obs::counter!("ckptsrv.gets_raw").get(),
            swt_obs::counter!("ckptsrv.full_bytes_tx").get()
        );
        out
    }

    fn metrics_text(&self) -> String {
        prometheus_text(&RunReport::capture())
    }
}

/// Handle to a running checkpoint server; `stop()` (or drop) shuts down
/// the listener and every open session.
pub struct CkptServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<thread::JoinHandle<()>>,
    obs: Option<ObsServer>,
}

impl CkptServer {
    /// Bind and start serving on a background thread.
    pub fn start(cfg: ServerConfig) -> io::Result<CkptServer> {
        std::fs::create_dir_all(&cfg.spill_dir)?;
        let listener = TcpListener::bind(&cfg.bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let serve_bind = cfg.serve.clone();
        let shared = Arc::new(Shared {
            cfg,
            buckets: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
        });
        let obs = match serve_bind {
            Some(bind) => {
                Some(ObsServer::start(&bind, Arc::new(StoreStatus(Arc::clone(&shared))))?)
            }
            None => None,
        };
        let accept_shared = Arc::clone(&shared);
        let accept_handle = thread::spawn(move || accept_loop(&listener, &accept_shared));
        swt_obs::info!("ckptsrv", "checkpoint server listening on {addr}");
        Ok(CkptServer { addr, shared, accept_handle: Some(accept_handle), obs })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, shut down every open session, and join the accept
    /// loop. Spilled state stays on disk; a later `start` over the same
    /// `spill_dir` serves it again.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        for (_, conn) in lock(&self.shared.conns).drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        if let Some(mut obs) = self.obs.take() {
            obs.stop();
        }
    }
}

impl Drop for CkptServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut sessions = 0u64;
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                swt_obs::counter!("ckptsrv.conns").inc();
                let session = sessions;
                sessions += 1;
                if let Ok(tracked) = stream.try_clone() {
                    lock(&shared.conns).insert(session, tracked);
                }
                let conn_shared = Arc::clone(shared);
                thread::spawn(move || {
                    if let Err(e) = serve_conn(&conn_shared, stream) {
                        swt_obs::debug!("ckptsrv", "session ended: {e}");
                    }
                    // `serve_conn` dropped its handle; the socket closes — and
                    // a client refused at Hello reads EOF — once the tracked
                    // one goes too.
                    lock(&conn_shared.conns).remove(&session);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn send_err(stream: &mut TcpStream, code: ErrCode, message: impl Into<String>) {
    swt_obs::counter!("ckptsrv.errors").inc();
    let _ = send(stream, &StoreMsg::Err { code, message: message.into() });
}

/// Map a store-layer failure onto an application error frame.
fn err_of(e: &io::Error) -> (ErrCode, String) {
    match e.kind() {
        io::ErrorKind::NotFound => (ErrCode::NotFound, e.to_string()),
        io::ErrorKind::InvalidData => (ErrCode::BadRequest, e.to_string()),
        _ => (ErrCode::Internal, e.to_string()),
    }
}

fn serve_conn(shared: &Arc<Shared>, mut stream: TcpStream) -> Result<(), WireError> {
    stream.set_nodelay(true).ok();
    let mut buf = Vec::new();

    // --- Hello: the only frame accepted on a fresh session. Anything
    // unreadable is dropped with a counter bump, mirroring the dist
    // joiner's malformed-Hello hardening: garbage on the store port must
    // never panic, allocate unboundedly, or occupy the accept loop.
    let (version, bucket, nonce, mac) = match recv(&mut stream, &mut buf) {
        Ok(StoreMsg::Hello { version, bucket, nonce, mac }) => (version, bucket, nonce, mac),
        Ok(other) => {
            swt_obs::counter!("ckptsrv.bad_hello").inc();
            swt_obs::warn!("ckptsrv", "first frame was {other:?}, not Hello; dropping");
            return Ok(());
        }
        Err(e) => {
            swt_obs::counter!("ckptsrv.bad_hello").inc();
            swt_obs::warn!("ckptsrv", "unreadable Hello dropped: {e}");
            return Ok(());
        }
    };
    if version != STORE_PROTOCOL_VERSION {
        send_err(
            &mut stream,
            ErrCode::BadRequest,
            format!(
            "store protocol version mismatch: server {STORE_PROTOCOL_VERSION}, client {version}"
        ),
        );
        return Ok(());
    }
    if !valid_token(&bucket) {
        send_err(&mut stream, ErrCode::BadRequest, "invalid bucket name");
        return Ok(());
    }
    if !shared.cfg.secret.is_empty() {
        let expected = hello_mac(&shared.cfg.secret, version, &bucket, &nonce);
        if !ct_eq(&expected, &mac) {
            swt_obs::counter!("ckptsrv.auth_failures").inc();
            send_err(&mut stream, ErrCode::Unauthorized, "hello authentication failed");
            return Ok(());
        }
    }
    let store = match shared.bucket(&bucket) {
        Ok(store) => store,
        Err(e) => {
            let (code, msg) = err_of(&e);
            send_err(&mut stream, code, msg);
            return Ok(());
        }
    };
    send(&mut stream, &StoreMsg::HelloAck { version: STORE_PROTOCOL_VERSION })?;

    // --- Session loop: one request, one response (possibly chunked).
    loop {
        let msg = match recv(&mut stream, &mut buf) {
            Ok(msg) => msg,
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::UnexpectedEof
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::ConnectionAborted
                ) =>
            {
                return Ok(()); // peer went away: the normal end of a session
            }
            Err(e) => return Err(e),
        };
        match msg {
            StoreMsg::Put { id, total_len } => handle_put(&mut stream, &store, &id, total_len)?,
            StoreMsg::GetRaw { id } => handle_get_raw(&mut stream, &store, &id)?,
            StoreMsg::Exists { id } => {
                if !valid_token(&id) {
                    send_err(&mut stream, ErrCode::BadRequest, "invalid checkpoint id");
                    continue;
                }
                let size = store.size_bytes(&id);
                send(
                    &mut stream,
                    &StoreMsg::ExistsResp { exists: size.is_some(), size: size.unwrap_or(0) },
                )?;
            }
            StoreMsg::List => {
                let mut ids = store.list();
                ids.sort();
                ids.truncate(MAX_LIST_IDS);
                send(&mut stream, &StoreMsg::ListResp { ids })?;
            }
            StoreMsg::Delete { id } => {
                if !valid_token(&id) {
                    send_err(&mut stream, ErrCode::BadRequest, "invalid checkpoint id");
                    continue;
                }
                let existed = store.delete(&id);
                send(&mut stream, &StoreMsg::DeleteResp { existed })?;
            }
            other => {
                // A response frame (or second Hello) arriving as a request
                // is a state violation; the session cannot be trusted.
                return Err(WireError::Protocol(format!("unexpected request frame {other:?}")));
            }
        }
    }
}

fn handle_put(
    stream: &mut TcpStream,
    store: &BucketStore,
    id: &str,
    total_len: u64,
) -> Result<(), WireError> {
    // The chunk stream follows unconditionally, so drain it before
    // reporting any application error — otherwise the frames would be
    // misread as the next request.
    let bytes = recv_chunks(total_len, |buf| read_frame(stream, buf))?;
    if !valid_token(id) {
        send_err(stream, ErrCode::BadRequest, "invalid checkpoint id");
        return Ok(());
    }
    // Validate the container before it can enter the store: a corrupt Put
    // must fail here, not on some later reader.
    if let Err(e) = parse_container(&bytes) {
        send_err(stream, ErrCode::BadRequest, format!("not a valid checkpoint container: {e}"));
        return Ok(());
    }
    match store.save_raw(id, &bytes) {
        Ok(n) => {
            swt_obs::counter!("ckptsrv.puts").inc();
            swt_obs::counter!("ckptsrv.put_bytes").add(n);
            send(stream, &StoreMsg::PutAck { bytes: n })
        }
        Err(e) => {
            let (code, msg) = err_of(&e);
            send_err(stream, code, msg);
            Ok(())
        }
    }
}

fn handle_get_raw(stream: &mut TcpStream, store: &BucketStore, id: &str) -> Result<(), WireError> {
    if !valid_token(id) {
        send_err(stream, ErrCode::BadRequest, "invalid checkpoint id");
        return Ok(());
    }
    // A record damaged behind the server's back is refused here, whole,
    // rather than sent for the reader to find out. The bytes are sent from
    // where the store lends them; a send's own failure ends the session.
    let mut sent = None;
    let read = store.read(id, &mut |raw| {
        parse_container(raw)?;
        swt_obs::counter!("ckptsrv.gets_raw").inc();
        swt_obs::counter!("ckptsrv.full_bytes_tx").add(raw.len() as u64);
        let blob = send(stream, &StoreMsg::Blob { total_len: raw.len() as u64 });
        sent =
            Some(blob.and_then(|()| send_chunks(raw, |ty, chunk| write_frame(stream, ty, chunk))));
        Ok(())
    });
    if let (None, Err(e)) = (&sent, read) {
        let (code, msg) = err_of(&e);
        send_err(stream, code, msg);
    }
    sent.unwrap_or(Ok(()))
}
