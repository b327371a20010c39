//! `RemoteStore`: the networked [`CheckpointStore`] backed by a checkpoint
//! server.
//!
//! Every trait method maps onto one request/response exchange, and there
//! is one read: `load_raw` → `GetRaw`, the whole container. Every other read
//! is the trait's, derived from it, so each costs a whole fetch — which is
//! why workers front a `RemoteStore` with the run's `CachedStore`: a parent
//! trained elsewhere is fetched once and every later read of it is lent
//! from local RAM, a checkpoint this worker trained never comes back over
//! the wire at all.
//!
//! Transport faults (connection refused, reset, EOF mid-response) are
//! retried with exponential backoff and a fresh connection — long enough
//! to ride out a server restart mid-run. Application-level answers
//! (`NotFound`, `BadRequest`, `Unauthorized`) are returned immediately:
//! retrying cannot change them.

use crate::auth::hello_mac;
use crate::proto::{recv_chunks, send_chunks, ErrCode, StoreMsg, STORE_PROTOCOL_VERSION};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, SystemTime, UNIX_EPOCH};
use swt_checkpoint::{with_encoded, CheckpointStore};
use swt_tensor::Tensor;
use swt_wire::{read_frame, recv, send, write_frame, WireError};

/// Connection attempts per operation before giving up.
const ATTEMPTS: u32 = 8;

/// First backoff step; doubles per attempt (25, 50, … 3200 ms ≈ 6.4 s
/// total — comfortably longer than a server restart).
const BACKOFF_BASE: Duration = Duration::from_millis(25);

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn send(&mut self, msg: &StoreMsg) -> Result<(), WireError> {
        send(&mut self.stream, msg)
    }

    fn recv(&mut self) -> Result<StoreMsg, WireError> {
        recv(&mut self.stream, &mut self.buf)
    }

    fn recv_bytes(&mut self, total_len: u64) -> Result<Vec<u8>, WireError> {
        let stream = &mut self.stream;
        recv_chunks(total_len, |buf| read_frame(stream, buf))
    }
}

/// Map a server `Err` frame onto an `io::Error` whose kind tells the retry
/// loop whether the answer is final.
fn app_err(code: ErrCode, message: String) -> io::Error {
    let kind = match code {
        ErrCode::NotFound => io::ErrorKind::NotFound,
        ErrCode::BadRequest => io::ErrorKind::InvalidInput,
        ErrCode::Unauthorized => io::ErrorKind::PermissionDenied,
        ErrCode::Internal => io::ErrorKind::Other,
    };
    io::Error::new(kind, format!("store: {message}"))
}

fn desync(got: &StoreMsg) -> io::Error {
    io::Error::new(
        io::ErrorKind::BrokenPipe,
        format!("store protocol desync: unexpected response {got:?}"),
    )
}

/// Final answers that a reconnect cannot improve.
fn is_final(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::NotFound
            | io::ErrorKind::InvalidInput
            | io::ErrorKind::InvalidData
            | io::ErrorKind::PermissionDenied
    )
}

/// A fresh per-session nonce: wall clock mixed with pid and a counter. Not
/// cryptographic randomness — it only needs to vary the hello transcript
/// between sessions.
fn session_nonce() -> [u8; 16] {
    static CTR: AtomicU64 = AtomicU64::new(0);
    let nanos =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
    let a = nanos
        ^ (u64::from(std::process::id())).rotate_left(32)
        ^ CTR.fetch_add(1, Ordering::Relaxed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let b = nanos.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ a.rotate_left(17);
    let mut nonce = [0u8; 16];
    nonce[..8].copy_from_slice(&a.to_le_bytes());
    nonce[8..].copy_from_slice(&b.to_le_bytes());
    nonce
}

/// A [`CheckpointStore`] served over the store wire protocol.
pub struct RemoteStore {
    addr: String,
    bucket: String,
    secret: String,
    conn: Mutex<Option<Conn>>,
}

impl RemoteStore {
    /// Address forms accepted: `host:port` or `tcp://host:port`. The
    /// connection is opened lazily, on the first operation.
    pub fn connect(addr: &str, bucket: &str, secret: &str) -> RemoteStore {
        let addr = addr.strip_prefix("tcp://").unwrap_or(addr).to_string();
        RemoteStore {
            addr,
            bucket: bucket.to_string(),
            secret: secret.to_string(),
            conn: Mutex::new(None),
        }
    }

    /// The bucket this client operates in.
    pub fn bucket(&self) -> &str {
        &self.bucket
    }

    fn dial(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true).ok();
        let mut conn = Conn { stream, buf: Vec::new() };
        let nonce = session_nonce();
        let mac = hello_mac(&self.secret, STORE_PROTOCOL_VERSION, &self.bucket, &nonce);
        conn.send(&StoreMsg::Hello {
            version: STORE_PROTOCOL_VERSION,
            bucket: self.bucket.clone(),
            nonce,
            mac,
        })?;
        match conn.recv()? {
            StoreMsg::HelloAck { .. } => Ok(conn),
            StoreMsg::Err { code, message } => Err(app_err(code, message)),
            other => Err(desync(&other)),
        }
    }

    /// Run one exchange, reconnecting with backoff on transport faults.
    /// The connection is dropped on *any* failure — after a mid-response
    /// error the stream position is unknowable, and reconnecting is cheap
    /// next to a checkpoint transfer.
    fn run_op<R>(&self, mut op: impl FnMut(&mut Conn) -> io::Result<R>) -> io::Result<R> {
        let mut guard: MutexGuard<'_, Option<Conn>> =
            self.conn.lock().unwrap_or_else(|e| e.into_inner());
        let mut last: Option<io::Error> = None;
        for attempt in 0..ATTEMPTS {
            if attempt > 0 {
                swt_obs::counter!("ckptsrv.client.retries").inc();
                std::thread::sleep(BACKOFF_BASE * 2u32.pow(attempt - 1));
            }
            if guard.is_none() {
                if last.is_some() {
                    swt_obs::counter!("ckptsrv.client.reconnects").inc();
                }
                match self.dial() {
                    Ok(conn) => *guard = Some(conn),
                    Err(e) if is_final(&e) => return Err(e),
                    Err(e) => {
                        last = Some(e);
                        continue;
                    }
                }
            }
            let Some(conn) = guard.as_mut() else { continue };
            match op(conn) {
                Ok(r) => return Ok(r),
                Err(e) => {
                    *guard = None;
                    if is_final(&e) {
                        return Err(e);
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("store operation failed with no attempts")))
    }

    /// Store pre-encoded container bytes under `id`.
    pub fn put_raw(&self, id: &str, bytes: &[u8]) -> io::Result<u64> {
        let n = self.run_op(|conn| {
            conn.send(&StoreMsg::Put { id: id.to_string(), total_len: bytes.len() as u64 })?;
            {
                let stream = &mut conn.stream;
                send_chunks(bytes, |ty, chunk| write_frame(stream, ty, chunk))?;
            }
            match conn.recv()? {
                StoreMsg::PutAck { bytes } => Ok(bytes),
                StoreMsg::Err { code, message } => Err(app_err(code, message)),
                other => Err(desync(&other)),
            }
        })?;
        swt_obs::counter!("ckptsrv.client.puts").inc();
        swt_obs::counter!("ckptsrv.client.put_bytes").add(n);
        Ok(n)
    }
}

impl CheckpointStore for RemoteStore {
    fn save(&self, id: &str, entries: &[(String, Tensor)]) -> io::Result<u64> {
        with_encoded(entries, |bytes| self.put_raw(id, bytes))
    }

    fn load_raw(&self, id: &str) -> io::Result<Vec<u8>> {
        let raw = self.run_op(|conn| {
            conn.send(&StoreMsg::GetRaw { id: id.to_string() })?;
            match conn.recv()? {
                StoreMsg::Blob { total_len } => Ok(conn.recv_bytes(total_len)?),
                StoreMsg::Err { code, message } => Err(app_err(code, message)),
                other => Err(desync(&other)),
            }
        })?;
        swt_obs::counter!("ckptsrv.client.gets_raw").inc();
        swt_obs::counter!("ckptsrv.client.full_bytes_rx").add(raw.len() as u64);
        Ok(raw)
    }

    fn size_bytes(&self, id: &str) -> Option<u64> {
        self.run_op(|conn| {
            conn.send(&StoreMsg::Exists { id: id.to_string() })?;
            match conn.recv()? {
                StoreMsg::ExistsResp { exists, size } => Ok(exists.then_some(size)),
                StoreMsg::Err { code, message } => Err(app_err(code, message)),
                other => Err(desync(&other)),
            }
        })
        .ok()
        .flatten()
    }

    fn list(&self) -> Vec<String> {
        self.run_op(|conn| {
            conn.send(&StoreMsg::List)?;
            match conn.recv()? {
                StoreMsg::ListResp { ids } => Ok(ids),
                StoreMsg::Err { code, message } => Err(app_err(code, message)),
                other => Err(desync(&other)),
            }
        })
        .unwrap_or_default()
    }

    fn delete(&self, id: &str) -> bool {
        self.run_op(|conn| {
            conn.send(&StoreMsg::Delete { id: id.to_string() })?;
            match conn.recv()? {
                StoreMsg::DeleteResp { existed } => Ok(existed),
                StoreMsg::Err { code, message } => Err(app_err(code, message)),
                other => Err(desync(&other)),
            }
        })
        .unwrap_or(false)
    }

    fn save_raw(&self, id: &str, bytes: &[u8]) -> io::Result<u64> {
        self.put_raw(id, bytes)
    }
}
