//! `swt-ckpt-server`: a networked, multi-tenant selective tensor store.
//!
//! The paper's core result is that weight transfer needs only a small
//! subset of a provider checkpoint's tensors (the LP/LCS overlap, ~2% of
//! payload bytes). On disk that subset is served by `DirStore`'s
//! seek-and-read path; this crate extends the same economics across the
//! network, so coordinator, workers and storage can live on different
//! hosts and many concurrent NAS runs can share one long-lived store:
//!
//! * [`CkptServer`] — the service: per-bucket `CachedStore<DirStore>`
//!   slices (byte-budgeted RAM over a durable WTC3 spill directory),
//!   thread-per-connection framed TCP, `ckptsrv.*` counters and an
//!   optional live `/status` endpoint.
//! * [`RemoteStore`] — the client: a `CheckpointStore` whose selective
//!   reads (`load_index`, `load_tensors`) translate to `GetIndex` /
//!   `GetTensors` frames, moving only the transfer subset over the wire,
//!   with retry-and-backoff riding out server restarts.
//! * [`proto`] — the store frame family (tags 0x41..), chunked streaming
//!   for multi-megabyte containers, and total, panic-free decoding.
//! * [`auth`] — shared-secret HMAC-SHA256 session authentication with a
//!   constant-time verifier.
//!
//! Multi-tenancy is by *bucket*: each `NasConfig.namespace` maps to one
//! bucket, one directory under the spill root, one LRU slice — tenants
//! cannot observe each other's ids. Consistency is per-id last-write-wins
//! with write-through durability: a `Put` is acked only after the container
//! bytes are renamed into the spill directory, so an acked checkpoint
//! survives a server crash and a restarted server serves it from disk.

pub mod auth;
pub mod client;
pub mod proto;
pub mod server;

pub use client::RemoteStore;
pub use proto::{StoreMsg, STORE_PROTOCOL_VERSION};
pub use server::{CkptServer, ServerConfig};
