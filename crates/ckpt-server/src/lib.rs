//! `swt-ckpt-server`: a networked, multi-tenant checkpoint store.
//!
//! Coordinator, workers and storage can live on different hosts and many
//! concurrent NAS runs can share one long-lived store. A worker fronts its
//! [`RemoteStore`] with the run's lineage cache (`CachedStore`), so a
//! checkpoint it trained never comes back over the wire and a parent trained
//! elsewhere is fetched whole, once; the selective part of a read — which
//! tensors the LP/LCS plan matched — is then served from that resident copy.
//!
//! * [`CkptServer`] — the service: one `DirStore` per bucket (a durable
//!   segment log under the spill root, no resident copy), thread-per-connection
//!   framed TCP, `ckptsrv.*` counters and
//!   an optional live `/status` endpoint. `swt ckpt-server` runs it (the
//!   crate has no binary of its own); the shared secret comes from
//!   `SWT_CKPT_SECRET`, never argv.
//! * [`RemoteStore`] — the client: a `CheckpointStore` with one read on the
//!   wire, `GetRaw`, and retry-and-backoff riding out server restarts.
//! * [`proto`] — the store frame family (tags 0x41..), chunked streaming
//!   for multi-megabyte containers, and total, panic-free decoding.
//! * [`auth`] — shared-secret HMAC-SHA256 session authentication with a
//!   constant-time verifier.
//!
//! Multi-tenancy is by *bucket*: each `NasConfig.namespace` maps to one
//! bucket, one directory under the spill root — tenants cannot observe each
//! other's ids. Consistency is per-id last-write-wins: a `Put` is acked only
//! after the container is appended to the bucket's segment log, so an acked
//! checkpoint survives a server crash and a restarted server serves it.

pub mod auth;
pub mod client;
pub mod proto;
pub mod server;

pub use client::RemoteStore;
pub use proto::{StoreMsg, STORE_PROTOCOL_VERSION};
pub use server::{CkptServer, ServerConfig};
