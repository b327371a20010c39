//! Model checkpoints: a self-describing binary container of named tensors,
//! plus storage backends.
//!
//! The paper checkpoints every scored candidate in HDF5 on a parallel file
//! system (Section VI); providers for weight transfer are read back from
//! those checkpoints. This crate supplies the equivalent: [`encode`] /
//! [`decode`] for a named-tensor container (the "WTC" format), a
//! directory-backed [`DirStore`] standing in for the PFS, and an in-memory
//! [`MemStore`] for tests and simulation. Checkpoint sizes reported by the
//! stores feed Fig. 11.
//!
//! The container is **WTC3**, an indexed layout whose header is a
//! self-checksummed table of contents ([`CheckpointIndex`]): readers recover
//! every tensor's name, shape, offset and payload checksum without touching
//! payload bytes, which is what makes [`CheckpointStore::load_index`] and
//! [`CheckpointStore::load_tensors`] cheap. It is the only version read or
//! written. [`CachedStore`] keeps the lineage's live providers resident in
//! memory: filled by the save that creates one, emptied by the strategy's
//! watermark, capped in bytes.

pub mod cache;
pub mod format;
pub mod index;
pub mod store;

pub use cache::CachedStore;
pub use format::{
    decode, decode_tensors, encode, encoded_len, parse_container, payload_checksum, with_encoded,
    FormatError,
};
pub use index::CheckpointIndex;
pub use store::{prune_except, CheckpointStore, DirStore, MemStore};
