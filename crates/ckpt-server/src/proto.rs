//! Store wire protocol: the frame family spoken between [`crate::RemoteStore`]
//! and the checkpoint server.
//!
//! Built on the shared `swt-wire` framing (`[u32 len LE][u8 type][payload]`,
//! 1 MiB cap). Checkpoints run to tens of megabytes — far past the frame
//! cap — so bulk payloads stream as a header frame declaring the total
//! length followed by [`StoreMsg::Chunk`] frames whose bytes must sum to
//! exactly that total. Tags live in the 0x41.. range so a store frame
//! arriving on a dist connection (or vice versa) is an immediate
//! `UnknownType`, never a silent misparse.
//!
//! There is one read, `GetRaw` → [`StoreMsg::Blob`]: the whole container,
//! which the client's lineage cache keeps and serves every later index or
//! tensor read from. Tags 0x46–0x49 carried a per-tensor read until store
//! protocol v2; they are retired, never reused, and decode as `UnknownType`.
//!
//! Every frame is declared once, in [`StoreMsg`]; its byte layout is what
//! `swt-wire` derives from that declaration (DESIGN.md "Wire protocols").
//! Decoding is total: any byte sequence yields either a message or a typed
//! [`WireError`], never a panic.

use swt_wire::{ensure, wire_codes, wire_messages, Raw, WireError};

/// Store protocol version, exchanged in `Hello`/`HelloAck`; the server
/// refuses any other. Bump whenever a store frame's bytes move. Independent
/// of the dist protocol version.
pub const STORE_PROTOCOL_VERSION: u32 = 3;

/// Tag of [`StoreMsg::Chunk`], the one frame the streaming helpers write
/// and read without going through [`StoreMsg`].
pub const CHUNK_TAG: u8 = 0x44;

/// Bytes per streamed [`StoreMsg::Chunk`] — comfortably under the 1 MiB
/// frame cap while keeping per-frame overhead negligible.
pub const CHUNK_LEN: usize = 256 * 1024;

/// Upper bound on any streamed transfer (`Put`, `Blob`): 1 GiB, far above
/// any real checkpoint, small enough to bound what a hostile peer can make
/// either side buffer.
pub const MAX_TRANSFER_LEN: u64 = 1 << 30;

/// Most ids a `ListResp` may carry.
pub const MAX_LIST_IDS: usize = 1 << 16;

/// Longest bucket or checkpoint id token.
pub const MAX_TOKEN_LEN: usize = 160;

/// Application-level error codes carried by [`StoreMsg::Err`]. These are
/// *complete responses* — the connection stays usable — unlike wire-level
/// `WireError`s, which desync and drop it. One byte on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// No checkpoint with the requested id in this bucket.
    NotFound,
    /// Invalid id/bucket token, over-cap request, or malformed container.
    BadRequest,
    /// Server-side failure (disk, etc.).
    Internal,
    /// Hello authentication failed.
    Unauthorized,
}

wire_codes! {
    ErrCode: NotFound = 0, BadRequest = 1, Internal = 2, Unauthorized = 3;
}

wire_messages! {
    /// Every frame of the store protocol: tag byte, then the fields in wire
    /// order.
    #[derive(Debug, PartialEq)]
    pub enum StoreMsg {
        /// client→server: open a session on `bucket`. `mac` is HMAC-SHA256
        /// over the hello transcript (see [`crate::auth::hello_mac`]); with
        /// an empty shared secret the server ignores it (open mode).
        0x41 => Hello { version: u32, bucket: String, nonce: [u8; 16], mac: [u8; 32] },
        /// server→client: session accepted.
        0x42 => HelloAck { version: u32 },
        /// client→server: store `total_len` bytes of an encoded WTC
        /// container under `id`; `Chunk` frames follow.
        0x43 => Put { id: String, total_len: u64 },
        /// both directions: one slice of a streamed transfer. The payload is
        /// the raw bytes, no fields — so every byte string is a valid chunk.
        0x44 => Chunk { bytes: Raw },
        /// server→client: `Put` durably applied (`bytes` written).
        0x45 => PutAck { bytes: u64 },
        /// client→server: request the encoded container — the one read.
        0x4A => GetRaw { id: String },
        /// server→client: `total_len` container bytes follow as `Chunk`s.
        0x4B => Blob { total_len: u64 },
        /// client→server.
        0x4C => Exists { id: String },
        /// server→client. `size` is meaningful only when `exists`.
        0x4D => ExistsResp { exists: bool, size: u64 },
        /// client→server.
        0x4E => List,
        /// server→client.
        0x4F => ListResp { ids: Vec<String> },
        /// client→server.
        0x50 => Delete { id: String },
        /// server→client.
        0x51 => DeleteResp { existed: bool },
        /// server→client: request failed; the session survives.
        0x52 => Err { code: ErrCode, message: String },
    }
    check = StoreMsg::check;
}

impl StoreMsg {
    /// The protocol's caps. Run on every encode and every decode, so an
    /// over-cap declaration is refused before either side acts on it.
    fn check(&self) -> Result<(), WireError> {
        match self {
            StoreMsg::Put { total_len, .. } | StoreMsg::Blob { total_len } => {
                ensure(*total_len <= MAX_TRANSFER_LEN, "transfer length over cap")
            }
            StoreMsg::ListResp { ids } => {
                ensure(ids.len() <= MAX_LIST_IDS, "too many ids in ListResp")
            }
            _ => Ok(()),
        }
    }
}

/// True iff `token` is acceptable as a bucket or checkpoint id: non-empty,
/// bounded, and made of filesystem-safe characters. Validated *before* any
/// store touch — `DirStore` asserts on hostile ids, and a network peer
/// must never be able to reach that assert (or escape the spill root).
pub fn valid_token(token: &str) -> bool {
    !token.is_empty()
        && token.len() <= MAX_TOKEN_LEN
        && !token.starts_with('.')
        && token.chars().all(|ch| ch.is_ascii_alphanumeric() || "._-".contains(ch))
}

/// Stream `bytes` as `Chunk` frames via `send` (one call per frame).
pub fn send_chunks(
    bytes: &[u8],
    mut send: impl FnMut(u8, &[u8]) -> Result<(), WireError>,
) -> Result<(), WireError> {
    for chunk in bytes.chunks(CHUNK_LEN) {
        send(CHUNK_TAG, chunk)?;
    }
    Ok(())
}

/// Collect exactly `total_len` bytes of `Chunk` frames via `recv` (which
/// yields `(frame type, payload)` pairs). A non-chunk frame mid-stream,
/// or chunks overshooting the declared total, is a protocol desync.
pub fn recv_chunks(
    total_len: u64,
    mut recv: impl FnMut(&mut Vec<u8>) -> Result<u8, WireError>,
) -> Result<Vec<u8>, WireError> {
    if total_len > MAX_TRANSFER_LEN {
        return Err(WireError::Malformed("transfer length over cap"));
    }
    let mut out = Vec::with_capacity((total_len as usize).min(CHUNK_LEN * 4));
    let mut buf = Vec::new();
    while (out.len() as u64) < total_len {
        let ty = recv(&mut buf)?;
        if ty != CHUNK_TAG {
            return Err(WireError::Protocol(format!(
                "expected Chunk frame mid-transfer, got type {ty:#04x}"
            )));
        }
        if out.len() as u64 + buf.len() as u64 > total_len {
            return Err(WireError::Protocol("chunks overshoot declared transfer length".into()));
        }
        out.extend_from_slice(&buf);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swt_wire::{Message, Wire};

    /// Overwrite the bytes at `at` with `value`'s encoding — how the hostile
    /// frames below are made, since an over-cap message refuses to encode.
    fn patch<T: Wire>(payload: &mut [u8], at: usize, value: T) -> Result<(), WireError> {
        let mut bytes = Vec::new();
        value.put(&mut bytes)?;
        payload[at..at + bytes.len()].copy_from_slice(&bytes);
        Ok(())
    }

    fn round_trip(msg: StoreMsg) -> Result<(), WireError> {
        let back = StoreMsg::decode(msg.tag(), &msg.encode()?)?;
        if back == msg {
            Ok(())
        } else {
            Err(WireError::Protocol(format!("round trip changed {msg:?} into {back:?}")))
        }
    }

    #[test]
    fn every_message_round_trips() -> Result<(), WireError> {
        round_trip(StoreMsg::Hello {
            version: STORE_PROTOCOL_VERSION,
            bucket: "run_a".into(),
            nonce: [7; 16],
            mac: [9; 32],
        })?;
        round_trip(StoreMsg::HelloAck { version: 1 })?;
        round_trip(StoreMsg::Put { id: "cand_17".into(), total_len: 13_000_000 })?;
        round_trip(StoreMsg::Chunk { bytes: Raw(vec![1, 2, 3]) })?;
        round_trip(StoreMsg::Chunk { bytes: Raw(Vec::new()) })?;
        assert_eq!(StoreMsg::Chunk { bytes: Raw(Vec::new()) }.tag(), CHUNK_TAG);
        round_trip(StoreMsg::PutAck { bytes: 42 })?;
        round_trip(StoreMsg::GetRaw { id: "cand_17".into() })?;
        round_trip(StoreMsg::Blob { total_len: 1 << 24 })?;
        round_trip(StoreMsg::Exists { id: "x".into() })?;
        round_trip(StoreMsg::ExistsResp { exists: true, size: 9 })?;
        round_trip(StoreMsg::List)?;
        round_trip(StoreMsg::ListResp { ids: vec!["a".into(), "b".into()] })?;
        round_trip(StoreMsg::Delete { id: "x".into() })?;
        round_trip(StoreMsg::DeleteResp { existed: false })?;
        round_trip(StoreMsg::Err { code: ErrCode::NotFound, message: "no cand_9".into() })
    }

    #[test]
    fn oversized_declarations_are_rejected() -> Result<(), WireError> {
        let msg = StoreMsg::Put { id: "x".into(), total_len: 1 };
        let mut evil = msg.encode()?;
        let n = evil.len();
        patch(&mut evil, n - 8, MAX_TRANSFER_LEN + 1)?;
        assert!(matches!(StoreMsg::decode(msg.tag(), &evil), Err(WireError::Malformed(_))));
        let over = StoreMsg::Put { id: "x".into(), total_len: MAX_TRANSFER_LEN + 1 };
        assert!(matches!(over.encode(), Err(WireError::Malformed(_))));

        // A ListResp claiming u32::MAX ids with no bytes behind the claim.
        let msg = StoreMsg::ListResp { ids: vec![] };
        let mut evil = msg.encode()?;
        patch(&mut evil, 0, u32::MAX)?;
        assert!(matches!(StoreMsg::decode(msg.tag(), &evil), Err(WireError::Malformed(_))));
        Ok(())
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_typed_errors() -> Result<(), WireError> {
        assert!(matches!(StoreMsg::decode(0x60, &[]), Err(WireError::UnknownType(0x60))));
        // The four tags of v2's per-tensor read are retired, not reused.
        for tag in 0x46..=0x49u8 {
            assert!(
                matches!(StoreMsg::decode(tag, &[]), Err(WireError::UnknownType(t)) if t == tag)
            );
        }
        let msg = StoreMsg::PutAck { bytes: 3 };
        let mut payload = msg.encode()?;
        payload.push(0);
        assert!(matches!(StoreMsg::decode(msg.tag(), &payload), Err(WireError::Malformed(_))));
        Ok(())
    }

    #[test]
    fn token_validation_blocks_traversal_and_empties() {
        assert!(valid_token("cand_17.v2-final"));
        assert!(!valid_token(""));
        assert!(!valid_token("../evil"));
        assert!(!valid_token("a/b"));
        assert!(!valid_token(".hidden"));
        assert!(!valid_token(&"x".repeat(MAX_TOKEN_LEN + 1)));
    }

    #[test]
    fn chunk_streaming_round_trips_and_rejects_overshoot() -> Result<(), WireError> {
        let bytes: Vec<u8> = (0..CHUNK_LEN + 100).map(|i| i as u8).collect();
        let mut frames: Vec<(u8, Vec<u8>)> = Vec::new();
        send_chunks(&bytes, |ty, payload| {
            frames.push((ty, payload.to_vec()));
            Ok(())
        })?;
        assert_eq!(frames.len(), 2);
        let mut iter = frames.iter();
        let got = recv_chunks(bytes.len() as u64, |buf| {
            let (ty, payload) = iter.next().ok_or(WireError::Malformed("ran out of frames"))?;
            buf.clear();
            buf.extend_from_slice(payload);
            Ok(*ty)
        })?;
        assert_eq!(got, bytes);

        // Declared total smaller than the streamed bytes: desync, typed.
        let mut iter = frames.iter();
        let got = recv_chunks(10, |buf| {
            let (ty, payload) = iter.next().ok_or(WireError::Malformed("ran out of frames"))?;
            buf.clear();
            buf.extend_from_slice(payload);
            Ok(*ty)
        });
        assert!(matches!(got, Err(WireError::Protocol(_))));
        Ok(())
    }
}
