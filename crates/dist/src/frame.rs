//! Frame layer of the dist wire protocol.
//!
//! The mechanism — `[u32 len LE][u8 type][payload]` framing, the [`Wire`]
//! field codec, the [`Message`] trait and the typed [`WireError`] — lives in
//! the shared `swt-wire` crate (the checkpoint server speaks the same
//! framing). This module re-exports it and layers the dist-specific pieces
//! on top: the protocol version and the `dist.frames_tx` / `dist.frames_rx`
//! counters.

use crate::wire::Msg;
use std::io::{Read, Write};

pub use swt_wire::{ensure, Cursor, Message, Wire, WireError, MAX_FRAME_LEN};

/// Protocol version exchanged in the handshake. Any change that moves a
/// byte of any frame bumps it; coordinator and worker refuse a peer whose
/// version differs, so there is no prefix compatibility to maintain.
pub const PROTOCOL_VERSION: u32 = 15;

/// Send one message as one frame. Counts `dist.frames_tx`.
pub fn send(w: &mut impl Write, msg: &Msg) -> Result<(), WireError> {
    swt_wire::send(w, msg)?;
    swt_obs::counter!("dist.frames_tx").inc();
    Ok(())
}

/// Receive one frame into `buf` (reused across calls) and decode it. Counts
/// `dist.frames_rx`. EOF before a complete header surfaces as
/// `WireError::Io(UnexpectedEof)`.
pub fn recv(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<Msg, WireError> {
    let msg = swt_wire::recv(r, buf)?;
    swt_obs::counter!("dist.frames_rx").inc();
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_counters_advance() -> Result<(), WireError> {
        swt_obs::enable(); // counter mutators are gated on enabled()
        let tx0 = swt_obs::counter!("dist.frames_tx").get();
        let rx0 = swt_obs::counter!("dist.frames_rx").get();
        let mut wire = Vec::new();
        send(&mut wire, &Msg::Ping { nonce: 1 })?;
        let mut buf = Vec::new();
        assert_eq!(recv(&mut &wire[..], &mut buf)?, Msg::Ping { nonce: 1 });
        assert!(swt_obs::counter!("dist.frames_tx").get() > tx0);
        assert!(swt_obs::counter!("dist.frames_rx").get() > rx0);
        Ok(())
    }
}
