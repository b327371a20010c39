//! `swt-wire`: the byte format of every TCP protocol in the workspace.
//!
//! Three layers, all mechanism — no counters, no protocol versions, no
//! message types (each protocol brings its own and layers observability on
//! top):
//!
//! * **Frames** — `[u32 len LE][u8 tag][payload]`, [`write_frame`] /
//!   [`read_frame`]. `len` counts the payload only; payloads are capped at
//!   [`MAX_FRAME_LEN`] and the cap is checked before any allocation.
//! * **Fields** — the [`Wire`] trait: one `put`/`get` pair per type, here
//!   for the primitives and containers, derived by [`wire_struct!`] for a
//!   struct from its field list (declaration order *is* wire order) and by
//!   [`wire_codes!`] for a fieldless enum from its byte table. Each type's
//!   crate derives its own, beside the declaration.
//! * **Messages** — the [`Message`] trait: a protocol's frame family as one
//!   enum declared through [`wire_messages!`] (tag byte and fields per
//!   variant), moved by the one [`send`] / [`recv`] pair.
//!
//! Decoding is total and strict: any byte sequence yields a value or a
//! typed [`WireError`], never a panic; a payload must be consumed exactly —
//! a strict prefix of a valid payload and a valid payload with trailing
//! bytes are both malformed. Range checks a declaration names run on encode
//! and on decode, so neither side can emit what the other would refuse.

use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on a frame's payload. Large transfers (checkpoints run to
/// megabytes) are chunked into multiple frames by their protocol rather
/// than raising this cap: 1 MiB bounds what a confused or hostile peer can
/// make a receiver allocate per frame.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Everything that can go wrong on the wire. Self-describing (via
/// `Display`) so failures surface as readable run errors, never panics.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure (includes EOF mid-frame).
    Io(io::Error),
    /// Peer announced a frame larger than [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
    /// Unknown frame-type byte.
    UnknownType(u8),
    /// Payload too short / trailing garbage / invalid field encoding.
    Malformed(&'static str),
    /// Handshake version disagreement.
    VersionMismatch { ours: u32, theirs: u32 },
    /// The peer reported an error, or sent a frame that is valid but
    /// impossible in the current protocol state.
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, peer {theirs}")
            }
            WireError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// `Ok` when `ok` holds, otherwise `Malformed(what)` — the shape of every
/// range check beside a declaration.
pub fn ensure(ok: bool, what: &'static str) -> Result<(), WireError> {
    if ok {
        Ok(())
    } else {
        Err(WireError::Malformed(what))
    }
}

/// Write one frame and flush.
pub fn write_frame(w: &mut impl Write, ty: u8, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(payload.len() as u32));
    }
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4] = ty;
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame into `buf` (reused across calls), returning the type
/// byte. EOF before a complete header surfaces as
/// `WireError::Io(UnexpectedEof)`. The length prefix is validated against
/// [`MAX_FRAME_LEN`] *before* any allocation.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<u8, WireError> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if len as usize > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(len));
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(header[4])
}

/// Bounds-checked payload reader that [`Wire::get`] implementations draw
/// from.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Take `n` raw bytes off the front.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(WireError::Malformed("truncated payload"));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Take exactly `N` bytes off the front.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        <[u8; N]>::try_from(self.take(N)?).map_err(|_| WireError::Malformed("truncated payload"))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Every byte not yet consumed (consumes them). For frames whose tail
    /// is raw data — a chunk of checkpoint bytes — rather than fields.
    pub fn rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    /// Decoding must consume the whole payload: trailing bytes mean the
    /// peer speaks a different format.
    pub fn finish(&self) -> Result<(), WireError> {
        ensure(self.pos == self.buf.len(), "trailing bytes")
    }
}

/// A value with one byte encoding: `put` appends it, `get` reads it back.
/// Integers are little-endian; everything else is built from them.
pub trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError>;
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError>;
}

macro_rules! wire_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
                out.extend_from_slice(&self.to_le_bytes());
                Ok(())
            }
            fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
                c.array().map(<$ty>::from_le_bytes)
            }
        }
    )*};
}
wire_int!(u8, u16, u32, u64, i64);

/// Travels as a `u64`, whatever the host's width; a decoded value this host
/// cannot hold is malformed.
impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        (*self as u64).put(out)
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        usize::try_from(u64::get(c)?).map_err(|_| WireError::Malformed("value does not fit usize"))
    }
}

/// A count that must be positive travels as its `u32`; a decoded zero is
/// malformed, so a peer cannot hand over a run with nothing to do.
impl Wire for std::num::NonZeroU32 {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.get().put(out)
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Self::new(u32::get(c)?)
            .ok_or(WireError::Malformed("zero where a positive count is required"))
    }
}

/// Floats travel as their IEEE-754 bit pattern: NaN payloads and signed
/// zeros survive (the trace identity gates compare scores by bits).
impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.to_bits().put(out)
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        u64::get(c).map(f64::from_bits)
    }
}

/// One byte, `0` or `1`; anything else is malformed.
impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        u8::from(*self).put(out)
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        match u8::get(c)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("flag byte is neither 0 nor 1")),
        }
    }
}

/// `[u16 len][utf-8 bytes]`.
impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let len = u16::try_from(self.len()).map_err(|_| WireError::Malformed("string too long"))?;
        len.put(out)?;
        out.extend_from_slice(self.as_bytes());
        Ok(())
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        let len = u16::get(c)? as usize;
        String::from_utf8(c.take(len)?.to_vec()).map_err(|_| WireError::Malformed("invalid utf-8"))
    }
}

/// Fixed byte arrays (nonces, MACs) travel bare.
impl<const N: usize> Wire for [u8; N] {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        out.extend_from_slice(self);
        Ok(())
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        c.array()
    }
}

/// `[bool present][T when present]`.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.is_some().put(out)?;
        self.as_ref().map_or(Ok(()), |v| v.put(out))
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(if bool::get(c)? { Some(T::get(c)?) } else { None })
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.0.put(out)?;
        self.1.put(out)
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok((A::get(c)?, B::get(c)?))
    }
}

/// Elements a decoded list reserves room for up front, whatever count the
/// peer announced; the rest grows as elements actually arrive.
const LIST_PREALLOC: usize = 256;

/// `[u32 count][elements]`. Every element encodes to at least one byte, so
/// a count beyond the bytes left in the payload is refused before a single
/// element is read, and the pre-allocation is clamped: a hostile count
/// cannot make the receiver reserve memory the (length-capped) frame does
/// not back. Tighter per-field caps live in the owning declaration's check.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let n = u32::try_from(self.len()).map_err(|_| WireError::Malformed("list too long"))?;
        n.put(out)?;
        self.iter().try_for_each(|v| v.put(out))
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        let n = u32::get(c)? as usize;
        ensure(n <= c.remaining(), "list count exceeds the payload")?;
        let mut out = Vec::with_capacity(n.min(LIST_PREALLOC));
        for _ in 0..n {
            out.push(T::get(c)?);
        }
        Ok(out)
    }
}

/// The rest of the payload as raw bytes — a slice of a chunked transfer.
/// Only meaningful as a declaration's last field.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Raw(pub Vec<u8>);

impl Wire for Raw {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        out.extend_from_slice(&self.0);
        Ok(())
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Raw(c.rest().to_vec()))
    }
}

/// Declare a plain struct and derive [`Wire`] from its field list: fields
/// travel in declaration order, each through its own `Wire` impl. An
/// optional trailing `check = path;` names a `fn(&Self) -> Result<(),
/// WireError>` holding the struct's range checks; it runs before the first
/// byte is written and after the last is read.
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty ),* $(,)?
        }
        $(check = $check:path;)?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $crate::Wire for $name {
            fn put(&self, out: &mut Vec<u8>) -> Result<(), $crate::WireError> {
                $( $check(self)?; )?
                $( $crate::Wire::put(&self.$field, out)?; )*
                Ok(())
            }
            fn get(c: &mut $crate::Cursor<'_>) -> Result<Self, $crate::WireError> {
                let value = $name { $( $field: $crate::Wire::get(c)?, )* };
                $( $check(&value)?; )?
                Ok(value)
            }
        }
    };
}

/// Derive [`Wire`] for fieldless enums declared elsewhere in the calling
/// crate: `Type: Variant = byte, …;` per enum. Each value travels as its one
/// byte; an unknown byte is `Malformed` naming the type. The `match` is
/// exhaustive, so a new variant fails the build until it has a byte.
#[macro_export]
macro_rules! wire_codes {
    ($($ty:ident: $($variant:ident = $code:literal),+;)+) => {$(
        impl $crate::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) -> Result<(), $crate::WireError> {
                let code: u8 = match self { $($ty::$variant => $code,)+ };
                $crate::Wire::put(&code, out)
            }
            fn get(c: &mut $crate::Cursor<'_>) -> Result<Self, $crate::WireError> {
                match <u8 as $crate::Wire>::get(c)? {
                    $($code => Ok($ty::$variant),)+
                    _ => Err($crate::WireError::Malformed(
                        concat!("unknown ", stringify!($ty), " byte"),
                    )),
                }
            }
        }
    )+};
}

/// One protocol's frame family: each value knows its tag byte and payload
/// encoding, and `decode` is the total inverse.
pub trait Message: Sized {
    /// The frame-type byte of this message.
    fn tag(&self) -> u8;

    /// Append the payload (no frame header).
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError>;

    /// Decode the payload of a frame tagged `tag`. Never panics; rejects
    /// unknown tags, short payloads and trailing bytes.
    fn decode(tag: u8, payload: &[u8]) -> Result<Self, WireError>;

    /// The payload as a fresh buffer.
    fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        self.put(&mut out)?;
        Ok(out)
    }
}

/// Declare a protocol's message enum and derive [`Message`] from it: each
/// variant is `tag => Name { field: Type, … }` (or bare `tag => Name` for
/// an empty payload), fields in wire order. An optional trailing
/// `check = path;` names a `fn(&Self) -> Result<(), WireError>` holding the
/// per-message range checks, run on encode and on decode.
#[macro_export]
macro_rules! wire_messages {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident $({ $( $field:ident : $ty:ty ),* $(,)? })?
            ),* $(,)?
        }
        $(check = $check:path;)?
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant $({ $( $field: $ty ),* })?, )*
        }

        impl $crate::Message for $name {
            fn tag(&self) -> u8 {
                match self {
                    $( $name::$variant { .. } => $tag, )*
                }
            }

            fn put(&self, out: &mut Vec<u8>) -> Result<(), $crate::WireError> {
                $( $check(self)?; )?
                match self {
                    $( $name::$variant $({ $( $field ),* })? => {
                        $($( $crate::Wire::put($field, out)?; )*)?
                    } )*
                }
                Ok(())
            }

            fn decode(tag: u8, payload: &[u8]) -> Result<Self, $crate::WireError> {
                let mut c = $crate::Cursor::new(payload);
                let msg = match tag {
                    $( $tag => $name::$variant $({ $( $field: $crate::Wire::get(&mut c)? ),* })?, )*
                    other => return Err($crate::WireError::UnknownType(other)),
                };
                c.finish()?;
                $( $check(&msg)?; )?
                Ok(msg)
            }
        }
    };
}

/// Encode `msg` and write it as one frame.
pub fn send<M: Message>(w: &mut impl Write, msg: &M) -> Result<(), WireError> {
    write_frame(w, msg.tag(), &msg.encode()?)
}

/// Read one frame into `buf` (reused across calls) and decode it.
pub fn recv<M: Message>(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<M, WireError> {
    let tag = read_frame(r, buf)?;
    M::decode(tag, buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() -> Result<(), WireError> {
        let mut wire = Vec::new();
        write_frame(&mut wire, 0x03, b"hello")?;
        write_frame(&mut wire, 0x07, b"")?;
        let mut r = &wire[..];
        let mut buf = Vec::new();
        let ty = read_frame(&mut r, &mut buf)?;
        assert_eq!((ty, buf.as_slice()), (0x03, &b"hello"[..]));
        let ty = read_frame(&mut r, &mut buf)?;
        assert_eq!((ty, buf.len()), (0x07, 0));
        Ok(())
    }

    #[test]
    fn oversized_frame_is_rejected_not_allocated() {
        // A hostile header announcing 4 GiB must fail fast.
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.push(0x01);
        let mut buf = Vec::new();
        let got = read_frame(&mut &wire[..], &mut buf);
        assert!(matches!(got, Err(WireError::FrameTooLarge(u32::MAX))), "got {got:?}");
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(
            write_frame(&mut Vec::new(), 0x01, &big),
            Err(WireError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let mut wire = Vec::new();
        let _ = write_frame(&mut wire, 0x03, b"hello");
        wire.truncate(wire.len() - 2);
        let mut buf = Vec::new();
        assert!(matches!(read_frame(&mut &wire[..], &mut buf), Err(WireError::Io(_))));
    }

    #[test]
    fn cursor_rejects_truncation_and_trailing_bytes() {
        let mut c = Cursor::new(&[1, 0]);
        assert!(matches!(u32::get(&mut c), Err(WireError::Malformed(_))));
        let mut c = Cursor::new(&[1, 0, 0, 0, 9]);
        let _ = u32::get(&mut c);
        assert!(matches!(c.finish(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn cursor_rest_drains_everything() -> Result<(), WireError> {
        let mut c = Cursor::new(&[7, 1, 2, 3]);
        assert_eq!(u8::get(&mut c)?, 7);
        assert_eq!(c.rest(), &[1, 2, 3]);
        assert_eq!(c.remaining(), 0);
        assert_eq!(c.rest(), &[] as &[u8]);
        c.finish()
    }

    #[test]
    fn string_round_trip_and_invalid_utf8() -> Result<(), WireError> {
        let mut out = Vec::new();
        "namespace_α".to_string().put(&mut out)?;
        let mut c = Cursor::new(&out);
        assert_eq!(String::get(&mut c)?, "namespace_α");
        c.finish()?;
        let bad = [2u8, 0, 0xff, 0xfe];
        assert!(matches!(String::get(&mut Cursor::new(&bad)), Err(WireError::Malformed(_))));
        assert!(matches!("x".repeat(1 << 16).put(&mut out), Err(WireError::Malformed(_))));
        Ok(())
    }

    wire_struct! {
        #[derive(Debug, Clone, PartialEq)]
        struct Probe {
            small: u8,
            wide: Option<(u64, i64)>,
            ratio: f64,
            list: Vec<u16>,
            key: [u8; 4],
        }
        check = Probe::check;
    }

    impl Probe {
        fn check(&self) -> Result<(), WireError> {
            ensure(self.small < 10, "small out of range")
        }
    }

    wire_messages! {
        #[derive(Debug, PartialEq)]
        enum Proto {
            0x01 => Empty,
            0x02 => Full { on: bool, probe: Probe, name: String },
            0x03 => Bytes { bytes: Raw },
        }
    }

    fn probe() -> Probe {
        Probe {
            small: 9,
            wide: Some((u64::MAX, -2)),
            ratio: -0.0,
            list: vec![1, 515],
            key: *b"abcd",
        }
    }

    #[test]
    fn derived_layout_is_declaration_order_little_endian() -> Result<(), WireError> {
        let msg = Proto::Full { on: true, probe: probe(), name: "é".into() };
        let bytes = msg.encode()?;
        let mut want = vec![1u8, 9, 1];
        want.extend_from_slice(&[0xff; 8]);
        want.extend_from_slice(&[0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff]);
        want.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 0x80]); // -0.0 by bits
        want.extend_from_slice(&[2, 0, 0, 0, 1, 0, 3, 2]);
        want.extend_from_slice(b"abcd");
        want.extend_from_slice(&[2, 0, 0xc3, 0xa9]);
        assert_eq!(bytes, want);
        assert_eq!(Proto::decode(msg.tag(), &bytes)?, msg);
        assert_eq!(Proto::Empty.encode()?, Vec::<u8>::new());
        Ok(())
    }

    #[test]
    fn derived_decoders_are_strict_and_checks_run_both_ways() -> Result<(), WireError> {
        let msg = Proto::Full { on: false, probe: probe(), name: "n".into() };
        let bytes = msg.encode()?;
        for cut in 0..bytes.len() {
            assert!(Proto::decode(0x02, &bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(Proto::decode(0x02, &long), Err(WireError::Malformed("trailing bytes"))));
        assert!(matches!(Proto::decode(0x01, &[0]), Err(WireError::Malformed("trailing bytes"))));
        assert!(matches!(Proto::decode(0x09, &[]), Err(WireError::UnknownType(0x09))));
        // Raw swallows whatever is left, so it has no trailing bytes to reject.
        assert_eq!(Proto::decode(0x03, &[5, 6])?, Proto::Bytes { bytes: Raw(vec![5, 6]) });

        // The struct's check refuses the value on encode and on decode.
        let bad = Probe { small: 10, ..probe() };
        assert!(matches!(
            bad.put(&mut Vec::new()),
            Err(WireError::Malformed("small out of range"))
        ));
        let mut patched = bytes.clone();
        patched[1] = 10;
        assert!(matches!(
            Proto::decode(0x02, &patched),
            Err(WireError::Malformed("small out of range"))
        ));
        // Flag bytes other than 0/1 are malformed, for bool and Option alike.
        for at in [0, 2] {
            let mut patched = bytes.clone();
            patched[at] = 2;
            assert!(matches!(Proto::decode(0x02, &patched), Err(WireError::Malformed(_))));
        }
        Ok(())
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mode {
        Off,
        Slow,
        Fast,
    }

    wire_codes! {
        Mode: Off = 0, Slow = 1, Fast = 7;
    }

    #[test]
    fn enum_codes_round_trip_and_unknown_bytes_name_the_type() -> Result<(), WireError> {
        for (mode, code) in [(Mode::Off, 0u8), (Mode::Slow, 1), (Mode::Fast, 7)] {
            let mut out = Vec::new();
            mode.put(&mut out)?;
            assert_eq!(out, [code]);
            assert_eq!(Mode::get(&mut Cursor::new(&out))?, mode);
        }
        for unknown in [2u8, 6, 8, 255] {
            assert!(matches!(
                Mode::get(&mut Cursor::new(&[unknown])),
                Err(WireError::Malformed("unknown Mode byte"))
            ));
        }
        Ok(())
    }

    #[test]
    fn hostile_list_counts_are_refused_before_any_element() {
        // u32::MAX elements announced, none present: refused on the count.
        let got = Vec::<u64>::get(&mut Cursor::new(&u32::MAX.to_le_bytes()));
        assert!(matches!(got, Err(WireError::Malformed("list count exceeds the payload"))));
        // A count the payload's length allows but its bytes do not back:
        // decoding stops at the first starved element, having reserved no
        // more than the clamp.
        let mut short = 300u32.to_le_bytes().to_vec();
        short.extend_from_slice(&[0u8; 300]);
        let got = Vec::<u64>::get(&mut Cursor::new(&short));
        assert!(matches!(got, Err(WireError::Malformed("truncated payload"))));
    }

    #[test]
    fn positive_counts_travel_as_u32_and_refuse_zero() -> Result<(), WireError> {
        use std::num::NonZeroU32;
        let mut out = Vec::new();
        NonZeroU32::MAX.put(&mut out)?;
        assert_eq!(out, u32::MAX.to_le_bytes());
        assert_eq!(<NonZeroU32 as Wire>::get(&mut Cursor::new(&out))?, NonZeroU32::MAX);
        let got = <NonZeroU32 as Wire>::get(&mut Cursor::new(&[0; 4]));
        assert!(matches!(
            got,
            Err(WireError::Malformed("zero where a positive count is required"))
        ));
        Ok(())
    }

    #[test]
    fn send_and_recv_move_whole_messages() -> Result<(), WireError> {
        let mut wire = Vec::new();
        send(&mut wire, &Proto::Empty)?;
        send(&mut wire, &Proto::Bytes { bytes: Raw(vec![1, 2, 3]) })?;
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert_eq!(recv::<Proto>(&mut r, &mut buf)?, Proto::Empty);
        assert_eq!(recv::<Proto>(&mut r, &mut buf)?, Proto::Bytes { bytes: Raw(vec![1, 2, 3]) });
        assert!(matches!(recv::<Proto>(&mut r, &mut buf), Err(WireError::Io(_))));
        Ok(())
    }
}
