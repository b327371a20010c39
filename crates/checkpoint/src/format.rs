//! The "WTC" (weight-transfer checkpoint) container.
//!
//! One container version exists, **WTC3**: a table-of-contents header
//! followed by the raw payloads, so a reader can recover every tensor's
//! name/shape and verify integrity *without touching payload bytes* (all
//! integers little-endian):
//!
//! ```text
//! magic    [u8; 4] = b"WTC3"
//! toc_len  u32                     byte length of the TOC block below
//! count    u32
//! repeat count times:
//!   name_len u32, name [u8; name_len] (UTF-8)
//!   rank     u32, dims [u64; rank]
//!   offset   u64                   absolute payload offset in the buffer
//!   checksum u64                   payload_checksum of the payload bytes
//! toc_crc  u64                     FNV-1a over everything before it
//! payloads [f32; ...]              concatenated in TOC order
//! ```
//!
//! Payload offsets are redundant with the shape data; the decoder verifies
//! they match the computed layout, so a corrupted header cannot alias two
//! tensors onto one payload. Any other magic — those of retired versions
//! included — is [`FormatError::BadMagic`].
//!
//! The format is the role HDF5 plays in the paper: a portable container of
//! named, shaped weight tensors. Checksums catch truncation and bit rot —
//! important because NAS reads thousands of provider checkpoints — and every
//! payload byte is hashed on every save and every read, so the payload
//! checksum is word-parallel ([`payload_checksum`]) and computed in the same
//! loop that converts between `f32`s and bytes: a checkpoint's bytes are
//! passed over once in each direction.

use crate::index::{CheckpointIndex, TensorMeta};
use std::cell::RefCell;
use std::fmt;
use swt_tensor::{with_thread_workspace, Tensor, Workspace};

const MAGIC: &[u8; 4] = b"WTC3";

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Wrong magic bytes — not a WTC file, or one of a retired version.
    BadMagic,
    /// The buffer ended before the declared content.
    Truncated,
    /// A tensor name was not valid UTF-8.
    BadName,
    /// Checksum mismatch: the payload was corrupted.
    Corrupt,
    /// Declared sizes overflow addressable memory.
    Oversized,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "not a WTC3 checkpoint (bad magic)"),
            FormatError::Truncated => write!(f, "checkpoint truncated"),
            FormatError::BadName => write!(f, "tensor name is not valid UTF-8"),
            FormatError::Corrupt => write!(f, "checksum mismatch (corrupted checkpoint)"),
            FormatError::Oversized => write!(f, "declared tensor size is implausibly large"),
        }
    }
}

impl std::error::Error for FormatError {}

/// Stores report a damaged container as `InvalidData`, so `?` carries a
/// [`FormatError`] out of any `io::Result` function.
impl From<FormatError> for std::io::Error {
    fn from(e: FormatError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Byte-serial FNV-1a. For the TOC header (a few hundred bytes) and cache
/// shard ids only — payloads go through [`payload_checksum`].
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

// --- payload checksum ---------------------------------------------------------

const LANE_SEEDS: [u64; 4] =
    [0xcbf2_9ce4_8422_2325, 0xbf58_476d_1ce4_e5b9, 0x94d0_49bb_1331_11eb, 0x2545_f491_4f6c_dd1d];
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The one mixing step of the payload checksum: `rotl((h ^ x) · MUL, 31)`.
/// A bijection of `h` for fixed `x` and of `x` for fixed `h`, so a change to
/// a single word can never be absorbed. The rotate carries the product's
/// high bits back down; without it a flip of bit 63 stays in bit 63 and two
/// of them cancel.
#[inline(always)]
fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(LANE_MUL).rotate_left(31)
}

/// Running state of [`payload_checksum`]: four independent lanes, so the
/// multiply chains of consecutive words overlap instead of serialising.
struct Lanes([u64; 4]);

impl Lanes {
    fn new() -> Self {
        Lanes(LANE_SEEDS)
    }

    /// One 32-byte block: word `i` (little-endian `u64`) goes to lane `i`.
    #[inline(always)]
    fn block(&mut self, words: [u64; 4]) {
        for (lane, w) in self.0.iter_mut().zip(words) {
            *lane = mix(*lane, w);
        }
    }

    /// The bytes after the last whole block, one at a time into lane 0.
    fn tail(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0[0] = mix(self.0[0], u64::from(b));
        }
    }

    /// Fold the byte length and lanes 0..4, in that order, through [`mix`].
    fn finish(self, len: usize) -> u64 {
        self.0.into_iter().fold(len as u64, mix)
    }
}

fn le_words(block: &[u8]) -> [u64; 4] {
    std::array::from_fn(|i| u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().unwrap()))
}

/// The checksum the TOC records for each tensor payload, defined on the
/// payload's little-endian byte image (so it is the same on every host):
/// whole 32-byte blocks feed four lanes a `u64` each, the remaining bytes
/// feed lane 0 one at a time, and the length and the lanes are folded
/// together — every step through the same bijective `mix` (DESIGN.md §9
/// has the constants). The codec never calls this: [`encode`] and the
/// decoders compute the same value inside their conversion loops. It is the
/// definition those loops are tested against.
///
/// ```
/// assert_eq!(swt_checkpoint::payload_checksum(b""), 0xe6e2_123d_dc85_b5ee);
/// ```
pub fn payload_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = Lanes::new();
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        lanes.block(le_words(block));
    }
    lanes.tail(blocks.remainder());
    lanes.finish(bytes.len())
}

/// Write `src` to `dst` as little-endian f32 bytes and return their
/// [`payload_checksum`], in one loop. `dst.len()` must be `4 * src.len()`.
fn f32s_to_payload(src: &[f32], dst: &mut [u8]) -> u64 {
    assert_eq!(dst.len(), 4 * src.len());
    let mut lanes = Lanes::new();
    let mut vals = src.chunks_exact(8);
    let mut blocks = dst.chunks_exact_mut(32);
    for (v, block) in (&mut vals).zip(&mut blocks) {
        let words: [u64; 4] = std::array::from_fn(|i| {
            u64::from(v[2 * i].to_bits()) | u64::from(v[2 * i + 1].to_bits()) << 32
        });
        for (out, w) in block.chunks_exact_mut(8).zip(words) {
            out.copy_from_slice(&w.to_le_bytes());
        }
        lanes.block(words);
    }
    let tail = blocks.into_remainder();
    for (out, v) in tail.chunks_exact_mut(4).zip(vals.remainder()) {
        out.copy_from_slice(&v.to_le_bytes());
    }
    lanes.tail(tail);
    lanes.finish(dst.len())
}

/// Fill `dst` from little-endian f32 bytes and return the bytes'
/// [`payload_checksum`], in one loop. `src.len()` must be `4 * dst.len()`.
fn payload_to_f32s(src: &[u8], dst: &mut [f32]) -> u64 {
    assert_eq!(src.len(), 4 * dst.len());
    let mut lanes = Lanes::new();
    let mut blocks = src.chunks_exact(32);
    let mut vals = dst.chunks_exact_mut(8);
    for (block, v) in (&mut blocks).zip(&mut vals) {
        let words = le_words(block);
        for (pair, w) in v.chunks_exact_mut(2).zip(words) {
            pair[0] = f32::from_bits(w as u32);
            pair[1] = f32::from_bits((w >> 32) as u32);
        }
        lanes.block(words);
    }
    let tail = blocks.remainder();
    for (v, bytes) in vals.into_remainder().iter_mut().zip(tail.chunks_exact(4)) {
        *v = f32::from_le_bytes(bytes.try_into().unwrap());
    }
    lanes.tail(tail);
    lanes.finish(src.len())
}

thread_local! {
    /// One byte buffer per thread for the codec's two bulk moves — the
    /// container [`with_encoded`] builds and the container a file read
    /// lands in — so neither allocates once it has seen the thread's largest
    /// checkpoint. Never shrunk; never held across calls.
    static THREAD_BYTES: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with this thread's byte buffer (contents unspecified). `f` must
/// not re-enter `with_thread_bytes` or [`with_encoded`].
pub(crate) fn with_thread_bytes<R>(f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    THREAD_BYTES.with(|buf| f(&mut buf.borrow_mut()))
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        if n > self.buf.len() - self.pos {
            return Err(FormatError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// One `name_len/name/rank/dims` tensor descriptor.
    fn descriptor(&mut self) -> Result<(String, Vec<usize>, usize), FormatError> {
        let name_len = self.u32()? as usize;
        let name = std::str::from_utf8(self.take(name_len)?)
            .map_err(|_| FormatError::BadName)?
            .to_string();
        let rank = self.u32()? as usize;
        let mut raw_dims = Vec::with_capacity(rank.min(16));
        for _ in 0..rank {
            raw_dims.push(self.u64()?);
        }
        let (dims, numel) = checked_dims(&raw_dims)?;
        Ok((name, dims, numel))
    }
}

/// Per-tensor sanity cap: no single tensor in this repository is remotely
/// close to 1 GiB; a declared size beyond that indicates corruption.
const MAX_TENSOR_BYTES: u64 = 1 << 30;

/// Validate declared dimensions with one overflow-checked accumulator (the
/// same value gates the size cap *and* becomes the element count, so a
/// crafted header cannot pass the cap in `u64` and then overflow a 32-bit
/// `usize` product).
fn checked_dims(raw: &[u64]) -> Result<(Vec<usize>, usize), FormatError> {
    let mut numel: u64 = 1;
    for &d in raw {
        // `max(1)` keeps zero dims from masking an overflowing neighbour.
        numel = numel.checked_mul(d.max(1)).ok_or(FormatError::Oversized)?;
    }
    if numel.saturating_mul(4) > MAX_TENSOR_BYTES {
        return Err(FormatError::Oversized);
    }
    let numel = if raw.contains(&0) { 0 } else { numel as usize };
    let dims = raw
        .iter()
        .map(|&d| usize::try_from(d).map_err(|_| FormatError::Oversized))
        .collect::<Result<Vec<usize>, _>>()?;
    Ok((dims, numel))
}

// --- encoding ---------------------------------------------------------------

/// Byte length of the TOC block (`count` through the last entry).
fn toc_len(entries: &[(String, Tensor)]) -> usize {
    4 + entries.iter().map(|(n, t)| 24 + n.len() + 8 * t.shape().rank()).sum::<usize>()
}

/// Exact encoded size of a checkpoint, computed without encoding.
pub fn encoded_len(entries: &[(String, Tensor)]) -> u64 {
    let payload: u64 = entries.iter().map(|(_, t)| 4 * t.numel() as u64).sum();
    8 + toc_len(entries) as u64 + 8 + payload
}

/// Serialise named tensors into a freshly allocated WTC3 buffer. Callers
/// that only need to look at the bytes use [`with_encoded`].
///
/// ```
/// use swt_checkpoint::{encode, decode};
/// use swt_tensor::Tensor;
/// let entries = vec![("layer/kernel".to_string(), Tensor::ones([2, 3]))];
/// let decoded = decode(&encode(&entries)).unwrap();
/// assert_eq!(decoded[0].0, "layer/kernel");
/// assert!(decoded[0].1.approx_eq(&entries[0].1, 0.0));
/// ```
pub fn encode(entries: &[(String, Tensor)]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_into(entries, &mut buf);
    buf
}

/// Serialise named tensors into this thread's reused buffer and lend the
/// bytes to `f` — what a store's `save` does, so that a steady stream of
/// checkpoints allocates nothing. `f` must not re-enter `with_encoded`.
pub fn with_encoded<R>(entries: &[(String, Tensor)], f: impl FnOnce(&[u8]) -> R) -> R {
    with_thread_bytes(|buf| {
        encode_into(entries, buf);
        f(buf)
    })
}

/// Overwrite `buf` with the container. Each payload is converted and
/// checksummed in one loop, straight into its final place; only the header
/// (a few hundred bytes) is gone over twice, for its CRC.
pub(crate) fn encode_into(entries: &[(String, Tensor)], buf: &mut Vec<u8>) {
    let toc_len = toc_len(entries);
    let header_len = 8 + toc_len + 8;
    // No `clear()`: the bytes a previous container left behind are all
    // overwritten below, so only growth costs a fill.
    buf.resize(encoded_len(entries) as usize, 0);
    let (header, mut payloads) = buf.split_at_mut(header_len);
    let mut pos = 0;
    let mut put = |bytes: &[u8]| {
        header[pos..pos + bytes.len()].copy_from_slice(bytes);
        pos += bytes.len();
    };
    put(MAGIC);
    put(&(toc_len as u32).to_le_bytes());
    put(&(entries.len() as u32).to_le_bytes());
    let mut offset = header_len as u64;
    for (name, tensor) in entries {
        put(&(name.len() as u32).to_le_bytes());
        put(name.as_bytes());
        put(&(tensor.shape().rank() as u32).to_le_bytes());
        for &d in tensor.shape().dims() {
            put(&(d as u64).to_le_bytes());
        }
        let (payload, rest) = std::mem::take(&mut payloads).split_at_mut(4 * tensor.numel());
        payloads = rest;
        put(&offset.to_le_bytes());
        put(&f32s_to_payload(tensor.data(), payload).to_le_bytes());
        offset += payload.len() as u64;
    }
    debug_assert_eq!(pos, 8 + toc_len);
    let crc = fnv1a(&header[..8 + toc_len]);
    header[8 + toc_len..].copy_from_slice(&crc.to_le_bytes());
}

// --- index parsing ----------------------------------------------------------

/// Byte length of the header (magic through `toc_crc`) that a container's
/// first 8 bytes declare.
fn header_len(head: &[u8]) -> Result<u64, FormatError> {
    let mut r = Reader { buf: head, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(FormatError::BadMagic);
    }
    Ok(8 + u64::from(r.u32()?) + 8)
}

/// Parse a checkpoint's table of contents. `buf` only needs to hold the
/// header (magic through `toc_crc`). A caller that holds the whole container
/// uses [`parse_container`].
pub fn parse_index(buf: &[u8]) -> Result<CheckpointIndex, FormatError> {
    let header_len = header_len(buf)?;
    if (buf.len() as u64) < header_len {
        return Err(FormatError::Truncated);
    }
    let header_end = header_len as usize - 8;
    let toc_len = header_end - 8;
    let (header, crc) = buf[..header_len as usize].split_at(header_end);
    if fnv1a(header) != u64::from_le_bytes(crc.try_into().unwrap()) {
        return Err(FormatError::Corrupt);
    }
    let mut r = Reader { buf: header, pos: 8 };
    let count = r.u32()? as usize;
    // Each entry occupies at least 24 TOC bytes; a larger count is a lie.
    if count > toc_len / 24 {
        return Err(FormatError::Corrupt);
    }
    let mut tensors = Vec::with_capacity(count);
    let mut expected_offset = (header_end + 8) as u64;
    for _ in 0..count {
        let (name, dims, numel) = r.descriptor()?;
        let offset = r.u64()?;
        let checksum = r.u64()?;
        // Offsets are implied by the shapes; a mismatch means the header
        // was tampered with (e.g. two entries aliasing one payload).
        if offset != expected_offset {
            return Err(FormatError::Corrupt);
        }
        expected_offset += 4 * numel as u64;
        tensors.push(TensorMeta { name, dims, offset, checksum });
    }
    if r.pos != header_end {
        return Err(FormatError::Corrupt);
    }
    Ok(CheckpointIndex::new(tensors, expected_offset))
}

/// The index of a *whole* container: [`parse_index`], plus the check that
/// `buf` is exactly as long as its index declares (a torn write is shorter,
/// trailing junk is longer). Every reader that holds all the bytes starts
/// here.
pub fn parse_container(buf: &[u8]) -> Result<CheckpointIndex, FormatError> {
    let index = parse_index(buf)?;
    index.check_len(buf.len() as u64)?;
    Ok(index)
}

// --- decoding ---------------------------------------------------------------

/// Convert one tensor's raw payload bytes (already isolated from the whole
/// container, and checked against the row's dims here) into a tensor,
/// verifying the per-tensor checksum in the same pass. The f32 buffer comes
/// from `ws`, so steady-state decoding reuses storage instead of allocating.
fn tensor_from_payload(
    meta: &TensorMeta,
    raw: &[u8],
    ws: &mut Workspace,
) -> Result<Tensor, FormatError> {
    // `meta` may come off a socket: its element count is only trusted once
    // it agrees, without overflowing, with the bytes that actually arrived.
    let numel = meta.dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
    if numel.and_then(|n| n.checked_mul(4)) != Some(raw.len()) {
        return Err(FormatError::Truncated);
    }
    let mut data = ws.take(raw.len() / 4);
    if payload_to_f32s(raw, &mut data) != meta.checksum {
        ws.give(data);
        return Err(FormatError::Corrupt);
    }
    Ok(Tensor::from_vec(meta.dims.clone(), data))
}

fn extract(buf: &[u8], meta: &TensorMeta, ws: &mut Workspace) -> Result<Tensor, FormatError> {
    let start = usize::try_from(meta.offset).map_err(|_| FormatError::Oversized)?;
    let len = 4 * meta.numel();
    if start.checked_add(len).is_none_or(|end| end > buf.len()) {
        return Err(FormatError::Truncated);
    }
    tensor_from_payload(meta, &buf[start..start + len], ws)
}

/// Deserialise a full WTC3 buffer.
pub fn decode(buf: &[u8]) -> Result<Vec<(String, Tensor)>, FormatError> {
    let index = parse_container(buf)?;
    with_thread_workspace(|ws| {
        index.tensors().iter().map(|m| Ok((m.name.clone(), extract(buf, m, ws)?))).collect()
    })
}

/// Deserialise only the named tensors from a container, against its index
/// as [`parse_container`] returned it: parse once, then plan from the index
/// and decode here. Names absent from the checkpoint are silently omitted
/// (mirroring `CheckpointStore::load_tensors`); payload bytes of unrequested
/// tensors are never touched. Each requested payload is bounds-checked
/// against `buf` and verified against its checksum.
pub fn decode_tensors(
    buf: &[u8],
    index: &CheckpointIndex,
    names: &[String],
) -> Result<Vec<(String, Tensor)>, FormatError> {
    let want: std::collections::HashSet<&str> = names.iter().map(String::as_str).collect();
    with_thread_workspace(|ws| {
        index
            .tensors()
            .iter()
            .filter(|m| want.contains(m.name.as_str()))
            .map(|m| Ok((m.name.clone(), extract(buf, m, ws)?)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swt_tensor::Rng;

    fn sample_entries() -> Vec<(String, Tensor)> {
        let mut rng = Rng::seed(1);
        vec![
            ("n1_conv2d/kernel".into(), Tensor::rand_normal([3, 3, 1, 4], 0.0, 1.0, &mut rng)),
            ("n1_conv2d/bias".into(), Tensor::zeros([4])),
            ("n5_dense/kernel".into(), Tensor::rand_normal([36, 10], 0.0, 1.0, &mut rng)),
            ("scalarish".into(), Tensor::from_vec([1], vec![42.0])),
        ]
    }

    fn assert_same(a: &[(String, Tensor)], b: &[(String, Tensor)]) {
        assert_eq!(a.len(), b.len());
        for ((n1, t1), (n2, t2)) in a.iter().zip(b) {
            assert_eq!(n1, n2);
            assert_eq!(t1.shape(), t2.shape());
            assert!(t1.approx_eq(t2, 0.0));
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let entries = sample_entries();
        assert_same(&entries, &decode(&encode(&entries)).unwrap());
        // The lent thread buffer holds the same bytes, also when it last
        // held something longer or shorter.
        let bytes = encode(&entries);
        for other in [Vec::new(), sample_entries()[..2].to_vec(), entries.clone()] {
            with_encoded(&other, |b| assert_eq!(b, encode(&other)));
            with_encoded(&entries, |b| assert_eq!(b, bytes));
        }
    }

    #[test]
    fn encoded_len_is_exact() {
        for entries in [sample_entries(), Vec::new()] {
            assert_eq!(encode(&entries).len() as u64, encoded_len(&entries));
        }
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let decoded = decode(&encode(&[])).unwrap();
        assert!(decoded.is_empty());
    }

    /// Known answers, computed independently from the definition in the
    /// module docs (DESIGN.md §9): they pin seeds, multiplier, rotation,
    /// lane assignment, tail and fold order.
    #[test]
    fn checksum_known_answers() {
        let ramp = |n: usize| (0..n).map(|i| i as u8).collect::<Vec<u8>>();
        let cases: [(Vec<u8>, u64); 7] = [
            (Vec::new(), 0xe6e2_123d_dc85_b5ee),
            (b"a".to_vec(), 0xddde_32ba_665d_0900),
            (b"WTC3".to_vec(), 0xba80_bbbe_4cfc_02ba),
            (ramp(31), 0x49fc_dbc3_9ac6_9928),
            (ramp(32), 0xc573_1ee9_5014_16c3),
            (ramp(33), 0xb758_b7f8_73ef_3725),
            ((0..100).map(|i| (i * 7 % 256) as u8).collect(), 0xe620_2e8b_5a5a_f51f),
        ];
        for (bytes, want) in cases {
            assert_eq!(payload_checksum(&bytes), want, "{} bytes", bytes.len());
        }
        let floats = [1.0f32, -2.5, 3.25, 0.0, -0.0, 1e-20, 7.0, 8.0, 9.5];
        let mut image = [0u8; 36];
        assert_eq!(f32s_to_payload(&floats, &mut image), 0xed6d_2c30_81cb_1ff7);
    }

    /// The codec's two fused loops compute [`payload_checksum`] of the
    /// little-endian image, at every length around the 32-byte block edge.
    #[test]
    fn checksum_forms_agree_around_the_block_edge() {
        let mut rng = Rng::seed(7);
        let floats: Vec<f32> = Tensor::rand_normal([67], 0.0, 1.0, &mut rng).into_vec();
        let image: Vec<u8> = floats.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut seen = std::collections::HashSet::new();
        for n in 0..=67 {
            assert!(seen.insert(payload_checksum(&image[..n])), "{n}-byte prefix collides");
            let mut bytes = vec![0xAAu8; 4 * n];
            let written = f32s_to_payload(&floats[..n], &mut bytes);
            assert_eq!(bytes, image[..4 * n], "{n} words: byte image");
            assert_eq!(written, payload_checksum(&bytes), "{n} words: encode loop");
            let mut back = vec![f32::NAN; n];
            assert_eq!(payload_to_f32s(&bytes, &mut back), written, "{n} words: decode loop");
            assert!(back.iter().zip(&floats).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn two_top_bit_flips_do_not_cancel() {
        // Without the rotate in `mix`, a flip of bit 63 of a word moves only
        // bit 63 of its lane, and any two such flips — two f32 sign bits —
        // cancel, in one lane or across lanes.
        let clean = vec![0u8; 128];
        let sum = payload_checksum(&clean);
        for a in (7..128).step_by(8) {
            for b in (a + 8..128).step_by(8) {
                let mut dirty = clean.clone();
                dirty[a] ^= 0x80;
                dirty[b] ^= 0x80;
                assert_ne!(payload_checksum(&dirty), sum, "flips at {a} and {b} cancel");
            }
        }
    }

    /// The container's bytes, pinned: a change to the layout, the header CRC
    /// or the payload checksum moves them, and then `MAGIC` must move too.
    #[test]
    fn golden_container_bytes() {
        let entries = vec![
            ("w".to_string(), Tensor::from_vec([3, 3], (1..=9).map(|i| i as f32 * 0.5).collect())),
            ("b".to_string(), Tensor::from_vec([1], vec![-1.0])),
        ];
        let golden = concat!(
            "575443334e0000000200000001000000770200000003000000000000000300000000000000",
            "5e000000000000007debfbe24a7decb2010000006201000000010000000000000082000000",
            "000000000fc7734a69e9505866fe2e5e9fdafa130000003f0000803f0000c03f0000004000",
            "00204000004040000060400000804000009040000080bf"
        );
        assert_eq!(hex(&encode(&entries)), golden);
    }

    #[test]
    fn bad_magic_detected() {
        // The retired magics are ordinary bad magics: a typed error on
        // every entry point, whatever follows them.
        for magic in [b"XTC3", b"WTC1", b"WTC2"] {
            let mut buf = encode(&sample_entries());
            let index = parse_index(&buf).unwrap();
            buf[..4].copy_from_slice(magic);
            assert_eq!(decode(&buf).unwrap_err(), FormatError::BadMagic);
            assert_eq!(parse_index(&buf).unwrap_err(), FormatError::BadMagic);
            assert_eq!(parse_index(&buf[..4]).unwrap_err(), FormatError::BadMagic);
            // The payloads are intact, and a caller-supplied index is the
            // caller's business.
            assert!(decode_tensors(&buf, &index, &["scalarish".to_string()]).is_ok());
        }
    }

    /// Every strict prefix, in both forms a container reaches a reader:
    /// whole (`decode`) and through a held index (`decode_tensors`).
    #[test]
    fn truncation_detected_in_both_versions() {
        let entries = sample_entries();
        let buf = encode(&entries);
        let index = parse_index(&buf).unwrap();
        let names: Vec<String> = entries.iter().map(|(n, _)| n.clone()).collect();
        for cut in 0..buf.len() {
            assert!(decode(&buf[..cut]).is_err(), "decode accepted a cut at {cut}");
            assert_eq!(
                decode_tensors(&buf[..cut], &index, &names).unwrap_err(),
                FormatError::Truncated,
                "decode_tensors, cut at {cut}"
            );
        }
        let mut extended = buf.clone();
        extended.push(0);
        assert_eq!(decode(&extended).unwrap_err(), FormatError::Corrupt, "trailing junk");
    }

    #[test]
    fn bit_flip_detected_everywhere() {
        // Every single-bit flip of the container — magic, TOC, TOC CRC and
        // every payload bit — is caught by the magic check, the header CRC
        // or a per-tensor checksum.
        let entries = sample_entries();
        let clean = encode(&entries);
        let index = parse_index(&clean).unwrap();
        let names: Vec<String> = entries.iter().map(|(n, _)| n.clone()).collect();
        let first_payload = (clean.len() as u64 - index.payload_bytes()) as usize;
        let mut buf = clean.clone();
        for pos in 0..clean.len() {
            for bit in 0..8 {
                buf[pos] ^= 1 << bit;
                assert!(decode(&buf).is_err(), "flip of bit {bit} at {pos} accepted");
                if pos >= first_payload {
                    assert_eq!(
                        decode_tensors(&buf, &index, &names).unwrap_err(),
                        FormatError::Corrupt,
                        "flip of bit {bit} at {pos}"
                    );
                }
                buf[pos] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn index_reads_from_header_prefix_alone() {
        let entries = sample_entries();
        let buf = encode(&entries);
        let full = parse_index(&buf).unwrap();
        assert_eq!(full.len(), entries.len());
        assert_eq!(full.encoded_len(), buf.len() as u64);
        // The header alone (no payload bytes at all) yields the same index.
        let header_len = (buf.len() as u64 - full.payload_bytes()) as usize;
        let from_prefix = parse_index(&buf[..header_len]).unwrap();
        assert_eq!(full, from_prefix);
        for (meta, (name, tensor)) in full.tensors().iter().zip(&entries) {
            assert_eq!(&meta.name, name);
            assert_eq!(meta.shape(), *tensor.shape());
            assert!(meta.offset >= header_len as u64);
        }
    }

    #[test]
    fn partial_decode_touches_only_requested_tensors() {
        let entries = sample_entries();
        let buf = encode(&entries);
        let index = parse_index(&buf).unwrap();
        let names = vec!["n5_dense/kernel".to_string(), "missing".to_string()];
        let got = decode_tensors(&buf, &index, &names).unwrap();
        assert_eq!(got.len(), 1, "missing names are omitted, not errors");
        assert_eq!(got[0].0, "n5_dense/kernel");
        assert!(got[0].1.approx_eq(&entries[2].1, 0.0));
        // Corrupt an *unrequested* payload: the partial read must not care.
        let mut dirty = buf.clone();
        let first = index.get("n1_conv2d/kernel").unwrap();
        dirty[first.offset as usize] ^= 0xFF;
        assert!(decode_tensors(&dirty, &index, &names).is_ok());
        // ... but a corrupt *requested* payload is caught.
        let dense = index.get("n5_dense/kernel").unwrap();
        let mut dirty = buf;
        dirty[dense.offset as usize] ^= 0xFF;
        assert_eq!(decode_tensors(&dirty, &index, &names).unwrap_err(), FormatError::Corrupt);
    }

    #[test]
    fn payload_from_a_socket_is_checked_against_its_row() {
        // `tensor_from_payload` takes its meta from a network peer: dims
        // whose product overflows, or disagrees with the bytes that came,
        // are a typed error before anything is sized from them.
        let mut ws = Workspace::new();
        let meta = |dims: Vec<usize>| TensorMeta { name: "x".into(), dims, offset: 0, checksum: 0 };
        for dims in [vec![usize::MAX, 4], vec![1 << 62, 2], vec![3], vec![1, 1]] {
            let err = tensor_from_payload(&meta(dims), &[0u8; 8], &mut ws).unwrap_err();
            assert_eq!(err, FormatError::Truncated);
        }
        assert_eq!(
            tensor_from_payload(&meta(vec![2]), &[0u8; 8], &mut ws).unwrap_err(),
            FormatError::Corrupt
        );
        assert_eq!(ws.pooled(), 1, "the rejected buffer went back to the arena");
    }

    #[test]
    fn oversized_dims_rejected_without_overflow() {
        // A crafted header declaring astronomically large dims must yield
        // Oversized via the checked accumulator, not overflow.
        for dims in [vec![u64::MAX, u64::MAX], vec![u64::MAX], vec![1 << 40, 1 << 40]] {
            let toc_len = 4 + 24 + 1 + 8 * dims.len();
            let mut header = Vec::new();
            header.extend_from_slice(MAGIC);
            header.extend_from_slice(&(toc_len as u32).to_le_bytes());
            header.extend_from_slice(&1u32.to_le_bytes());
            header.extend_from_slice(&1u32.to_le_bytes());
            header.push(b'x');
            header.extend_from_slice(&(dims.len() as u32).to_le_bytes());
            for d in &dims {
                header.extend_from_slice(&d.to_le_bytes());
            }
            header.extend_from_slice(&(toc_len as u64 + 16).to_le_bytes());
            header.extend_from_slice(&0u64.to_le_bytes());
            assert_eq!(header.len(), 8 + toc_len);
            let crc = fnv1a(&header);
            header.extend_from_slice(&crc.to_le_bytes());
            assert_eq!(decode(&header).unwrap_err(), FormatError::Oversized);
        }
    }

    #[test]
    fn size_matches_f32_payload_plus_small_overhead() {
        // Fig. 11 reads checkpoint sizes; they must track parameter bytes.
        // The TOC costs 24 bytes per tensor plus its name and dims,
        // negligible next to any real layer's payload.
        let entries = sample_entries();
        let payload: usize = entries.iter().map(|(_, t)| t.numel() * 4).sum();
        let buf = encode(&entries);
        assert!(buf.len() > payload);
        assert!(buf.len() < payload + 384, "overhead too large: {}", buf.len() - payload);
    }
}
