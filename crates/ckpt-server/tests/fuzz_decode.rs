//! Seeded fuzz coverage of the store protocol's decode surface, mirroring
//! the dist wire's `fuzz_decode` suite: every store frame under
//! truncation, bit flips, random payloads, unknown and retired tags and
//! oversized length declarations must come back as a typed [`WireError`] or
//! a valid [`StoreMsg`] — never a panic, never an unbounded allocation.
//! Deterministic (fixed seeds) so a failure always reproduces.

use swt_ckpt_server::proto::{recv_chunks, ErrCode, StoreMsg, MAX_LIST_IDS, MAX_TRANSFER_LEN};
use swt_ckpt_server::STORE_PROTOCOL_VERSION;
use swt_tensor::Rng;
use swt_wire::{Message, Raw, WireError};

/// Every known store frame-type byte: 0x41 Hello … 0x45 PutAck, 0x4A GetRaw
/// … 0x52 Err. 0x46–0x49 were v2's per-tensor read and are retired.
fn store_tags() -> Vec<u8> {
    (0x41..=0x45).chain(0x4A..=0x52).collect()
}

/// One valid message of every store frame type — the fuzz corpus seeds.
fn corpus() -> Vec<StoreMsg> {
    vec![
        StoreMsg::Hello {
            version: STORE_PROTOCOL_VERSION,
            bucket: "run_a".into(),
            nonce: [7; 16],
            mac: [9; 32],
        },
        StoreMsg::HelloAck { version: STORE_PROTOCOL_VERSION },
        StoreMsg::Put { id: "cand_17".into(), total_len: 13_000_000 },
        StoreMsg::Chunk { bytes: Raw(vec![1, 2, 3, 4, 5]) },
        StoreMsg::PutAck { bytes: 13_000_000 },
        StoreMsg::GetRaw { id: "cand_17".into() },
        StoreMsg::Blob { total_len: 1 << 24 },
        StoreMsg::Exists { id: "cand_17".into() },
        StoreMsg::ExistsResp { exists: true, size: 13_000_000 },
        StoreMsg::List,
        StoreMsg::ListResp { ids: vec!["cand_1".into(), "cand_2".into()] },
        StoreMsg::Delete { id: "cand_1".into() },
        StoreMsg::DeleteResp { existed: true },
        StoreMsg::Err { code: ErrCode::NotFound, message: "no such checkpoint".into() },
    ]
}

/// A message as `(tag, payload)`, the way it sits inside a frame.
fn frame(msg: &StoreMsg) -> (u8, Vec<u8>) {
    (msg.tag(), msg.encode().expect("message must encode"))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The byte layout of every corpus frame, pinned. A change here is a change
/// of format: bump `STORE_PROTOCOL_VERSION` with it.
#[test]
fn golden_bytes_pin_the_store_layout() {
    assert_eq!(STORE_PROTOCOL_VERSION, 3, "new version: re-record the frames below");
    let golden = [
        (
            0x41,
            "03000000050072756e5f6107070707070707070707070707070707\
                0909090909090909090909090909090909090909090909090909090909090909",
        ),
        (0x42, "03000000"),
        (0x43, "070063616e645f3137405dc60000000000"),
        (0x44, "0102030405"),
        (0x45, "405dc60000000000"),
        (0x4A, "070063616e645f3137"),
        (0x4B, "0000000100000000"),
        (0x4C, "070063616e645f3137"),
        (0x4D, "01405dc60000000000"),
        (0x4E, ""),
        (0x4F, "02000000060063616e645f31060063616e645f32"),
        (0x50, "060063616e645f31"),
        (0x51, "01"),
        (0x52, "0012006e6f207375636820636865636b706f696e74"),
    ];
    let corpus = corpus();
    assert_eq!(corpus.len(), golden.len());
    for (msg, (tag, want)) in corpus.iter().zip(golden) {
        let (ty, payload) = frame(msg);
        assert_eq!(ty, tag);
        assert_eq!(hex(&payload), want, "layout of tag {tag:#04x} moved");
    }
}

#[test]
fn corpus_covers_every_tag() {
    let mut tags: Vec<u8> = corpus().iter().map(StoreMsg::tag).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags, store_tags(), "corpus must seed every store tag");
}

#[test]
fn every_truncation_of_every_frame_is_a_typed_error() {
    for msg in corpus() {
        let (ty, payload) = frame(&msg);
        assert_eq!(StoreMsg::decode(ty, &payload).expect("corpus round-trip"), msg);
        // Chunk carries raw bytes with no structure: every prefix is itself
        // a valid (shorter) chunk. Everything else must reject every strict
        // prefix — a starved fixed-width read or a count without elements.
        let is_chunk = matches!(msg, StoreMsg::Chunk { .. });
        for cut in 0..payload.len() {
            let got = StoreMsg::decode(ty, &payload[..cut]);
            if is_chunk {
                assert!(got.is_ok(), "chunk prefix of {cut} bytes must decode");
            } else {
                assert!(
                    got.is_err(),
                    "tag {ty:#04x} truncated to {cut}/{} bytes decoded successfully",
                    payload.len()
                );
            }
        }
    }
}

#[test]
fn bit_flips_never_panic() {
    let mut rng = Rng::seed(0x5708E);
    for msg in corpus() {
        let (ty, payload) = frame(&msg);
        if payload.is_empty() {
            continue; // List: nothing to corrupt
        }
        for _ in 0..256 {
            let mut mutated = payload.clone();
            let flips = 1 + rng.below(4);
            for _ in 0..flips {
                let byte = rng.below(mutated.len());
                let bit = rng.below(8);
                mutated[byte] ^= 1 << bit;
            }
            // A flip in a value field may still decode (to another message);
            // a flip in structure must fail. Both are fine — never a panic.
            match StoreMsg::decode(ty, &mutated) {
                Ok(_) | Err(_) => {}
            }
        }
    }
}

#[test]
fn random_payloads_against_every_tag_never_panic() {
    let mut rng = Rng::seed(0xCAB1E);
    for ty in 0x38..=0x5Au8 {
        for round in 0..128usize {
            let len = rng.below(96) * (1 + round % 3);
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            match StoreMsg::decode(ty, &payload) {
                Ok(_) | Err(_) => {}
            }
        }
    }
    // Every other tag is always UnknownType — including every dist-protocol
    // tag, so a cross-wired connection fails loudly, and the retired
    // 0x46–0x49, so a v2 client's per-tensor read is refused, not misread.
    let known = store_tags();
    for ty in 0x00..=0xFFu8 {
        if !known.contains(&ty) {
            assert!(
                matches!(StoreMsg::decode(ty, &[]), Err(WireError::UnknownType(t)) if t == ty),
                "tag {ty:#04x} must be rejected as unknown"
            );
        }
    }
}

#[test]
fn oversized_declarations_are_typed_errors() {
    // Transfer headers declaring more than the cap: rejected at decode,
    // before any receive loop could try to buffer them.
    let over = MAX_TRANSFER_LEN + 1;
    for msg in [StoreMsg::Put { id: "x".into(), total_len: 1 }, StoreMsg::Blob { total_len: 1 }] {
        let (ty, payload) = frame(&msg);
        let mut evil = payload.clone();
        let n = evil.len();
        evil[n - 8..].copy_from_slice(&over.to_le_bytes());
        assert!(
            matches!(StoreMsg::decode(ty, &evil), Err(WireError::Malformed(_))),
            "tag {ty:#04x} must reject an over-cap transfer length"
        );
    }

    // A ListResp claiming u32::MAX ids with no bytes behind the claim:
    // refused on the count, nothing reserved.
    let (ty, payload) = frame(&StoreMsg::ListResp { ids: vec![] });
    let mut evil = payload.clone();
    evil[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(StoreMsg::decode(ty, &evil), Err(WireError::Malformed(_))));

    // The same list one id past its cap, every id really present (empty
    // strings, two bytes each): refused by the cap itself.
    let mut evil = payload;
    evil[..4].copy_from_slice(&(MAX_LIST_IDS as u32 + 1).to_le_bytes());
    evil.resize(4 + 2 * (MAX_LIST_IDS + 1), 0);
    assert!(matches!(StoreMsg::decode(ty, &evil), Err(WireError::Malformed(_))));
    evil[..4].copy_from_slice(&(MAX_LIST_IDS as u32).to_le_bytes());
    evil.truncate(4 + 2 * MAX_LIST_IDS);
    assert!(StoreMsg::decode(ty, &evil).is_ok(), "a list at its cap must decode");
}

#[test]
fn chunk_reassembly_rejects_desyncs_without_panicking() {
    // A non-Chunk frame arriving mid-transfer is a protocol desync.
    let frames: Vec<(u8, Vec<u8>)> =
        vec![(0x44, vec![0u8; 4]), (0x45, 42u64.to_le_bytes().to_vec())];
    let mut iter = frames.iter();
    let got = recv_chunks(8, |buf| {
        let (ty, payload) = iter.next().ok_or(WireError::Malformed("out of frames"))?;
        buf.clear();
        buf.extend_from_slice(payload);
        Ok(*ty)
    });
    assert!(matches!(got, Err(WireError::Protocol(_))));

    // A declared total over the transfer cap is rejected before any frame
    // is pulled at all.
    let got = recv_chunks(MAX_TRANSFER_LEN + 1, |_| {
        Err(WireError::Malformed("receiver must not be called"))
    });
    assert!(matches!(got, Err(WireError::Malformed(_))));

    // Random frame sequences: reassembly terminates with a value or a
    // typed error, never a panic or a hang.
    let mut rng = Rng::seed(0xC4A2);
    for _ in 0..256 {
        let total = rng.below(64) as u64;
        let mut remaining = 8 + rng.below(8);
        let got = recv_chunks(total, |buf| {
            if remaining == 0 {
                return Err(WireError::Malformed("stream ended"));
            }
            remaining -= 1;
            let ty = if rng.below(4) == 0 { 0x45 } else { 0x44 };
            buf.clear();
            let n = rng.below(32);
            buf.extend((0..n).map(|_| rng.next_u64() as u8));
            Ok(ty)
        });
        if let Ok(bytes) = got {
            assert_eq!(bytes.len() as u64, total);
        }
    }
}
