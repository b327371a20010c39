//! Seeded fuzz coverage of the wire protocol's decode surface: every frame
//! type under truncation, bit flips,
//! random payloads, unknown tags, and hostile length prefixes must come
//! back as a typed [`WireError`] or a valid `Msg` — never a panic, never an
//! unbounded allocation. Deterministic (fixed seeds, no time/randomness
//! from the environment) so a failure always reproduces.

use std::io::Cursor as IoCursor;
use std::num::NonZeroU32;
use swt_core::{TransferScheme, TransferStats};
use swt_data::{AppKind, DataScale};
use swt_dist::frame::Message;
use swt_dist::wire::{Msg, RunSpec, Telemetry, MAX_TELEMETRY_EVENTS};
use swt_dist::{WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};
use swt_nas::{Candidate, EvalOutcome, EvalSpec};
use swt_obs::report::{CounterRow, GaugeRow, HistogramRow, SpanRow};
use swt_obs::timeline::{EventKind, TimelineEvent};
use swt_obs::RunReport;
use swt_space::ArchSeq;
use swt_tensor::Rng;
use swt_wire::{read_frame, write_frame};

/// Every known frame-type byte (0x01 Hello … 0x0A Telemetry; 0x09 and 0x0B
/// are retired).
const FRAME_TYPES: [u8; 9] = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x0A];

/// The corpus HelloAck's store endpoint.
const CORPUS_URL: &str = "tcp://127.0.0.1:9999";

/// One valid message of every frame type, every optional field present —
/// the fuzz corpus seeds.
fn corpus() -> Vec<Msg> {
    let event = |kind, name: &str, t_ns, dur_ns, delta| TimelineEvent {
        kind,
        name: name.into(),
        t_ns,
        dur_ns,
        delta,
    };
    let telemetry = Telemetry {
        seq: u64::MAX - 1, // hostile-adjacent seq must survive the trip
        uptime_ns: 123_456_789,
        dropped_events: 7,
        report: RunReport {
            meta: vec![],
            spans: vec![SpanRow {
                path: "nas.eval".into(),
                worker: Some(1),
                count: 4,
                total_secs: 9.9e-8,
                min_secs: 2e-8,
                max_secs: 3e-8,
            }],
            counters: vec![
                CounterRow { name: "ckpt.cache.hits".into(), value: 12 },
                CounterRow { name: "tensor.gemm.blocked".into(), value: 4096 },
            ],
            gauges: vec![GaugeRow { name: "pool.queue_depth".into(), value: -1, max: 8 }],
            histograms: vec![HistogramRow {
                name: "ckpt.save_ns".into(),
                count: 3,
                sum: 900,
                // Bucket 8's bound, and the overflow bucket's.
                buckets: vec![(511, 2), (u64::MAX, 1)],
            }],
        },
        events: vec![
            event(EventKind::Span, "nas.eval", 10, 5, 0),
            event(EventKind::Counter, "nas.dispatch", 20, 0, -3),
        ],
    };
    let cand = Candidate {
        id: 7,
        arch: ArchSeq::new(vec![1, 0, 4, 2]),
        parent: Some(3),
        live_from: 3, // the provider is the oldest id still live
    };
    // A reassigned warm-up candidate: no provider, nothing retired yet.
    let reassigned = Candidate::new(9, ArchSeq::new(vec![2]), None);
    let outcome = EvalOutcome {
        id: 7,
        score: 0.12345678901234567,
        train_secs: 1.5,
        transfer_secs: 0.25,
        save_secs: 0.01,
        checkpoint_bytes: 1 << 20,
        transfer: TransferStats { tensors: 5, bytes: 4096, skipped: 1 },
        epochs: 1,
    };
    vec![
        Msg::Hello { version: PROTOCOL_VERSION, pid: 4242 },
        Msg::HelloAck {
            version: PROTOCOL_VERSION,
            slot: 3,
            run: RunSpec {
                app: AppKind::Uno,
                scale: DataScale::Quick,
                data_seed: 11,
                eval: EvalSpec {
                    scheme: TransferScheme::Lcs,
                    epochs: NonZeroU32::MIN,
                    run_seed: 9,
                    namespace: "dist_".into(),
                },
                threads: NonZeroU32::MIN,
                cache_bytes: 1 << 22,
                store: CORPUS_URL.into(),
                timeline: true,
            },
        },
        Msg::Task { cand },
        Msg::Task { cand: reassigned },
        Msg::Result { outcome, telemetry: telemetry.clone() },
        Msg::Ping { nonce: u64::MAX },
        Msg::Pong { nonce: 0 },
        Msg::Shutdown,
        Msg::Error { message: "checkpoint store unreachable".into() },
        Msg::Telemetry { telemetry },
    ]
}

/// The corpus message of one frame type, encoded.
fn corpus_payload(tag: u8) -> Vec<u8> {
    let msg = corpus().into_iter().find(|m| m.tag() == tag).expect("tag is in the corpus");
    msg.encode().expect("corpus must encode")
}

/// Byte offsets into the corpus payloads, from the declarations in
/// `swt_dist::wire` and the types it carries (a `Result`: an `EvalOutcome`'s
/// id, four f64s, checkpoint_bytes, three transfer u64s and epochs u32
/// before its `Telemetry`; a `Telemetry`: seq, uptime_ns and dropped_events
/// u64, then its report's meta, span, counter, gauge and histogram lists and
/// the event list; a `HelloAck`: version and slot u32, app and scale u8,
/// data_seed u64, then its `EvalSpec` (scheme u8, epochs u32, …), and it
/// ends threads u32, cache_bytes u64, [u16 len][store], timeline u8).
const RESULT_TELEMETRY_AT: usize = 8 + 4 * 8 + 8 + 3 * 8 + 4;
const TELEMETRY_LISTS_AT: usize = 3 * 8;
const ACK_EPOCHS_AT: usize = 4 + 4 + 1 + 1 + 8 + 1;
const ACK_URL_FROM_END: usize = 2 + CORPUS_URL.len() + 1;
const ACK_THREADS_FROM_END: usize = ACK_URL_FROM_END + 8 + 4;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The byte layout of every corpus frame, pinned. A change here is a change
/// of format: bump `PROTOCOL_VERSION` with it.
#[test]
fn golden_bytes_pin_the_dist_layout() {
    assert_eq!(PROTOCOL_VERSION, 15, "new version: re-record the frames below");
    let golden = [
        (0x01, "0f00000092100000"),
        (
            0x02,
            "0f0000000300000003000b00000000000000020100000009000000000000000500646973745f010000\
                00000040000000000014007463703a2f2f3132372e302e302e313a3939393901",
        ),
        (0x03, "07000000000000000103000000000000000400000001000000040002000300000000000000"),
        (0x03, "0900000000000000000100000002000000000000000000"),
        (
            0x04,
            "07000000000000005ef64637dd9abf3f000000000000f83f000000000000d03f7b14ae47e17a843f00\
                0010000000000005000000000000000010000000000000010000000000000001000000feffffffff\
                ffffff15cd5b07000000000700000000000000000000000100000008006e61732e6576616c010100\
                0000000000000400000000000000ee131c6b3a937a3e3a8c30e28e79553e2b69a4292b1b603e0200\
                00000f00636b70742e63616368652e686974730c00000000000000130074656e736f722e67656d6d\
                2e626c6f636b65640010000000000000010000001000706f6f6c2e71756575655f6465707468ffff\
                ffffffffffff0800000000000000010000000c00636b70742e736176655f6e730300000000000000\
                8403000000000000020000000802000000000000001f0100000000000000020000000008006e6173\
                2e6576616c0a0000000000000005000000000000000000000000000000010c006e61732e64697370\
                6174636814000000000000000000000000000000fdffffffffffffff",
        ),
        (0x05, "ffffffffffffffff"),
        (0x06, "0000000000000000"),
        (0x07, ""),
        (0x08, "1c00636865636b706f696e742073746f726520756e726561636861626c65"),
        (
            0x0A,
            "feffffffffffffff15cd5b07000000000700000000000000000000000100000008006e61732e657661\
                6c0101000000000000000400000000000000ee131c6b3a937a3e3a8c30e28e79553e2b69a4292b1b\
                603e020000000f00636b70742e63616368652e686974730c00000000000000130074656e736f722e\
                67656d6d2e626c6f636b65640010000000000000010000001000706f6f6c2e71756575655f646570\
                7468ffffffffffffffff0800000000000000010000000c00636b70742e736176655f6e7303000000\
                000000008403000000000000020000000802000000000000001f0100000000000000020000000008\
                006e61732e6576616c0a0000000000000005000000000000000000000000000000010c006e61732e\
                646973706174636814000000000000000000000000000000fdffffffffffffff",
        ),
    ];
    let corpus = corpus();
    assert_eq!(corpus.len(), golden.len());
    for (msg, (tag, want)) in corpus.iter().zip(golden) {
        assert_eq!(msg.tag(), tag);
        let payload = msg.encode().expect("corpus must encode");
        assert_eq!(hex(&payload), want, "layout of tag {tag:#04x} moved");
    }
}

#[test]
fn every_truncation_of_every_frame_is_a_typed_error() {
    for msg in corpus() {
        let payload = msg.encode().expect("corpus must encode");
        assert_eq!(Msg::decode(msg.tag(), &payload).expect("corpus round-trip"), msg);
        // Every strict prefix either starves a fixed-width read or leaves a
        // count without its elements; none may decode, none may panic.
        for cut in 0..payload.len() {
            assert!(
                Msg::decode(msg.tag(), &payload[..cut]).is_err(),
                "type {:#04x} truncated to {cut}/{} bytes decoded successfully",
                msg.tag(),
                payload.len()
            );
        }
        // Nor may anything follow a frame's last field.
        let mut long = payload;
        long.push(0);
        assert!(
            matches!(Msg::decode(msg.tag(), &long), Err(WireError::Malformed("trailing bytes"))),
            "type {:#04x} accepted a trailing byte",
            msg.tag()
        );
    }
}

#[test]
fn hostile_task_and_store_url_fields_are_typed_errors() {
    let task = corpus_payload(0x03);

    // A watermark past the candidate (id 7) or past its provider (id 3).
    for live_from in [8u64, 4, u64::MAX] {
        let mut p = task.clone();
        let n = p.len();
        p[n - 8..].copy_from_slice(&live_from.to_le_bytes());
        assert!(
            matches!(Msg::decode(0x03, &p), Err(WireError::Malformed(_))),
            "task watermark {live_from} must be rejected"
        );
    }

    // A store-url length prefix promising more bytes than the payload
    // holds, and one promising fewer (the frame no longer ends where it
    // should).
    let good = corpus_payload(0x02);
    let url_at = good.len() - ACK_URL_FROM_END;
    for len in [CORPUS_URL.len() as u16 + 10, u16::MAX, CORPUS_URL.len() as u16 - 1] {
        let mut p = good.clone();
        p[url_at..url_at + 2].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(Msg::decode(0x02, &p), Err(WireError::Malformed(_))));
    }
}

#[test]
fn a_run_spec_with_a_zero_count_is_malformed() {
    // A run of zero epochs, or a worker pinned to zero threads, is refused
    // as it is read: the worker never builds an evaluator from it.
    let good = corpus_payload(0x02);
    let threads_at = good.len() - ACK_THREADS_FROM_END;
    for (at, what) in [(ACK_EPOCHS_AT, "eval.epochs"), (threads_at, "threads")] {
        let mut p = good.clone();
        assert_eq!(p[at..at + 4], 1u32.to_le_bytes(), "{what} is where the layout says");
        p[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(
            matches!(
                Msg::decode(0x02, &p),
                Err(WireError::Malformed("zero where a positive count is required"))
            ),
            "a zero {what} must be refused"
        );
    }
}

#[test]
fn a_run_spec_timeline_flag_is_0_or_1() {
    // The last byte of a `HelloAck` is `RunSpec.timeline`: any other value
    // is refused, not read as "on".
    let good = corpus_payload(0x02);
    assert_eq!(good.last(), Some(&1), "timeline is where the layout says");
    let mut p = good.clone();
    if let Some(flag) = p.last_mut() {
        *flag = 2;
    }
    assert!(matches!(
        Msg::decode(0x02, &p),
        Err(WireError::Malformed("flag byte is neither 0 nor 1"))
    ));
    p.pop();
    assert!(matches!(Msg::decode(0x02, &p), Err(WireError::Malformed(_))), "a v14 HelloAck");
}

#[test]
fn a_retired_0x0b_frame_is_an_unknown_type() {
    // A well-formed v10 `Retire` (decision tick u64, then a reason string)
    // read off the stream: the frame layer hands it up, decode names the tag.
    let mut payload = 42u64.to_le_bytes().to_vec();
    payload.extend_from_slice(&16u16.to_le_bytes());
    payload.extend_from_slice(b"pool past demand");
    let mut stream = Vec::new();
    write_frame(&mut stream, 0x0B, &payload).unwrap();
    let mut buf = Vec::new();
    let ty = read_frame(&mut IoCursor::new(&stream), &mut buf).unwrap();
    assert!(matches!(Msg::decode(ty, &buf), Err(WireError::UnknownType(0x0B))));
}

#[test]
fn bit_flips_never_panic_and_often_fail_cleanly() {
    let mut rng = Rng::seed(0xF1A5);
    for msg in corpus() {
        let payload = msg.encode().expect("corpus must encode");
        if payload.is_empty() {
            continue; // Shutdown: nothing to corrupt
        }
        for _ in 0..256 {
            let mut mutated = payload.clone();
            let flips = 1 + rng.below(4);
            for _ in 0..flips {
                let byte = rng.below(mutated.len());
                let bit = rng.below(8);
                mutated[byte] ^= 1 << bit;
            }
            // A flip inside a value field may still decode (to a different
            // message); a flip inside structure must fail. Both are fine —
            // what's forbidden is a panic or an abort.
            match Msg::decode(msg.tag(), &mutated) {
                Ok(_) | Err(_) => {}
            }
        }
    }
}

#[test]
fn random_payloads_against_every_tag_never_panic() {
    let mut rng = Rng::seed(0xDEC0DE);
    for ty in 0x00..=0x20u8 {
        for round in 0..128usize {
            let len = rng.below(64) * (1 + round % 3);
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            match Msg::decode(ty, &payload) {
                Ok(_) | Err(_) => {}
            }
        }
    }
    // Tags outside the table are always UnknownType, even with an empty
    // payload.
    for ty in 0x00..=0xFFu8 {
        if !FRAME_TYPES.contains(&ty) {
            assert!(
                matches!(Msg::decode(ty, &[]), Err(WireError::UnknownType(t)) if t == ty),
                "tag {ty:#04x} must be rejected as unknown"
            );
        }
    }
}

#[test]
fn hostile_counts_cannot_force_large_allocations() {
    // A tiny payload claiming u32::MAX report spans, counters, histograms
    // or events, in a standalone `Telemetry` and in the one inside a
    // `Result`: the count is refused against the bytes actually left,
    // before anything is reserved. Zeros stand for every field before the
    // list (empty earlier lists).
    for (ty, telemetry_at) in [(0x0Au8, 0), (0x04, RESULT_TELEMETRY_AT)] {
        for (list, empty_lists_before) in
            [("report.spans", 1), ("counters", 2), ("histograms", 4), ("events", 5)]
        {
            let mut bad = vec![0u8; telemetry_at + TELEMETRY_LISTS_AT + 4 * empty_lists_before];
            bad.extend_from_slice(&u32::MAX.to_le_bytes());
            assert!(
                matches!(
                    Msg::decode(ty, &bad),
                    Err(WireError::Malformed("list count exceeds the payload"))
                ),
                "tag {ty:#04x} accepted a hostile count of {list}"
            );
        }
    }
    // Same for a candidate announcing more arch choices than the payload holds.
    let mut bad = Vec::new();
    bad.extend_from_slice(&1u64.to_le_bytes()); // id
    bad.push(0); // no parent
    bad.extend_from_slice(&u32::MAX.to_le_bytes()); // claims 4 billion choices
    assert!(Msg::decode(0x03, &bad).is_err());
    // A count the remaining bytes allow but do not back (300 claimed u16s,
    // 300 bytes present) starves mid-list: still a typed error.
    let mut bad = bad[..9].to_vec();
    bad.extend_from_slice(&300u32.to_le_bytes());
    bad.extend_from_slice(&[0u8; 300]);
    assert!(matches!(Msg::decode(0x03, &bad), Err(WireError::Malformed("truncated payload"))));
}

#[test]
fn hostile_telemetry_payloads_are_rejected_without_allocation() {
    // Header: seq + uptime + dropped, then the report's five empty lists
    // (meta, spans, counters, gauges, histograms).
    let header = |out: &mut Vec<u8>| {
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&2u64.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&[0u8; 5 * 4]);
    };
    // `events` span events, each kind u8, an empty name, then t_ns, dur_ns
    // and delta.
    let frame = |events: usize| {
        let mut p = Vec::new();
        header(&mut p);
        p.extend_from_slice(&(events as u32).to_le_bytes());
        p.resize(p.len() + (1 + 2 + 3 * 8) * events, 0);
        p
    };

    // An event batch announcing more than its cap with no bytes behind the
    // claim: refused on the count.
    let mut bad = frame(0);
    let n = bad.len();
    bad[n - 4..].copy_from_slice(&((MAX_TELEMETRY_EVENTS as u32) + 1).to_le_bytes());
    assert!(matches!(Msg::decode(0x0A, &bad), Err(WireError::Malformed(_))));

    // One event past the cap with every event really present: refused by
    // the cap itself; at the cap, accepted.
    assert!(Msg::decode(0x0A, &frame(MAX_TELEMETRY_EVENTS)).is_ok());
    assert!(matches!(
        Msg::decode(0x0A, &frame(MAX_TELEMETRY_EVENTS + 1)),
        Err(WireError::Malformed("telemetry event batch too large"))
    ));

    // An event kind byte the protocol does not know (the first event's
    // first byte): a typed error naming the type.
    let mut bad = frame(1);
    let kind_at = bad.len() - (1 + 2 + 3 * 8);
    for kind in [2u8, 9, 0xFF] {
        bad[kind_at] = kind;
        assert!(
            matches!(Msg::decode(0x0A, &bad), Err(WireError::Malformed("unknown EventKind byte"))),
            "event kind {kind} must be rejected"
        );
    }
}

#[test]
fn frame_reader_rejects_oversized_and_truncated_streams() {
    // Oversized length prefix: rejected before any payload allocation.
    let mut header = Vec::new();
    header.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
    header.push(0x03);
    let mut buf = Vec::new();
    assert!(matches!(
        read_frame(&mut IoCursor::new(&header), &mut buf),
        Err(WireError::FrameTooLarge(_))
    ));

    // A length prefix promising more payload than the stream delivers.
    let mut short = Vec::new();
    short.extend_from_slice(&100u32.to_le_bytes());
    short.push(0x05);
    short.extend_from_slice(&[0u8; 10]);
    assert!(matches!(read_frame(&mut IoCursor::new(&short), &mut buf), Err(WireError::Io(_))));

    // Every truncation of a valid framed stream is an Io error, and the
    // frame layer itself refuses to write an oversized payload.
    let msg = Msg::Ping { nonce: 7 };
    let mut framed = Vec::new();
    swt_dist::frame::send(&mut framed, &msg).unwrap();
    for cut in 0..framed.len() {
        assert!(read_frame(&mut IoCursor::new(&framed[..cut]), &mut buf).is_err());
    }
    assert_eq!(swt_dist::frame::recv(&mut IoCursor::new(&framed), &mut buf).unwrap(), msg);
    assert!(matches!(
        write_frame(&mut Vec::new(), 0x03, &vec![0u8; MAX_FRAME_LEN + 1]),
        Err(WireError::FrameTooLarge(_))
    ));
}

#[test]
fn random_frame_streams_never_panic_the_reader() {
    let mut rng = Rng::seed(0xFEED);
    let mut buf = Vec::new();
    for _ in 0..512 {
        let len = rng.below(128);
        let stream: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut cursor = IoCursor::new(&stream);
        // Drain the stream: each frame is either readable (then decodable
        // or a typed error) or the read itself errors; either way the loop
        // terminates without panicking.
        while let Ok(ty) = read_frame(&mut cursor, &mut buf) {
            let _ = Msg::decode(ty, &buf);
        }
    }
}
