//! Seeded fuzz coverage of the wire protocol's decode surface: every frame
//! type under truncation, bit flips,
//! random payloads, unknown tags, and hostile length prefixes must come
//! back as a typed [`WireError`] or a valid `Msg` — never a panic, never an
//! unbounded allocation. Deterministic (fixed seeds, no time/randomness
//! from the environment) so a failure always reproduces.

use std::io::Cursor as IoCursor;
use swt_core::{TransferScheme, TransferStats};
use swt_data::{AppKind, DataScale};
use swt_dist::frame::Message;
use swt_dist::wire::{
    Code, Msg, RunSpec, SpanTotalRow, Task, TaskResult, Telemetry, WireEvent, MAX_TELEMETRY_EVENTS,
    MAX_TELEMETRY_NAMES,
};
use swt_dist::{WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};
use swt_nas::{Candidate, EvalOutcome};
use swt_obs::report::{CounterRow, GaugeRow, HistogramRow};
use swt_space::ArchSeq;
use swt_tensor::Rng;
use swt_wire::{read_frame, write_frame};

/// Every known frame-type byte (0x01 Hello … 0x0B Retire; 0x09 is retired).
const FRAME_TYPES: [u8; 10] = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x0A, 0x0B];

/// The corpus HelloAck's store endpoint.
const CORPUS_URL: &str = "tcp://127.0.0.1:9999";

/// One valid message of every frame type, every optional field present —
/// the fuzz corpus seeds.
fn corpus() -> Vec<Msg> {
    let telemetry = Telemetry {
        seq: u64::MAX - 1, // hostile-adjacent seq must survive the trip
        uptime_ns: 123_456_789,
        dropped_events: 7,
        spans: vec![SpanTotalRow { path: "nas.eval".into(), count: 4, total_ns: 99 }],
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
        names: vec!["nas.eval".into(), "nas.dispatch".into()],
        events: vec![
            WireEvent { name: 0, kind: 0, t_ns: 10, dur_ns: 5, delta: 0 },
            WireEvent { name: 1, kind: 1, t_ns: 20, dur_ns: 0, delta: -3 },
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
        Msg::Hello { version: PROTOCOL_VERSION, worker_id: 3, pid: 4242 },
        Msg::HelloAck {
            version: PROTOCOL_VERSION,
            run: RunSpec {
                app: Code(AppKind::Uno),
                scale: Code(DataScale::Quick),
                data_seed: 11,
                scheme: Code(TransferScheme::Lcs),
                epochs: 1,
                run_seed: 9,
                namespace: "dist_".into(),
                store_dir: "/tmp/swt_store".into(),
                threads: 1,
                cache_bytes: 1 << 22,
                store_url: Some(CORPUS_URL.into()),
                autoscale: Some((1, 8)),
            },
        },
        Msg::Task { task: Task::new(&cand) },
        Msg::Task { task: Task::new(&reassigned) },
        Msg::Result { result: TaskResult::new(&outcome), telemetry: telemetry.clone() },
        Msg::Ping { nonce: u64::MAX },
        Msg::Pong { nonce: 0 },
        Msg::Shutdown,
        Msg::Error { message: "checkpoint store unreachable".into() },
        Msg::Telemetry { telemetry },
        Msg::Retire { decision: 42, reason: "pool past demand".into() },
    ]
}

/// The corpus message of one frame type, encoded.
fn corpus_payload(tag: u8) -> Vec<u8> {
    let msg = corpus().into_iter().find(|m| m.tag() == tag).expect("tag is in the corpus");
    msg.encode().expect("corpus must encode")
}

/// Byte offsets into the corpus payloads, from the declarations in
/// `swt_dist::wire` (a `Result`: id, four f64s, checkpoint_bytes, three
/// transfer u64s and epochs u32 before its `Telemetry`; a `Telemetry`: seq,
/// uptime_ns and dropped_events u64, then the span, counter, gauge and
/// histogram lists; the corpus `HelloAck` ends [1][url][1][min u32][max
/// u32]).
const RESULT_TELEMETRY_AT: usize = 8 + 4 * 8 + 8 + 3 * 8 + 4;
const TELEMETRY_LISTS_AT: usize = 3 * 8;
const ACK_BOUNDS_LEN: usize = 1 + 4 + 4;
const ACK_URL_LEN: usize = 1 + 2 + CORPUS_URL.len();

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The byte layout of every corpus frame, pinned. A change here is a change
/// of format: bump `PROTOCOL_VERSION` with it.
#[test]
fn golden_bytes_pin_the_dist_layout() {
    assert_eq!(PROTOCOL_VERSION, 10, "new version: re-record the frames below");
    let golden = [
        (0x01, "0a000000030000000000000092100000"),
        (
            0x02,
            "0a00000003000b00000000000000020100000009000000000000000500646973745f0e002f746d702f\
                7377745f73746f72650100000000004000000000000114007463703a2f2f3132372e302e302e313a\
                39393939010100000008000000",
        ),
        (0x03, "07000000000000000103000000000000000400000001000000040002000300000000000000"),
        (0x03, "0900000000000000000100000002000000000000000000"),
        (
            0x04,
            "07000000000000005ef64637dd9abf3f000000000000f83f000000000000d03f7b14ae47e17a843f00\
                0010000000000005000000000000000010000000000000010000000000000001000000feffffffff\
                ffffff15cd5b070000000007000000000000000100000008006e61732e6576616c04000000000000\
                006300000000000000020000000f00636b70742e63616368652e686974730c000000000000001300\
                74656e736f722e67656d6d2e626c6f636b65640010000000000000010000001000706f6f6c2e7175\
                6575655f6465707468ffffffffffffffff0800000000000000010000000c00636b70742e73617665\
                5f6e7303000000000000008403000000000000020000000802000000000000001f01000000000000\
                000200000008006e61732e6576616c0c006e61732e6469737061746368020000000000000a000000\
                000000000500000000000000000000000000000001000114000000000000000000000000000000fd\
                ffffffffffffff",
        ),
        (0x05, "ffffffffffffffff"),
        (0x06, "0000000000000000"),
        (0x07, ""),
        (0x08, "1c00636865636b706f696e742073746f726520756e726561636861626c65"),
        (
            0x0A,
            "feffffffffffffff15cd5b070000000007000000000000000100000008006e61732e6576616c040000\
                00000000006300000000000000020000000f00636b70742e63616368652e686974730c0000000000\
                0000130074656e736f722e67656d6d2e626c6f636b65640010000000000000010000001000706f6f\
                6c2e71756575655f6465707468ffffffffffffffff0800000000000000010000000c00636b70742e\
                736176655f6e7303000000000000008403000000000000020000000802000000000000001f010000\
                00000000000200000008006e61732e6576616c0c006e61732e646973706174636802000000000000\
                0a000000000000000500000000000000000000000000000001000114000000000000000000000000\
                000000fdffffffffffffff",
        ),
        (0x0B, "2a000000000000001000706f6f6c20706173742064656d616e64"),
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
    // holds (the announced length swallows the pool bounds and overruns),
    // and one promising fewer (the frame no longer ends where it should).
    let good = corpus_payload(0x02);
    let url_at = good.len() - ACK_BOUNDS_LEN - ACK_URL_LEN;
    for len in [CORPUS_URL.len() as u16 + 10, u16::MAX, CORPUS_URL.len() as u16 - 1] {
        let mut p = good.clone();
        p[url_at + 1..url_at + 3].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(Msg::decode(0x02, &p), Err(WireError::Malformed(_))));
    }
}

#[test]
fn hostile_autoscale_tails_are_typed_errors() {
    let good = corpus_payload(0x02);
    let n = good.len();
    let with_bounds = |min: u32, max: u32| {
        let mut p = good.clone();
        p[n - 8..n - 4].copy_from_slice(&min.to_le_bytes());
        p[n - 4..].copy_from_slice(&max.to_le_bytes());
        Msg::decode(0x02, &p)
    };

    // Hostile pool bounds: an inverted range, a zero min, and bounds past
    // the pool cap must all be rejected — a worker must never accept a
    // nonsense elastic envelope. `(0, 0)` is not "off" either: a fixed pool
    // sends no bounds at all.
    for (min, max) in [
        (5u32, 2u32),
        (0, 1),
        (0, 0),
        (1, swt_dist::MAX_POOL_WORKERS as u32 + 1),
        (u32::MAX, u32::MAX),
    ] {
        assert!(
            matches!(
                with_bounds(min, max),
                Err(WireError::Malformed("hostile autoscale worker counts"))
            ),
            "autoscale pair ({min}, {max}) must be rejected"
        );
    }

    // The full in-range envelope decodes, including the degenerate
    // single-worker pool and the cap itself.
    for (min, max) in [(1u32, 1u32), (1, swt_dist::MAX_POOL_WORKERS as u32)] {
        let Msg::HelloAck { run, .. } = with_bounds(min, max).expect("in-range pair must decode")
        else {
            panic!("HelloAck payload decoded to another variant");
        };
        assert_eq!(run.autoscale, Some((min, max)));
    }

    // Bounds cut short (min present, max missing), bounds announced but
    // absent, and a frame that simply stops before the flag: all malformed.
    for cut in [n - 4, n - 8, n - 9] {
        assert!(matches!(Msg::decode(0x02, &good[..cut]), Err(WireError::Malformed(_))));
    }
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
    // A tiny payload claiming u32::MAX counters or histograms, in a
    // standalone `Telemetry` and in the one inside a `Result`: the count is
    // refused against the bytes actually left, before anything is reserved.
    // Zeros stand for every field before the list (empty earlier lists).
    for (ty, telemetry_at) in [(0x0Au8, 0), (0x04, RESULT_TELEMETRY_AT)] {
        for (list, empty_lists_before) in [("counters", 1), ("histograms", 3)] {
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
    // Same for a Task announcing more arch choices than the payload holds.
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
    // Header: seq + uptime + dropped, then empty span, counter, gauge and
    // histogram tables.
    let header = |out: &mut Vec<u8>| {
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&2u64.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&[0u8; 4 * 4]); // four empty lists
    };

    // An event batch or a name table announcing more than its cap with no
    // bytes behind the claim: refused on the count.
    let mut bad = Vec::new();
    header(&mut bad);
    bad.extend_from_slice(&0u32.to_le_bytes()); // names
    bad.extend_from_slice(&((MAX_TELEMETRY_EVENTS as u32) + 1).to_le_bytes());
    assert!(matches!(Msg::decode(0x0A, &bad), Err(WireError::Malformed(_))));
    let mut bad = Vec::new();
    header(&mut bad);
    bad.extend_from_slice(&((MAX_TELEMETRY_NAMES as u32) + 1).to_le_bytes());
    assert!(matches!(Msg::decode(0x0A, &bad), Err(WireError::Malformed(_))));

    // The same two tables one entry past their caps with every entry really
    // present: refused by the caps themselves; at the caps, accepted.
    let frame = |names: usize, events: usize| {
        let mut p = Vec::new();
        header(&mut p);
        p.extend_from_slice(&(names as u32).to_le_bytes());
        p.resize(p.len() + 2 * names, 0); // empty strings
        p.extend_from_slice(&(events as u32).to_le_bytes());
        p.resize(p.len() + 27 * events, 0); // span events naming entry 0
        Msg::decode(0x0A, &p)
    };
    assert!(frame(MAX_TELEMETRY_NAMES, MAX_TELEMETRY_EVENTS).is_ok());
    assert!(matches!(
        frame(MAX_TELEMETRY_NAMES + 1, 0),
        Err(WireError::Malformed("telemetry name table too large"))
    ));
    assert!(matches!(
        frame(1, MAX_TELEMETRY_EVENTS + 1),
        Err(WireError::Malformed("telemetry event batch too large"))
    ));

    // An event pointing past the name table, and one with an unknown kind:
    // both must be typed errors, not panics or silent acceptance.
    for (name_idx, kind) in [(5u16, 0u8), (0, 9)] {
        let mut bad = Vec::new();
        header(&mut bad);
        bad.extend_from_slice(&1u32.to_le_bytes()); // one name
        bad.extend_from_slice(&1u16.to_le_bytes());
        bad.push(b'x');
        bad.extend_from_slice(&1u32.to_le_bytes()); // one event
        bad.extend_from_slice(&name_idx.to_le_bytes());
        bad.push(kind);
        bad.extend_from_slice(&[0u8; 24]); // t_ns + dur_ns + delta
        assert!(
            matches!(Msg::decode(0x0A, &bad), Err(WireError::Malformed(_))),
            "name_idx={name_idx} kind={kind} must be rejected"
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
