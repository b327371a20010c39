//! Message layer: the dist protocol's frames, each declared once.
//!
//! | tag  | frame     | direction           | payload                                  |
//! |------|-----------|---------------------|------------------------------------------|
//! | 0x01 | Hello     | worker → coordinator| version, worker_id, pid                  |
//! | 0x02 | HelloAck  | coordinator → worker| version, [`RunSpec`]                     |
//! | 0x03 | Task      | coordinator → worker| [`Candidate`]: one candidate dispatch    |
//! | 0x04 | Result    | worker → coordinator| [`EvalOutcome`] + [`Telemetry`] snapshot |
//! | 0x05 | Ping      | coordinator → worker| nonce                                    |
//! | 0x06 | Pong      | worker → coordinator| echoed nonce                             |
//! | 0x07 | Shutdown  | coordinator → worker| (empty)                                  |
//! | 0x08 | Error     | either              | utf-8 description                        |
//! | 0x09 | —         | —                   | retired in v10 (`UnknownType`)           |
//! | 0x0A | Telemetry | worker → coordinator| seq-numbered [`Telemetry`] snapshot      |
//! | 0x0B | —         | —                   | retired in v11 (`UnknownType`)           |
//!
//! The byte layout is what `swt-wire` derives from the declarations below:
//! fields in declaration order, integers little-endian, floats as IEEE-754
//! bit patterns (scores must round-trip bit-exactly — the A/B identity gate
//! compares them with `==`), lists behind a `u32` count, options behind a
//! flag byte (DESIGN.md "Wire protocols"). A declaration's range checks sit
//! in the `check` function beside it and run on encode and on decode. The
//! frames carry the run's own types: `Candidate` and `EvalOutcome` (with the
//! candidate's watermark check) derive their `Wire` impls in swt-nas, the
//! enums in `RunSpec` theirs in swt-data and swt-core, and a snapshot's
//! `RunReport` and `TimelineEvent`s theirs in swt-obs.
//! Editing a declaration moves bytes: bump [`crate::PROTOCOL_VERSION`] with
//! it (the golden-bytes test in `tests/fuzz_decode.rs` fails until you do).

use crate::frame::{ensure, WireError};
use swt_core::TransferScheme;
use swt_data::{AppKind, DataScale};
use swt_nas::{Candidate, EvalOutcome};
use swt_obs::timeline::TimelineEvent;
use swt_obs::RunReport;
use swt_wire::{wire_messages, wire_struct};

wire_struct! {
    /// Everything a worker needs to reproduce the coordinator's evaluation
    /// environment, sent once in `HelloAck`. The worker builds the same
    /// problem/search-space/evaluator from these fields that `run_nas`
    /// builds in-process — that is the whole determinism story: candidate
    /// seeds derive from `(run_seed, id)` and the data from `(app, scale,
    /// data_seed)`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunSpec {
        pub app: AppKind,
        pub scale: DataScale,
        pub data_seed: u64,
        pub scheme: TransferScheme,
        pub epochs: u32,
        pub run_seed: u64,
        /// Checkpoint-id namespace (see `NasConfig::namespace`).
        pub namespace: String,
        /// Root of the shared `DirStore` (the stand-in for the paper's
        /// parallel file system).
        pub store_dir: String,
        /// Intra-op thread budget this worker must pin
        /// (`hardware / workers`, floored at 1 — same policy as the
        /// in-process pool).
        pub threads: u32,
        /// Per-worker provider-cache cap: the worker wraps its store in a
        /// `CachedStore` capped at this many bytes (0 disables caching).
        /// Sized coordinator-side as the run's cap split across the
        /// dispatch window, mirroring the in-process shared cache.
        pub cache_bytes: u64,
        /// Checkpoint-store endpoint, e.g. `tcp://host:port`: the worker
        /// dials a `swt-ckpt-server` and speaks the store protocol, with
        /// `namespace` doubling as its tenant bucket. `None` means the
        /// shared `DirStore` at `store_dir`.
        pub store_url: Option<String>,
    }
}

/// Upper bound on timeline events per `Telemetry` frame. A drain larger
/// than this is split across frames by the sender; a frame carrying more is
/// refused.
pub const MAX_TELEMETRY_EVENTS: usize = 2048;

wire_struct! {
    /// A worker's snapshot: the one way its metrics reach the coordinator,
    /// inside every `Result` and in a standalone `Telemetry` frame after
    /// each `Pong` and at teardown.
    ///
    /// `seq` increments per snapshot on each worker, and snapshots go on
    /// the wire in seq order; the coordinator ignores any snapshot whose seq
    /// is not strictly greater than the last applied one, so reordering or
    /// loss degrades to staleness, never corruption. `report` is the
    /// worker's own [`RunReport`], *cumulative since worker start*, so the
    /// latest applied snapshot is the worker's whole account; only the
    /// `events` batch is a delta, cursor-tracked against the worker's
    /// timeline ring — overwritten events surface in `dropped_events`.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct Telemetry {
        pub seq: u64,
        /// Nanoseconds since the worker's timeline epoch at capture time.
        pub uptime_ns: u64,
        /// Ring-overwritten events since the last capture — the staleness
        /// signal a slow coordinator sees instead of corrupted history.
        pub dropped_events: u64,
        pub report: RunReport,
        /// At most [`MAX_TELEMETRY_EVENTS`] per frame.
        pub events: Vec<TimelineEvent>,
    }
    check = Telemetry::check;
}

impl Telemetry {
    fn check(&self) -> Result<(), WireError> {
        ensure(self.events.len() <= MAX_TELEMETRY_EVENTS, "telemetry event batch too large")
    }

    /// Snapshot this process's live registry + timeline for the wire: one
    /// [`RunReport::capture`] and the events of `worker_slot` at or after
    /// `cursor`, at most [`MAX_TELEMETRY_EVENTS`] of them. `cursor` is the
    /// caller-owned timeline read position; it advances past exactly the
    /// events taken, so an oversized drain simply spills into the next
    /// frame. Flushes the calling thread's buffered spans first so its own
    /// just-closed spans are visible.
    pub fn capture(seq: u64, worker_slot: usize, cursor: &mut u64) -> Telemetry {
        swt_obs::span::flush_thread();
        let report = RunReport::capture();
        let mut drain = swt_obs::timeline::drain_since(worker_slot, *cursor);
        drain.events.truncate(MAX_TELEMETRY_EVENTS);
        *cursor = drain.events.last().map_or(drain.next_seq.max(*cursor), |last| last.seq + 1);
        Telemetry {
            seq,
            uptime_ns: swt_obs::timeline::now_ns(),
            dropped_events: drain.dropped,
            report,
            events: drain.events,
        }
    }
}

wire_messages! {
    /// One protocol message: tag byte, then the fields in wire order.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Msg {
        0x01 => Hello { version: u32, worker_id: u64, pid: u32 },
        0x02 => HelloAck { version: u32, run: RunSpec },
        0x03 => Task { cand: Candidate },
        /// One candidate's outcome and the snapshot taken right after its
        /// evaluation, so the work is counted with its result.
        0x04 => Result { outcome: EvalOutcome, telemetry: Telemetry },
        0x05 => Ping { nonce: u64 },
        0x06 => Pong { nonce: u64 },
        0x07 => Shutdown,
        0x08 => Error { message: String },
        /// A snapshot between results: after each `Pong` (heartbeat
        /// cadence, even mid-evaluation) and once at teardown, the last
        /// frame a worker sends before it closes its socket.
        0x0A => Telemetry { telemetry: Telemetry },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Message, Wire, PROTOCOL_VERSION};
    use swt_core::TransferStats;
    use swt_obs::report::{CounterRow, GaugeRow, HistogramRow, SpanRow};
    use swt_obs::timeline::EventKind;
    use swt_space::ArchSeq;

    fn round_trip(msg: Msg) -> Result<(), WireError> {
        let payload = msg.encode()?;
        let back = Msg::decode(msg.tag(), &payload)?;
        assert_eq!(back, msg);
        Ok(())
    }

    fn hello_ack(run: RunSpec) -> Msg {
        Msg::HelloAck { version: PROTOCOL_VERSION, run }
    }

    fn sample_outcome(id: u64, score: f64) -> EvalOutcome {
        EvalOutcome {
            id,
            score,
            train_secs: 1.5,
            transfer_secs: 0.25,
            save_secs: 0.01,
            checkpoint_bytes: 1 << 20,
            transfer: TransferStats { tensors: 5, bytes: 4096, skipped: 1 },
            epochs: 1,
        }
    }

    #[test]
    fn all_frames_round_trip() -> Result<(), WireError> {
        round_trip(Msg::Hello { version: PROTOCOL_VERSION, worker_id: 3, pid: 4242 })?;
        round_trip(hello_ack(sample_run()))?;
        round_trip(hello_ack(RunSpec {
            store_url: Some("tcp://127.0.0.1:7421".into()),
            ..sample_run()
        }))?;
        let cand = Candidate {
            id: 7,
            arch: ArchSeq::new(vec![1, 0, 4, 2]),
            parent: Some(3),
            live_from: 2,
        };
        round_trip(Msg::Task { cand })?;
        round_trip(Msg::Task { cand: Candidate::new(0, ArchSeq::new(vec![2]), None) })?;
        let outcome = sample_outcome(7, 0.12345678901234567);
        round_trip(Msg::Result { outcome: outcome.clone(), telemetry: sample_telemetry() })?;
        round_trip(Msg::Result { outcome, telemetry: Telemetry::default() })?;
        round_trip(Msg::Ping { nonce: u64::MAX })?;
        round_trip(Msg::Pong { nonce: 0 })?;
        round_trip(Msg::Shutdown)?;
        round_trip(Msg::Error { message: "checkpoint store unreachable".into() })?;
        round_trip(Msg::Telemetry { telemetry: sample_telemetry() })?;
        round_trip(Msg::Telemetry { telemetry: Telemetry::default() })?;
        Ok(())
    }

    fn sample_run() -> RunSpec {
        RunSpec {
            app: AppKind::Uno,
            scale: DataScale::Quick,
            data_seed: 11,
            scheme: TransferScheme::Lcs,
            epochs: 1,
            run_seed: 9,
            namespace: "dist_".into(),
            store_dir: "/tmp/swt_store".into(),
            threads: 1,
            cache_bytes: 1 << 22,
            store_url: None,
        }
    }

    fn sample_telemetry() -> Telemetry {
        let span = |path: &str, count, total_secs| SpanRow {
            path: path.into(),
            worker: Some(1),
            count,
            total_secs,
            min_secs: 1e-4,
            max_secs: 2e-3,
        };
        let event = |seq, kind, name: &str, t_ns, dur_ns, delta| TimelineEvent {
            seq,
            kind,
            name: name.into(),
            t_ns,
            dur_ns,
            delta,
        };
        Telemetry {
            seq: 42,
            uptime_ns: 1_000_000_007,
            report: RunReport {
                spans: vec![span("nas.eval", 5, 0.005), span("nas.queue_wait", 5, 7e-7)],
                counters: vec![
                    CounterRow { name: "ckpt.cache.hits".into(), value: 12 },
                    CounterRow { name: "tensor.gemm.calls".into(), value: 4096 },
                ],
                gauges: vec![GaugeRow {
                    name: "ckpt.cache.resident_bytes".into(),
                    value: -1,
                    max: 4,
                }],
                histograms: vec![HistogramRow {
                    name: "ckpt.save_ns".into(),
                    count: 3,
                    sum: 900,
                    // Includes the overflow bucket's bound.
                    buckets: vec![(511, 2), (u64::MAX, 1)],
                }],
                ..RunReport::default()
            },
            events: vec![
                event(0, EventKind::Span, "nas.eval", 10, 90, 0),
                event(1, EventKind::Counter, "nas.dispatch", 120, 0, -3),
            ],
            dropped_events: 9,
        }
    }

    #[test]
    fn telemetry_rejects_hostile_payloads() -> Result<(), WireError> {
        // `events` is the last field; the last event is seq u64, kind u8,
        // the 12-byte name behind its u16 length, then three 8-byte fields.
        let good = Msg::Telemetry { telemetry: sample_telemetry() }.encode()?;
        let mut p = good;
        let kind_at = p.len() - (1 + 2 + 12 + 3 * 8);
        p[kind_at] = 7;
        assert!(matches!(
            Msg::decode(0x0A, &p),
            Err(WireError::Malformed("unknown EventKind byte"))
        ));

        // One event past the cap does not encode (the decode side, every
        // event present, is in `tests/fuzz_decode.rs`).
        let t = Telemetry {
            events: vec![sample_telemetry().events[0].clone(); MAX_TELEMETRY_EVENTS + 1],
            ..Default::default()
        };
        assert!(matches!(
            Msg::Telemetry { telemetry: t }.encode(),
            Err(WireError::Malformed("telemetry event batch too large"))
        ));
        Ok(())
    }

    #[test]
    fn telemetry_capture_advances_its_cursor() {
        // seq numbers and cursors are plain data — hostile values must be
        // handled by the *consumer* (LiveRunView ignores non-monotone seqs);
        // here we pin the producer side: capture never rewinds its cursor.
        let mut cursor = u64::MAX - 1; // hostile: far beyond the ring
        let t = Telemetry::capture(1, swt_obs::registry::UNATTRIBUTED_SLOT, &mut cursor);
        assert!(t.events.is_empty());
        assert!(cursor >= u64::MAX - 1, "cursor must never rewind");

        // A drain past the frame cap is cut there, and the cursor moves past
        // exactly the events taken: the rest ride in the next snapshot.
        let worker = Some(41); // a slot no other test in this crate records into
        let slot = swt_obs::registry::SpanStat::slot_for(worker);
        for t_ns in 0..MAX_TELEMETRY_EVENTS as u64 + 5 {
            swt_obs::timeline::record_span(worker, "wire_test.span", t_ns, 1);
        }
        let mut cursor = 0;
        let first = Telemetry::capture(1, slot, &mut cursor);
        assert_eq!((first.events.len(), cursor), (MAX_TELEMETRY_EVENTS, 2048));
        let rest = Telemetry::capture(2, slot, &mut cursor);
        assert_eq!(
            rest.events.iter().map(|e| e.t_ns).collect::<Vec<_>>(),
            [2048, 2049, 2050, 2051, 2052]
        );
        assert_eq!(cursor, MAX_TELEMETRY_EVENTS as u64 + 5);
    }

    #[test]
    fn scores_round_trip_bit_exactly() -> Result<(), WireError> {
        // NaN payloads and signed zeros must survive: identity gates compare
        // bit patterns, not approximate values.
        for bits in [f64::to_bits(-0.0), f64::NAN.to_bits() | 1, f64::MIN_POSITIVE.to_bits()] {
            let outcome = sample_outcome(1, f64::from_bits(bits));
            let telemetry = Telemetry::default();
            let decoded = Msg::decode(0x04, &Msg::Result { outcome, telemetry }.encode()?)?;
            let Msg::Result { outcome, .. } = decoded else {
                return Err(WireError::Malformed("wrong decode variant"));
            };
            assert_eq!(outcome.score.to_bits(), bits);
        }
        Ok(())
    }

    #[test]
    fn hostile_tasks_and_run_specs_are_rejected() -> Result<(), WireError> {
        // A watermark past the candidate itself, or past its provider:
        // refused on encode.
        let cand = Candidate::new(1, ArchSeq::new(vec![2]), None);
        for bad in [
            Candidate { live_from: 2, ..cand.clone() },
            Candidate { id: 5, parent: Some(1), live_from: 2, ..cand },
        ] {
            assert!(matches!(Msg::Task { cand: bad }.encode(), Err(WireError::Malformed(_))));
        }

        // A HelloAck whose store-URL flag byte (its last byte when the URL
        // is absent) is neither 0 nor 1.
        let mut bad = hello_ack(sample_run()).encode()?;
        let last = bad.len() - 1;
        bad[last] = 2;
        assert!(matches!(Msg::decode(0x02, &bad), Err(WireError::Malformed(_))));
        Ok(())
    }

    #[test]
    fn malformed_payloads_error_cleanly() -> Result<(), WireError> {
        // Truncated Task.
        assert!(matches!(Msg::decode(0x03, &[1, 2, 3]), Err(WireError::Malformed(_))));
        // Unknown frame type.
        assert!(matches!(Msg::decode(0x7f, &[]), Err(WireError::UnknownType(0x7f))));
        // Trailing garbage after a valid Ping.
        let ping = [0u8; 9];
        assert!(matches!(Msg::decode(0x05, &ping), Err(WireError::Malformed(_))));
        // Bad parent flag (the byte right after the id).
        let cand = Candidate::new(1, ArchSeq::new(vec![2]), None);
        let mut bad = Msg::Task { cand }.encode()?;
        bad[8] = 9;
        assert!(matches!(Msg::decode(0x03, &bad), Err(WireError::Malformed(_))));
        // Arch length that promises more choices than the payload holds.
        let mut short = Vec::new();
        1u64.put(&mut short)?;
        false.put(&mut short)?;
        500u32.put(&mut short)?;
        assert!(matches!(Msg::decode(0x03, &short), Err(WireError::Malformed(_))));
        // Unknown app / scale / scheme codes in a HelloAck: version u32, then
        // app, scale, data_seed u64, scheme.
        let good = hello_ack(sample_run()).encode()?;
        for (at, what) in [
            (4, "unknown AppKind byte"),
            (5, "unknown DataScale byte"),
            (4 + 2 + 8, "unknown TransferScheme byte"),
        ] {
            let mut bad = good.clone();
            bad[at] = 9;
            assert!(matches!(Msg::decode(0x02, &bad), Err(WireError::Malformed(m)) if m == what));
        }
        Ok(())
    }
}
