//! Message layer: the dist protocol's frames, each declared once.
//!
//! | tag  | frame     | direction           | payload                                  |
//! |------|-----------|---------------------|------------------------------------------|
//! | 0x01 | Hello     | worker → coordinator| version, pid                             |
//! | 0x02 | HelloAck  | coordinator → worker| version, slot, [`RunSpec`]               |
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
//! flag byte, positive counts as a `u32` whose 0 is malformed (DESIGN.md
//! "Wire protocols"). A declaration's range checks sit in the `check`
//! function beside it and run on encode and on decode. The frames carry
//! the run's own types: `Candidate`, `EvalOutcome` and `EvalSpec` (with the
//! candidate's watermark check) derive their `Wire` impls in swt-nas, the
//! enums in `RunSpec` theirs in swt-data and swt-core, and a snapshot's
//! `RunReport` and `TimelineEvent`s theirs in swt-obs.
//! Editing a declaration moves bytes: bump [`crate::PROTOCOL_VERSION`] with
//! it (the golden-bytes test in `tests/fuzz_decode.rs` fails until you do).

use crate::frame::{ensure, WireError};
use std::num::NonZeroU32;
use swt_data::{AppKind, DataScale};
use swt_nas::{Candidate, EvalOutcome, EvalSpec};
use swt_obs::timeline::TimelineEvent;
use swt_obs::RunReport;
use swt_wire::{wire_messages, wire_struct};

wire_struct! {
    /// Everything a worker needs to reproduce the coordinator's evaluation
    /// environment, sent once in `HelloAck`. The worker rebuilds the problem
    /// from `(app, scale, data_seed)`, opens `store`, and builds its
    /// evaluator from `eval`, the [`EvalSpec`] `run_nas` hands its own
    /// threads — that is the whole determinism story: candidate seeds derive
    /// from `(eval.run_seed, id)` and the data from `(app, scale,
    /// data_seed)`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunSpec {
        pub app: AppKind,
        pub scale: DataScale,
        pub data_seed: u64,
        pub eval: EvalSpec,
        /// Intra-op thread budget this worker pins on its evaluating
        /// thread (`parallel::share(workers)`, as in the in-process pool).
        pub threads: NonZeroU32,
        /// Cap on the provider cache a worker fronts a `tcp://` store with
        /// (0 = none); a shared directory is read directly. Sized
        /// coordinator-side as the run's cap split across the dispatch
        /// window.
        pub cache_bytes: u64,
        /// The checkpoint store, spelled as `swt dist-run --store` takes it:
        /// `tcp://host:port` dials a `swt-ckpt-server` (`eval.namespace` is
        /// the tenant bucket), anything else is the directory of the shared
        /// `DirStore`.
        pub store: String,
        /// Whether the worker records timeline events and ships them in its
        /// snapshots: set when the coordinator's own timeline is on, that
        /// is, when the run will write a Chrome trace.
        pub timeline: bool,
    }
}

/// Upper bound on timeline events per `Telemetry` frame. The sender takes
/// at most this many and leaves the rest for its next snapshot; a frame
/// carrying more is refused.
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
    /// `events` batch is a delta, taken off the worker's timeline ring —
    /// overwritten events surface in `dropped_events`.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct Telemetry {
        pub seq: u64,
        /// Nanoseconds since the worker's timeline epoch at capture time:
        /// what the coordinator places the worker's events on its own clock by.
        pub uptime_ns: u64,
        /// Events the worker's ring overwrote since the last capture.
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

    /// Snapshot this process for the wire: one [`RunReport::capture`] and
    /// at most [`MAX_TELEMETRY_EVENTS`] events taken off its timeline ring;
    /// any left over go in the next snapshot. Flushes the calling thread's
    /// buffered spans first so its own just-closed spans are visible.
    pub fn capture(seq: u64) -> Telemetry {
        swt_obs::span::flush_thread();
        let report = RunReport::capture();
        let (events, dropped_events) = swt_obs::timeline::take(MAX_TELEMETRY_EVENTS);
        Telemetry { seq, uptime_ns: swt_obs::timeline::now_ns(), dropped_events, report, events }
    }
}

wire_messages! {
    /// One protocol message: tag byte, then the fields in wire order.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Msg {
        0x01 => Hello { version: u32, pid: u32 },
        /// `slot` is the worker's index in the pool, named by the
        /// coordinator: its spans and timeline are attributed to it.
        0x02 => HelloAck { version: u32, slot: u32, run: RunSpec },
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
    use swt_core::{TransferScheme, TransferStats};
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
        Msg::HelloAck { version: PROTOCOL_VERSION, slot: 3, run }
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
        round_trip(Msg::Hello { version: PROTOCOL_VERSION, pid: 4242 })?;
        round_trip(hello_ack(sample_run()))?;
        round_trip(hello_ack(RunSpec { store: "tcp://127.0.0.1:7421".into(), ..sample_run() }))?;
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
            eval: EvalSpec {
                scheme: TransferScheme::Lcs,
                epochs: NonZeroU32::MIN,
                run_seed: 9,
                namespace: "dist_".into(),
            },
            threads: NonZeroU32::MIN,
            cache_bytes: 1 << 22,
            store: "/tmp/swt_store".into(),
            timeline: true,
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
        let event = |kind, name: &str, t_ns, dur_ns, delta| TimelineEvent {
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
                event(EventKind::Span, "nas.eval", 10, 90, 0),
                event(EventKind::Counter, "nas.dispatch", 120, 0, -3),
            ],
            dropped_events: 9,
        }
    }

    #[test]
    fn telemetry_rejects_hostile_payloads() -> Result<(), WireError> {
        // `events` is the last field; the last event is kind u8, the
        // 12-byte name behind its u16 length, then three 8-byte fields.
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
    fn telemetry_capture_spills_past_the_frame_cap() {
        // A take past the frame cap is cut there: the rest ride in the next
        // snapshot, in order, and nothing is read twice.
        let _lock = crate::timeline_lock();
        swt_obs::timeline::reset();
        for t_ns in 0..MAX_TELEMETRY_EVENTS as u64 + 5 {
            swt_obs::timeline::record_span("wire_test.span", t_ns, 1);
        }
        let first = Telemetry::capture(1);
        assert_eq!(first.events.len(), MAX_TELEMETRY_EVENTS);
        let rest = Telemetry::capture(2);
        assert_eq!(
            rest.events.iter().map(|e| e.t_ns).collect::<Vec<_>>(),
            [2048, 2049, 2050, 2051, 2052]
        );
        assert!(Telemetry::capture(3).events.is_empty());
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

        // A HelloAck whose store string promises one byte more than the
        // frame holds (the store is its last field).
        let mut bad = hello_ack(sample_run()).encode()?;
        let len_at = bad.len() - 2 - "/tmp/swt_store".len();
        bad[len_at] += 1;
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
        // Unknown app / scale / scheme codes in a HelloAck: version and slot
        // u32, then app, scale, data_seed u64, scheme.
        let good = hello_ack(sample_run()).encode()?;
        for (at, what) in [
            (8, "unknown AppKind byte"),
            (9, "unknown DataScale byte"),
            (8 + 2 + 8, "unknown TransferScheme byte"),
        ] {
            let mut bad = good.clone();
            bad[at] = 9;
            assert!(matches!(Msg::decode(0x02, &bad), Err(WireError::Malformed(m)) if m == what));
        }
        Ok(())
    }
}
