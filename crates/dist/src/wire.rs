//! Message layer: the dist protocol's frames, each declared once.
//!
//! | tag  | frame     | direction           | payload                                 |
//! |------|-----------|---------------------|-----------------------------------------|
//! | 0x01 | Hello     | worker → coordinator| version, worker_id, pid                 |
//! | 0x02 | HelloAck  | coordinator → worker| version, [`RunSpec`]                    |
//! | 0x03 | Task      | coordinator → worker| [`Task`]: one candidate dispatch        |
//! | 0x04 | Result    | worker → coordinator| [`TaskResult`] + [`Telemetry`] snapshot |
//! | 0x05 | Ping      | coordinator → worker| nonce                                   |
//! | 0x06 | Pong      | worker → coordinator| echoed nonce                            |
//! | 0x07 | Shutdown  | coordinator → worker| (empty)                                 |
//! | 0x08 | Error     | either              | utf-8 description                       |
//! | 0x09 | —         | —                   | retired in v10 (`UnknownType`)          |
//! | 0x0A | Telemetry | worker → coordinator| seq-numbered [`Telemetry`] snapshot     |
//! | 0x0B | Retire    | coordinator → worker| decision tick + utf-8 reason            |
//!
//! The byte layout is what `swt-wire` derives from the declarations below:
//! fields in declaration order, integers little-endian, floats as IEEE-754
//! bit patterns (scores must round-trip bit-exactly — the A/B identity gate
//! compares them with `==`), lists behind a `u32` count, options behind a
//! flag byte (DESIGN.md "Wire protocols"). A declaration's range checks sit
//! in the `check` function beside it and run on encode and on decode.
//! Editing a declaration moves bytes: bump [`crate::PROTOCOL_VERSION`] with
//! it (the golden-bytes test in `tests/fuzz_decode.rs` fails until you do).

use crate::frame::{ensure, Cursor, Wire, WireError};
use crate::policy::MAX_POOL_WORKERS;
use swt_core::{TransferScheme, TransferStats};
use swt_data::{AppKind, DataScale};
use swt_nas::{Candidate, EvalOutcome};
use swt_obs::report::{CounterRow, GaugeRow, HistogramRow};
use swt_obs::RunReport;
use swt_space::ArchSeq;
use swt_wire::{wire_messages, wire_struct};

/// Carries a fieldless enum another crate owns through a wire declaration
/// as one byte (`Wire` cannot be implemented on a foreign type from here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Code<T>(pub T);

/// `Type, "decode error": Variant = byte, …;` — both directions of a
/// [`Code`] table from one list (the `match` stays exhaustive, so a new
/// variant upstream fails the build here rather than an encode at run time).
macro_rules! byte_codes {
    ($($ty:ident, $unknown:literal: $($variant:ident = $code:literal),+;)+) => {$(
        impl Wire for Code<$ty> {
            fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
                let code: u8 = match self.0 { $($ty::$variant => $code,)+ };
                code.put(out)
            }
            fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
                match u8::get(c)? {
                    $($code => Ok(Code($ty::$variant)),)+
                    _ => Err(WireError::Malformed($unknown)),
                }
            }
        }
    )+};
}

byte_codes! {
    AppKind, "unknown app code": Cifar10 = 0, Mnist = 1, Nt3 = 2, Uno = 3;
    DataScale, "unknown scale code": Quick = 0, Full = 1;
    TransferScheme, "unknown scheme code": Baseline = 0, Lp = 1, Lcs = 2;
}

wire_struct! {
    /// Everything a worker needs to reproduce the coordinator's evaluation
    /// environment, sent once in `HelloAck`. The worker builds the same
    /// problem/search-space/evaluator from these fields that `run_nas`
    /// builds in-process — that is the whole determinism story: candidate
    /// seeds derive from `(run_seed, id)` and the data from `(app, scale,
    /// data_seed)`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunSpec {
        pub app: Code<AppKind>,
        pub scale: Code<DataScale>,
        pub data_seed: u64,
        pub scheme: Code<TransferScheme>,
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
        /// Autoscale pool bounds `(min, max)`, `1 ≤ min ≤ max ≤
        /// MAX_POOL_WORKERS`; `None` means the pool is fixed. Informational
        /// for the worker — the coordinator owns every scaling decision —
        /// but it makes the RunSpec a complete record of the run's
        /// configuration and tells the worker it may be retired mid-run.
        pub autoscale: Option<(u32, u32)>,
    }
    check = RunSpec::check;
}

impl RunSpec {
    pub(crate) fn check(&self) -> Result<(), WireError> {
        self.autoscale.map_or(Ok(()), |(min, max)| {
            ensure(
                1 <= min && min <= max && max as usize <= MAX_POOL_WORKERS,
                "hostile autoscale worker counts",
            )
        })
    }
}

wire_struct! {
    /// One candidate dispatch: a [`Candidate`] as it travels.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Task {
        pub id: u64,
        /// The provider (mutation parent); `None` for warm-up candidates.
        pub parent: Option<u64>,
        /// The architecture sequence's choices.
        pub arch: Vec<u16>,
        /// The lineage watermark at first dispatch (`Candidate::live_from`):
        /// a reassigned task carries it unchanged, and the worker acts on
        /// the running maximum.
        pub live_from: u64,
    }
    check = Task::check;
}

impl Task {
    fn check(&self) -> Result<(), WireError> {
        ensure(self.live_from <= self.id, "watermark beyond the candidate itself")?;
        ensure(self.parent.is_none_or(|p| p >= self.live_from), "provider below the watermark")
    }

    pub fn new(cand: &Candidate) -> Task {
        Task {
            id: cand.id,
            parent: cand.parent,
            arch: cand.arch.choices().to_vec(),
            live_from: cand.live_from,
        }
    }

    pub fn into_candidate(self) -> Candidate {
        Candidate {
            id: self.id,
            arch: ArchSeq::new(self.arch),
            parent: self.parent,
            live_from: self.live_from,
        }
    }
}

wire_struct! {
    /// What a worker reports for one [`Task`]: the [`EvalOutcome`] as it
    /// travels.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TaskResult {
        pub id: u64,
        pub score: f64,
        pub train_secs: f64,
        pub transfer_secs: f64,
        pub save_secs: f64,
        pub checkpoint_bytes: u64,
        pub transfer_tensors: u64,
        pub transfer_bytes: u64,
        pub transfer_skipped: u64,
        pub epochs: u32,
    }
}

impl TaskResult {
    pub fn new(outcome: &EvalOutcome) -> TaskResult {
        TaskResult {
            id: outcome.id,
            score: outcome.score,
            train_secs: outcome.train_secs,
            transfer_secs: outcome.transfer_secs,
            save_secs: outcome.save_secs,
            checkpoint_bytes: outcome.checkpoint_bytes,
            transfer_tensors: outcome.transfer.tensors as u64,
            transfer_bytes: outcome.transfer.bytes as u64,
            transfer_skipped: outcome.transfer.skipped as u64,
            epochs: outcome.epochs as u32,
        }
    }

    pub fn outcome(&self) -> EvalOutcome {
        EvalOutcome {
            id: self.id,
            score: self.score,
            train_secs: self.train_secs,
            transfer_secs: self.transfer_secs,
            save_secs: self.save_secs,
            checkpoint_bytes: self.checkpoint_bytes,
            transfer: TransferStats {
                tensors: self.transfer_tensors as usize,
                bytes: self.transfer_bytes as usize,
                skipped: self.transfer_skipped as usize,
            },
            epochs: self.epochs as usize,
        }
    }
}

/// Upper bound on timeline events per `Telemetry` frame. A drain larger
/// than this is split across frames by the sender; a frame carrying more is
/// refused.
pub const MAX_TELEMETRY_EVENTS: usize = 2048;

/// Upper bound on the per-frame event-name string table.
pub const MAX_TELEMETRY_NAMES: usize = 1024;

wire_struct! {
    /// Cumulative wall time of one span path, summed across worker slots —
    /// the in-flight analogue of a report's span rows (a worker process
    /// only ever attributes to its own slot, so the sum loses nothing).
    #[derive(Debug, Clone, PartialEq)]
    pub struct SpanTotalRow {
        pub path: String,
        pub count: u64,
        pub total_ns: u64,
    }
}

wire_struct! {
    /// One timeline event on the wire; `name` indexes the frame's string
    /// table. `kind` 0 = span (`dur_ns` meaningful), 1 = counter mark
    /// (`delta` meaningful).
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireEvent {
        pub name: u16,
        pub kind: u8,
        pub t_ns: u64,
        pub dur_ns: u64,
        pub delta: i64,
    }
}

wire_struct! {
    /// A worker's snapshot: the one way its metrics reach the coordinator,
    /// inside every `Result` and in a standalone `Telemetry` frame after
    /// each `Pong` and at teardown.
    ///
    /// `seq` increments per snapshot on each worker, and snapshots go on
    /// the wire in seq order; the coordinator ignores any snapshot whose seq
    /// is not strictly greater than the last applied one, so reordering or
    /// loss degrades to staleness, never corruption. Spans, counters,
    /// gauges and histograms are *cumulative since worker start*, so the
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
        pub spans: Vec<SpanTotalRow>,
        pub counters: Vec<CounterRow>,
        pub gauges: Vec<GaugeRow>,
        pub histograms: Vec<HistogramRow>,
        /// Event-name string table (`WireEvent::name` indexes into this),
        /// at most [`MAX_TELEMETRY_NAMES`] entries.
        pub names: Vec<String>,
        /// At most [`MAX_TELEMETRY_EVENTS`] per frame.
        pub events: Vec<WireEvent>,
    }
    check = Telemetry::check;
}

impl Telemetry {
    fn check(&self) -> Result<(), WireError> {
        ensure(self.names.len() <= MAX_TELEMETRY_NAMES, "telemetry name table too large")?;
        ensure(self.events.len() <= MAX_TELEMETRY_EVENTS, "telemetry event batch too large")?;
        self.events.iter().try_for_each(|ev| {
            ensure(
                (ev.name as usize) < self.names.len(),
                "telemetry event name index out of range",
            )?;
            ensure(ev.kind <= 1, "unknown telemetry event kind")
        })
    }

    /// Snapshot this process's live registry + timeline for the wire.
    ///
    /// Counters, gauges and histograms are the rows of one
    /// [`RunReport::capture`]; span totals sum each path over the worker
    /// slots. `cursor` is the caller-owned timeline read position for
    /// `worker_slot`; it advances to cover exactly the events taken, so an
    /// oversized drain simply spills into the next frame. Flushes the
    /// calling thread's buffered spans first so its own just-closed spans
    /// are visible.
    pub fn capture(seq: u64, worker_slot: usize, cursor: &mut u64) -> Telemetry {
        swt_obs::span::flush_thread();
        let RunReport { counters, gauges, histograms, .. } = RunReport::capture();
        let mut spans = Vec::new();
        swt_obs::registry::global().for_each_span(|path, stat| {
            let mut count = 0u64;
            let mut total_ns = 0u64;
            for slot in 0..=swt_obs::registry::WORKER_SLOTS {
                let (c, t, ..) = stat.snapshot(slot);
                count += c;
                total_ns += t;
            }
            if count > 0 {
                spans.push(SpanTotalRow { path: path.to_string(), count, total_ns });
            }
        });
        let drain = swt_obs::timeline::drain_since(worker_slot, *cursor);
        let mut names: Vec<String> = Vec::new();
        let mut events = Vec::new();
        let mut taken = 0usize;
        for ev in &drain.events {
            if events.len() >= MAX_TELEMETRY_EVENTS {
                break;
            }
            let idx = match names.iter().position(|n| n == &ev.name) {
                Some(i) => i,
                None if names.len() < MAX_TELEMETRY_NAMES => {
                    names.push(ev.name.clone());
                    names.len() - 1
                }
                // A saturated name table (pathological) drops the event;
                // the cursor still advances so the stream cannot stall.
                None => {
                    taken += 1;
                    continue;
                }
            };
            events.push(WireEvent {
                name: idx as u16,
                kind: match ev.kind {
                    swt_obs::timeline::EventKind::Span => 0,
                    swt_obs::timeline::EventKind::Counter => 1,
                },
                t_ns: ev.t_ns,
                dur_ns: ev.dur_ns,
                delta: ev.delta,
            });
            taken += 1;
        }
        *cursor = match drain.events.get(taken.wrapping_sub(1)) {
            Some(last) if taken > 0 => last.seq + 1,
            _ => drain.next_seq.max(*cursor),
        };
        Telemetry {
            seq,
            uptime_ns: swt_obs::timeline::now_ns(),
            dropped_events: drain.dropped,
            spans,
            counters,
            gauges,
            histograms,
            names,
            events,
        }
    }
}

wire_messages! {
    /// One protocol message: tag byte, then the fields in wire order.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Msg {
        0x01 => Hello { version: u32, worker_id: u64, pid: u32 },
        0x02 => HelloAck { version: u32, run: RunSpec },
        0x03 => Task { task: Task },
        /// One candidate's outcome and the snapshot taken right after its
        /// evaluation, so the work is counted with its result.
        0x04 => Result { result: TaskResult, telemetry: Telemetry },
        0x05 => Ping { nonce: u64 },
        0x06 => Pong { nonce: u64 },
        0x07 => Shutdown,
        0x08 => Error { message: String },
        /// A snapshot between results: after each `Pong` (heartbeat
        /// cadence, even mid-evaluation) and once at teardown, the last
        /// frame a worker sends before it closes its socket.
        0x0A => Telemetry { telemetry: Telemetry },
        /// Drain-then-close: the autoscaler picked this *idle* worker to
        /// shrink the pool. The worker sends its final snapshot and exits
        /// cleanly — same teardown as `Shutdown`, but initiated by a policy
        /// decision (`decision` is its tick, `reason` its context for the
        /// worker's log), so the coordinator counts the departure as a
        /// retirement, never a loss.
        0x0B => Retire { decision: u64, reason: String },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Message, PROTOCOL_VERSION};

    fn round_trip(msg: Msg) -> Result<(), WireError> {
        let payload = msg.encode()?;
        let back = Msg::decode(msg.tag(), &payload)?;
        assert_eq!(back, msg);
        Ok(())
    }

    /// Overwrite the bytes at `at` with `value`'s encoding — how the hostile
    /// frames below are made, since a bad value refuses to encode.
    fn patch<T: Wire>(payload: &mut [u8], at: usize, value: T) -> Result<(), WireError> {
        let mut bytes = Vec::new();
        value.put(&mut bytes)?;
        payload[at..at + bytes.len()].copy_from_slice(&bytes);
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
            autoscale: Some((1, 8)),
            ..sample_run()
        }))?;
        let cand = Candidate {
            id: 7,
            arch: ArchSeq::new(vec![1, 0, 4, 2]),
            parent: Some(3),
            live_from: 2,
        };
        assert_eq!(Task::new(&cand).into_candidate(), cand);
        round_trip(Msg::Task { task: Task::new(&cand) })?;
        round_trip(Msg::Task { task: Task::new(&Candidate::new(0, ArchSeq::new(vec![2]), None)) })?;
        let outcome = sample_outcome(7, 0.12345678901234567);
        let result = TaskResult::new(&outcome);
        assert_eq!(result.outcome(), outcome);
        round_trip(Msg::Result { result: result.clone(), telemetry: sample_telemetry() })?;
        round_trip(Msg::Result { result, telemetry: Telemetry::default() })?;
        round_trip(Msg::Ping { nonce: u64::MAX })?;
        round_trip(Msg::Pong { nonce: 0 })?;
        round_trip(Msg::Shutdown)?;
        round_trip(Msg::Error { message: "checkpoint store unreachable".into() })?;
        round_trip(Msg::Telemetry { telemetry: sample_telemetry() })?;
        round_trip(Msg::Telemetry { telemetry: Telemetry::default() })?;
        round_trip(Msg::Retire { decision: 17, reason: "pool drained to min".into() })?;
        Ok(())
    }

    fn sample_run() -> RunSpec {
        RunSpec {
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
            store_url: None,
            autoscale: None,
        }
    }

    fn sample_telemetry() -> Telemetry {
        Telemetry {
            seq: 42,
            uptime_ns: 1_000_000_007,
            spans: vec![
                SpanTotalRow { path: "nas.eval".into(), count: 5, total_ns: 5_000_000 },
                SpanTotalRow { path: "nas.queue_wait".into(), count: 5, total_ns: 700 },
            ],
            counters: vec![
                CounterRow { name: "ckpt.cache.hits".into(), value: 12 },
                CounterRow { name: "tensor.gemm.calls".into(), value: 4096 },
            ],
            gauges: vec![GaugeRow { name: "ckpt.cache.resident_bytes".into(), value: -1, max: 4 }],
            histograms: vec![HistogramRow {
                name: "ckpt.save_ns".into(),
                count: 3,
                sum: 900,
                // Includes the overflow bucket's bound.
                buckets: vec![(511, 2), (u64::MAX, 1)],
            }],
            names: vec!["nas.eval".into(), "nas.dispatch".into()],
            events: vec![
                WireEvent { name: 0, kind: 0, t_ns: 10, dur_ns: 90, delta: 0 },
                WireEvent { name: 1, kind: 1, t_ns: 120, dur_ns: 0, delta: -3 },
            ],
            dropped_events: 9,
        }
    }

    #[test]
    fn telemetry_rejects_hostile_payloads() -> Result<(), WireError> {
        // The check refuses a bad frame on encode, so build each one by
        // patching a good one: `events` is the last field, each event 27
        // bytes (name u16, kind u8, then three 8-byte fields).
        let good = Msg::Telemetry { telemetry: sample_telemetry() }.encode()?;
        let first_event = good.len() - 2 * 27;

        // Event referencing a name index beyond the table.
        let mut p = good.clone();
        patch(&mut p, first_event, sample_telemetry().names.len() as u16)?;
        assert!(matches!(
            Msg::decode(0x0A, &p),
            Err(WireError::Malformed("telemetry event name index out of range"))
        ));

        // Unknown event kind.
        let mut p = good;
        p[first_event + 2] = 7;
        assert!(matches!(
            Msg::decode(0x0A, &p),
            Err(WireError::Malformed("unknown telemetry event kind"))
        ));

        // One event or one name past its cap does not encode (the decode side
        // of both caps, every entry present, is in `tests/fuzz_decode.rs`).
        let event = WireEvent { name: 0, kind: 0, t_ns: 0, dur_ns: 0, delta: 0 };
        let t = Telemetry {
            names: vec!["n".into()],
            events: vec![event; MAX_TELEMETRY_EVENTS + 1],
            ..Default::default()
        };
        assert!(matches!(
            Msg::Telemetry { telemetry: t }.encode(),
            Err(WireError::Malformed("telemetry event batch too large"))
        ));
        let t =
            Telemetry { names: vec![String::new(); MAX_TELEMETRY_NAMES + 1], ..Default::default() };
        assert!(matches!(
            Msg::Telemetry { telemetry: t }.encode(),
            Err(WireError::Malformed("telemetry name table too large"))
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
    }

    #[test]
    fn scores_round_trip_bit_exactly() -> Result<(), WireError> {
        // NaN payloads and signed zeros must survive: identity gates compare
        // bit patterns, not approximate values.
        for bits in [f64::to_bits(-0.0), f64::NAN.to_bits() | 1, f64::MIN_POSITIVE.to_bits()] {
            let outcome = sample_outcome(1, f64::from_bits(bits));
            let result = TaskResult::new(&outcome);
            let telemetry = Telemetry::default();
            let decoded = Msg::decode(0x04, &Msg::Result { result, telemetry }.encode()?)?;
            let Msg::Result { result, .. } = decoded else {
                return Err(WireError::Malformed("wrong decode variant"));
            };
            assert_eq!(result.outcome().score.to_bits(), bits);
        }
        Ok(())
    }

    #[test]
    fn hostile_tasks_and_run_specs_are_rejected() -> Result<(), WireError> {
        // A watermark past the candidate itself, or past its provider:
        // refused on encode.
        let task = Task::new(&Candidate::new(1, ArchSeq::new(vec![2]), None));
        for bad in [
            Task { live_from: 2, ..task.clone() },
            Task { id: 5, parent: Some(1), live_from: 2, ..task },
        ] {
            assert!(matches!(Msg::Task { task: bad }.encode(), Err(WireError::Malformed(_))));
        }

        // Hostile pool bounds in a HelloAck: refused on encode…
        let full = RunSpec { autoscale: Some((1, 8)), ..sample_run() };
        for bounds in
            [(5u32, 2u32), (0, 3), (0, 0), (1, MAX_POOL_WORKERS as u32 + 1), (u32::MAX, u32::MAX)]
        {
            let run = RunSpec { autoscale: Some(bounds), ..full.clone() };
            assert!(
                matches!(hello_ack(run.clone()).encode(), Err(WireError::Malformed(_))),
                "{run:?} must not encode"
            );
        }
        // …and on decode (every hostile value is patched in by
        // `tests/fuzz_decode.rs`; here, one pair of pool bounds). With
        // `store_url: None` the payload ends [1][min u32][max u32].
        let good = hello_ack(full).encode()?;
        let n = good.len();
        let mut bad = good.clone();
        patch(&mut bad, n - 8, (5u32, 2u32))?;
        assert!(matches!(
            Msg::decode(0x02, &bad),
            Err(WireError::Malformed("hostile autoscale worker counts"))
        ));
        // No prefix of a frame is a frame: dropping the bounds, or half of
        // them, is malformed — never a default.
        for cut in [n - 4, n - 8, n - 9] {
            assert!(matches!(Msg::decode(0x02, &good[..cut]), Err(WireError::Malformed(_))));
        }
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
        let task = Task::new(&Candidate::new(1, ArchSeq::new(vec![2]), None));
        let mut bad = Msg::Task { task }.encode()?;
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
        for at in [4, 5, 4 + 2 + 8] {
            let mut bad = good.clone();
            bad[at] = 9;
            assert!(matches!(Msg::decode(0x02, &bad), Err(WireError::Malformed(_))));
        }
        Ok(())
    }
}
