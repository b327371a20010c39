//! The autoscaling policy: a pure, wall-clock-free function of observed
//! pool state (DESIGN.md §13).
//!
//! [`ScalePolicy::decide`] consumes the same [`LiveRunView`] that `/status`
//! and `dist-top` render — queue depth, in-flight count, live/idle workers
//! and the EWMA per-candidate cost — and returns a [`ScaleDecision`]:
//! grow, shrink or hold. The *actuator* (the coordinator) turns a grow into
//! spawned `swt dist-worker` children and a shrink into `Retire` frames to
//! idle workers; the policy itself never touches a socket or a process.
//!
//! Determinism contract: decisions are a pure function of the sequence of
//! snapshots fed to `decide` plus the [`PolicyConfig`]. There is no clock
//! anywhere — cooldown and idle patience are counted in *decision ticks*
//! (one per `decide` call), so a scripted view sequence replays to a
//! byte-identical decision log on any host. That is what makes the policy
//! testable by simulation (`crates/dist/tests/policy_props.rs`) and
//! replayable against the `swt-cluster` cost model (`bench_autoscale`).
//!
//! Scheduling stays untouched by construction: the policy reads the view
//! and proposes a pool size; `DistBackend::capacity()` (the dispatch
//! window) never changes, so *which candidate* runs, and in what order the
//! strategy sees results, is identical to a fixed-pool run — only *which
//! process* evaluates it moves. Canonical traces therefore stay
//! bit-identical with autoscaling on or off.

use crate::live::LiveRunView;
use std::fmt;

/// Hard ceiling on any configured worker pool — shared with `RunSpec`'s
/// range check on the wire, so a hostile peer cannot announce an absurd pool
/// either.
pub const MAX_POOL_WORKERS: usize = 4096;

/// Upper bound on retained decision-log lines. The oldest are dropped
/// first (and counted) — monitoring state must stay bounded on long runs.
pub const MAX_DECISION_LOG: usize = 4096;

/// What the policy sees at one decision tick — a plain-data snapshot of
/// [`LiveRunView`], extracted by [`LiveRunView::pool_snapshot`]. Tests and
/// the `swt-cluster` replay harness construct these directly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolSnapshot {
    /// Submitted candidates not yet handed to a worker.
    pub queue_depth: usize,
    /// Candidates handed to a worker, result still pending.
    pub inflight: usize,
    /// Live workers able to take work (alive and not retiring).
    pub live: usize,
    /// Subset of `live` with no candidate assigned.
    pub idle: usize,
    /// Spawned workers that have not completed their handshake yet —
    /// capacity already paid for; the policy must not double-grow on it.
    pub connecting: usize,
    /// Results delivered so far.
    pub results: u64,
    /// EWMA of submit-to-delivery wall cost per candidate, seconds.
    pub ewma_secs: f64,
}

impl PoolSnapshot {
    /// Work the pool still owes the strategy: queued plus in-flight.
    pub fn outstanding(&self) -> usize {
        self.queue_depth + self.inflight
    }

    /// Capacity once pending spawns land: live plus connecting.
    pub fn effective(&self) -> usize {
        self.live + self.connecting
    }
}

/// One scaling decision. Counts are bounded by the config: a `Grow` never
/// pushes `live + connecting` past `max_workers`, a `Shrink` never takes
/// the pool below `min_workers` and only ever names idle workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    Hold,
    /// Spawn this many extra workers.
    Grow(usize),
    /// Retire this many idle workers (drain-then-close).
    Shrink(usize),
}

impl fmt::Display for ScaleDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleDecision::Hold => write!(f, "hold"),
            ScaleDecision::Grow(n) => write!(f, "grow +{n}"),
            ScaleDecision::Shrink(n) => write!(f, "shrink -{n}"),
        }
    }
}

/// Why a [`PolicyConfig`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// `min_workers` must be ≥ 1 — the pool can never scale to zero.
    ZeroMinWorkers,
    /// `min_workers` must not exceed `max_workers`.
    MinAboveMax { min: usize, max: usize },
    /// `max_workers` beyond [`MAX_POOL_WORKERS`].
    MaxAboveCap { max: usize },
    /// `backlog_per_worker` must be a finite, non-negative threshold.
    BadBacklogThreshold,
    /// A wall/cost target must be finite and positive when set.
    BadTarget(&'static str),
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::ZeroMinWorkers => write!(f, "min_workers must be at least 1"),
            PolicyError::MinAboveMax { min, max } => {
                write!(f, "min_workers {min} exceeds max_workers {max}")
            }
            PolicyError::MaxAboveCap { max } => {
                write!(f, "max_workers {max} exceeds the pool cap {MAX_POOL_WORKERS}")
            }
            PolicyError::BadBacklogThreshold => {
                write!(f, "backlog_per_worker must be finite and non-negative")
            }
            PolicyError::BadTarget(which) => {
                write!(f, "{which} must be finite and positive when set")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// Tuning knobs for [`ScalePolicy`]. All units are decision ticks or
/// workers — never seconds of wall clock (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyConfig {
    /// The pool never shrinks below this many live workers (≥ 1).
    pub min_workers: usize,
    /// The pool (live + connecting) never grows past this.
    pub max_workers: usize,
    /// After any grow/shrink, hold for this many ticks — the anti-flapping
    /// half of the hysteresis story.
    pub cooldown_ticks: u64,
    /// Grow watermark: grow when `queue_depth > backlog_per_worker ×
    /// (live + connecting)`. The shrink condition (queue exactly empty,
    /// workers idle) sits strictly below it, so the two can never both
    /// fire — the other half of the hysteresis story.
    pub backlog_per_worker: f64,
    /// Consecutive ticks of (empty queue, idle workers, nothing
    /// connecting) required before a shrink. Absorbs the transient idleness
    /// between a result and the next dispatch.
    pub idle_patience: u64,
    /// Workers added per grow decision (growth is gradual by design; the
    /// cooldown then judges the effect before the next step).
    pub grow_step: usize,
    /// Wall-clock budget for the remaining work, seconds. When the
    /// projected completion (`outstanding × ewma / effective`) exceeds it,
    /// the policy grows even without a queue backlog.
    pub target_wall_secs: Option<f64>,
    /// Cost budget, worker-seconds per evaluation wave: the pool is capped
    /// so `workers × ewma ≤ budget`, i.e. one wave of concurrent
    /// evaluations never costs more than this.
    pub cost_budget_secs: Option<f64>,
}

impl Default for PolicyConfig {
    fn default() -> PolicyConfig {
        PolicyConfig {
            min_workers: 1,
            max_workers: 8,
            cooldown_ticks: 2,
            backlog_per_worker: 0.5,
            idle_patience: 2,
            grow_step: 1,
            target_wall_secs: None,
            cost_budget_secs: None,
        }
    }
}

impl PolicyConfig {
    /// A policy bounded by `[min, max]` workers, other knobs at defaults.
    pub fn bounded(min_workers: usize, max_workers: usize) -> PolicyConfig {
        PolicyConfig { min_workers, max_workers, ..PolicyConfig::default() }
    }

    /// Check every invariant [`ScalePolicy::new`] relies on.
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.min_workers == 0 {
            return Err(PolicyError::ZeroMinWorkers);
        }
        if self.min_workers > self.max_workers {
            return Err(PolicyError::MinAboveMax { min: self.min_workers, max: self.max_workers });
        }
        if self.max_workers > MAX_POOL_WORKERS {
            return Err(PolicyError::MaxAboveCap { max: self.max_workers });
        }
        if !self.backlog_per_worker.is_finite() || self.backlog_per_worker < 0.0 {
            return Err(PolicyError::BadBacklogThreshold);
        }
        for (name, target) in [
            ("target_wall_secs", self.target_wall_secs),
            ("cost_budget_secs", self.cost_budget_secs),
        ] {
            if let Some(t) = target {
                if !t.is_finite() || t <= 0.0 {
                    return Err(PolicyError::BadTarget(name));
                }
            }
        }
        Ok(())
    }
}

/// The policy state machine (DESIGN.md §13): config plus exactly the state
/// hysteresis needs — the tick counter, the last-action tick and the
/// consecutive-idle counter — and the decision log.
#[derive(Debug)]
pub struct ScalePolicy {
    cfg: PolicyConfig,
    /// Decision ticks elapsed (one per `decide` call).
    tick: u64,
    /// Tick of the last non-hold decision; `None` before the first.
    last_action: Option<u64>,
    /// Consecutive ticks the shrink condition has held.
    idle_ticks: u64,
    grows: u64,
    shrinks: u64,
    holds: u64,
    log: Vec<String>,
    log_dropped: u64,
}

impl ScalePolicy {
    pub fn new(cfg: PolicyConfig) -> Result<ScalePolicy, PolicyError> {
        cfg.validate()?;
        Ok(ScalePolicy {
            cfg,
            tick: 0,
            last_action: None,
            idle_ticks: 0,
            grows: 0,
            shrinks: 0,
            holds: 0,
            log: Vec::new(),
            log_dropped: 0,
        })
    }

    pub fn config(&self) -> &PolicyConfig {
        &self.cfg
    }

    /// Ticks elapsed — the policy's only notion of time.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// `(grow, shrink, hold)` decision tallies.
    pub fn tally(&self) -> (u64, u64, u64) {
        (self.grows, self.shrinks, self.holds)
    }

    /// The retained decision-log lines, oldest first (bounded by
    /// [`MAX_DECISION_LOG`]; `log_dropped` counts evictions).
    pub fn log(&self) -> &[String] {
        &self.log
    }

    pub fn log_dropped(&self) -> u64 {
        self.log_dropped
    }

    /// The full retained log as one newline-terminated string — what the
    /// determinism property pins byte-for-byte.
    pub fn log_text(&self) -> String {
        let mut out = String::new();
        for line in &self.log {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Decide against the live view — the production entry point: one call
    /// per coordinator decision tick, reading the same view `/status`
    /// serves.
    pub fn decide(&mut self, view: &LiveRunView) -> ScaleDecision {
        let snap = view.pool_snapshot();
        self.decide_snapshot(&snap)
    }

    /// Decide against an explicit snapshot — the simulation/test entry
    /// point ([`crate::live::LiveRunView::pool_snapshot`] produces the
    /// production input; scripted sequences and the `swt-cluster` replay
    /// build snapshots directly).
    pub fn decide_snapshot(&mut self, s: &PoolSnapshot) -> ScaleDecision {
        self.tick += 1;
        // Hysteresis state advances every tick, including cooldown ticks:
        // patience measures how long the pool has *actually* been drained,
        // not how long we have been allowed to act on it.
        let idle_now = s.queue_depth == 0 && s.idle > 0 && s.connecting == 0;
        self.idle_ticks = if idle_now { self.idle_ticks + 1 } else { 0 };

        let decision = self.evaluate(s, idle_now);
        match decision {
            ScaleDecision::Hold => self.holds += 1,
            ScaleDecision::Grow(_) => {
                self.grows += 1;
                self.last_action = Some(self.tick);
            }
            ScaleDecision::Shrink(_) => {
                self.shrinks += 1;
                self.last_action = Some(self.tick);
                self.idle_ticks = 0;
            }
        }
        let line = format!(
            "t={} q={} inflight={} live={} idle={} conn={} ewma_ms={:.3} -> {}",
            self.tick,
            s.queue_depth,
            s.inflight,
            s.live,
            s.idle,
            s.connecting,
            s.ewma_secs * 1e3,
            decision
        );
        if self.log.len() >= MAX_DECISION_LOG {
            self.log.remove(0);
            self.log_dropped += 1;
        }
        self.log.push(line);
        decision
    }

    fn evaluate(&self, s: &PoolSnapshot, idle_now: bool) -> ScaleDecision {
        let cfg = &self.cfg;
        if let Some(last) = self.last_action {
            if self.tick.saturating_sub(last) <= cfg.cooldown_ticks {
                return ScaleDecision::Hold;
            }
        }
        let effective = s.effective();
        let outstanding = s.outstanding();

        // Grow signals: queue backlog past the watermark, or a wall-clock
        // target the current pool cannot meet. Both need *work to exist* —
        // monotonicity (more queued work never shrinks) falls out of the
        // queue==0 guard on the shrink branch below.
        let backlog = s.queue_depth as f64 > cfg.backlog_per_worker * effective as f64;
        let projected = if effective > 0 && s.ewma_secs > 0.0 {
            outstanding as f64 * s.ewma_secs / effective as f64
        } else {
            0.0
        };
        let wall_pressure = cfg.target_wall_secs.is_some_and(|t| projected > t);
        if (backlog || wall_pressure) && effective < cfg.max_workers {
            let mut want = cfg.grow_step.max(1).min(cfg.max_workers - effective);
            // Never provision past the work that exists: extra workers
            // beyond `outstanding` are pure idle cost.
            want = want.min(outstanding.saturating_sub(effective));
            // Cost budget: cap the pool so one wave of concurrent
            // evaluations (workers × ewma) stays within budget.
            if let Some(budget) = cfg.cost_budget_secs {
                if s.ewma_secs > 0.0 {
                    let cap = ((budget / s.ewma_secs) as usize).max(cfg.min_workers);
                    want = want.min(cap.saturating_sub(effective));
                }
            }
            if want > 0 {
                return ScaleDecision::Grow(want);
            }
            return ScaleDecision::Hold;
        }

        // Shrink: only a provably drained pool — queue empty, workers idle,
        // nothing connecting — and only after `idle_patience` consecutive
        // such ticks. Never below `min_workers`, never a busy worker.
        if idle_now && self.idle_ticks > cfg.idle_patience && s.live > cfg.min_workers {
            let n = s.idle.min(s.live - cfg.min_workers);
            if n > 0 {
                return ScaleDecision::Shrink(n);
            }
        }
        ScaleDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(queue: usize, inflight: usize, live: usize, idle: usize) -> PoolSnapshot {
        PoolSnapshot {
            queue_depth: queue,
            inflight,
            live,
            idle,
            connecting: 0,
            results: 0,
            ewma_secs: 0.1,
        }
    }

    #[test]
    fn backlog_grows_and_cooldown_holds() -> Result<(), PolicyError> {
        let mut p = ScalePolicy::new(PolicyConfig::bounded(1, 4))?;
        assert_eq!(p.decide_snapshot(&snap(3, 1, 1, 0)), ScaleDecision::Grow(1));
        // Within the cooldown the same pressure holds.
        assert_eq!(p.decide_snapshot(&snap(3, 1, 1, 0)), ScaleDecision::Hold);
        assert_eq!(p.decide_snapshot(&snap(3, 1, 1, 0)), ScaleDecision::Hold);
        assert_eq!(p.decide_snapshot(&snap(3, 1, 1, 0)), ScaleDecision::Grow(1));
        Ok(())
    }

    #[test]
    fn drained_pool_shrinks_to_min_after_patience() -> Result<(), PolicyError> {
        let mut p = ScalePolicy::new(PolicyConfig::bounded(1, 4))?;
        assert_eq!(p.decide_snapshot(&snap(0, 1, 3, 2)), ScaleDecision::Hold);
        assert_eq!(p.decide_snapshot(&snap(0, 1, 3, 2)), ScaleDecision::Hold);
        assert_eq!(p.decide_snapshot(&snap(0, 1, 3, 2)), ScaleDecision::Shrink(2));
        Ok(())
    }

    #[test]
    fn connecting_capacity_suppresses_double_grow() -> Result<(), PolicyError> {
        let mut p =
            ScalePolicy::new(PolicyConfig { cooldown_ticks: 0, ..PolicyConfig::bounded(1, 4) })?;
        let s = PoolSnapshot { connecting: 3, ..snap(1, 1, 1, 0) };
        // live+connecting = 4 = max; queue 1 is under the 0.5×4 watermark
        // anyway — either way, no further grow.
        assert_eq!(p.decide_snapshot(&s), ScaleDecision::Hold);
        Ok(())
    }

    #[test]
    fn never_provisions_past_outstanding_work() -> Result<(), PolicyError> {
        let mut p =
            ScalePolicy::new(PolicyConfig { grow_step: 8, ..PolicyConfig::bounded(1, 16) })?;
        // 2 queued + 1 in flight on 1 worker: grow to 3, not to 9.
        assert_eq!(p.decide_snapshot(&snap(2, 1, 1, 0)), ScaleDecision::Grow(2));
        Ok(())
    }

    #[test]
    fn cost_budget_caps_the_wave() -> Result<(), PolicyError> {
        let mut p = ScalePolicy::new(PolicyConfig {
            grow_step: 8,
            cost_budget_secs: Some(0.25), // ewma 0.1 s → at most 2 workers
            ..PolicyConfig::bounded(1, 16)
        })?;
        assert_eq!(p.decide_snapshot(&snap(10, 1, 1, 0)), ScaleDecision::Grow(1));
        Ok(())
    }

    #[test]
    fn wall_target_grows_without_backlog() -> Result<(), PolicyError> {
        let mut p = ScalePolicy::new(PolicyConfig {
            backlog_per_worker: 1e9, // backlog signal off
            target_wall_secs: Some(0.5),
            ..PolicyConfig::bounded(1, 8)
        })?;
        // 10 outstanding × 0.1 s / 2 workers = 0.5 s projected — at the
        // target, no pressure.
        assert_eq!(p.decide_snapshot(&snap(2, 8, 2, 0)), ScaleDecision::Hold);
        // 20 outstanding: projected 1.0 s > 0.5 s — grow.
        assert_eq!(p.decide_snapshot(&snap(2, 18, 2, 0)), ScaleDecision::Grow(1));
        Ok(())
    }

    #[test]
    fn config_validation_rejects_bad_bounds() {
        assert_eq!(PolicyConfig::bounded(0, 4).validate(), Err(PolicyError::ZeroMinWorkers));
        assert_eq!(
            PolicyConfig::bounded(5, 4).validate(),
            Err(PolicyError::MinAboveMax { min: 5, max: 4 })
        );
        assert_eq!(
            PolicyConfig::bounded(1, MAX_POOL_WORKERS + 1).validate(),
            Err(PolicyError::MaxAboveCap { max: MAX_POOL_WORKERS + 1 })
        );
        let bad = PolicyConfig { target_wall_secs: Some(0.0), ..PolicyConfig::default() };
        assert_eq!(bad.validate(), Err(PolicyError::BadTarget("target_wall_secs")));
        let bad = PolicyConfig { backlog_per_worker: f64::NAN, ..PolicyConfig::default() };
        assert_eq!(bad.validate(), Err(PolicyError::BadBacklogThreshold));
    }

    #[test]
    fn decides_against_a_scripted_live_view() -> Result<(), PolicyError> {
        // The production entry point: a real LiveRunView, scripted.
        let view = LiveRunView::new();
        view.worker_added(0);
        view.set_current(0, Some(1));
        view.set_queue(3, 1);
        view.record_result(0, 0.1);
        view.set_current(0, Some(2));
        let mut p = ScalePolicy::new(PolicyConfig::bounded(1, 4))?;
        assert_eq!(p.decide(&view), ScaleDecision::Grow(1));
        Ok(())
    }
}
