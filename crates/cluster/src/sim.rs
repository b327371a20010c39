//! The discrete-event simulation itself.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use swt_nas::{NasTrace, TraceEvent};

/// The measured cost of evaluating one candidate, read off a run's trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCost {
    /// Training + validation, seconds.
    pub train_secs: f64,
    /// Provider read + matching + weight copy, seconds (0 without one).
    pub transfer_secs: f64,
    /// Checkpoint write, seconds.
    pub save_secs: f64,
    /// The rest of the evaluation (model build, eviction hints): what is
    /// left of `t_end − t_start` after the three above, floored at 0.
    pub dispatch_secs: f64,
}

impl TaskCost {
    /// One traced evaluation's cost.
    pub fn of(e: &TraceEvent) -> TaskCost {
        let measured = e.train_secs + e.transfer_secs + e.save_secs;
        TaskCost {
            train_secs: e.train_secs,
            transfer_secs: e.transfer_secs,
            save_secs: e.save_secs,
            dispatch_secs: (e.t_end - e.t_start - measured).max(0.0),
        }
    }

    /// Seconds a worker is busy with the candidate.
    pub fn secs(&self) -> f64 {
        self.train_secs + self.transfer_secs + self.save_secs + self.dispatch_secs
    }
}

/// Every candidate's cost, in id order (the order the runner proposes).
pub fn task_costs(trace: &NasTrace) -> Vec<TaskCost> {
    let mut events: Vec<&TraceEvent> = trace.events.iter().collect();
    events.sort_by_key(|e| e.id);
    events.into_iter().map(TaskCost::of).collect()
}

/// A simulated pool running the runner's dispatch discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Workers (GPUs), and the runner's dispatch window.
    pub gpus: usize,
    /// Candidates below this id are proposed as soon as a worker is idle:
    /// with the window's first `gpus − 1`, evolution's warm-up reads no
    /// score (`SearchStrategy::score_free_below`).
    pub score_free_below: usize,
    /// The coordinator's serial section per proposal, seconds: result
    /// hand-off, strategy step and submit, on one thread.
    pub serial_secs: f64,
}

impl ClusterConfig {
    /// `gpus` workers running `trace`'s search, whose strategy reads no
    /// score below `score_free_below`. The serial section is measured from
    /// the trace: the median, over candidates `j` the runner proposed at a
    /// report, of `t_start(j)` minus the report time of `j − W` (`W` the
    /// trace's worker count; a report comes when every lower id is done).
    ///
    /// # Panics
    /// If `gpus` is 0 or the trace's worker count is 0.
    pub fn measured(trace: &NasTrace, score_free_below: usize, gpus: usize) -> ClusterConfig {
        assert!(gpus > 0 && trace.workers > 0, "a pool needs at least one worker");
        let mut events: Vec<&TraceEvent> = trace.events.iter().collect();
        events.sort_by_key(|e| e.id);
        let reported: Vec<f64> = events
            .iter()
            .scan(0.0f64, |at, e| {
                *at = at.max(e.t_end);
                Some(*at)
            })
            .collect();
        let w = trace.workers;
        let mut gaps: Vec<f64> = (first_gated(score_free_below, w)..events.len())
            .map(|j| (events[j].t_start - reported[j - w]).max(0.0))
            .collect();
        gaps.sort_by(f64::total_cmp);
        let serial_secs = gaps.get(gaps.len() / 2).copied().unwrap_or(0.0);
        ClusterConfig { gpus, score_free_below, serial_secs }
    }
}

/// The first id the runner proposes only after report `id − window`.
fn first_gated(score_free_below: usize, window: usize) -> usize {
    score_free_below.saturating_add(window - 1).max(window)
}

/// Simulation outcome for one pool size.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// When the last candidate is reported (the Fig. 10 bar height).
    pub makespan: f64,
    /// Sum of per-task busy time across workers.
    pub busy_secs: f64,
    /// Seconds of that spent on the store: transfer + save.
    pub io_secs: f64,
    /// Mean worker utilisation in `[0, 1]`.
    pub utilization: f64,
    /// Number of tasks simulated.
    pub tasks: usize,
}

/// Run `tasks` (in id order) the way the runner does. Candidate `j` is
/// proposed after report `j − gpus` (reports come in id order), unless it
/// reads no score; each proposal then holds the one coordinator thread for
/// `serial_secs`, and the candidate starts on the first idle worker.
pub fn simulate(cfg: &ClusterConfig, tasks: &[TaskCost]) -> SimReport {
    assert!(cfg.gpus > 0, "cluster needs at least one GPU");
    let gated = first_gated(cfg.score_free_below, cfg.gpus);
    // Min-heap of worker free times.
    let mut workers: BinaryHeap<Reverse<OrderedF64>> =
        (0..cfg.gpus).map(|_| Reverse(OrderedF64(0.0))).collect();
    let mut reported: Vec<f64> = Vec::with_capacity(tasks.len());
    let (mut serial_free, mut busy_secs, mut io_secs) = (0.0f64, 0.0f64, 0.0f64);
    for (j, task) in tasks.iter().enumerate() {
        let Reverse(OrderedF64(worker_free)) = workers.pop().expect("worker pool non-empty");
        let due = if j < gated { 0.0 } else { reported[j - cfg.gpus] };
        let start = serial_free.max(worker_free).max(due) + cfg.serial_secs;
        serial_free = start;
        let end = start + task.secs();
        busy_secs += task.secs();
        io_secs += task.transfer_secs + task.save_secs;
        reported.push(reported.last().map_or(end, |&at| at.max(end)));
        workers.push(Reverse(OrderedF64(end)));
    }
    let makespan = reported.last().copied().unwrap_or(0.0);
    let utilization = if makespan > 0.0 { busy_secs / (makespan * cfg.gpus as f64) } else { 0.0 };
    SimReport { makespan, busy_secs, io_secs, utilization, tasks: tasks.len() }
}

/// Total-order f64 wrapper for the worker heap (finite values only).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("simulation times are finite")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swt_core::TransferScheme;
    use swt_space::ArchSeq;

    fn cfg(gpus: usize, score_free_below: usize, serial_secs: f64) -> ClusterConfig {
        ClusterConfig { gpus, score_free_below, serial_secs }
    }

    fn task(secs: f64) -> TaskCost {
        TaskCost { train_secs: secs, transfer_secs: 0.0, save_secs: 0.0, dispatch_secs: 0.0 }
    }

    fn event(id: u64, t_start: f64, t_end: f64) -> TraceEvent {
        TraceEvent {
            id,
            arch: ArchSeq::new(vec![0]),
            parent: None,
            score: 0.5,
            t_start,
            t_end,
            train_secs: (t_end - t_start) / 2.0,
            transfer_secs: 0.0,
            save_secs: (t_end - t_start) / 4.0,
            checkpoint_bytes: 1,
            transfer_tensors: 0,
            transfer_bytes: 0,
        }
    }

    fn long_tasks(n: usize) -> Vec<TaskCost> {
        vec![TaskCost { save_secs: 0.001, ..task(60.0) }; n]
    }

    #[test]
    fn single_gpu_is_serial() {
        let tasks = [task(1.0), task(2.0), task(3.0)];
        let r = simulate(&cfg(1, 0, 0.25), &tasks);
        assert!((r.makespan - (6.0 + 3.0 * 0.25)).abs() < 1e-12, "{}", r.makespan);
        assert!(r.utilization > 0.85);
    }

    #[test]
    fn long_tasks_scale_nearly_linearly() {
        // Training dominates: 8 -> 16 -> 32 GPUs halves the time each step,
        // proposal rule and all (equal costs report in waves).
        let tasks = long_tasks(400);
        let t = [8, 16, 32].map(|gpus| simulate(&cfg(gpus, 16, 0.05), &tasks).makespan);
        assert!((t[0] / t[1] - 2.0).abs() < 0.1, "8->16 speedup {}", t[0] / t[1]);
        assert!((t[1] / t[2] - 2.0).abs() < 0.15, "16->32 speedup {}", t[1] / t[2]);
    }

    #[test]
    fn short_tasks_hit_the_dispatch_bottleneck() {
        // The one coordinator thread spends 0.1 s per proposal: 1.1-second
        // candidates cannot keep 32 workers busy, so 16 -> 32 is sublinear.
        let tasks = vec![TaskCost { transfer_secs: 0.1, ..task(1.0) }; 400];
        let t16 = simulate(&cfg(16, 16, 0.1), &tasks).makespan;
        let t32 = simulate(&cfg(32, 16, 0.1), &tasks).makespan;
        assert!(t16 / t32 < 1.7, "short tasks must scale sublinearly, got {}", t16 / t32);
    }

    #[test]
    fn transfer_reads_add_overhead_vs_baseline() {
        let baseline = vec![TaskCost { save_secs: 0.01, ..task(5.0) }; 100];
        let transfer: Vec<TaskCost> =
            baseline.iter().map(|t| TaskCost { transfer_secs: 0.15, ..*t }).collect();
        let tb = simulate(&cfg(8, 16, 0.05), &baseline);
        let tt = simulate(&cfg(8, 16, 0.05), &transfer);
        assert!(tt.makespan > tb.makespan, "transfer adds store time");
        assert!(tt.io_secs > tb.io_secs);
        // But the overhead stays modest relative to training (Fig. 10's
        // "constant time overhead" observation for the long-training apps).
        assert!(tt.makespan / tb.makespan < 1.25);
    }

    #[test]
    fn utilization_and_accounting_are_consistent() {
        let tasks = long_tasks(37);
        let cfg = cfg(4, 16, 0.01);
        let r = simulate(&cfg, &tasks);
        assert_eq!(r.tasks, 37);
        assert!(r.utilization <= 1.0 + 1e-9);
        assert!(r.busy_secs <= r.makespan * cfg.gpus as f64 + 1e-9);
        assert!(r.io_secs < r.busy_secs);
    }

    #[test]
    fn empty_task_list_is_zero() {
        let r = simulate(&cfg(4, 16, 0.01), &[]);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.utilization, 0.0);
    }

    #[test]
    fn more_gpus_never_hurt() {
        let tasks: Vec<TaskCost> = (0..200)
            .map(|i| TaskCost {
                transfer_secs: 0.05 * (i % 3) as f64,
                save_secs: 0.01,
                ..task(1.0 + (i % 7) as f64)
            })
            .collect();
        let mut prev = f64::INFINITY;
        for gpus in [1, 2, 4, 8, 16, 32] {
            let t = simulate(&cfg(gpus, 16, 0.02), &tasks).makespan;
            assert!(t <= prev + 1e-9, "{gpus} GPUs slower than fewer");
            prev = t;
        }
    }

    #[test]
    fn a_gated_proposal_waits_for_every_lower_report() {
        // Two workers, nothing score-free past the window: candidates 2 and
        // 3 are proposed at reports 0 and 1, both when the slow candidate 0
        // is done, though candidate 1 left a worker idle at t = 1.
        let tasks = [task(5.0), task(1.0), task(1.0), task(1.0)];
        let gated = simulate(&cfg(2, 0, 0.0), &tasks);
        assert_eq!(gated.makespan, 6.0);
        // Score-free, the idle worker takes candidates 2 and 3 at once.
        let free = simulate(&cfg(2, usize::MAX, 0.0), &tasks);
        assert_eq!(free.makespan, 5.0);
        assert!(free.utilization > gated.utilization);
    }

    #[test]
    fn costs_and_the_serial_section_come_from_the_trace() {
        // Window 1, nothing score-free: each candidate starts 0.125 s after
        // the one before it is reported.
        let events: Vec<TraceEvent> =
            (0..5).map(|i| event(i, 1.125 * i as f64 + 0.125, 1.125 * (i + 1) as f64)).collect();
        let trace = NasTrace {
            app: "Uno".into(),
            scheme: TransferScheme::Lcs,
            seed: 1,
            workers: 1,
            events: events.into_iter().rev().collect(),
            wall_secs: 5.625,
        };
        let tasks = task_costs(&trace);
        assert_eq!(tasks[0], TaskCost::of(&trace.events[4]), "id order, whatever the rows");
        assert!((tasks[0].dispatch_secs - 0.25).abs() < 1e-12 && tasks[0].secs() == 1.0);
        let cfg = ClusterConfig::measured(&trace, 0, 1);
        assert_eq!(cfg.serial_secs, 0.125);
        let replayed = simulate(&cfg, &tasks).makespan;
        assert!((replayed - trace.wall_secs).abs() < 1e-12, "{replayed}");
    }
}
