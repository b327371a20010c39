//! Fixed-width time-slot binning for Fig. 7-style score-over-time curves.
//!
//! The paper groups candidate completions into 50-second slots ("after a
//! candidate model is evaluated and returns at time `t` with score `r`, we
//! plot the point `(50 * ceil(t / 50), r)`") and reports per-slot means with
//! 95% confidence intervals. [`SlotBinner`] reproduces that transform for an
//! arbitrary slot width.

use crate::welford::Welford;

/// Aggregated statistics for one time slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotStat {
    /// Right edge of the slot (`width * ceil(t / width)`), in the same unit
    /// as the pushed timestamps.
    pub slot_end: f64,
    /// Number of observations that landed in the slot.
    pub n: u64,
    /// Mean score of the slot.
    pub mean: f64,
    /// Half-width of the normal-approximation 95% CI (`1.96 * sem`), the
    /// shaded band of Fig. 7.
    pub ci95: f64,
}

/// Bins `(time, score)` observations into fixed-width slots.
#[derive(Debug, Clone)]
pub struct SlotBinner {
    width: f64,
    slots: Vec<Welford>,
}

impl SlotBinner {
    /// Create a binner with the given slot width (seconds in the paper;
    /// any positive unit works).
    ///
    /// # Panics
    /// Panics if `width` is not strictly positive.
    pub fn new(width: f64) -> Self {
        assert!(width > 0.0, "slot width must be positive");
        SlotBinner { width, slots: Vec::new() }
    }

    /// Slot index for a timestamp: `ceil(t / width)`, clamped so `t = 0`
    /// lands in the first slot.
    fn slot_index(&self, t: f64) -> usize {
        assert!(t >= 0.0, "timestamps must be non-negative");
        let idx = (t / self.width).ceil() as usize;
        idx.max(1) - 1
    }

    /// Record a score observed at time `t`.
    pub fn push(&mut self, t: f64, score: f64) {
        let idx = self.slot_index(t);
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, Welford::new());
        }
        self.slots[idx].push(score);
    }

    /// Per-slot statistics in time order. Empty slots are skipped (the paper
    /// only plots slots that received at least one completion).
    pub fn stats(&self) -> Vec<SlotStat> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, w)| w.count() > 0)
            .map(|(i, w)| SlotStat {
                slot_end: (i as f64 + 1.0) * self.width,
                n: w.count(),
                mean: w.mean(),
                ci95: 1.96 * w.sem(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_slot_rule() {
        // t = 50 must land in the first slot (ceil(50/50) = 1), t = 50.1 in
        // the second, exactly as (50 * ceil(t/50)).
        let mut b = SlotBinner::new(50.0);
        b.push(50.0, 1.0);
        b.push(50.1, 2.0);
        b.push(0.0, 3.0);
        let stats = b.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].slot_end, 50.0);
        assert_eq!(stats[0].n, 2); // t = 0 and t = 50
        assert_eq!(stats[1].slot_end, 100.0);
        assert_eq!(stats[1].n, 1);
    }

    #[test]
    fn slot_means_and_ci() {
        let mut b = SlotBinner::new(10.0);
        for (t, s) in [(1.0, 0.5), (2.0, 0.7), (9.0, 0.6)] {
            b.push(t, s);
        }
        let stats = b.stats();
        assert_eq!(stats.len(), 1);
        assert!((stats[0].mean - 0.6).abs() < 1e-12);
        assert!(stats[0].ci95 > 0.0);
    }

    #[test]
    fn empty_slots_are_skipped() {
        let mut b = SlotBinner::new(1.0);
        b.push(0.5, 1.0);
        b.push(5.0, 2.0);
        let stats = b.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].slot_end, 1.0);
        assert_eq!(stats[1].slot_end, 5.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        SlotBinner::new(0.0);
    }
}
