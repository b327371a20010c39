//! Statistics utilities for the selective-weight-transfer NAS reproduction.
//!
//! This crate is dependency-light and purely numerical. It provides exactly
//! the statistics the paper's evaluation relies on:
//!
//! * [`kendall_tau`] — Kendall's rank correlation, used by Fig. 9 to compare
//!   estimated candidate scores against fully-trained objective metrics.
//! * [`Summary`] — mean / standard deviation / 95% confidence intervals, used
//!   throughout (Fig. 7 bands, Table III `mean ± std` rows).
//! * [`geometric_mean`] — the cross-application speedup aggregation of Fig. 8.
//! * [`SlotBinner`] — the fixed-width time-slot binning of Fig. 7.
//! * [`Welford`] — numerically stable online mean/variance accumulation.

pub mod binning;
pub mod kendall;
pub mod summary;
pub mod welford;

pub use binning::{SlotBinner, SlotStat};
pub use kendall::{kendall_tau, kendall_tau_b, ConcordanceCounts};
pub use summary::{geometric_mean, mean, median, percentile, std_dev, Summary};
pub use welford::Welford;
