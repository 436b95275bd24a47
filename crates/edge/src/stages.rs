//! Per-stage observability: scoped wall-clock timers and item counters
//! for the six pipeline stages — extraction, merge, tracking, prediction,
//! relevance, and knapsack — surfaced per frame through
//! [`FrameReport::stages`](crate::FrameReport).
//!
//! The stage clock measures wall time only; item counts are deterministic,
//! so a [`StageTimes`] compares equal across reruns everywhere except its
//! `seconds` fields.

use std::time::Instant;

/// One stage's measurement for one frame: wall time plus how many items
/// the stage handled (uploads extracted, detections tracked, candidate
/// pairs ranked, ...).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageSample {
    /// Wall time spent in the stage, seconds.
    pub seconds: f64,
    /// Work items the stage processed this frame.
    pub items: usize,
}

impl StageSample {
    /// A sample with an explicit duration and item count.
    pub fn new(seconds: f64, items: usize) -> Self {
        StageSample { seconds, items }
    }

    /// Folds another sample in: durations take the per-frame maximum
    /// (stages on different servers run concurrently), item counts add.
    pub(crate) fn fold_max(&mut self, other: StageSample) {
        self.seconds = self.seconds.max(other.seconds);
        self.items += other.items;
    }
}

/// A scoped stage timer: start it, do the work, then [`stop`](Self::stop)
/// with the number of items handled to get the [`StageSample`].
#[derive(Debug)]
pub(crate) struct StageTimer {
    start: Instant,
}

impl StageTimer {
    /// Starts the clock.
    pub fn start() -> Self {
        StageTimer { start: Instant::now() }
    }

    /// Stops the clock and records how many items the stage processed.
    pub fn stop(self, items: usize) -> StageSample {
        StageSample {
            seconds: self.start.elapsed().as_secs_f64(),
            items,
        }
    }
}

/// Per-frame timings and counters for every pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimes {
    /// On-vehicle object extraction (slowest vehicle this frame).
    pub extraction: StageSample,
    /// Traffic-map merge: voxel dedup plus cross-vehicle association.
    pub merge: StageSample,
    /// Tracker update and connected-vehicle state assembly.
    pub tracking: StageSample,
    /// Rules 1–3 selection plus trajectory prediction.
    pub prediction: StageSample,
    /// Relevance-matrix assembly.
    pub relevance: StageSample,
    /// Dissemination planning (greedy knapsack or baseline).
    pub knapsack: StageSample,
}

impl StageTimes {
    /// The stages in pipeline order: extraction, merge, tracking,
    /// prediction, relevance, knapsack.
    pub fn iter(&self) -> [StageSample; 6] {
        [
            self.extraction,
            self.merge,
            self.tracking,
            self.prediction,
            self.relevance,
            self.knapsack,
        ]
    }

    /// Folds another frame's server-side stages in (concurrent V2V
    /// servers): durations take the maximum, item counts add.
    pub(crate) fn fold_max(&mut self, other: &StageTimes) {
        self.extraction.fold_max(other.extraction);
        self.merge.fold_max(other.merge);
        self.tracking.fold_max(other.tracking);
        self.prediction.fold_max(other.prediction);
        self.relevance.fold_max(other.relevance);
        self.knapsack.fold_max(other.knapsack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_produces_positive_sample() {
        let t = StageTimer::start();
        let mut acc = 0u64;
        for i in 0..1000u64 {
            acc = acc.wrapping_add(i * i);
        }
        let s = t.stop(acc as usize % 7 + 1);
        assert!(s.seconds >= 0.0);
        assert!(s.items >= 1);
    }

    #[test]
    fn fold_max_takes_slowest_and_sums_items() {
        let mut a = StageTimes {
            merge: StageSample::new(0.002, 3),
            ..StageTimes::default()
        };
        let b = StageTimes {
            merge: StageSample::new(0.005, 4),
            tracking: StageSample::new(0.001, 2),
            ..StageTimes::default()
        };
        a.fold_max(&b);
        assert_eq!(a.merge, StageSample::new(0.005, 7));
        assert_eq!(a.tracking, StageSample::new(0.001, 2));
    }
}
