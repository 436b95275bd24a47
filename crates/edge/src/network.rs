//! The wireless network model.
//!
//! The paper "use[s] the same maximum bandwidth as measured in [9]" (EMP,
//! MobiCom'21). Those LTE/5G traces are not available, so — per DESIGN.md
//! substitution 4 — we fix representative constants: a per-vehicle uplink
//! and a shared downlink, both accounted per 100 ms LiDAR frame.

use crate::FaultModel;

/// Network parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Uplink throughput available to each vehicle, bits/s.
    pub uplink_bps: f64,
    /// Shared downlink throughput for dissemination, bits/s. The per-frame
    /// byte budget derived from this is the knapsack bound `B`.
    ///
    /// Unlike the per-vehicle uplink, the downlink is one broadcast budget
    /// shared by every dissemination in the cell, so it is deliberately an
    /// order of magnitude below the sum of receiver link rates — this is
    /// the constraint that makes the scheduling problem non-trivial (and
    /// that EMP's relevance-blind round robin trips over).
    pub downlink_bps: f64,
    /// LiDAR frame period, seconds ([`erpd_sim::FRAME_PERIOD`] by default).
    pub frame_period: f64,
    /// Channel impairments (loss, jitter, churn, truncation). Ideal — no
    /// impairment at all — by default.
    pub fault: FaultModel,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            uplink_bps: 40e6,   // 40 Mbit/s per vehicle
            downlink_bps: 8e6, // 8 Mbit/s shared broadcast budget
            frame_period: erpd_sim::FRAME_PERIOD,
            fault: FaultModel::default(),
        }
    }
}

/// One-way base latency (scheduling + propagation), seconds.
const BASE_LATENCY: f64 = 0.008;

impl NetworkConfig {
    /// Returns the configuration with the shared downlink rate replaced.
    pub fn with_downlink_bps(mut self, downlink_bps: f64) -> Self {
        self.downlink_bps = downlink_bps;
        self
    }

    /// Returns the configuration with the LiDAR frame period replaced.
    pub fn with_frame_period(mut self, frame_period: f64) -> Self {
        self.frame_period = frame_period;
        self
    }

    /// Returns the configuration with the channel impairments replaced.
    pub fn with_fault(mut self, fault: FaultModel) -> Self {
        self.fault = fault;
        self
    }

    /// Per-vehicle uplink budget per frame, bytes.
    pub(crate) fn uplink_budget_bytes(&self) -> u64 {
        (self.uplink_bps * self.frame_period / 8.0) as u64
    }

    /// Shared downlink budget per frame, bytes — the `B` of the
    /// dissemination knapsack.
    pub fn downlink_budget_bytes(&self) -> u64 {
        (self.downlink_bps * self.frame_period / 8.0) as u64
    }

    /// Transmission time of a payload on the uplink, seconds.
    pub(crate) fn uplink_time(&self, bytes: u64) -> f64 {
        BASE_LATENCY + bytes as f64 * 8.0 / self.uplink_bps
    }

    /// Transmission time of a payload on the downlink, seconds.
    pub(crate) fn downlink_time(&self, bytes: u64) -> f64 {
        BASE_LATENCY + bytes as f64 * 8.0 / self.downlink_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_follow_rates() {
        let n = NetworkConfig::default();
        assert_eq!(n.uplink_budget_bytes(), 500_000);
        assert_eq!(n.downlink_budget_bytes(), 100_000);
    }

    #[test]
    fn times_scale_with_payload() {
        let n = NetworkConfig::default();
        let t_small = n.uplink_time(10_000);
        let t_big = n.uplink_time(1_000_000);
        assert!(t_big > t_small);
        // 1 MB at 40 Mbit/s = 0.2 s plus base latency.
        assert!((t_big - (BASE_LATENCY + 0.2)).abs() < 1e-9);
        // Downlink is the slower shared pipe.
        assert!(n.downlink_time(100_000) > n.uplink_time(100_000));
    }
}
