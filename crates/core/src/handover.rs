//! Region types and the cross-edge handover message.
//!
//! A city-scale deployment shards the map into rectangular coverage
//! [`Region`]s, one per edge server. When a vehicle crosses from one
//! region into another, the losing edge exports a [`VehicleHandover`] —
//! the vehicle's pose history, its connection state, the EMP rotation
//! offset, and snapshots of the tracks observed around it — and the
//! gaining edge imports it, so track identities and motion history
//! survive the transfer.
//!
//! The message is plain data here; its byte layout is owned by
//! `erpd_edge::wire`, through which the deployment layer always routes a
//! handover — even between two in-process cores — so the daemon path
//! stays carrier-independent.

use erpd_geometry::Vec2;
use erpd_tracking::ObjectKind;

/// An axis-aligned rectangular coverage region owned by one edge server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    /// Lower-left corner (inclusive).
    pub min: Vec2,
    /// Upper-right corner (inclusive).
    pub max: Vec2,
}

impl Region {
    /// Creates a region from two opposite corners (any order).
    pub fn new(a: Vec2, b: Vec2) -> Self {
        Region {
            min: Vec2::new(a.x.min(b.x), a.y.min(b.y)),
            max: Vec2::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// True when `p` lies inside the region (boundaries inclusive, so
    /// adjacent regions share their border; routing breaks the tie by
    /// taking the lowest-index region).
    pub fn contains(&self, p: Vec2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Geometric centre.
    pub fn center(&self) -> Vec2 {
        Vec2::new(
            (self.min.x + self.max.x) * 0.5,
            (self.min.y + self.max.y) * 0.5,
        )
    }

    /// Euclidean distance from `p` to the region (zero inside).
    pub fn distance(&self, p: Vec2) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Distance from an interior point to the nearest boundary edge;
    /// negative outside. The dual-report policy ghosts a vehicle to the
    /// neighbouring edge while this margin is small.
    pub fn interior_margin(&self, p: Vec2) -> f64 {
        let mx = (p.x - self.min.x).min(self.max.x - p.x);
        let my = (p.y - self.min.y).min(self.max.y - p.y);
        mx.min(my)
    }
}

/// One timestamped pose sample from the edge's per-vehicle pose history.
///
/// The heading is carried as a raw `f64` (not re-normalised) so the codec
/// round trip is bit-exact; the importer rebuilds a `Pose2` from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoseSample {
    /// Observation time, seconds.
    pub t: f64,
    /// Planar position, world frame.
    pub position: Vec2,
    /// Heading, radians.
    pub heading: f64,
}

/// Snapshot of one live track, as carried by a handover message.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackSnapshot {
    /// Tracker-local id (the receiving stage re-applies its global track-id
    /// offset). Edge-namespaced id bases keep these unique fleet-wide.
    pub id: u64,
    /// Tracked object kind.
    pub kind: ObjectKind,
    /// Consecutive missed frames at export time.
    pub misses: u64,
    /// Last known wire size of the object's perception data, bytes
    /// (zero when unknown).
    pub bytes: u64,
    /// Timestamped observation history, oldest first.
    pub history: Vec<(f64, Vec2)>,
}

/// Everything one edge must tell another when a vehicle crosses a region
/// boundary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VehicleHandover {
    /// The crossing vehicle.
    pub vehicle_id: u64,
    /// Its position at export time, world frame.
    pub position: Vec2,
    /// True when the losing edge had the vehicle marked as disconnected
    /// (mid-churn-outage); the gaining edge resumes the outage instead of
    /// treating the vehicle as fresh.
    pub in_outage: bool,
    /// The losing edge's EMP round-robin rotation offset, so a rotation
    /// resumed on the gaining edge does not immediately re-serve pairs
    /// that were just served.
    pub rr_offset: u64,
    /// The edge's pose history for this vehicle, oldest first.
    pub pose_history: Vec<PoseSample>,
    /// Tracks observed in the vehicle's neighbourhood, snapshotted.
    pub tracks: Vec<TrackSnapshot>,
}

impl VehicleHandover {
    /// Creates an empty handover for `vehicle_id`.
    pub fn new(vehicle_id: u64) -> Self {
        VehicleHandover {
            vehicle_id,
            ..VehicleHandover::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_geometry() {
        let r = Region::new(Vec2::new(10.0, -5.0), Vec2::new(-10.0, 5.0));
        assert_eq!(r.min, Vec2::new(-10.0, -5.0));
        assert_eq!(r.max, Vec2::new(10.0, 5.0));
        assert!(r.contains(Vec2::ZERO));
        assert!(r.contains(Vec2::new(10.0, 5.0))); // boundary inclusive
        assert!(!r.contains(Vec2::new(10.1, 0.0)));
        assert_eq!(r.center(), Vec2::ZERO);
        assert_eq!(r.distance(Vec2::ZERO), 0.0);
        assert!((r.distance(Vec2::new(13.0, 9.0)) - 5.0).abs() < 1e-12);
        assert!((r.interior_margin(Vec2::new(8.0, 0.0)) - 2.0).abs() < 1e-12);
        assert!(r.interior_margin(Vec2::new(11.0, 0.0)) < 0.0);
    }
}
