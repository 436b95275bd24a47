//! The object model shared between the tracker, the relevance estimator,
//! and the edge-server pipeline.

use erpd_geometry::{Obb2, Pose2, Vec2};
use std::fmt;

/// Stable identifier for a tracked object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// What kind of road user an object is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// A motor vehicle (car or truck).
    Vehicle,
    /// A pedestrian.
    Pedestrian,
}

impl ObjectKind {
    /// Default footprint length for the kind, metres. Used for the
    /// collision-area radius when a more precise extent is unavailable.
    pub(crate) fn default_length(self) -> f64 {
        match self {
            ObjectKind::Vehicle => 4.5,
            ObjectKind::Pedestrian => 0.6,
        }
    }

    /// Default footprint width for the kind, metres.
    pub(crate) fn default_width(self) -> f64 {
        match self {
            ObjectKind::Vehicle => 1.8,
            ObjectKind::Pedestrian => 0.6,
        }
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectKind::Vehicle => write!(f, "vehicle"),
            ObjectKind::Pedestrian => write!(f, "pedestrian"),
        }
    }
}

/// A snapshot of one object's kinematic state at a given instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectState {
    /// Identity of the object.
    pub id: ObjectId,
    /// Kind of road user.
    pub kind: ObjectKind,
    /// Planar position, world frame.
    pub position: Vec2,
    /// Planar velocity, world frame, m/s.
    pub velocity: Vec2,
    /// Heading, radians (may differ from velocity direction at low speed).
    pub heading: f64,
    /// Footprint length along heading, metres.
    pub length: f64,
    /// Footprint width, metres.
    pub width: f64,
}

impl ObjectState {
    /// Creates a state with the kind's default footprint, heading aligned to
    /// the velocity (or 0 when stationary).
    pub fn new(id: ObjectId, kind: ObjectKind, position: Vec2, velocity: Vec2) -> Self {
        let heading = if velocity.norm() > 1e-6 {
            velocity.angle()
        } else {
            0.0
        };
        ObjectState {
            id,
            kind,
            position,
            velocity,
            heading,
            length: kind.default_length(),
            width: kind.default_width(),
        }
    }

    /// Speed, m/s.
    #[inline]
    pub fn speed(&self) -> f64 {
        self.velocity.norm()
    }

    /// The pose of the object.
    #[inline]
    pub fn pose(&self) -> Pose2 {
        Pose2::new(self.position, self.heading)
    }

    /// The oriented footprint of the object.
    #[inline]
    pub fn footprint(&self) -> Obb2 {
        Obb2::new(self.pose(), self.length, self.width)
    }

    /// The state advanced `dt` seconds under constant velocity.
    pub fn advanced(&self, dt: f64) -> ObjectState {
        ObjectState {
            position: self.position + self.velocity * dt,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_defaults() {
        let s = ObjectState::new(
            ObjectId(7),
            ObjectKind::Vehicle,
            Vec2::new(1.0, 2.0),
            Vec2::new(3.0, 4.0),
        );
        assert_eq!(s.speed(), 5.0);
        assert_eq!(s.length, 4.5);
        assert_eq!(s.width, 1.8);
        assert!((s.heading - Vec2::new(3.0, 4.0).angle()).abs() < 1e-12);
    }

    #[test]
    fn stationary_heading_defaults_to_zero() {
        let s = ObjectState::new(ObjectId(1), ObjectKind::Pedestrian, Vec2::ZERO, Vec2::ZERO);
        assert_eq!(s.heading, 0.0);
        assert_eq!(s.length, 0.6);
    }

    #[test]
    fn advanced_moves_position_only() {
        let s = ObjectState::new(
            ObjectId(1),
            ObjectKind::Vehicle,
            Vec2::ZERO,
            Vec2::new(10.0, 0.0),
        );
        let s2 = s.advanced(0.5);
        assert_eq!(s2.position, Vec2::new(5.0, 0.0));
        assert_eq!(s2.velocity, s.velocity);
        assert_eq!(s2.id, s.id);
    }

    #[test]
    fn footprint_centered_on_position() {
        let s = ObjectState::new(
            ObjectId(1),
            ObjectKind::Vehicle,
            Vec2::new(5.0, 5.0),
            Vec2::new(1.0, 0.0),
        );
        let fp = s.footprint();
        assert!(fp.contains(Vec2::new(5.0, 5.0)));
        assert!(fp.contains(Vec2::new(7.0, 5.0))); // within half-length
        assert!(!fp.contains(Vec2::new(8.0, 5.0)));
    }

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(ObjectId(1) < ObjectId(2));
        assert_eq!(format!("{}", ObjectId(3)), "obj#3");
        assert_eq!(format!("{}", ObjectKind::Vehicle), "vehicle");
        assert_eq!(format!("{}", ObjectKind::Pedestrian), "pedestrian");
    }
}
