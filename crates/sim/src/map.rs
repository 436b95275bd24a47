//! The HD map: a four-way signalised intersection with multi-lane roads,
//! turn routes, crosswalks, and the Rule-2 boundary.
//!
//! The paper's edge server identifies lanes "based on the high-definition
//! map at the edge server" (§II-D); this module is that map. Geometry is
//! generated for a canonical eastbound approach and rotated into the other
//! three, which keeps every formula in one place.
//!
//! Conventions (right-hand traffic):
//! * the intersection centre is the world origin;
//! * an [`Approach`] is named by its direction of travel (`East` = moving
//!   +x), and its incoming lanes lie on the right of the road axis;
//! * lane 0 is the inner lane (next to the centre line); left turns leave
//!   from lane 0, right turns from the outermost lane.

use erpd_geometry::{Obb2, Polyline2, Pose2, Vec2};
use std::f64::consts::{FRAC_PI_2, PI};

/// Direction of travel of an approach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Approach {
    /// Travelling +x (entering from the west arm).
    East,
    /// Travelling +y (entering from the south arm).
    North,
    /// Travelling −x (entering from the east arm).
    West,
    /// Travelling −y (entering from the north arm).
    South,
}

impl Approach {
    /// All four approaches.
    pub const ALL: [Approach; 4] = [Approach::East, Approach::North, Approach::West, Approach::South];

    /// Heading of travel, radians.
    pub fn heading(self) -> f64 {
        match self {
            Approach::East => 0.0,
            Approach::North => FRAC_PI_2,
            Approach::West => PI,
            Approach::South => -FRAC_PI_2,
        }
    }

    /// Index 0–3 (used to build unique lane ids).
    pub fn index(self) -> u32 {
        match self {
            Approach::East => 0,
            Approach::North => 1,
            Approach::West => 2,
            Approach::South => 3,
        }
    }

    /// The approach a left turn exits onto.
    pub fn left(self) -> Approach {
        match self {
            Approach::East => Approach::North,
            Approach::North => Approach::West,
            Approach::West => Approach::South,
            Approach::South => Approach::East,
        }
    }

    /// The approach a right turn exits onto.
    pub fn right(self) -> Approach {
        match self {
            Approach::East => Approach::South,
            Approach::North => Approach::East,
            Approach::West => Approach::North,
            Approach::South => Approach::West,
        }
    }
}

/// The manoeuvre a route performs at the intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Turn {
    /// Continue through.
    Straight,
    /// Turn left (crossing opposing traffic — the paper's risky case).
    Left,
    /// Turn right.
    Right,
}

/// A fully-specified route request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteSpec {
    /// Incoming approach.
    pub approach: Approach,
    /// Incoming lane index (0 = inner).
    pub lane: usize,
    /// Manoeuvre at the intersection.
    pub turn: Turn,
}

/// A drivable route: centreline path plus stop-line bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// What was requested.
    pub spec: RouteSpec,
    /// The centreline, from spawn edge to exit edge.
    pub path: Polyline2,
    /// Arc length at which the route crosses the stop line.
    pub stop_line_s: f64,
    /// Arc length at which the route has fully exited the intersection box.
    pub exit_s: f64,
}

impl Route {
    /// True when arc length `s` lies inside the intersection box.
    pub fn in_intersection(&self, s: f64) -> bool {
        s >= self.stop_line_s && s <= self.exit_s
    }
}

/// A vehicle's position on an approach lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneLocation {
    /// Unique lane id: `approach.index() * 8 + lane`.
    pub lane_id: u32,
    /// Incoming approach.
    pub approach: Approach,
    /// Lane index within the approach.
    pub lane: usize,
    /// Distance to the stop line along the lane, metres.
    pub distance_to_stop: f64,
}

/// The four-way intersection map.
#[derive(Debug, Clone, PartialEq)]
pub struct IntersectionMap {
    lane_width: f64,
    lanes_per_dir: usize,
    approach_length: f64,
    crosswalk_width: f64,
}

impl IntersectionMap {
    /// Creates a map.
    ///
    /// # Panics
    ///
    /// Panics on non-positive dimensions or zero lanes.
    pub fn new(lane_width: f64, lanes_per_dir: usize, approach_length: f64) -> Self {
        assert!(lane_width > 0.0 && approach_length > 0.0, "invalid map dimensions");
        assert!(lanes_per_dir >= 1, "need at least one lane per direction");
        IntersectionMap {
            lane_width,
            lanes_per_dir,
            approach_length,
            crosswalk_width: 3.0,
        }
    }

    /// Lanes per direction.
    pub fn lanes_per_dir(&self) -> usize {
        self.lanes_per_dir
    }

    /// Length of each approach from map edge to stop line, metres.
    pub fn approach_length(&self) -> f64 {
        self.approach_length
    }

    /// Half-extent of the intersection box: both roads are
    /// `2 * lanes_per_dir` lanes wide.
    pub fn half_size(&self) -> f64 {
        self.lanes_per_dir as f64 * self.lane_width
    }

    /// Signed lateral offset of incoming lane `k` in the canonical eastbound
    /// frame (negative: right-hand side of the road axis).
    fn lane_offset(&self, lane: usize) -> f64 {
        -(self.lane_width / 2.0 + lane as f64 * self.lane_width)
    }

    /// Unique lane id for an approach/lane pair.
    pub fn lane_id(&self, approach: Approach, lane: usize) -> u32 {
        approach.index() * 8 + lane as u32
    }

    /// Builds the route for a spec.
    ///
    /// # Panics
    ///
    /// Panics when the lane index is out of range, a left turn is requested
    /// from a non-inner lane, or a right turn from a non-outer lane.
    pub fn route(&self, spec: RouteSpec) -> Route {
        assert!(spec.lane < self.lanes_per_dir, "lane out of range");
        match spec.turn {
            Turn::Left => assert_eq!(spec.lane, 0, "left turns leave from the inner lane"),
            Turn::Right => assert_eq!(
                spec.lane,
                self.lanes_per_dir - 1,
                "right turns leave from the outer lane"
            ),
            Turn::Straight => {}
        }
        let h = self.half_size();
        let y = self.lane_offset(spec.lane);
        let a = self.approach_length;
        // Canonical eastbound geometry.
        let mut pts: Vec<Vec2> = vec![Vec2::new(-h - a, y)];
        let mut stop_line_s = a;
        let exit_s;
        match spec.turn {
            Turn::Straight => {
                pts.push(Vec2::new(-h, y)); // stop line
                pts.push(Vec2::new(h, y));
                pts.push(Vec2::new(h + a, y));
                exit_s = stop_line_s + 2.0 * h;
            }
            Turn::Left => {
                // Arc centre (-h, h), radius h + lw/2, from -90° to 0°.
                let c = Vec2::new(-h, h);
                let r = h + self.lane_width / 2.0;
                let mut arc_len = 0.0;
                let mut prev = Vec2::new(-h, y);
                pts.push(prev);
                let steps = 12;
                for i in 1..=steps {
                    let ang = -FRAC_PI_2 + FRAC_PI_2 * i as f64 / steps as f64;
                    let p = c + Vec2::from_angle(ang) * r;
                    arc_len += prev.distance(p);
                    prev = p;
                    pts.push(p);
                }
                // Exit northbound inner lane, up to the map edge.
                pts.push(Vec2::new(self.lane_width / 2.0, h + a));
                exit_s = stop_line_s + arc_len;
            }
            Turn::Right => {
                let r = h + y; // y is negative: r = h - (lw/2 + k*lw)
                assert!(r > 0.0, "right-turn radius must be positive");
                let c = Vec2::new(-h, -h);
                let mut arc_len = 0.0;
                let mut prev = Vec2::new(-h, y);
                pts.push(prev);
                let steps = 8;
                for i in 1..=steps {
                    let ang = FRAC_PI_2 - FRAC_PI_2 * i as f64 / steps as f64;
                    let p = c + Vec2::from_angle(ang) * r;
                    arc_len += prev.distance(p);
                    prev = p;
                    pts.push(p);
                }
                pts.push(Vec2::new(y, -h - a));
                exit_s = stop_line_s + arc_len;
            }
        }
        // Rotate the canonical geometry into the requested approach.
        let heading = spec.approach.heading();
        if heading != 0.0 {
            for p in &mut pts {
                *p = p.rotated(heading);
            }
        }
        // De-duplicate identical consecutive points (the stop-line vertex
        // may coincide with the first arc sample).
        pts.dedup_by(|a, b| a.distance(*b) < 1e-9);
        stop_line_s = stop_line_s.min(self.approach_length);
        Route {
            spec,
            path: Polyline2::new(pts).expect("route has >= 2 points"),
            stop_line_s,
            exit_s,
        }
    }

    /// The pose of a spawn point `distance_to_stop` metres before the stop
    /// line on the given approach/lane.
    pub fn spawn_pose(&self, approach: Approach, lane: usize, distance_to_stop: f64) -> Pose2 {
        let h = self.half_size();
        let y = self.lane_offset(lane);
        let canonical = Vec2::new(-h - distance_to_stop, y);
        Pose2::new(canonical.rotated(approach.heading()), approach.heading())
    }

    /// Maps a position + heading to an approach lane (the HD-map lookup the
    /// Rule-1 logic needs). Returns `None` inside the intersection, past the
    /// stop line, or when the heading disagrees with every approach.
    pub fn lane_of(&self, position: Vec2, heading: f64) -> Option<LaneLocation> {
        let h = self.half_size();
        for approach in Approach::ALL {
            // Rotate into the canonical eastbound frame.
            let p = position.rotated(-approach.heading());
            let dh = erpd_geometry::angle::angle_dist(heading, approach.heading());
            if dh > PI / 6.0 {
                continue;
            }
            if p.x >= -h || p.x < -h - self.approach_length {
                continue;
            }
            for lane in 0..self.lanes_per_dir {
                let y = self.lane_offset(lane);
                if (p.y - y).abs() <= self.lane_width / 2.0 {
                    return Some(LaneLocation {
                        lane_id: self.lane_id(approach, lane),
                        approach,
                        lane,
                        distance_to_stop: -h - p.x,
                    });
                }
            }
        }
        None
    }

    /// True when the position is inside the Rule-2 "red boundary": the
    /// intersection box extended by the crosswalk band.
    pub fn in_intersection(&self, position: Vec2) -> bool {
        let b = self.half_size() + self.crosswalk_width;
        position.x.abs() <= b && position.y.abs() <= b
    }

    /// The Rule-2 boundary as an oriented box (for visualisation/tests).
    pub fn boundary(&self) -> Obb2 {
        let b = 2.0 * (self.half_size() + self.crosswalk_width);
        Obb2::new(Pose2::identity(), b, b)
    }

    /// The pedestrian path across the arm carrying the given approach's
    /// incoming traffic; `forward` selects the walking direction.
    ///
    /// The crosswalk lies just outside the intersection box (the band the
    /// paper draws its red boundary along).
    pub(crate) fn crosswalk_path(&self, arm: Approach, forward: bool) -> Polyline2 {
        let h = self.half_size();
        let x = -h - self.crosswalk_width / 2.0;
        let margin = 2.0;
        let (y0, y1) = if forward {
            (-h - margin, h + margin)
        } else {
            (h + margin, -h - margin)
        };
        let a = Vec2::new(x, y0).rotated(arm.heading());
        let b = Vec2::new(x, y1).rotated(arm.heading());
        Polyline2::new(vec![a, b]).expect("two distinct points")
    }

    /// A sidewalk segment along the roadside of the arm carrying the given
    /// approach's incoming traffic, outside every vehicle lane. Background
    /// pedestrians walk here: they populate the perception pipeline (crowd
    /// clustering, object counts) without interfering with the scripted
    /// conflicts; the Fig. 1 demo uses [`IntersectionMap::crosswalk_path`]
    /// for its scripted crossing pedestrian instead.
    pub(crate) fn sidewalk_path(&self, arm: Approach, forward: bool) -> Polyline2 {
        let h = self.half_size();
        let y = -(h + 1.5); // south side of the canonical west arm
        let (x0, x1) = if forward {
            (-h - 48.0, -h - 8.0)
        } else {
            (-h - 8.0, -h - 48.0)
        };
        let a = Vec2::new(x0, y).rotated(arm.heading());
        let b = Vec2::new(x1, y).rotated(arm.heading());
        Polyline2::new(vec![a, b]).expect("two distinct points")
    }

    /// Four corner buildings that occlude diagonal sight lines, as in an
    /// urban canyon.
    pub(crate) fn corner_buildings(&self) -> Vec<Obb2> {
        let h = self.half_size();
        let setback = 8.0;
        let size = 30.0;
        let c = h + setback + size / 2.0;
        [
            Vec2::new(c, c),
            Vec2::new(-c, c),
            Vec2::new(-c, -c),
            Vec2::new(c, -c),
        ]
        .into_iter()
        .map(|p| Obb2::new(Pose2::new(p, 0.0), size, size))
        .collect()
    }
}

impl Default for IntersectionMap {
    /// Two 3.5 m lanes per direction, 120 m approaches.
    fn default() -> Self {
        IntersectionMap::new(3.5, 2, 120.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> IntersectionMap {
        IntersectionMap::default()
    }

    #[test]
    fn straight_route_is_straight() {
        let r = map().route(RouteSpec {
            approach: Approach::East,
            lane: 0,
            turn: Turn::Straight,
        });
        // Total length: approach + box + exit = 120 + 14 + 120.
        assert!((r.path.length() - 254.0).abs() < 1e-9);
        assert!((r.stop_line_s - 120.0).abs() < 1e-9);
        assert!((r.exit_s - 134.0).abs() < 1e-9);
        // Constant y at the inner-lane offset.
        for p in r.path.points() {
            assert!((p.y + 1.75).abs() < 1e-9);
        }
    }

    #[test]
    fn left_turn_exits_north() {
        let r = map().route(RouteSpec {
            approach: Approach::East,
            lane: 0,
            turn: Turn::Left,
        });
        let end = *r.path.points().last().unwrap();
        assert!((end.x - 1.75).abs() < 1e-9);
        assert!((end.y - 127.0).abs() < 1e-9);
        // Heading at the end is north.
        assert!((r.path.heading_at(r.path.length() - 0.1) - FRAC_PI_2).abs() < 0.05);
    }

    #[test]
    fn right_turn_exits_south() {
        let m = map();
        let r = m.route(RouteSpec {
            approach: Approach::East,
            lane: 1,
            turn: Turn::Right,
        });
        let end = *r.path.points().last().unwrap();
        assert!((end.x + 5.25).abs() < 1e-9);
        assert!((end.y + 127.0).abs() < 1e-9);
    }

    #[test]
    fn rotated_approaches_are_consistent() {
        let m = map();
        for approach in Approach::ALL {
            let r = m.route(RouteSpec {
                approach,
                lane: 0,
                turn: Turn::Straight,
            });
            assert!((r.path.length() - 254.0).abs() < 1e-6, "{approach:?}");
            // The start is 127 m from the origin.
            assert!((r.path.points()[0].norm() - (127.0f64.powi(2) + 1.75f64.powi(2)).sqrt()).abs() < 1e-6);
            // Initial heading matches the approach.
            assert!(
                erpd_geometry::angle::angle_dist(r.path.heading_at(0.0), approach.heading()) < 1e-9,
                "{approach:?}"
            );
        }
    }

    #[test]
    fn left_turn_crosses_opposing_straight() {
        // Eastbound left turn conflicts with westbound straight — the
        // unprotected-left-turn scenario of the paper.
        let m = map();
        let left = m.route(RouteSpec {
            approach: Approach::East,
            lane: 0,
            turn: Turn::Left,
        });
        let oncoming = m.route(RouteSpec {
            approach: Approach::West,
            lane: 0,
            turn: Turn::Straight,
        });
        let hit = left.path.first_crossing(&oncoming.path);
        assert!(hit.is_some(), "conflicting routes must cross");
        let hit = hit.unwrap();
        // Crossing is inside the intersection box.
        assert!(m.in_intersection(hit.point));
    }

    #[test]
    fn perpendicular_straights_cross() {
        let m = map();
        let east = m.route(RouteSpec {
            approach: Approach::East,
            lane: 0,
            turn: Turn::Straight,
        });
        let north = m.route(RouteSpec {
            approach: Approach::North,
            lane: 0,
            turn: Turn::Straight,
        });
        let hit = east.path.first_crossing(&north.path).unwrap();
        assert!(m.in_intersection(hit.point));
    }

    #[test]
    fn lane_lookup_round_trip() {
        let m = map();
        for approach in Approach::ALL {
            for lane in 0..m.lanes_per_dir() {
                let pose = m.spawn_pose(approach, lane, 40.0);
                let loc = m.lane_of(pose.position, pose.heading()).unwrap();
                assert_eq!(loc.approach, approach);
                assert_eq!(loc.lane, lane);
                assert!((loc.distance_to_stop - 40.0).abs() < 1e-9);
                assert_eq!(loc.lane_id, m.lane_id(approach, lane));
            }
        }
    }

    #[test]
    fn lane_lookup_rejects_wrong_heading_and_inside() {
        let m = map();
        let pose = m.spawn_pose(Approach::East, 0, 40.0);
        // Opposite heading: not on the eastbound lane.
        assert!(m.lane_of(pose.position, PI).is_none());
        // Inside the intersection box: no lane.
        assert!(m.lane_of(Vec2::ZERO, 0.0).is_none());
    }

    #[test]
    fn boundary_contains_box_and_crosswalks() {
        let m = map();
        assert!(m.in_intersection(Vec2::ZERO));
        assert!(m.in_intersection(Vec2::new(8.0, 0.0))); // crosswalk band
        assert!(!m.in_intersection(Vec2::new(11.0, 0.0)));
        assert!(m.boundary().contains(Vec2::new(9.9, 9.9)));
    }

    #[test]
    fn crosswalk_paths_cross_the_road() {
        let m = map();
        let p = m.crosswalk_path(Approach::East, true);
        // The west-arm crosswalk runs north-south at x ~ -8.5.
        assert!((p.points()[0].x + 8.5).abs() < 1e-9);
        assert!(p.points()[0].y < -m.half_size());
        assert!(p.points()[1].y > m.half_size());
        // Reverse direction flips endpoints.
        let q = m.crosswalk_path(Approach::East, false);
        assert_eq!(q.points()[0], p.points()[1]);
    }

    #[test]
    fn sidewalks_never_touch_any_route() {
        let m = map();
        for arm in Approach::ALL {
            for forward in [true, false] {
                let walk = m.sidewalk_path(arm, forward);
                for approach in Approach::ALL {
                    for lane in 0..m.lanes_per_dir() {
                        for turn in [Turn::Straight, Turn::Left, Turn::Right] {
                            let valid = match turn {
                                Turn::Left => lane == 0,
                                Turn::Right => lane == m.lanes_per_dir() - 1,
                                Turn::Straight => true,
                            };
                            if !valid {
                                continue;
                            }
                            let r = m.route(RouteSpec { approach, lane, turn });
                            // Minimum clearance above half a car width plus
                            // half a pedestrian: no collision possible.
                            for seg in walk.segments() {
                                for rseg in r.path.segments() {
                                    assert!(
                                        seg.distance_to_segment(&rseg) > 1.6,
                                        "sidewalk {arm:?} too close to route {approach:?}/{turn:?}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn corner_buildings_are_outside_roads() {
        let m = map();
        let buildings = m.corner_buildings();
        assert_eq!(buildings.len(), 4);
        for b in &buildings {
            // No building may cover any straight route.
            for approach in Approach::ALL {
                for lane in 0..m.lanes_per_dir() {
                    let r = m.route(RouteSpec {
                        approach,
                        lane,
                        turn: Turn::Straight,
                    });
                    for seg in r.path.segments() {
                        assert!(!b.intersects_segment(&seg));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "left turns leave from the inner lane")]
    fn left_from_outer_lane_rejected() {
        map().route(RouteSpec {
            approach: Approach::East,
            lane: 1,
            turn: Turn::Left,
        });
    }

    #[test]
    fn turn_relations() {
        assert_eq!(Approach::East.left(), Approach::North);
        assert_eq!(Approach::East.right(), Approach::South);
        assert_eq!(Approach::North.left(), Approach::West);
        assert_eq!(Approach::South.right(), Approach::West);
    }
}
