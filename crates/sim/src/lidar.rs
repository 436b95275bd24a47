//! The LiDAR sensor model.
//!
//! As documented in DESIGN.md this is the substitution for CARLA's
//! 64-channel LiDAR: a 2-D angular ray cast over object footprints decides
//! *visibility/occlusion* (the property the whole system hinges on), and a
//! resolution-based point generator synthesises per-object point clouds
//! whose counts scale the way a real spinning LiDAR's do
//! (`points ∝ angular width / horizontal resolution × channels subtended`).
//!
//! Ground returns — the bulk of a raw frame — are accounted for by count
//! (for bandwidth figures) and materialised only as a subsample (so the
//! ground-removal code path is still exercised end to end).

use erpd_geometry::{Obb2, Pose2, Segment2, Vec2, Vec3};
use erpd_pointcloud::{PointCloud, POINT_WIRE_BYTES};

/// Maximum perception range, metres (paper: 50).
const RANGE: f64 = 50.0;

/// Number of vertical channels (paper: 64).
const CHANNELS: u32 = 64;

/// Vertical field of view, degrees.
const VERTICAL_FOV_DEG: f64 = 26.8;

/// Horizontal angular resolution, degrees.
const HORIZONTAL_RES_DEG: f64 = 0.2;

/// Total returns per raw frame, for bandwidth accounting. Chosen so a raw
/// frame is ≈2.5 MB at 16 B/point, matching the paper's "several megabytes
/// (2–3 MB)".
const RAW_POINTS_PER_FRAME: usize = 160_000;

/// Cap on synthesised points per object.
const MAX_POINTS_PER_OBJECT: usize = 320;

/// Number of ground points actually materialised per frame.
const GROUND_SAMPLE_POINTS: usize = 256;

/// Something a LiDAR can return points from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LidarTarget {
    /// World-unique id of the object.
    pub id: u64,
    /// Planar footprint.
    pub footprint: Obb2,
    /// Height above ground, metres.
    pub height: f64,
}

/// One object's returns within a frame.
#[derive(Debug, Clone, PartialEq)]
pub struct SensedObject {
    /// Id of the sensed object.
    pub id: u64,
    /// Returns in the sensor frame.
    pub points: PointCloud,
}

/// A complete LiDAR frame from one vehicle.
#[derive(Debug, Clone, PartialEq)]
pub struct LidarFrame {
    /// The sensing vehicle.
    pub vehicle_id: u64,
    /// Sensor pose on the road plane (the pose uploaded alongside points).
    pub sensor_pose: Pose2,
    /// Sensor height above ground.
    pub sensor_height: f64,
    /// Visible objects and their synthesised returns.
    pub objects: Vec<SensedObject>,
    /// Materialised subsample of ground returns (sensor frame).
    pub ground_sample: PointCloud,
    /// Ground returns accounted for but not materialised.
    pub virtual_ground_points: usize,
    /// Ids of all visible objects (ground truth for the evaluation and the
    /// server-side visibility inference).
    pub visible_ids: Vec<u64>,
}

impl LidarFrame {
    /// Size of the raw (uncompressed, unreduced) frame on the wire.
    pub fn raw_size_bytes(&self) -> usize {
        let materialized: usize =
            self.objects.iter().map(|o| o.points.len()).sum::<usize>() + self.ground_sample.len();
        (materialized + self.virtual_ground_points) * POINT_WIRE_BYTES
    }

    /// All materialised points as one sensor-frame cloud (objects + ground
    /// sample) — what the vehicle-side pipeline starts from.
    pub fn full_cloud(&self) -> PointCloud {
        let mut out = PointCloud::new();
        for o in &self.objects {
            out.merge_from(&o.points);
        }
        out.merge_from(&self.ground_sample);
        out
    }
}

/// True when `occluder` blocks the ray for a sensor mounted at
/// `sensor_height`: tall enough to reach the sensor's line of sight and
/// geometrically crossing the 2-D ray.
fn blocks(occluder: &Obb2, occluder_height: f64, ray: &Segment2, sensor_height: f64) -> bool {
    occluder_height + 0.3 >= sensor_height && occluder.intersects_segment(ray)
}

/// Deterministic per-(sensor, target) pseudo-random stream for point
/// scatter — avoids threading an RNG through the sensor model while keeping
/// frames reproducible.
struct Scatter(u64);

impl Scatter {
    fn new(sensor: u64, target: u64) -> Self {
        Scatter(
            (sensor.wrapping_mul(0x9E3779B97F4A7C15) ^ target.wrapping_mul(0xBF58476D1CE4E5B9))
                | 1,
        )
    }

    fn next_unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Performs one LiDAR scan.
///
/// `targets` are all candidate objects (the sensing vehicle itself is
/// skipped by id); `occluders` are footprint/height pairs that can block
/// sight lines, with the owning object's id so targets do not occlude
/// themselves.
pub fn scan(
    vehicle_id: u64,
    sensor_pose: Pose2,
    sensor_height: f64,
    targets: &[LidarTarget],
    occluders: &[(u64, Obb2, f64)],
) -> LidarFrame {
    let sensor = sensor_pose.position;
    let mut objects = Vec::new();
    let mut visible_ids = Vec::new();

    for target in targets {
        if target.id == vehicle_id {
            continue;
        }
        let center = target.footprint.pose.position;
        let d = sensor.distance(center);
        if !(1e-6..=RANGE).contains(&d) {
            continue;
        }
        // Sample rays: centre plus two inset corners.
        let corners = target.footprint.corners();
        let samples = [
            center,
            center.lerp(corners[0], 0.8),
            center.lerp(corners[2], 0.8),
        ];
        let mut any_clear = false;
        'rays: for sample in samples {
            let ray = Segment2::new(sensor, sample);
            for (owner, obb, height) in occluders {
                if *owner == vehicle_id || *owner == target.id {
                    continue;
                }
                if blocks(obb, *height, &ray, sensor_height) {
                    continue 'rays;
                }
            }
            any_clear = true;
            break;
        }
        if !any_clear {
            continue;
        }
        visible_ids.push(target.id);

        // Point count from angular extents.
        let w_ang_deg = (2.0 * (target.footprint.circumradius() / d).atan()).to_degrees();
        let v_ang_deg = (2.0 * ((target.height / 2.0) / d).atan()).to_degrees();
        let n_h = (w_ang_deg / HORIZONTAL_RES_DEG).max(1.0);
        let n_v = (v_ang_deg / VERTICAL_FOV_DEG * CHANNELS as f64).clamp(1.0, CHANNELS as f64);
        let n = ((n_h * n_v) as usize).clamp(4, MAX_POINTS_PER_OBJECT);

        // Scatter points on the sensor-facing half of the footprint at
        // heights within the body.
        let mut scatter = Scatter::new(vehicle_id, target.id);
        let toward_sensor = (sensor - center).try_normalize().unwrap_or(Vec2::UNIT_X);
        let mut points = PointCloud::with_capacity(n);
        for _ in 0..n {
            let u = scatter.next_unit() - 0.5;
            let v = scatter.next_unit() * 0.5; // facing half
            let w = 0.3 + scatter.next_unit() * (target.height - 0.3).max(0.05);
            let local = Vec2::new(
                u * target.footprint.length,
                v * target.footprint.width,
            );
            let world_xy = target.footprint.pose.to_world(local);
            // Pull the point slightly toward the sensor to mimic surface
            // returns rather than interior ones.
            let world_xy = world_xy + toward_sensor * (0.1 * target.footprint.width);
            let local_sensor = sensor_pose.to_local(world_xy);
            points.push(Vec3::from_xy(local_sensor, w - sensor_height));
        }
        objects.push(SensedObject {
            id: target.id,
            points,
        });
    }

    // Ground sample: a deterministic ring pattern on the road plane.
    let mut ground = PointCloud::with_capacity(GROUND_SAMPLE_POINTS);
    let rings = 8usize;
    let per_ring = (GROUND_SAMPLE_POINTS / rings).max(1);
    for r in 0..rings {
        let radius = RANGE * (r as f64 + 1.0) / rings as f64;
        for k in 0..per_ring {
            let ang = std::f64::consts::TAU * k as f64 / per_ring as f64;
            ground.push(Vec3::new(
                radius * ang.cos(),
                radius * ang.sin(),
                -sensor_height,
            ));
        }
    }
    let materialized: usize =
        objects.iter().map(|o| o.points.len()).sum::<usize>() + ground.len();
    let virtual_ground_points = RAW_POINTS_PER_FRAME.saturating_sub(materialized);

    LidarFrame {
        vehicle_id,
        sensor_pose,
        sensor_height,
        objects,
        ground_sample: ground,
        virtual_ground_points,
        visible_ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target_at(id: u64, x: f64, y: f64) -> LidarTarget {
        LidarTarget {
            id,
            footprint: Obb2::new(Pose2::new(Vec2::new(x, y), 0.0), 4.5, 1.8),
            height: 1.5,
        }
    }

    fn truck_at(id: u64, x: f64, y: f64) -> (u64, Obb2, f64) {
        (id, Obb2::new(Pose2::new(Vec2::new(x, y), 0.0), 8.0, 2.5), 3.5)
    }

    #[test]
    fn sees_unoccluded_object_in_range() {
        let frame = scan(0, Pose2::identity(), 1.8, &[target_at(1, 20.0, 0.0)], &[]);
        assert_eq!(frame.visible_ids, vec![1]);
        assert_eq!(frame.objects.len(), 1);
        assert!(frame.objects[0].points.len() >= 4);
    }

    #[test]
    fn out_of_range_object_invisible() {
        let frame = scan(0, Pose2::identity(), 1.8, &[target_at(1, 60.0, 0.0)], &[]);
        assert!(frame.visible_ids.is_empty());
    }

    #[test]
    fn truck_occludes_object_behind_it() {
        // Sensor at origin, truck at 15 m, car at 30 m directly behind it.
        let frame = scan(
            0,
            Pose2::identity(),
            1.8,
            &[target_at(1, 30.0, 0.0)],
            &[truck_at(9, 15.0, 0.0)],
        );
        assert!(frame.visible_ids.is_empty(), "car behind truck must be hidden");
        // The same car offset laterally is visible around the truck.
        let frame = scan(
            0,
            Pose2::identity(),
            1.8,
            &[target_at(1, 30.0, 8.0)],
            &[truck_at(9, 15.0, 0.0)],
        );
        assert_eq!(frame.visible_ids, vec![1]);
    }

    #[test]
    fn tall_sensor_sees_over_low_cars() {
        // A truck-mounted sensor (3 m) sees over a 1.5 m car.
        let low_car_occluder = (9u64, Obb2::new(Pose2::new(Vec2::new(15.0, 0.0), 0.0), 4.5, 1.8), 1.5);
        let frame = scan(
            0,
            Pose2::identity(),
            3.0,
            &[target_at(1, 30.0, 0.0)],
            &[low_car_occluder],
        );
        assert_eq!(frame.visible_ids, vec![1]);
        // A car-mounted sensor (1.8 m) does not.
        let frame = scan(
            0,
            Pose2::identity(),
            1.8,
            &[target_at(1, 30.0, 0.0)],
            &[low_car_occluder],
        );
        assert!(frame.visible_ids.is_empty());
    }

    #[test]
    fn self_and_target_do_not_occlude() {
        // The target's own footprint is registered as an occluder but must
        // not hide the target itself; same for the sensor vehicle.
        let target = target_at(1, 20.0, 0.0);
        let occluders = vec![
            (0u64, Obb2::new(Pose2::identity(), 4.5, 1.8), 1.5),
            (1u64, target.footprint, 1.5),
        ];
        let frame = scan(0, Pose2::identity(), 1.8, &[target], &occluders);
        assert_eq!(frame.visible_ids, vec![1]);
    }

    #[test]
    fn closer_objects_return_more_points() {
        let near = scan(0, Pose2::identity(), 1.8, &[target_at(1, 8.0, 0.0)], &[]);
        let far = scan(0, Pose2::identity(), 1.8, &[target_at(1, 45.0, 0.0)], &[]);
        assert!(near.objects[0].points.len() > far.objects[0].points.len());
    }

    #[test]
    fn points_survive_ground_filter() {
        use erpd_pointcloud::GroundFilter;
        let frame = scan(0, Pose2::identity(), 1.8, &[target_at(1, 20.0, 0.0)], &[]);
        let filter = GroundFilter::new(1.8, 0.1);
        // Object returns sit above the ground threshold...
        let kept = filter.apply(&frame.objects[0].points);
        assert_eq!(kept.len(), frame.objects[0].points.len());
        // ...while the ground sample is entirely removed.
        assert!(filter.apply(&frame.ground_sample).is_empty());
    }

    #[test]
    fn object_points_near_object_in_world_frame() {
        let pose = Pose2::new(Vec2::new(5.0, -3.0), 0.7);
        let frame = scan(0, pose, 1.8, &[target_at(1, 25.0, 5.0)], &[]);
        for p in frame.objects[0].points.iter() {
            let world = pose.to_world(p.xy());
            assert!(world.distance(Vec2::new(25.0, 5.0)) < 5.0, "stray point at {world}");
        }
    }

    #[test]
    fn raw_size_matches_paper_magnitude() {
        let frame = scan(0, Pose2::identity(), 1.8, &[target_at(1, 20.0, 0.0)], &[]);
        let mb = frame.raw_size_bytes() as f64 / 1e6;
        assert!((2.0..3.0).contains(&mb), "raw frame = {mb} MB");
        // The reduced (objects-only) upload is tiny by comparison: < 20 KB.
        let reduced: usize = frame.objects.iter().map(|o| o.points.wire_size_bytes()).sum();
        assert!(reduced < 20_000, "reduced = {reduced} B");
    }

    #[test]
    fn frames_are_deterministic() {
        let t = [target_at(1, 20.0, 3.0), target_at(2, 10.0, -5.0)];
        let a = scan(0, Pose2::identity(), 1.8, &t, &[]);
        let b = scan(0, Pose2::identity(), 1.8, &t, &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn sensing_vehicle_skips_itself() {
        let frame = scan(1, Pose2::new(Vec2::new(20.0, 0.0), 0.0), 1.8, &[target_at(1, 20.0, 0.0)], &[]);
        assert!(frame.visible_ids.is_empty());
    }

    #[test]
    fn full_cloud_combines_objects_and_ground() {
        let frame = scan(0, Pose2::identity(), 1.8, &[target_at(1, 20.0, 0.0)], &[]);
        assert_eq!(
            frame.full_cloud().len(),
            frame.objects[0].points.len() + frame.ground_sample.len()
        );
    }
}
