//! Moving-object extraction (paper §II-B, step 2).
//!
//! After ground removal, the vehicle clusters the remaining points with
//! DBSCAN and compares cluster locations across consecutive frames: clusters
//! whose location changed are *moving* (vehicles, pedestrians) and get
//! uploaded; stable clusters are *static* (buildings, parked cars) and are
//! discarded, which is where most of the bandwidth savings over EMP come
//! from (Fig. 12a).
//!
//! Clusters are compared in a motion-compensated (world) frame: vehicles
//! know their own SLAM pose, so they transform each frame before the
//! comparison. This mirrors the paper, which uploads poses alongside points.
//!
//! # Allocation discipline
//!
//! Extraction is the dominant module of the end-to-end latency budget
//! (paper §V), so [`MovingObjectExtractor::process`] is written for a
//! zero-alloc steady state: the DBSCAN grid / label / traversal buffers
//! ([`DbscanScratch`], fed the cloud's SoA coordinate lanes directly —
//! no interleaved planar copy exists), the per-cluster count
//! and centroid-sum accumulators, and the previous/next centroid lists
//! are all owned by the extractor and reused frame over frame. After the
//! first few frames have grown them to the workload's high-water mark,
//! the only per-frame heap allocations are the returned
//! [`ExtractionOutput`] itself (its object list and each cluster's
//! `PointCloud`, sized exactly via a label-partitioned counting pass).

use crate::{DbscanParams, DbscanScratch, PointCloud};
use erpd_geometry::Vec2;

/// Configuration for [`MovingObjectExtractor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtractionConfig {
    /// DBSCAN parameters for object segmentation.
    pub dbscan: DbscanParams,
    /// Minimum centroid displacement between consecutive frames for a
    /// cluster to count as moving, metres.
    pub movement_threshold: f64,
    /// Maximum centroid distance when matching clusters across frames,
    /// metres.
    pub match_radius: f64,
}

impl Default for ExtractionConfig {
    /// Thresholds tuned for 10 Hz frames: an object moving faster than
    /// ≈1.1 m/s (4 km/h) displaces > 0.11 m between frames.
    fn default() -> Self {
        ExtractionConfig {
            dbscan: DbscanParams::new(1.2, 4),
            movement_threshold: 0.11,
            match_radius: 3.5,
        }
    }
}

/// An object segmented out of a single LiDAR frame.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedObject {
    /// Planar centroid of the cluster (world frame).
    pub centroid: Vec2,
    /// The cluster's points.
    pub points: PointCloud,
    /// Whether the object moved since the previous frame.
    pub moving: bool,
    /// Centroid displacement from the matched previous-frame cluster, if a
    /// match was found.
    pub displacement: Option<f64>,
}

/// Output of processing one frame.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExtractionOutput {
    /// All segmented objects (moving and static).
    pub objects: Vec<DetectedObject>,
}

impl ExtractionOutput {
    /// Number of moving objects.
    pub fn moving_count(&self) -> usize {
        self.objects.iter().filter(|o| o.moving).count()
    }
}

/// Reusable working memory for [`MovingObjectExtractor::process_in`]: the
/// DBSCAN grid / label / traversal buffers plus the per-cluster
/// accumulators. Everything in here is overwritten before it is read, so
/// one scratch can serve any number of extractors (and vehicles) in turn
/// — sharing it keeps the buffers cache-warm across a fleet processed
/// back-to-back instead of thrashing one cold set per vehicle.
#[derive(Debug, Clone, Default)]
pub struct ExtractionScratch {
    dbscan: DbscanScratch,
    cluster_counts: Vec<usize>,
    cluster_sums: Vec<Vec2>,
    next_centroids: Vec<Vec2>,
    /// Clustered point indices, counting-sorted by cluster (ascending
    /// index within each cluster). Every slot is overwritten each frame.
    perm: Vec<u32>,
    /// Per-cluster write cursor for the counting sort.
    cluster_cursor: Vec<usize>,
}

impl ExtractionScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        ExtractionScratch::default()
    }
}

/// Stateful per-vehicle extractor: feed it ground-free, motion-compensated
/// frames and it labels each cluster moving/static.
///
/// # Examples
///
/// ```
/// use erpd_pointcloud::{ExtractionConfig, MovingObjectExtractor, PointCloud};
/// use erpd_geometry::Vec3;
///
/// fn blob(x: f64) -> impl Iterator<Item = Vec3> {
///     (0..8).map(move |i| Vec3::new(x + 0.1 * i as f64, 0.0, 0.5))
/// }
///
/// let mut ex = MovingObjectExtractor::new(ExtractionConfig::default());
/// ex.process(&blob(0.0).collect::<PointCloud>());          // frame 1: warm-up
/// let out = ex.process(&blob(1.0).collect::<PointCloud>()); // frame 2: moved 1 m
/// assert_eq!(out.moving_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct MovingObjectExtractor {
    config: ExtractionConfig,
    prev_centroids: Vec<Vec2>,
    frames_seen: usize,
    /// Owned scratch backing the convenience [`process`](Self::process)
    /// path (see the module docs' allocation discipline). Callers driving
    /// many extractors use [`process_in`](Self::process_in) with one
    /// shared [`ExtractionScratch`] instead.
    scratch: ExtractionScratch,
}

impl MovingObjectExtractor {
    /// Creates an extractor with the given configuration.
    pub fn new(config: ExtractionConfig) -> Self {
        MovingObjectExtractor {
            config,
            prev_centroids: Vec::new(),
            frames_seen: 0,
            scratch: ExtractionScratch::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ExtractionConfig {
        &self.config
    }

    /// Processes one ground-free frame (world coordinates) and labels its
    /// clusters.
    ///
    /// On the very first frame there is no history, so every cluster is
    /// conservatively labelled static (nothing is uploaded until motion is
    /// observed). Later, clusters that match no previous-frame cluster
    /// within `match_radius` are treated as moving: an object that appears
    /// from nowhere either entered the field of view or moved farther than
    /// the match radius in one frame — both warrant an upload.
    pub fn process(&mut self, cloud: &PointCloud) -> ExtractionOutput {
        // Loan out the owned scratch (cheap Vec moves) so `process_in`
        // can borrow it alongside `self`.
        let mut scratch = std::mem::take(&mut self.scratch);
        let out = self.process_in(cloud, &mut scratch);
        self.scratch = scratch;
        out
    }

    /// Like [`process`](Self::process), but drawing working memory from a
    /// caller-supplied [`ExtractionScratch`] — bit-identical output
    /// whatever state the scratch arrives in.
    pub fn process_in(
        &mut self,
        cloud: &PointCloud,
        scratch: &mut ExtractionScratch,
    ) -> ExtractionOutput {
        // DBSCAN reads the planar projection straight off the SoA lanes:
        // no interleaved copy, and the z lane never enters the cache.
        scratch
            .dbscan
            .run_lanes(cloud.xs(), cloud.ys(), self.config.dbscan);
        let n_clusters = scratch.dbscan.n_clusters();

        // Label-partitioned cluster build: one in-order pass counts every
        // cluster and accumulates its centroid sum (both in ascending
        // point order, so the summation order — and the result, bit for
        // bit — matches the ascending index lists the old
        // `DbscanResult::clusters()` produced), then a second in-order
        // pass distributes points into the exactly-sized clouds.
        scratch.cluster_counts.clear();
        scratch.cluster_counts.resize(n_clusters, 0);
        scratch.cluster_sums.clear();
        scratch.cluster_sums.resize(n_clusters, Vec2::ZERO);
        for i in 0..cloud.len() {
            if let Some(c) = scratch.dbscan.label(i) {
                scratch.cluster_counts[c] += 1;
                scratch.cluster_sums[c] += Vec2::new(cloud.xs()[i], cloud.ys()[i]);
            }
        }
        let mut objects: Vec<DetectedObject> = scratch
            .cluster_counts
            .iter()
            .map(|&n| DetectedObject {
                centroid: Vec2::ZERO,
                points: PointCloud::with_capacity(n),
                moving: false,
                displacement: None,
            })
            .collect();
        // Counting-sort the members into `perm` (ascending point index
        // within each cluster — the exact order the old per-point push
        // produced), then fill each cluster's cloud in one sequential
        // append run instead of hopping between n_clusters × 3 output
        // lanes on every point.
        scratch.cluster_cursor.clear();
        let mut acc = 0usize;
        for &cnt in &scratch.cluster_counts {
            scratch.cluster_cursor.push(acc);
            acc += cnt;
        }
        // Every slot below `acc` is written exactly once before any read,
        // so the buffer only ever needs growing.
        if scratch.perm.len() < acc {
            scratch.perm.resize(acc, 0);
        } else {
            scratch.perm.truncate(acc);
        }
        for i in 0..cloud.len() {
            if let Some(c) = scratch.dbscan.label(i) {
                let pos = scratch.cluster_cursor[c];
                scratch.perm[pos] = i as u32;
                scratch.cluster_cursor[c] = pos + 1;
            }
        }
        let mut start = 0usize;
        for (c, obj) in objects.iter_mut().enumerate() {
            let end = start + scratch.cluster_counts[c];
            for &i in &scratch.perm[start..end] {
                obj.points.push(cloud.point(i as usize));
            }
            start = end;
        }

        let first_frame = self.frames_seen == 0;
        scratch.next_centroids.clear();
        for (c, obj) in objects.iter_mut().enumerate() {
            let centroid = scratch.cluster_sums[c] / scratch.cluster_counts[c] as f64;
            scratch.next_centroids.push(centroid);

            let nearest = self
                .prev_centroids
                .iter()
                .map(|prev| prev.distance(centroid))
                .min_by(|a, b| a.partial_cmp(b).expect("finite distances"));

            let (moving, displacement) = match nearest {
                _ if first_frame => (false, None),
                Some(d) if d <= self.config.match_radius => {
                    (d > self.config.movement_threshold, Some(d))
                }
                // No match: newly appeared object, treat as moving.
                _ => (true, None),
            };

            obj.centroid = centroid;
            obj.moving = moving;
            obj.displacement = displacement;
        }

        std::mem::swap(&mut self.prev_centroids, &mut scratch.next_centroids);
        self.frames_seen += 1;
        ExtractionOutput { objects }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erpd_geometry::Vec3;

    fn blob_at(x: f64, y: f64) -> PointCloud {
        (0..10)
            .map(|i| Vec3::new(x + 0.1 * (i % 5) as f64, y + 0.1 * (i / 5) as f64, 0.5))
            .collect()
    }

    fn merged(clouds: &[PointCloud]) -> PointCloud {
        let mut out = PointCloud::new();
        for c in clouds {
            out.merge_from(c);
        }
        out
    }

    #[test]
    fn first_frame_is_all_static() {
        let mut ex = MovingObjectExtractor::new(ExtractionConfig::default());
        let out = ex.process(&blob_at(0.0, 0.0));
        assert_eq!(out.objects.len(), 1);
        assert!(!out.objects[0].moving);
        assert_eq!(out.moving_count(), 0);
    }

    #[test]
    fn displaced_cluster_is_moving() {
        let mut ex = MovingObjectExtractor::new(ExtractionConfig::default());
        ex.process(&blob_at(0.0, 0.0));
        let out = ex.process(&blob_at(1.0, 0.0));
        assert_eq!(out.moving_count(), 1);
        let d = out.objects[0].displacement.unwrap();
        assert!((d - 1.0).abs() < 0.05, "displacement = {d}");
    }

    #[test]
    fn stable_cluster_is_static() {
        let mut ex = MovingObjectExtractor::new(ExtractionConfig::default());
        ex.process(&blob_at(5.0, 5.0));
        let out = ex.process(&blob_at(5.0, 5.0));
        assert_eq!(out.moving_count(), 0);
        assert!(!out.objects[0].moving);
        assert!(out.objects[0].displacement.unwrap() < 0.01);
    }

    #[test]
    fn mixed_scene_separates_moving_from_static() {
        let mut ex = MovingObjectExtractor::new(ExtractionConfig::default());
        // Building at (50, 0); car at (0, 0) then (1.5, 0).
        ex.process(&merged(&[blob_at(0.0, 0.0), blob_at(50.0, 0.0)]));
        let out = ex.process(&merged(&[blob_at(1.5, 0.0), blob_at(50.0, 0.0)]));
        assert_eq!(out.objects.len(), 2);
        assert_eq!(out.moving_count(), 1);
        let moving: Vec<_> = out.objects.iter().filter(|o| o.moving).collect();
        assert!((moving[0].centroid.x - 1.7).abs() < 0.5);
        // The upload excludes the building's points.
        assert_eq!(moving[0].points.len(), 10);
    }

    #[test]
    fn newly_appeared_object_is_moving() {
        let mut ex = MovingObjectExtractor::new(ExtractionConfig::default());
        ex.process(&blob_at(0.0, 0.0));
        // Second frame adds an object far from anything previous.
        let out = ex.process(&merged(&[blob_at(0.0, 0.0), blob_at(30.0, 0.0)]));
        let new_obj = out
            .objects
            .iter()
            .find(|o| (o.centroid.x - 30.0).abs() < 1.0)
            .unwrap();
        assert!(new_obj.moving);
        assert!(new_obj.displacement.is_none());
    }

    #[test]
    fn slow_drift_below_threshold_is_static() {
        let cfg = ExtractionConfig::default();
        let mut ex = MovingObjectExtractor::new(cfg);
        ex.process(&blob_at(0.0, 0.0));
        let out = ex.process(&blob_at(cfg.movement_threshold * 0.5, 0.0));
        assert_eq!(out.moving_count(), 0);
    }

    #[test]
    fn noise_points_are_not_uploaded() {
        let mut ex = MovingObjectExtractor::new(ExtractionConfig::default());
        let mut cloud = blob_at(0.0, 0.0);
        cloud.push(Vec3::new(200.0, 200.0, 0.5)); // lone noise point
        let out = ex.process(&cloud);
        assert_eq!(out.objects.len(), 1);
    }

    #[test]
    fn empty_frames_are_fine() {
        let mut ex = MovingObjectExtractor::new(ExtractionConfig::default());
        let out = ex.process(&PointCloud::new());
        assert!(out.objects.is_empty());
        let out = ex.process(&blob_at(0.0, 0.0));
        // Previous frame had no clusters, so this one is "newly appeared"
        // but it is only the second frame; the first frame rule no longer
        // applies.
        assert_eq!(out.moving_count(), 1);
    }
}
