//! Multi-object tracking over the merged traffic map (paper's *Object
//! Tracking* module).
//!
//! The edge server receives per-frame object detections (cluster centroids
//! from the merged map) and must associate them over time to estimate
//! velocities for trajectory prediction. A gated nearest-neighbour
//! association with constant-velocity gating is sufficient at the densities
//! the paper evaluates (tens of objects per intersection).

use crate::{ObjectId, ObjectKind};
use erpd_geometry::Vec2;
use std::collections::{HashMap, VecDeque};

/// One detection fed to the tracker (no identity attached).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Planar position, world frame.
    pub position: Vec2,
    /// Classified kind.
    pub kind: ObjectKind,
}

/// One detection after association: the tracker-assigned identity paired
/// with the observation it matched. Returned by [`Tracker::update`] in
/// input order, so downstream stages can zip identities back onto
/// whatever produced the detections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackedDetection {
    /// Tracker-assigned id, stable across frames.
    pub id: ObjectId,
    /// The observation, as fed in.
    pub detection: Detection,
}

/// A live track maintained by the tracker.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    id: ObjectId,
    kind: ObjectKind,
    history: VecDeque<(f64, Vec2)>,
    misses: usize,
}

impl Track {
    /// The track's identity.
    #[inline]
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The tracked object's kind.
    #[inline]
    pub fn kind(&self) -> ObjectKind {
        self.kind
    }

    /// Most recent position.
    pub fn position(&self) -> Vec2 {
        self.history.back().expect("track has >= 1 observation").1
    }

    /// Timestamp of the most recent observation.
    pub fn last_seen(&self) -> f64 {
        self.history.back().expect("track has >= 1 observation").0
    }

    /// Number of consecutive frames without an observation.
    #[inline]
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// The stored observation history, oldest first.
    pub fn history(&self) -> impl Iterator<Item = (f64, Vec2)> + '_ {
        self.history.iter().copied()
    }

    /// Rebuilds a track from a snapshotted history (oldest first), e.g.
    /// one carried by a cross-edge handover message. Returns `None` for an
    /// empty history — a track always has at least one observation.
    pub fn from_history(
        id: ObjectId,
        kind: ObjectKind,
        misses: usize,
        history: &[(f64, Vec2)],
    ) -> Option<Self> {
        if history.is_empty() {
            return None;
        }
        Some(Track {
            id,
            kind,
            history: history.iter().copied().collect(),
            misses,
        })
    }

    /// Velocity estimate from the stored history (least-squares slope over
    /// the window), or zero for a single observation.
    pub fn velocity(&self) -> Vec2 {
        let n = self.history.len();
        if n < 2 {
            return Vec2::ZERO;
        }
        // Least-squares fit of position against time.
        let t_mean = self.history.iter().map(|(t, _)| *t).sum::<f64>() / n as f64;
        let p_mean = self.history.iter().map(|(_, p)| *p).sum::<Vec2>() / n as f64;
        let mut num = Vec2::ZERO;
        let mut den = 0.0;
        for (t, p) in &self.history {
            let dt = t - t_mean;
            num += (*p - p_mean) * dt;
            den += dt * dt;
        }
        if den <= f64::EPSILON {
            Vec2::ZERO
        } else {
            num / den
        }
    }

    /// Position coasted to `now` by the constant-velocity model: the best
    /// estimate for a track whose recent observations are missing (e.g. the
    /// observing vehicle's upload was lost). Equals [`Track::position`] when
    /// `now` is not later than the last observation.
    pub fn coasted_position(&self, now: f64) -> Vec2 {
        let age = now - self.last_seen();
        if age <= 0.0 {
            return self.position();
        }
        self.position() + self.velocity() * age
    }

    /// Heading estimate: direction of the velocity, or `None` when nearly
    /// stationary.
    pub fn heading(&self) -> Option<f64> {
        let v = self.velocity();
        (v.norm() > 0.05).then(|| v.angle())
    }

    /// Turn-rate estimate (rad/s) from the change of direction over the
    /// history window; zero when motion is too short or too slow.
    pub fn turn_rate(&self) -> f64 {
        let n = self.history.len();
        if n < 3 {
            return 0.0;
        }
        let (t0, p0) = self.history[0];
        let (_, pm) = self.history[n / 2];
        let (t1, p1) = self.history[n - 1];
        let v_early = pm - p0;
        let v_late = p1 - pm;
        if v_early.norm() < 0.05 || v_late.norm() < 0.05 || t1 - t0 <= f64::EPSILON {
            return 0.0;
        }
        let dtheta = erpd_geometry::angle::angle_diff(v_late.angle(), v_early.angle());
        dtheta / ((t1 - t0) / 2.0)
    }
}

/// Fixed slack of the association gate, metres: a detection is a track's
/// candidate within `GATE_BASE + GATE_SPEED * dt` of its predicted position.
const GATE_BASE: f64 = 1.0;

/// Speed component of the gate, m/s (72 km/h, above the fastest object).
const GATE_SPEED: f64 = 20.0;

/// A track is dropped after this many consecutive missed frames.
const MAX_MISSES: usize = 5;

/// Observations kept per track for velocity estimation.
const HISTORY_LEN: usize = 8;

/// Gated nearest-neighbour multi-object tracker.
///
/// # Examples
///
/// ```
/// use erpd_tracking::{Detection, ObjectKind, Tracker};
/// use erpd_geometry::Vec2;
///
/// let mut tracker = Tracker::new();
/// for frame in 0..5 {
///     let t = frame as f64 * 0.1;
///     tracker.update(t, &[Detection {
///         position: Vec2::new(10.0 * t, 0.0), // 10 m/s along +x
///         kind: ObjectKind::Vehicle,
///     }]);
/// }
/// let track = &tracker.tracks()[0];
/// assert!((track.velocity().x - 10.0).abs() < 0.2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracker {
    tracks: Vec<Track>,
    next_id: u64,
    last_time: Option<f64>,
}

impl Tracker {
    /// Creates a tracker (the same as [`Tracker::default`]).
    pub fn new() -> Self {
        Tracker::with_id_base(0)
    }

    /// Creates a tracker whose fresh track ids start at `base`. In a
    /// multi-edge deployment each edge gets a disjoint id namespace (e.g.
    /// `edge_index << 32`), so a track handed over from another edge can
    /// never collide with a locally created one. `base == 0` is exactly
    /// [`Tracker::new`].
    pub fn with_id_base(base: u64) -> Self {
        Tracker {
            tracks: Vec::new(),
            next_id: base,
            last_time: None,
        }
    }

    /// Live tracks, in creation order.
    #[inline]
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Looks up a track by id.
    pub fn track(&self, id: ObjectId) -> Option<&Track> {
        self.tracks.iter().find(|t| t.id == id)
    }

    /// Adopts a track handed over from another tracker, keeping its
    /// identity: an existing track with the same id is replaced (the
    /// incoming snapshot is fresher), otherwise the track is appended in
    /// creation order. The caller is responsible for id-namespace
    /// disjointness (see [`Tracker::with_id_base`]).
    pub fn adopt(&mut self, track: Track) {
        match self.tracks.iter_mut().find(|t| t.id == track.id) {
            Some(existing) => *existing = track,
            None => self.tracks.push(track),
        }
    }

    /// Removes and returns the track with the given id, if present.
    pub fn remove(&mut self, id: ObjectId) -> Option<Track> {
        let at = self.tracks.iter().position(|t| t.id == id)?;
        Some(self.tracks.remove(at))
    }

    /// Ingests one frame of detections at time `now` (seconds, must be
    /// non-decreasing across calls). Returns each detection paired with
    /// its assigned identity, in input order.
    pub fn update(&mut self, now: f64, detections: &[Detection]) -> Vec<TrackedDetection> {
        let dt = self.last_time.map(|t| (now - t).max(0.0)).unwrap_or(0.0);
        self.last_time = Some(now);
        let gate = GATE_BASE + GATE_SPEED * dt;

        // Greedy globally-nearest association: collect all (dist, track, det)
        // pairs under the gate, sort, and assign each side at most once.
        // The candidates of a track are the detections in the 3×3 cells
        // around its predicted position, the cell a hair wider than the
        // gate so rounding in the key division cannot hide a gated pair.
        let cell = gate * (1.0 + 1e-9);
        let key = |p: Vec2| ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64);
        let mut grid: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        for (di, det) in detections.iter().enumerate() {
            grid.entry(key(det.position)).or_default().push(di);
        }
        let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
        for (ti, track) in self.tracks.iter().enumerate() {
            let predicted = track.position() + track.velocity() * dt;
            let (kx, ky) = key(predicted);
            for cx in [kx.wrapping_sub(1), kx, kx.wrapping_add(1)] {
                for cy in [ky.wrapping_sub(1), ky, ky.wrapping_add(1)] {
                    for &di in grid.get(&(cx, cy)).into_iter().flatten() {
                        let det = &detections[di];
                        if det.kind != track.kind {
                            continue;
                        }
                        let d = predicted.distance(det.position);
                        if d <= gate {
                            pairs.push((d, ti, di));
                        }
                    }
                }
            }
        }
        // Nearest first, ties by (track, detection): the order a stable
        // sort by distance gives the pairs of a track-major double loop.
        pairs.sort_unstable_by(|a, b| {
            let by_distance = a.0.partial_cmp(&b.0).expect("finite distances");
            by_distance.then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
        });

        let mut track_used = vec![false; self.tracks.len()];
        let mut det_assigned: Vec<Option<usize>> = vec![None; detections.len()];
        for (_, ti, di) in pairs {
            if !track_used[ti] && det_assigned[di].is_none() {
                track_used[ti] = true;
                det_assigned[di] = Some(ti);
            }
        }

        let mut out = Vec::with_capacity(detections.len());
        for (di, det) in detections.iter().enumerate() {
            match det_assigned[di] {
                Some(ti) => {
                    let track = &mut self.tracks[ti];
                    track.history.push_back((now, det.position));
                    while track.history.len() > HISTORY_LEN {
                        track.history.pop_front();
                    }
                    track.misses = 0;
                    out.push(TrackedDetection {
                        id: track.id,
                        detection: *det,
                    });
                }
                None => {
                    let id = ObjectId(self.next_id);
                    self.next_id += 1;
                    let mut history = VecDeque::with_capacity(HISTORY_LEN);
                    history.push_back((now, det.position));
                    self.tracks.push(Track {
                        id,
                        kind: det.kind,
                        history,
                        misses: 0,
                    });
                    track_used.push(true);
                    out.push(TrackedDetection {
                        id,
                        detection: *det,
                    });
                }
            }
        }

        // Age unmatched tracks and drop stale ones.
        for (ti, used) in track_used.iter().enumerate().take(self.tracks.len()) {
            if !used {
                self.tracks[ti].misses += 1;
            }
        }
        self.tracks.retain(|t| t.misses <= MAX_MISSES);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(x: f64, y: f64) -> Detection {
        Detection {
            position: Vec2::new(x, y),
            kind: ObjectKind::Vehicle,
        }
    }

    #[test]
    fn single_object_keeps_identity() {
        let mut tr = Tracker::new();
        let mut ids = Vec::new();
        for i in 0..10 {
            let r = tr.update(i as f64 * 0.1, &[det(i as f64, 0.0)]);
            ids.push(r[0].id);
        }
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(tr.tracks().len(), 1);
    }

    #[test]
    fn velocity_estimate_converges() {
        let mut tr = Tracker::new();
        for i in 0..8 {
            let t = i as f64 * 0.1;
            tr.update(t, &[det(5.0 * t, -3.0 * t)]);
        }
        let v = tr.tracks()[0].velocity();
        assert!((v.x - 5.0).abs() < 0.1, "vx = {}", v.x);
        assert!((v.y + 3.0).abs() < 0.1, "vy = {}", v.y);
    }

    #[test]
    fn coasting_extrapolates_along_velocity() {
        let mut tr = Tracker::new();
        for i in 0..8 {
            let t = i as f64 * 0.1;
            tr.update(t, &[det(5.0 * t, 0.0)]);
        }
        let track = &tr.tracks()[0];
        let last = track.last_seen();
        // Not later than the last observation: exactly the last position.
        assert_eq!(track.coasted_position(last), track.position());
        // Half a second later: advanced by roughly v * 0.5.
        let coasted = track.coasted_position(last + 0.5);
        let expect = track.position() + track.velocity() * 0.5;
        assert!((coasted - expect).norm() < 1e-9);
        assert!((coasted.x - (track.position().x + 2.5)).abs() < 0.1);
    }

    #[test]
    fn two_objects_do_not_swap() {
        let mut tr = Tracker::new();
        let mut id_a = None;
        let mut id_b = None;
        for i in 0..10 {
            let t = i as f64 * 0.1;
            // A moves east along y=0; B moves west along y=10.
            let r = tr.update(t, &[det(10.0 * t, 0.0), det(50.0 - 10.0 * t, 10.0)]);
            if i == 0 {
                id_a = Some(r[0].id);
                id_b = Some(r[1].id);
            } else {
                assert_eq!(r[0].id, id_a.unwrap());
                assert_eq!(r[1].id, id_b.unwrap());
            }
        }
    }

    #[test]
    fn kinds_never_associate() {
        let mut tr = Tracker::new();
        tr.update(0.0, &[det(0.0, 0.0)]);
        // A pedestrian detection at the same spot must open a new track.
        let r = tr.update(0.1, &[Detection {
            position: Vec2::new(0.0, 0.0),
            kind: ObjectKind::Pedestrian,
        }]);
        assert_eq!(tr.tracks().len(), 2);
        assert_eq!(tr.track(r[0].id).unwrap().kind(), ObjectKind::Pedestrian);
    }

    #[test]
    fn stale_tracks_are_dropped() {
        let mut tr = Tracker::new();
        tr.update(0.0, &[det(0.0, 0.0)]);
        for i in 1..=MAX_MISSES {
            tr.update(i as f64 * 0.1, &[]);
        }
        assert_eq!(tr.tracks().len(), 1, "alive after {MAX_MISSES} misses");
        tr.update((MAX_MISSES + 1) as f64 * 0.1, &[]);
        assert!(tr.tracks().is_empty());
    }

    #[test]
    fn occlusion_gap_survives_within_misses() {
        let mut tr = Tracker::new();
        let id0 = tr.update(0.0, &[det(0.0, 0.0)])[0].id;
        tr.update(0.1, &[det(1.0, 0.0)]);
        // Two missed frames.
        tr.update(0.2, &[]);
        tr.update(0.3, &[]);
        // Reappears where constant velocity predicts (x ~ 4).
        let id1 = tr.update(0.4, &[det(4.0, 0.0)])[0].id;
        assert_eq!(id0, id1);
    }

    #[test]
    fn far_detection_opens_new_track() {
        let mut tr = Tracker::new();
        let a = tr.update(0.0, &[det(0.0, 0.0)])[0].id;
        let b = tr.update(0.1, &[det(500.0, 0.0)])[0].id;
        assert_ne!(a, b);
        assert_eq!(tr.tracks().len(), 2);
    }

    #[test]
    fn turn_rate_detected_on_curved_path() {
        let mut tr = Tracker::new();
        // Quarter circle of radius 20 m at ~10 m/s: omega = v/r = 0.5 rad/s.
        let omega: f64 = 0.5;
        let r = 20.0;
        for i in 0..8 {
            let t = i as f64 * 0.1;
            let a = omega * t;
            tr.update(t, &[det(r * a.sin(), r * (1.0 - a.cos()))]);
        }
        let w = tr.tracks()[0].turn_rate();
        assert!((w - omega).abs() < 0.15, "turn rate = {w}");
    }

    #[test]
    fn history_is_bounded() {
        let mut tr = Tracker::new();
        for i in 0..20 {
            tr.update(i as f64 * 0.1, &[det(i as f64, 0.0)]);
        }
        assert_eq!(tr.tracks()[0].history().count(), HISTORY_LEN);
    }

    #[test]
    fn id_base_namespaces_fresh_tracks() {
        let mut tr = Tracker::with_id_base(3 << 32);
        let a = tr.update(0.0, &[det(0.0, 0.0)])[0].id;
        let b = tr.update(0.0, &[det(0.0, 0.0), det(500.0, 0.0)])[1].id;
        assert_eq!(a, ObjectId(3 << 32));
        assert_eq!(b, ObjectId((3 << 32) + 1));
    }

    #[test]
    fn adopted_track_keeps_identity_across_updates() {
        let mut source = Tracker::new();
        for i in 0..4 {
            source.update(i as f64 * 0.1, &[det(5.0 * i as f64 * 0.1, 0.0)]);
        }
        let track = source.tracks()[0].clone();
        let id = track.id();
        let history: Vec<_> = track.history().collect();

        let mut dest = Tracker::with_id_base(1 << 32);
        let rebuilt =
            Track::from_history(id, track.kind(), track.misses(), &history).expect("non-empty");
        assert_eq!(rebuilt, track);
        dest.adopt(rebuilt);
        // The next detection continues the adopted track, same id, with the
        // transferred history feeding the velocity estimate.
        let r = dest.update(0.4, &[det(2.0, 0.0)]);
        assert_eq!(r[0].id, id);
        assert_eq!(dest.tracks().len(), 1);
        assert_eq!(dest.tracks()[0].history().count(), history.len() + 1);
        // Adopting a fresher snapshot replaces in place, never duplicates.
        dest.adopt(track.clone());
        assert_eq!(dest.tracks().len(), 1);
        assert_eq!(dest.remove(id).unwrap().history().count(), history.len());
        assert!(dest.remove(id).is_none());
    }

    #[test]
    fn from_history_rejects_empty() {
        assert!(Track::from_history(ObjectId(1), ObjectKind::Vehicle, 0, &[]).is_none());
    }

    #[test]
    fn single_observation_has_zero_velocity() {
        let mut tr = Tracker::new();
        tr.update(0.0, &[det(3.0, 4.0)]);
        assert_eq!(tr.tracks()[0].velocity(), Vec2::ZERO);
        assert!(tr.tracks()[0].heading().is_none());
        assert_eq!(tr.tracks()[0].turn_rate(), 0.0);
    }
}
