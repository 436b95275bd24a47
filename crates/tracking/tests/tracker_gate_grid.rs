//! Differential suite for `Tracker::update`'s gate search: candidates
//! found through the detection grid and ordered by `(distance, track,
//! detection)` must assign exactly what the nested track × detection loop
//! with a stable sort by distance assigned — same ids, same
//! `TrackedDetection` order, same surviving tracks — including on frames
//! full of exactly equal distances.
//!
//! [`ReferenceTracker`] is `Tracker::update` as it stood before the grid,
//! verbatim, over tracks rebuilt through `Track::from_history`. It is kept
//! for one PR and then retired.

use erpd_geometry::Vec2;
use erpd_rand::rngs::StdRng;
use erpd_rand::{Rng, RngCore, SeedableRng};
use erpd_tracking::{
    Detection, ObjectId, ObjectKind, Track, TrackedDetection, Tracker, TrackerConfig,
};

struct ReferenceTracker {
    config: TrackerConfig,
    tracks: Vec<Track>,
    next_id: u64,
    last_time: Option<f64>,
}

impl ReferenceTracker {
    fn new(config: TrackerConfig) -> Self {
        ReferenceTracker {
            config,
            tracks: Vec::new(),
            next_id: 0,
            last_time: None,
        }
    }

    /// `track` with one more observation (and `misses`), the history capped.
    fn observed(&self, track: &Track, now: f64, at: Vec2) -> Track {
        let mut history: Vec<(f64, Vec2)> = track.history().collect();
        history.push((now, at));
        while history.len() > self.config.history_len {
            history.remove(0);
        }
        Track::from_history(track.id(), track.kind(), 0, &history).expect("non-empty")
    }

    fn update(&mut self, now: f64, detections: &[Detection]) -> Vec<TrackedDetection> {
        let dt = self.last_time.map(|t| (now - t).max(0.0)).unwrap_or(0.0);
        self.last_time = Some(now);
        let gate = self.config.gate_base + self.config.gate_speed * dt;

        // Greedy globally-nearest association: collect all (dist, track, det)
        // pairs under the gate, sort, and assign each side at most once.
        let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
        for (ti, track) in self.tracks.iter().enumerate() {
            let predicted = track.position() + track.velocity() * dt;
            for (di, det) in detections.iter().enumerate() {
                if det.kind != track.kind() {
                    continue;
                }
                let d = predicted.distance(det.position);
                if d <= gate {
                    pairs.push((d, ti, di));
                }
            }
        }
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));

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
                    self.tracks[ti] = self.observed(&self.tracks[ti], now, det.position);
                    out.push(TrackedDetection {
                        id: self.tracks[ti].id(),
                        detection: *det,
                    });
                }
                None => {
                    let id = ObjectId(self.next_id);
                    self.next_id += 1;
                    let history = [(now, det.position)];
                    self.tracks
                        .push(Track::from_history(id, det.kind, 0, &history).expect("non-empty"));
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
                let t = &self.tracks[ti];
                let history: Vec<(f64, Vec2)> = t.history().collect();
                self.tracks[ti] = Track::from_history(t.id(), t.kind(), t.misses() + 1, &history)
                    .expect("non-empty");
            }
        }
        let max_misses = self.config.max_misses;
        self.tracks.retain(|t| t.misses() <= max_misses);
        out
    }
}

/// One frame of detections: objects on an integer lattice (so predicted
/// positions and detections sit at exactly equal distances — 3-4-5
/// triangles, mirror images, shared midpoints) drifting by whole cells,
/// some missing, some duplicated, some far outliers, shuffled.
fn lattice_frame(rng: &mut StdRng, frame: u64, n: usize) -> Vec<Detection> {
    let mut out = Vec::new();
    for k in 0..n as i64 {
        if rng.gen_bool(0.15) {
            continue; // missed this frame
        }
        let kind = if k % 3 == 0 {
            ObjectKind::Pedestrian
        } else {
            ObjectKind::Vehicle
        };
        // Columns 3 apart, rows 4 apart: neighbours' detections are 3, 4
        // and 5 cells from each other's predictions.
        let drift = (frame as i64) * (k % 2);
        let jump = rng.gen_range(0..3i64) - 1;
        let at = Vec2::new(
            (3 * (k % 8) + drift + jump) as f64,
            (4 * (k / 8) + rng.gen_range(0..2i64)) as f64,
        );
        out.push(Detection { position: at, kind });
        if rng.gen_bool(0.1) {
            // A twin at the mirror position across the lattice point.
            let twin = Vec2::new(at.x - 2.0 * jump as f64, at.y);
            out.push(Detection {
                position: twin,
                kind,
            });
        }
    }
    if rng.gen_bool(0.3) {
        out.push(Detection {
            position: Vec2::new(1e4 * rng.next_unit_f64(), -1e4),
            kind: ObjectKind::Vehicle,
        });
    }
    rng.shuffle(&mut out);
    out
}

/// Detections anywhere, negative coordinates and cell borders included.
fn scattered_frame(rng: &mut StdRng, n: usize) -> Vec<Detection> {
    (0..n)
        .map(|k| Detection {
            position: Vec2::new(
                (rng.next_unit_f64() - 0.5) * 80.0,
                (rng.next_unit_f64() - 0.5) * 80.0,
            ),
            kind: if k % 4 == 0 {
                ObjectKind::Pedestrian
            } else {
                ObjectKind::Vehicle
            },
        })
        .collect()
}

fn assert_same_state(grid: &Tracker, reference: &ReferenceTracker, at: &str) {
    assert_eq!(
        grid.tracks(),
        &reference.tracks[..],
        "surviving tracks differ {at}"
    );
}

#[test]
fn grid_gate_search_matches_the_nested_loop() {
    let mut tied_pairs = 0usize;
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51_7c_c1_b7_27_22_0a_95);
        let config = TrackerConfig {
            // Wide and narrow gates: from one cell to a dozen.
            gate_base: [0.5, 1.0, 3.0, 5.0][(seed % 4) as usize],
            gate_speed: [0.0, 20.0, 60.0][(seed % 3) as usize],
            ..TrackerConfig::default()
        };
        let mut grid = Tracker::new(config);
        let mut reference = ReferenceTracker::new(config);
        let n = rng.gen_range(8..64usize);
        let mut now = 0.0;
        for frame in 0..30u64 {
            let detections = if seed % 2 == 0 {
                lattice_frame(&mut rng, frame, n)
            } else {
                scattered_frame(&mut rng, n)
            };
            let got = grid.update(now, &detections);
            let want = reference.update(now, &detections);
            assert_eq!(got, want, "seed {seed} frame {frame}: assignments differ");
            assert_same_state(
                &grid,
                &reference,
                &format!("after seed {seed} frame {frame}"),
            );
            // Irregular frame spacing, so the gate (and the cell) changes.
            now += [0.1, 0.1, 0.05, 0.2, 0.0][rng.gen_range(0..5usize)];
        }

        // How many exact ties the last frame held, measured on the
        // reference's terms: equal distances under the gate.
        let detections = lattice_frame(&mut rng, 30, n);
        let mut distances: Vec<u64> = Vec::new();
        for t in &reference.tracks {
            for d in &detections {
                let dist = t.position().distance(d.position);
                if d.kind == t.kind() && dist <= config.gate_base {
                    distances.push(dist.to_bits());
                }
            }
        }
        distances.sort_unstable();
        tied_pairs += distances.windows(2).filter(|w| w[0] == w[1]).count();
    }
    assert!(
        tied_pairs > 100,
        "the lattice must produce exact ties: {tied_pairs}"
    );
}
