//! Differential suite for the relevance broad phase: the matrix built
//! through the box rejects, the time-window reject, the per-crossing
//! common-instant filter, the early-exit and truncated circle walks, the
//! score bound and the ask-`visible`-last row assembly must equal, entry for
//! entry and bit for bit, the matrix the brute-force implementation builds.
//!
//! [`reference`] holds the implementation as it stood before the broad
//! phase, verbatim: `build_relevance_matrix_multi`, `trajectory_relevance`
//! (with `score_area` and the Gaussian baseline), `Polyline2::crossings`,
//! `Polyline2::circle_intervals` and `passing_intervals(..).first()`. It is
//! the oracle of the time-window reject and its kernels, and it stays for
//! exactly one more change after them; then it is retired, like the DBSCAN
//! and SoA references before it.

use erpd_core::{
    build_relevance_matrix_multi, trajectory_relevance, ObjectHypotheses, RelevanceConfig,
    RelevanceMatrix, RelevanceMode, DEFAULT_ALPHA,
};
use erpd_geometry::{Circle, Polyline2, Vec2, REJECT_MARGIN};
use erpd_rand::rngs::StdRng;
use erpd_rand::{Rng, RngCore, SeedableRng};
use erpd_tracking::{predict_ctrv, FollowerLink, ObjectId, ObjectKind, PredictedTrajectory};
use std::collections::BTreeSet;
use std::f64::consts::{FRAC_PI_2, PI};

/// The pre-broad-phase implementation, verbatim over the public API (the
/// cumulative arc lengths are re-accumulated exactly as `Polyline2::new`
/// accumulates them).
mod reference {
    use erpd_core::{
        follower_at_risk, follower_relevance, Error, ObjectHypotheses, RelevanceBreakdown,
        RelevanceConfig, RelevanceMatrix, RelevanceMode,
    };
    use erpd_geometry::{Circle, Interval, Polyline2, PolylineCrossing};
    use erpd_tracking::{FollowerLink, ObjectId, PredictedTrajectory, HORIZON};

    fn cumulative(p: &Polyline2) -> Vec<f64> {
        let mut cumulative = Vec::with_capacity(p.points().len());
        let mut acc = 0.0;
        cumulative.push(0.0);
        for w in p.points().windows(2) {
            acc += w[0].distance(w[1]);
            cumulative.push(acc);
        }
        cumulative
    }

    pub fn crossings(this: &Polyline2, other: &Polyline2) -> Vec<PolylineCrossing> {
        let (this_cumulative, other_cumulative) = (cumulative(this), cumulative(other));
        let mut out = Vec::new();
        for (i, sa) in this.segments().enumerate() {
            for (j, sb) in other.segments().enumerate() {
                if let Some(hit) = sa.intersect(&sb) {
                    out.push(PolylineCrossing {
                        point: hit.point,
                        s_self: this_cumulative[i] + hit.t_self * sa.length(),
                        s_other: other_cumulative[j] + hit.t_other * sb.length(),
                    });
                }
            }
        }
        out.sort_by(|a, b| a.s_self.partial_cmp(&b.s_self).expect("finite"));
        out
    }

    pub fn circle_intervals(this: &Polyline2, circle: &Circle) -> Vec<(f64, f64)> {
        let this_cumulative = cumulative(this);
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, seg) in this.segments().enumerate() {
            let seg_len = seg.length();
            if let Some((t0, t1)) = circle.segment_inside(&seg) {
                let s0 = this_cumulative[i] + t0 * seg_len;
                let s1 = this_cumulative[i] + t1 * seg_len;
                match out.last_mut() {
                    // Contiguous with the previous segment's interval: merge.
                    Some(last) if s0 <= last.1 + 1e-9 => last.1 = last.1.max(s1),
                    _ => out.push((s0, s1)),
                }
            }
        }
        out.retain(|(s0, s1)| s1 - s0 > 1e-12);
        out
    }

    pub fn passing_intervals(this: &PredictedTrajectory, circle: &Circle) -> Vec<Interval> {
        match this.path() {
            None => {
                if circle.contains(this.position_at(0.0)) {
                    vec![Interval::new(0.0, HORIZON).expect("valid horizon")]
                } else {
                    Vec::new()
                }
            }
            Some(path) => {
                let mut out = Vec::new();
                for (s0, s1) in circle_intervals(path, circle) {
                    let t0 = s0 / this.speed();
                    let t1 = s1 / this.speed();
                    if t0 >= HORIZON {
                        continue;
                    }
                    if let Some(iv) = Interval::new(t0.max(0.0), t1.min(HORIZON)) {
                        if iv.length() > 1e-9 {
                            out.push(iv);
                        }
                    }
                }
                out
            }
        }
    }

    fn first_passing_interval(this: &PredictedTrajectory, circle: &Circle) -> Option<Interval> {
        passing_intervals(this, circle).into_iter().next()
    }

    fn shared_horizon(_: &PredictedTrajectory, _: &PredictedTrajectory) -> f64 {
        HORIZON
    }

    fn score_area(
        a: &PredictedTrajectory,
        b: &PredictedTrajectory,
        area: &Circle,
        horizon: f64,
    ) -> Option<RelevanceBreakdown> {
        let t1 = first_passing_interval(a, area)?;
        let t2 = first_passing_interval(b, area)?;
        let overlap = t1.intersection(&t2);
        let (ci, ttc) = match overlap {
            Some(iv) if iv.length() > 1e-9 => (iv.length(), iv.start()),
            _ => return Some(RelevanceBreakdown::none(horizon)),
        };
        let r_ci = t1.iou(&t2);
        let r_ttc = (1.0 - ttc / horizon).clamp(0.0, 1.0);
        Some(RelevanceBreakdown {
            r_ci,
            r_ttc,
            ttc,
            collision_interval: ci,
            relevance: (r_ci + r_ttc) / 2.0,
        })
    }

    pub fn trajectory_relevance(
        a: &PredictedTrajectory,
        b: &PredictedTrajectory,
        config: RelevanceConfig,
    ) -> RelevanceBreakdown {
        let horizon = shared_horizon(a, b);
        if config.mode == RelevanceMode::Gaussian {
            let g = joint_gaussian_relevance(a, b);
            let mut out = RelevanceBreakdown::none(horizon);
            out.relevance = g;
            return out;
        }
        let radius_len = a.length.max(b.length);
        let mut best = RelevanceBreakdown::none(horizon);

        let mut consider = |area: Circle| {
            if let Some(mut r) = score_area(a, b, &area, horizon) {
                r.relevance = match config.mode {
                    RelevanceMode::Combined => (r.r_ci + r.r_ttc) / 2.0,
                    RelevanceMode::CiOnly => r.r_ci,
                    RelevanceMode::TtcOnly => r.r_ttc,
                    RelevanceMode::Gaussian => unreachable!("handled above"),
                };
                if r.relevance > best.relevance {
                    best = r;
                }
            }
        };

        match (a.path(), b.path()) {
            (Some(pa), Some(pb)) => {
                for crossing in crossings(pa, pb) {
                    consider(Circle::collision_area(crossing.point, a.length, b.length));
                }
            }
            (Some(pa), None) => {
                let pos = b.position_at(0.0);
                if pa.distance_to_point(pos) <= radius_len {
                    consider(Circle::new(pos, radius_len));
                }
            }
            (None, Some(pb)) => {
                let pos = a.position_at(0.0);
                if pb.distance_to_point(pos) <= radius_len {
                    consider(Circle::new(pos, radius_len));
                }
            }
            (None, None) => {}
        }
        best
    }

    fn joint_gaussian_relevance(a: &PredictedTrajectory, b: &PredictedTrajectory) -> f64 {
        let (pa, pb) = match (a.path(), b.path()) {
            (Some(pa), Some(pb)) => (pa, pb),
            _ => return 0.0,
        };
        let Some(crossing) = crossings(pa, pb).into_iter().next() else {
            return 0.0;
        };
        if a.speed() <= 0.0 || b.speed() <= 0.0 {
            return 0.0;
        }
        let ta = crossing.s_self / a.speed();
        let tb = crossing.s_other / b.speed();
        let horizon = shared_horizon(a, b);
        if ta > horizon || tb > horizon {
            return 0.0;
        }
        let t_star = ((ta + tb) / 2.0).clamp(0.0, horizon);
        let ga = a.gaussian_at(t_star);
        let gb = b.gaussian_at(t_star);
        let joint = ga.pdf(crossing.point) * gb.pdf(crossing.point);
        let peak = ga.pdf(ga.mean()) * gb.pdf(gb.mean());
        if peak <= f64::EPSILON {
            0.0
        } else {
            (joint / peak).clamp(0.0, 1.0)
        }
    }

    /// Sequential where the original fanned receiver rows out over
    /// `erpd-par` — rows are independent and come back in receiver order.
    pub fn build_relevance_matrix_multi(
        objects: &[ObjectHypotheses],
        receivers: &[ObjectId],
        followers: &[FollowerLink],
        alpha: f64,
        config: RelevanceConfig,
        visible: impl Fn(ObjectId, ObjectId) -> bool + Sync,
    ) -> Result<RelevanceMatrix, Error> {
        let receiver_set: std::collections::BTreeSet<ObjectId> =
            receivers.iter().copied().collect();
        let recvs: Vec<&ObjectHypotheses> = objects
            .iter()
            .filter(|recv| receiver_set.contains(&recv.object))
            .collect();
        let visible = &visible;
        let rows: Vec<(ObjectId, Vec<(ObjectId, f64)>)> = recvs
            .into_iter()
            .map(|recv| {
                let row = objects
                    .iter()
                    .filter(|obj| obj.object != recv.object && !visible(recv.object, obj.object))
                    .map(|obj| {
                        let mut r = 0.0f64;
                        for to in &obj.trajectories {
                            for tr in recv.trajectories.iter().chain(&recv.receiver_extra) {
                                r = r.max(trajectory_relevance(to, tr, config).relevance);
                            }
                        }
                        (obj.object, r * config.staleness_discount(obj.age))
                    })
                    .collect();
                (recv.object, row)
            })
            .collect();

        let mut m = RelevanceMatrix::new();
        for (receiver, row) in rows {
            for (object, r) in row {
                m.try_set(receiver, object, r)?;
            }
        }
        for link in followers {
            if !receiver_set.contains(&link.follower) || !follower_at_risk(link) {
                continue;
            }
            for (object, leader_r) in m.row(link.leader) {
                if object == link.follower || visible(link.follower, object) {
                    continue;
                }
                let r = follower_relevance(leader_r, alpha, 1);
                if r > m.get(link.follower, object) {
                    m.try_set(link.follower, object, r)?;
                }
            }
        }
        Ok(m)
    }
}

// --- Cases ----------------------------------------------------------------

/// One matrix to build both ways.
struct Case {
    name: &'static str,
    objects: Vec<ObjectHypotheses>,
    receivers: Vec<ObjectId>,
    followers: Vec<FollowerLink>,
    visible: BTreeSet<(ObjectId, ObjectId)>,
    config: RelevanceConfig,
}

impl Case {
    /// Every object a receiver, nothing visible, no followers.
    fn new(name: &'static str, objects: Vec<ObjectHypotheses>) -> Self {
        Case {
            name,
            receivers: objects.iter().map(|o| o.object).collect(),
            objects,
            followers: Vec::new(),
            visible: BTreeSet::new(),
            config: RelevanceConfig::default(),
        }
    }
}

fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_unit_f64()
}

fn ctrv(id: u64, at: Vec2, speed: f64, heading: f64, turn_rate: f64) -> PredictedTrajectory {
    predict_ctrv(
        ObjectId(id),
        ObjectKind::Vehicle,
        at,
        speed,
        heading,
        turn_rate,
        4.5,
    )
}

fn on_path(id: u64, points: Vec<Vec2>, speed: f64, length: f64) -> PredictedTrajectory {
    let path = Polyline2::new(points).expect("a valid path");
    PredictedTrajectory::from_path(ObjectId(id), ObjectKind::Vehicle, path, speed, length)
}

fn parked(id: u64, at: Vec2, length: f64) -> PredictedTrajectory {
    PredictedTrajectory::stationary(ObjectId(id), ObjectKind::Pedestrian, at, length)
}

fn singles(trajectories: Vec<PredictedTrajectory>) -> Vec<ObjectHypotheses> {
    trajectories
        .into_iter()
        .map(ObjectHypotheses::single)
        .collect()
}

/// An intersection's worth of CTRV traffic: four approaches, several
/// vehicles per lane (same-lane pairs are parallel, cross-lane pairs
/// cross), a few turning, a few parked.
fn intersection_traffic(rng: &mut StdRng, n: u64) -> Vec<PredictedTrajectory> {
    (0..n)
        .map(|id| {
            let approach = rng.gen_range(0..4u32);
            let heading = approach as f64 * FRAC_PI_2;
            let lane = 1.75 + 3.5 * rng.gen_range(0..2u32) as f64;
            let back = uniform(rng, 5.0, 90.0);
            // Heading `h` drives along `(cos h, sin h)`, keeping right.
            let forward = Vec2::from_angle(heading);
            let right = Vec2::from_angle(heading - FRAC_PI_2);
            let at = forward * -back + right * lane;
            match rng.gen_range(0..8u32) {
                0 => parked(id, at, 0.6),
                1 => ctrv(
                    id,
                    at,
                    uniform(rng, 3.0, 9.0),
                    heading,
                    uniform(rng, -0.4, 0.4),
                ),
                _ => ctrv(id, at, uniform(rng, 4.0, 18.0), heading, 0.0),
            }
        })
        .collect()
}

/// Paths whose boxes touch, or sit just inside or just outside the reject
/// margin of each other — one horizontal run, and verticals ending a hair
/// above it, on it, or through it.
fn margin_case() -> Case {
    let mut trajectories = vec![on_path(
        1,
        vec![
            Vec2::new(-30.0, 0.0),
            Vec2::new(-10.0, 0.0),
            Vec2::new(40.0, 0.0),
        ],
        10.0,
        4.5,
    )];
    let gaps = [
        0.0, 1e-9, 1e-6, 1e-4, 5e-4, 9.9e-4, 1e-3, 1.01e-3, 2e-3, 1e-2, -1e-9, -1e-4, -1.0,
    ];
    for (k, gap) in gaps.into_iter().enumerate() {
        let x = -25.0 + 4.0 * k as f64;
        // Drives down towards the horizontal run and stops `gap` short.
        trajectories.push(on_path(
            10 + k as u64,
            vec![Vec2::new(x, 30.0), Vec2::new(x, 12.0), Vec2::new(x, gap)],
            8.0,
            4.5,
        ));
        // The same, beside the run's end instead of above it.
        trajectories.push(on_path(
            40 + k as u64,
            vec![
                Vec2::new(40.0 + gap, -20.0),
                Vec2::new(40.0 + gap, 20.0 + k as f64),
            ],
            8.0,
            4.5,
        ));
    }
    Case::new("boxes within the reject margin", singles(trajectories))
}

/// Near-parallel straight paths whose segment cross products straddle
/// `Segment2::intersect`'s `1e-12` cut-off, overlapping and apart.
fn cutoff_case() -> Case {
    let len = 40.0;
    let base = on_path(1, vec![Vec2::new(0.0, 0.0), Vec2::new(len, 0.0)], 8.0, 4.5);
    let mut trajectories = vec![base];
    let factors = [0.0, 0.5, 0.99, 1.0, 1.01, 2.0, 10.0, 1e3, 1e6];
    for (k, f) in factors.into_iter().enumerate() {
        // `r × s = len · rise`, so `rise = f · 1e-12 / len` puts the
        // denominator at `f` times the cut-off.
        let rise = f * 1e-12 / len;
        // Through the base path's line, inside its extent.
        trajectories.push(on_path(
            10 + k as u64,
            vec![Vec2::new(0.0, -rise / 2.0), Vec2::new(len, rise / 2.0)],
            8.0,
            4.5,
        ));
        // On the same line, but starting 5 m past the base path's end.
        trajectories.push(on_path(
            30 + k as u64,
            vec![
                Vec2::new(len + 5.0, -rise / 2.0),
                Vec2::new(2.0 * len + 5.0, rise / 2.0),
            ],
            8.0,
            4.5,
        ));
        // Diagonal twins, so the products no longer vanish term by term.
        trajectories.push(on_path(
            50 + k as u64,
            vec![
                Vec2::new(3.0, 3.0 - rise),
                Vec2::new(3.0 + len, 3.0 + len + rise),
            ],
            8.0,
            4.5,
        ));
        trajectories.push(on_path(
            70 + k as u64,
            vec![Vec2::new(3.0, 3.0), Vec2::new(3.0 + len, 3.0 + len)],
            8.0,
            4.5,
        ));
        // And a tilted one 5 m further along the twins' line: nearly
        // collinear, boxes apart — where `intersect`'s quotients are least
        // trustworthy and the box test answers instead.
        let far = 8.0 + len;
        trajectories.push(on_path(
            90 + k as u64,
            vec![
                Vec2::new(far, far - rise),
                Vec2::new(far + len, far + len + rise),
            ],
            8.0,
            4.5,
        ));
    }
    Case::new(
        "near-parallel at the denominator cut-off",
        singles(trajectories),
    )
}

/// Stationary objects on, beside and exactly `radius_len` off a path, and
/// the same distances beyond its ends.
fn stationary_case() -> Case {
    let radius_len = 4.5;
    let up = |x: f64| f64::from_bits(x.to_bits() + 1);
    let down = |x: f64| f64::from_bits(x.to_bits() - 1);
    let mut trajectories = vec![
        on_path(
            1,
            vec![
                Vec2::new(-20.0, 0.0),
                Vec2::new(10.0, 0.0),
                Vec2::new(10.0, 25.0),
            ],
            9.0,
            radius_len,
        ),
        ctrv(2, Vec2::new(-20.0, -30.0), 12.0, 0.3, 0.15),
    ];
    let offsets = [
        0.0,
        1.0,
        down(radius_len),
        radius_len,
        up(radius_len),
        radius_len + 5e-4,
        radius_len + 1e-3,
        radius_len + 2e-3,
        radius_len + 1.0,
        60.0,
    ];
    for (k, off) in offsets.into_iter().enumerate() {
        let k = k as u64;
        trajectories.push(parked(100 + k, Vec2::new(-5.0, -off), 0.6));
        trajectories.push(parked(120 + k, Vec2::new(-20.0 - off, 0.0), 0.6));
        trajectories.push(parked(140 + k, Vec2::new(10.0 + off, 12.0), 0.6));
        trajectories.push(parked(160 + k, Vec2::new(10.0, 25.0 + off), 2.0));
    }
    Case::new(
        "stationary objects at exactly radius_len",
        singles(trajectories),
    )
}

/// An orbit like the ones the replayed fleet's re-mapping frames produce:
/// 100–400 m/s with turn rates up to ±8 rad/s, folding back on itself.
#[derive(Debug, Clone, Copy)]
struct Orbit {
    at: Vec2,
    speed: f64,
    heading: f64,
    turn_rate: f64,
}

impl Orbit {
    fn random(rng: &mut StdRng, at: Vec2) -> Self {
        Orbit {
            at,
            speed: uniform(rng, 100.0, 400.0),
            heading: uniform(rng, -PI, PI),
            turn_rate: uniform(rng, -8.0, 8.0),
        }
    }

    /// The CTRV prediction of this orbit, started `offset` away.
    fn trajectory(&self, id: u64, offset: Vec2) -> PredictedTrajectory {
        ctrv(
            id,
            self.at + offset,
            self.speed,
            self.heading,
            self.turn_rate,
        )
    }
}

/// The replayed fleet's re-mapping frames: orbits all crossing all.
fn orbit_case(rng: &mut StdRng) -> Case {
    let trajectories = (0..24u64)
        .map(|id| {
            let at = Vec2::new(uniform(rng, -40.0, 40.0), uniform(rng, -40.0, 40.0));
            Orbit::random(rng, at).trajectory(id, Vec2::ZERO)
        })
        .collect();
    Case::new("100-400 m/s orbits", singles(trajectories))
}

/// Four source orbits replicated over the fleet's ±20 m half-metre lattice
/// (replica `i` replays source `i mod 4` at the offset the load generator
/// gives it): many same-source pairs a few metres apart.
fn lattice_case(rng: &mut StdRng) -> Case {
    let sources: Vec<Orbit> = (0..4)
        .map(|_| {
            let at = Vec2::new(uniform(rng, -10.0, 10.0), uniform(rng, -10.0, 10.0));
            Orbit::random(rng, at)
        })
        .collect();
    let trajectories = (0..28usize)
        .map(|i| {
            let offset = Vec2::new(
                ((i * 73) % 80) as f64 * 0.5 - 20.0,
                ((i * 131) % 80) as f64 * 0.5 - 20.0,
            );
            sources[i % sources.len()].trajectory(i as u64, offset)
        })
        .collect();
    Case::new("orbit replicas on the fleet lattice", singles(trajectories))
}

/// One source and its copies at offsets straddling `R` and `2R` (and `2R`
/// plus the reject margin) in several directions: copies stay exactly that
/// far apart at every instant, so whether the pair can score is decided at
/// the reach of the time-window reject.
fn straddle_case(rng: &mut StdRng) -> Case {
    let radius = 4.5;
    let source = Orbit {
        turn_rate: 4.0,
        ..Orbit::random(rng, Vec2::ZERO)
    };
    let mut trajectories = vec![source.trajectory(0, Vec2::ZERO)];
    let distances = [
        radius - 0.1,
        radius,
        radius + 0.1,
        1.5 * radius,
        2.0 * radius - 0.1,
        2.0 * radius - 1e-6,
        2.0 * radius,
        2.0 * radius + 0.5 * REJECT_MARGIN,
        2.0 * radius + 2.0 * REJECT_MARGIN,
        2.0 * radius + 0.1,
    ];
    for (k, d) in distances.into_iter().enumerate() {
        for dir in 0..6u64 {
            let angle = dir as f64 * PI / 3.0 + 0.1;
            let id = 1 + 10 * k as u64 + dir;
            trajectories.push(source.trajectory(id, Vec2::from_angle(angle) * d));
        }
    }
    Case::new(
        "same-source copies straddling R and 2R",
        singles(trajectories),
    )
}

/// Orbiting objects with several hypotheses each, receiver-only extras and
/// stale ages, scored in relevance mode `mode`.
fn orbit_hypotheses_case(rng: &mut StdRng, mode: RelevanceMode) -> Case {
    let objects: Vec<ObjectHypotheses> = (0..16u64)
        .map(|id| {
            let at = Vec2::new(uniform(rng, -30.0, 30.0), uniform(rng, -30.0, 30.0));
            let orbit = |rng: &mut StdRng| Orbit::random(rng, at).trajectory(id, Vec2::ZERO);
            let mut hypotheses = ObjectHypotheses::new(ObjectId(id), vec![orbit(rng)]);
            for _ in 0..rng.gen_range(0..3u32) {
                hypotheses.trajectories.push(orbit(rng));
            }
            if rng.gen_bool(0.4) {
                hypotheses.receiver_extra.push(orbit(rng));
            }
            if rng.gen_bool(0.3) {
                hypotheses.age = uniform(rng, 0.1, 1.5);
            }
            hypotheses
        })
        .collect();
    let mut case = Case::new("orbit hypotheses", objects);
    case.config = RelevanceConfig::default()
        .with_mode(mode)
        .with_staleness_decay(0.5);
    case.receivers.retain(|id| id.0 % 4 != 0);
    case
}

/// Multi-hypothesis objects: a CTRV body plus route alternatives, some with
/// receiver-only extras, some aged, with a staleness decay in force.
fn hypotheses_case(rng: &mut StdRng) -> Case {
    let bodies = intersection_traffic(rng, 28);
    let objects: Vec<ObjectHypotheses> = bodies
        .into_iter()
        .map(|body| {
            let id = body.object;
            let at = body.position_at(0.0);
            let mut hypotheses = ObjectHypotheses::new(id, vec![body]);
            for _ in 0..rng.gen_range(0..3u32) {
                let alt = ctrv(
                    id.0,
                    at,
                    uniform(rng, 3.0, 15.0),
                    uniform(rng, -PI, PI),
                    0.0,
                );
                hypotheses.trajectories.push(alt);
            }
            if rng.gen_bool(0.3) {
                let via = at + Vec2::from_angle(uniform(rng, -PI, PI)) * 20.0;
                let extra = on_path(id.0, vec![at, via, via + Vec2::new(0.0, 30.0)], 5.0, 4.5);
                hypotheses.receiver_extra.push(extra);
            }
            if rng.gen_bool(0.25) {
                hypotheses.age = uniform(rng, 0.1, 1.5);
            }
            hypotheses
        })
        .collect();
    let mut case = Case::new("multi-hypothesis with receiver_extra and ages", objects);
    case.config = RelevanceConfig::default().with_staleness_decay(0.5);
    // Only two thirds of the objects are connected vehicles.
    case.receivers.retain(|id| id.0 % 3 != 0);
    case
}

/// Crossing traffic with a random visible set and at-risk follower chains
/// hanging off the first few vehicles.
fn visibility_and_followers_case(rng: &mut StdRng) -> Case {
    let mut case = Case::new(
        "visible pairs and follower chains",
        singles(intersection_traffic(rng, 36)),
    );
    let ids = case.receivers.clone();
    for &r in &ids {
        for &o in &ids {
            if r != o && rng.gen_bool(0.3) {
                case.visible.insert((r, o));
            }
        }
    }
    // Chains leader ← f1 ← f2 ← f3, leader-first as `apply_rules` emits
    // them; tailgating (5 m at 10 m/s) is at risk, 40 m is not.
    for chain in 0..4u64 {
        let leader = ids[chain as usize];
        let mut ahead = leader;
        for depth in 0..3u64 {
            let follower = ids[(8 + 3 * chain + depth) as usize];
            case.followers.push(FollowerLink {
                follower,
                leader: ahead,
                gap: if (chain + depth) % 4 == 3 { 40.0 } else { 5.0 },
                follower_speed: 10.0,
            });
            ahead = follower;
        }
    }
    case
}

fn cases(seed: u64) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e6c_63d0_676a_9a99);
    let mut all = vec![
        Case::new(
            "crossing and same-lane CTRV traffic",
            singles(intersection_traffic(&mut rng, 48)),
        ),
        margin_case(),
        cutoff_case(),
        stationary_case(),
        orbit_case(&mut rng),
        lattice_case(&mut rng),
        straddle_case(&mut rng),
        hypotheses_case(&mut rng),
        visibility_and_followers_case(&mut rng),
    ];
    for mode in [
        RelevanceMode::Combined,
        RelevanceMode::CiOnly,
        RelevanceMode::TtcOnly,
        RelevanceMode::Gaussian,
    ] {
        all.push(orbit_hypotheses_case(&mut rng, mode));
    }
    // The ablation modes run over the same machinery.
    for mode in [
        RelevanceMode::CiOnly,
        RelevanceMode::TtcOnly,
        RelevanceMode::Gaussian,
    ] {
        let mut case = Case::new("ablation mode", singles(intersection_traffic(&mut rng, 30)));
        case.config = RelevanceConfig::default().with_mode(mode);
        all.push(case);
    }
    all
}

fn entries(m: &RelevanceMatrix) -> Vec<(ObjectId, ObjectId, u64)> {
    m.iter().map(|(r, o, v)| (r, o, v.to_bits())).collect()
}

fn trajectories_of(case: &Case) -> impl Iterator<Item = &PredictedTrajectory> {
    case.objects
        .iter()
        .flat_map(|o| o.trajectories.iter().chain(&o.receiver_extra))
}

// --- The differential checks ----------------------------------------------

/// The thread count is process-wide and only this test sets it (the small
/// NaN test below fans out at whatever count it finds).
#[test]
fn matrix_equals_the_brute_force_reference_entry_for_entry() {
    let mut nonzero = 0usize;
    for threads in [1, 4] {
        erpd_par::set_max_threads(threads);
        for seed in 0..6u64 {
            for case in cases(seed) {
                let visible = |r: ObjectId, o: ObjectId| case.visible.contains(&(r, o));
                let want = reference::build_relevance_matrix_multi(
                    &case.objects,
                    &case.receivers,
                    &case.followers,
                    DEFAULT_ALPHA,
                    case.config,
                    visible,
                )
                .expect("finite reference relevances");
                let got = build_relevance_matrix_multi(
                    &case.objects,
                    &case.receivers,
                    &case.followers,
                    DEFAULT_ALPHA,
                    case.config,
                    visible,
                )
                .expect("finite relevances");
                assert_eq!(
                    entries(&got),
                    entries(&want),
                    "case {:?}, seed {seed}, {threads} thread(s)",
                    case.name
                );
                nonzero += want.len();
            }
        }
    }
    assert!(
        nonzero > 2_000,
        "the cases must exercise real conflicts: {nonzero} entries"
    );
}

/// A score that goes non-finite (here through a NaN age under a staleness
/// decay) is still refused — unless the receiver sees the object, in which
/// case it was never going to be written.
#[test]
fn non_finite_scores_are_refused_exactly_when_they_were() {
    let trajectories = vec![
        ctrv(1, Vec2::new(-20.0, 0.0), 10.0, 0.0, 0.0),
        ctrv(2, Vec2::new(0.0, -20.0), 10.0, FRAC_PI_2, 0.0),
    ];
    let mut case = Case::new("NaN age", singles(trajectories));
    case.objects[0].age = f64::NAN;
    case.config = RelevanceConfig::default().with_staleness_decay(0.5);
    for seen in [false, true] {
        let visible = |r: ObjectId, o: ObjectId| seen && (r, o) == (ObjectId(2), ObjectId(1));
        let build = |reference: bool| {
            let (o, r, f) = (&case.objects, &case.receivers, &case.followers);
            if reference {
                reference::build_relevance_matrix_multi(
                    o,
                    r,
                    f,
                    DEFAULT_ALPHA,
                    case.config,
                    visible,
                )
            } else {
                build_relevance_matrix_multi(o, r, f, DEFAULT_ALPHA, case.config, visible)
            }
        };
        let (want, got) = (build(true), build(false));
        assert_eq!(want.is_err(), !seen, "the reference refuses the unseen NaN");
        assert_eq!(got.is_err(), want.is_err());
        if let (Ok(got), Ok(want)) = (got, want) {
            assert_eq!(entries(&got), entries(&want));
        }
    }
}

/// The pieces under the matrix, one by one: every pairwise breakdown,
/// every crossing list, every circle walk and every first passing interval.
#[test]
fn pairwise_pieces_equal_the_brute_force_reference() {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let (mut crossings, mut intervals, mut scored) = (0usize, 0usize, 0usize);
    for seed in 0..3u64 {
        for case in cases(seed) {
            let all: Vec<&PredictedTrajectory> = trajectories_of(&case).collect();
            for a in &all {
                for b in &all {
                    let want = reference::trajectory_relevance(a, b, case.config);
                    let got = trajectory_relevance(a, b, case.config);
                    assert_eq!(
                        bits(&[
                            got.r_ci,
                            got.r_ttc,
                            got.ttc,
                            got.collision_interval,
                            got.relevance
                        ]),
                        bits(&[
                            want.r_ci,
                            want.r_ttc,
                            want.ttc,
                            want.collision_interval,
                            want.relevance
                        ]),
                        "case {:?}: {:?} vs {:?}",
                        case.name,
                        a.object,
                        b.object
                    );
                    scored += usize::from(want.relevance > 0.0);

                    let (Some(pa), Some(pb)) = (a.path(), b.path()) else {
                        continue;
                    };
                    let want = reference::crossings(pa, pb);
                    let got = pa.crossings(pb);
                    assert_eq!(
                        got.len(),
                        want.len(),
                        "case {:?}: crossing count",
                        case.name
                    );
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(
                            bits(&[g.point.x, g.point.y, g.s_self, g.s_other]),
                            bits(&[w.point.x, w.point.y, w.s_self, w.s_other]),
                            "case {:?}: a crossing moved",
                            case.name
                        );
                    }
                    assert_eq!(pa.first_crossing(pb), want.first().copied());
                    crossings += want.len();

                    // Circles where the relevance code puts them — on each
                    // crossing — and one on the other path's start, which
                    // is usually a miss or a graze.
                    let centres = want.iter().map(|c| c.point).chain([pb.points()[0]]);
                    for centre in centres.take(6) {
                        let area = Circle::collision_area(centre, a.length, b.length);
                        let want = reference::circle_intervals(pa, &area);
                        let got = pa.circle_intervals(&area);
                        assert_eq!(
                            got.iter()
                                .flat_map(|&(s0, s1)| bits(&[s0, s1]))
                                .collect::<Vec<_>>(),
                            want.iter()
                                .flat_map(|&(s0, s1)| bits(&[s0, s1]))
                                .collect::<Vec<_>>(),
                            "case {:?}: circle walk",
                            case.name
                        );
                        let want = reference::passing_intervals(a, &area);
                        assert_eq!(a.passing_intervals(&area), want);
                        assert_eq!(a.first_passing_interval(&area), want.first().copied());
                        intervals += want.len();
                    }
                }
            }
        }
    }
    assert!(crossings > 10_000, "{crossings} crossings compared");
    assert!(intervals > 10_000, "{intervals} passing intervals compared");
    assert!(scored > 1_000, "{scored} pairs scored above zero");
}

/// The time-window reject is sound: every pair it rejects — no instant at
/// which the bodies are within `2R` plus the margin — is one the reference
/// scores exactly zero, in every mode that scores collision areas.
#[test]
fn window_reject_fires_only_where_the_reference_scores_zero() {
    let (mut rejected, mut scored) = (0usize, 0usize);
    let mut windows = Vec::new();
    for seed in 0..3u64 {
        for case in cases(seed) {
            if case.config.mode == RelevanceMode::Gaussian {
                continue;
            }
            let all: Vec<&PredictedTrajectory> = trajectories_of(&case).collect();
            for a in &all {
                for b in &all {
                    let reach = 2.0 * a.length.max(b.length) + REJECT_MARGIN;
                    a.proximity_windows(b, reach, &mut windows);
                    let want = reference::trajectory_relevance(a, b, case.config);
                    if windows.is_empty() {
                        assert_eq!(
                            want.relevance.to_bits(),
                            0f64.to_bits(),
                            "case {:?}: {:?} vs {:?} rejected but scores {:?}",
                            case.name,
                            a.object,
                            b.object,
                            want
                        );
                        rejected += 1;
                    }
                    scored += usize::from(want.relevance > 0.0);
                }
            }
        }
    }
    assert!(rejected > 20_000, "{rejected} pairs rejected");
    assert!(scored > 5_000, "{scored} pairs scored");
}

/// The per-crossing filter asks one question of a window: is there one
/// instant at which both bodies are within the radius of the crossing?
/// Dense sampling of the window's own motion answers it too: a sampled
/// instant with both inside a hair less than the radius must be a yes, and
/// no sampled instant with both inside a hair more must be a no.
#[test]
fn both_within_means_both_inside_at_one_instant() {
    // Bodies move at most 400 m/s, 4 cm per step: a common instant at the
    // radius is within 2 cm of a sampled one.
    let (step, tolerance) = (1e-4, 0.05);
    let (mut yes, mut no, mut apart_in_time) = (0usize, 0usize, 0usize);
    let mut windows = Vec::new();
    for seed in 0..2u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0b17);
        // The straddling copies meet their source for the whole horizon:
        // those pairs alone are thousands of windows.
        let cases = [
            (orbit_case(&mut rng), false),
            (straddle_case(&mut rng), true),
        ];
        for (case, source_only) in &cases {
            let all: Vec<&PredictedTrajectory> = trajectories_of(case).collect();
            for (i, a) in all.iter().enumerate() {
                for (j, b) in all.iter().enumerate() {
                    let (Some(pa), Some(pb)) = (a.path(), b.path()) else {
                        continue;
                    };
                    if *source_only && i != 0 && j != 0 {
                        continue;
                    }
                    let radius = a.length.max(b.length) + REJECT_MARGIN;
                    a.proximity_windows(b, 2.0 * radius, &mut windows);
                    for crossing in reference::crossings(pa, pb).iter().take(4) {
                        let c = crossing.point;
                        for w in &windows {
                            let span = w.end - w.start;
                            let samples = (span / step).ceil() as usize;
                            let (mut a_in, mut b_in, mut both) = (false, false, false);
                            let mut close = false;
                            for k in 0..=samples {
                                let s = (k as f64 * step).min(span);
                                let da = (w.a + w.a_velocity * s).distance(c);
                                let db = (w.b + w.b_velocity * s).distance(c);
                                a_in |= da <= radius + tolerance;
                                b_in |= db <= radius + tolerance;
                                both |= da.max(db) <= radius + tolerance;
                                close |= da.max(db) <= radius - tolerance;
                            }
                            let got = w.both_within(c, radius);
                            if close {
                                assert!(got, "case {:?}: a common instant was missed", case.name);
                                yes += 1;
                            } else if !both {
                                assert!(!got, "case {:?}: no common instant exists", case.name);
                                no += 1;
                                apart_in_time += usize::from(a_in && b_in);
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(yes > 1_000, "{yes} windows with a common instant");
    assert!(no > 1_000, "{no} windows without one");
    assert!(
        apart_in_time > 100,
        "{apart_in_time} windows where each body is inside, but never both at once"
    );
}
