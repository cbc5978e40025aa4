//! Pareto-front extraction over the sweep's four objectives: SAT-attack
//! resilience (maximize) vs area, power-proxy and delay overhead (each
//! minimized).

use crate::sweep::{PointResult, PointVerdict, SweepReport};
use shell_util::Json;

/// Resilience score of a point, the maximized Pareto axis. Survived points
/// (budget *B* exhausted or structural survival) score `u64::MAX`; broken
/// points score the solver conflicts the break cost (a more expensive
/// break is a harder fabric); failed points score `None` and never enter
/// the front.
pub fn resilience_score(result: &PointResult) -> Option<u64> {
    match &result.verdict {
        PointVerdict::Survived { .. } | PointVerdict::SurvivedStructural { .. } => Some(u64::MAX),
        PointVerdict::Broken { conflicts, .. } => Some(*conflicts),
        PointVerdict::Failed { .. } => None,
    }
}

/// `true` when `a` dominates `b`: no worse on every objective (resilience
/// ≥, area ≤, power ≤, delay ≤) and strictly better on at least one.
/// Failed points neither dominate nor are compared.
pub fn dominates(a: &PointResult, b: &PointResult) -> bool {
    let (Some(sa), Some(sb)) = (resilience_score(a), resilience_score(b)) else {
        return false;
    };
    let no_worse = sa >= sb && a.area <= b.area && a.power <= b.power && a.delay <= b.delay;
    let strictly_better = sa > sb || a.area < b.area || a.power < b.power || a.delay < b.delay;
    no_worse && strictly_better
}

/// Indices (into `points`, which is sweep index order) of the
/// non-dominated points, ascending. Mutually identical points all stay on
/// the front (neither strictly dominates the other).
pub fn pareto_front(points: &[PointResult]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            resilience_score(&points[i]).is_some()
                && (0..points.len()).all(|j| j == i || !dominates(&points[j], &points[i]))
        })
        .collect()
}

/// Plot-ready JSON: every point with its objectives and front membership,
/// plus the front index list. Deterministic (same bytes for the same
/// report, any worker count).
pub fn pareto_json(report: &SweepReport) -> Json {
    let front = report.front();
    Json::obj([
        ("schema", Json::from(1u64)),
        (
            "axes",
            Json::arr(
                ["resilience", "area", "power", "delay"]
                    .iter()
                    .map(|&a| Json::from(a)),
            ),
        ),
        (
            "points",
            Json::arr(report.points.iter().map(|p| {
                Json::obj([
                    ("index", Json::from(p.index)),
                    ("label", Json::from(p.point.label())),
                    ("verdict", Json::from(p.verdict.label())),
                    ("survived", Json::from(p.verdict.survived())),
                    (
                        "resilience",
                        match resilience_score(p) {
                            // u64::MAX is not representable in JSON's f64;
                            // survived points are flagged, not scored.
                            Some(u64::MAX) | None => Json::Null,
                            Some(c) => Json::from(c),
                        },
                    ),
                    ("area", Json::from(p.area)),
                    ("power", Json::from(p.power)),
                    ("delay", Json::from(p.delay)),
                    ("key_bits", Json::from(p.key_bits)),
                    ("tiles", Json::from(p.tiles)),
                    ("on_front", Json::from(front.contains(&p.index))),
                ])
            })),
        ),
        ("front", Json::arr(front.into_iter().map(Json::from))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{FabricPoint, Switchbox};

    fn point(
        index: usize,
        verdict: PointVerdict,
        area: f64,
        power: f64,
        delay: f64,
    ) -> PointResult {
        PointResult {
            index,
            point: FabricPoint {
                lut_k: 4,
                channel_width: 12,
                switchbox: Switchbox::Mux4Tree,
                chain_len: 4,
                min_dims: (2, 2),
            },
            verdict,
            key_bits: 10,
            tiles: 4,
            utilization: 1.0,
            area,
            power,
            delay,
        }
    }

    fn survived(index: usize, area: f64) -> PointResult {
        point(
            index,
            PointVerdict::Survived {
                iterations: 5,
                conflicts: 1000,
            },
            area,
            area,
            area,
        )
    }

    fn broken(index: usize, conflicts: u64, area: f64) -> PointResult {
        point(
            index,
            PointVerdict::Broken {
                iterations: 3,
                conflicts,
            },
            area,
            area,
            area,
        )
    }

    #[test]
    fn survived_dominates_equal_cost_broken() {
        let a = survived(0, 2.0);
        let b = broken(1, 500, 2.0);
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
    }

    #[test]
    fn cheaper_broken_point_stays_on_front() {
        // A broken-but-cheap point is not dominated by an expensive
        // survivor: the front carries the trade-off curve.
        let pts = vec![survived(0, 3.0), broken(1, 500, 1.0)];
        assert_eq!(pareto_front(&pts), vec![0, 1]);
    }

    #[test]
    fn dominated_point_drops_off() {
        let pts = vec![survived(0, 2.0), broken(1, 500, 2.0), survived(2, 1.5)];
        // 2 dominates 0 (same survival, cheaper) and both dominate 1.
        assert_eq!(pareto_front(&pts), vec![2]);
    }

    #[test]
    fn failed_points_never_enter() {
        let pts = vec![
            point(
                0,
                PointVerdict::Failed {
                    error: "does not fit".into(),
                },
                0.0,
                0.0,
                0.0,
            ),
            survived(1, 2.0),
        ];
        assert_eq!(pareto_front(&pts), vec![1]);
    }

    #[test]
    fn identical_points_both_stay() {
        let pts = vec![survived(0, 2.0), survived(1, 2.0)];
        assert_eq!(pareto_front(&pts), vec![0, 1]);
    }

    #[test]
    fn harder_break_beats_cheaper_break_at_equal_cost() {
        let pts = vec![broken(0, 900, 2.0), broken(1, 100, 2.0)];
        assert_eq!(pareto_front(&pts), vec![0]);
    }
}
