//! Anytime-curve capture: the paper's evaluation object.
//!
//! Figs. 10a–c and 11 of *Papadias & Arkoumanis, EDBT 2002* plot the best
//! similarity reached against consumed resources. A run records that
//! trajectory as its trace of [`TracePoint`]s; [`AnytimeCurve`] folds a
//! trace into a monotone step function and derives the two summary
//! statistics used for regression gating, both over the **step** axis,
//! which is deterministic under a step budget:
//!
//! * **quality AUC** — the area under the normalized similarity curve in
//!   `[0, 1]` (1.0 = the run was at similarity 1 from the first instant,
//!   0.0 = it never found anything).
//! * **steps to similarity τ** — the first step count at which the curve
//!   reached a threshold τ, or `None` when it never did.

use std::time::Duration;

/// One point of a convergence trace: the best similarity known after
/// `step` steps, `elapsed` into the run — the raw material of the paper's
/// Fig. 10b.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Time since the run started.
    pub elapsed: Duration,
    /// Steps consumed when the improvement happened.
    pub step: u64,
    /// Best similarity after the improvement.
    pub similarity: f64,
}

/// A monotone similarity-vs-steps curve plus the run's step total that
/// normalizes it (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnytimeCurve {
    points: Vec<TracePoint>,
    total_steps: u64,
}

impl AnytimeCurve {
    /// An empty curve.
    pub fn new() -> Self {
        AnytimeCurve::default()
    }

    /// The curve of a run's `trace`, normalized by the `total_steps` the
    /// run consumed. Points that do not improve on the similarity before
    /// them are folded away.
    pub fn from_trace(trace: &[TracePoint], total_steps: u64) -> Self {
        let mut curve = AnytimeCurve {
            points: Vec::with_capacity(trace.len()),
            total_steps,
        };
        for &point in trace {
            curve.push(point);
        }
        curve
    }

    /// Records one observation `wall_ms` milliseconds into the run (a
    /// negative or NaN reading counts as 0, one beyond [`Duration::MAX`]
    /// as that). Non-improving observations are folded away, as in
    /// [`AnytimeCurve::from_trace`].
    pub fn record(&mut self, step: u64, wall_ms: f64, similarity: f64) {
        let elapsed = Duration::try_from_secs_f64(wall_ms.max(0.0) / 1e3).unwrap_or(Duration::MAX);
        self.push(TracePoint {
            elapsed,
            step,
            similarity,
        });
    }

    /// Appends `point` if it improves on the curve's best similarity, with
    /// its step clamped to the last point's, so the curve stays strictly
    /// increasing in similarity and non-decreasing in steps.
    fn push(&mut self, mut point: TracePoint) {
        if let Some(last) = self.points.last() {
            if point.similarity <= last.similarity {
                return;
            }
            point.step = point.step.max(last.step);
        }
        self.points.push(point);
    }

    /// Sets the step total the curve is normalized against. The access
    /// and wall totals are accepted and dropped: `benchmark/` calls this
    /// with all three, and no summary is normalized against them.
    pub fn set_totals(&mut self, steps: u64, _node_accesses: u64, _wall_ms: f64) {
        self.total_steps = steps;
    }

    /// The recorded points, in order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// The curve's final (best) similarity; `0.0` for an empty curve.
    pub fn final_similarity(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.similarity)
    }

    /// Quality AUC over the **step** axis, normalized to `[0, 1]`.
    /// Deterministic under a step budget. A zero-step run degenerates to
    /// its final similarity.
    pub fn auc_steps(&self) -> f64 {
        let total = self.total_steps as f64;
        if total <= 0.0 {
            return self.final_similarity();
        }
        let mut area = 0.0;
        for (i, p) in self.points.iter().enumerate() {
            let from = (p.step as f64).min(total);
            let to = match self.points.get(i + 1) {
                Some(next) => (next.step as f64).min(total),
                None => total,
            };
            area += p.similarity * (to - from);
        }
        (area / total).clamp(0.0, 1.0)
    }

    /// Steps consumed when similarity first reached `tau` (deterministic),
    /// or `None` if the run never did.
    pub fn steps_to(&self, tau: f64) -> Option<u64> {
        self.points
            .iter()
            .find(|p| p.similarity >= tau - 1e-12)
            .map(|p| p.step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(points: &[(u64, f64, f64)]) -> AnytimeCurve {
        let mut c = AnytimeCurve::new();
        for &(step, ms, sim) in points {
            c.record(step, ms, sim);
        }
        c
    }

    #[test]
    fn non_improving_points_are_folded_away() {
        let c = curve(&[(0, 0.0, 0.25), (5, 1.0, 0.25), (9, 2.0, 0.5)]);
        assert_eq!(c.points().len(), 2);
        assert_eq!(c.final_similarity(), 0.5);
        assert_eq!(c.points()[1].step, 9);
    }

    #[test]
    fn non_monotone_steps_are_clamped() {
        let c = curve(&[(10, 5.0, 0.25), (8, 4.0, 0.5)]);
        assert_eq!(c.points()[1].step, 10);
    }

    #[test]
    fn any_wall_reading_is_recorded_without_panicking() {
        let readings = [-1.0, f64::NAN, f64::INFINITY, 1e300, 1.5];
        let mut c = AnytimeCurve::new();
        for (step, ms) in readings.into_iter().enumerate() {
            c.record(step as u64, ms, step as f64 + 1.0);
        }
        let elapsed: Vec<Duration> = c.points().iter().map(|p| p.elapsed).collect();
        let (zero, max) = (Duration::ZERO, Duration::MAX);
        let ms = Duration::from_micros(1500);
        assert_eq!(elapsed, [zero, zero, max, max, ms]);
    }

    #[test]
    fn auc_steps_integrates_the_step_function() {
        // sim 0.5 over steps [0,5), 1.0 over [5,10) of a 10-step run:
        // AUC = (0.5·5 + 1.0·5)/10 = 0.75.
        let mut c = curve(&[(0, 0.0, 0.5), (5, 5.0, 1.0)]);
        c.set_totals(10, 100, 10.0);
        assert!((c.auc_steps() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn auc_before_first_point_counts_as_zero() {
        // Nothing known over [0,5): AUC = (0·5 + 1·5)/10 = 0.5.
        let mut c = curve(&[(5, 5.0, 1.0)]);
        c.set_totals(10, 0, 10.0);
        assert!((c.auc_steps() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_of_empty_or_zero_total_degenerates() {
        assert_eq!(AnytimeCurve::new().auc_steps(), 0.0);
        let c = curve(&[(0, 0.0, 0.8)]); // totals never set
        assert_eq!(c.auc_steps(), 0.8);
    }

    #[test]
    fn points_beyond_the_total_contribute_nothing() {
        let mut c = curve(&[(0, 0.0, 0.5), (20, 20.0, 1.0)]);
        c.set_totals(10, 0, 10.0);
        assert!((c.auc_steps() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn thresholds_report_first_crossing() {
        let mut c = curve(&[(0, 0.0, 0.25), (4, 2.0, 0.5), (8, 6.0, 1.0)]);
        c.set_totals(10, 50, 10.0);
        assert_eq!(c.steps_to(0.5), Some(4));
        assert_eq!(c.steps_to(0.2), Some(0));
        assert_eq!(c.steps_to(1.0), Some(8));
        assert_eq!(c.steps_to(1.1), None);
    }
}
