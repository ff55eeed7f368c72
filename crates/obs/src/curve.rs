//! Anytime-curve capture: the paper's evaluation object.
//!
//! Figs. 10a–c and 11 of *Papadias & Arkoumanis, EDBT 2002* plot the best
//! similarity reached against consumed resources. [`AnytimeCurve`] folds a
//! run's [`RunEvent::Improvement`] / [`RunEvent::TracePoint`] stream (or a
//! trace fed in directly) into a monotone step function and derives the
//! two summary statistics used for regression gating, both over the
//! **step** axis, which is deterministic under a step budget:
//!
//! * **quality AUC** — the area under the normalized similarity curve in
//!   `[0, 1]` (1.0 = the run was at similarity 1 from the first instant,
//!   0.0 = it never found anything).
//! * **steps to similarity τ** — the first step count at which the curve
//!   reached a threshold τ, or `None` when it never did.
//!
//! Each point also carries the wall-clock reading it was observed at, for
//! callers that plot against time; no summary is taken over that axis.

use crate::events::RunEvent;

/// One point of an anytime curve: the best similarity known after `step`
/// steps / `wall_ms` milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Steps consumed when this similarity was reached.
    pub step: u64,
    /// Milliseconds since the run started.
    pub wall_ms: f64,
    /// Best similarity from this point on (until the next point).
    pub similarity: f64,
}

/// A monotone similarity-vs-cost curve plus the run totals that normalize
/// it (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnytimeCurve {
    points: Vec<CurvePoint>,
    total_steps: u64,
    total_node_accesses: u64,
}

impl AnytimeCurve {
    /// An empty curve.
    pub fn new() -> Self {
        AnytimeCurve::default()
    }

    /// Records one observation. Non-improving observations (similarity not
    /// strictly above the current best) are folded away, keeping the curve
    /// strictly increasing in similarity and non-decreasing in both cost
    /// axes.
    pub fn record(&mut self, step: u64, wall_ms: f64, similarity: f64) {
        if let Some(last) = self.points.last() {
            if similarity <= last.similarity {
                return;
            }
            // Clamp non-monotone cost readings (clock skew across threads).
            let step = step.max(last.step);
            let wall_ms = wall_ms.max(last.wall_ms);
            self.points.push(CurvePoint {
                step,
                wall_ms,
                similarity,
            });
        } else {
            self.points.push(CurvePoint {
                step,
                wall_ms,
                similarity,
            });
        }
    }

    /// Folds one run event into the curve: `improvement` and `trace_point`
    /// become observations, `run_end` sets the normalization totals, and
    /// every other kind is ignored.
    pub fn observe(&mut self, event: &RunEvent) {
        match event {
            RunEvent::Improvement {
                step,
                similarity,
                elapsed_secs,
                ..
            }
            | RunEvent::TracePoint {
                step,
                similarity,
                elapsed_secs,
            } => self.record(*step, elapsed_secs * 1000.0, *similarity),
            RunEvent::RunEnd {
                steps,
                node_accesses,
                elapsed_secs,
                ..
            } => self.set_totals(*steps, *node_accesses, elapsed_secs * 1000.0),
            _ => {}
        }
    }

    /// Sets the run totals the curve is normalized against. The wall total
    /// is accepted and dropped: `benchmark/` calls this with all three, and
    /// no summary is normalized against time.
    pub fn set_totals(&mut self, steps: u64, node_accesses: u64, _wall_ms: f64) {
        self.total_steps = steps;
        self.total_node_accesses = node_accesses;
    }

    /// The recorded points, in order.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// Total steps the run consumed.
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// Total R*-tree node accesses the run consumed.
    pub fn total_node_accesses(&self) -> u64 {
        self.total_node_accesses
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
    fn non_monotone_cost_readings_are_clamped() {
        let c = curve(&[(10, 5.0, 0.25), (8, 4.0, 0.5)]);
        assert_eq!(c.points()[1].step, 10);
        assert_eq!(c.points()[1].wall_ms, 5.0);
    }

    #[test]
    fn observe_folds_events_and_totals() {
        let mut c = AnytimeCurve::new();
        c.observe(&RunEvent::Improvement {
            restart: None,
            step: 2,
            violations: 1,
            similarity: 0.5,
            elapsed_secs: 0.001,
        });
        c.observe(&RunEvent::TracePoint {
            step: 6,
            similarity: 1.0,
            elapsed_secs: 0.004,
        });
        c.observe(&RunEvent::RestartStart {
            restart: 0,
            seed: 1,
        }); // ignored
        c.observe(&RunEvent::RunEnd {
            best_violations: 0,
            best_similarity: 1.0,
            steps: 10,
            node_accesses: 40,
            local_maxima: 0,
            improvements: 2,
            restarts: 1,
            elapsed_secs: 0.01,
            proven_optimal: false,
        });
        assert_eq!(c.points().len(), 2);
        assert_eq!(c.total_steps(), 10);
        assert_eq!(c.total_node_accesses(), 40);
        assert_eq!(c.points()[0].wall_ms, 1.0);
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
