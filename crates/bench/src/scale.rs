//! Experiment scales (smoke / default / paper) and the work unit every
//! figure budget is counted in.

use crate::Algo;
use mwsj_core::{Instance, SearchBudget};

/// Moves one paper-second buys (DESIGN §3b). The paper's ILS "visits
/// about 60 000 local maxima" in 5 s, 12 000 a second. On Fig. 10b's
/// n = 15 instances at `--scale default` ILS makes 31.2 moves per local
/// maximum on the chain and 42.1 on the clique (`all_experiments --fig
/// fig10b --scale default`, `results/calibration.csv`); 12 000 times
/// their mean, 36.7, is 439 900: 440 000 to two significant figures.
pub const MOVES_PER_PAPER_SECOND: f64 = 440_000.0;

/// How big an experiment run should be.
///
/// The paper's budget (`10·n` seconds per execution, 100 repetitions,
/// N = 100,000 objects) totals days of compute; `Scale` shrinks N,
/// repetitions and budgets together so the *hard region* property is
/// preserved (densities are re-solved for the chosen N). Every budget is a
/// count of moves ([`Scale::budget`]), so a figure's table depends on the
/// seeds alone, not on the machine that ran it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds: tiny datasets, one repetition. Verifies the harness.
    Smoke,
    /// Minutes: N = 10,000, a few repetitions, compressed budgets —
    /// reproduces the figures' shapes.
    Default,
    /// The full EDBT 2002 setting. Days.
    Paper,
}

impl Scale {
    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Some(Scale::Smoke),
            "default" => Some(Scale::Default),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Objects per dataset (the paper's N = 100,000).
    pub fn cardinality(&self) -> usize {
        match self {
            Scale::Smoke => 1_000,
            Scale::Default => 10_000,
            Scale::Paper => 100_000,
        }
    }

    /// Repetitions per measurement point (the paper averages 100).
    pub fn repetitions(&self) -> usize {
        match self {
            Scale::Smoke => 1,
            Scale::Default => 5,
            Scale::Paper => 100,
        }
    }

    /// The share of the paper's work a budget gets at this scale.
    fn paper_share(&self) -> f64 {
        match self {
            Scale::Smoke => 0.000_05,
            Scale::Default => 0.01,
            Scale::Paper => 1.0,
        }
    }

    /// The moves `paper_secs` paper-seconds buy at this scale:
    /// `paper_secs ·` [`MOVES_PER_PAPER_SECOND`] `·` the scale's share.
    pub fn moves(&self, paper_secs: f64) -> u64 {
        (paper_secs * MOVES_PER_PAPER_SECOND * self.paper_share()).round() as u64
    }

    /// The step budget that gives `algo` the moves of `paper_secs`
    /// paper-seconds on `instance` ([`Algo::moves_per_step`]), at least
    /// one step.
    pub fn budget(&self, algo: Algo, instance: &Instance, paper_secs: f64) -> SearchBudget {
        SearchBudget::iterations((self.moves(paper_secs) / algo.moves_per_step(instance)).max(1))
    }

    /// Query sizes for Fig. 10a (the paper uses 5..=25 step 5; smoke
    /// trims them to keep a run within seconds).
    pub fn query_sizes(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![3, 5],
            Scale::Default | Scale::Paper => vec![5, 10, 15, 20, 25],
        }
    }

    /// Display name (also used in CSV output).
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Default => "default",
            Scale::Paper => "paper",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_names() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("DEFAULT"), Some(Scale::Default));
        assert_eq!(Scale::parse("Paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn paper_scale_matches_publication() {
        let s = Scale::Paper;
        assert_eq!(s.cardinality(), 100_000);
        assert_eq!(s.repetitions(), 100);
        assert_eq!(s.moves(150.0), (150.0 * MOVES_PER_PAPER_SECOND) as u64);
    }

    #[test]
    fn budgets_shrink_with_scale() {
        assert!(Scale::Smoke.moves(150.0) < Scale::Default.moves(150.0));
        assert!(Scale::Default.moves(150.0) < Scale::Paper.moves(150.0));
    }
}
