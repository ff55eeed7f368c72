//! Phase-profile export as folded stacks.
//!
//! [`PhaseTimer`](crate::PhaseTimer) aggregates *inclusive* wall time per phase path
//! (`solve > restart[3] > find_best_value`). Flamegraph tooling instead
//! consumes the **folded stack** format — one line per stack holding its
//! *self* value:
//!
//! ```text
//! solve;restart[3];find_best_value 1234
//! ```
//!
//! [`to_folded`] converts a phase snapshot into that format, computing
//! self time as a phase's inclusive wall minus its direct children's
//! (children are fully nested inside their parent's spans, so the
//! difference is non-negative up to clock granularity; it is clamped at
//! zero). Values are **nanoseconds**, so the per-root-phase sums are
//! exact: for every root phase, the folded self values of its subtree sum
//! back to the root's recorded inclusive total. `mwsj solve --profile-out`
//! writes this text; nothing in the workspace reads it back.

use crate::timer::PhaseSnapshot;
use std::collections::BTreeMap;

/// The separator of nested span names inside a [`PhaseSnapshot`] path.
const PATH_SEP: &str = " > ";

/// Converts hierarchical phase aggregates into folded-stack lines
/// (`a;b;c <self-nanos>`), one per phase path, sorted by path. Phases with
/// zero self time are kept so the stack structure survives the round
/// trip.
pub fn to_folded(phases: &[PhaseSnapshot]) -> String {
    let inclusive: BTreeMap<&str, u128> = phases
        .iter()
        .map(|p| (p.path.as_str(), p.wall.as_nanos()))
        .collect();
    let mut out = String::new();
    for (path, nanos) in &inclusive {
        let children_sum: u128 = inclusive
            .iter()
            .filter(|(child, _)| is_direct_child(path, child))
            .map(|(_, n)| *n)
            .sum();
        let self_nanos = nanos.saturating_sub(children_sum);
        out.push_str(&path.replace(PATH_SEP, ";"));
        out.push(' ');
        out.push_str(&self_nanos.to_string());
        out.push('\n');
    }
    out
}

/// `true` when `child` is a direct child path of `parent`
/// (`parent > name` with no deeper nesting).
fn is_direct_child(parent: &str, child: &str) -> bool {
    child
        .strip_prefix(parent)
        .and_then(|rest| rest.strip_prefix(PATH_SEP))
        .is_some_and(|name| !name.contains(PATH_SEP))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timer::PhaseTimer;
    use std::time::Duration;

    /// The folded values of `root`'s stacks, summed.
    fn root_total(folded: &str, root: &str) -> u64 {
        let of_root = |line: &&str| line.split([';', ' ']).next() == Some(root);
        let value = |line: &str| line.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap();
        folded.lines().filter(of_root).map(value).sum()
    }

    fn snap(path: &str, millis: u64) -> PhaseSnapshot {
        PhaseSnapshot {
            path: path.into(),
            calls: 1,
            steps: 0,
            wall: Duration::from_millis(millis),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let phases = vec![
            snap("solve", 100),
            snap("solve > restart[0]", 30),
            snap("solve > restart[1]", 50),
            snap("solve > restart[1] > fbv", 45),
        ];
        let folded = to_folded(&phases);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "solve 20000000",                // 100 − (30 + 50)
                "solve;restart[0] 30000000",     // leaf
                "solve;restart[1] 5000000",      // 50 − 45
                "solve;restart[1];fbv 45000000", // leaf
            ]
        );
    }

    #[test]
    fn over_accounted_children_clamp_to_zero() {
        let phases = vec![snap("solve", 10), snap("solve > fbv", 12)];
        let folded = to_folded(&phases);
        assert!(folded.contains("solve 0\n"), "{folded}");
    }

    #[test]
    fn folded_values_sum_to_root_totals() {
        let phases = vec![
            snap("solve", 100),
            snap("solve > restart[0]", 30),
            snap("solve > restart[0] > fbv", 29),
            snap("solve > restart[1]", 60),
            snap("join", 7),
        ];
        let folded = to_folded(&phases);
        assert_eq!(root_total(&folded, "solve"), 100_000_000);
        assert_eq!(root_total(&folded, "join"), 7_000_000);
    }

    #[test]
    fn real_timer_snapshot_sums_exactly() {
        let timer = PhaseTimer::new();
        {
            let _solve = timer.span("solve");
            for i in 0..3 {
                let _r = timer.span(&format!("restart[{i}]"));
                let _f = timer.span("find_best_value");
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let phases = timer.snapshot();
        let root_inclusive = phases
            .iter()
            .find(|p| p.path == "solve")
            .unwrap()
            .wall
            .as_nanos() as u64;
        assert_eq!(root_total(&to_folded(&phases), "solve"), root_inclusive);
    }

    #[test]
    fn sibling_name_prefixes_are_not_children() {
        // "solve > restart[1]" must not be counted as a child of
        // "solve > restart[1] > x"'s sibling "solve > restart[10]".
        assert!(is_direct_child("solve", "solve > restart[1]"));
        assert!(!is_direct_child("solve", "solve > restart[1] > fbv"));
        assert!(!is_direct_child(
            "solve > restart[1]",
            "solve > restart[10]"
        ));
        assert!(!is_direct_child("solve", "solver > x"));
    }
}
