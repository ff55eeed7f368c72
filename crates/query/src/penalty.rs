//! The sparse penalty memory of guided indexed local search (paper §4).
//!
//! GILS penalises variable *assignments* (`vᵢ ← r`) found at local maxima.
//! The effective inconsistency degree of a solution adds
//! `λ · Σᵢ penalty(vᵢ ← rᵢ)` to its violation count. The paper notes the
//! penalty array is very sparse and suggests a hash table for large
//! problems — which is what this is. The GILS scorer looks the table up
//! for every object it scores, so it hashes with one multiply a word
//! ([`MixHasher`]), not SipHash: nothing iterates the table, so the hash
//! decides no result.

use crate::{Solution, VarId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Sparse table of assignment penalties.
#[derive(Debug, Clone, Default)]
pub struct PenaltyTable {
    penalties: HashMap<(VarId, usize), u32, BuildHasherDefault<MixHasher>>,
    version: u64,
}

/// A multiplicative word hash — rotate, xor the word in, multiply by an
/// odd constant: the mix of the search layer's window-cache memo. The keys
/// are `(variable, object)` pairs the search makes, not input, so the
/// table needs no defence against chosen collisions.
#[derive(Debug, Clone, Copy, Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }
}

impl PenaltyTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Penalty of the assignment `v ← obj` (0 if never penalised).
    #[inline]
    pub fn get(&self, v: VarId, obj: usize) -> u32 {
        self.penalties.get(&(v, obj)).copied().unwrap_or(0)
    }

    /// Increments the penalty of `v ← obj`, saturating at `u32::MAX`: the
    /// most punished assignment stays the most punished.
    pub fn penalize(&mut self, v: VarId, obj: usize) {
        let penalty = self.penalties.entry((v, obj)).or_insert(0);
        *penalty = penalty.saturating_add(1);
        self.version += 1;
    }

    /// Monotone change counter: bumped on every [`penalize`] call.
    /// Caches keyed on penalty state (e.g. the search layer's window
    /// cache) compare versions instead of hashing the table.
    ///
    /// [`penalize`]: PenaltyTable::penalize
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Sum of penalties over all assignments of `sol`.
    pub fn total_for(&self, sol: &Solution) -> u64 {
        sol.as_slice()
            .iter()
            .enumerate()
            .map(|(v, &obj)| self.get(v, obj) as u64)
            .sum()
    }

    /// The GILS punishment step: among the assignments of the current local
    /// maximum, penalise those with the **minimum** penalty so far (avoiding
    /// over-punishing assignments already penalised at earlier maxima).
    /// Returns how many assignments it penalised.
    pub fn penalize_local_maximum(&mut self, sol: &Solution) -> usize {
        let min = sol
            .as_slice()
            .iter()
            .enumerate()
            .map(|(v, &obj)| self.get(v, obj))
            .min()
            .expect("solution has at least one variable");
        let mut punished = 0;
        // Punishing `v ← obj` moves no other variable's penalty.
        for (v, &obj) in sol.as_slice().iter().enumerate() {
            if self.get(v, obj) == min {
                self.penalize(v, obj);
                punished += 1;
            }
        }
        punished
    }

    /// Number of distinct assignments holding a positive penalty.
    pub fn len(&self) -> usize {
        self.penalties.len()
    }

    /// Returns `true` if no assignment has been penalised yet.
    pub fn is_empty(&self) -> bool {
        self.penalties.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_defaults_to_zero() {
        let t = PenaltyTable::new();
        assert_eq!(t.get(0, 42), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn penalize_accumulates() {
        let mut t = PenaltyTable::new();
        t.penalize(1, 7);
        t.penalize(1, 7);
        t.penalize(2, 7);
        assert_eq!(t.get(1, 7), 2);
        assert_eq!(t.get(2, 7), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn total_for_sums_assignments() {
        let mut t = PenaltyTable::new();
        t.penalize(0, 5);
        t.penalize(0, 5);
        t.penalize(2, 1);
        let sol = Solution::new(vec![5, 9, 1]);
        assert_eq!(t.total_for(&sol), 3); // 2 (v0←5) + 0 (v1←9) + 1 (v2←1)
    }

    #[test]
    fn local_maximum_punishes_min_penalty_assignments_only() {
        let mut t = PenaltyTable::new();
        let sol = Solution::new(vec![10, 20, 30]);
        // First maximum: all assignments have penalty 0 → all punished.
        assert_eq!(t.penalize_local_maximum(&sol), 3);
        assert_eq!([t.get(0, 10), t.get(1, 20), t.get(2, 30)], [1, 1, 1]);
        // Manually bump v0's assignment.
        t.penalize(0, 10);
        // Same maximum again: v0←10 has penalty 2, v1/v2 have 1 → only v1, v2.
        assert_eq!(t.penalize_local_maximum(&sol), 2);
        assert_eq!(t.get(0, 10), 2);
        assert_eq!(t.get(1, 20), 2);
        assert_eq!(t.get(2, 30), 2);
    }

    /// Past `u32::MAX` punishments of one assignment the count used to
    /// overflow: a panic in a debug build, and in a release build a wrap to
    /// 0 that scored the most punished assignment as never punished.
    #[test]
    fn a_penalty_saturates_instead_of_wrapping() {
        let mut t = PenaltyTable::new();
        t.penalties.insert((0, 7), u32::MAX - 1);
        t.penalize(0, 7);
        t.penalize(0, 7);
        assert_eq!(t.get(0, 7), u32::MAX);
        assert_eq!(t.version(), 2, "every punishment still counts");
    }

    #[test]
    fn version_bumps_on_every_punishment() {
        let mut t = PenaltyTable::new();
        assert_eq!(t.version(), 0);
        t.penalize(0, 1);
        assert_eq!(t.version(), 1);
        let sol = Solution::new(vec![1, 2]);
        let punished = t.penalize_local_maximum(&sol) as u64;
        assert_eq!(t.version(), 1 + punished);
        // Reads do not bump the version.
        let _ = t.get(0, 1);
        let _ = t.total_for(&sol);
        assert_eq!(t.version(), 1 + punished);
    }

    /// Dense keys — every variable, a run of objects — each keep their own
    /// count under the multiplicative hash.
    #[test]
    fn many_assignments_keep_their_own_penalties() {
        let mut t = PenaltyTable::new();
        for v in 0..8 {
            (0..5_000).step_by(v + 1).for_each(|obj| t.penalize(v, obj));
        }
        for v in 0..8 {
            for obj in 0..5_000 {
                assert_eq!(t.get(v, obj), u32::from(obj % (v + 1) == 0), "{v} <- {obj}");
            }
        }
    }

    #[test]
    fn punishment_distinguishes_same_object_in_different_vars() {
        let mut t = PenaltyTable::new();
        t.penalize(0, 3);
        assert_eq!(t.get(0, 3), 1);
        assert_eq!(t.get(1, 3), 0);
    }
}
