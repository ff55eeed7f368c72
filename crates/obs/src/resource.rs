//! Resource observability: deterministic memory accounting.
//!
//! In-memory join processing lives or dies by working-set size: the paper's
//! "Very Large Databases" claim only holds while every R*-tree and
//! search-side cache stays resident. This module gives the
//! workspace one vocabulary for that cost:
//!
//! * [`MemoryFootprint`] — byte-exact, **deterministic** accounting of the
//!   live bytes a structure keeps resident. Implementations must be
//!   length-based (element count × element size), never capacity-based, so
//!   the same logical state always reports the same byte count no matter
//!   how the allocator grew the backing storage. Freezing the same
//!   instance twice yields identical numbers (property-tested).
//! * [`ResourceReport`] — a named component → bytes table built per run,
//!   emitted as a `resource_report` run event and rendered by
//!   `mwsj report` as a memory table.

use crate::record::record;

/// Deterministic, byte-exact accounting of the live bytes a structure
/// keeps resident.
///
/// # Contract
///
/// * **Deterministic**: the reported count is a pure function of the
///   structure's logical contents. Building the same structure twice from
///   the same inputs must report identical bytes.
/// * **Length-based**: collections count `len() × size_of::<Element>()`,
///   never `capacity()` — allocator slack and growth policy must not leak
///   into the number.
/// * **Live bytes**: the figure approximates resident heap + inline size
///   of the structure itself; it is an accounting unit for regression
///   gating and capacity planning, not an exact allocator measurement.
pub trait MemoryFootprint {
    /// Resident bytes per the contract above.
    fn memory_bytes(&self) -> u64;
}

record! {
    /// A per-run memory table: named components with their
    /// [`MemoryFootprint`] byte counts, sorted by component name.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ResourceReport {
        /// Sum over `components`, kept current by [`ResourceReport::record`].
        total_bytes: u64,
        /// `(component, bytes)` pairs, ascending by component name.
        components: Vec<(String, u64)>,
    }
}

impl ResourceReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        ResourceReport::default()
    }

    /// Records `bytes` for `component`, replacing any previous entry of
    /// the same name.
    pub fn record(&mut self, component: &str, bytes: u64) {
        match self
            .components
            .binary_search_by(|(name, _)| name.as_str().cmp(component))
        {
            Ok(i) => self.components[i].1 = bytes,
            Err(i) => self.components.insert(i, (component.to_string(), bytes)),
        }
        self.total_bytes = self.components.iter().map(|(_, b)| *b).sum();
    }

    /// The `(component, bytes)` pairs, ascending by component name.
    pub fn components(&self) -> &[(String, u64)] {
        &self.components
    }

    /// Looks up one component's byte count.
    pub fn component(&self, name: &str) -> Option<u64> {
        self.components
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.components[i].1)
    }

    /// Sum over all components.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// `true` when no component has been recorded.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_sorts_dedupes_and_totals() {
        let mut report = ResourceReport::new();
        report.record("tree", 100);
        report.record("cache", 20);
        report.record("tree", 150); // replaces
        assert_eq!(report.component("tree"), Some(150));
        assert_eq!(report.component("cache"), Some(20));
        assert_eq!(report.component("missing"), None);
        assert_eq!(report.total_bytes(), 170);
        let names: Vec<&str> = report
            .components()
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, vec!["cache", "tree"], "sorted by name");
    }
}
