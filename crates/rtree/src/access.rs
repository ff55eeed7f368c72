//! The shared node-access accounting hook.
//!
//! The paper reports index work as *node accesses* — in a disk-based
//! system every node visit is a potential page read. [`AccessCounter`] is
//! the one accounting primitive shared by **all** traversal paths of this
//! crate: window/point/predicate queries ([`crate::RTree::window_counted`]
//! and friends), STR bulk loading
//! ([`crate::RTree::bulk_load_with_params_counted`]) and the visit API
//! ([`crate::RTree::root_node_counted`]).
//!
//! The counter is a single relaxed [`AtomicU64`], so it is `Sync`: one
//! instance per caller (e.g. per portfolio restart) gives exact per-caller
//! attribution without locking, and a shared instance aggregates across
//! threads. Counting policy: **one increment per node whose entries are
//! read or written**, at the moment the node is first touched by the
//! operation.

use std::sync::atomic::{AtomicU64, Ordering};

/// A shared node-access counter (see the module docs for the policy).
#[derive(Debug, Default)]
pub struct AccessCounter(AtomicU64);

impl AccessCounter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        AccessCounter::default()
    }

    /// Records one node access.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` node accesses.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The number of accesses recorded so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero and returns the previous value.
    pub fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_takes() {
        let c = AccessCounter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_is_sync() {
        let c = AccessCounter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
