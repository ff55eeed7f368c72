//! Names that only the repository benchmark's probes
//! (`benchmark/src/probes.rs`) still call, each a shim over the path the
//! engine runs.

use crate::handle::ObsHandle;

impl ObsHandle {
    /// [`ObsHandle::enabled`] under its old name: since a handle holds
    /// only a timer and a sink, a timer-only handle is an enabled one.
    #[doc(hidden)]
    pub fn timer_only() -> Self {
        ObsHandle::enabled()
    }
}
