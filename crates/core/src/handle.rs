//! Identifiers and typed data handles.
//!
//! A [`Handle<T>`] is the future-like reference a driver program holds to
//! a value produced (or to be produced) by a task — the equivalent of the
//! opaque "future object" PyCOMPSs returns from a `@task`-decorated call.
//! Handles are `Copy`; passing one to another task wires a data
//! dependency automatically.
//!
//! # Handle lifetime and staleness
//!
//! By default nothing in the runtime's tables is ever retired, so a
//! handle stays readable for the runtime's whole life. On a
//! *streaming* runtime ([`crate::RuntimeConfig::stream`]) a handle's
//! slot is retired once the datum can never be read again — after the driver
//! declares it dead with [`crate::Runtime::release`], or after an
//! INOUT task consumed it ([`crate::TaskBuilder::run1_inout`] steals
//! the old version; the *returned* handle names the new one) — and
//! every already-submitted reader has finished. Ids are generational
//! underneath (`arena::Store` tracks per-slot liveness and ids are
//! never reused), so using a handle after its slot retired is always
//! detected: the runtime panics with a `"stale handle"` error rather
//! than returning another datum's bytes. Releasing is always safe to
//! do early — a release only marks driver intent, and the slot holds
//! on until readers submitted *before* the release have consumed it;
//! without `stream`, `release` is free and changes nothing.

use std::marker::PhantomData;

/// Unique identifier of a datum in the runtime's store.
///
/// Ids are **dense**: a runtime hands them out sequentially from zero,
/// so both the scheduler and the simulator index plain vectors with
/// them instead of hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataId(pub u64);

/// Unique identifier of a submitted task. Dense, like [`DataId`]; a
/// task's id equals its record index in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// Typed reference to a (possibly not-yet-computed) value.
///
/// Obtain one from [`crate::Runtime::put`] or from a task submission; use
/// [`crate::Runtime::wait`] to synchronize on and read the value.
pub struct Handle<T> {
    pub(crate) id: DataId,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

impl<T> Handle<T> {
    pub(crate) fn new(id: DataId) -> Self {
        Self {
            id,
            _marker: PhantomData,
        }
    }

    /// The raw data identifier. Useful for diagnostics and DOT labels.
    pub fn id(&self) -> DataId {
        self.id
    }
}

impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Handle<T> {}

impl<T> std::fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Handle(d{})", self.id.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_is_copy_and_comparable_by_id() {
        let h: Handle<Vec<f64>> = Handle::new(DataId(7));
        let h2 = h;
        assert_eq!(h.id(), h2.id());
        assert_eq!(format!("{h:?}"), "Handle(d7)");
    }
}
