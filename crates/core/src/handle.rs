//! Identifiers and typed data handles.
//!
//! A [`Handle<T>`] is the future-like reference a driver program holds to
//! a value produced (or to be produced) by a task — the equivalent of the
//! opaque "future object" PyCOMPSs returns from a `@task`-decorated call.
//! Handles are `Copy`; passing one to another task wires a data
//! dependency automatically.
//!
//! # Handle lifetime
//!
//! Nothing in the runtime's tables is ever retired and ids are never
//! reused, so a handle names the same datum for its runtime's whole
//! life. The one handle that stops being readable is one an INOUT task
//! consumed ([`crate::TaskBuilder::run1_inout`] moves the old version
//! into the task; the *returned* handle names the new one): reading it
//! fails loudly with "consumed by an INOUT task", never with another
//! datum's bytes.

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
