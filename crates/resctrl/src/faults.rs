//! Named failpoints this crate exposes (see the `ccp-fault` crate).
//!
//! Arm them with a plan such as
//! `CCP_FAULTS=resctrl.write_schemata=err@1+40` to make schemata writes
//! fail with `EBUSY` for a 40-write window. Every constant here is a
//! site compiled into production code paths; disarmed, each costs one
//! relaxed atomic load and a branch.

/// `schemata` write fails with an `EBUSY`-style I/O error.
pub(crate) const WRITE_SCHEMATA: &str = "resctrl.write_schemata";

/// `tasks` write (thread binding) fails with an `EBUSY`-style I/O error.
pub(crate) const ASSIGN_TASK: &str = "resctrl.assign_task";

/// Group creation fails with an `ENOSPC`-style I/O error, which the
/// controller maps to [`crate::ResctrlError::TooManyGroups`] exactly
/// like a real CLOS exhaustion.
pub(crate) const CREATE_GROUP: &str = "resctrl.create_group";

/// Schemata / monitoring-counter reads fail with an `EIO`-style error.
pub(crate) const READ: &str = "resctrl.read";

/// The whole mount vanishes: any controller operation reports
/// [`crate::ResctrlError::NotMounted`].
pub(crate) const MOUNT_LOST: &str = "resctrl.mount_lost";

/// The occupancy sampler's probe fails for one tick (gauges keep their
/// previous values, like a transient CMT read error).
pub const SAMPLER_PROBE: &str = "resctrl.sampler_probe";

/// Low-level fake-filesystem write fails (below the controller, so the
/// error travels the same path a real kernel `write(2)` failure would).
pub(crate) const FS_WRITE: &str = "resctrl.fs.write";

/// An orphan sweep fails before listing the tree (orphans survive until
/// the next sweep, exactly like a transient listing error).
pub(crate) const RECONCILE_SWEEP: &str = "reconcile.sweep";

/// Low-level fake-filesystem read fails.
pub(crate) const FS_READ: &str = "resctrl.fs.read";
