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

/// The reconciler's creation of a tenant group fails. Supports typed
/// errnos: `err:enospc` surfaces as CLOSID exhaustion (class-sharing
/// fallback), `err:eio`/bare `err` as a transient I/O failure (retried
/// on the next pass).
pub(crate) const TENANT_CREATE_GROUP: &str = "tenant.create_group";

/// The reconciler's orphan sweep fails for one pass (orphans survive
/// until the next pass, exactly like a transient listing error).
pub(crate) const RECONCILE_SWEEP: &str = "reconcile.sweep";

/// Low-level fake-filesystem read fails.
pub(crate) const FS_READ: &str = "resctrl.fs.read";
