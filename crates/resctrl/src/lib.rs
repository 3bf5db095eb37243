//! # ccp-resctrl
//!
//! A typed driver for the Linux **resctrl** filesystem — the kernel
//! interface to Intel Cache Allocation Technology (CAT) that the paper uses
//! to partition the last-level cache (Sections V-A and V-C).
//!
//! resctrl is a pseudo filesystem (usually mounted at `/sys/fs/resctrl`):
//! each directory under the root is a *class of service* (CLOS); its
//! `schemata` file holds the L3 capacity bitmask per cache domain, and
//! writing a thread id into its `tasks` file binds that thread to the
//! class. On a context switch the kernel programs the core's CLOS register,
//! so masks follow threads across cores — exactly the property the paper's
//! engine integration relies on (it tags *job worker* threads, not cores).
//!
//! The driver is built over a small filesystem abstraction ([`fs::ResctrlFs`])
//! with two implementations:
//!
//! * `fs::RealFs` (crate-private, behind [`CacheController::open`]) — the
//!   actual `/sys/fs/resctrl` tree, for CAT hardware;
//! * [`fs::FakeFs`] — an in-memory emulation of the kernel's behaviour
//!   (schemata normalization, CLOS limits, task files), used by the test
//!   suite and by any host without CAT, such as a container on an old
//!   kernel.
//!
//! A process that partitions opens **one** controller and shares it as a
//! [`ResctrlTree`] (see [`supervisor`]): the tree then holds the groups
//! of the mask plan in force and nothing else.
//!
//! Beyond allocation, the crate also drives RDT **monitoring**: typed
//! `mon_groups` handles ([`MonGroupHandle`]) for RMID-backed per-query
//! counters, CMT/MBM reads, and per-CUID-class [`OccupancyProbe`]s the
//! server's control plane polls — backed by real counters
//! ([`ResctrlMonitor`]) or by a load-driven model ([`SimulatedMonitor`])
//! where the hardware has none.
//!
//! ```
//! use ccp_resctrl::{fs::FakeFs, CacheController};
//! use ccp_cachesim::WayMask;
//!
//! let fs = FakeFs::broadwell();
//! let mut ctl = CacheController::open_with(Box::new(fs), "/sys/fs/resctrl").unwrap();
//! let group = ctl.create_group("scan_polluters").unwrap();
//! // The paper's 10% mask for cache-polluting scans.
//! ctl.set_l3_mask(&group, 0, WayMask::new(0x3).unwrap()).unwrap();
//! ctl.assign_task(&group, 4242).unwrap();
//! ```

pub mod class;
pub mod controller;
pub mod detect;
pub mod error;
pub mod faults;
pub mod fs;
pub mod metrics;
pub mod monitor;
pub mod schemata;
pub mod supervisor;
pub mod sweep;
pub mod tenant;

pub use class::{Class, PerClass};
pub use controller::{CacheController, CatInfo, GroupHandle, MonGroupHandle, MonitoringData};
pub use detect::{detect, CatSupport};
pub use error::ResctrlError;
pub use metrics::ResctrlMetrics;
pub use monitor::{ClassReading, OccupancyProbe, ResctrlMonitor, SimulatedMonitor};
pub use schemata::Schemata;
pub use supervisor::{ResctrlHealth, ResctrlTree, RetryPolicy, SupervisedController};
pub use sweep::{SweepStats, Sweeper};
pub use tenant::{mask_group_name, TenantId, DEFAULT_TENANT};

/// Conventional mount point of the resctrl filesystem.
pub(crate) const DEFAULT_MOUNT: &str = "/sys/fs/resctrl";
