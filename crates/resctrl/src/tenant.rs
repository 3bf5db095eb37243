//! The default tenant's name, and the names of the groups this system
//! owns.
//!
//! Tenancy is an admission concept (quotas and per-tenant metric labels,
//! kept by the server). It names no resctrl group — every tenant's
//! workers bind into the shared per-mask group [`mask_group_name`] mints,
//! `ccp-<mask hex>`, and everything this system creates in the tree
//! carries `GROUP_PREFIX`, which is what lets the orphan sweeps tell its
//! groups from anyone else's.

use ccp_cachesim::WayMask;

/// The tenant attributed to requests that carry no `X-CCP-Tenant`
/// header.
pub const DEFAULT_TENANT: &str = "default";

/// Every group name this system owns starts with this.
pub(crate) const GROUP_PREFIX: &str = "ccp-";

/// The control group the engine's allocator binds workers running under
/// `mask` into: `ccp-<mask hex>`, one group per distinct mask, shared by
/// every tenant.
pub fn mask_group_name(mask: WayMask) -> String {
    format!("{GROUP_PREFIX}{:x}", mask.bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_groups_carry_the_prefix_and_the_mask_in_hex() {
        assert_eq!(mask_group_name(WayMask::new(0x3).unwrap()), "ccp-3");
        assert_eq!(mask_group_name(WayMask::new(0xfffff).unwrap()), "ccp-fffff");
    }
}
