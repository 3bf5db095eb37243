//! Tenant identities, and the names of the groups this system owns.
//!
//! Tenancy is an admission concept: a validated [`TenantId`] keys quotas
//! and the per-tenant metric labels. It names no
//! resctrl group — every tenant's workers bind into the shared per-mask
//! group [`mask_group_name`] mints, `ccp-<mask hex>`, and everything this
//! system creates in the tree carries `GROUP_PREFIX`, which is what
//! lets the orphan sweeps tell its groups from anyone else's.
//!
//! Tenant identifiers are deliberately strict: lowercase ASCII
//! alphanumerics and underscores, 1–24 characters. No dashes, no path
//! metacharacters, no uppercase (header values fold): an id is a metric
//! label value, and hostile names — `..`, `a/b`, empty, overlong — are
//! rejected where they enter.

use ccp_cachesim::WayMask;
use std::fmt;

/// The tenant attributed to requests that carry no `X-CCP-Tenant`
/// header.
pub const DEFAULT_TENANT: &str = "default";

/// Every group name this system owns starts with this.
pub(crate) const GROUP_PREFIX: &str = "ccp-";

/// Tenant identifiers reserved because a label carrying them would read as the system's own vocabulary: `probe` (the
/// supervisor's `ccp-probe` scratch group), `shared`, and `mon`
/// (resctrl's `mon_groups`/`mon_data`).
pub const RESERVED: &[&str] = &["probe", "shared", "mon"];

/// Longest accepted tenant identifier.
pub const MAX_TENANT_LEN: usize = 24;

/// A validated tenant identifier (see the module docs for the
/// accepted alphabet).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(String);

/// Why a tenant identifier was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadTenant(pub String);

impl fmt::Display for BadTenant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid tenant id: {}", self.0)
    }
}

impl std::error::Error for BadTenant {}

impl TenantId {
    /// Validates and wraps a tenant identifier.
    ///
    /// # Errors
    /// [`BadTenant`] on empty/overlong input, characters outside
    /// `[a-z0-9_]`, or a reserved name.
    pub fn parse(s: &str) -> Result<TenantId, BadTenant> {
        if s.is_empty() {
            return Err(BadTenant("empty".into()));
        }
        if s.len() > MAX_TENANT_LEN {
            return Err(BadTenant(format!(
                "{s:?} longer than {MAX_TENANT_LEN} characters"
            )));
        }
        if !s
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            return Err(BadTenant(format!(
                "{s:?} contains characters outside [a-z0-9_]"
            )));
        }
        if RESERVED.contains(&s) {
            return Err(BadTenant(format!("{s:?} is reserved")));
        }
        Ok(TenantId(s.to_string()))
    }

    /// The `default` tenant (always valid).
    pub fn default_tenant() -> TenantId {
        TenantId(DEFAULT_TENANT.to_string())
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

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
    fn valid_ids_parse_to_themselves() {
        for id in ["a", "tenant_1", "x9", "default", &"t".repeat(24)] {
            assert_eq!(TenantId::parse(id).unwrap().as_str(), id);
        }
        assert_eq!(TenantId::default_tenant().as_str(), DEFAULT_TENANT);
    }

    #[test]
    fn hostile_ids_rejected() {
        for bad in [
            "",
            "..",
            "a/b",
            "a-b",
            "UPPER",
            "with space",
            "tenant\n",
            &"x".repeat(25),
            "probe",
            "shared",
            "mon",
        ] {
            assert!(TenantId::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn mask_groups_carry_the_prefix_and_the_mask_in_hex() {
        assert_eq!(mask_group_name(WayMask::new(0x3).unwrap()), "ccp-3");
        assert_eq!(mask_group_name(WayMask::new(0xfffff).unwrap()), "ccp-fffff");
    }
}
