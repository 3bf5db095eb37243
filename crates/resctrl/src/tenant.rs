//! Tenant identities and tenant-aware resctrl group naming.
//!
//! Fleet-scale serving means many tenants sharing one resctrl tree, so
//! every group the tenant layer creates is named
//! `ccp-<tenant>-<class>` — prefix-owned (the reconciler may sweep any
//! `ccp-` group it does not desire), parseable (a crashed process's
//! leftovers can be attributed on the next start), and collision-free
//! with the engine's per-mask `ccp-<hex>` groups (those never contain a
//! second dash followed by a class word).
//!
//! Tenant identifiers are deliberately strict: lowercase ASCII
//! alphanumerics and underscores, 1–24 characters. No dashes (the
//! group-name separator), no path metacharacters (these become kernel
//! directory names), no uppercase (header values fold). Hostile names —
//! `..`, `a/b`, empty, overlong — never reach the filesystem.

use crate::class::Class;
use ccp_cachesim::WayMask;
use std::fmt;

/// The tenant attributed to requests that carry no `X-CCP-Tenant`
/// header.
pub const DEFAULT_TENANT: &str = "default";

/// Every group name the tenant layer owns starts with this.
pub const GROUP_PREFIX: &str = "ccp-";

/// Tenant identifiers reserved by the system: `probe` would collide
/// with the supervisor's scratch group, `shared` names the class-shared
/// fallback, `mon` guards against `mon_groups`/`mon_data` confusion.
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

    /// The resctrl control-group name for this tenant's `class` slice:
    /// `ccp-<tenant>-<class>`.
    pub fn group_name(&self, class: Class) -> String {
        format!("{GROUP_PREFIX}{}-{}", self.0, class.label())
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

/// Parses a group name minted by [`TenantId::group_name`] back into its
/// `(tenant, class)` pair. Returns `None` for anything else — the
/// engine's `ccp-<hex>` mask groups, the supervisor's `ccp-probe`, or
/// garbage — so sweep logic can attribute ownership without false
/// positives.
pub fn parse_group_name(name: &str) -> Option<(TenantId, Class)> {
    let rest = name.strip_prefix(GROUP_PREFIX)?;
    let (tenant, class) = rest.rsplit_once('-')?;
    Some((TenantId::parse(tenant).ok()?, Class::parse(class)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_ids_round_trip_through_group_names() {
        for id in ["a", "tenant_1", "x9", "default", &"t".repeat(24)] {
            let t = TenantId::parse(id).unwrap();
            for class in Class::ALL {
                let name = t.group_name(class);
                assert_eq!(parse_group_name(&name), Some((t.clone(), class)), "{name}");
            }
        }
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
    fn non_tenant_group_names_do_not_parse() {
        for name in [
            "ccp-3",
            "ccp-fffff",
            "ccp-probe",
            "other-a-polluting",
            "ccp-a-unknownclass",
            "ccp--polluting",
            "ccp-A-polluting",
        ] {
            assert!(parse_group_name(name).is_none(), "{name:?} must not parse");
        }
    }
}
