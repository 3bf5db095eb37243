//! Tenants: the one home of the tenant policy. A tenant gets admission
//! only (an optional in-flight quota and metric label sets of its own),
//! never a resctrl group. Two rules decide who a request runs as:
//!
//! * [`validate`], the name rule: lowercase ASCII alphanumerics and `_`,
//!   1–24 characters, no reserved word. A name is a metric label value, so
//!   hostile names (`..`, `a/b`, empty, overlong) are refused where they
//!   enter: the `X-CCP-Tenant` header and `--tenant-quota`.
//! * [`Tenants::book`], the booking rule: the default tenant, the
//!   configured ones (with a quota) and the first [`MAX_TENANT_LABELS`]
//!   other names are booked under their own name; every later name is
//!   booked as [`OVERFLOW_TENANT`] and counted in
//!   `ccp_server_tenant_label_overflow_total`. A name always books the
//!   same handle, so a client that sends `other` shares the overflow
//!   tenant and its quota, and a known tenant costs no allocation.

use ccp_obs::Counter;
use ccp_resctrl::DEFAULT_TENANT;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Names refused because a label carrying them would read as the
/// system's own vocabulary: `probe` (the supervisor's `ccp-probe` scratch
/// group), `shared`, and `mon` (resctrl's `mon_groups`/`mon_data`).
const RESERVED: &[&str] = &["probe", "shared", "mon"];

/// Longest accepted tenant name.
const MAX_TENANT_LEN: usize = 24;

/// Unconfigured tenants booked under their own name.
pub(crate) const MAX_TENANT_LABELS: usize = 64;

/// The tenant every name past [`MAX_TENANT_LABELS`] is booked as.
const OVERFLOW_TENANT: &str = "other";

/// Why a tenant name was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BadTenant(String);

impl fmt::Display for BadTenant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid tenant id: {}", self.0)
    }
}

/// The name rule (see the module docs).
///
/// # Errors
/// [`BadTenant`] on empty or overlong input, characters outside
/// `[a-z0-9_]`, or a reserved name.
pub(crate) fn validate(s: &str) -> Result<(), BadTenant> {
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
    Ok(())
}

/// A booked tenant: the name it is labelled and queued under, and its
/// in-flight quota (`None`: unlimited). Two handles are the same tenant
/// exactly when they are the same pointer.
#[derive(Debug)]
pub(crate) struct Tenant {
    pub(crate) name: Box<str>,
    pub(crate) quota: Option<usize>,
}

/// The one tenant table.
pub(crate) struct Tenants {
    table: Mutex<Table>,
    overflow: Counter,
}

struct Table {
    by_name: HashMap<Box<str>, Arc<Tenant>>,
    /// Names booked on first sight, at most [`MAX_TENANT_LABELS`].
    unconfigured: usize,
}

impl Tenants {
    /// A table holding the default and the overflow tenant; each name
    /// booked past the cap bumps `overflow`.
    pub(crate) fn new(overflow: Counter) -> Self {
        let names = [DEFAULT_TENANT, OVERFLOW_TENANT].map(|n| (n.into(), tenant(n, None)));
        Tenants {
            table: Mutex::new(Table {
                by_name: HashMap::from(names),
                unconfigured: 0,
            }),
            overflow,
        }
    }

    /// Gives each named tenant its quota, the last setting for a name
    /// winning. Call before any of those names is booked.
    pub(crate) fn configure<'a>(&self, quotas: impl IntoIterator<Item = (&'a str, usize)>) {
        let mut table = self.lock();
        for (name, quota) in quotas {
            table.by_name.insert(name.into(), tenant(name, Some(quota)));
        }
    }

    /// The booking rule (see the module docs): `name`'s handle, booking it
    /// on first sight while the cap allows. Does not validate `name`.
    pub(crate) fn book(&self, name: &str) -> Arc<Tenant> {
        let mut table = self.lock();
        if let Some(t) = table.by_name.get(name) {
            return Arc::clone(t);
        }
        if table.unconfigured >= MAX_TENANT_LABELS {
            self.overflow.inc();
            return Arc::clone(&table.by_name[OVERFLOW_TENANT]);
        }
        table.unconfigured += 1;
        let t = tenant(name, None);
        table.by_name.insert(name.into(), Arc::clone(&t));
        t
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn tenant(name: &str, quota: Option<usize>) -> Arc<Tenant> {
    Arc::new(Tenant {
        name: name.into(),
        quota,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_obs::Registry;

    fn table() -> (Tenants, Counter) {
        let overflow = Registry::new().counter("overflow", "");
        (Tenants::new(overflow.clone()), overflow)
    }

    #[test]
    fn valid_ids_parse_to_themselves() {
        for id in ["a", "tenant_1", "x9", "default", &"t".repeat(24)] {
            assert_eq!(validate(id), Ok(()), "{id:?}");
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
            assert!(validate(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn a_name_always_books_the_same_handle() {
        let (tenants, overflow) = table();
        tenants.configure([("acme", 1)]);
        for name in [DEFAULT_TENANT, "acme", "t0", OVERFLOW_TENANT] {
            assert!(
                Arc::ptr_eq(&tenants.book(name), &tenants.book(name)),
                "{name}"
            );
        }
        assert_eq!(tenants.book(DEFAULT_TENANT).name.as_ref(), DEFAULT_TENANT);
        assert_eq!(tenants.book("acme").quota, Some(1));
        assert_eq!(tenants.book("t0").quota, None);
        // Fill the cap (t0 holds one entry), then go past it.
        for i in 1..MAX_TENANT_LABELS {
            assert_eq!(
                tenants.book(&format!("t{i}")).name.as_ref(),
                format!("t{i}")
            );
        }
        assert_eq!(overflow.get(), 0);
        let late = tenants.book("late");
        let sent_other = tenants.book(OVERFLOW_TENANT);
        assert!(
            Arc::ptr_eq(&late, &sent_other),
            "a sent `other` is the overflow"
        );
        assert_eq!(late.name.as_ref(), OVERFLOW_TENANT);
        assert_eq!(overflow.get(), 1, "only the late arrival overflowed");
        // With the cap full, the configured and default tenants keep their
        // own entries and quotas, and booked names keep theirs.
        let acme = tenants.book("acme");
        assert_eq!((acme.name.as_ref(), acme.quota), ("acme", Some(1)));
        assert_eq!(tenants.book(DEFAULT_TENANT).name.as_ref(), DEFAULT_TENANT);
        assert_eq!(tenants.book("t0").name.as_ref(), "t0");
        assert_eq!(overflow.get(), 1);
    }

    #[test]
    fn a_quota_on_other_is_the_overflow_quota_and_the_last_setting_wins() {
        let (tenants, _) = table();
        tenants.configure([("acme", 1), (OVERFLOW_TENANT, 2), ("acme", 3)]);
        assert_eq!(tenants.book("acme").quota, Some(3));
        for i in 0..MAX_TENANT_LABELS {
            tenants.book(&format!("t{i}"));
        }
        let late = tenants.book("late");
        assert!(Arc::ptr_eq(&late, &tenants.book(OVERFLOW_TENANT)));
        assert_eq!(late.quota, Some(2));
    }

    mod properties {
        //! Every name over the legal alphabet validates unless it is a
        //! reserved word; hostile names (bad characters, over-length) are
        //! refused where they enter rather than becoming a metric label.

        use super::super::{validate, MAX_TENANT_LEN, RESERVED};
        use proptest::prelude::*;

        /// The full legal tenant alphabet: lowercase alphanumerics plus
        /// underscore.
        const TENANT_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";

        /// Characters that must never appear in a tenant name.
        const HOSTILE_CHARS: &[u8] = b"-./ :A@!~\\";

        fn tenant_name() -> BoxedStrategy<String> {
            proptest::collection::vec(0usize..TENANT_ALPHABET.len(), 1..MAX_TENANT_LEN + 1)
                .prop_map(|ix| ix.iter().map(|&i| TENANT_ALPHABET[i] as char).collect())
                .boxed()
        }

        proptest! {
            /// A name over the legal alphabet and within the length bound
            /// validates; the sole legitimate refusal is a reserved word.
            #[test]
            fn valid_ids_parse_to_themselves(name in tenant_name()) {
                if validate(&name).is_err() {
                    prop_assert!(
                        RESERVED.contains(&name.as_str()),
                        "{} rejected but not reserved", name
                    );
                }
            }

            /// A single hostile character anywhere in the name is fatal.
            #[test]
            fn hostile_characters_are_rejected_wherever_they_hide(
                prefix in proptest::collection::vec(0usize..TENANT_ALPHABET.len(), 0..10),
                bad in 0usize..HOSTILE_CHARS.len(),
                suffix in proptest::collection::vec(0usize..TENANT_ALPHABET.len(), 0..10),
            ) {
                let mut name: String = prefix.iter().map(|&i| TENANT_ALPHABET[i] as char).collect();
                name.push(HOSTILE_CHARS[bad] as char);
                name.extend(suffix.iter().map(|&i| TENANT_ALPHABET[i] as char));
                prop_assert!(validate(&name).is_err(), "hostile id {:?} must not parse", name);
            }

            /// Over-length names are refused even when every character is
            /// legal.
            #[test]
            fn over_length_ids_are_rejected(
                ix in proptest::collection::vec(
                    0usize..TENANT_ALPHABET.len(), MAX_TENANT_LEN + 1..MAX_TENANT_LEN + 20),
            ) {
                let name: String = ix.iter().map(|&i| TENANT_ALPHABET[i] as char).collect();
                prop_assert!(
                    validate(&name).is_err(),
                    "{} chars must exceed the {} limit", name.len(), MAX_TENANT_LEN
                );
            }
        }
    }
}
