//! Property tests for tenant identifiers and group naming: every valid
//! id round-trips through `group_name` → `parse_group_name` for every
//! class label, and hostile inputs (bad characters, over-length,
//! reserved words, foreign group names) are rejected rather than
//! aliased onto some other tenant's groups.

use ccp_resctrl::tenant::{GROUP_PREFIX, MAX_TENANT_LEN, RESERVED};
use ccp_resctrl::{parse_group_name, Class, TenantId};
use proptest::prelude::*;

/// The full legal tenant alphabet: lowercase alphanumerics plus
/// underscore.
const TENANT_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";

/// Characters that must never appear in a tenant id — including `-`,
/// which is the group-name separator and the classic aliasing vector
/// (`a-b` must not mint groups that parse back as tenant `a`).
const HOSTILE_CHARS: &[u8] = b"-./ :A@!~\\";

fn tenant_name() -> BoxedStrategy<String> {
    proptest::collection::vec(0usize..TENANT_ALPHABET.len(), 1..MAX_TENANT_LEN + 1)
        .prop_map(|ix| ix.iter().map(|&i| TENANT_ALPHABET[i] as char).collect())
        .boxed()
}

proptest! {
    /// parse ∘ format = identity: a valid id names a group per class,
    /// and parsing that group name recovers exactly the id and class.
    #[test]
    fn valid_ids_round_trip_for_every_class(name in tenant_name()) {
        match TenantId::parse(&name) {
            Ok(id) => {
                prop_assert_eq!(id.as_str(), name.as_str());
                for class in Class::ALL {
                    let group = id.group_name(class);
                    prop_assert!(
                        group.starts_with(GROUP_PREFIX),
                        "group {} carries the ccp- prefix", group
                    );
                    let (back, back_class) = parse_group_name(&group)
                        .unwrap_or_else(|| panic!("{group} must parse back"));
                    prop_assert_eq!(back.as_str(), name.as_str());
                    prop_assert_eq!(back_class, class);
                }
            }
            // The alphabet only produces legal characters and lengths,
            // so the sole legitimate rejection is a reserved word.
            Err(_) => prop_assert!(
                RESERVED.contains(&name.as_str()),
                "{} rejected but not reserved", name
            ),
        }
    }

    /// A single hostile character anywhere in the id is fatal: parse
    /// rejects it, so no group name can ever be minted for it.
    #[test]
    fn hostile_characters_are_rejected_wherever_they_hide(
        prefix in proptest::collection::vec(0usize..TENANT_ALPHABET.len(), 0..10),
        bad in 0usize..HOSTILE_CHARS.len(),
        suffix in proptest::collection::vec(0usize..TENANT_ALPHABET.len(), 0..10),
    ) {
        let mut name: String = prefix.iter().map(|&i| TENANT_ALPHABET[i] as char).collect();
        name.push(HOSTILE_CHARS[bad] as char);
        name.extend(suffix.iter().map(|&i| TENANT_ALPHABET[i] as char));
        prop_assert!(
            TenantId::parse(&name).is_err(),
            "hostile id {:?} must not parse", name
        );
    }

    /// Over-length ids are rejected even when every character is legal.
    #[test]
    fn over_length_ids_are_rejected(
        ix in proptest::collection::vec(
            0usize..TENANT_ALPHABET.len(), MAX_TENANT_LEN + 1..MAX_TENANT_LEN + 20),
    ) {
        let name: String = ix.iter().map(|&i| TENANT_ALPHABET[i] as char).collect();
        prop_assert!(
            TenantId::parse(&name).is_err(),
            "{} chars must exceed the {} limit", name.len(), MAX_TENANT_LEN
        );
    }

    /// Group names that are not `ccp-<tenant>-<class>` never parse:
    /// a wrong prefix or an unknown class label yields `None`, so the
    /// reconciler can never adopt a foreign group as tenant-owned.
    #[test]
    fn foreign_group_names_do_not_parse(
        name in tenant_name(),
        class_ix in 0usize..Class::ALL.len(),
    ) {
        let class = Class::ALL[class_ix].label();
        // Wrong prefix.
        prop_assert_eq!(parse_group_name(&format!("xcp-{name}-{class}")).map(|(t, _)| t.as_str().to_string()), None);
        // Unknown class label.
        prop_assert!(parse_group_name(&format!("ccp-{name}-warm")).is_none());
        // Missing class entirely.
        prop_assert!(parse_group_name(&format!("ccp-{name}")).is_none());
    }
}
