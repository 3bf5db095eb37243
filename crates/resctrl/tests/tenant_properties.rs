//! Property tests for tenant identifiers: every id over the legal
//! alphabet parses to itself unless it is a reserved word, and hostile
//! inputs (bad characters, over-length) are rejected where they enter
//! rather than becoming a metric label or a `/stats` key.

use ccp_resctrl::tenant::{MAX_TENANT_LEN, RESERVED};
use ccp_resctrl::TenantId;
use proptest::prelude::*;

/// The full legal tenant alphabet: lowercase alphanumerics plus
/// underscore.
const TENANT_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";

/// Characters that must never appear in a tenant id.
const HOSTILE_CHARS: &[u8] = b"-./ :A@!~\\";

fn tenant_name() -> BoxedStrategy<String> {
    proptest::collection::vec(0usize..TENANT_ALPHABET.len(), 1..MAX_TENANT_LEN + 1)
        .prop_map(|ix| ix.iter().map(|&i| TENANT_ALPHABET[i] as char).collect())
        .boxed()
}

proptest! {
    /// A name over the legal alphabet and within the length bound parses
    /// to itself; the sole legitimate rejection is a reserved word.
    #[test]
    fn valid_ids_parse_to_themselves(name in tenant_name()) {
        match TenantId::parse(&name) {
            Ok(id) => prop_assert_eq!(id.as_str(), name.as_str()),
            Err(_) => prop_assert!(
                RESERVED.contains(&name.as_str()),
                "{} rejected but not reserved", name
            ),
        }
    }

    /// A single hostile character anywhere in the id is fatal.
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
}
