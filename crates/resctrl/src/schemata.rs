//! Parsing and rendering of resctrl `schemata` files.
//!
//! A schemata file has one line per resource; for L3 CAT the line looks like
//! `L3:0=fffff;1=3` — per cache domain (socket) a hex capacity bitmask.
//! This module round-trips that format with validation through
//! [`ccp_cachesim::WayMask`], so a mask that parses here is guaranteed to be
//! a legal CAT mask.

use crate::error::ResctrlError;
use ccp_cachesim::WayMask;
use std::collections::BTreeMap;
use std::fmt;

/// The parsed L3 section of a schemata file: domain id → capacity bitmask.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schemata {
    /// One entry per L3 cache domain (physical socket, usually).
    pub l3: BTreeMap<u32, WayMask>,
}

impl Schemata {
    /// A schemata assigning `mask` to every domain in `domains`.
    pub fn uniform(domains: &[u32], mask: WayMask) -> Self {
        Schemata {
            l3: domains.iter().map(|&d| (d, mask)).collect(),
        }
    }

    /// Parses the contents of a `schemata` file. Lines for resources other
    /// than `L3` (e.g. `MB:` bandwidth throttling) are ignored, matching
    /// what a CAT-focused controller needs.
    ///
    /// # Errors
    /// Returns [`ResctrlError::InvalidSchemata`] on malformed L3 entries and
    /// [`ResctrlError::BadMask`] on masks CAT would reject.
    pub fn parse(text: &str) -> Result<Self, ResctrlError> {
        let mut l3 = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            let Some(rest) = line.strip_prefix("L3:") else {
                continue;
            };
            for part in rest.split(';') {
                let (dom, mask) = part
                    .split_once('=')
                    .ok_or_else(|| ResctrlError::InvalidSchemata(part.to_string()))?;
                let dom: u32 = dom
                    .trim()
                    .parse()
                    .map_err(|_| ResctrlError::InvalidSchemata(part.to_string()))?;
                let bits = u32::from_str_radix(mask.trim(), 16)
                    .map_err(|_| ResctrlError::InvalidSchemata(part.to_string()))?;
                let mask = WayMask::new(bits).map_err(|e| ResctrlError::BadMask(e.to_string()))?;
                l3.insert(dom, mask);
            }
        }
        Ok(Schemata { l3 })
    }

    /// Mask of a particular domain, if present.
    #[cfg(test)]
    pub(crate) fn mask_of(&self, domain: u32) -> Option<WayMask> {
        self.l3.get(&domain).copied()
    }
}

/// Renders in the exact format the kernel accepts for writing.
impl fmt::Display for Schemata {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .l3
            .iter()
            .map(|(d, m)| format!("{d}={:x}", m.bits()))
            .collect();
        writeln!(f, "L3:{}", parts.join(";"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_single_domain() {
        let s = Schemata::parse("L3:0=fffff\n").unwrap();
        assert_eq!(s.mask_of(0).unwrap().bits(), 0xfffff);
        assert_eq!(s.mask_of(1), None);
    }

    #[test]
    fn parse_multi_domain() {
        let s = Schemata::parse("L3:0=fffff;1=3\n").unwrap();
        assert_eq!(s.mask_of(0).unwrap().bits(), 0xfffff);
        assert_eq!(s.mask_of(1).unwrap().bits(), 0x3);
    }

    #[test]
    fn ignores_other_resources() {
        let s = Schemata::parse("MB:0=100\nL3:0=ff\nL2:0=f\n").unwrap();
        assert_eq!(s.l3.len(), 1);
        assert_eq!(s.mask_of(0).unwrap().bits(), 0xff);
    }

    #[test]
    fn rejects_malformed_entries() {
        assert!(matches!(
            Schemata::parse("L3:0"),
            Err(ResctrlError::InvalidSchemata(_))
        ));
        assert!(matches!(
            Schemata::parse("L3:x=ff"),
            Err(ResctrlError::InvalidSchemata(_))
        ));
        assert!(matches!(
            Schemata::parse("L3:0=zz"),
            Err(ResctrlError::InvalidSchemata(_))
        ));
    }

    #[test]
    fn rejects_illegal_masks() {
        assert!(matches!(
            Schemata::parse("L3:0=0"),
            Err(ResctrlError::BadMask(_))
        ));
        assert!(matches!(
            Schemata::parse("L3:0=5"),
            Err(ResctrlError::BadMask(_))
        ));
    }

    #[test]
    fn roundtrip_display_parse() {
        let s = Schemata::parse("L3:0=fffff;1=3").unwrap();
        let rendered = s.to_string();
        assert_eq!(rendered, "L3:0=fffff;1=3\n");
        assert_eq!(Schemata::parse(&rendered).unwrap(), s);
    }

    #[test]
    fn uniform_builder() {
        let s = Schemata::uniform(&[0, 1], WayMask::new(0x3).unwrap());
        assert_eq!(s.to_string(), "L3:0=3;1=3\n");
    }
}
