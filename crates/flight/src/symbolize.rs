//! Lazy in-process symbolization against `/proc/self/exe`.
//!
//! The profiler's signal handler records raw program counters; nothing
//! is resolved until a `/profile` response is being built. This module
//! then parses the running binary's ELF64 symbol table (`.symtab`,
//! falling back to `.dynsym` for stripped-but-dynamic builds), computes
//! the PIE load bias from `/proc/self/maps`, and demangles legacy Rust
//! symbol names. Everything is plain safe file parsing — no `unsafe`,
//! no external crates — because it runs on the request path, not in the
//! handler.

use std::fs;

/// One function symbol: `[addr, addr + size)` in link-time addresses.
struct Sym {
    addr: u64,
    size: u64,
    name: String,
}

/// A sorted function-symbol table plus the load bias that maps runtime
/// program counters back to link-time addresses.
pub(crate) struct SymbolTable {
    /// Sorted by `addr`; names are already demangled.
    syms: Vec<Sym>,
    /// `runtime_address - link_address` for the executable mapping.
    bias: u64,
}

impl SymbolTable {
    /// Parses the running executable. Failures (stripped binary,
    /// unreadable maps) degrade to an empty table — callers then render
    /// raw addresses, never errors.
    pub(crate) fn load() -> SymbolTable {
        let empty = SymbolTable {
            syms: Vec::new(),
            bias: 0,
        };
        let Ok(elf) = fs::read("/proc/self/exe") else {
            return empty;
        };
        let Some(mut syms) = parse_function_symbols(&elf) else {
            return empty;
        };
        syms.sort_by_key(|s| s.addr);
        let bias = load_bias(&elf).unwrap_or(0);
        SymbolTable { syms, bias }
    }

    /// Resolves a runtime program counter to a demangled function name.
    pub(crate) fn resolve(&self, pc: usize) -> Option<&str> {
        let addr = (pc as u64).checked_sub(self.bias)?;
        let idx = self.syms.partition_point(|s| s.addr <= addr);
        let sym = self.syms[..idx].last()?;
        // Zero-sized symbols (assembly stubs) match anything up to the
        // next symbol, which `partition_point` already guarantees.
        if sym.size > 0 && addr >= sym.addr + sym.size {
            return None;
        }
        Some(&sym.name)
    }
}

/// Little-endian field readers with bounds checking (a short read means
/// a malformed ELF and aborts the parse via `None`).
fn u16_at(b: &[u8], off: usize) -> Option<u64> {
    Some(u16::from_le_bytes(b.get(off..off + 2)?.try_into().ok()?) as u64)
}

fn u32_at(b: &[u8], off: usize) -> Option<u64> {
    Some(u32::from_le_bytes(b.get(off..off + 4)?.try_into().ok()?) as u64)
}

fn u64_at(b: &[u8], off: usize) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(off..off + 8)?.try_into().ok()?))
}

/// Extracts `STT_FUNC` symbols from `.symtab` (type 2) or, failing
/// that, `.dynsym` (type 11).
fn parse_function_symbols(elf: &[u8]) -> Option<Vec<Sym>> {
    if elf.get(..4)? != b"\x7fELF" || *elf.get(4)? != 2 {
        return None; // not ELF64
    }
    let shoff = u64_at(elf, 0x28)? as usize;
    let shentsize = u16_at(elf, 0x3a)? as usize;
    let shnum = u16_at(elf, 0x3c)? as usize;
    let section = |i: usize| -> Option<&[u8]> {
        let off = shoff + i * shentsize;
        elf.get(off..off + shentsize)
    };
    // Prefer .symtab (2): it has local symbols; .dynsym (11) only has
    // exported ones but beats nothing.
    let mut chosen: Option<usize> = None;
    for want in [2u64, 11] {
        for i in 0..shnum {
            if u32_at(section(i)?, 0x04) == Some(want) {
                chosen = Some(i);
                break;
            }
        }
        if chosen.is_some() {
            break;
        }
    }
    let symtab_hdr = section(chosen?)?;
    let sym_off = u64_at(symtab_hdr, 0x18)? as usize;
    let sym_size = u64_at(symtab_hdr, 0x20)? as usize;
    let strtab_idx = u32_at(symtab_hdr, 0x28)? as usize;
    let strtab_hdr = section(strtab_idx)?;
    let str_off = u64_at(strtab_hdr, 0x18)? as usize;
    let str_size = u64_at(strtab_hdr, 0x20)? as usize;
    let strtab = elf.get(str_off..str_off + str_size)?;

    const SYM_ENTSIZE: usize = 24;
    let mut out = Vec::new();
    let table = elf.get(sym_off..sym_off + sym_size)?;
    for entry in table.chunks_exact(SYM_ENTSIZE) {
        let info = *entry.get(4)?;
        if info & 0xf != 2 {
            continue; // not STT_FUNC
        }
        let addr = u64_at(entry, 8)?;
        if addr == 0 {
            continue;
        }
        let name_off = u32_at(entry, 0)? as usize;
        let raw = strtab
            .get(name_off..)
            .and_then(|s| s.split(|&b| b == 0).next())
            .and_then(|s| std::str::from_utf8(s).ok())
            .unwrap_or("");
        if raw.is_empty() {
            continue;
        }
        out.push(Sym {
            addr,
            size: u64_at(entry, 16)?,
            name: demangle(raw),
        });
    }
    Some(out)
}

/// Minimum `PT_LOAD` virtual address — what the runtime base address
/// corresponds to for a PIE.
fn min_load_vaddr(elf: &[u8]) -> Option<u64> {
    let phoff = u64_at(elf, 0x20)? as usize;
    let phentsize = u16_at(elf, 0x36)? as usize;
    let phnum = u16_at(elf, 0x38)? as usize;
    let mut min: Option<u64> = None;
    for i in 0..phnum {
        let off = phoff + i * phentsize;
        let hdr = elf.get(off..off + phentsize)?;
        if u32_at(hdr, 0)? == 1 {
            let vaddr = u64_at(hdr, 0x10)?;
            min = Some(min.map_or(vaddr, |m| m.min(vaddr)));
        }
    }
    min
}

/// `runtime base − link-time base` from `/proc/self/maps`: the mapping
/// of our own executable at file offset 0 gives the runtime base.
fn load_bias(elf: &[u8]) -> Option<u64> {
    let link_base = min_load_vaddr(elf)?;
    let exe = fs::read_link("/proc/self/exe").ok()?;
    let exe = exe.to_str()?;
    let maps = fs::read_to_string("/proc/self/maps").ok()?;
    for line in maps.lines() {
        // `start-end perms offset dev inode   path`
        let mut fields = line.split_whitespace();
        let range = fields.next()?;
        let _perms = fields.next()?;
        let offset = fields.next()?;
        let _dev = fields.next();
        let _inode = fields.next();
        let path = fields.next().unwrap_or("");
        if path == exe && offset == "00000000" {
            let start = u64::from_str_radix(range.split('-').next()?, 16).ok()?;
            return start.checked_sub(link_base);
        }
    }
    None
}

/// Demangles a legacy Rust (`_ZN…E`) symbol; anything else passes
/// through unchanged. The trailing `17h<16 hex>` hash segment is
/// dropped, `$…$` escapes and `..` are rewritten, and path separators
/// become `::`.
pub(crate) fn demangle(raw: &str) -> String {
    let Some(rest) = raw.strip_prefix("_ZN") else {
        return raw.to_string();
    };
    let mut segments: Vec<String> = Vec::new();
    let mut s = rest;
    loop {
        if let Some(tail) = s.strip_prefix('E') {
            // `.llvm.123…` style suffixes after the terminator are fine;
            // anything else means this was not a legacy mangling.
            if !tail.is_empty() && !tail.starts_with('.') {
                return raw.to_string();
            }
            break;
        }
        let digits: String = s.chars().take_while(|c| c.is_ascii_digit()).collect();
        let Ok(len) = digits.parse::<usize>() else {
            return raw.to_string();
        };
        let after = &s[digits.len()..];
        if digits.is_empty() || after.len() < len {
            return raw.to_string();
        }
        segments.push(unescape(&after[..len]));
        s = &after[len..];
    }
    // Drop the trailing `h<16 hex>` disambiguator segment.
    if let Some(last) = segments.last() {
        let hex = last.strip_prefix('h').unwrap_or("");
        if hex.len() == 16 && hex.chars().all(|c| c.is_ascii_hexdigit()) {
            segments.pop();
        }
    }
    segments.join("::")
}

/// Rewrites legacy-mangling escapes inside one path segment.
fn unescape(seg: &str) -> String {
    let mut out = String::with_capacity(seg.len());
    // Segments that start with a special character carry a leading `_`
    // (e.g. `_$LT$…`); it is not part of the name.
    let mut rest = seg.strip_prefix("_$").map_or(seg, |_| &seg[1..]);
    while !rest.is_empty() {
        if let Some(tail) = rest.strip_prefix("..") {
            out.push_str("::");
            rest = tail;
            continue;
        }
        if rest.starts_with('$') {
            let table = [
                ("$LT$", "<"),
                ("$GT$", ">"),
                ("$LP$", "("),
                ("$RP$", ")"),
                ("$C$", ","),
                ("$BP$", "*"),
                ("$RF$", "&"),
                ("$u20$", " "),
                ("$u27$", "'"),
                ("$u5b$", "["),
                ("$u5d$", "]"),
                ("$u7b$", "{"),
                ("$u7d$", "}"),
            ];
            if let Some((esc, repl)) = table.iter().find(|(esc, _)| rest.starts_with(esc)) {
                out.push_str(repl);
                rest = &rest[esc.len()..];
                continue;
            }
        }
        let mut chars = rest.chars();
        if let Some(c) = chars.next() {
            out.push(c);
        }
        rest = chars.as_str();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demangles_legacy_rust_symbols() {
        assert_eq!(
            demangle("_ZN10ccp_engine8executor11JobExecutor3run17h0123456789abcdefE"),
            "ccp_engine::executor::JobExecutor::run"
        );
        assert_eq!(
            demangle("_ZN4core3ops8function6FnOnce9call_once17hdeadbeefdeadbeefE"),
            "core::ops::function::FnOnce::call_once"
        );
    }

    #[test]
    fn demangles_escape_sequences() {
        assert_eq!(
            demangle("_ZN67_$LT$ccp_engine..ops..Scan$u20$as$u20$ccp_engine..ops..Operator$GT$4next17haaaaaaaaaaaaaaaaE"),
            "<ccp_engine::ops::Scan as ccp_engine::ops::Operator>::next"
        );
    }

    #[test]
    fn non_rust_symbols_pass_through() {
        assert_eq!(demangle("memcpy"), "memcpy");
        assert_eq!(demangle("_Z3fooi"), "_Z3fooi");
        assert_eq!(demangle("_ZNnonsense"), "_ZNnonsense");
    }

    #[test]
    fn own_binary_resolves_a_known_function() {
        let table = SymbolTable::load();
        // The test binary carries a .symtab with this very function.
        let pc = own_binary_resolves_a_known_function as fn() as *const () as usize;
        let name = table.resolve(pc).unwrap_or("");
        assert!(
            name.contains("own_binary_resolves_a_known_function"),
            "resolved {pc:#x} to {name:?}"
        );
    }

    #[test]
    fn out_of_range_pcs_resolve_to_none() {
        let table = SymbolTable::load();
        assert_eq!(table.resolve(0x10), None);
    }
}
