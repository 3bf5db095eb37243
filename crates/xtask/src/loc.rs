//! `cargo xtask loc`: non-test lines and `pub` items per crate — the two
//! size figures simplification PRs report before → after.
//!
//! A *non-test line* is any physical line of a file under a crate's
//! `src/` (code, comment or blank) outside its `#[cfg(test)] mod …`
//! regions, as [`scan`] marks them. A *`pub` item* is a non-test code
//! line that opens with `pub` followed by an item keyword; `pub(crate)`
//! and struct fields are not items.

use crate::lint::collect_rs_files;
use crate::scan::scan;
use std::path::Path;

/// What follows `pub ` on a line that declares a public item.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "use", "unsafe", "async",
    "union", "macro",
];

/// `(non-test lines, pub items)` of one source file.
pub fn count(src: &str) -> (usize, usize) {
    let scanned = scan(src);
    let mut lines = 0;
    let mut items = 0;
    for (code, in_test) in scanned.code.iter().zip(&scanned.in_test) {
        if *in_test {
            continue;
        }
        lines += 1;
        let mut words = code.split_whitespace();
        if words.next() == Some("pub") && words.next().is_some_and(|w| ITEM_KEYWORDS.contains(&w)) {
            items += 1;
        }
    }
    // `scan` yields one trailing empty line for a file that ends in '\n'.
    if src.ends_with('\n') {
        lines -= 1;
    }
    (lines, items)
}

/// One markdown table row per crate (`crates/*/src`, then the root
/// package's `src`), plus a total row.
pub fn table(repo_root: &Path) -> std::io::Result<String> {
    let mut crates: Vec<_> = std::fs::read_dir(repo_root.join("crates"))?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.join("src").is_dir())
        .collect();
    crates.sort();
    crates.push(repo_root.to_path_buf());
    let mut out = String::from("| crate | non-test lines | `pub` items |\n|---|---:|---:|\n");
    let (mut total_lines, mut total_items) = (0, 0);
    for dir in &crates {
        let (mut lines, mut items) = (0, 0);
        for file in collect_rs_files(&[dir.join("src")])? {
            let (l, i) = count(&std::fs::read_to_string(&file)?);
            lines += l;
            items += i;
        }
        let name = if dir == repo_root {
            "(root package)"
        } else {
            dir.file_name().and_then(|n| n.to_str()).unwrap_or("?")
        };
        out.push_str(&format!("| {name} | {lines} | {items} |\n"));
        total_lines += lines;
        total_items += items;
    }
    out.push_str(&format!("| **total** | {total_lines} | {total_items} |\n"));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_stop_at_the_test_module_and_skip_non_items() {
        let src = "\
//! doc
pub struct S {
    pub field: u32,
}

pub(crate) fn hidden() {}
pub fn shown() {}
pub const fn also() {}
// pub fn in_a_comment() {}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
";
        assert_eq!(count(src), (10, 3));
    }
}
