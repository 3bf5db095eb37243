//! Workspace automation entry point, invoked as `cargo xtask <command>`
//! via the alias in `.cargo/config.toml`.
//!
//! Commands:
//!
//! * `lint [--format human|json] [paths…]` — run the static
//!   concurrency-hygiene checks (see `lint.rs`). Default paths are
//!   `crates/` and `src/` relative to the workspace root; pass explicit
//!   paths (e.g. `crates/xtask/fixtures`) to lint something else, such
//!   as the seeded-violation fixtures in CI. Exits `1` when findings
//!   exist, `2` on usage or I/O errors.
//! * `loc` — print a markdown table of non-test lines and `pub` items
//!   per crate (see `loc.rs`). The table is committed as `LOC.md`
//!   (`cargo xtask loc >LOC.md`) and CI diffs the two.

mod lint;
mod loc;
mod scan;

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: cargo xtask lint [--format human|json] [paths...]\n       cargo xtask loc");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("loc") if args.len() == 1 => match loc::table(&repo_root()) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("loc: {e}");
                ExitCode::from(2)
            }
        },
        _ => usage(),
    }
}

/// The workspace root: `cargo xtask` runs with the manifest dir of this
/// crate, two levels below the root; direct `cargo run -p xtask`
/// invocations from the root work identically.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn run_lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("human") => json = false,
                _ => return usage(),
            },
            "--json" => json = true,
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag: {flag}");
                return usage();
            }
            p => paths.push(PathBuf::from(p)),
        }
    }
    if paths.is_empty() {
        paths = lint::default_roots(&repo_root());
    }
    let findings = match lint::lint_paths(&paths) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        println!("[");
        for (i, f) in findings.iter().enumerate() {
            let sep = if i + 1 < findings.len() { "," } else { "" };
            println!("  {}{sep}", f.to_json());
        }
        println!("]");
    } else {
        for f in &findings {
            println!("{f}");
        }
        eprintln!(
            "lint: {} finding{} across {} path{}",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" },
            paths.len(),
            if paths.len() == 1 { "" } else { "s" },
        );
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
