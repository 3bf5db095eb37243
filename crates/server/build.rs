//! Bakes build provenance into the binary for the `ccp_build_info`
//! gauge on `/metrics`: the short git SHA (or "unknown" outside a
//! checkout) and the cargo profile. Benchmark reports embed both, so a
//! p95 number can always be traced back to the exact build that
//! produced it.

use std::path::Path;
use std::process::Command;

/// `git <args>`'s trimmed stdout, `None` when git fails or prints nothing.
fn git(args: &[&str]) -> Option<String> {
    Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

fn main() {
    let sha = git(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=CCP_GIT_SHA={sha}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=CCP_BUILD_PROFILE={profile}");
    // Re-run when the SHA can move: HEAD itself (a checkout), the branch
    // ref HEAD names (a commit on that branch) and `packed-refs` (where a
    // ref lives once packed). `--git-path` resolves each one, in a linked
    // worktree too. A path that does not exist is never emitted: cargo
    // would treat it as changed on every build.
    let head_ref = git(&["symbolic-ref", "-q", "HEAD"]);
    for name in ["HEAD", "packed-refs"]
        .into_iter()
        .chain(head_ref.as_deref())
    {
        if let Some(path) = git(&["rev-parse", "--git-path", name]) {
            if Path::new(&path).exists() {
                println!("cargo:rerun-if-changed={path}");
            }
        }
    }
    println!("cargo:rerun-if-changed=build.rs");
}
