//! Bakes build provenance into the binary for the `ccp_build_info`
//! gauge on `/metrics`: the short git SHA (or "unknown" outside a
//! checkout) and the cargo profile. Benchmark reports embed both, so a
//! p95 number can always be traced back to the exact build that
//! produced it.

use std::process::Command;

fn main() {
    let sha = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=CCP_GIT_SHA={sha}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=CCP_BUILD_PROFILE={profile}");
    // Re-run when HEAD moves so the SHA stays honest.
    println!("cargo:rerun-if-changed=../../.git/HEAD");
    println!("cargo:rerun-if-changed=build.rs");
}
