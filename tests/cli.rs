//! Black-box tests for the `ccp` binary: unknown subcommands and
//! malformed flags must exit non-zero with a clear message on stderr —
//! never panic, never silently succeed.

use std::process::{Command, Output};

fn ccp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccp"))
        .args(args)
        .output()
        .expect("spawn ccp")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_subcommand_fails_with_message() {
    let out = ccp(&["bogus"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("unknown command"), "stderr: {err}");
    assert!(err.contains("bogus"), "names the offender: {err}");
    assert!(!err.contains("panicked"), "no panic: {err}");
}

#[test]
fn stray_arguments_on_simple_commands_fail() {
    let out = ccp(&["probe", "--verbose"]);
    assert_eq!(out.status.code(), Some(1), "probe accepts no flags");
    let err = stderr(&out);
    assert!(err.contains("takes no arguments"), "probe stderr: {err}");
}

/// The simulator walkthroughs live in `examples/` only: the binary's
/// commands are the host probe and the service pair.
#[test]
fn help_lists_exactly_the_served_commands() {
    for gone in ["demo", "classify", "schedule"] {
        let out = ccp(&[gone]);
        assert_eq!(out.status.code(), Some(1), "`ccp {gone}` is not a command");
        let err = stderr(&out);
        assert!(err.contains("unknown command"), "{gone} stderr: {err}");
    }
    let out = ccp(&["help"]);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let at = text.find("COMMANDS:\n").expect("COMMANDS section");
    let commands: Vec<&str> = text[at..]
        .lines()
        .skip(1)
        .take_while(|l| !l.is_empty())
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        commands,
        ["probe", "serve", "bench-serve", "help"],
        "{text}"
    );
}

#[test]
fn malformed_serve_flags_fail_without_binding() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["serve", "--queue", "nope"],
            "expected a number, got \"nope\"",
        ),
        (&["serve", "--frobnicate"], "unknown serve flag"),
        (&["serve", "--slots"], "flag --slots needs a value"),
        (&["serve", "--rows", "0"], "expected a positive number"),
        (&["serve", "--addr"], "flag --addr needs a value"),
        (
            &["serve", "--tenant-quota", "Bad Name=1"],
            "--tenant: invalid tenant id: \"Bad Name\" contains characters outside [a-z0-9_]",
        ),
        // Retired flags are unknown: the period flags other than
        // `--control-interval-ms`, and `--no-flight` (the recorder is
        // always on). (In these cases the out-of-range port makes a server that did
        // start fail, not serve.)
        (
            &[
                "serve",
                "--monitor-interval-ms",
                "100",
                "--addr",
                "127.0.0.1:99999",
            ],
            "unknown serve flag \"--monitor-interval-ms\"",
        ),
        (
            &[
                "serve",
                "--reprobe-interval-ms",
                "100",
                "--addr",
                "127.0.0.1:99999",
            ],
            "unknown serve flag \"--reprobe-interval-ms\"",
        ),
        (
            &[
                "serve",
                "--flight-interval-ms",
                "100",
                "--addr",
                "127.0.0.1:99999",
            ],
            "unknown serve flag \"--flight-interval-ms\"",
        ),
        (
            &["serve", "--no-flight", "--addr", "127.0.0.1:99999"],
            "unknown serve flag \"--no-flight\"",
        ),
        (
            &[
                "serve",
                "--tenant-weight",
                "a=2",
                "--addr",
                "127.0.0.1:99999",
            ],
            "unknown serve flag \"--tenant-weight\"",
        ),
        // A `u32` flag past `u32::MAX` fails naming the flag, never runs
        // truncated.
        (
            &[
                "serve",
                "--fake-closids",
                "4294967300",
                "--addr",
                "127.0.0.1:99999",
            ],
            "--fake-closids expects a number from 1 to 4294967295",
        ),
        (
            &[
                "serve",
                "--fake-closids",
                "4294967296",
                "--addr",
                "127.0.0.1:99999",
            ],
            "--fake-closids expects a number from 1 to 4294967295",
        ),
        // A reuse budget whose byte count overflows a `u64` fails at
        // server start naming the flag, never serves with a wrapped
        // (0-byte) budget.
        (
            &[
                "serve",
                "--reuse-budget-mb",
                "17592186044416",
                "--addr",
                "127.0.0.1:99999",
            ],
            "cannot start server: --reuse-budget-mb: 17592186044416 MiB overflows",
        ),
    ];
    for (args, expect) in cases {
        let out = ccp(args);
        assert_eq!(out.status.code(), Some(1), "args: {args:?}");
        let err = stderr(&out);
        assert!(err.contains(expect), "args {args:?} stderr: {err}");
        assert!(!err.contains("panicked"), "no panic for {args:?}: {err}");
    }
}

#[test]
fn help_and_no_args_succeed() {
    for args in [&["help"][..], &[][..]] {
        let out = ccp(args);
        assert!(out.status.success(), "args: {args:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("serve"), "help mentions serve: {text}");
    }
}

/// The flag lines (`  --name [VALUE]  help…`) of one section of `ccp help`,
/// as `(name, takes a value)`.
fn help_flags(section: &str) -> Vec<(String, bool)> {
    let out = ccp(&["help"]);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let header = format!("{section}:\n");
    let at = text
        .find(&header)
        .unwrap_or_else(|| panic!("{section} missing from help: {text}"));
    text[at + header.len()..]
        .lines()
        .take_while(|l| l.starts_with("  --"))
        .map(|l| {
            let mut words = l.split_whitespace();
            let name = words.next().expect("flag name").to_string();
            // A value placeholder is upper-case (`N`, `HOST:PORT`, `NAME=N`).
            let valued = words.next().is_some_and(|w| {
                w.chars().any(|c| c.is_ascii_uppercase()) && w == w.to_uppercase()
            });
            (name, valued)
        })
        .collect()
}

#[test]
fn every_flag_is_listed_in_help_and_known_to_its_parser() {
    const SERVE: [&str; 17] = [
        "--addr",
        "--olap-workers",
        "--oltp-workers",
        "--slots",
        "--queue",
        "--max-conns",
        "--rows",
        "--queue-deadline-ms",
        "--faults",
        "--fake-resctrl",
        "--adaptive",
        "--control-interval-ms",
        "--occupancy-script",
        "--reuse-budget-mb",
        "--no-reuse",
        "--tenant-quota",
        "--fake-closids",
    ];
    const BENCH: [&str; 10] = [
        "--addr",
        "--qps",
        "--duration",
        "--concurrency",
        "--workload",
        "--max-error-pct",
        "--ab-addr",
        "--json-out",
        "--timeline-out",
        "--tenant-mix",
    ];
    for (cmd, section, expect) in [
        ("serve", "SERVE FLAGS", &SERVE[..]),
        ("bench-serve", "BENCH-SERVE FLAGS", &BENCH[..]),
    ] {
        let listed = help_flags(section);
        let names: Vec<&str> = listed.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, expect, "{section} of `ccp help`");
        // Help and parser come from one table: every valued flag the help
        // lists is one the parser knows and demands a value for. (Switches
        // would start a server, so they are only checked for being listed.)
        for (name, valued) in &listed {
            if !*valued {
                continue;
            }
            let out = ccp(&[cmd, name]);
            assert_eq!(out.status.code(), Some(1), "{cmd} {name}");
            let err = stderr(&out);
            assert!(
                err.contains(&format!("flag {name} needs a value")),
                "{cmd} {name} stderr: {err}"
            );
        }
        let switches = listed.iter().filter(|(_, valued)| !valued).count();
        assert_eq!(switches, if cmd == "serve" { 3 } else { 0 }, "{section}");
    }
}

#[test]
fn malformed_bench_serve_flags_fail_before_connecting() {
    let cases: &[(&[&str], &str)] = &[
        (&["bench-serve", "--frobnicate"], "unknown bench-serve flag"),
        (&["bench-serve", "--qps"], "flag --qps needs a value"),
        (&["bench-serve", "--qps", "0"], "expected a positive number"),
        (&["bench-serve", "--workload", "q9"], "unknown workload"),
        (
            &["bench-serve", "--tenant-mix", "alpha"],
            "--tenant-mix expects NAME:WEIGHT entries",
        ),
    ];
    for (args, expect) in cases {
        let out = ccp(args);
        assert_eq!(out.status.code(), Some(1), "args: {args:?}");
        let err = stderr(&out);
        assert!(err.contains(expect), "args {args:?} stderr: {err}");
        assert!(!err.contains("panicked"), "no panic for {args:?}: {err}");
    }
}
