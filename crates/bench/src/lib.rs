//! Experiment harness support: environment-controlled experiment windows,
//! table printing, and machine-readable result capture.
//!
//! Every figure of the paper has a bench target in `benches/` (run them all
//! with `cargo bench -p ccp-bench`, or one with e.g.
//! `cargo bench -p ccp-bench --bench fig05_agg_llc`). Each target prints
//! the figure's series as a text table **and** writes
//! `target/experiments/<name>.json` so `EXPERIMENTS.md` can be regenerated
//! and diffed.
//!
//! Set `CCP_FULL=1` for longer virtual-time windows (tighter numbers,
//! ~4× slower); `CCP_QUICK=1` for a smoke run.

use ccp_workloads::Experiment;
use std::io::Write;
use std::path::PathBuf;

/// Experiment windows selected via environment:
/// `CCP_QUICK` < default < `CCP_FULL`.
pub fn experiment_from_env() -> Experiment {
    if std::env::var_os("CCP_FULL").is_some() {
        Experiment {
            warm_cycles: 16_000_000,
            measure_cycles: 32_000_000,
            ..Default::default()
        }
    } else if std::env::var_os("CCP_QUICK").is_some() {
        Experiment {
            warm_cycles: 2_000_000,
            measure_cycles: 4_000_000,
            ..Default::default()
        }
    } else {
        Experiment {
            warm_cycles: 6_000_000,
            measure_cycles: 10_000_000,
            ..Default::default()
        }
    }
}

/// Prints the standard experiment banner.
pub fn banner(figure: &str, title: &str, e: &Experiment) {
    println!();
    println!("=== {figure}: {title} ===");
    println!(
        "machine: {:.0} MiB LLC / {} ways, {} KiB L2, windows warm={}M measure={}M cycles",
        e.cfg.llc.size_bytes as f64 / (1024.0 * 1024.0),
        e.cfg.llc.ways,
        e.cfg.l2.size_bytes / 1024,
        e.warm_cycles / 1_000_000,
        e.measure_cycles / 1_000_000,
    );
}

/// Directory where experiment JSON results land.
pub(crate) fn results_dir() -> PathBuf {
    let dir =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("experiments");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Writes the result rows as pretty JSON to
/// `target/experiments/<name>.json`. (Rendered by hand: the build
/// environment has no serde_json, and the row schema is fixed anyway.)
pub fn save_json(name: &str, rows: &[ResultRow]) {
    let path = results_dir().join(format!("{name}.json"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let s = rows_to_json(rows);
            let _ = f.write_all(s.as_bytes());
            println!("[saved {}]", path.display());
        }
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Renders result rows as a pretty-printed JSON array.
fn rows_to_json(rows: &[ResultRow]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        let _ = ccp_trace::escape_json_into(&mut out, s);
        out
    }
    fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }
    fn opt(v: Option<f64>) -> String {
        v.map_or_else(|| "null".to_string(), num)
    }
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("  {\n");
        out.push_str(&format!("    \"config\": {},\n", esc(&r.config)));
        out.push_str(&format!("    \"series\": {},\n", esc(&r.series)));
        out.push_str(&format!("    \"x\": {},\n", num(r.x)));
        out.push_str(&format!("    \"normalized\": {},\n", num(r.normalized)));
        out.push_str(&format!(
            "    \"llc_hit_ratio\": {},\n",
            opt(r.llc_hit_ratio)
        ));
        out.push_str(&format!("    \"llc_mpi\": {}\n", opt(r.llc_mpi)));
        out.push_str(if i + 1 == rows.len() {
            "  }\n"
        } else {
            "  },\n"
        });
    }
    out.push(']');
    out
}

/// A generic result row for JSON capture.
#[derive(Debug, Clone)]
pub struct ResultRow {
    /// Configuration label (e.g. "dict=40MiB groups=1e5").
    pub config: String,
    /// Series label (e.g. "Q2 partitioned").
    pub series: String,
    /// X value (e.g. LLC MiB or group count).
    pub x: f64,
    /// Normalized throughput.
    pub normalized: f64,
    /// LLC hit ratio, when meaningful.
    pub llc_hit_ratio: Option<f64>,
    /// LLC misses per instruction, when meaningful.
    pub llc_mpi: Option<f64>,
}

/// Formats a normalized-throughput cell.
pub fn pct(v: f64) -> String {
    format!("{:5.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_render_as_valid_json() {
        let rows = vec![
            ResultRow {
                config: "dict=40MiB".into(),
                series: "Q2 \"partitioned\"".into(),
                x: 20.0,
                normalized: 0.86,
                llc_hit_ratio: Some(0.91),
                llc_mpi: None,
            },
            ResultRow {
                config: "dict=4MiB".into(),
                series: "Q1".into(),
                x: 2.0,
                normalized: 1.0,
                llc_hit_ratio: None,
                llc_mpi: Some(0.002),
            },
        ];
        let s = rows_to_json(&rows);
        assert!(s.starts_with("[\n"));
        assert!(s.ends_with(']'));
        assert!(s.contains("\"series\": \"Q2 \\\"partitioned\\\"\""));
        assert!(s.contains("\"llc_hit_ratio\": null"));
        assert!(s.contains("\"llc_mpi\": 0.002"));
        // Object separators: exactly one comma between the two objects.
        assert_eq!(s.matches("},").count(), 1);
    }

    #[test]
    fn env_selects_windows() {
        // Default windows are between quick and full.
        let e = experiment_from_env();
        assert!(e.measure_cycles >= 4_000_000);
        assert!(e.warm_cycles >= 2_000_000);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1.0), "100.0%");
        assert_eq!(pct(0.655), " 65.5%");
    }

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.ends_with("experiments"));
    }
}
