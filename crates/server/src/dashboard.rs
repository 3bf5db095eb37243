//! Renders the flight recorder's [`Timeline`] as one self-contained
//! HTML page: inline CSS, inline SVG line charts, zero external assets.
//! The page must stay viewable from an air-gapped artifact store (a CI
//! failure bundle, a `file:` open on a laptop), so the renderer never
//! emits a remote reference of any kind — no scripts, no stylesheets,
//! no images, no fonts. A unit test pins that property.
//!
//! Four panels overlay the partitioning story the paper tells: per-class
//! LLC occupancy, the controller's way allocation, admission pressure,
//! and request p95 — with vertical markers for every recorded event
//! (repartitions, reverts, degradation flips, epoch bumps, breaker
//! trips), so "the controller moved ways and p95 recovered" is visible
//! at a glance.

use ccp_flight::Timeline;

/// Chart area width in SVG user units.
const CHART_W: f64 = 720.0;
/// Chart area height in SVG user units.
const CHART_H: f64 = 160.0;
/// Padding around the plot area (room for axis labels).
const PAD_L: f64 = 64.0;
const PAD_R: f64 = 12.0;
const PAD_T: f64 = 10.0;
const PAD_B: f64 = 22.0;

/// Line colors, assigned to a panel's series in order.
const PALETTE: &[&str] = &[
    "#2563eb", "#dc2626", "#16a34a", "#9333ea", "#ea580c", "#0891b2", "#ca8a04", "#4b5563",
];

/// Marker color per event kind; unknown kinds fall back to grey.
fn event_color(kind: &str) -> &'static str {
    match kind {
        "repartition" => "#16a34a",
        "revert" => "#dc2626",
        "hold" => "#d1d5db",
        "degraded" => "#ea580c",
        "restored" => "#0891b2",
        "breaker_trip" => "#b91c1c",
        "epoch_bump" => "#9333ea",
        _ => "#6b7280",
    }
}

/// HTML/attribute escaping for untrusted text (event details carry
/// formatted plan strings today, but escape everything on principle).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// One chart: a title plus the subset of timeline series selected by
/// name prefix.
struct Panel<'a> {
    title: &'a str,
    /// A series joins the panel when its name starts with any prefix.
    prefixes: &'a [&'a str],
    series: Vec<(&'a str, &'a [(u64, f64)])>,
}

impl<'a> Panel<'a> {
    fn select(title: &'a str, prefixes: &'a [&'a str], tl: &'a Timeline) -> Panel<'a> {
        let series = tl
            .series
            .iter()
            .filter(|(name, pts)| !pts.is_empty() && prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(name, pts)| (name.as_str(), pts.as_slice()))
            .collect();
        Panel {
            title,
            prefixes,
            series,
        }
    }

    /// Legend label: the label set inside `{…}` when present (the family
    /// name is already in the panel title), else the full series name.
    fn label(&self, name: &str) -> String {
        match (name.find('{'), name.rfind('}')) {
            (Some(open), Some(close)) if close > open => name[open + 1..close].to_string(),
            _ => name
                .strip_prefix(self.prefixes.first().copied().unwrap_or(""))
                .filter(|rest| !rest.is_empty())
                .unwrap_or(name)
                .to_string(),
        }
    }
}

/// Linear map of `v` from `[lo, hi]` onto `[out_lo, out_hi]`.
fn scale(v: f64, lo: f64, hi: f64, out_lo: f64, out_hi: f64) -> f64 {
    if hi <= lo {
        return (out_lo + out_hi) / 2.0;
    }
    out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)
}

/// Compact value formatting for axis labels (1.2M, 3.4k, 0.017).
fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if a >= 1e9 {
        format!("{:.1}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else if a >= 1.0 || a == 0.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// Renders one panel as an inline `<svg>` plus a legend.
fn render_panel(out: &mut String, panel: &Panel<'_>, tl: &Timeline, seq_lo: u64, seq_hi: u64) {
    out.push_str("<section class=\"panel\">\n");
    out.push_str(&format!("<h2>{}</h2>\n", esc(panel.title)));
    if panel.series.is_empty() {
        out.push_str("<p class=\"empty\">no data yet</p>\n</section>\n");
        return;
    }

    let vmax = panel
        .series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|&(_, v)| v))
        .fold(0.0_f64, f64::max)
        .max(1e-9);
    let (x0, x1) = (PAD_L, CHART_W - PAD_R);
    let (y0, y1) = (CHART_H - PAD_B, PAD_T);
    let sx = |seq: u64| scale(seq as f64, seq_lo as f64, seq_hi as f64, x0, x1);
    let sy = |v: f64| scale(v, 0.0, vmax, y0, y1);

    out.push_str(&format!(
        "<svg viewBox=\"0 0 {CHART_W:.0} {CHART_H:.0}\" role=\"img\" \
         aria-label=\"{}\">\n",
        esc(panel.title)
    ));
    // Plot frame and horizontal gridlines at 0 / 50 / 100 %.
    for frac in [0.0_f64, 0.5, 1.0] {
        let y = scale(frac, 0.0, 1.0, y0, y1);
        out.push_str(&format!(
            "<line x1=\"{x0:.1}\" y1=\"{y:.1}\" x2=\"{x1:.1}\" y2=\"{y:.1}\" \
             stroke=\"#e5e7eb\" stroke-width=\"1\"/>\n"
        ));
        out.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" class=\"axis\" text-anchor=\"end\">{}</text>\n",
            x0 - 6.0,
            y + 3.0,
            esc(&fmt_value(vmax * frac))
        ));
    }
    // Event markers underneath the data lines.
    for ev in &tl.events {
        if ev.seq < seq_lo || ev.seq > seq_hi || ev.kind == "hold" {
            continue;
        }
        let x = sx(ev.seq);
        out.push_str(&format!(
            "<line x1=\"{x:.1}\" y1=\"{y1:.1}\" x2=\"{x:.1}\" y2=\"{y0:.1}\" \
             stroke=\"{}\" stroke-width=\"1\" stroke-dasharray=\"3 2\">\
             <title>{} @{}: {}</title></line>\n",
            event_color(ev.kind),
            esc(ev.kind),
            ev.seq,
            esc(&ev.detail),
        ));
    }
    // Data lines.
    for (i, (name, pts)) in panel.series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let mut path = String::with_capacity(pts.len() * 12);
        for &(seq, v) in *pts {
            if !path.is_empty() {
                path.push(' ');
            }
            path.push_str(&format!("{:.1},{:.1}", sx(seq), sy(v)));
        }
        out.push_str(&format!(
            "<polyline points=\"{path}\" fill=\"none\" stroke=\"{color}\" \
             stroke-width=\"1.5\"><title>{}</title></polyline>\n",
            esc(name)
        ));
    }
    out.push_str(&format!(
        "<text x=\"{x0:.1}\" y=\"{:.1}\" class=\"axis\">seq {seq_lo}</text>\n\
         <text x=\"{x1:.1}\" y=\"{:.1}\" class=\"axis\" text-anchor=\"end\">seq {seq_hi}</text>\n",
        CHART_H - 6.0,
        CHART_H - 6.0,
    ));
    out.push_str("</svg>\n<p class=\"legend\">");
    for (i, (name, _)) in panel.series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        out.push_str(&format!(
            "<span><span class=\"swatch\" style=\"background:{color}\"></span>{}</span> ",
            esc(&panel.label(name))
        ));
    }
    out.push_str("</p>\n</section>\n");
}

/// Renders the whole timeline as a single self-contained HTML document.
pub(crate) fn render(tl: &Timeline) -> String {
    // X domain: every retained point and event, so all panels share one
    // axis and markers line up across charts.
    let mut seq_lo = u64::MAX;
    let mut seq_hi = 0_u64;
    for (_, pts) in &tl.series {
        for &(seq, _) in pts {
            seq_lo = seq_lo.min(seq);
            seq_hi = seq_hi.max(seq);
        }
    }
    for ev in &tl.events {
        seq_lo = seq_lo.min(ev.seq);
        seq_hi = seq_hi.max(ev.seq);
    }
    if seq_lo > seq_hi {
        (seq_lo, seq_hi) = (0, 1);
    }

    let panels = [
        Panel::select(
            "LLC occupancy by class (bytes)",
            &["ccp_llc_occupancy_bytes"],
            tl,
        ),
        Panel::select(
            "Allocated cache ways by class",
            &["ccp_control_mask_ways"],
            tl,
        ),
        Panel::select(
            "Admission queue depth and running queries",
            &[
                "ccp_server_admission_queue_depth",
                "ccp_server_running_queries",
            ],
            tl,
        ),
        Panel::select(
            "Request latency p95 (seconds)",
            &["ccp_server_request_seconds:p95"],
            tl,
        ),
    ];

    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    out.push_str("<title>ccp flight recorder</title>\n<style>\n");
    out.push_str(
        "body{font-family:ui-monospace,monospace;margin:1.5rem auto;max-width:760px;\
         color:#111827;background:#fff}\n\
         h1{font-size:1.2rem}h2{font-size:0.95rem;margin:0.2rem 0}\n\
         svg{width:100%;height:auto;border:1px solid #e5e7eb;background:#fcfcfd}\n\
         .axis{font-size:9px;fill:#6b7280}\n\
         .panel{margin-bottom:1.2rem}\n\
         .legend{font-size:0.75rem;margin:0.2rem 0}\n\
         .legend .swatch{display:inline-block;width:0.7em;height:0.7em;margin-right:0.3em}\n\
         .legend span{margin-right:0.8em}\n\
         .empty{color:#9ca3af;font-size:0.8rem}\n\
         table{border-collapse:collapse;font-size:0.75rem;width:100%}\n\
         td,th{border-bottom:1px solid #e5e7eb;padding:0.15rem 0.4rem;text-align:left}\n\
         .meta{color:#6b7280;font-size:0.75rem}\n",
    );
    out.push_str("</style>\n</head>\n<body>\n<h1>ccp flight recorder</h1>\n");
    out.push_str(&format!(
        "<p class=\"meta\">tick {} · interval {} ms · up {} ms · {} series dropped · \
         {} events dropped · rendered from /timeline</p>\n",
        tl.tick, tl.interval_ms, tl.now_ms, tl.dropped_series, tl.dropped_events,
    ));

    for panel in &panels {
        render_panel(&mut out, panel, tl, seq_lo, seq_hi);
    }

    // Event table (holds included here even though charts skip them).
    out.push_str("<section class=\"panel\">\n<h2>Events</h2>\n");
    if tl.events.is_empty() {
        out.push_str("<p class=\"empty\">no events yet</p>\n");
    } else {
        out.push_str("<table>\n<tr><th>seq</th><th>t (ms)</th><th>kind</th><th>detail</th></tr>\n");
        for ev in &tl.events {
            out.push_str(&format!(
                "<tr><td>{}</td><td>{}</td>\
                 <td><span class=\"swatch\" style=\"background:{}\"></span>{}</td>\
                 <td>{}</td></tr>\n",
                ev.seq,
                ev.t_ms,
                event_color(ev.kind),
                esc(ev.kind),
                esc(&ev.detail),
            ));
        }
        out.push_str("</table>\n");
    }
    out.push_str("</section>\n</body>\n</html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_flight::Event;

    fn sample_timeline() -> Timeline {
        Timeline {
            tick: 12,
            interval_ms: 100,
            now_ms: 1200,
            started_unix_ms: 1_700_000_000_000,
            dropped_series: 0,
            dropped_events: 0,
            series: vec![
                (
                    "ccp_llc_occupancy_bytes{class=\"sensitive\"}".to_string(),
                    vec![(1, 1e6), (2, 2e6), (3, 9e6)],
                ),
                (
                    "ccp_llc_occupancy_bytes{class=\"polluting\"}".to_string(),
                    vec![(1, 8e6), (2, 7e6), (3, 2e6)],
                ),
                (
                    "ccp_control_mask_ways{class=\"sensitive\"}".to_string(),
                    vec![(1, 2.0), (3, 6.0)],
                ),
                (
                    "ccp_server_request_seconds:p95".to_string(),
                    vec![(2, 0.004)],
                ),
                ("ccp_unrelated_total".to_string(), vec![(1, 5.0)]),
            ],
            events: vec![Event {
                seq: 2,
                t_ms: 200,
                kind: "repartition",
                detail: "ways polluting=2 mixed=4 sensitive=6 <&>".to_string(),
            }],
        }
    }

    #[test]
    fn page_is_self_contained() {
        let html = render(&sample_timeline());
        // No external references of any kind: the page must open from an
        // air-gapped artifact store.
        for forbidden in ["http", "src=", "url(", "@import", "<script", "<link"] {
            assert!(
                !html.to_ascii_lowercase().contains(forbidden),
                "self-contained page must not contain {forbidden:?}"
            );
        }
        assert!(html.contains("<svg"));
        assert!(html.contains("<!DOCTYPE html>"));
    }

    #[test]
    fn panels_show_series_and_event_markers() {
        let html = render(&sample_timeline());
        assert!(
            html.contains("class=&quot;sensitive&quot;"),
            "legend label present"
        );
        assert!(html.contains("stroke-dasharray"), "event marker drawn");
        assert!(html.contains("repartition"));
        // Detail text is escaped.
        assert!(html.contains("&lt;&amp;&gt;"));
        assert!(!html.contains("<&>"));
        // Unrelated families stay out of the panels (only named in titles).
        assert!(!html.contains("ccp_unrelated_total"));
    }

    #[test]
    fn empty_timeline_renders_placeholders() {
        let tl = Timeline {
            tick: 0,
            interval_ms: 250,
            now_ms: 0,
            started_unix_ms: 0,
            dropped_series: 0,
            dropped_events: 0,
            series: Vec::new(),
            events: Vec::new(),
        };
        let html = render(&tl);
        assert!(html.contains("no data yet"));
        assert!(html.contains("no events yet"));
    }
}
