//! Scripted occupancy traces: a deterministic [`OccupancyProbe`] for CI.
//!
//! Where [`ccp_resctrl::SimulatedMonitor`] reacts to live admission
//! pressure, a [`ScriptedTrace`] replays an exact per-class occupancy
//! schedule, tick by tick — the tool for driving the controller through
//! a *chosen* scenario ("the sensitive working set shrinks at tick 6")
//! and asserting the exact decisions it makes.
//!
//! ## Grammar
//!
//! ```text
//! spec     := class-spec (';' class-spec)*
//! class    := 'polluting' | 'mixed' | 'sensitive'
//! class-spec := class ':' segment (',' segment)*
//! segment  := FRAC ['/' BWFRAC] ['x' TICKS]
//! ```
//!
//! `FRAC` is the class's LLC occupancy as a fraction of the whole cache
//! (0.0–1.0); `BWFRAC` (default: `FRAC`) is the fraction of the LLC the
//! class streams *per tick*, accumulated into the cumulative MBM
//! counter; `TICKS` (default: forever) is the segment length. The last
//! segment holds forever.
//!
//! Example — the adaptive-smoke scenario: a sensitive class that fills
//! 95 % of the LLC for 6 ticks, then shrinks to 12 %:
//!
//! ```text
//! sensitive:0.95x6,0.12;polluting:0.08;mixed:0.02
//! ```

use ccp_resctrl::{Class, ClassReading, OccupancyProbe};

#[derive(Debug, Clone, Copy)]
struct Segment {
    frac: f64,
    bw_frac: f64,
    ticks: Option<u32>,
}

#[derive(Debug, Clone)]
struct ClassTrack {
    class: Class,
    segments: Vec<Segment>,
    /// Index of the active segment and ticks already spent in it.
    cursor: (usize, u32),
    traffic: f64,
}

/// A deterministic occupancy probe replaying a scripted trace. See the
/// module docs for the grammar.
#[derive(Debug, Clone)]
pub struct ScriptedTrace {
    llc_bytes: u64,
    classes: Vec<ClassTrack>,
}

impl ScriptedTrace {
    /// Parses `spec` for an `llc_bytes`-sized cache.
    ///
    /// # Errors
    /// Returns a human-readable message on malformed specs, unknown
    /// class labels, or out-of-range fractions.
    pub fn parse(spec: &str, llc_bytes: u64) -> Result<Self, String> {
        let mut classes = Vec::new();
        for class_spec in spec.split(';').filter(|s| !s.trim().is_empty()) {
            let (label, rest) = class_spec
                .split_once(':')
                .ok_or_else(|| format!("class spec {class_spec:?} is missing ':'"))?;
            let label = label.trim();
            let class = Class::parse(label).ok_or_else(|| {
                format!("unknown class {label:?} (expected polluting|mixed|sensitive)")
            })?;
            if classes.iter().any(|c: &ClassTrack| c.class == class) {
                return Err(format!("class {label:?} appears twice"));
            }
            let mut segments = Vec::new();
            for seg in rest.split(',') {
                segments.push(Self::parse_segment(seg.trim())?);
            }
            if segments.is_empty() {
                return Err(format!("class {label:?} has no segments"));
            }
            classes.push(ClassTrack {
                class,
                segments,
                cursor: (0, 0),
                traffic: 0.0,
            });
        }
        if classes.is_empty() {
            return Err("empty occupancy script".to_string());
        }
        Ok(ScriptedTrace { llc_bytes, classes })
    }

    fn parse_segment(seg: &str) -> Result<Segment, String> {
        let (body, ticks) = match seg.split_once('x') {
            Some((b, t)) => {
                let n: u32 = t
                    .parse()
                    .map_err(|_| format!("bad tick count in segment {seg:?}"))?;
                (b, Some(n.max(1)))
            }
            None => (seg, None),
        };
        let (frac_s, bw_s) = match body.split_once('/') {
            Some((f, b)) => (f, Some(b)),
            None => (body, None),
        };
        let frac: f64 = frac_s
            .parse()
            .map_err(|_| format!("bad occupancy fraction in segment {seg:?}"))?;
        let bw_frac: f64 = match bw_s {
            Some(b) => b
                .parse()
                .map_err(|_| format!("bad bandwidth fraction in segment {seg:?}"))?,
            None => frac,
        };
        if !(0.0..=1.0).contains(&frac) {
            return Err(format!("occupancy fraction {frac} out of [0, 1]"));
        }
        if !(0.0..=16.0).contains(&bw_frac) {
            return Err(format!("bandwidth fraction {bw_frac} out of [0, 16]"));
        }
        Ok(Segment {
            frac,
            bw_frac,
            ticks,
        })
    }
}

impl OccupancyProbe for ScriptedTrace {
    fn sample(&mut self) -> Vec<ClassReading> {
        let mut out = Vec::with_capacity(self.classes.len());
        for track in &mut self.classes {
            let (ref mut idx, ref mut spent) = track.cursor;
            let seg = track.segments[*idx];
            track.traffic += seg.bw_frac * self.llc_bytes as f64;
            out.push(ClassReading {
                class: track.class,
                occupancy_bytes: (seg.frac * self.llc_bytes as f64) as u64,
                mbm_total_bytes: track.traffic as u64,
            });
            *spent += 1;
            if let Some(len) = seg.ticks {
                if *spent >= len && *idx + 1 < track.segments.len() {
                    *idx += 1;
                    *spent = 0;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LLC: u64 = 1000;

    #[test]
    fn replays_segments_in_order() {
        let mut t = ScriptedTrace::parse("sensitive:0.95x2,0.12;polluting:0.08", LLC).unwrap();
        let s1 = t.sample();
        assert_eq!(s1[0].class, Class::Sensitive);
        assert_eq!(s1[0].occupancy_bytes, 950);
        assert_eq!(s1[1].occupancy_bytes, 80);
        t.sample(); // second tick of the first segment
        let s3 = t.sample();
        assert_eq!(s3[0].occupancy_bytes, 120);
        // The last segment holds forever.
        for _ in 0..10 {
            assert_eq!(t.sample()[0].occupancy_bytes, 120);
        }
    }

    #[test]
    fn traffic_accumulates_with_explicit_bandwidth() {
        let mut t = ScriptedTrace::parse("polluting:0.1/2.0x1", LLC).unwrap();
        assert_eq!(t.sample()[0].mbm_total_bytes, 2000);
        assert_eq!(t.sample()[0].mbm_total_bytes, 4000);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "sensitive",
            "martian:0.5",
            "sensitive:1.5",
            "sensitive:0.5xq",
            "sensitive:0.5;sensitive:0.2",
        ] {
            assert!(ScriptedTrace::parse(bad, LLC).is_err(), "accepted {bad:?}");
        }
    }
}
