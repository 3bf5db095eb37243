//! Host-speed calibration.
//!
//! The box this benchmark runs on is a small VM on a shared host: the
//! same binary runs 10-30 % slower for minutes at a time when the
//! neighbours are busy, which is more than the change a bound is meant
//! to catch. A calibrator thread therefore runs a fixed kernel every
//! [`PERIOD`] beside the measurement and records the *thread CPU time*
//! it took (preemption by the benchmark's own threads does not count).
//! The ratio of that time to [`NOMINAL_NS`] is the slowdown of the host
//! at that moment, and the bounded end-to-end metrics are reported at
//! nominal speed: throughput times the slowdown, times divided by it.
//!
//! The kernel is the harness's own code and touches nothing of the
//! program under test, so no change to the program can move it. It uses
//! about 0.5 % of one CPU.

use crate::stats::median;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pause between two calibration samples.
const PERIOD: Duration = Duration::from_millis(50);

/// CPU time of one kernel call on the box the benchmark was defined on,
/// at its quiet speed. Only the ratio to it matters.
const NOMINAL_NS: f64 = 220_000.0;

/// CPU nanoseconds the calling thread has consumed.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ns() -> Option<u64> {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the libc function std itself links
    // against; it writes one `timespec` through the pointer, which is
    // valid, aligned and exclusively ours, and `Timespec` has the layout
    // of `struct timespec` on 64-bit Linux (two 64-bit integers), which
    // the cfg above restricts this function to.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Elsewhere there is no calibration: every slowdown reads 1.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> Option<u64> {
    None
}

/// The fixed work: four SplitMix-style passes over 256 KiB, so it has
/// both arithmetic for the core and traffic for the L2, like the
/// operators it stands beside.
fn kernel(buf: &mut [u64]) -> u64 {
    let mut acc = 0u64;
    for _ in 0..4 {
        for (i, v) in buf.iter_mut().enumerate() {
            let mut x = *v ^ i as u64;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *v = x ^ (x >> 31);
            acc = acc.wrapping_add(*v);
        }
    }
    acc
}

/// One calibration sample: when it was taken and the CPU nanoseconds
/// the kernel took.
#[derive(Clone, Copy, Debug)]
pub struct CalibSample {
    pub at: Instant,
    pub cpu_ns: u64,
}

/// The running calibrator thread.
pub struct Calibrator {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<CalibSample>>,
}

impl Calibrator {
    pub fn start() -> Calibrator {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut buf = vec![1u64; 32 * 1024];
            let mut samples = Vec::new();
            // ORDERING: a lone flag that publishes nothing else.
            while !stopped.load(Ordering::Relaxed) {
                let at = Instant::now();
                let before = thread_cpu_ns();
                std::hint::black_box(kernel(&mut buf));
                if let (Some(before), Some(after)) = (before, thread_cpu_ns()) {
                    samples.push(CalibSample {
                        at,
                        cpu_ns: after - before,
                    });
                }
                std::thread::sleep(PERIOD);
            }
            samples
        });
        Calibrator { stop, thread }
    }

    /// Stops the thread and returns every sample.
    pub fn stop(self) -> Vec<CalibSample> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("calibrator panicked")
    }
}

/// How much slower than nominal the host ran between `from` and `to`:
/// the median sample of that interval over [`NOMINAL_NS`]; 1 when the
/// interval holds no sample.
pub fn slowdown(samples: &[CalibSample], from: Instant, to: Instant) -> f64 {
    let inside: Vec<f64> = samples
        .iter()
        .filter(|s| s.at >= from && s.at < to)
        .map(|s| s.cpu_ns as f64)
        .collect();
    if inside.is_empty() {
        1.0
    } else {
        median(&inside) / NOMINAL_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_of_the_interval_over_nominal() {
        let t0 = Instant::now();
        let at = |ms: u64, cpu_ns: u64| CalibSample {
            at: t0 + Duration::from_millis(ms),
            cpu_ns,
        };
        let samples = [
            at(0, 220_000),
            at(50, 440_000),
            at(100, 330_000),
            at(150, 660_000),
            at(500, 110_000),
        ];
        let ms = Duration::from_millis;
        assert_eq!(slowdown(&samples, t0, t0 + ms(200)), 1.75);
        assert_eq!(slowdown(&samples, t0 + ms(400), t0 + ms(600)), 0.5);
        assert_eq!(slowdown(&samples, t0 + ms(200), t0 + ms(400)), 1.0);
    }

    #[test]
    fn calibrator_samples_until_stopped() {
        let c = Calibrator::start();
        std::thread::sleep(Duration::from_millis(120));
        let samples = c.stop();
        if thread_cpu_ns().is_some() {
            assert!(samples.len() >= 2, "{samples:?}");
            assert!(samples.iter().all(|s| s.cpu_ns > 0));
        }
    }

    #[test]
    fn kernel_is_deterministic() {
        let (mut a, mut b) = (vec![1u64; 64], vec![1u64; 64]);
        assert_eq!(kernel(&mut a), kernel(&mut b));
        assert_eq!(a, b);
    }
}
