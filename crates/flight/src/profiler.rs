//! Continuous profiler: SIGPROF stack sampling with per-thread rings.
//!
//! ## How a sample happens
//!
//! A profiling session arms `ITIMER_PROF`, so the kernel delivers
//! `SIGPROF` to whichever thread is burning CPU, roughly `SAMPLE_HZ`
//! times per second of process CPU time. The handler reads the
//! interrupted context's RIP/RBP out of the `ucontext`, walks frame
//! pointers within the thread's stack bounds (captured at registration
//! via `pthread_getattr_np`), and appends the program counters to the
//! thread's preallocated sample ring. Everything the handler touches is
//! async-signal-safe: atomics, raw pointer reads guarded by the stack
//! bounds, and a `const`-initialized TLS cell — no allocation, no
//! formatting, no locks (the `signal-safe` xtask lint enforces this
//! region mechanically).
//!
//! ## How a sample becomes a flamegraph line
//!
//! Frame-pointer walking requires the binary to keep frame pointers;
//! build with `RUSTFLAGS=-Cforce-frame-pointers=yes` (the `flight-smoke`
//! CI job does) or stacks degrade to leaf-only. After the sampling
//! window, [`profile`] drains every ring, symbolizes program counters
//! lazily against `/proc/self/exe`'s ELF symbol table (see
//! `symbolize.rs`), and folds identical stacks into
//! `flamegraph.pl`-compatible collapsed lines:
//! `thread;root;…;leaf count`.
//!
//! Threads opt in with [`register_current_thread`]; the executor pools
//! register every worker, so collapsed stacks are keyed by pool
//! (`olap-worker-3;…`). Unregistered threads are sampled as dropped
//! counts, never followed.

use crate::symbolize::SymbolTable;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Deepest stack recorded per sample.
const MAX_FRAMES: usize = 64;
/// Per-thread ring capacity in `u64` words (~400 deep samples).
const RING_WORDS: usize = 8192;
/// Sampling rate in samples per second of process CPU time.
const SAMPLE_HZ: u64 = 100;

/// One thread's sample storage plus the stack bounds its handler walks.
struct ThreadRing {
    name: String,
    /// Lowest / highest valid stack address; (0, 0) = unknown, walk
    /// stays leaf-only.
    stack_lo: usize,
    stack_hi: usize,
    buf: Box<[AtomicU64]>,
    /// Words published by the signal handler (monotone).
    head: AtomicU64,
    /// Words consumed by the drain side (monotone).
    drained: AtomicU64,
    /// Samples skipped because the ring was full.
    dropped: AtomicU64,
}

fn rings() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Gate the handler checks before touching anything.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Samples observed on threads that never registered.
static UNREGISTERED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The current thread's ring, if registered. `const`-initialized so
    /// the handler's read is a plain TLS load, not a lazy init.
    static CURRENT: Cell<*const ThreadRing> = const { Cell::new(std::ptr::null()) };
}

mod ffi {
    //! Minimal hand-rolled glibc x86_64 bindings (no libc crate in the
    //! workspace); layouts match `sysdeps/unix/sysv/linux` ABI.

    pub(super) const SIGPROF: i32 = 27;
    pub(super) const ITIMER_PROF: i32 = 2;
    pub(super) const SA_SIGINFO: i32 = 4;
    #[allow(overflowing_literals)]
    pub(super) const SA_RESTART: i32 = 0x1000_0000;
    /// Byte offset of `uc_mcontext.gregs` inside `ucontext_t`.
    pub(super) const UCONTEXT_GREGS_OFFSET: usize = 40;
    pub(super) const REG_RBP: usize = 10;
    pub(super) const REG_RIP: usize = 16;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct Timeval {
        pub tv_sec: i64,
        pub tv_usec: i64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct Itimerval {
        pub it_interval: Timeval,
        pub it_value: Timeval,
    }

    /// glibc's `struct sigaction`: handler, 1024-bit mask, flags,
    /// restorer — 152 bytes on x86_64.
    #[repr(C)]
    pub(super) struct Sigaction {
        pub handler: usize,
        pub mask: [u64; 16],
        pub flags: i32,
        pub restorer: usize,
    }

    /// `pthread_attr_t` is 56 opaque bytes on x86_64 glibc.
    #[repr(C)]
    pub(super) struct PthreadAttr(pub [u64; 7]);

    extern "C" {
        pub(super) fn sigaction(signum: i32, act: *const Sigaction, old: *mut Sigaction) -> i32;
        pub(super) fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
        pub(super) fn pthread_self() -> usize;
        pub(super) fn pthread_getattr_np(thread: usize, attr: *mut PthreadAttr) -> i32;
        pub(super) fn pthread_attr_getstack(
            attr: *const PthreadAttr,
            stackaddr: *mut *mut u8,
            stacksize: *mut usize,
        ) -> i32;
        pub(super) fn pthread_attr_destroy(attr: *mut PthreadAttr) -> i32;
    }
}

/// The current thread's stack bounds, or (0, 0) when glibc won't say.
fn stack_bounds() -> (usize, usize) {
    let mut attr = ffi::PthreadAttr([0; 7]);
    // SAFETY: attr is a properly sized/aligned pthread_attr_t buffer;
    // pthread_getattr_np initializes it on success and we destroy it on
    // every path that initialized it.
    unsafe {
        if ffi::pthread_getattr_np(ffi::pthread_self(), &mut attr) != 0 {
            return (0, 0);
        }
        let mut addr: *mut u8 = std::ptr::null_mut();
        let mut size: usize = 0;
        let rc = ffi::pthread_attr_getstack(&attr, &mut addr, &mut size);
        ffi::pthread_attr_destroy(&mut attr);
        if rc != 0 || addr.is_null() || size == 0 {
            return (0, 0);
        }
        (addr as usize, addr as usize + size)
    }
}

// ASYNC-SIGNAL-SAFE: this handler runs inside signal delivery. It only
// reads the interrupted context, walks stack memory guarded by the
// registered bounds, and publishes words into preallocated atomics —
// no allocation, no formatting, no locking, no syscalls.
extern "C" fn on_sigprof(_sig: i32, _info: *mut u8, ctx: *mut u8) {
    // ORDERING: Acquire pairs with the session's Release arm, so an
    // active handler also sees the rings reset for this session.
    if !ACTIVE.load(Ordering::Acquire) {
        return;
    }
    let ring_ptr = match CURRENT.try_with(Cell::get) {
        Ok(p) => p,
        Err(_) => std::ptr::null(),
    };
    if ring_ptr.is_null() {
        // ORDERING: diagnostic counter, nothing depends on it.
        UNREGISTERED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // SAFETY: the pointer was set by this thread from an Arc that the
    // global ring registry keeps alive for the process lifetime, so it
    // is valid here even mid-signal.
    let ring = unsafe { &*ring_ptr };
    if ctx.is_null() {
        return;
    }
    // SAFETY: the kernel hands SA_SIGINFO handlers a ucontext_t; on
    // x86_64 glibc its gregs array sits at UCONTEXT_GREGS_OFFSET and
    // REG_RIP / REG_RBP index into it.
    let (rip, rbp) = unsafe {
        let gregs = ctx.add(ffi::UCONTEXT_GREGS_OFFSET) as *const i64;
        (
            *gregs.add(ffi::REG_RIP) as usize,
            *gregs.add(ffi::REG_RBP) as usize,
        )
    };
    let mut pcs = [0usize; MAX_FRAMES];
    pcs[0] = rip;
    let mut n = 1usize;
    let (lo, hi) = (ring.stack_lo, ring.stack_hi);
    let mut fp = rbp;
    while n < MAX_FRAMES {
        // Bail on anything not 8-aligned inside (lo, hi-16]: with
        // -Cforce-frame-pointers every frame's RBP stays in that range,
        // and foreign values fail the test instead of faulting.
        if fp < lo || fp.checked_add(16).is_none_or(|end| end > hi) || fp & 7 != 0 {
            break;
        }
        // SAFETY: fp and fp+8 are 8-aligned and inside this thread's
        // stack mapping (checked above), so both reads are of mapped,
        // readable memory.
        let (next, ret) = unsafe { (*(fp as *const usize), *((fp + 8) as *const usize)) };
        if ret == 0 {
            break;
        }
        pcs[n] = ret;
        n += 1;
        if next <= fp {
            break;
        }
        fp = next;
    }
    let cap = ring.buf.len() as u64;
    // ORDERING: head is only ever written by this handler on this
    // thread; Relaxed read-back of our own writes.
    let head = ring.head.load(Ordering::Relaxed);
    // ORDERING: a stale drained value only makes the fullness check
    // conservative (we drop a sample we could have kept).
    let drained = ring.drained.load(Ordering::Relaxed);
    let need = n as u64 + 1;
    if head - drained + need > cap {
        // ORDERING: diagnostic counter.
        ring.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // ORDERING: slot stores are Relaxed; the Release store of head
    // below publishes them to the draining thread.
    ring.buf[(head % cap) as usize].store(n as u64, Ordering::Relaxed);
    for (i, pc) in pcs.iter().take(n).enumerate() {
        // ORDERING: published by the head store below.
        ring.buf[((head + 1 + i as u64) % cap) as usize].store(*pc as u64, Ordering::Relaxed);
    }
    // ORDERING: Release pairs with the drain side's Acquire head load,
    // making every word of this record visible before its length is.
    ring.head.store(head + need, Ordering::Release);
}

/// Registers the calling thread for stack sampling. Idempotent per
/// thread; the ring (≈64 KiB) lives for the process lifetime.
pub fn register_current_thread() {
    let already = CURRENT.with(|c| !c.get().is_null());
    if already {
        return;
    }
    let name = std::thread::current()
        .name()
        .unwrap_or("unnamed")
        .to_string();
    let (stack_lo, stack_hi) = stack_bounds();
    let ring = Arc::new(ThreadRing {
        name,
        stack_lo,
        stack_hi,
        buf: (0..RING_WORDS).map(|_| AtomicU64::new(0)).collect(),
        head: AtomicU64::new(0),
        drained: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
    });
    CURRENT.with(|c| c.set(Arc::as_ptr(&ring)));
    rings()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(ring);
}

/// Why a profile request was refused.
#[derive(Debug)]
pub enum ProfileError {
    /// Another profiling session is in flight.
    Busy,
    /// Installing the handler or arming the timer failed.
    Os(io::Error),
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Busy => write!(f, "a profiling session is already running"),
            ProfileError::Os(e) => write!(f, "profiler setup failed: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// What a sampling window produced.
pub struct ProfileReport {
    /// Collapsed stacks, one `thread;frame;…;leaf count` line each,
    /// ready for `flamegraph.pl`.
    pub collapsed: String,
    /// Samples captured across all registered threads.
    pub samples: u64,
    /// Samples dropped (full rings + unregistered threads).
    pub dropped: u64,
    /// Registered threads that produced at least one sample.
    pub threads: usize,
}

fn install_handler() -> io::Result<()> {
    static INSTALLED: OnceLock<Result<(), i32>> = OnceLock::new();
    let res = INSTALLED.get_or_init(|| {
        let act = ffi::Sigaction {
            handler: on_sigprof as *const () as usize,
            mask: [0; 16],
            flags: ffi::SA_SIGINFO | ffi::SA_RESTART,
            restorer: 0,
        };
        // SAFETY: act is fully initialized; on_sigprof is an extern "C"
        // fn with the SA_SIGINFO signature and is async-signal-safe.
        let rc = unsafe { ffi::sigaction(ffi::SIGPROF, &act, std::ptr::null_mut()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error().raw_os_error().unwrap_or(-1))
        }
    });
    match res {
        Ok(()) => Ok(()),
        Err(code) => Err(io::Error::from_raw_os_error(*code)),
    }
}

fn set_prof_timer(interval_us: i64) -> io::Result<()> {
    let tv = ffi::Timeval {
        tv_sec: interval_us / 1_000_000,
        tv_usec: interval_us % 1_000_000,
    };
    let timer = ffi::Itimerval {
        it_interval: tv,
        it_value: tv,
    };
    // SAFETY: timer is a fully initialized Itimerval and ITIMER_PROF is
    // a valid which-timer constant.
    let rc = unsafe { ffi::setitimer(ffi::ITIMER_PROF, &timer, std::ptr::null_mut()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Samples every registered thread for `duration` (wall time; SIGPROF
/// fires per CPU-second, so idle processes yield few samples) and
/// returns collapsed stacks. One session at a time — concurrent calls
/// get [`ProfileError::Busy`].
pub fn profile(duration: Duration) -> Result<ProfileReport, ProfileError> {
    static SESSION: Mutex<()> = Mutex::new(());
    let Ok(_session) = SESSION.try_lock() else {
        return Err(ProfileError::Busy);
    };
    install_handler().map_err(ProfileError::Os)?;
    let snapshot: Vec<Arc<ThreadRing>> = rings()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let mut dropped_before = 0u64;
    for ring in &snapshot {
        // ORDERING: no session is active; these resets publish via the
        // ACTIVE Release below.
        ring.drained
            .store(ring.head.load(Ordering::Relaxed), Ordering::Relaxed);
        dropped_before += ring.dropped.load(Ordering::Relaxed);
    }
    // ORDERING: diagnostic counter read.
    let unregistered_before = UNREGISTERED.load(Ordering::Relaxed);
    // ORDERING: Release publishes the ring resets above to handlers
    // whose Acquire load observes the session as active.
    ACTIVE.store(true, Ordering::Release);
    let armed = set_prof_timer(1_000_000 / SAMPLE_HZ as i64);
    if let Err(e) = armed {
        // ORDERING: tear down the gate before reporting failure.
        ACTIVE.store(false, Ordering::Release);
        return Err(ProfileError::Os(e));
    }
    std::thread::sleep(duration);
    let _ = set_prof_timer(0);
    // ORDERING: Release orders the disarm before handlers re-check.
    ACTIVE.store(false, Ordering::Release);
    // Grace period: a handler that passed the gate just before the
    // disarm finishes within microseconds; 20ms is overkill on purpose.
    std::thread::sleep(Duration::from_millis(20));

    let symbols = SymbolTable::load();
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    let mut samples = 0u64;
    let mut dropped_after = 0u64;
    let mut threads = 0usize;
    for ring in &snapshot {
        let got = drain_ring(ring, &symbols, &mut folded);
        samples += got;
        threads += usize::from(got > 0);
        // ORDERING: monotone statistics counter; the session is already
        // quiescent (timer disarmed, ACTIVE false, grace elapsed).
        dropped_after += ring.dropped.load(Ordering::Relaxed);
    }
    let mut collapsed = String::new();
    for (stack, count) in &folded {
        collapsed.push_str(stack);
        collapsed.push(' ');
        collapsed.push_str(&count.to_string());
        collapsed.push('\n');
    }
    Ok(ProfileReport {
        collapsed,
        samples,
        // ORDERING: monotone statistics counter read after the session
        // quiesced; no other state hangs off it.
        dropped: (dropped_after - dropped_before)
            + (UNREGISTERED.load(Ordering::Relaxed) - unregistered_before),
        threads,
    })
}

/// Drains one ring's records into the folded map; returns the sample
/// count. Runs only after the session deactivated, so the ring is
/// quiescent.
fn drain_ring(ring: &ThreadRing, symbols: &SymbolTable, folded: &mut BTreeMap<String, u64>) -> u64 {
    // ORDERING: Acquire pairs with the handler's Release head store so
    // every published word below head is visible.
    let head = ring.head.load(Ordering::Acquire);
    // ORDERING: drain-side cursor, only this (single-session) reader
    // advances it.
    let mut pos = ring.drained.load(Ordering::Relaxed);
    let cap = ring.buf.len() as u64;
    let mut samples = 0u64;
    while pos < head {
        // ORDERING: record words were published by the Acquire above.
        let len = ring.buf[(pos % cap) as usize].load(Ordering::Relaxed);
        pos += 1;
        if len == 0 || len > MAX_FRAMES as u64 || pos + len > head {
            break; // corrupt record; abandon the rest of the ring
        }
        let mut stack = String::with_capacity(len as usize * 24);
        stack.push_str(&ring.name);
        // Stored leaf-first; collapsed format wants root-first. Return
        // addresses (all but the leaf) point one past their call, so
        // resolve them at pc - 1.
        for i in (0..len).rev() {
            // ORDERING: published by the Acquire above.
            let pc = ring.buf[((pos + i) % cap) as usize].load(Ordering::Relaxed) as usize;
            let resolved = symbols.resolve(if i == 0 { pc } else { pc.saturating_sub(1) });
            stack.push(';');
            match resolved {
                Some(name) => stack.push_str(name),
                None => {
                    stack.push_str("0x");
                    stack.push_str(&format!("{pc:x}"));
                }
            }
        }
        pos += len;
        samples += 1;
        *folded.entry(stack).or_insert(0) += 1;
    }
    // ORDERING: single-reader cursor update.
    ring.drained.store(pos, Ordering::Relaxed);
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spin on the CPU so ITIMER_PROF actually fires.
    fn burn(ms: u64) -> u64 {
        let start = std::time::Instant::now();
        let mut acc = 0u64;
        while start.elapsed() < Duration::from_millis(ms) {
            for i in 0..10_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
        }
        acc
    }

    /// The session gate (`ACTIVE`) and the thread registry are
    /// process-global: each test here holds this lock, or a neighbour's
    /// session turns its own into `Busy` and a neighbour's registration
    /// moves the registry count under it.
    static SESSION: Mutex<()> = Mutex::new(());

    #[test]
    fn profile_captures_stacks_from_registered_threads() {
        let _session = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        let worker = std::thread::Builder::new()
            .name("flight-test-worker".to_string())
            .spawn(|| {
                register_current_thread();
                burn(1200)
            })
            .expect("spawn worker");
        std::thread::sleep(Duration::from_millis(50));
        let report = profile(Duration::from_millis(600)).expect("profile runs");
        let _ = worker.join();
        assert!(report.samples > 0, "no samples captured");
        assert!(
            report.collapsed.contains("flight-test-worker;"),
            "collapsed output missing the worker thread:\n{}",
            report.collapsed
        );
        for line in report.collapsed.lines() {
            let (_, count) = line.rsplit_once(' ').expect("line has a count");
            count.parse::<u64>().expect("count is numeric");
        }
    }

    #[test]
    fn concurrent_sessions_are_refused() {
        let _session = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        register_current_thread();
        let bg = std::thread::spawn(|| profile(Duration::from_millis(700)));
        std::thread::sleep(Duration::from_millis(150));
        let second = profile(Duration::from_millis(10));
        assert!(
            matches!(second, Err(ProfileError::Busy)),
            "overlapping session was not refused"
        );
        let first = bg.join().expect("bg join");
        assert!(first.is_ok(), "first session failed: {:?}", first.err());
    }

    #[test]
    fn register_is_idempotent() {
        let _session = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        let before = rings().lock().unwrap_or_else(PoisonError::into_inner).len();
        register_current_thread();
        register_current_thread();
        let after = rings().lock().unwrap_or_else(PoisonError::into_inner).len();
        assert!(after <= before + 1, "double registration grew the list");
    }
}
