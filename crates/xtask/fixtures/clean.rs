// Negative-control fixture: exercises every rule's *annotated* form and
// known look-alikes; the lint must report zero findings here. Never
// compiled.
#![forbid(unsafe_code)] // the `unsafe_code` token is not the `unsafe` keyword

// SAFETY: the handler only calls async-signal-safe functions and the
// registration happens before any thread is spawned.
pub fn install() {
    unsafe { register() };
}

// ORDERING: monotone statistics counter; readers tolerate staleness and
// no other memory depends on its value.
pub fn bump(counter: &std::sync::atomic::AtomicU64) {
    counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

pub fn strict(flag: &std::sync::atomic::AtomicBool) {
    // SeqCst needs no annotation: it is the conservative default.
    flag.store(true, std::sync::atomic::Ordering::SeqCst);
}

// ASYNC-SIGNAL-SAFE: one store to a static atomic; no allocation,
// locking or formatting.
extern "C" fn on_signal(_signum: i32) {
    SEEN.store(true, std::sync::atomic::Ordering::SeqCst);
}

extern "C" {
    // A foreign declaration taking a function-pointer type: neither is a
    // handler definition.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

pub fn masks() {
    // Contiguous masks, in every radix the workspace uses.
    let _ = WayMask::new(0x3);
    let _ = WayMask::new(0xfff);
    let _ = WayMask::new(0b1110);
    let _ = WayMask::new(dynamic_bits()); // non-literal: out of scope
}

pub const GOOD_MASK: u32 = 0xfffff;

pub fn prose() {
    // Strings and comments may mention unsafe, .unwrap() and
    // Ordering::Relaxed freely — prose is not code.
    let _ = "unsafe { Ordering::Relaxed.unwrap() }";
    let _ = r#"thread::sleep in a raw string, with a stray " quote"#;
}

#[cfg(test)]
mod tests {
    // Test regions are exempt from every rule.
    #[test]
    fn tests_may_unwrap_and_sleep() {
        let v: Option<u32> = Some(1);
        v.unwrap();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let _ = x.load(std::sync::atomic::Ordering::Relaxed);
    }
}

fn register() {}
fn dynamic_bits() -> u32 {
    0x3
}
