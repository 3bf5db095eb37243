// Seeded `signal-safe` violations: every `extern "C" fn` definition in
// the workspace is held to async-signal-safety; this file sits beside
// the server's seeded violations because the server owns the one real
// handler (SIGINT). Never compiled.

// Violation: the handler carries no async-signal-safety annotation.
extern "C" fn on_signal_unannotated(sig: i32) {
    record(sig);
}

// ASYNC-SIGNAL-SAFE: it is not — the body allocates and locks, and the
// lint must catch each token.
extern "C" fn on_signal_allocating(sig: i32) {
    // Violation: format! allocates.
    let msg = format!("caught {sig}");
    // Violation: .lock( can deadlock against the interrupted thread.
    let guard = SAMPLES.lock();
    // Violation: .unwrap() can panic in signal context.
    guard.push(msg).unwrap();
}

fn after_the_handler_normal_code_is_fine() {
    // Same tokens outside a handler body are out of the rule's scope.
    let ok = format!("not a signal context");
    drop(ok);
}
