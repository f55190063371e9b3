//! `EnabledGuard` nesting: collection stays on while any guard is live,
//! whatever order the guards drop in. A test binary of its own, so no
//! other test flips the global flag meanwhile.

use bigfoot_obs::{enabled, set_enabled, EnabledGuard};

#[test]
fn overlapping_guards_dropped_out_of_order() {
    assert!(!enabled(), "collection starts off");
    let first = EnabledGuard::new();
    let second = EnabledGuard::new();
    drop(first);
    assert!(enabled(), "the second guard is still live");
    drop(second);
    assert!(!enabled(), "the last guard out restores the old state");

    // Across threads, with collection already on before the first guard.
    set_enabled(true);
    let outer = EnabledGuard::new();
    let inner = std::thread::spawn(EnabledGuard::new).join().unwrap();
    drop(outer);
    assert!(enabled());
    drop(inner);
    assert!(
        enabled(),
        "restored to on, the state before the first guard"
    );
    set_enabled(false);
}
