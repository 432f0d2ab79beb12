//! The SIGTERM handler, exercised in a test binary of its own: the
//! pending-signal flag is process-global, so a test that sends its own
//! process a real SIGTERM must not share the process with tests that
//! start serving loops, which consume the flag on every tick.

use rw_server::signal::{install, take, SIGTERM};
use std::time::{Duration, Instant};

/// One test owns the process-global handler state: install, send
/// ourselves a real SIGTERM, and observe the flag — the process
/// surviving delivery is what validates the restorer trampoline.
#[test]
fn sigterm_sets_the_flag_and_the_process_survives() {
    install().expect("install handler");
    let _ = take(); // drain any stale state
    let status = std::process::Command::new("kill")
        .args(["-TERM", &std::process::id().to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -TERM failed: {status:?}");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match take() {
            Some(signo) => {
                assert_eq!(signo, SIGTERM);
                break;
            }
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            None => panic!("SIGTERM never observed"),
        }
    }
    // A second take is empty: delivery was consumed exactly once.
    assert_eq!(take(), None);
}
