//! Wall-clock reads and waits for the benchmark: the one module that
//! touches `Instant::now` and `thread::sleep` (bench code is their
//! sanctioned home under `cfs-lint`; `clippy.toml` still asks for the
//! allow below).

use std::time::{Duration, Instant};

/// The current instant.
#[allow(clippy::disallowed_methods)] // bench timing is the sanctioned wall-clock use
pub fn now() -> Instant {
    Instant::now()
}

/// Nanoseconds elapsed since `origin`.
pub fn since_ns(origin: Instant) -> u64 {
    u64::try_from(now().duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds elapsed since `origin`.
pub fn since_s(origin: Instant) -> f64 {
    now().duration_since(origin).as_secs_f64()
}

/// How early a timed wait stops sleeping and starts spinning: the
/// kernel's default timer slack plus wake-up latency.
const SPIN_NS: u64 = 150_000;

/// Waits until `origin + at_ns` (sleeping, then spinning the last
/// [`SPIN_NS`]); returns immediately when that time has passed.
pub fn sleep_until(origin: Instant, at_ns: u64) {
    let target = origin + Duration::from_nanos(at_ns);
    let spin_from = target - Duration::from_nanos(SPIN_NS);
    let t = now();
    if spin_from > t {
        std::thread::sleep(spin_from - t);
    }
    while now() < target {
        std::hint::spin_loop();
    }
}

/// Sleeps for `d`.
pub fn pause(d: Duration) {
    std::thread::sleep(d);
}
