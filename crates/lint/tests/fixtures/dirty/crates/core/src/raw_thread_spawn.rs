// Fixture: `raw-thread-spawn` must fire — fan-out goes through the
// scoped worker pool so merges stay in submission order.
pub fn fan_out(xs: Vec<u32>) -> Vec<std::thread::JoinHandle<u32>> {
    xs.into_iter()
        .map(|x| std::thread::spawn(move || x * 2))
        .collect()
}

// A hand-rolled scope fires too: `thread::scope` lives in par.rs only.
pub fn scoped(xs: &[u32]) {
    std::thread::scope(|s| drop(s.spawn(|| xs.len())));
}
