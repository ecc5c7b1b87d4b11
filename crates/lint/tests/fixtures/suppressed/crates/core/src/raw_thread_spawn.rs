// Fixture: justified suppressions silence `raw-thread-spawn`.
pub fn fan_out(xs: Vec<u32>) -> Vec<std::thread::JoinHandle<u32>> {
    xs.into_iter()
        // cfs-lint: allow(raw-thread-spawn) — results joined in submission order right below
        .map(|x| std::thread::spawn(move || x * 2))
        .collect()
}

pub fn scoped(xs: &[u32]) {
    // cfs-lint: allow(raw-thread-spawn) — fixture: one helper thread, joined before return
    std::thread::scope(|s| drop(s.spawn(|| xs.len())));
}
