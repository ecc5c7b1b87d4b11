// Fixture: justified suppressions silence `determinism-race` (and the
// lexical `unordered-iteration` hit on the same HashSet token).
pub fn stage(chunks: &[&[u32]], shared: &Mutex<Vec<u32>>) {
    // cfs-lint: allow(raw-thread-spawn) — fixture: the spawn-closure shape under test needs a scope
    crossbeam::thread::scope(|scope| {
        for chunk in chunks {
            scope.spawn(move |_| {
                for t in chunk {
                    results.push(work(*t)); // cfs-lint: allow(determinism-race) — fixture: results re-sorted by key before reporting
                }
                total += chunk.len(); // cfs-lint: allow(determinism-race) — fixture: a commutative counter, merge order cannot show
                let guard = shared.lock(); // cfs-lint: allow(determinism-race) — fixture: lock guards an append-only log, drained sorted
                seen = HashSet::new(); // cfs-lint: allow(determinism-race, unordered-iteration) — fixture: membership only, never iterated
            });
        }
    });
}
