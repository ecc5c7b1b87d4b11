// Fixture: `determinism-race` must fire once — the closure handed to the
// ordered fan-out helper runs on worker threads and pushes to a capture.
pub fn stage(items: &[u32], workers: usize) -> Vec<u32> {
    par::map_chunks(items, workers, 64, |offset, chunk| {
        for t in chunk {
            results.push(work(offset, *t));
        }
        chunk.to_vec()
    })
}
