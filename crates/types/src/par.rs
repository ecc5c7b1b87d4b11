//! Ordered fan-out: the workspace's one scoped-thread helper.
//!
//! Every parallel stage — observation extraction, remote-peering
//! verdicts, follow-up probing, MIDAR estimation, targeted campaigns and
//! the Figure 8 trials — maps a slice in contiguous chunks on scoped
//! worker threads and concatenates the chunk results in chunk order. As
//! long as the per-chunk function is pure, the output is the serial one
//! at any worker count (DESIGN.md §5). `cfs-lint` keeps `thread::scope`
//! in this file only (`raw-thread-spawn`) and checks every closure
//! handed to [`map_chunks`] for captured mutation (`determinism-race`).

use std::panic::resume_unwind;

/// Resolves a requested worker count: `0` means the machine's available
/// parallelism (1 when it cannot be determined); the result is clamped
/// to `1..=16`.
pub fn worker_count(requested: usize) -> usize {
    let n = match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    n.clamp(1, 16)
}

/// Maps `items` through `f` chunk by chunk and concatenates the results
/// in chunk order.
///
/// `f(offset, chunk)` gets a contiguous run of `items` and the index of
/// its first element, so a chunk can reproduce per-item schedules keyed
/// on the global position. With `workers <= 1`, or fewer than `min_len`
/// items (or none), `f(0, items)` runs once on the calling thread.
/// Otherwise each of up to `workers` scoped threads takes
/// `items.len().div_ceil(workers)` items. A panicking worker's panic is
/// re-raised on the calling thread.
pub fn map_chunks<T, R, F>(items: &[T], workers: usize, min_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    if workers <= 1 || items.len() < min_len.max(1) {
        return f(0, items);
    }
    let chunk_size = items.len().div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .enumerate()
            .map(|(c, chunk)| scope.spawn(move || f(c * chunk_size, chunk)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIN_LEN: usize = 8;

    #[test]
    fn chunked_output_is_the_serial_output() {
        // `tag(0, items)` is `[(i, items[i])]`, so equality also proves
        // every item is seen exactly once, at `offset + i`.
        let tag = |offset: usize, chunk: &[u32]| -> Vec<(usize, u32)> {
            (offset..).zip(chunk.iter().copied()).collect()
        };
        for len in [0, 1, MIN_LEN - 1, MIN_LEN, MIN_LEN + 1, 1000] {
            let items: Vec<u32> = (0..len as u32)
                .map(|x| x.wrapping_mul(2_654_435_761))
                .collect();
            for workers in [1, 2, 3, 8, 16] {
                let got = map_chunks(&items, workers, MIN_LEN, tag);
                assert_eq!(got, tag(0, &items), "workers={workers} len={len}");
                let calls = map_chunks(&items, workers, MIN_LEN, |o, c| vec![(o, c.len())]);
                if workers == 1 || len < MIN_LEN {
                    assert_eq!(
                        calls,
                        [(0, len)],
                        "one serial call: workers={workers} len={len}"
                    );
                } else {
                    assert_eq!(calls.len(), len.div_ceil(len.div_ceil(workers)));
                }
            }
        }
    }

    #[test]
    fn a_worker_panic_propagates() {
        let items: Vec<u32> = (0..100).collect();
        let caught = std::panic::catch_unwind(|| {
            map_chunks(&items, 4, MIN_LEN, |offset, chunk| {
                assert!(offset < 50, "worker at offset {offset} fails");
                chunk.to_vec()
            })
        });
        let payload = caught.expect_err("the worker's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("fails"), "payload: {message:?}");
    }

    #[test]
    fn worker_count_resolves_auto_and_clamps() {
        assert!((1..=16).contains(&worker_count(0)));
        assert_eq!([1, 3, 16].map(worker_count), [1, 3, 16]);
        assert_eq!(worker_count(1000), 16);
    }
}
