//! The item-list executor: [`bnf_stream::scheduler`] workers steal
//! index chunks of an explicit item list, and each result lands at its
//! item's index.

use bnf_stream::scheduler;

/// Applies `f` to every item on `threads` workers, handing each worker a
/// private scratch value built once by `init`, and preserving input
/// order in the output.
///
/// # Panics
///
/// Propagates panics from `init` and `f`.
pub(crate) fn parallel_map_with<T, R, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&T, &mut S) -> R + Sync,
{
    let chunk = scheduler::chunk_len(items.len(), threads);
    let mut chunks: Vec<Vec<R>> = Vec::new();
    chunks.resize_with(items.len().div_ceil(chunk), Vec::new);
    scheduler::run(
        threads,
        chunks.len(),
        init,
        |scratch, unit| {
            let chunk_items = items[unit * chunk..].iter().take(chunk);
            (unit, chunk_items.map(|t| f(t, scratch)).collect())
        },
        |(unit, out)| chunks[unit] = out,
    );
    chunks.into_iter().flatten().collect()
}

/// Applies `f` to every item on `threads` worker threads, preserving
/// input order in the output — the scratch-free form of
/// [`crate::AnalysisEngine::map`].
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(items, threads, || (), |t, ()| f(t))
}

/// A reasonable default worker count for this machine.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let items = vec![1, 2, 3];
        assert_eq!(parallel_map(&items, 1, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u8> = Vec::new();
        assert!(parallel_map(&items, 4, |&x| x).is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let items = vec![5u32];
        assert_eq!(parallel_map(&items, 64, |&x| x * x), vec![25]);
    }

    #[test]
    fn scratch_is_per_worker_and_reused() {
        // Each worker's scratch counts the items it processed; the inits
        // must not exceed the worker count and the counts must cover all
        // items exactly once.
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..500).collect();
        let counts = parallel_map_with(
            &items,
            4,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |&i, seen| {
                *seen += 1;
                (i, *seen)
            },
        );
        assert!(inits.load(Ordering::SeqCst) <= 4);
        assert_eq!(counts.len(), 500);
        // Some worker must have classified more than one item, i.e. the
        // scratch really is reused across items rather than rebuilt.
        assert!(counts.iter().any(|&(_, seen)| seen > 1));
        for (k, &(i, _)) in counts.iter().enumerate() {
            assert_eq!(i, k, "order must match the input");
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..100).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(&items, 4, |&x| {
                assert!(x != 37, "boom");
                x
            })
        });
        assert!(caught.is_err(), "a worker panic must reach the caller");
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still all complete.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, 8, |&x| {
            if x % 16 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }
}
