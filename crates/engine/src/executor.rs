//! The work-stealing executor: scoped std threads pulling index chunks
//! off a shared atomic counter.
//!
//! Classification workloads are embarrassingly parallel but uneven (a
//! dense graph's UCG orientation solve costs orders of magnitude more
//! than a tree's window scan), so static partitioning stalls; dynamic
//! chunk stealing keeps every worker busy until the items run out.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item on `threads` workers, handing each worker a
/// private scratch value built once by `init`, and preserving input
/// order in the output.
///
/// # Panics
///
/// Propagates panics from `f` (the scope join resumes the unwind).
pub(crate) fn parallel_map_with<T, R, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&T, &mut S) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        let mut scratch = init();
        return items.iter().map(|t| f(t, &mut scratch)).collect();
    }
    // Chunked stealing: big enough to amortize the atomic + lock, small
    // enough that one expensive tail item cannot strand a whole stripe.
    let chunk = (items.len() / (threads * 8)).clamp(1, 64);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = init();
                let mut local: Vec<(usize, R)> = Vec::with_capacity(chunk);
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let end = (start + chunk).min(items.len());
                    local.extend((start..end).map(|i| (i, f(&items[i], &mut scratch))));
                    results
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .append(&mut local);
                }
            });
        }
    });
    let mut pairs = results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    pairs.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(pairs.len(), items.len());
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Applies `f` to every item on `threads` worker threads, preserving
/// input order in the output — the scratch-free form of the chunked
/// stealing scheduler behind [`crate::AnalysisEngine::map`].
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
