//! The workspace's one work-stealing loop, [`run`]. Augmentation and
//! classification costs are uneven, so workers steal units until none
//! are left: the frontier build steals parent chunks, the engine's `map`
//! item chunks, and both frontier-partition runners whole parent ranges.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;

/// Raises the run's stop flag if its worker unwinds, so the siblings
/// steal no further units for a run that is already lost.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// The chunk length for stealing `len` items on `threads` workers: big
/// enough to amortize the hand-off, small enough that one expensive
/// tail item cannot strand a whole stripe.
pub fn chunk_len(len: usize, threads: usize) -> usize {
    (len / (threads.max(1) * 8)).clamp(1, 64)
}

/// Computes `work(&mut state, unit)` for every `unit` in `0..units` on
/// up to `threads` scoped workers (never more workers than units), each
/// with its own `state` built once by `init` and taking unit indices off
/// one atomic counter. Every result reaches `sink` on the calling thread
/// in completion order, through a channel of `2 × workers` slots, so a
/// slow sink holds the workers back. Returns how many units each worker
/// computed.
///
/// # Panics
///
/// Propagates a panic from `init`, `work` or `sink` once every worker
/// has left: a panicking worker raises a stop flag so its siblings steal
/// no further units, and a panicking sink drops the receiver, which
/// fails every blocked or later send — never a deadlock.
pub fn run<S, R, I, W, K>(threads: usize, units: usize, init: I, work: W, mut sink: K) -> Vec<u64>
where
    R: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> R + Sync,
    K: FnMut(R),
{
    let workers = threads.max(1).min(units);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (sender, receiver) = sync_channel::<R>(workers * 2);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let sender = sender.clone();
                let (init, work) = (&init, &work);
                let (next, stop) = (&next, &stop);
                scope.spawn(move || {
                    let _stop_on_panic = StopOnPanic(stop);
                    let mut state = init();
                    let mut done = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let unit = next.fetch_add(1, Ordering::Relaxed);
                        if unit >= units {
                            break;
                        }
                        let result = work(&mut state, unit);
                        done += 1;
                        // A failed send means the sink panicked and
                        // dropped the receiver: stop computing for nobody.
                        if sender.send(result).is_err() {
                            break;
                        }
                    }
                    done
                })
            })
            .collect();
        // Only the workers' clones may keep the channel open, so the
        // sink's loop ends when the last worker leaves.
        drop(sender);
        // The loop owns the receiver: if `sink` panics, unwinding drops
        // it before the scope joins, so no worker stays blocked on a
        // full channel.
        receiver.into_iter().for_each(&mut sink);
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    /// Runs `units` units on `threads` workers: how often each unit
    /// reached the sink, and the per-worker unit counts.
    fn visits(threads: usize, units: usize) -> (Vec<u32>, Vec<u64>) {
        let mut seen = vec![0u32; units];
        let per_worker = run(
            threads,
            units,
            || (),
            |(), unit| unit,
            |unit| seen[unit] += 1,
        );
        (seen, per_worker)
    }

    #[test]
    fn every_unit_runs_exactly_once() {
        for (threads, units) in [(4, 0), (4, 1), (8, 3), (3, 1000), (1, 1000)] {
            let (seen, per_worker) = visits(threads, units);
            let label = format!("threads={threads} units={units}");
            assert!(seen.iter().all(|&v| v == 1), "{label}");
            assert_eq!(per_worker.iter().sum::<u64>(), units as u64, "{label}");
        }
    }

    #[test]
    fn never_more_workers_than_units() {
        assert!(visits(4, 0).1.is_empty());
        assert_eq!(visits(8, 3).1.len(), 3);
        assert_eq!(visits(0, 5).1.len(), 1);
        assert_eq!(visits(3, 1000).1.len(), 3);
    }

    #[test]
    fn init_runs_at_most_once_per_worker_and_state_is_reused() {
        let inits = AtomicUsize::new(0);
        let mut max_seen = 0;
        let per_worker = run(
            4,
            500,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |seen, _| {
                *seen += 1;
                *seen
            },
            |seen| max_seen = max_seen.max(seen),
        );
        assert!(inits.load(Ordering::SeqCst) <= 4);
        assert_eq!(inits.load(Ordering::SeqCst), per_worker.len());
        // Some worker computed more than one unit on the same state.
        assert!(max_seen > 1);
    }

    #[test]
    fn work_panic_propagates_without_deadlock() {
        for threads in [1, 4] {
            let caught = catch_unwind(|| {
                run(
                    threads,
                    100,
                    || (),
                    |(), unit| assert!(unit != 37, "boom"),
                    |()| {},
                )
            });
            assert!(caught.is_err(), "a work panic must reach the caller");
        }
    }

    #[test]
    fn sink_panic_propagates_without_deadlock() {
        // More units than channel slots, so workers block on a full
        // channel when the sink dies.
        for threads in [1, 4] {
            let caught = catch_unwind(|| {
                run(
                    threads,
                    1000,
                    || (),
                    |(), unit| unit,
                    |unit| assert!(unit < 3, "sink boom"),
                )
            });
            assert!(caught.is_err(), "a sink panic must reach the caller");
        }
    }

    #[test]
    fn init_panic_propagates() {
        let caught = catch_unwind(|| {
            run(2, 10, || panic!("init boom"), |(): &mut (), _| (), |()| {});
        });
        assert!(caught.is_err(), "an init panic must reach the caller");
    }

    #[test]
    fn chunk_len_stays_in_bounds() {
        assert_eq!(chunk_len(0, 4), 1);
        assert_eq!(chunk_len(10, 0), 1);
        assert_eq!(chunk_len(1000, 2), 62);
        assert_eq!(chunk_len(1_000_000, 2), 64);
    }
}
