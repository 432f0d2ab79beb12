//! The deterministic worker pool every parallel engine shares.
//!
//! Branch-and-count, orbit counting, Monte-Carlo chunks and batch
//! answering all split their work into `n` independent, indexed units
//! whose results must not depend on the thread count. This module is the
//! one place that decision lives: scoped threads claim indices off an
//! atomic counter, and the results come back **in index order** no
//! matter which worker computed what. A caller that folds the returned
//! results front to back therefore sums (even floats) in a fixed order,
//! so its outcome is bit-identical at any parallelism.
//!
//! With one thread after clamping to `n`, every map runs inline on the
//! caller and spawns nothing.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Resolves a requested worker count: `0` means one thread per core,
/// anything else is taken as given.
pub fn threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        t => t,
    }
}

/// Computes `f(0), …, f(n - 1)` on up to `threads` workers (0 = one per
/// core) and returns the results in index order.
pub fn map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    run(n, threads, || (), |_, i| f(i), |_| false)
}

/// Like [`map`] for fallible units: returns every result in index order,
/// or the error of the **lowest** failing index.
///
/// Workers stop claiming new indices after the first failure. Indices are
/// claimed in increasing order, so every index below any failure has
/// already run: the lowest-index error is the one a sequential loop
/// would have stopped at, at any thread count.
pub fn try_map<T: Send, E: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    try_map_with(n, threads, || (), |_, i| f(i))
}

/// Like [`try_map`], with state each worker keeps across the indices it
/// claims: a worker builds one `S` with `init` before its first index and
/// hands it to `f` for every index it runs. Which indices share a state
/// depends on the thread count, so `f` must leave no trace in its result
/// of the state's history (reset it per index).
pub fn try_map_with<S, T: Send, E: Send>(
    n: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    run(n, threads, init, f, Result::is_err)
        .into_iter()
        .collect()
}

/// Runs a prefix `0..m` of the indices (all `n` unless `stop` fires) and
/// returns its results in index order. Once any result satisfies `stop`,
/// no further index is claimed. Each worker builds its state on its
/// first claimed index.
fn run<S, T: Send>(
    n: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
    stop: impl Fn(&T) -> bool + Sync,
) -> Vec<T> {
    let threads = self::threads(threads).min(n).max(1);
    if threads == 1 {
        let mut out = Vec::with_capacity(n);
        let mut state = None;
        for i in 0..n {
            let r = f(state.get_or_insert_with(&init), i);
            let stopped = stop(&r);
            out.push(r);
            if stopped {
                break;
            }
        }
        return out;
    }
    // Both atomics publish no data (results travel through `join`):
    // `next` only hands out unique indices and `stopped` is a hint.
    let next = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);
    let mut out: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut shard = Vec::new();
                    let mut state = None;
                    while !stopped.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = f(state.get_or_insert_with(&init), i);
                        if stop(&r) {
                            stopped.store(true, Ordering::Relaxed);
                        }
                        shard.push((i, r));
                    }
                    shard
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
        for threads in [1usize, 2, 4, 0] {
            assert_eq!(map(100, threads, |i| i * i), expected, "{threads} threads");
            assert_eq!(
                try_map(100, threads, |i| Ok::<_, ()>(i * i)),
                Ok(expected.clone()),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn the_lowest_index_error_wins() {
        let fails = |i: usize| if i % 7 == 3 { Err(i) } else { Ok(i) };
        for threads in [1usize, 2, 4, 0] {
            assert_eq!(try_map(50, threads, fails), Err(3), "{threads} threads");
        }
        // Force a higher index to fail first: index 3 waits until index
        // 10 has failed. Any other worker can reach 10, so with two or
        // more threads this never deadlocks.
        for threads in [2usize, 4] {
            let late_failed = AtomicBool::new(false);
            let r = try_map(50, threads, |i| {
                if i == 3 {
                    while !late_failed.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
                let r = fails(i);
                if i == 10 {
                    late_failed.store(true, Ordering::SeqCst);
                }
                r
            });
            assert_eq!(r, Err(3), "{threads} threads");
        }
    }

    #[test]
    fn each_worker_builds_its_state_once() {
        for threads in [1usize, 2, 3] {
            let built = AtomicUsize::new(0);
            let r = try_map_with(
                40,
                threads,
                || {
                    built.fetch_add(1, Ordering::SeqCst);
                    Vec::new()
                },
                |seen: &mut Vec<usize>, i| {
                    seen.push(i);
                    // A worker claims indices in increasing order.
                    assert!(seen.windows(2).all(|w| w[0] < w[1]));
                    if i == 33 {
                        Err(i)
                    } else {
                        Ok(i * 2)
                    }
                },
            );
            assert_eq!(r, Err(33), "{threads} threads");
            assert!((1..=threads).contains(&built.load(Ordering::SeqCst)));
            let ok = try_map_with(5, threads, || 0u32, |_, i| Ok::<_, ()>(i));
            assert_eq!(ok, Ok(vec![0, 1, 2, 3, 4]));
        }
        let never = AtomicUsize::new(0);
        let empty = try_map_with(
            0,
            2,
            || never.fetch_add(1, Ordering::SeqCst),
            |_, i| Ok::<_, ()>(i),
        );
        assert_eq!(empty, Ok(Vec::new()));
        assert_eq!(never.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn empty_and_oversubscribed_pools() {
        for threads in [1usize, 2, 4, 0] {
            assert!(map(0, threads, |i| i).is_empty());
            assert_eq!(try_map(0, threads, Ok::<_, ()>), Ok(Vec::new()));
        }
        assert_eq!(map(3, 16, |i| i + 1), vec![1, 2, 3]);
        assert_eq!(
            try_map(3, 16, |i| if i == 2 { Err(i) } else { Ok(i) }),
            Err(2)
        );
    }

    #[test]
    fn zero_requests_one_thread_per_core() {
        assert!(threads(0) >= 1);
        assert_eq!(threads(3), 3);
    }
}
