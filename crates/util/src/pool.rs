//! The workspace's one bounded worker pool.
//!
//! [`map`] runs a closure over a batch of items on up to `width` scoped
//! threads that pull the next item from a shared queue, and hands the
//! results back in input order. The tracker's host groups, the engine's
//! per-user sweep and the server's connection batches all run on it.

use crate::sync::Mutex;

/// The machine's parallelism (4 when unknown), capped at 8 so a large
/// batch does not open dozens of connections at once.
pub fn machine_width() -> usize {
    std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(8)
}

/// Applies `f` to every item on up to `width` threads and returns the
/// results in input order.
///
/// With `width <= 1` (or at most one item) the items are mapped inline
/// on the caller's thread. Otherwise each worker takes its next item out
/// of the queue and releases the queue's `structure`-class guard before
/// calling `f`, so `f` may take `url`, `user` or `store` locks under the
/// debug rank checker. A panic in `f` propagates to the caller when the
/// thread scope joins its workers.
///
/// # Examples
///
/// ```
/// let squares = aide_util::pool::map(vec![1, 2, 3, 4], 2, |n: u64| n * n);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn map<T, R, F>(items: Vec<T>, width: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let width = width.min(items.len());
    if width <= 1 {
        return items.into_iter().map(f).collect();
    }
    let len = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let done = Mutex::new(Vec::with_capacity(len));
    std::thread::scope(|s| {
        for _ in 0..width {
            s.spawn(|| loop {
                let next = queue.lock().next();
                let Some((i, item)) = next else { break };
                let result = f(item);
                done.lock().push((i, result));
            });
        }
    });
    let mut done = done.into_inner();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::lockrank::URL;

    fn doubled(width: usize) -> Vec<usize> {
        map((0..20).collect(), width, |i: usize| i * 2)
    }

    #[test]
    fn results_come_back_in_input_order() {
        let expected: Vec<usize> = (0..20).map(|i| i * 2).collect();
        assert_eq!(doubled(1), expected, "width 1 (inline)");
        assert_eq!(doubled(2), expected, "width 2");
        assert_eq!(doubled(64), expected, "width above the item count");
        assert!(map(Vec::<u8>::new(), 4, |b| b).is_empty());
    }

    #[test]
    fn width_one_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let ids = map(vec![(); 3], 1, |()| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn worker_panic_reaches_the_caller() {
        let outcome = std::panic::catch_unwind(|| {
            map((0..8).collect(), 3, |i: u32| {
                assert_ne!(i, 5, "worker failure");
                i
            })
        });
        assert!(outcome.is_err());
    }

    #[test]
    fn f_may_take_a_url_lock() {
        // Under the debug rank checker a `url` lock (rank 10) taken while
        // the queue's `structure` guard (rank 30) is held panics as an
        // inversion; the pool must have released it before calling `f`.
        let url_lock = Mutex::with_class(&URL, 0u32);
        let out = map((0..16).collect(), 4, |i: u32| {
            *url_lock.lock() += i;
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
        assert_eq!(url_lock.into_inner(), (0..16).sum::<u32>());
    }
}
