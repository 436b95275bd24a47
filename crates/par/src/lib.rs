//! Deterministic fork-join data parallelism on std threads.
//!
//! A tiny, dependency-free substitute for rayon's ordered `par_iter`:
//! [`par_map`] splits a work list into contiguous chunks, runs the chunks
//! on scoped threads, and concatenates the per-chunk results in input
//! order. The output is therefore **identical to the sequential `map`**
//! regardless of the thread count — every item is processed exactly once,
//! by a pure-per-item closure, and result order never depends on thread
//! scheduling.
//!
//! The worker-thread limit is a process-wide runtime setting: the
//! [`set_max_threads`] override if one is in force, else the
//! `ERPD_THREADS` environment variable (read once), else the machine's
//! available parallelism. Differential tests pin it to 1 and N and assert
//! bit-identical pipeline outputs; benchmarks sweep it without rebuilding.
//!
//! The limit is not the whole rule. No worker is spawned for fewer than
//! two items — a batch of `n` items runs on `limit.min(n / 2).max(1)`
//! workers — so a batch of up to three items is the plain sequential
//! `map` on the calling thread: creating a thread costs more than the
//! items it would carry on a two-upload frame.
//!
//! [`join`] is the other primitive: two unlike pieces of one frame side by
//! side, the second on one scoped worker. It decides from the work the
//! caller estimates, in points, against the one constant
//! [`FAN_OUT_POINTS`]; below it both run on the calling thread.
//!
//! # Examples
//!
//! ```
//! let squares = erpd_par::par_map(vec![1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// `0` means "use the default"; any other value is an explicit override.
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("ERPD_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// The number of worker threads [`par_map`] may use.
///
/// Defaults to `ERPD_THREADS` when set to a positive integer, otherwise to
/// the machine's available parallelism.
pub fn max_threads() -> usize {
    match MAX_THREADS.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Overrides the worker-thread count process-wide.
///
/// `1` forces sequential execution inside [`par_map`]; `0` restores the
/// default (see [`max_threads`]).
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// Work, in points, from which [`join`] runs its second closure on a
/// worker: 131 072, some 30 times the break-even of a scoped spawn and
/// join.
///
/// A scoped spawn plus join measured 15–28 µs on 2-vCPU boxes, and the
/// edge merges or decodes a point in 5–7 ns, so a worker breaks even near
/// 4 000 points. The margin keeps every frame of the small workloads on
/// the calling thread — the largest seen merges 63.5 k points on
/// `intersection`, 62.6 k on one `multi_edge` edge and 10.2 k on a daemon
/// round trip — while a 128-vehicle `fleet_wire` frame merges 100–430 k.
pub const FAN_OUT_POINTS: usize = 1 << 17;

/// Runs `a` and `b` and returns both results: `b` on one scoped worker
/// while the caller runs `a`, when [`max_threads`] is above 1 and `work`
/// (the caller's estimate, in points) reaches [`FAN_OUT_POINTS`];
/// otherwise `a` then `b` on the calling thread, with no thread spawned.
///
/// The results do not depend on which path ran, as long as `a` and `b`
/// share no mutable state — which the borrow checker enforces. A panic in
/// either closure propagates to the caller (after the worker has been
/// joined).
pub fn join<A, B, RA, RB>(work: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    if work < FAN_OUT_POINTS || max_threads() <= 1 {
        let ra = a();
        return (ra, b());
    }
    std::thread::scope(|scope| {
        let worker = scope.spawn(b);
        let ra = a();
        match worker.join() {
            Ok(rb) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// Maps `f` over `items` on up to [`max_threads`] scoped threads,
/// returning results in input order.
///
/// Items are dealt out as contiguous chunks of at least two (within one
/// item of equal size; see the module docs for the worker count), so
/// `par_map(v, f)` is observably identical to
/// `v.into_iter().map(f).collect()` whenever `f` is deterministic per
/// item. A panic in `f` propagates to the caller.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    // A unit scratch: `Vec<()>` never allocates.
    par_map_reuse(items, &mut Vec::<()>::new(), |_, t| f(t))
}

/// Like [`par_map`], but each worker thread loans one slot of `states` as
/// reusable scratch for its whole contiguous chunk.
///
/// The pool is grown (with `S::default()`) to the workers this call uses
/// — `max_threads().min(items.len() / 2).max(1)` — never shrunk, and
/// handed back intact, so a caller that keeps `states` alive across calls
/// gives every worker warm, already-grown scratch buffers — the point of
/// the whole exercise for per-item pipelines whose scratch (grids, label
/// arrays, staging clouds) dwarfs the items themselves.
///
/// `f` must be deterministic per item *regardless of the scratch state it
/// is handed* (the scratch contract: state is overwritten before it is
/// read). Under that contract the output is identical to the sequential
/// `map` at every thread count, exactly as for [`par_map`].
pub fn par_map_reuse<T, R, S, F>(items: Vec<T>, states: &mut Vec<S>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    S: Send + Default,
    F: Fn(&mut S, T) -> R + Sync,
{
    // The grain: a worker carries at least two items, or is not spawned.
    let threads = max_threads().min(items.len() / 2).max(1);
    if states.len() < threads {
        states.resize_with(threads, S::default);
    }
    if threads <= 1 {
        let state = &mut states[0];
        return items.into_iter().map(|t| f(state, t)).collect();
    }

    let n = items.len();
    let base = n / threads;
    let extra = n % threads;
    let mut rest = items;
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    for i in 0..threads {
        let take = base + usize::from(i < extra);
        let tail = rest.split_off(take);
        chunks.push(std::mem::replace(&mut rest, tail));
    }

    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .zip(states.iter_mut())
            .map(|(chunk, state)| {
                scope.spawn(move || chunk.into_iter().map(|t| f(state, t)).collect::<Vec<R>>())
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialises tests that touch the process-wide thread-count override.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn preserves_input_order() {
        let input: Vec<usize> = (0..1000).collect();
        let out = par_map(input.clone(), |x| x * 2);
        assert_eq!(out, input.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn identical_at_every_thread_count() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        let input: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = input.iter().map(|x| x.wrapping_mul(0x9E3779B9)).collect();
        for threads in [1, 2, 3, 8, 64] {
            set_max_threads(threads);
            let got = par_map(input.clone(), |x| x.wrapping_mul(0x9E3779B9));
            assert_eq!(got, expected, "threads = {threads}");
        }
        set_max_threads(0);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn mutable_items_flow_through() {
        // The per-vehicle pipeline hands each worker exclusive &mut state.
        let mut states = vec![0u64; 16];
        let refs: Vec<(&mut u64, u64)> = states.iter_mut().zip(0..).collect();
        let out = par_map(refs, |(s, i)| {
            *s = i * i;
            *s
        });
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<u64>>());
        assert_eq!(states, (0..16).map(|i| i * i).collect::<Vec<u64>>());
    }

    #[test]
    fn more_threads_than_items() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_max_threads(32);
        let out = par_map(vec![1, 2, 3], |x| x);
        assert_eq!(out, vec![1, 2, 3]);
        set_max_threads(0);
    }

    #[test]
    fn reuse_matches_sequential_at_every_thread_count() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        let input: Vec<u64> = (0..131).collect();
        let expected: Vec<u64> = input.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 5, 64] {
            set_max_threads(threads);
            // Deliberately dirty scratch: a correct per-item closure must
            // overwrite it before reading.
            let mut pool: Vec<Vec<u64>> = vec![vec![99; 8]; 2];
            let got = par_map_reuse(input.clone(), &mut pool, |scratch, x| {
                scratch.clear();
                scratch.push(x * 3);
                scratch[0] + 1
            });
            assert_eq!(got, expected, "threads = {threads}");
            assert!(pool.len() >= threads.min(input.len()).min(64) || !pool.is_empty());
        }
        set_max_threads(0);
    }

    #[test]
    fn reuse_grows_and_keeps_the_pool() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_max_threads(4);
        let mut pool: Vec<Vec<u8>> = Vec::new();
        let out = par_map_reuse((0..16u8).collect(), &mut pool, |s, x| {
            s.push(x);
            x
        });
        assert_eq!(out, (0..16).collect::<Vec<u8>>());
        assert_eq!(pool.len(), 4, "one slot per worker");
        let total: usize = pool.iter().map(Vec::len).sum();
        assert_eq!(total, 16, "pool slots persist after the call");
        // Empty input still works and never shrinks the pool.
        let out = par_map_reuse(Vec::<u8>::new(), &mut pool, |_, x| x);
        assert!(out.is_empty());
        assert_eq!(pool.len(), 4);
        set_max_threads(0);
    }

    #[test]
    fn grain_boundary_worker_count_and_output() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        for threads in 1..=8usize {
            set_max_threads(threads);
            for len in 0..=9usize {
                let input: Vec<usize> = (0..len).collect();
                let expected: Vec<usize> = input.iter().map(|x| x * 7 + 1).collect();
                let mut pool: Vec<u32> = Vec::new();
                let got = par_map_reuse(input, &mut pool, |calls, x| {
                    *calls += 1;
                    x * 7 + 1
                });
                assert_eq!(got, expected, "threads = {threads}, len = {len}");
                // The pool starts empty, so its length is the workers used.
                let workers = threads.min(len / 2).max(1);
                assert_eq!(pool.len(), workers, "threads = {threads}, len = {len}");
                assert_eq!(pool.iter().sum::<u32>() as usize, len);
                if workers > 1 {
                    assert!(pool.iter().all(|&calls| calls >= 2), "{pool:?}");
                }
            }
        }
        set_max_threads(0);
    }

    #[test]
    fn panic_in_any_chunk_propagates() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        for threads in 1..=8usize {
            set_max_threads(threads);
            for len in 1..=9usize {
                for bad in 0..len {
                    let caught = std::panic::catch_unwind(|| {
                        par_map((0..len).collect(), |x| {
                            if x == bad {
                                // `resume_unwind` skips the panic hook: 360
                                // expected panics print nothing.
                                std::panic::resume_unwind(Box::new(x));
                            }
                            x
                        })
                    });
                    let payload = caught.expect_err("the panic must reach the caller");
                    assert_eq!(payload.downcast_ref::<usize>(), Some(&bad));
                }
            }
        }
        set_max_threads(0);
    }

    /// The thread each closure of one [`join`] ran on.
    fn join_threads(work: usize) -> (std::thread::ThreadId, std::thread::ThreadId) {
        join(
            work,
            || std::thread::current().id(),
            || std::thread::current().id(),
        )
    }

    #[test]
    fn join_returns_both_results_at_both_sides_of_the_constant() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        let caller = std::thread::current().id();
        for threads in [1, 2, 4] {
            set_max_threads(threads);
            for work in [0, 1, FAN_OUT_POINTS - 1, FAN_OUT_POINTS, usize::MAX] {
                let data: Vec<u64> = (0..1000).collect();
                let (sum, max) = join(
                    work,
                    || data.iter().sum::<u64>(),
                    || data.iter().copied().max(),
                );
                assert_eq!((sum, max), (499_500, Some(999)), "threads {threads}, work {work}");
                let (a, b) = join_threads(work);
                assert_eq!(a, caller, "`a` always runs on the caller");
                let beside = threads > 1 && work >= FAN_OUT_POINTS;
                assert_eq!(b != caller, beside, "threads {threads}, work {work}");
            }
        }
        set_max_threads(0);
    }

    #[test]
    fn join_stays_on_the_caller_at_one_thread() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_max_threads(1);
        let caller = std::thread::current().id();
        assert_eq!(join_threads(usize::MAX), (caller, caller));
        // Sequential order: `a` first, then `b`.
        let order = Mutex::new(Vec::new());
        join(usize::MAX, || order.lock().unwrap().push('a'), || order.lock().unwrap().push('b'));
        assert_eq!(order.into_inner().unwrap(), ['a', 'b']);
        set_max_threads(0);
    }

    #[test]
    fn join_propagates_a_panic_in_either_closure() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        for threads in [1, 2] {
            set_max_threads(threads);
            for work in [0, FAN_OUT_POINTS] {
                // `resume_unwind` skips the panic hook, as above.
                let in_a = std::panic::catch_unwind(|| {
                    join(work, || std::panic::resume_unwind(Box::new('a')), || 2)
                });
                let payload = in_a.expect_err("a panic in `a` must reach the caller");
                assert_eq!(payload.downcast_ref::<char>(), Some(&'a'));
                let in_b = std::panic::catch_unwind(|| {
                    join(work, || 1, || std::panic::resume_unwind(Box::new('b')))
                });
                let payload = in_b.expect_err("a panic in `b` must reach the caller");
                assert_eq!(payload.downcast_ref::<char>(), Some(&'b'));
            }
        }
        set_max_threads(0);
    }

    #[test]
    fn override_roundtrip() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_max_threads(3);
        assert_eq!(max_threads(), 3);
        set_max_threads(0);
        assert!(max_threads() >= 1);
    }
}
