//! Deterministic scoped-thread work splitting.
//!
//! Every parallel construct in the simulator goes through this module:
//! a hand-rolled chunked splitter over [`std::thread::scope`], with no
//! external thread-pool dependency. Work items are split into contiguous
//! index chunks, one per worker, and results always land in input order
//! — so any reduction over the output is byte-identical to a serial run
//! regardless of thread count or scheduling.
//!
//! The worker count comes from, in precedence order:
//! 1. a thread-local override installed by [`with_threads`] (used by the
//!    determinism tests to compare 1-thread and N-thread runs
//!    in-process),
//! 2. the `CELLFI_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Nothing here affects *what* is computed — only who computes it. Code
//! that consumes RNG state must therefore never run under these helpers;
//! the engine keeps all random draws on the caller's thread (per-entity
//! streams) and parallelises only pure math.

use std::cell::Cell;

thread_local! {
    /// Per-thread worker-count override (see [`with_threads`]).
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The worker count parallel helpers will use on this thread.
pub fn configured_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    if let Some(n) = std::env::var("CELLFI_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run `f` with the worker count pinned to `n` on this thread (workers
/// spawned by [`map_indexed`] receive their share of the pinned budget
/// for their own nested splits). Restores the previous setting on exit,
/// including on panic.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// Split `0..n` into at most `threads` contiguous chunks of near-equal
/// size. Returns `(start, end)` pairs covering the range in order.
fn chunk_bounds(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.clamp(1, n.max(1));
    let chunk = n.div_ceil(threads);
    (0..n)
        .step_by(chunk.max(1))
        .map(|start| (start, (start + chunk).min(n)))
        .collect()
}

/// Ordered parallel map over `0..n`: `out[i] = f(i)`, computed on up to
/// [`configured_threads`] workers. `f` must be pure with respect to
/// invocation order — results are identical to `(0..n).map(f).collect()`
/// for any thread count.
pub fn map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = configured_threads();
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(n, || None);
    let bounds = chunk_bounds(n, threads);
    // Workers split the caller's thread budget between them: once the
    // fan-out saturates the budget, nested splits inside each worker
    // stay serial instead of oversubscribing the machine.
    let nested = (threads / bounds.len()).max(1);
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest: &mut [Option<R>] = &mut out;
        let mut start = 0;
        for (lo, hi) in bounds {
            let (slots, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            scope.spawn(move || {
                with_threads(nested, || {
                    for (j, slot) in slots.iter_mut().enumerate() {
                        *slot = Some(f(start + j));
                    }
                })
            });
            start = hi;
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("worker filled every slot"))
        .collect()
}

/// Parallel in-place update of disjoint rows: `f(i, &mut rows[i])` for
/// every row, chunked across workers. Rows smaller than
/// `min_rows_per_thread` per worker stay serial — spawning threads for
/// trivial row work costs more than it saves.
pub fn for_each_row<T, F>(rows: &mut [T], min_rows_per_thread: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = rows.len();
    let threads = configured_threads()
        .min(n / min_rows_per_thread.max(1))
        .max(1);
    if threads <= 1 {
        for (i, row) in rows.iter_mut().enumerate() {
            f(i, row);
        }
        return;
    }
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest = rows;
        let mut start = 0;
        for (lo, hi) in chunk_bounds(n, threads) {
            let (chunk, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            scope.spawn(move || {
                // Row work is a leaf: nested helpers inside `f` must not
                // re-spawn on top of an already-saturated fan-out.
                with_threads(1, || {
                    for (j, row) in chunk.iter_mut().enumerate() {
                        f(start + j, row);
                    }
                })
            });
            start = hi;
        }
    });
}

/// Parallel in-place update of a flat slab split at fixed `chunk_len`
/// boundaries: `f(c, chunk)` receives chunk index `c` and the mutable
/// sub-slice `data[c*chunk_len..(c+1)*chunk_len]`. The fixed-width case
/// of [`for_each_ragged`] (one `chunk_len`-element row per group).
/// `data.len()` must be a multiple of `chunk_len`. Chunks smaller than
/// `min_chunks_per_thread` per worker stay serial.
pub fn for_each_chunk<F>(data: &mut [f64], chunk_len: usize, min_chunks_per_thread: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    assert!(chunk_len > 0, "chunk length must be positive");
    assert_eq!(
        data.len() % chunk_len,
        0,
        "slab length must divide into whole chunks"
    );
    let n = data.len() / chunk_len;
    for_each_ragged(data, chunk_len, n, |c| c + 1, min_chunks_per_thread, f);
}

/// Parallel in-place update of a flat slab of `width`-element rows split
/// into `n_groups` consecutive groups of varying length: group `g` covers
/// rows `end(g - 1)..end(g)` (group 0 starts at row 0), and the last
/// group ends at the end of `data`. `f(g, group)` receives the group
/// index and its rows as one mutable slice. This is the strided analogue
/// of [`for_each_row`] for slab-backed tensors whose semantic rows differ
/// in length (e.g. one UE's gain lanes, one per candidate AP): workers
/// take whole runs of groups, so a group index maps to the same rows for
/// any thread count. Fewer than `min_groups_per_thread` groups per
/// worker stay serial.
pub fn for_each_ragged<E, F>(
    data: &mut [f64],
    width: usize,
    n_groups: usize,
    end: E,
    min_groups_per_thread: usize,
    f: F,
) where
    E: Fn(usize) -> usize + Sync,
    F: Fn(usize, &mut [f64]) + Sync,
{
    let start = |g: usize| if g == 0 { 0 } else { end(g - 1) };
    assert_eq!(
        start(n_groups) * width,
        data.len(),
        "row groups must tile the slab"
    );
    let threads = configured_threads()
        .min(n_groups / min_groups_per_thread.max(1))
        .max(1);
    // Groups `lo..hi` over the span that holds exactly their rows.
    let run = |lo: usize, hi: usize, mut span: &mut [f64]| {
        for g in lo..hi {
            let (group, rest) = std::mem::take(&mut span).split_at_mut((end(g) - start(g)) * width);
            span = rest;
            f(g, group);
        }
    };
    if threads <= 1 {
        run(0, n_groups, data);
        return;
    }
    std::thread::scope(|scope| {
        let run = &run;
        let mut rest = data;
        for (lo, hi) in chunk_bounds(n_groups, threads) {
            let (span, tail) = rest.split_at_mut((start(hi) - start(lo)) * width);
            rest = tail;
            // Row work is a leaf: nested helpers inside `f` must not
            // re-spawn on top of an already-saturated fan-out.
            scope.spawn(move || with_threads(1, || run(lo, hi, span)));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_range_in_order() {
        for n in [0usize, 1, 2, 7, 8, 9, 100] {
            for threads in [1usize, 2, 3, 8, 200] {
                let bounds = chunk_bounds(n, threads);
                let mut next = 0;
                for (lo, hi) in &bounds {
                    assert_eq!(*lo, next, "gap at n={n} threads={threads}");
                    assert!(hi > lo);
                    next = *hi;
                }
                assert_eq!(next, n, "coverage at n={n} threads={threads}");
                assert!(bounds.len() <= threads.max(1));
            }
        }
    }

    #[test]
    fn map_results_are_ordered_for_any_thread_count() {
        let serial: Vec<u64> = (0..97).map(|i| (i as u64) * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 16] {
            let parallel = with_threads(threads, || map_indexed(97, |i| (i as u64) * 3 + 1));
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn for_each_row_touches_every_row_once() {
        for threads in [1, 2, 5] {
            let mut rows = vec![0u32; 53];
            with_threads(threads, || {
                for_each_row(&mut rows, 1, |i, row| *row += i as u32 + 1)
            });
            let expect: Vec<u32> = (0..53).map(|i| i + 1).collect();
            assert_eq!(rows, expect, "threads={threads}");
        }
    }

    #[test]
    fn small_inputs_stay_serial() {
        // min_rows_per_thread larger than the input: must not spawn (we
        // can't observe spawning directly, but the path must still work).
        let mut rows = vec![1i32; 3];
        with_threads(8, || for_each_row(&mut rows, 64, |_, row| *row *= 2));
        assert_eq!(rows, vec![2, 2, 2]);
    }

    #[test]
    fn for_each_chunk_is_thread_count_independent() {
        let chunk_len = 7;
        let n_chunks = 23;
        let mut serial = vec![0.0f64; chunk_len * n_chunks];
        for_each_chunk(&mut serial, chunk_len, usize::MAX, |c, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (c * 100 + k) as f64;
            }
        });
        for threads in [1, 2, 3, 8] {
            let mut par = vec![0.0f64; chunk_len * n_chunks];
            with_threads(threads, || {
                for_each_chunk(&mut par, chunk_len, 1, |c, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = (c * 100 + k) as f64;
                    }
                })
            });
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn for_each_ragged_hands_each_group_its_rows_at_any_thread_count() {
        // Groups of 3, 0, 1, 5, 2, 0 and 4 rows, two elements wide.
        let ends = [3usize, 3, 4, 9, 11, 11, 15];
        let width = 2;
        let mut expect = Vec::new();
        let mut first = 0;
        for (g, &end) in ends.iter().enumerate() {
            expect.extend((0..(end - first) * width).map(|k| (g * 100 + k) as f64));
            first = end;
        }
        let fill = |g: usize, group: &mut [f64]| {
            for (k, v) in group.iter_mut().enumerate() {
                *v = (g * 100 + k) as f64;
            }
        };
        for (threads, min_groups) in [(1, 1), (2, 1), (3, 1), (8, 1), (8, usize::MAX)] {
            let mut data = vec![-1.0; 15 * width];
            with_threads(threads, || {
                for_each_ragged(&mut data, width, ends.len(), |g| ends[g], min_groups, fill)
            });
            assert_eq!(data, expect, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "row groups must tile the slab")]
    fn for_each_ragged_rejects_groups_that_do_not_tile() {
        let mut data = vec![0.0; 10];
        for_each_ragged(&mut data, 2, 2, |g| [2, 4][g], 1, |_, _| {});
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let outer = configured_threads();
        with_threads(3, || {
            assert_eq!(configured_threads(), 3);
            with_threads(2, || assert_eq!(configured_threads(), 2));
            assert_eq!(configured_threads(), 3);
        });
        assert_eq!(configured_threads(), outer);
    }
}
