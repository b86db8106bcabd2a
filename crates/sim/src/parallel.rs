//! Deterministic scoped-thread work splitting.
//!
//! Every parallel construct in the simulator goes through this module:
//! one hand-rolled splitter over [`std::thread::scope`]
//! ([`for_each_ragged_with`]), with no external thread-pool dependency.
//! Work items are split into contiguous runs of groups, one run per
//! worker, and results always land in input order — so any reduction
//! over the output is byte-identical to a serial run regardless of
//! thread count or scheduling. [`for_each_ragged`], [`for_each_chunk`],
//! [`for_each_row`] and [`map_indexed`] are its special cases: no
//! per-worker state, fixed-width groups, one-element groups, and an
//! ordered map over such groups. Workers that need working space (the
//! MAC's rate rows) get one caller-owned state element each, reused
//! across calls, so a steady-state fan-out allocates only its threads.
//!
//! The worker count comes from, in precedence order:
//! 1. a thread-local override installed by [`with_threads`] (used by the
//!    determinism tests to compare 1-thread and N-thread runs
//!    in-process),
//! 2. the `CELLFI_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! The splitters take a minimum number of groups per worker (one for
//! [`map_indexed`]): inputs smaller than two workers' worth run serially
//! on the caller's thread. A caller in this crate whose per-item state
//! spans several arrays cuts it itself: `workers` says how many runs
//! to make and `chunk_bounds` where they fall, and [`for_each_row`]
//! over the runs hands each to its own worker.
//!
//! Nothing here affects *what* is computed — only who computes it. A
//! worker may therefore draw randomness only from a per-entity stream
//! it reaches through its own row, as the MAC's per-UE HARQ step draws
//! from the stream in each UE's MAC row: each stream belongs to one
//! row, so which thread draws cannot change what is drawn. Any other
//! RNG (a shared stream, or an entity's stream reached by index) stays
//! on the caller's thread.

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

/// Run `f` with the worker count pinned to `n` on this thread (spawned
/// workers receive their share of the pinned budget for their own
/// nested splits). Restores the previous setting on exit,
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
/// size. Yields `(start, end)` pairs covering the range in order: the
/// runs every splitter here hands its workers.
pub(crate) fn chunk_bounds(n: usize, threads: usize) -> impl Iterator<Item = (usize, usize)> {
    let chunk = n.div_ceil(threads.clamp(1, n.max(1))).max(1);
    (0..n)
        .step_by(chunk)
        .map(move |start| (start, (start + chunk).min(n)))
}

/// How many workers split `n_groups` groups when each must get at
/// least `min_groups_per_worker`: 1 for an input too small to split
/// (decided without reading the configuration), else up to
/// [`configured_threads`].
pub(crate) fn workers(n_groups: usize, min_groups_per_worker: usize) -> usize {
    let cap = n_groups / min_groups_per_worker.max(1);
    if cap <= 1 {
        1
    } else {
        configured_threads().min(cap)
    }
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
    if workers(n, 1) <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(n, || None);
    for_each_row(&mut out, 1, |i, slot| *slot = Some(f(i)));
    out.into_iter()
        .map(|slot| slot.expect("worker filled every slot"))
        .collect()
}

/// Parallel in-place update of disjoint rows: `f(i, &mut rows[i])` for
/// every row, chunked across workers: the one-element-group case of
/// [`for_each_ragged`]. Rows smaller than `min_rows_per_thread` per
/// worker stay serial — spawning threads for trivial row work costs more
/// than it saves.
pub fn for_each_row<T, F>(rows: &mut [T], min_rows_per_thread: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = rows.len();
    for_each_ragged(
        rows,
        1,
        n,
        |i| i + 1,
        min_rows_per_thread,
        |i, row| f(i, &mut row[0]),
    );
}

/// Parallel in-place update of a flat slab split at fixed `chunk_len`
/// boundaries: `f(c, chunk)` receives chunk index `c` and the mutable
/// sub-slice `data[c*chunk_len..(c+1)*chunk_len]`. The fixed-width case
/// of [`for_each_ragged`] (one `chunk_len`-element row per group).
/// `data.len()` must be a multiple of `chunk_len`. Chunks smaller than
/// `min_chunks_per_thread` per worker stay serial.
pub fn for_each_chunk<T, F>(data: &mut [T], chunk_len: usize, min_chunks_per_thread: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
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

/// [`for_each_ragged_with`] for workers that need no state of their own.
pub fn for_each_ragged<T, E, F>(
    data: &mut [T],
    width: usize,
    n_groups: usize,
    end: E,
    min_groups_per_thread: usize,
    f: F,
) where
    T: Send,
    E: Fn(usize) -> usize + Sync,
    F: Fn(usize, &mut [T]) + Sync,
{
    // `()` states are zero-sized: growing this vector never allocates.
    let mut units: Vec<()> = Vec::new();
    for_each_ragged_with(
        data,
        width,
        n_groups,
        end,
        min_groups_per_thread,
        &mut units,
        |g, group, ()| f(g, group),
    );
}

/// Parallel in-place update of a flat slab of `width`-element rows split
/// into `n_groups` consecutive groups of varying length: group `g` covers
/// rows `end(g - 1)..end(g)` (group 0 starts at row 0), and the last
/// group ends at the end of `data`. `f(g, group, state)` receives the
/// group index, its rows as one mutable slice, and the state element of
/// the worker running it. This is the strided analogue of
/// [`for_each_row`] for slab-backed tensors whose semantic rows differ
/// in length (e.g. one UE's gain lanes, one per candidate AP): workers
/// take whole runs of groups, so a group index maps to the same rows for
/// any thread count. Fewer than `min_groups_per_thread` groups per
/// worker stay serial.
///
/// `states` holds one caller-owned element per worker — working space a
/// worker reuses across its groups, so no worker allocates. Worker `k`
/// (the `k`-th run of groups) gets `states[k]`; a serial split uses
/// `states[0]`. When `states` has fewer elements than the split has
/// workers it is first grown with `S::default()`, so it ends up as long
/// as the largest split it has served and never shrinks.
pub fn for_each_ragged_with<T, S, E, F>(
    data: &mut [T],
    width: usize,
    n_groups: usize,
    end: E,
    min_groups_per_thread: usize,
    states: &mut Vec<S>,
    f: F,
) where
    T: Send,
    S: Send + Default,
    E: Fn(usize) -> usize + Sync,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    let start = |g: usize| if g == 0 { 0 } else { end(g - 1) };
    assert_eq!(
        start(n_groups) * width,
        data.len(),
        "row groups must tile the slab"
    );
    let threads = workers(n_groups, min_groups_per_thread);
    let runs = chunk_bounds(n_groups, threads).count().max(1);
    if states.len() < runs {
        states.resize_with(runs, S::default);
    }
    // Groups `lo..hi` over the span that holds exactly their rows.
    let run = |lo: usize, hi: usize, mut span: &mut [T], state: &mut S| {
        for g in lo..hi {
            let (group, rest) = std::mem::take(&mut span).split_at_mut((end(g) - start(g)) * width);
            span = rest;
            f(g, group, state);
        }
    };
    if runs <= 1 {
        run(0, n_groups, data, &mut states[0]);
        return;
    }
    // Workers split the caller's thread budget between them: once the
    // fan-out saturates the budget, nested splits inside each worker
    // stay serial instead of oversubscribing the machine.
    let nested = (configured_threads() / runs).max(1);
    std::thread::scope(|scope| {
        let run = &run;
        let mut rest = data;
        for ((lo, hi), state) in chunk_bounds(n_groups, threads).zip(states.iter_mut()) {
            let (span, tail) = rest.split_at_mut((start(hi) - start(lo)) * width);
            rest = tail;
            scope.spawn(move || with_threads(nested, || run(lo, hi, span, state)));
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
                let bounds: Vec<_> = chunk_bounds(n, threads).collect();
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

    /// Groups of 3, 0, 1, 5, 2, 0 and 4 rows, then eleven one-row
    /// groups: 18 groups over 26 rows.
    const RAGGED_ENDS: [usize; 18] = [
        3, 3, 4, 9, 11, 11, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
    ];

    #[test]
    fn for_each_ragged_with_gives_each_worker_its_own_state() {
        let ends = RAGGED_ENDS;
        let width = 2;
        let mut serial_rows = Vec::new();
        for (threads, runs) in [(1usize, 1usize), (2, 2), (3, 3), (8, 6)] {
            let mut data = vec![usize::MAX; 26 * width];
            let mut states: Vec<Vec<usize>> = Vec::new();
            with_threads(threads, || {
                for_each_ragged_with(
                    &mut data,
                    width,
                    ends.len(),
                    |g| ends[g],
                    1,
                    &mut states,
                    |g, group, seen| {
                        seen.push(g);
                        group.fill(g);
                    },
                )
            });
            // One state per worker, each holding one contiguous run of
            // groups; the runs tile the groups in order.
            assert_eq!(states.len(), runs, "threads={threads}");
            assert!(states.iter().all(|s| !s.is_empty()), "threads={threads}");
            let order: Vec<usize> = states.concat();
            assert_eq!(
                order,
                (0..ends.len()).collect::<Vec<_>>(),
                "threads={threads}"
            );
            // Group index → rows is the same at every thread count.
            if threads == 1 {
                serial_rows = data;
            } else {
                assert_eq!(data, serial_rows, "threads={threads}");
            }
        }
    }

    #[test]
    fn for_each_ragged_with_grows_short_state_lists_and_keeps_long_ones() {
        let ends = RAGGED_ENDS;
        let mut data = vec![0u8; 26];
        let tally = |g: usize, _: &mut [u8], count: &mut usize| *count += g + 1;
        // Fewer states than workers: the list grows with defaults and
        // the existing element serves the first run.
        let mut states = vec![1_000usize];
        with_threads(4, || {
            for_each_ragged_with(&mut data, 1, ends.len(), |g| ends[g], 1, &mut states, tally)
        });
        assert_eq!(states.len(), 4);
        assert!(states[0] > 1_000 && states[1..].iter().all(|&c| c > 0));
        assert_eq!(
            states.iter().sum::<usize>(),
            1_000 + (1..=18).sum::<usize>()
        );
        // More states than workers: the spare elements stay untouched.
        let mut states = vec![0usize; 10];
        with_threads(2, || {
            for_each_ragged_with(&mut data, 1, ends.len(), |g| ends[g], 1, &mut states, tally)
        });
        assert_eq!(states.len(), 10);
        assert!(states[..2].iter().all(|&c| c > 0) && states[2..].iter().all(|&c| c == 0));
        // A split too small for two workers runs serially on state 0.
        let mut states: Vec<usize> = Vec::new();
        with_threads(8, || {
            for_each_ragged_with(
                &mut data,
                1,
                ends.len(),
                |g| ends[g],
                10,
                &mut states,
                tally,
            )
        });
        assert_eq!(states, vec![(1..=18).sum::<usize>()]);
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
