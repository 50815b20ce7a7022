//! # idde-par — deterministic parallel-evaluation primitives
//!
//! Some IDDE-G hot paths are embarrassingly parallel *per candidate*: the
//! Eq. 17 greedy of Phase #2 scores every `(data, server)` placement
//! candidate against a **frozen** latency state, and the solver's root
//! relaxation scores its bound columns likewise. Only the *commit* of a
//! chosen candidate mutates shared state.
//!
//! This crate is the thin, auditable layer those hot paths share, and the
//! workspace's only thread spawner:
//!
//! * [`par_map`] — an order-preserving parallel map with a sequential
//!   small-input fallback;
//! * [`par_fill`] — an in-place variant writing into a caller-owned buffer
//!   (the greedy's initial column scores, one buffer reused across
//!   columns);
//! * [`par_for_each_mut`] — one worker per heavyweight `&mut` item (the
//!   shard engines' tick phases, the experiment harness's repetitions);
//! * [`num_threads`] / [`set_threads`] — the worker-count surface the
//!   bench ledger's thread sweep drives.
//!
//! ## The frozen-snapshot / serialized-commit contract
//!
//! Every parallel evaluation in this workspace follows one discipline:
//!
//! 1. **Score** (parallel, read-only): each item is scored against an
//!    immutable snapshot of the shared state. Closures must be pure
//!    functions of `(snapshot, item)`.
//! 2. **Commit** (serial, re-validated): results are consumed in input
//!    order by a single thread; any commit that mutates the shared state
//!    re-validates its candidate against the *current* state first.
//!
//! Because scoring closures are pure and both [`par_map`] and [`par_fill`]
//! preserve input order, the scored results — and therefore everything
//! committed downstream — are **bit-identical for every worker count**.
//! That is the workspace's determinism contract: *same seed + any
//! `RAYON_NUM_THREADS` ⇒ identical equilibrium, placement and CSV*, and
//! `tests/parallel.rs` enforces it end to end.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Below this many items, [`par_map`] and [`par_fill`] run inline on the
/// calling thread: thread spawn/join overhead dwarfs the work and the
/// results are identical either way.
pub const PAR_THRESHOLD: usize = 32;

/// The in-process worker-count override installed by [`set_threads`];
/// `0` means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The number of worker threads parallel evaluations will use right now.
///
/// Resolution order: the in-process override installed by [`set_threads`]
/// → the `RAYON_NUM_THREADS` environment variable (a positive integer;
/// `0`, garbage or an unset variable fall through) → the machine's
/// available parallelism.
pub fn num_threads() -> usize {
    resolve_threads(
        OVERRIDE.load(Ordering::SeqCst),
        || std::env::var("RAYON_NUM_THREADS").ok(),
        || std::thread::available_parallelism().map_or(1, |p| p.get()),
    )
}

/// The resolution order of [`num_threads`] as a pure function of its
/// inputs. The variable and the machine are read only when nothing before
/// them decides, so a set override costs one atomic load per call.
fn resolve_threads(
    override_n: usize,
    env: impl FnOnce() -> Option<String>,
    available: impl FnOnce() -> usize,
) -> usize {
    if override_n > 0 {
        return override_n;
    }
    match env().and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => available(),
    }
}

/// Installs an in-process worker-count override (`0` restores automatic
/// sizing). The bench ledger's thread sweep calls this between timed runs;
/// production code normally leaves sizing to `RAYON_NUM_THREADS`.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::SeqCst);
}

/// The one dispatcher behind every entry point: calls `f(i, &mut items[i])`
/// for every index. Inline and in order below `min_len` items or at one
/// worker; otherwise the slice is cut into `len.div_ceil(threads)`-sized
/// contiguous chunks, one scoped thread per chunk, joined before return.
fn for_each_chunk<T, F>(items: &mut [T], min_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let len = items.len();
    let threads = if len < min_len { 1 } else { num_threads().min(len) };
    if threads <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk_size = len.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        for (c, chunk) in items.chunks_mut(chunk_size).enumerate() {
            let base = c * chunk_size;
            scope.spawn(move || {
                for (i, item) in chunk.iter_mut().enumerate() {
                    f(base + i, item);
                }
            });
        }
    });
}

/// Order-preserving parallel map: returns `f` applied to every item, in
/// input order — a [`par_fill`] over the item indices, with the same
/// sequential fallback below [`PAR_THRESHOLD`] items or at one worker.
///
/// `f` must be a pure function of its item for the determinism contract to
/// hold; nothing enforces that beyond the `Fn(&T)` borrow, so keep scoring
/// closures free of interior mutability.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send + Default + Clone,
    F: Fn(&T) -> U + Sync,
{
    let mut out = Vec::new();
    par_fill(&mut out, items.len(), |i| f(&items[i]));
    out
}

/// In-place order-preserving parallel fill: resizes `out` to `len` and sets
/// `out[i] = f(i)` for every index. The buffer is caller-owned, so a loop
/// that fills one column after another (the Eq. 17 greedy's initial
/// scores) or rescans the same player set every pass reuses one allocation
/// for the whole run.
///
/// Falls back to a sequential fill below [`PAR_THRESHOLD`] items or when
/// only one worker is available; either path writes identical bytes.
pub fn par_fill<U, F>(out: &mut Vec<U>, len: usize, f: F)
where
    U: Send + Default + Clone,
    F: Fn(usize) -> U + Sync,
{
    out.clear();
    out.resize(len, U::default());
    for_each_chunk(out, PAR_THRESHOLD, |i, slot| *slot = f(i));
}

/// Applies `f` to every element of `items` in parallel, each worker owning
/// a disjoint `&mut` slot — the mutable counterpart of [`par_map`] for
/// workloads that *are* the shared state, like one serving engine per
/// shard. `f` receives `(index, &mut item)`; items must be independent (no
/// cross-item reads), which the exclusive borrows enforce structurally.
///
/// Unlike the fine-grained maps there is no [`PAR_THRESHOLD`]: each item is
/// assumed heavyweight (a shard's whole tick, one seeded experiment
/// repetition), so two items already justify two workers. One item or one
/// worker falls back to a sequential in-order loop. Determinism: each
/// item's mutation is a pure function of `(index, item)` state, so the
/// final slice contents are identical for every worker count — only
/// completion *order* varies, and nothing observes it.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    for_each_chunk(items, 2, f);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_resolution_order() {
        let var = |v: &str| {
            let v = v.to_string();
            move || Some(v)
        };
        let machine = || 7;
        // The override beats the variable and the machine, without reading
        // either.
        assert_eq!(resolve_threads(3, var("5"), machine), 3);
        assert_eq!(resolve_threads(2, || unreachable!(), || unreachable!()), 2);
        // An override of `0` restores automatic sizing: the variable, then
        // the machine.
        assert_eq!(resolve_threads(0, var("5"), machine), 5);
        assert_eq!(resolve_threads(0, var(" 4 "), machine), 4);
        assert_eq!(resolve_threads(0, || None, machine), 7);
        // Zero or unparsable values fall through to the machine.
        for bad in ["0", "", "two", "-3", "1.5"] {
            assert_eq!(resolve_threads(0, var(bad), machine), 7, "{bad:?}");
        }
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 31 + 7).collect();
        let parallel = par_map(&items, |x| x * 31 + 7);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_map_small_inputs_stay_inline() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map(&items, |x| x + 1), vec![2, 3, 4]);
        let empty: [u32; 0] = [];
        assert!(par_map(&empty, |x| x + 1).is_empty());
    }

    #[test]
    fn par_fill_is_identical_across_thread_counts() {
        let mut reference = Vec::new();
        set_threads(1);
        par_fill(&mut reference, 513, |i| (i as f64).sqrt());
        for threads in [2usize, 3, 8] {
            set_threads(threads);
            let mut out = Vec::new();
            par_fill(&mut out, 513, |i| (i as f64).sqrt());
            assert_eq!(
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{threads} threads changed the fill"
            );
        }
        set_threads(0);
    }

    #[test]
    fn par_fill_reuses_the_buffer() {
        let mut buf: Vec<usize> = Vec::with_capacity(64);
        par_fill(&mut buf, 10, |i| i);
        assert_eq!(buf, (0..10).collect::<Vec<_>>());
        let cap = buf.capacity();
        par_fill(&mut buf, 8, |i| i * 2);
        assert_eq!(buf.len(), 8);
        assert!(buf.capacity() >= cap.min(64), "capacity must survive refills");
    }

    #[test]
    fn par_for_each_mut_matches_serial_for_every_worker_count() {
        let reference: Vec<u64> = (0..97).map(|i| (i as u64) * 13 + 5).collect();
        for threads in [1usize, 2, 3, 8] {
            set_threads(threads);
            let mut items: Vec<u64> = (0..97).collect();
            par_for_each_mut(&mut items, |i, item| {
                *item = *item * 13 + 5;
                assert_eq!(*item, (i as u64) * 13 + 5, "slot {i} got someone else's item");
            });
            assert_eq!(items, reference, "{threads} threads changed the result");
        }
        set_threads(0);
        // Degenerate sizes run inline.
        let mut one = [41u64];
        par_for_each_mut(&mut one, |_, item| *item += 1);
        assert_eq!(one, [42]);
        let mut none: [u64; 0] = [];
        par_for_each_mut(&mut none, |_, _| unreachable!());
    }
}
