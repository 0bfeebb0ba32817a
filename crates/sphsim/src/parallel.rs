//! Minimal data-parallel helpers.
//!
//! The physics kernels are embarrassingly parallel per-particle loops. These
//! helpers split them across OS threads with `std::thread::scope`, keeping the
//! dependency footprint small (no rayon) while still using every core for the
//! CPU-executed reference simulations.

/// Default upper bound on the worker-thread count. The per-particle loops
/// scale near-linearly to this width; past it, `thread::scope` spawn/join
/// overhead on every kernel call and host memory-bandwidth saturation eat the
/// gains. (The previous cap of 16 silently left most of a 64–128-core HPC
/// node idle.)
pub const MAX_DEFAULT_THREADS: usize = 64;

/// Hard ceiling on an explicit `SPHSIM_THREADS` override.
pub const MAX_THREADS: usize = 1024;

/// Number of worker threads to use.
///
/// Honours the `SPHSIM_THREADS` environment variable when it parses to a
/// positive integer (clamped to [`MAX_THREADS`]); otherwise defaults to the
/// machine's available parallelism clamped to [`MAX_DEFAULT_THREADS`].
///
/// The environment is consulted exactly once per process (this function sits
/// on every kernel invocation, and `std::env::var` takes a process-global
/// lock); set `SPHSIM_THREADS` before the first kernel call.
pub fn worker_threads() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        let available = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        resolve_worker_threads(std::env::var("SPHSIM_THREADS").ok().as_deref(), available)
    })
}

/// Pure resolution of the worker-thread count from an optional `SPHSIM_THREADS`
/// override and the machine's available parallelism (kept separate from the
/// environment read so the policy is testable without mutating process-global
/// state from a multi-threaded test binary).
fn resolve_worker_threads(env_override: Option<&str>, available: usize) -> usize {
    if let Some(value) = env_override {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_THREADS);
            }
        }
        // Unparsable or zero: fall through to the default rather than
        // silently serialising the whole simulation.
    }
    available.clamp(1, MAX_DEFAULT_THREADS)
}

/// Fewest items [`parallel_map`] and [`parallel_chunks_mut`] split across
/// threads; below it, spawning costs more than the loop.
pub const MIN_PARALLEL_ITEMS: usize = 256;

/// Compute `f(i)` for every `i in 0..n` in parallel and collect the results in
/// index order.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_from(n, MIN_PARALLEL_ITEMS, f)
}

/// [`parallel_map`] that goes parallel from `min_items` items up — for items
/// that each bundle several rows, so the threshold can stay counted in rows.
pub fn parallel_map_from<T, F>(n: usize, min_items: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = worker_threads().min(n.max(1));
    if n == 0 {
        return Vec::new();
    }
    if threads <= 1 || n < min_items {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut pieces: Vec<Vec<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                let start = t * chunk;
                let end = ((t + 1) * chunk).min(n);
                scope.spawn(move || (start..end).map(f).collect::<Vec<T>>())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let mut out = Vec::with_capacity(n);
    for piece in pieces.iter_mut() {
        out.append(piece);
    }
    out
}

/// Apply `f(start_index, chunk)` to disjoint chunks of `data` in parallel.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let threads = worker_threads().min(n);
    if threads <= 1 || n < MIN_PARALLEL_ITEMS {
        f(0, data);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, piece) in data.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || f(t * chunk, piece));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let out = parallel_map(10_000, |i| i * 2);
        assert_eq!(out.len(), 10_000);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 2));
    }

    #[test]
    fn map_handles_small_and_empty_inputs() {
        assert_eq!(parallel_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn map_from_preserves_order_on_either_side_of_the_threshold() {
        for n in [15, 16, 17, 300] {
            assert_eq!(
                parallel_map_from(n, 16, |i| i * 3),
                (0..n).map(|i| i * 3).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn chunks_mut_touches_every_element() {
        let mut data = vec![0u64; 5000];
        parallel_chunks_mut(&mut data, |start, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (start + k) as u64;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn worker_threads_is_reasonable() {
        let t = worker_threads();
        assert!((1..=MAX_THREADS).contains(&t));
    }

    #[test]
    fn worker_threads_is_stable_across_calls() {
        // The count is resolved once (OnceLock); repeated calls on the hot
        // path must return the same value without touching the environment.
        let first = worker_threads();
        assert!((0..1000).all(|_| worker_threads() == first));
    }

    #[test]
    fn worker_threads_honours_env_override() {
        // Exercise the resolution policy directly rather than via
        // std::env::set_var: mutating the process environment races the
        // env reads of every other test in this multi-threaded binary.
        assert_eq!(resolve_worker_threads(Some("5"), 32), 5);
        assert_eq!(resolve_worker_threads(Some(" 12 "), 32), 12);
        // An override larger than the default cap is allowed (that is the
        // point of the override)...
        assert_eq!(resolve_worker_threads(Some("128"), 32), 128);
        // ...but still bounded against absurd values.
        assert_eq!(resolve_worker_threads(Some("999999"), 32), MAX_THREADS);
        // Zero or garbage falls back to the default.
        assert_eq!(resolve_worker_threads(Some("0"), 32), 32);
        assert_eq!(resolve_worker_threads(Some("not-a-number"), 32), 32);
        assert_eq!(resolve_worker_threads(None, 32), 32);
        // The default respects machines both smaller and larger than the cap.
        assert_eq!(resolve_worker_threads(None, 8), 8);
        assert_eq!(resolve_worker_threads(None, 256), MAX_DEFAULT_THREADS);
        // The old cap of 16 silently underused large nodes; a 32-core machine
        // must now get all 32 workers by default.
        assert_eq!(resolve_worker_threads(None, 32), 32);
    }
}
