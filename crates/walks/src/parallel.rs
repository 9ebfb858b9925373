//! The workspace's one fan-out primitive and its worker-count policy.
//!
//! Every parallel pass here has one shape: the caller splits its layers,
//! nodes or bytes into contiguous parts (`chunks`, `chunks_mut`, a zip of
//! them), [`fan_out`] runs one loop body per part and hands the results
//! back in part order, and the caller reduces them in that order. Every
//! reduction is exact (integer sums, float sums of small integers, CRC
//! combines), so a pass is bit-identical at any worker count. A lone part
//! runs inline on the calling thread, so a pass split for one worker
//! spawns nothing and needs no serial twin.

/// Below this much sweep work — roughly table slots touched plus postings
/// streamed — layer-parallel passes run as one part: thread spawn/join
/// costs more than the whole pass on tiny instances. [`part_len`] applies
/// it for `GainEngine::{update, gains_all}` and `DeltaGainEngine::update`
/// in `rwd-core` and for the aggregate, replay and load passes in this
/// crate, so "small" means the same thing everywhere.
pub const MIN_PARALLEL_SWEEP_WORK: usize = 1 << 15;

/// Resolves a requested worker count: `0` means "all cores"
/// (`available_parallelism`), anything else is taken literally; never
/// returns 0. Callers cap the result at their own task count.
pub fn resolve_threads(threads: usize) -> usize {
    let hw = if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map_or(1, |t| t.get())
    };
    hw.max(1)
}

/// Length of each contiguous part when `len` items carrying `work` units
/// of sweep work are split for `threads` requested workers (`0` = all
/// cores): one part of all `len` items below [`MIN_PARALLEL_SWEEP_WORK`],
/// otherwise `ceil(len / resolve_threads(threads))`, which makes at most
/// `min(workers, len)` parts. Never 0, so it is always a valid `chunks`
/// size (an empty input then yields no parts).
pub fn part_len(len: usize, work: usize, threads: usize) -> usize {
    let workers = if work < MIN_PARALLEL_SWEEP_WORK {
        1
    } else {
        resolve_threads(threads)
    };
    len.div_ceil(workers).max(1)
}

/// Runs `body` once per part and returns the results in part order. With
/// two or more parts each runs on its own scoped thread; a lone part runs
/// inline on the calling thread, and no parts yield an empty result. A
/// panicking part re-raises its panic on the caller once every part has
/// finished.
pub fn fan_out<P: Send, T: Send>(
    parts: impl IntoIterator<Item = P>,
    body: impl Fn(P) -> T + Sync,
) -> Vec<T> {
    let mut parts = parts.into_iter().peekable();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    if parts.peek().is_none() {
        return vec![body(first)];
    }
    let body = &body;
    std::thread::scope(|scope| {
        let handles: Vec<_> = std::iter::once(first)
            .chain(parts)
            .map(|part| scope.spawn(move || body(part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_counts_pass_through_and_zero_means_cores() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn part_len_gates_small_sweeps_and_caps_at_the_item_count() {
        let big = MIN_PARALLEL_SWEEP_WORK;
        assert_eq!(part_len(10, big - 1, 4), 10, "below the gate: one part");
        assert_eq!(part_len(10, big, 4), 3, "ceil(10 / 4)");
        assert_eq!(part_len(3, big, 8), 1, "at most one item per worker");
        assert_eq!(part_len(10, big, 1), 10);
        assert_eq!(
            part_len(0, 0, 4),
            1,
            "an empty input still gets a valid size"
        );
        assert_eq!(part_len(0, big, 4), 1);
    }

    #[test]
    fn results_come_back_in_part_order() {
        let data: Vec<u64> = (0..1000).collect();
        let sums = fan_out(data.chunks(97), |c| c.iter().sum::<u64>());
        let want: Vec<u64> = data.chunks(97).map(|c| c.iter().sum()).collect();
        assert_eq!(sums, want);

        // Mutable parts: every part writes only its own slice.
        let mut out = vec![0usize; 10];
        let seen = fan_out(out.chunks_mut(3).enumerate(), |(i, c)| {
            c.fill(i);
            i
        });
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(out, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn a_lone_part_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        assert_eq!(
            fan_out([()], |()| std::thread::current().id()),
            vec![caller]
        );
        let ids = fan_out([(), ()], |()| std::thread::current().id());
        assert!(ids.iter().all(|&id| id != caller), "two parts both spawn");
    }

    #[test]
    fn no_parts_yield_an_empty_result() {
        let none: Vec<u32> = fan_out(std::iter::empty::<u32>(), |p| p);
        assert!(none.is_empty());
    }

    #[test]
    fn a_panicking_part_propagates_its_panic() {
        for parts in [1, 3] {
            let got = std::panic::catch_unwind(|| {
                fan_out(0..parts, |i| {
                    if i == parts - 1 {
                        panic!("part {i} failed");
                    }
                    i
                })
            });
            let payload = got.expect_err("the panic must reach the caller");
            let msg = payload
                .downcast_ref::<String>()
                .expect("panic! with a format string carries a String");
            assert_eq!(*msg, format!("part {} failed", parts - 1));
        }
    }
}
