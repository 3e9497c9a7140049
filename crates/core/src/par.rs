//! A hand-rolled work pool for the deciders' enumeration loops.
//!
//! The hot searches (valuation enumeration in `rcdp`, bounded extensions in
//! `semidecide`) are embarrassingly parallel: the candidate space splits into independent *chunks* whose
//! concatenation, in index order, is exactly the sequence the sequential
//! engine enumerates. [`run_chunks`] fans the chunks out across
//! `std::thread` workers (the workspace builds fully offline — no rayon) and
//! [`PoolRun::merge_search`] folds the per-chunk results back together with a
//! schedule-independent rule:
//!
//! * chunks are claimed dynamically but **merged in index order**;
//! * the first chunk (by index, not by completion time) that reports a
//!   terminal event — a hit, budget exhaustion, or a guard trip — decides
//!   the outcome, exactly as the sequential engine would have stopped there;
//! * chunks with a higher index than an already-posted terminal event are
//!   skipped, but every chunk at or below the final deciding index is
//!   guaranteed to execute, so the deciding chunk cannot be raced past;
//! * per-chunk statistics are summed **only up to the deciding chunk**, so a
//!   run that decides reports the same telemetry counters the sequential
//!   engine reports.
//!
//! Because each chunk's result is a pure function of the chunk and its own
//! budget slice, the merged outcome is independent of thread count and
//! interleaving. Robustness integrates through [`Guard::worker`]: every
//! worker polls the decision's deadline and cancel tokens plus a pool-local
//! token, and any worker trip broadcasts through that token so the siblings
//! stop at their next amortized poll. A panicking chunk is caught on the
//! worker ([`std::panic::catch_unwind`]), carried home, and re-thrown on the
//! calling thread during the merge — but only if no lower-index chunk already
//! decided, mirroring where the sequential engine would have unwound — where
//! the facade's `try_` entry points convert it to `DecisionError::Panic`.

use crate::guard::{CancelToken, Guard, Interrupt};
use crate::valuations::PROFILE_DEPTH;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Number of per-constraint pruning-attribution slots carried through the
/// chunk stats; constraint indexes past the last slot clamp into it.
pub(crate) const CC_ATTR: usize = 16;

/// How one chunk ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ChunkEvent {
    /// Ran to completion without deciding anything.
    Clear,
    /// Terminal: found what the search is looking for (payload in
    /// [`ChunkResult::value`]).
    Hit,
    /// Terminal: the chunk's budget slice ran out.
    Exhausted,
    /// Terminal: the worker guard tripped (deadline, cancellation, or a
    /// broadcast trip from a sibling worker).
    Interrupted(Interrupt),
}

impl ChunkEvent {
    /// Does this event end the search (skip higher-index chunks)?
    pub(crate) fn is_terminal(&self) -> bool {
        !matches!(self, ChunkEvent::Clear)
    }
}

/// Per-chunk work counters, summed by the merge into decision telemetry.
///
/// Worker threads never emit probe events directly (sinks are not `Sync`);
/// everything a chunk wants to report rides home through this struct and is
/// emitted by the coordinating thread after the merge.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct ChunkStats {
    /// Meter ticks the chunk consumed (valuations / candidates examined).
    pub ticks: u64,
    /// Containment-constraint checks performed.
    pub cc_checks: u64,
    /// CC checks skipped by the delta-aware strategy.
    pub cc_skipped: u64,
    /// Index probes issued (thread-local [`ric_data::index::probe_count`]
    /// deltas, snapshotted on the worker that did the probing).
    pub probes: u64,
    /// Query evaluations performed.
    pub query_evals: u64,
    /// Candidates tried per assignment depth (profiler data; see
    /// [`crate::valuations::DepthProfile`]).
    pub depth_candidates: [u64; PROFILE_DEPTH],
    /// Subtrees pruned per assignment depth.
    pub depth_pruned: [u64; PROFILE_DEPTH],
    /// Subtrees pruned by the head filter.
    pub head_prunes: u64,
    /// Candidate rejections attributed to the index of the first violated
    /// containment constraint (clamped at [`CC_ATTR`] slots).
    pub cc_viol: [u64; CC_ATTR],
}

impl ChunkStats {
    /// Fold `other` into `self` (all fields sum).
    pub(crate) fn absorb(&mut self, other: &ChunkStats) {
        self.ticks += other.ticks;
        self.cc_checks += other.cc_checks;
        self.cc_skipped += other.cc_skipped;
        self.probes += other.probes;
        self.query_evals += other.query_evals;
        for (a, b) in self
            .depth_candidates
            .iter_mut()
            .zip(&other.depth_candidates)
        {
            *a += b;
        }
        for (a, b) in self.depth_pruned.iter_mut().zip(&other.depth_pruned) {
            *a += b;
        }
        self.head_prunes += other.head_prunes;
        for (a, b) in self.cc_viol.iter_mut().zip(&other.cc_viol) {
            *a += b;
        }
    }
}

/// What one chunk returns to the pool.
#[derive(Debug)]
pub(crate) struct ChunkResult<R> {
    /// How the chunk ended.
    pub event: ChunkEvent,
    /// The chunk's payload: the found witness for [`ChunkEvent::Hit`].
    pub value: Option<R>,
    /// Work counters.
    pub stats: ChunkStats,
}

/// One chunk's slot in the pool output.
#[derive(Debug)]
pub(crate) enum ChunkSlot<R> {
    /// The chunk ran (possibly ending on a terminal event). Boxed: the
    /// result carries a full [`ChunkStats`], which dwarfs the panic payload.
    Done(Box<ChunkResult<R>>),
    /// The chunk panicked; the payload is re-thrown during the merge.
    Panicked(Box<dyn Any + Send>),
}

/// One chunk execution on the pool's wall-clock timeline: which worker ran
/// which chunk, and when, in microseconds since the pool started. Profiler
/// data only — inherently schedule-dependent, so it must never feed a
/// counter; the deciders surface it as trace notes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TimelineEntry {
    /// Worker id (0 = the calling thread).
    pub worker: usize,
    /// Chunk index.
    pub chunk: usize,
    /// Microseconds from pool start to chunk start.
    pub start_micros: u128,
    /// Microseconds from pool start to chunk end.
    pub end_micros: u128,
}

/// Raw pool output: one slot per chunk (`None` = skipped past a terminal
/// event), plus scheduling counters.
#[derive(Debug)]
pub(crate) struct PoolRun<R> {
    /// Per-chunk outcomes, indexed by chunk.
    pub slots: Vec<Option<ChunkSlot<R>>>,
    /// Chunks executed by a worker other than their round-robin home — the
    /// `par.steal` telemetry counter.
    pub steals: u64,
    /// Chunks actually executed — the `par.chunk` telemetry counter.
    pub executed: u64,
    /// Per-worker chunk timeline, sorted by chunk index (the content — which
    /// worker, what wall time — remains schedule-dependent).
    pub timeline: Vec<TimelineEntry>,
}

/// The merged, schedule-independent outcome of a search-style pool run.
#[derive(Debug)]
pub(crate) enum PoolOutcome<R> {
    /// Every chunk ran clear: the search space is exhausted.
    Clear,
    /// The earliest chunk (by index) with a terminal event found a witness.
    Hit(R),
    /// The earliest terminal event was a budget-slice exhaustion.
    Exhausted,
    /// The earliest terminal event was a guard trip.
    Interrupted(Interrupt),
}

/// A merged pool run: the deciding outcome plus sequential-equivalent stats.
#[derive(Debug)]
pub(crate) struct PoolMerge<R> {
    /// The deciding outcome (see [`PoolRun::merge_search`]).
    pub outcome: PoolOutcome<R>,
    /// Stats summed over chunks up to and including the deciding chunk —
    /// exactly the work the sequential engine performs on a deciding run.
    pub stats: ChunkStats,
    /// Chunks executed by a non-home worker.
    pub steals: u64,
    /// Chunks executed in total (may exceed the deciding index: in-flight
    /// higher chunks run to completion, their stats are not merged).
    pub executed: u64,
    /// Index of the chunk whose terminal event decided the outcome (`None`
    /// when every chunk ran clear). Schedule-independent, like the outcome:
    /// it is the index at which the sequential engine would have stopped.
    pub deciding: Option<usize>,
}

impl<R> PoolRun<R> {
    /// Merge with first-terminal-wins semantics: walk the chunks in index
    /// order and stop at the first terminal event, which is by construction
    /// the same chunk at which the sequential engine would have stopped. A
    /// recorded panic re-throws here (on the calling thread) unless an
    /// earlier chunk already decided.
    ///
    /// One asymmetry is corrected: a real deadline trip on one worker
    /// broadcasts to its siblings as a pool-token *cancellation*, so a
    /// lower-index chunk can report `Interrupted(Cancelled)` for what was
    /// actually the decision deadline expiring. When any executed chunk saw
    /// `Interrupt::Deadline`, a cancelled merge outcome is upgraded to
    /// `Interrupted(Deadline)` — matching what the sequential engine, which
    /// observes the deadline directly, would report.
    pub(crate) fn merge_search(self) -> PoolMerge<R> {
        let saw_deadline = self.slots.iter().any(|slot| {
            matches!(
                slot,
                Some(ChunkSlot::Done(result))
                    if matches!(result.event, ChunkEvent::Interrupted(Interrupt::Deadline))
            )
        });
        let mut stats = ChunkStats::default();
        let mut outcome = PoolOutcome::Clear;
        let mut deciding = None;
        for (idx, slot) in self.slots.into_iter().enumerate() {
            match slot {
                // Skipped: a lower-index chunk posted a terminal event first,
                // so the merge must already have returned by the time a
                // skipped slot is reached. Nothing to merge.
                None => continue,
                Some(ChunkSlot::Panicked(payload)) => resume_unwind(payload),
                Some(ChunkSlot::Done(result)) => {
                    stats.absorb(&result.stats);
                    match result.event {
                        ChunkEvent::Clear => continue,
                        ChunkEvent::Hit => {
                            outcome = PoolOutcome::Hit(result.value.unwrap_or_else(|| {
                                unreachable!("a Hit chunk carries its witness")
                            }));
                        }
                        ChunkEvent::Exhausted => outcome = PoolOutcome::Exhausted,
                        ChunkEvent::Interrupted(Interrupt::Cancelled) if saw_deadline => {
                            outcome = PoolOutcome::Interrupted(Interrupt::Deadline);
                        }
                        ChunkEvent::Interrupted(interrupt) => {
                            outcome = PoolOutcome::Interrupted(interrupt);
                        }
                    }
                    deciding = Some(idx);
                    break;
                }
            }
        }
        PoolMerge {
            outcome,
            stats,
            steals: self.steals,
            executed: self.executed,
            deciding,
        }
    }
}

/// Run `n_chunks` chunks of work across `workers` threads.
///
/// `job(chunk, guard)` runs each chunk; the guard is a [`Guard::worker`] of
/// `parent` (same deadline and tokens, plus the pool-local broadcast token),
/// shared by all chunks one worker executes so fault-plan tick counts
/// accumulate per worker. Workers claim chunk indexes dynamically; once a
/// terminal event is posted at index `k`, chunks above `k` are skipped.
/// Panics inside `job` are caught per chunk and re-thrown at merge time.
///
/// The calling thread is worker 0, so `workers == 1` runs everything inline
/// with no thread spawned at all. In tests,
/// [`sched_test::with_schedule`] perturbs the *claim order* of the chunks —
/// the merge is index-ordered, so results must not change.
pub(crate) fn run_chunks<R: Send>(
    workers: usize,
    n_chunks: usize,
    parent: &Guard,
    job: &(dyn Fn(usize, &Guard) -> ChunkResult<R> + Sync),
) -> PoolRun<R> {
    let n_workers = workers.max(1).min(n_chunks.max(1));
    let pool = CancelToken::new();
    // Worker guards are built on the calling thread (Guard is Send, not
    // Sync) and moved into their threads.
    let mut guards: Vec<Guard> = (0..n_workers).map(|_| parent.worker(&pool)).collect();
    let order: Vec<usize> = match sched_test::current_seed() {
        Some(seed) => sched_test::permutation(seed, n_chunks),
        None => (0..n_chunks).collect(),
    };

    let next = AtomicUsize::new(0);
    let first_terminal = AtomicUsize::new(usize::MAX);
    let steals = AtomicU64::new(0);
    let executed = AtomicU64::new(0);
    let slots: Mutex<Vec<Option<ChunkSlot<R>>>> = Mutex::new((0..n_chunks).map(|_| None).collect());
    let pool_start = Instant::now();
    let timeline: Mutex<Vec<TimelineEntry>> = Mutex::new(Vec::with_capacity(n_chunks));

    let run_worker = |wid: usize, guard: Guard| loop {
        let pos = next.fetch_add(1, Ordering::Relaxed);
        if pos >= n_chunks {
            break;
        }
        let chunk = order[pos];
        // `fetch_min` only ever lowers `first_terminal`, so a chunk above
        // the current value is also above the final value: skipping it can
        // never skip the deciding chunk.
        if chunk > first_terminal.load(Ordering::Acquire) {
            continue;
        }
        if chunk % n_workers != wid {
            steals.fetch_add(1, Ordering::Relaxed);
        }
        executed.fetch_add(1, Ordering::Relaxed);
        let start_micros = pool_start.elapsed().as_micros();
        let slot = match catch_unwind(AssertUnwindSafe(|| job(chunk, &guard))) {
            Ok(result) => {
                if result.event.is_terminal() {
                    first_terminal.fetch_min(chunk, Ordering::AcqRel);
                }
                ChunkSlot::Done(Box::new(result))
            }
            Err(payload) => {
                first_terminal.fetch_min(chunk, Ordering::AcqRel);
                ChunkSlot::Panicked(payload)
            }
        };
        timeline
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(TimelineEntry {
                worker: wid,
                chunk,
                start_micros,
                end_micros: pool_start.elapsed().as_micros(),
            });
        // Job panics are caught above, so the lock cannot be poisoned by a
        // chunk; recover defensively anyway.
        slots.lock().unwrap_or_else(PoisonError::into_inner)[chunk] = Some(slot);
    };

    std::thread::scope(|s| {
        let spawned = guards.split_off(1);
        for (i, guard) in spawned.into_iter().enumerate() {
            let run = &run_worker;
            s.spawn(move || run(i + 1, guard));
        }
        let g0 = guards
            .pop()
            .unwrap_or_else(|| unreachable!("guards starts with one entry per worker"));
        run_worker(0, g0);
    });

    let mut timeline = timeline
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    timeline.sort_by_key(|e| e.chunk);
    PoolRun {
        slots: slots.into_inner().unwrap_or_else(PoisonError::into_inner),
        steals: steals.into_inner(),
        executed: executed.into_inner(),
        timeline,
    }
}

/// A pool run after chunk-loss recovery (see [`run_chunks_recovering`]).
#[derive(Debug)]
pub(crate) struct RecoveredRun<R> {
    /// The pool output with every recoverable chunk resolved; merge-ready
    /// when [`RecoveredRun::lost`] is empty.
    pub run: PoolRun<R>,
    /// Panicked chunks whose quarantine retry succeeded — the
    /// `recover.chunk` telemetry counter.
    pub recovered: u64,
    /// Chunks that panicked again on retry, in index order. When non-empty
    /// the run still holds their panic payloads (merging would re-raise);
    /// callers instead commit the cleared chunks and finish the search
    /// inline on the calling thread, on the same preparation.
    pub lost: Vec<usize>,
}

/// [`run_chunks`] with graceful chunk-loss recovery: a panicked chunk is
/// quarantined and re-enqueued once on the calling thread instead of
/// unconditionally re-raising at merge time, and chunks that were skipped
/// solely because the panic posted a first-terminal index are filled in.
///
/// The walk is index-ordered with the same first-terminal-wins rule as
/// [`PoolRun::merge_search`], so the recovered run is indistinguishable from
/// a pool where the chunk never died: a genuine terminal event below a dead
/// chunk still masks it, and a retried chunk re-runs against its original
/// budget slice (chunk results are pure functions of the chunk and its
/// slice). A chunk that dies twice is reported in [`RecoveredRun::lost`]
/// rather than re-run forever — the caller's degradation ladder takes over.
pub(crate) fn run_chunks_recovering<R: Send>(
    workers: usize,
    n_chunks: usize,
    parent: &Guard,
    job: &(dyn Fn(usize, &Guard) -> ChunkResult<R> + Sync),
) -> RecoveredRun<R> {
    let mut run = run_chunks(workers, n_chunks, parent, job);
    let mut recovered = 0u64;
    let mut lost = Vec::new();
    let pool = CancelToken::new();
    let mut idx = 0;
    while idx < run.slots.len() {
        let is_retry = match &run.slots[idx] {
            Some(ChunkSlot::Done(result)) => {
                if result.event.is_terminal() {
                    // Higher-index chunks are legitimately skipped, exactly
                    // as the sequential engine never reaches them.
                    break;
                }
                idx += 1;
                continue;
            }
            // A quarantined panic: retry the chunk once.
            Some(ChunkSlot::Panicked(_)) => true,
            // Skipped only because a panic posted a first-terminal index
            // below it (any genuine terminal would have broken above).
            None => false,
        };
        let guard = parent.worker(&pool);
        match catch_unwind(AssertUnwindSafe(|| job(idx, &guard))) {
            Ok(result) => {
                if is_retry {
                    recovered += 1;
                }
                run.executed += 1;
                let terminal = result.event.is_terminal();
                run.slots[idx] = Some(ChunkSlot::Done(Box::new(result)));
                if terminal {
                    break;
                }
            }
            Err(payload) => {
                run.slots[idx] = Some(ChunkSlot::Panicked(payload));
                lost.push(idx);
                break;
            }
        }
        idx += 1;
    }
    RecoveredRun {
        run,
        recovered,
        lost,
    }
}

/// The stop-detail string for a merged pool interrupt, matching
/// [`crate::budget::Meter::stop_detail`]'s wording exactly so the verdict
/// surface does not depend on the engine.
pub(crate) fn interrupt_detail(interrupt: Interrupt, used: u64, noun: &str) -> String {
    match interrupt {
        Interrupt::Deadline => format!("wall-clock deadline expired after {used} {noun}(s)"),
        Interrupt::Cancelled => format!("cancelled after {used} {noun}(s)"),
    }
}

/// Split `total` budget units across `n_chunks` chunks: `chunk` gets
/// `total / n_chunks`, with the remainder spread over the first chunks. The
/// split depends only on the chunk index, never on the schedule, so chunk
/// outcomes stay deterministic. Saturates for effectively-unbounded budgets
/// (`u64::MAX` splits to `u64::MAX / n`, still effectively unbounded).
pub(crate) fn chunk_budget(total: u64, n_chunks: usize, chunk: usize) -> u64 {
    let n = n_chunks.max(1) as u64;
    let base = total / n;
    let remainder = total % n;
    base + u64::from((chunk as u64) < remainder)
}

/// Deterministic schedule perturbation for the parallel test suites.
///
/// `with_schedule` installs a seed in thread-local state; any pool started
/// on that thread while the closure runs claims its chunks in the seeded
/// `permutation` order instead of ascending order. The merge is
/// index-ordered, so a correct scheduler returns identical results under
/// every schedule — the differential suites assert exactly that across many
/// seeds, making interleaving bugs reproducible instead of lucky.
#[doc(hidden)]
pub mod sched_test {
    use ric_data::SplitMix64;
    use std::cell::Cell;

    thread_local! {
        static SCHEDULE_SEED: Cell<Option<u64>> = const { Cell::new(None) };
    }

    /// Run `f` with pools started on this thread claiming chunks in the
    /// order [`permutation`]`(seed, n)`. Restores the previous schedule on
    /// exit (including unwinds). Only affects pools whose coordinator is the
    /// calling thread; nested pools spawned from worker threads keep
    /// ascending claim order.
    pub fn with_schedule<T>(seed: u64, f: impl FnOnce() -> T) -> T {
        struct Restore(Option<u64>);
        impl Drop for Restore {
            fn drop(&mut self) {
                SCHEDULE_SEED.with(|s| s.set(self.0));
            }
        }
        let _restore = Restore(SCHEDULE_SEED.with(|s| s.replace(Some(seed))));
        f()
    }

    /// The seed installed by [`with_schedule`] on this thread, if any.
    pub(crate) fn current_seed() -> Option<u64> {
        SCHEDULE_SEED.with(Cell::get)
    }

    /// A seeded Fisher–Yates permutation of `0..n`.
    pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut out: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..i + 1);
            out.swap(i, j);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::SearchBudget;
    use crate::guard::FaultPlan;

    fn clear_chunk(ticks: u64) -> ChunkResult<u32> {
        ChunkResult {
            event: ChunkEvent::Clear,
            value: None,
            stats: ChunkStats {
                ticks,
                ..ChunkStats::default()
            },
        }
    }

    fn hit_chunk(value: u32) -> ChunkResult<u32> {
        ChunkResult {
            event: ChunkEvent::Hit,
            value: Some(value),
            stats: ChunkStats::default(),
        }
    }

    #[test]
    fn all_clear_merges_to_clear_with_summed_stats() {
        for workers in [1, 2, 4, 7] {
            let guard = Guard::new(&SearchBudget::default());
            let run = run_chunks(workers, 10, &guard, &|chunk, _g| clear_chunk(chunk as u64));
            assert_eq!(run.executed, 10);
            let merge = run.merge_search();
            assert!(matches!(merge.outcome, PoolOutcome::Clear));
            assert_eq!(merge.stats.ticks, (0..10).sum::<u64>());
        }
    }

    #[test]
    fn earliest_hit_wins_regardless_of_workers_and_schedule() {
        for workers in [1, 2, 4, 7] {
            for seed in 0..20 {
                let guard = Guard::new(&SearchBudget::default());
                let run = sched_test::with_schedule(seed, || {
                    run_chunks(workers, 16, &guard, &|chunk, _g| {
                        // Hits at chunks 5, 9, 12 — index 5 must win.
                        if [5, 9, 12].contains(&chunk) {
                            hit_chunk(chunk as u32)
                        } else {
                            clear_chunk(1)
                        }
                    })
                });
                match run.merge_search().outcome {
                    PoolOutcome::Hit(v) => assert_eq!(v, 5, "workers={workers} seed={seed}"),
                    other => panic!("expected a hit, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn stats_sum_stops_at_the_deciding_chunk() {
        let guard = Guard::new(&SearchBudget::default());
        let run = run_chunks(1, 8, &guard, &|chunk, _g| {
            if chunk == 3 {
                hit_chunk(3)
            } else {
                clear_chunk(10)
            }
        });
        let merge = run.merge_search();
        // Sequential would have examined chunks 0..=3 only.
        assert_eq!(merge.stats.ticks, 30);
        assert!(matches!(merge.outcome, PoolOutcome::Hit(3)));
    }

    #[test]
    fn chunk_panic_resumes_on_the_caller() {
        let guard = Guard::new(&SearchBudget::default());
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let run = run_chunks(4, 8, &guard, &|chunk, _g| {
                if chunk == 2 {
                    panic!("chunk 2 exploded");
                }
                clear_chunk(1)
            });
            run.merge_search()
        }));
        let payload = caught.expect_err("panic must propagate through the merge");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("unexpected payload");
        assert!(msg.contains("chunk 2 exploded"));
    }

    #[test]
    fn hit_below_a_panic_masks_the_panic_like_sequential_would() {
        // Sequential stops at chunk 1's hit and never runs chunk 6, so the
        // parallel merge must return the hit even though chunk 6 panicked.
        let guard = Guard::new(&SearchBudget::default());
        let run = run_chunks(4, 8, &guard, &|chunk, _g| {
            if chunk == 1 {
                hit_chunk(1)
            } else if chunk == 6 {
                panic!("chunk 6 exploded");
            } else {
                clear_chunk(1)
            }
        });
        match run.merge_search().outcome {
            PoolOutcome::Hit(v) => assert_eq!(v, 1),
            other => panic!("expected the hit, got {other:?}"),
        }
    }

    #[test]
    fn fault_trip_on_one_worker_interrupts_the_pool() {
        // The fault plan cancels after 5 per-worker guard ticks; every chunk
        // ticks its guard, so whichever worker reaches the trip first
        // broadcasts to the others through the pool token.
        let plan = FaultPlan::new().cancel_at_tick(5);
        let guard = Guard::new(&SearchBudget::default())
            .with_fault_plan(plan)
            .with_check_interval(0);
        let run = run_chunks(4, 64, &guard, &|_chunk, g| {
            for _ in 0..3 {
                if let Some(interrupt) = g.check() {
                    return ChunkResult {
                        event: ChunkEvent::Interrupted(interrupt),
                        value: None,
                        stats: ChunkStats::default(),
                    };
                }
            }
            clear_chunk(3)
        });
        assert!(
            run.executed < 64,
            "the broadcast must stop the pool early (executed {})",
            run.executed
        );
        match run.merge_search().outcome {
            PoolOutcome::Interrupted(Interrupt::Cancelled) => {}
            other => panic!("expected a cancellation, got {other:?}"),
        }
    }

    #[test]
    fn deadline_trip_is_reported_as_deadline_not_cancellation() {
        // Race shape: the worker on chunk 1 observes the real deadline and
        // broadcasts; the worker still finishing chunk 0 sees the broadcast
        // as a pool-token cancellation. The merge finds chunk 0 first but
        // must report Deadline — what the sequential engine, observing the
        // deadline directly, would report.
        let interrupted = |i: Interrupt| {
            Some(ChunkSlot::Done(Box::new(ChunkResult::<u32> {
                event: ChunkEvent::Interrupted(i),
                value: None,
                stats: ChunkStats::default(),
            })))
        };
        let run = PoolRun {
            slots: vec![
                interrupted(Interrupt::Cancelled),
                interrupted(Interrupt::Deadline),
            ],
            steals: 0,
            executed: 2,
            timeline: Vec::new(),
        };
        match run.merge_search().outcome {
            PoolOutcome::Interrupted(Interrupt::Deadline) => {}
            other => panic!("expected the deadline, got {other:?}"),
        }
    }

    #[test]
    fn recovery_retries_a_panicked_chunk_and_fills_skipped_slots() {
        use std::sync::atomic::AtomicBool;
        let died = AtomicBool::new(false);
        let guard = Guard::new(&SearchBudget::default());
        let rec = run_chunks_recovering(4, 8, &guard, &|chunk, _g| {
            if chunk == 2 && !died.swap(true, Ordering::Relaxed) {
                panic!("chunk 2 exploded once");
            }
            clear_chunk(1)
        });
        assert_eq!(rec.recovered, 1);
        assert!(rec.lost.is_empty());
        // Every slot resolved: chunks skipped past the panic were filled in.
        assert!(rec
            .run
            .slots
            .iter()
            .all(|s| matches!(s, Some(ChunkSlot::Done(_)))));
        let merge = rec.run.merge_search();
        assert!(matches!(merge.outcome, PoolOutcome::Clear));
        assert_eq!(merge.stats.ticks, 8, "full sequential-equivalent stats");
    }

    #[test]
    fn recovery_reports_a_twice_dead_chunk_as_lost() {
        let guard = Guard::new(&SearchBudget::default());
        let rec = run_chunks_recovering(2, 6, &guard, &|chunk, _g| {
            if chunk == 3 {
                panic!("chunk 3 always explodes");
            }
            clear_chunk(1)
        });
        assert_eq!(rec.recovered, 0);
        assert_eq!(rec.lost, vec![3]);
    }

    #[test]
    fn recovery_keeps_a_hit_below_a_dead_chunk() {
        // Sequential stops at chunk 1's hit; the dead chunk 6 is never
        // retried (it sits above the deciding index).
        let guard = Guard::new(&SearchBudget::default());
        let rec = run_chunks_recovering(4, 8, &guard, &|chunk, _g| {
            if chunk == 1 {
                hit_chunk(1)
            } else if chunk == 6 {
                panic!("chunk 6 exploded");
            } else {
                clear_chunk(1)
            }
        });
        assert!(rec.lost.is_empty(), "a masked panic is not a loss");
        match rec.run.merge_search().outcome {
            PoolOutcome::Hit(v) => assert_eq!(v, 1),
            other => panic!("expected the hit, got {other:?}"),
        }
    }

    #[test]
    fn recovery_retry_observes_the_injected_worker_panic_budget() {
        // fires = 1: the first death is injected mid-chunk by the guard, the
        // retry survives. fires = 2: the retry dies too and the chunk is lost.
        for (fires, expect_lost) in [(1u32, false), (2, true)] {
            let plan = FaultPlan::new().worker_panic_at_tick(0, fires);
            let guard = Guard::new(&SearchBudget::default())
                .with_fault_plan(plan)
                .with_check_interval(0);
            let rec = run_chunks_recovering(1, 4, &guard, &|_chunk, g| {
                if let Some(interrupt) = g.check() {
                    return ChunkResult {
                        event: ChunkEvent::Interrupted(interrupt),
                        value: None,
                        stats: ChunkStats::default(),
                    };
                }
                clear_chunk(1)
            });
            assert_eq!(
                !rec.lost.is_empty(),
                expect_lost,
                "fires={fires}: lost={:?}",
                rec.lost
            );
            if !expect_lost {
                assert_eq!(rec.recovered, 1);
            }
        }
    }

    #[test]
    fn chunk_budget_splits_exactly() {
        let total: u64 = 103;
        let split: u64 = (0..10).map(|c| chunk_budget(total, 10, c)).sum();
        assert_eq!(split, total);
        assert_eq!(chunk_budget(103, 10, 0), 11);
        assert_eq!(chunk_budget(103, 10, 3), 10);
        // Effectively-unbounded budgets stay effectively unbounded.
        assert!(chunk_budget(u64::MAX, 4, 0) >= u64::MAX / 4);
    }

    #[test]
    fn schedule_permutation_is_a_permutation() {
        for seed in 0..10 {
            let mut p = sched_test::permutation(seed, 33);
            p.sort_unstable();
            assert_eq!(p, (0..33).collect::<Vec<_>>());
        }
        assert_ne!(
            sched_test::permutation(1, 33),
            sched_test::permutation(2, 33),
            "different seeds give different schedules"
        );
    }

    #[test]
    fn steals_and_chunks_are_counted() {
        let guard = Guard::new(&SearchBudget::default());
        let run = run_chunks(2, 6, &guard, &|_c, _g| clear_chunk(1));
        assert_eq!(run.executed, 6);
        // With dynamic claiming steals are schedule-dependent; only the
        // invariant executed ≥ steals is stable.
        assert!(run.steals <= run.executed);
    }
}
