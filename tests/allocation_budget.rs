//! Counting-allocator budget for the allocation-free hot path (ISSUE 5).
//!
//! A global counting allocator (this integration test compiles as its own
//! binary, so the allocator affects only this file) pins the heap behavior
//! the run-arena refactor promises:
//!
//! * **zero** allocations in TA's steady-state drive loop (stepping with a
//!   leased arena and a reset session — the pure engine hot path);
//! * a **small, database-size-independent constant** per full steady-state
//!   run for TA / NRA / CA / FA (only output assembly — the answer `Vec`,
//!   the stats snapshot, the eviction-log copy — may allocate; nothing
//!   proportional to accesses or candidates);
//! * pinned per-query budgets for the serving layer: a cache-hit query
//!   costs only the fixed response/queueing overhead (independent of `N`
//!   and of how much state previous queries left in the worker's arena),
//!   and an uncached steady-state query stays within a fixed planning +
//!   response budget.
//!
//! Counts are asserted as upper bounds plus steadiness (two consecutive
//! measurements must agree) rather than exact values, so allocator-internal
//! details can't flake the build while real regressions — any per-access
//! allocation scales counts by orders of magnitude — are still caught.
//!
//! The file runs without the libtest harness (`harness = false` in the root
//! `Cargo.toml`): the counter is process-global, and the harness's own
//! threads allocate while a check measures. [`main`] runs the four checks
//! in order on the main thread instead, so libtest filters do not apply.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fagin_topk::prelude::*;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: delegates directly to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let result = f();
    (ALLOCS.load(Ordering::SeqCst) - before, result)
}

fn pseudo_db(n: usize, m: usize, salt: u64) -> Database {
    let cols: Vec<Vec<f64>> = (0..m)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let x = (j as u64).wrapping_mul(6364136223846793005).wrapping_add(
                        salt.wrapping_add(i as u64)
                            .wrapping_mul(1442695040888963407),
                    );
                    ((x >> 11) % 999983) as f64 / 999983.0
                })
                .collect()
        })
        .collect();
    Database::from_f64_columns(&cols).unwrap()
}

fn ta_steady_state_stepping_allocates_nothing() {
    let db = pseudo_db(2_000, 3, 41);
    let mut arena = RunScratch::new();
    let mut session = Session::new(&db);
    let ta = Ta::new();
    // Warm-up run sizes every arena buffer for this workload.
    let _ = ta.run_with(&mut session, &Min, 10, &mut arena).unwrap();

    session.reset(AccessPolicy::no_wild_guesses());
    let mut stepper = ta.stepper_in(&mut session, &Min, 10, &mut arena).unwrap();
    let (allocs, _) = counted(|| {
        while !stepper.is_halted() {
            stepper.step().unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "the steady-state TA drive loop must not touch the heap"
    );
    let out = stepper.finish();
    assert!(oracle::is_valid_top_k(&db, &Min, 10, &out.objects()));
}

/// The flight recorder must not change the zero-allocation contract: with
/// a recorder attached to the session, the same steady-state drive loop —
/// now narrating every round boundary, sorted batch, random lookup and the
/// halt into the preallocated ring — still never touches the heap. The
/// ring overwrites its oldest slot when full, so even saturating it stays
/// allocation-free.
fn ta_steady_state_stepping_stays_alloc_free_with_tracing_enabled() {
    let db = pseudo_db(2_000, 3, 41);
    let mut arena = RunScratch::new();
    let mut session = Session::new(&db);
    let ta = Ta::new();
    let _ = ta.run_with(&mut session, &Min, 10, &mut arena).unwrap();

    // A deliberately small ring: the run saturates it, exercising the
    // overwrite path inside the measured region.
    session.attach_recorder(FlightRecorder::new(256));
    session.reset(AccessPolicy::no_wild_guesses());
    if let Some(rec) = session.recorder_mut() {
        rec.clear();
        rec.set_query(1);
    }
    let mut stepper = ta.stepper_in(&mut session, &Min, 10, &mut arena).unwrap();
    let (allocs, _) = counted(|| {
        while !stepper.is_halted() {
            stepper.step().unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "tracing must not cost the steady-state drive loop any allocations"
    );
    let out = stepper.finish();
    assert!(oracle::is_valid_top_k(&db, &Min, 10, &out.objects()));

    let rec = session
        .detach_recorder()
        .expect("recorder survives the run");
    assert!(
        !rec.is_empty(),
        "the drive loop must actually have narrated itself into the ring"
    );
    assert!(
        rec.dropped() > 0,
        "a 256-slot ring must saturate on this workload (overwrite path hit)"
    );
    let kinds: Vec<EventKind> = rec.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::RoundBoundary));
    assert_eq!(
        kinds.last(),
        Some(&EventKind::Halt),
        "the halt is the newest event in the ring"
    );
    assert!(rec.iter().all(|e| e.query == 1), "every event is stamped");
}

/// Runs the same query repeatedly over one arena until the per-run
/// allocation count reaches its fixed point, and returns it. Reuse warms
/// capacities monotonically (recycled buffers — e.g. CA's per-mask score
/// groups, handed back in LIFO order — can shuffle for a few laps before
/// every one covers the workload's maximum demand), so the count decreases
/// to a constant; the last lap must attain the minimum observed.
fn steady_run_allocs(
    db: &Database,
    algo: &dyn TopKAlgorithm,
    policy: &AccessPolicy,
    arena: &mut RunScratch,
    session: &mut Session<'_>,
) -> u64 {
    let mut counts = Vec::new();
    for _ in 0..10 {
        session.reset(policy.clone());
        let (count, out) = counted(|| algo.run_with(session, &Min, 10, arena).unwrap());
        assert!(oracle::is_valid_top_k(db, &Min, 10, &out.objects()));
        counts.push(count);
    }
    let steady = *counts.last().expect("laps ran");
    let min = *counts.iter().min().expect("laps ran");
    assert_eq!(
        steady,
        min,
        "{}: allocation count must converge to its fixed point ({counts:?})",
        algo.name()
    );
    steady
}

fn steady_state_runs_cost_a_size_independent_constant() {
    type Case = (Box<dyn TopKAlgorithm>, AccessPolicy);
    let cases: Vec<Case> = vec![
        (Box::new(Ta::new()), AccessPolicy::no_wild_guesses()),
        (
            Box::new(Ta::new().memoized()),
            AccessPolicy::no_wild_guesses(),
        ),
        (
            Box::new(Nra::with_strategy(BookkeepingStrategy::LazyHeap)),
            AccessPolicy::no_random_access(),
        ),
        (Box::new(Ca::new(2)), AccessPolicy::no_wild_guesses()),
        (Box::new(Fa), AccessPolicy::no_wild_guesses()),
    ];
    // Two database sizes, 4x apart: per-run allocations must not move.
    let small = pseudo_db(1_500, 3, 43);
    let large = pseudo_db(6_000, 3, 43);
    for (algo, policy) in &cases {
        let mut arena = RunScratch::new();
        let mut s_small = Session::with_policy(&small, policy.clone());
        let at_small = steady_run_allocs(&small, algo.as_ref(), policy, &mut arena, &mut s_small);
        let mut s_large = Session::with_policy(&large, policy.clone());
        let at_large = steady_run_allocs(&large, algo.as_ref(), policy, &mut arena, &mut s_large);
        assert_eq!(
            at_small,
            at_large,
            "{}: steady-state allocations must be independent of N \
             (n=1500: {at_small}, n=6000: {at_large})",
            algo.name()
        );
        // Output assembly only: the answer Vec, the stats snapshot, the
        // eviction-log copy. Anything per-access would be thousands.
        assert!(
            at_large <= 8,
            "{}: {at_large} allocations per steady-state run (budget 8)",
            algo.name()
        );
    }
}

/// Per-query allocation budgets for the serving layer. The bounds are fixed
/// costs of the public interface (the reply channel, the response's items /
/// rationale / stats), not of the engine: the engine side is pinned to zero
/// by the tests above, and size-independence is asserted across a 4x
/// database-size spread here too.
fn service_queries_have_pinned_allocation_budgets() {
    let mut per_size = Vec::new();
    for n in [2_000usize, 8_000] {
        let db = Arc::new(pseudo_db(n, 3, 47));
        let service = TopKService::new(Arc::clone(&db), ServiceConfig::default().with_workers(1));
        let req = || QueryRequest::new(AggSpec::Average, 5);
        // Warm-up: populates the cache, sizes the worker's arena, and
        // exercises the queueing machinery once.
        let cold = service.query(req()).unwrap();
        assert_eq!(cold.source, AnswerSource::Cold);

        // Steady-state cache hit: fixed request/response overhead only —
        // no engine, no middleware, no per-object state.
        let (warm_up_hit, _) = counted(|| service.query(req()).unwrap());
        let (hit_allocs, hit) = counted(|| service.query(req()).unwrap());
        assert!(hit.is_cache_hit());
        assert_eq!(hit.stats.total(), 0);
        assert!(
            hit_allocs <= 24,
            "cache-hit query allocated {hit_allocs} times (budget 24; \
             warm-up measured {warm_up_hit})"
        );

        // Steady-state uncached query (cache cleared each time): planning +
        // response assembly; the run itself is arena-backed.
        service.clear_cache();
        let _ = service.query(req()).unwrap();
        service.clear_cache();
        let (uncached_allocs, out) = counted(|| service.query(req()).unwrap());
        assert_eq!(out.source, AnswerSource::Cold);
        assert!(
            uncached_allocs <= 96,
            "uncached query allocated {uncached_allocs} times (budget 96)"
        );
        per_size.push((hit_allocs, uncached_allocs));
    }
    // A 4x larger database must not change either budget: nothing on the
    // per-query path scales with N. The queueing machinery (thread
    // park/unpark, channel blocks) can jitter by a couple of allocations
    // between runs, so allow a small tolerance here — the engine side is
    // pinned exactly by the algorithm-level tests above.
    let (hit_s, un_s) = per_size[0];
    let (hit_l, un_l) = per_size[1];
    assert!(
        hit_s.abs_diff(hit_l) <= 4 && un_s.abs_diff(un_l) <= 4,
        "per-query allocations must be independent of N \
         (small {:?} vs large {:?})",
        per_size[0],
        per_size[1]
    );
}

fn main() {
    let checks: [(&str, fn()); 4] = [
        (
            "ta_steady_state_stepping_allocates_nothing",
            ta_steady_state_stepping_allocates_nothing,
        ),
        (
            "ta_steady_state_stepping_stays_alloc_free_with_tracing_enabled",
            ta_steady_state_stepping_stays_alloc_free_with_tracing_enabled,
        ),
        (
            "steady_state_runs_cost_a_size_independent_constant",
            steady_state_runs_cost_a_size_independent_constant,
        ),
        (
            "service_queries_have_pinned_allocation_budgets",
            service_queries_have_pinned_allocation_budgets,
        ),
    ];
    // `cargo test -- --list` enumerates the checks without running them.
    if std::env::args().any(|arg| arg == "--list") {
        for (name, _) in checks {
            println!("{name}: test");
        }
        return;
    }
    // Output in libtest's shape, so the run reads like the other suites.
    println!("\nrunning {} tests", checks.len());
    let start = Instant::now();
    for (name, check) in checks {
        check();
        println!("test {name} ... ok");
    }
    println!(
        "\ntest result: ok. {} passed; 0 failed; 0 ignored; 0 measured; 0 filtered out; \
         finished in {:.2}s\n",
        checks.len(),
        start.elapsed().as_secs_f64()
    );
}
