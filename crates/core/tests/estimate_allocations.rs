//! A steady-state estimate allocates nothing, however long the query.
//!
//! Its own test binary: the counting allocator is process-global. Only
//! the test's own thread is counted, and only between `counted`'s two
//! marks. The allocator also enforces a ceiling on live bytes: an
//! estimator that multiplies a 12-term query's factors out (7^12 terms)
//! is stopped at half a gibibyte instead of taking the host with it.

use seu_core::{Expansion, SubrangeEstimator, UsefulnessEstimator};
use seu_engine::Query;
use seu_repr::{MaxWeightMode, Representative, SubrangeScheme, TermStats};
use seu_text::TermId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};

const CEILING_BYTES: usize = 512 << 20;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// `Some(n)`: this thread is being counted and has allocated `n` times.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// around it touches only an atomic and a const-initialised, destructor-free
// thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed) + layout.size() > CEILING_BYTES {
            let _ =
                std::io::stderr().write_all(b"estimate_allocations: over the 512 MiB ceiling\n");
            std::process::abort();
        }
        ALLOCATIONS.with(|n| n.set(n.get().map(|n| n + 1)));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns how often this thread allocated meanwhile
/// (`realloc` goes through `alloc`, so growth counts).
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let out = f();
    let n = ALLOCATIONS.with(|n| n.take()).expect("counting was on");
    (out, n)
}

/// A representative holding `k` terms and the query asking for all of
/// them: every factor is a full seven-choice one.
fn fixture(k: u32) -> (Representative, Query) {
    let stats = (0..k)
        .map(|i| TermStats {
            p: 0.05 + 0.03 * i as f64,
            mean: 0.10 + 0.01 * i as f64,
            std_dev: 0.04 + 0.005 * i as f64,
            max: 0.45 + 0.04 * i as f64,
        })
        .collect();
    let u = 1.0 / (k as f64).sqrt();
    (
        Representative::from_parts(1000, stats, 0),
        Query::new((0..k).map(|i| (TermId(i), u))),
    )
}

#[test]
fn a_steady_state_estimate_allocates_nothing() {
    let walk = SubrangeEstimator::paper_six_subrange();
    let cells = 4096;
    let grid = SubrangeEstimator::new(
        SubrangeScheme::paper_six(),
        MaxWeightMode::Stored,
        Expansion::Grid { cells },
    );
    // (The 12-term walks are the slow ones: one threshold is enough.)
    let all: &[f64] = &[0.1, 0.2, 0.4];
    for (k, thresholds) in [(1, all), (3, all), (6, all), (12, &all[1..2])] {
        let (repr, query) = fixture(k);
        assert_eq!(walk.factors(&repr, &query).len(), k as usize);
        for &threshold in thresholds {
            // The first call of a length grows the thread's buffers.
            let warm = walk.estimate(&repr, &query, threshold);
            let (again, allocations) = counted(|| walk.estimate(&repr, &query, threshold));
            assert_eq!(allocations, 0, "{k} terms at T={threshold}");
            assert_eq!(
                (again.no_doc.to_bits(), again.avg_sim.to_bits()),
                (warm.no_doc.to_bits(), warm.avg_sim.to_bits())
            );
            assert!(again.no_doc > 0.0 && again.no_doc <= 1000.0, "{again:?}");

            // The grid rounds every deposit down to its cell edge — one
            // cell per factor at most — and leaves out the cell that
            // straddles the threshold: its tail lies between the exact
            // tail at T and the exact tail k + 1 cells higher.
            let reach: f64 = walk
                .factors(&repr, &query)
                .iter()
                .map(|f| f.iter().map(|&(_, e)| e).fold(0.0, f64::max))
                .sum();
            let step = reach / cells as f64;
            let coarse = grid.estimate(&repr, &query, threshold).no_doc;
            let higher = walk
                .estimate(&repr, &query, threshold + (k + 1) as f64 * step)
                .no_doc;
            assert!(
                higher - 1e-9 <= coarse && coarse <= again.no_doc + 1e-9,
                "{k} terms at T={threshold}: {higher} <= {coarse} <= {}",
                again.no_doc
            );
        }
    }
    // A sweep allocates its answer and nothing else.
    let (repr, query) = fixture(6);
    let thresholds = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
    let (swept, allocations) = counted(|| walk.estimate_sweep(&repr, &query, &thresholds));
    assert_eq!(swept.len(), thresholds.len());
    assert_eq!(allocations, 1);
}
