//! The counting global allocator of the allocation-counting test
//! binaries. Each includes this file by `#[path]`, so no manifest names
//! it, and is a test binary of its own, since a global allocator is
//! process-wide.
//!
//! Inside [`counted`], and on the calling thread only, it counts fresh
//! allocations (`alloc`, `alloc_zeroed`), reallocations, and the bytes
//! both ask for. Across the process it keeps the live bytes, and aborts
//! once they pass [`CEILING_BYTES`]: a test whose code under measurement
//! runs away (an estimator multiplying a 12-term query's factors out,
//! 7^12 terms) is stopped instead of taking the host with it.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The most live bytes a counting binary may hold: half a gibibyte.
pub const CEILING_BYTES: usize = 512 << 20;

/// What one thread allocated inside [`counted`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Fresh allocations: `alloc` and `alloc_zeroed`.
    pub allocs: u64,
    /// Reallocations: a buffer grown or shrunk.
    pub reallocs: u64,
    /// Bytes asked for by both, a reallocation's new size in full.
    pub bytes: u64,
}

impl Tally {
    /// Allocations of either kind: fresh ones and a buffer's growth.
    pub fn all(self) -> u64 {
        self.allocs + self.reallocs
    }
}

thread_local! {
    /// `Some` while this thread counts.
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

fn tally(fresh: bool, size: usize) {
    let _ = TALLY.try_with(|t| {
        if let Some(mut tally) = t.get() {
            if fresh {
                tally.allocs += 1;
            } else {
                tally.reallocs += 1;
            }
            tally.bytes += size as u64;
            t.set(Some(tally));
        }
    });
}

fn grow_live(by: usize) {
    if LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by > CEILING_BYTES {
        let _ = std::io::stderr().write_all(b"counting allocator: live bytes over the ceiling\n");
        std::process::abort();
    }
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// around it touches only an atomic and a const-initialised,
// destructor-free thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow_live(layout.size());
        tally(true, layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow_live(layout.size());
        tally(true, layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        match new_size.checked_sub(layout.size()) {
            Some(grown) => grow_live(grown),
            None => {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        tally(false, new_size);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns what this thread allocated meanwhile.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    TALLY.with(|t| t.set(Some(Tally::default())));
    let out = f();
    let tally = TALLY.with(|t| t.take()).expect("counting was on");
    (out, tally)
}
