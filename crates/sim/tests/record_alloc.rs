//! Hostile-input test for the execution-record decoder: section counts
//! come from the stream, so a short stream that claims a huge section
//! must fail without reserving memory its bytes do not back.
//!
//! A counting global allocator tracks the peak of live requested bytes.
//! This file holds a single test so no concurrent test skews the count.

use gpgpu_sim::record::RECORD_MAGIC;
use gpgpu_sim::ExecRecord;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

/// Requests above this are refused outright, so a regression fails
/// with an allocation error instead of mapping gigabytes of host memory.
const REFUSE_BYTES: usize = 256 << 20;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards the caller's layout (and pointer) unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the bookkeeping
// touches only atomics. Returning null from `alloc` reports failure, which
// the contract allows.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), SeqCst) + layout.size();
        PEAK.fetch_max(live, SeqCst);
        if layout.size() > REFUSE_BYTES {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), SeqCst);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn truncated_record_claiming_huge_sections_does_not_over_allocate() {
    // Magic, memory hash, then one kernel of one CTA of one warp that
    // claims 2^28 steps (12 bytes each, 3 GiB) -- and no step bytes.
    let mut stream = RECORD_MAGIC.to_vec();
    stream.extend_from_slice(&0u64.to_le_bytes());
    for n in [1u32, 1, 1, 1 << 28] {
        stream.extend_from_slice(&n.to_le_bytes());
    }
    // Every enclosing section claims 2^28 entries too.
    let mut wide = RECORD_MAGIC.to_vec();
    wide.extend_from_slice(&0u64.to_le_bytes());
    for _ in 0..4 {
        wide.extend_from_slice(&(1u32 << 28).to_le_bytes());
    }

    for bytes in [&stream, &wide] {
        let before = LIVE.load(SeqCst);
        PEAK.store(before, SeqCst);
        let result = ExecRecord::read_from(&mut bytes.as_slice());
        let peak = PEAK.load(SeqCst) - before;
        assert!(result.is_err(), "a truncated record must not decode");
        drop(result);
        assert!(
            peak < 1 << 20,
            "decoding a {}-byte stream reserved {peak} bytes",
            bytes.len()
        );
    }
}
