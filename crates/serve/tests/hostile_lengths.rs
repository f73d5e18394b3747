//! A frame header claiming a 64 MiB payload, followed by EOF, must fail
//! without an allocation in proportion to the claim: any client can
//! send such a header before a single payload byte. The test binary
//! runs under an allocator that records the largest request and
//! refuses any above a cap, so the outcome does not depend on whether
//! the host would overcommit the claimed buffer.

use schevo_serve::{read_frame, FrameError, MAX_FRAME_LEN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Refused outright: above anything a frame decoder may reserve.
const CAP: usize = 64 << 20;

struct Capped;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards to `System`, only refusing (null) oversized requests,
// which callers must already handle.
unsafe impl GlobalAlloc for Capped {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        if new_size > CAP {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Capped = Capped;

#[test]
fn a_64_mib_claim_then_eof_fails_without_proportional_allocation() {
    assert_eq!(
        MAX_FRAME_LEN,
        64 << 20,
        "the claim is the largest legal length"
    );
    for tail in [&b""[..], &b"a few payload bytes"[..]] {
        let mut wire = MAX_FRAME_LEN.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 20]);
        wire.extend_from_slice(tail);
        LARGEST.store(0, Ordering::Relaxed);
        let got = read_frame(&mut Cursor::new(wire));
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            matches!(got, Err(FrameError::Torn { got, want }) if got == tail.len() && want == 64 << 20),
            "{got:?}"
        );
        assert!(
            largest < 1 << 20,
            "a {largest}-byte request for a {}-byte frame",
            tail.len()
        );
    }
}
