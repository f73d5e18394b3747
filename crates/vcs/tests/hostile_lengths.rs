//! A pack whose object count was flipped to a huge value must fail to
//! decode without any allocation in proportion to that count. The test
//! binary runs under an allocator that records the largest request and
//! refuses any above a cap, so the outcome does not depend on whether
//! the host would overcommit a multi-gigabyte reservation.

use schevo_vcs::pack::{read_pack, write_pack};
use schevo_vcs::repo::{FileChange, Repository};
use schevo_vcs::timestamp::Timestamp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Refused outright: far above anything a small pack needs.
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

fn sample_pack() -> Vec<u8> {
    let mut repo = Repository::new("hostile");
    for (day, ddl) in ["CREATE TABLE t (a INT);", "CREATE TABLE t (a INT, b INT);"]
        .into_iter()
        .enumerate()
    {
        repo.commit(
            &[FileChange::write("schema.sql", ddl)],
            "ann",
            Timestamp::from_date(2018, 1, day as u8 + 1),
            "edit",
        )
        .expect("commit");
    }
    write_pack(&repo)
}

#[test]
fn hostile_object_counts_fail_without_proportional_allocation() {
    let pack = sample_pack();
    assert!(read_pack(&pack).is_ok());
    for count in [u32::MAX, 0xFF00_0009, 1 << 24] {
        let mut bytes = pack.clone();
        bytes[5..9].copy_from_slice(&count.to_le_bytes());
        LARGEST.store(0, Ordering::Relaxed);
        assert!(read_pack(&bytes).is_err(), "count {count:#x} decoded");
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            largest < 16 * pack.len() + 4096,
            "count {count:#x}: a {largest}-byte request for a {}-byte pack",
            pack.len()
        );
    }
}
