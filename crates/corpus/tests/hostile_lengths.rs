//! A shard frame whose header claims a 64 MiB record, followed by EOF,
//! must surface as corruption without an allocation in proportion to
//! the claim. The test binary runs under an allocator that records the
//! largest request and refuses any above a cap, so the outcome does not
//! depend on whether the host would overcommit the claimed buffer.

use schevo_corpus::store::{generate_into_store, ShardStore, StoreEvent};
use schevo_corpus::universe::UniverseConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Refused outright: above anything the stream reader may reserve.
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
fn a_64_mib_claim_then_eof_is_corruption_without_proportional_allocation() {
    let dir = std::env::temp_dir().join(format!("schevo_hostile_shard_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    generate_into_store(UniverseConfig::small(7, 400), &dir, 1).expect("store");
    // Shard magic, then one header claiming the largest legal record.
    let mut shard = b"SCHEVOST".to_vec();
    shard.extend_from_slice(&(64u32 << 20).to_le_bytes());
    shard.extend_from_slice(&[0u8; 20]);
    std::fs::write(dir.join("shard-000.pack"), shard).expect("overwrite shard");

    let store = ShardStore::open(&dir).expect("manifest still valid");
    LARGEST.store(0, Ordering::Relaxed);
    let mut stream = store.stream();
    let first = stream.next_event();
    let largest = LARGEST.load(Ordering::Relaxed);
    match first {
        Some(StoreEvent::Corrupt {
            shard,
            offset,
            detail,
        }) => {
            assert_eq!((shard, offset), (0, 8));
            assert_eq!(
                detail,
                format!("truncated frame: 0 of {} bytes", 64u32 << 20)
            );
        }
        other => panic!("expected corruption, got {other:?}"),
    }
    assert!(stream.next_event().is_none());
    assert!(
        largest < 1 << 20,
        "a {largest}-byte request for an empty frame"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
