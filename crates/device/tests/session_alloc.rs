//! The device's write-before-read detector is sized by the commands it
//! has applied, not by the image: a session over a 64 MiB target that
//! applies three commands allocates a few small spans, never a map of
//! the target.
//!
//! Allocations are counted by a `#[global_allocator]` wrapper, so this
//! file holds a single test: a second one running on another thread
//! would count into the same totals.

use ipr_delta::Command;
use ipr_device::Device;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// System-allocator wrapper that counts allocated bytes, including
/// `alloc_zeroed` and the new size of every `realloc`.
struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn session_allocation_follows_commands_not_target() {
    const TARGET: u64 = 64 << 20;
    const SOURCE: u64 = 4096;
    let image: Vec<u8> = (0..SOURCE).map(|i| (i % 251) as u8).collect();
    let commands = [
        Command::copy(0, TARGET - SOURCE, SOURCE),
        Command::copy(0, 0, SOURCE),
        Command::add(TARGET / 2, vec![0xab; 64]),
    ];
    let mut dev = Device::new(TARGET as usize);
    dev.flash(&image).unwrap();

    let before = ALLOC_BYTES.load(Relaxed);
    let mut session = dev.begin_update(SOURCE, TARGET).unwrap();
    for cmd in &commands {
        session.apply_command(cmd).unwrap();
    }
    let covered = session.commit().unwrap_err();
    let allocated = ALLOC_BYTES.load(Relaxed) - before;

    assert_eq!(
        covered,
        ipr_device::DeviceError::IncompleteUpdate {
            covered: 2 * SOURCE + 64,
            target_len: TARGET
        }
    );
    assert!(
        allocated < 64 << 10,
        "session over a {TARGET} B target allocated {allocated} B for 3 commands"
    );
    assert_eq!(&dev.storage()[..SOURCE as usize], &image[..]);
    assert_eq!(&dev.storage()[(TARGET - SOURCE) as usize..], &image[..]);
}
