//! Allocation bounds of the `.mabt` reader: a file whose header or block
//! header claims more than the file holds must be refused with an error by
//! every read path, and no path may allocate for the claim.
//!
//! The heap is counted process-wide at the global allocator, so this file
//! is its own test binary with a single test function: no other test's
//! allocations can land in the count.

use mab_traces::format::RECORD_COUNT_OFFSET;
use mab_traces::{record_app_to_file, stats, TraceReader};
use mab_workloads::suites;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator with live and peak byte counters. It refuses any
/// single block over [`REFUSED_BYTES`], so a reader that trusts a claimed
/// size aborts here ("memory allocation of N bytes failed") instead of
/// taking the machine's memory.
struct Counting;

const REFUSED_BYTES: usize = 64 << 20;

// Plain statistics: they order nothing else, so Relaxed suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method either returns null (a refusal `GlobalAlloc`
// permits) or forwards its arguments unchanged to `System` and returns
// `System`'s result; the counters never influence a pointer or layout.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > REFUSED_BYTES {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (so `System`)
        // returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > REFUSED_BYTES {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller upholds `realloc`'s contract for a block
        // `System` returned.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // A moving realloc holds both blocks for a moment.
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// Most heap a read of a crafted file may hold above what was live before.
const BOUND_BYTES: usize = 1 << 20;

/// Runs `read` and returns its result with the most heap it held at once.
fn peak_of<T>(read: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = read();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mab-traces-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.mabt"))
}

fn with_record_count(bytes: &[u8], count: u64) -> Vec<u8> {
    let at = RECORD_COUNT_OFFSET as usize;
    let mut bytes = bytes.to_vec();
    bytes[at..at + 8].copy_from_slice(&count.to_le_bytes());
    bytes
}

/// A read path through a trace; true when it returned `Err`.
type ReadPath = fn(&mut TraceReader) -> bool;

/// Every read path over `path`: each must return `Err` within the bound.
fn check_every_path(path: &Path) {
    let name = path.display();
    let paths: [(&str, ReadPath); 3] = [
        ("next_record", |r| loop {
            match r.next_record() {
                Ok(Some(_)) => {}
                Ok(None) => break false,
                Err(_) => break true,
            }
        }),
        ("read_all", |r| r.read_all().is_err()),
        ("stats", |r| stats::analyze_file(r, 8).is_err()),
    ];
    for (label, read) in paths {
        let (refused, peak) = peak_of(|| {
            let mut reader = TraceReader::open(path).expect("the header itself is valid");
            read(&mut reader)
        });
        assert!(refused, "{label} accepted {name}");
        assert!(
            peak < BOUND_BYTES,
            "{label} held {peak} bytes reading {name}"
        );
    }
}

#[test]
fn claimed_sizes_never_drive_allocation() {
    let app = suites::app_by_name("mcf").expect("mcf is in the suite");
    let healthy = temp_path("mcf");
    record_app_to_file(&app, 7, 5_000, &healthy).expect("record mcf");
    let bytes = std::fs::read(&healthy).expect("read back");
    let data_start = mab_traces::format::HEADER_FIXED_LEN + "app:mcf".len();

    // A valid header claiming 2^40 records, then one block header that
    // claims a 4 GiB payload of as many records, and nothing else.
    let mut block = with_record_count(&bytes[..data_start], 1 << 40);
    block.extend_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
    block.extend_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
    assert_eq!(block.len(), 49);
    let path = temp_path("huge-block");
    std::fs::write(&path, &block).expect("write crafted file");
    check_every_path(&path);

    // The healthy file with its header count raised past what it holds.
    for count in [1u64 << 40, 1 << 62] {
        let path = temp_path(&format!("count-{count}"));
        std::fs::write(&path, with_record_count(&bytes, count)).expect("write crafted file");
        check_every_path(&path);
    }
    std::fs::remove_dir_all(healthy.parent().expect("temp dir")).ok();
}
