//! Allocation counts for the three page operations of a cold read.
//!
//! Wraps the system allocator in a counting [`GlobalAlloc`] and prints
//! how many allocations, and how many bytes, each of these makes on the
//! seeded 8 KB page (a two-sentence in-place edit, the cold-dig shape):
//!
//! - one `tokenize` of the page;
//! - one `tokenize_pair` of the page and its edit;
//! - one `html_diff` of the page against its edit;
//! - one view, `serialize(rewrite_base(lex(..)))`.
//!
//! Each operation runs once to warm the thread-local pools, then once
//! counted. Allocation counts do not depend on timing, so the output is
//! the same on every run of the same build.
//!
//! ```text
//! cargo run --release -p aide-bench --bin alloc_count
//! ```

use aide_htmldiff::{html_diff, tokenize, tokenize_pair, Options};
use aide_htmlkit::url::Url;
use aide_htmlkit::{lex, rewrite_base, serialize};
use aide_util::rng::Rng;
use aide_workloads::edits::EditModel;
use aide_workloads::page::Page;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's own
// arguments; the counters are plain relaxed atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `op` once to warm, then once counted; prints one row.
fn count(name: &str, mut op: impl FnMut()) {
    op();
    let (a0, b0) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    op();
    let (a1, b1) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    println!("{name:<10} {:>8} {:>10}", a1 - a0, b1 - b0);
}

fn main() {
    let mut rng = Rng::new(7);
    let mut page = Page::generate(&mut rng, 8 * 1024);
    let old = page.render();
    EditModel::InPlaceEdit { sentences: 2 }.apply(&mut page, &mut rng, 1);
    let new = page.render();
    let base = Url::parse("http://www.usenix.org/index.html").unwrap_or_else(|e| panic!("{e:?}"));
    let opts = Options::default();

    println!("8 KB page, {} bytes", old.len());
    println!("{:<10} {:>8} {:>10}", "operation", "allocs", "bytes");
    count("tokenize", || {
        black_box(tokenize(black_box(&old)));
    });
    count("pair", || {
        black_box(tokenize_pair(black_box(&old), black_box(&new)));
    });
    count("html_diff", || {
        black_box(html_diff(black_box(&old), black_box(&new), &opts));
    });
    count("view", || {
        black_box(serialize(&rewrite_base(&lex(black_box(&old)), &base)));
    });
}
