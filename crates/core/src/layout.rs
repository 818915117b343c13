//! Layout pins for the false-sharing audit (DESIGN.md §14).
//!
//! The hot-path memory overhaul relies on every independently-written
//! shared word sitting on its own cache line: the window descriptor, the
//! per-lane sub-structure slots, and each handle's private counter block.
//! These tests turn that assumption into a compile-visible contract — if a
//! refactor drops a `CachePadded` wrapper or lets two handles' blocks
//! share a line, the suite fails here instead of showing up as a silent
//! throughput regression on the next benchmark snapshot.

#![cfg(test)]

use crate::metrics::{HandleCounters, OpCounters};
use crate::substack::SubStack;
use crate::sync::atomic::AtomicU64;
use crate::window::ElasticWindow;
use crossbeam_utils::CachePadded;
use std::mem::{align_of, size_of};

/// The padding granule `CachePadded` promises on this target. x86_64
/// pads to 128 bytes (adjacent-line prefetcher pairs lines); most other
/// targets pad to at least 64.
fn line() -> usize {
    align_of::<CachePadded<AtomicU64>>()
}

#[test]
fn cache_padded_granule_is_a_real_cache_line() {
    assert!(line() >= 64, "CachePadded must span at least one line, got {}", line());
    #[cfg(target_arch = "x86_64")]
    assert_eq!(line(), 128, "x86_64 pads to the 128-byte prefetch pair");
    assert_eq!(size_of::<CachePadded<AtomicU64>>(), line());
}

#[test]
fn op_counter_block_fills_one_granule() {
    // A handle's block is written by that handle alone, so its fields
    // share one padded granule: one line per op instead of one per field,
    // and still never a line shared with another handle's block. The field
    // count is pinned so adding a counter forces this test (and the
    // snapshot/merge plumbing) to be revisited together.
    const FIELDS: usize = 10;
    assert_eq!(size_of::<OpCounters>(), FIELDS * size_of::<AtomicU64>());
    assert!(size_of::<OpCounters>() <= line(), "the block must fit one granule");
    assert_eq!(size_of::<HandleCounters>(), line());
    assert_eq!(align_of::<HandleCounters>(), line());
}

#[test]
fn window_descriptor_word_is_isolated() {
    // The window's descriptor pointer is the most contended word in the
    // engine; nothing else may share its line.
    assert_eq!(align_of::<ElasticWindow>(), line());
    assert_eq!(size_of::<ElasticWindow>(), line());
}

#[test]
fn sub_structure_lanes_do_not_share_lines() {
    // A lane slot (`CachePadded<SubStack<T>>`) must occupy a whole number
    // of padding granules so adjacent lanes in the `Box<[_]>` never split
    // a line. The unpadded payload is one word: the `top` pointer, with the
    // count carried in the node it points at.
    assert_eq!(size_of::<SubStack<u64>>(), size_of::<usize>());
    assert_eq!(size_of::<CachePadded<SubStack<u64>>>(), line());
    assert_eq!(align_of::<CachePadded<SubStack<u64>>>(), line());
}
