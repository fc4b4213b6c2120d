//! Allocation-count regression test for the warm topic-memo hit path.
//!
//! With the topic memo on, a batch whose every table hits the memo skips
//! Gibbs inference but still encodes each table's cells to look it up.
//! The contract is that once a `ServingScratch` is warm, such a batch
//! performs no heap allocation beyond its outputs: `embed_batch` allocates
//! nothing, and `predict_batch` allocates exactly what it allocates
//! without a memo (the returned predictions and the CRF decoder's
//! buffers).
//! A counting global allocator makes that a hard assertion, and the same
//! pass re-checks bit-parity with a scratch that has no memo.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a concurrent test would pollute the window between
//! the two counter reads (same convention as `alloc_free_embed`).

use sato::{SatoConfig, SatoModel, SatoVariant, ServingScratch};
use sato_tabular::corpus::default_corpus;
use sato_tabular::table::Table;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocation_count() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn bits(rows: &sato_nn::Matrix) -> Vec<u32> {
    (0..rows.rows())
        .flat_map(|r| rows.row(r).iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn warm_topic_memo_hits_allocate_nothing_beyond_outputs() {
    let mut config = SatoConfig::fast();
    config.network.epochs = 5;
    config.lda.train_iterations = 15;
    config.crf.epochs = 2;
    let corpus = default_corpus(16, 21);
    let predictor = SatoModel::train(&corpus, config, SatoVariant::Full).into_predictor();
    let batch: Vec<&Table> = corpus.tables.iter().take(6).collect();

    let mut scratch = ServingScratch::new().with_topic_memo();
    // Warm-up: the first pass fills the memo, the next two run every table
    // as a hit and size every buffer on every fan-out worker.
    for _ in 0..3 {
        predictor.embed_batch(&batch, &mut scratch);
    }
    assert_eq!(scratch.topic_memo_len(), batch.len());
    let hits = scratch.topic_memo_hits();

    let before = allocation_count();
    for _ in 0..5 {
        predictor.embed_batch(&batch, &mut scratch);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "a warm all-hit embed_batch must not allocate (got {} allocations over 5 batches)",
        after - before
    );
    assert_eq!(
        scratch.topic_memo_hits() - hits,
        5 * batch.len() as u64,
        "every table of every measured batch hit the memo"
    );

    // `predict_batch` allocates its outputs (and the CRF decoder's
    // per-table buffers) whether or not a memo is on: an all-hit batch
    // allocates exactly what the same batch allocates on a warm scratch
    // without a memo.
    let mut plain = ServingScratch::new();
    let predict_allocations = |scratch: &mut ServingScratch| {
        predictor.predict_batch(&batch, scratch);
        let before = allocation_count();
        let predictions = predictor.predict_batch(&batch, scratch);
        (allocation_count() - before, predictions)
    };
    let (without_memo, want) = predict_allocations(&mut plain);
    let (with_memo, predictions) = predict_allocations(&mut scratch);
    assert_eq!(
        with_memo, without_memo,
        "a warm all-hit predict_batch allocates nothing beyond a memo-less one"
    );

    // The hits are bit-identical to inference without a memo.
    assert_eq!(predictions, want);
    let want = bits(predictor.embed_batch(&batch, &mut plain));
    assert_eq!(bits(predictor.embed_batch(&batch, &mut scratch)), want);
}
