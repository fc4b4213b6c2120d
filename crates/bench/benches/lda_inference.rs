//! Criterion micro-benchmark: LDA table-intent inference (the per-table cost
//! Sato adds on top of Sherlock for the global context signal), on the
//! reference path (`estimate`: mega-string document, per-token `String`s,
//! fresh Gibbs buffers and a fresh dense `phi` table), the allocation-lean
//! scratch path (`estimate_with` + dense sampler built once: streaming
//! encoder + reused [`TopicScratch`]) and the sparse/alias sampler
//! (`estimate_with` + [`SamplerKind::SparseAlias`]: `O(k_d)` per token
//! against pre-built per-word alias tables).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sato_tabular::corpus::default_corpus;
use sato_topic::{LdaConfig, SamplerKind, TableIntentEstimator, TopicScratch};

fn bench_lda(c: &mut Criterion) {
    let corpus = default_corpus(200, 7);
    let mut group = c.benchmark_group("lda");
    group.sample_size(20);

    for topics in [16usize, 64] {
        let config = LdaConfig {
            num_topics: topics,
            train_iterations: 30,
            infer_iterations: 15,
            ..LdaConfig::default()
        };
        let estimator = TableIntentEstimator::fit(&corpus, config);
        let table = &corpus.tables[0];
        group.bench_with_input(
            BenchmarkId::new("infer_table_topic_vector", topics),
            &estimator,
            |b, est| b.iter(|| est.estimate(std::hint::black_box(table))),
        );
        // Dense sampler: its word-major `phi` table is built once (freeze
        // time), outside the timed loop.
        let dense = estimator.build_sampler(SamplerKind::Dense);
        let mut scratch = TopicScratch::new();
        group.bench_with_input(
            BenchmarkId::new("infer_table_topic_vector_scratch", topics),
            &estimator,
            |b, est| {
                b.iter(|| est.estimate_with(std::hint::black_box(table), &dense, &mut scratch))
            },
        );
        // Sparse/alias sampler: alias tables built once (freeze time), the
        // timed loop is the O(k_d)-per-token warm sampling path.
        let sparse = estimator.build_sampler(SamplerKind::SparseAlias);
        group.bench_with_input(
            BenchmarkId::new("infer_table_topic_vector_sparse_alias", topics),
            &estimator,
            |b, est| {
                b.iter(|| est.estimate_with(std::hint::black_box(table), &sparse, &mut scratch))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_lda);
criterion_main!(benches);
