//! Benchmarks the RDT search strategies (linear sweep vs adaptive
//! gallop+bisect) and the device evaluation strategies (scalar
//! per-session programs vs batched u64-lane masks) over the same
//! stochastic model. Every variant measures the identical series; only
//! the hammer-session count (search) and wall time (eval) differ.

use criterion::{criterion_group, criterion_main, Criterion};
use vrd_bench::prepared_platform;
use vrd_core::algorithm::{test_loop_using, EvalStrategy, SearchStrategy};
use vrd_dram::TestConditions;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("rdt_search");
    group.sample_size(20);
    let conditions = TestConditions::foundational();

    // The platform is stateful (trap states evolve), which is exactly the
    // workload: repeated measurements of the same row. The search axis
    // runs on batch eval and the eval axis on adaptive search, the
    // strategy each shares with the product path; the batch engine
    // amortizes one threshold draw per (epoch, cell) over every probe of
    // the sweep.
    let variants = [
        ("test_loop_20/linear", SearchStrategy::Linear, EvalStrategy::Batch),
        ("test_loop_20/adaptive", SearchStrategy::Adaptive, EvalStrategy::Batch),
        ("test_loop_20_eval/scalar", SearchStrategy::Adaptive, EvalStrategy::Scalar),
        ("test_loop_20_eval/batch", SearchStrategy::Adaptive, EvalStrategy::Batch),
    ];
    for (name, search, eval) in variants {
        let (mut platform, row, sweep) = prepared_platform("M1", 2);
        group.bench_function(name, |b| {
            b.iter(|| test_loop_using(&mut platform, 0, row, &conditions, 20, &sweep, search, eval))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
