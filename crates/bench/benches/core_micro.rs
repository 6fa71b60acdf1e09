//! Microbenchmarks of the core primitives every experiment leans on.

use bt_model::params::uniform_phi;
use bt_model::trading::trading_power_curve;
use bt_model::transitions::TransitionKernel;
use bt_model::{DownloadState, ModelParams};
use bt_swarm::piece::Bitfield;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro");
    group.bench_function("trading_power_curve_b200", |b| {
        let phi = uniform_phi(200);
        b.iter(|| std::hint::black_box(trading_power_curve(200, &phi).unwrap()))
    });
    group.bench_function("kernel_successors", |b| {
        let params = ModelParams::builder()
            .pieces(200)
            .max_connections(7)
            .neighbor_set_size(40)
            .build()
            .unwrap();
        let kernel = TransitionKernel::new(&params).unwrap();
        let state = DownloadState::new(3, 100, 20);
        b.iter(|| std::hint::black_box(kernel.successors(state)))
    });
    group.bench_function("bitfield_can_trade_b200", |b| {
        let mut x = Bitfield::new(200);
        let mut y = Bitfield::new(200);
        for p in 0..100 {
            x.set(p);
            y.set(p + 50);
        }
        b.iter(|| std::hint::black_box(x.can_trade_with(&y)))
    });
    group.finish();
}

criterion_group!(benches, bench_micro);
criterion_main!(benches);
