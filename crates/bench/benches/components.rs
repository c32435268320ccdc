//! Criterion benches for individual substrates: event queue, fair-share
//! allocator, collective lowering, and workload construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpi_sim::ProgramBuilder;
use net_model::fair_share::{max_min_fair, FlowEndpoints};
use sim_core::{DetRng, EventQueue, SimTime};
use workloads::{ft_programs, FtClass, FtConfig};

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for n in [1_000u64, 100_000] {
        group.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                let mut rng = DetRng::new(1);
                for i in 0..n {
                    q.push(SimTime(rng.gen_range(0, 1_000_000)), i);
                }
                let mut count = 0;
                while q.pop().is_some() {
                    count += 1;
                }
                count
            })
        });
    }
    group.finish();
}

fn bench_fair_share(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_min_fair");
    for flows in [8usize, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(flows), &flows, |b, &n| {
            let mut rng = DetRng::new(7);
            let endpoints: Vec<FlowEndpoints> = (0..n)
                .map(|_| FlowEndpoints {
                    src: rng.gen_range(0, 16) as usize,
                    dst: rng.gen_range(0, 16) as usize,
                })
                .collect();
            b.iter(|| max_min_fair(&endpoints, 16, 100.0, 1000.0))
        });
    }
    group.finish();
}

fn bench_collective_lowering(c: &mut Criterion) {
    let mut group = c.benchmark_group("lower_collectives");
    for ranks in [8usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("alltoall", ranks), &ranks, |b, &n| {
            b.iter(|| {
                let mut builder = ProgramBuilder::new(0, n);
                builder.alltoall(4096);
                builder.build().expanded().count()
            })
        });
        group.bench_with_input(BenchmarkId::new("barrier", ranks), &ranks, |b, &n| {
            b.iter(|| {
                let mut builder = ProgramBuilder::new(0, n);
                builder.barrier();
                builder.build().expanded().count()
            })
        });
    }
    group.finish();
}

fn bench_workload_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("build_workload");
    group.bench_function("ft_class_c_8ranks", |b| {
        b.iter(|| ft_programs(&FtConfig::paper(FtClass::C, 8)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_fair_share,
    bench_collective_lowering,
    bench_workload_build
);
criterion_main!(benches);
