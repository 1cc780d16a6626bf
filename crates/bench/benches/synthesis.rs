//! Criterion benchmarks for the synthesis substrate, the project's
//! stand-in for the paper's 15-minute Vivado runs: the optimize, LUT-map
//! and full synthesis stages on the exact 8×8 multiplier, datapath
//! generation and true characterization of a 3×3 accelerator, BDD
//! equivalence of an 8-bit adder, and bit-true stream simulation of a
//! 32×32 image.

use clapped_accel::{build_datapath, characterize, simulate_stream, AcceleratorSpec, CharacterizeConfig};
use clapped_axops::Catalog;
use clapped_imgproc::{Image, QuantKernel, SynthKind};
use clapped_netlist::bdd::check_equivalence;
use clapped_netlist::{map_luts, optimize, synthesize, MapStrategy, SynthConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_netlist_flow(c: &mut Criterion) {
    let catalog = Catalog::standard();
    let m = catalog.get("mul8s_exact").expect("present");
    let netlist = m.netlist().clone();
    c.bench_function("optimize_mul8", |b| b.iter(|| optimize(black_box(&netlist))));
    let opt = optimize(&netlist);
    c.bench_function("map_luts_mul8_depth", |b| {
        b.iter(|| map_luts(black_box(&opt), 6, MapStrategy::Depth).expect("mappable"))
    });
    c.bench_function("map_luts_mul8_area", |b| {
        b.iter(|| map_luts(black_box(&opt), 6, MapStrategy::Area).expect("mappable"))
    });
    c.bench_function("synthesize_mul8_full", |b| {
        b.iter(|| synthesize(black_box(&netlist), &SynthConfig::default()).expect("flow"))
    });
}

fn bench_accelerator_characterization(c: &mut Criterion) {
    let catalog = Catalog::standard();
    let m = catalog.get("mul8s_tr4").expect("present");
    let spec = AcceleratorSpec::uniform_2d(64, 3, &m);
    let cfg = CharacterizeConfig::default();
    c.bench_function("build_datapath_3x3", |b| {
        b.iter(|| build_datapath(black_box(&spec), 8).expect("valid spec"))
    });
    c.bench_function("characterize_3x3_true", |b| {
        b.iter(|| characterize(black_box(&spec), &cfg).expect("flow"))
    });
}

fn bench_verification(c: &mut Criterion) {
    // Formal equivalence on an 8-bit adder (BDD-tractable).
    let mut n = clapped_netlist::Netlist::new("add8");
    let a = n.input_bus("a", 8);
    let b = n.input_bus("b", 8);
    let (s, cout) = clapped_netlist::bus::ripple_carry_add(&mut n, &a, &b, None);
    n.output_bus("s", &s);
    n.output("c", cout);
    let opt = optimize(&n);
    c.bench_function("bdd_equivalence_add8", |bch| {
        bch.iter(|| check_equivalence(black_box(&n), black_box(&opt), 500_000).expect("fits"))
    });

    // Bit-true accelerator stream simulation of a 32x32 image.
    let catalog = Catalog::standard();
    let m = catalog.get("mul8s_tr4").expect("present");
    let spec = AcceleratorSpec::uniform_2d(32, 3, &m);
    let kernel = QuantKernel::gaussian(3, 0.85);
    let img = Image::synthetic(SynthKind::SmoothField, 32, 32, 1);
    c.bench_function("stream_sim_32px", |bch| {
        bch.iter(|| {
            simulate_stream(
                black_box(&spec),
                black_box(&img),
                kernel.coeffs_2d(),
                kernel.shift(),
            )
            .expect("simulates")
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_netlist_flow, bench_accelerator_characterization, bench_verification
}
criterion_main!(benches);
