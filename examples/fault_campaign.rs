//! End-to-end fault-injection campaign over a synthesized approximate
//! multiplier: rank every stuck-at site at the netlist level, then
//! measure true application-quality degradation for the worst nets.
//!
//! Run with: `cargo run --release --example fault_campaign [-- --jobs N]`
//!
//! `--jobs N` sets the evaluation-engine thread count (default: all
//! cores; results are bit-identical at any setting).

use clapped::axops::{Catalog, Mul8s};
use clapped::core::{Clapped, FaultCampaignConfig};
use clapped::dse::Configuration;
use clapped::exec::{Engine, ExecConfig};
use clapped::netlist::{FaultKind, FaultSet};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::error::Error;

/// Parses `--jobs N` / `--jobs=N` from the command line (0 = auto).
fn jobs_from_args() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--jobs" {
            return args.next().and_then(|v| v.parse().ok()).unwrap_or(0);
        }
        if let Some(v) = a.strip_prefix("--jobs=") {
            return v.parse().unwrap_or(0);
        }
    }
    0
}

fn main() -> Result<(), Box<dyn Error>> {
    clapped::obs::init_trace_from_args();
    let jobs = jobs_from_args();
    let engine = Engine::new(ExecConfig::with_jobs(jobs));
    println!("evaluation engine: {} worker thread(s)", engine.jobs());

    // 1. Gate-level campaign on the operator's synthesized netlist.
    let catalog = Catalog::standard();
    let approx = catalog.get("mul8s_1KVL").expect("paper alias resolves");
    let netlist = approx.netlist();
    println!(
        "operator {}: {} signals, {} injectable stuck-at sites",
        approx.name(),
        netlist.len(),
        netlist.fault_sites().len()
    );

    let mut rng = ChaCha8Rng::seed_from_u64(0xFA17);
    let batches: Vec<Vec<u64>> = (0..8)
        .map(|_| (0..netlist.inputs().len()).map(|_| rng.next_u64()).collect())
        .collect();
    let report = netlist.stuck_at_campaign(&netlist.fault_sites(), &batches, 64, &engine)?;
    println!(
        "netlist pre-screen: {} samples/site, {:.1}% of sites logically masked",
        report.samples,
        100.0 * report.masked_fraction()
    );
    println!("worst nets by positionally weighted output corruption:");
    for site in report.critical_sites(5) {
        let kind = match site.fault.kind {
            FaultKind::StuckAt0 => "SA0",
            FaultKind::StuckAt1 => "SA1",
        };
        println!(
            "  s{:<4} {}  mismatch {:>5.1}%  weighted {:.4}",
            site.fault.signal.index(),
            kind,
            100.0 * site.mismatch_rate,
            site.weighted_error
        );
    }

    // Transient (SEU-style) sensitivity of the same netlist.
    let prop = netlist.transient_campaign(&batches, 4, 0xBEEF)?;
    let live = prop.iter().filter(|&&p| p > 0.0).count();
    println!(
        "transient campaign: {}/{} nets propagate a single bit-flip to an output",
        live,
        prop.len()
    );

    // 2. Cross-layer campaign: lift the worst faults into the denoising
    //    application and measure quality degradation (paper-level view).
    let fw = Clapped::builder()
        .image_size(32)
        .noise_sigma(12.0)
        .exec(ExecConfig::with_jobs(jobs))
        .build()?;
    let mul_index = fw
        .catalog()
        .iter()
        .position(|m| m.name() == approx.name())
        .expect("operator in framework catalog");
    let mut config = Configuration::golden(3);
    config.mul_indices.fill(mul_index);

    let campaign = FaultCampaignConfig { mul_index, top_k: 6, prescreen_batches: 4, seed: 0xC1A9 };
    let app = fw.fault_campaign(&config, &campaign)?;
    println!(
        "\napplication campaign on {} (baseline error {:.3}%):",
        app.operator, app.baseline_error_percent
    );
    println!("  net    kind  netlist-weighted  app-error%  degradation");
    for i in &app.impacts {
        let kind = match i.fault.kind {
            FaultKind::StuckAt0 => "SA0",
            FaultKind::StuckAt1 => "SA1",
        };
        println!(
            "  s{:<5} {}   {:>12.4}  {:>10.3}  {:>+11.3}",
            i.fault.signal.index(),
            kind,
            i.netlist_weighted_error,
            i.app_error_percent,
            i.degradation
        );
    }
    let critical = app.critical(1.0);
    println!(
        "{} of {} promoted sites degrade application quality by >1% — candidates for hardening",
        critical.len(),
        app.impacts.len()
    );

    // 3. Single-fault what-if: stuck-at-1 on the product MSB.
    let msb = netlist.outputs().last().expect("product output").1;
    let faults = FaultSet::empty().stuck_at(msb, FaultKind::StuckAt1);
    let faulted = clapped::axops::FaultedMul::new(&approx, &faults)?;
    println!(
        "\nstuck-at-1 on the product MSB corrupts {} / 65536 table entries",
        faulted.corrupted_entries(approx.as_ref())
    );
    if let Some(report) = clapped::obs::finish() {
        println!("\n{report}");
    }
    Ok(())
}
