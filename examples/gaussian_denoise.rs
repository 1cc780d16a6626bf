//! The paper's motivating experiment (Fig. 1c): accuracy/energy
//! trade-offs of Gaussian image smoothing under cross-layer
//! approximation — accurate (Ac) vs approximate (Ax) multipliers at
//! stride 1 and stride 2.
//!
//! Run with: `cargo run --release --example gaussian_denoise`

use clapped::accel::{characterize, AcceleratorSpec, CharacterizeConfig};
use clapped::axops::Catalog;
use clapped::core::Clapped;
use clapped::dse::Configuration;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    clapped::obs::init_trace_from_args();
    let fw = Clapped::builder()
        .image_size(64)
        .noise_sigma(12.0)
        .seed(21)
        .build()?;
    let catalog: &Catalog = fw.catalog();
    let ac = catalog
        .index_of("mul8s_exact")
        .expect("exact operator present");
    let ax = catalog
        .index_of("mul8s_1KVL")
        .expect("paper alias resolves");

    println!("Fig 1(c): Gaussian smoothing, 3x3 kernel, Ac/Ax x stride 1/2");
    println!("noisy-input PSNR baseline: {:.2} dB", fw.app()?.noise_psnr());
    println!("{:<8} {:>10} {:>16}", "point", "PSNR (dB)", "energy (uJ/img)");

    let char_cfg = CharacterizeConfig::default();
    for (label, mul_idx, stride) in [
        ("Ac:1", ac, 1usize),
        ("Ac:2", ac, 2),
        ("Ax:1", ax, 1),
        ("Ax:2", ax, 2),
    ] {
        let config = Configuration {
            stride,
            downsample: stride > 1,
            mul_indices: vec![mul_idx; 9],
            ..Configuration::golden(3)
        };
        let quality = fw.evaluate_error(&config)?;
        let spec = AcceleratorSpec {
            stride,
            downsample: stride > 1,
            ..AcceleratorSpec::uniform_2d(64, 3, &catalog.at(mul_idx).expect("valid index"))
        };
        let hw = characterize(&spec, &char_cfg)?;
        println!(
            "{label:<8} {:>10.2} {:>16.3}",
            quality.psnr_db, hw.energy_per_image_uj
        );
    }
    println!();
    println!("Expected shape (paper): Ac:1 has the best PSNR and the most");
    println!("energy; Ax:2 is the most energy-efficient with the lowest PSNR.");
    if let Some(report) = clapped::obs::finish() {
        println!("\n{report}");
    }
    Ok(())
}
