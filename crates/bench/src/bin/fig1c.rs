//! Fig. 1(c): PSNR / energy trade-off of Gaussian image smoothing for
//! accurate (Ac) and approximate (Ax) multipliers at stride 1 and 2.

use clapped_accel::{characterize, AcceleratorSpec, CharacterizeConfig};
use clapped_bench::{print_table, save_json};
use clapped_core::Clapped;
use clapped_dse::Configuration;
use serde_json::json;

fn main() {
    let fw = Clapped::builder()
        .image_size(64)
        .noise_sigma(12.0)
        .seed(21)
        .build()
        .expect("framework construction");
    let ac = fw.catalog().index_of("mul8s_exact").expect("exact present");
    let ax = fw.catalog().index_of("mul8s_1KVL").expect("alias resolves");
    let char_cfg = CharacterizeConfig::default();

    let mut rows = Vec::new();
    let mut series = Vec::new();
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
        let quality = fw.evaluate_error(&config).expect("behavioural evaluation");
        let spec = AcceleratorSpec {
            stride,
            downsample: stride > 1,
            ..AcceleratorSpec::uniform_2d(
                64,
                3,
                &fw.catalog().at(mul_idx).expect("valid index"),
            )
        };
        let hw = characterize(&spec, &char_cfg).expect("synthesis flow");
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", quality.psnr_db),
            format!("{:.3}", hw.energy_per_image_uj),
        ]);
        series.push(json!({
            "point": label,
            "psnr_db": quality.psnr_db,
            "energy_uj_per_image": hw.energy_per_image_uj,
        }));
    }
    let noisy_psnr = fw.app().expect("Gaussian application").noise_psnr();
    println!("PSNR (noisy input baseline): {noisy_psnr:.2} dB");
    print_table(
        "Fig 1(c): Gaussian smoothing accuracy/energy trade-off",
        &["point", "PSNR (dB)", "energy (uJ/image)"],
        &rows,
    );
    save_json(
        "fig1c",
        &json!({
            "noisy_psnr_db": noisy_psnr,
            "points": series,
        }),
    );
}
