//! The operator library's hardware characteristics, pinned bit for bit:
//! all five `MulProps` fields of every standard catalog multiplier at
//! k ∈ {4, 6} under both cut-selection strategies, each also checked
//! against a standalone `synthesize` of the bare operator. A change to
//! how the library synthesizes its operators that moves a LUT count, a
//! critical path or a power bit fails here.

use clapped_accel::OpLibrary;
use clapped_axops::{Catalog, Mul8s};
use clapped_exec::Fnv64;
use clapped_netlist::{synthesize, MapStrategy, SynthConfig};

/// `(k, strategy, digest of every operator's name and five field bits)`.
const PINNED: [(usize, MapStrategy, u64); 4] = [
    (4, MapStrategy::Depth, 0x53f4f60f6e158b92),
    (4, MapStrategy::Area, 0xdaf2fe681cb0a0c8),
    (6, MapStrategy::Depth, 0x3058f5193b3b71aa),
    (6, MapStrategy::Area, 0x8d99a4a95a13e32f),
];

#[test]
fn op_library_properties_are_pinned_bit_for_bit() {
    let catalog = Catalog::standard();
    let mut mismatches = Vec::new();
    for (k, strategy, pinned) in PINNED {
        let config = SynthConfig {
            k,
            strategy,
            ..SynthConfig::default()
        };
        let lib = OpLibrary::characterize(&catalog, &config).expect("library synthesizes");
        let mut h = Fnv64::new();
        for m in catalog.iter() {
            let p = lib.props(m.name()).expect("every operator is characterized");
            let fields = [
                p.luts,
                p.cpd_ns,
                p.total_power_mw,
                p.signal_power_mw,
                p.logic_power_mw,
            ];
            let r = synthesize(m.netlist(), &config).expect("operator synthesizes");
            let standalone = [
                r.lut_count as f64,
                r.cpd_ns,
                r.power.total_mw(),
                r.power.signal_mw,
                r.power.logic_mw,
            ];
            assert_eq!(
                fields.map(f64::to_bits),
                standalone.map(f64::to_bits),
                "{} at k = {k}, {strategy:?}",
                m.name()
            );
            h.write_str(m.name());
            for f in fields {
                h.write_u64(f.to_bits());
            }
        }
        let got = h.finish();
        if got != pinned {
            mismatches.push(format!("({k}, MapStrategy::{strategy:?}, {got:#018x}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "library properties moved:\n{}",
        mismatches.join("\n")
    );
}
