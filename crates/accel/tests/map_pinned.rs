//! The LUT mapper's output, pinned digest for digest: every catalog
//! multiplier at k ∈ {4, 6} under both cut-selection strategies, five
//! accelerator datapaths and sixteen seeded composed multipliers of the
//! generative space at the characterization flow's k = 6,
//! depth-oriented setting. A change to cut enumeration, ranking,
//! covering or truth-table extraction that moves a single LUT, leaf or
//! truth-table bit fails here, both where a datapath's multiplier
//! instances copy their operator's cut enumeration and where they are
//! enumerated node by node. The datapaths' power reports are pinned bit
//! for bit too, at round counts that fill whole stimulus blocks and
//! leave partial ones, and so is the optimizer's output on all these
//! netlists.

use clapped_accel::{build_datapath, AcceleratorSpec};
use clapped_axops::{Catalog, GenSpace, Mul8s, MulArch};
use clapped_exec::Fnv64;
use clapped_imgproc::ConvMode;
use clapped_netlist::{
    estimate_power, map_luts, optimize, MapStrategy, MappedNetlist, Netlist, PowerModel,
};

/// Digest of everything a mapping produces: `k`, depth, every LUT's
/// `(root, inputs, truth)` in order, the outputs and the constants.
fn mapping_digest(m: &MappedNetlist) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(m.k as u64);
    h.write_u64(u64::from(m.depth));
    h.write_u64(m.luts.len() as u64);
    for lut in &m.luts {
        h.write_u64(lut.root.index() as u64);
        h.write_u64(lut.inputs.len() as u64);
        for s in &lut.inputs {
            h.write_u64(s.index() as u64);
        }
        h.write_u64(lut.truth);
    }
    h.write_u64(m.outputs.len() as u64);
    for (name, s) in &m.outputs {
        h.write_str(name);
        h.write_u64(s.index() as u64);
    }
    h.write_u64(m.constants.len() as u64);
    for (s, &v) in &m.constants {
        h.write_u64(s.index() as u64);
        h.write_u64(u64::from(v));
    }
    h.finish()
}

fn map_digest(n: &Netlist, k: usize, strategy: MapStrategy) -> u64 {
    mapping_digest(&map_luts(&optimize(n), k, strategy).expect("mapping succeeds"))
}

/// `(operator, [k4 Depth, k4 Area, k6 Depth, k6 Area])`.
#[rustfmt::skip]
const MULTIPLIERS: [(&str, [u64; 4]); 24] = [
    ("mul8s_exact", [0x6862e7a5d5e5a736, 0x22347ba846a14f99, 0x01c5e055742e0db1, 0x722716bfd5aea075]),
    ("mul8s_tr1", [0x2235fed868532d5e, 0x03a5ff6b81aa3422, 0xda16e2f312cb3bef, 0x4472fe09564e72fb]),
    ("mul8s_tr2", [0x637c74af54889d8a, 0x5372aeb8b4060217, 0x8716adc37004cd85, 0x3d5e6af8d55f3b01]),
    ("mul8s_tr3", [0x99150d255d558810, 0xaa2f98db716ec0cc, 0xf9ead3da3267f30d, 0x5827497d65b9ae9e]),
    ("mul8s_tr4", [0x99cfa1a9cc9ef609, 0x1e0648f3c837a445, 0x2fb5596a89cbf56b, 0x35e44be9c5f90ff0]),
    ("mul8s_tr5", [0x9b7444aa8948c2c4, 0x1069a8002b29a31c, 0xfe1f98593daf9d60, 0x5753a44fad7255bc]),
    ("mul8s_tr6", [0x38b69ea9eaf81595, 0x14e96b8002236bcb, 0x592c138cda021f29, 0x5a0df83ba6dcbbb9]),
    ("mul8s_bam_v4_h1", [0xcc5e98a1c19acafa, 0x1b6e0afb10031302, 0x83a0b7044d9c11d3, 0x7d7783f0e380e04a]),
    ("mul8s_bam_v6_h2", [0x517ffc04c8cf2da2, 0x277c4cd92a80ba07, 0x9636a2b6460a0429, 0xd834a7cc15d8fed0]),
    ("mul8s_bam_v8_h3", [0x8f7255e6dff1ff11, 0xf30af0a429089870, 0x5185c9e41865b4da, 0xb862a43b6887b874]),
    ("mul8s_cmp4", [0x1e08920aa1d9d48a, 0xce7f7d55a0e48465, 0xd17afeb7878e517d, 0x923a1e5aae8614c6]),
    ("mul8s_cmp8", [0xdac464470dd612c0, 0xfb99a59241879fda, 0x188796d51160736c, 0x90d43dd95c77e000]),
    ("mul8s_cmp10", [0x45f3c24156d9b38c, 0x0a3f0fdd60d240d7, 0x39925c0e5788ec7b, 0x30468ae6e925a088]),
    ("mul8s_loa4", [0xf9dcd5cf249827c4, 0xea73ae7176b52532, 0xa1be9ad290aaebea, 0x3615a4bbeb846d8d]),
    ("mul8s_loa6", [0xa3442afb1da2f7f1, 0x85ae43698817a958, 0x3246838b89a756f2, 0xfcd273423eba1964]),
    ("mul8s_loa8", [0xa0181938d0287fb5, 0x8f632c5beb3b0847, 0x3fb8dd1de938c340, 0x2cfaf6dd0bc44678]),
    ("mul8s_booth", [0x97a7422793db2704, 0x1affe253e53e1a12, 0x6ee985dd55d0945d, 0x05040f2234c507ac]),
    ("mul8s_booth_tr3", [0x90421eaea87292ca, 0xe1ee888d7661d32f, 0xdd7df6f0b1d4f8a8, 0xfeb1ca888e5b76b7]),
    ("mul8s_booth_tr5", [0x86cfca002397b3ac, 0xab37851795935d90, 0xb0af4702f23a36e8, 0xd0506191ebe4db69]),
    ("mul8s_log", [0x318f7efec3901fa6, 0x7f139a67dba11ae1, 0xfaa15e042154356b, 0x291caba4d56dd70a]),
    ("mul8s_drum3", [0x2699c832e0b69ea4, 0x95ce82cb4b50ef3b, 0xee6d3f5ff00ed8c6, 0x980fcfdf0d4cdaad]),
    ("mul8s_drum4", [0x513591ee70f8df04, 0xf29cde70287a014e, 0x5bf6fa44c93920cc, 0xbebb273edada4fa2]),
    ("mul8s_drum5", [0x052e168b5217688c, 0x5a653d2e7383bf24, 0xf170d52cbba6eee1, 0xe39b8a770aa9f4a7]),
    ("mul8s_drum6", [0x297f24d541edae37, 0x8e691e5ee9f00279, 0xdc903cdc5c549b20, 0x5b697ae6a3e05344]),
];

#[test]
fn catalog_multiplier_mappings_are_pinned() {
    let catalog = Catalog::standard();
    assert_eq!(catalog.len(), MULTIPLIERS.len());
    let settings = [
        (4, MapStrategy::Depth),
        (4, MapStrategy::Area),
        (6, MapStrategy::Depth),
        (6, MapStrategy::Area),
    ];
    let mut mismatches = Vec::new();
    for (name, pinned) in MULTIPLIERS {
        let m = catalog.get(name).expect("standard operator");
        let got = settings.map(|(k, s)| map_digest(m.netlist(), k, s));
        if got != pinned {
            let hex = got.map(|d| format!("{d:#018x}")).join(", ");
            mismatches.push(format!("(\"{}\", [{hex}]),", m.name()));
        }
    }
    assert!(
        mismatches.is_empty(),
        "mappings moved:\n{}",
        mismatches.join("\n")
    );
}

fn datapath(mode: ConvMode, window: usize, ops: &[&str]) -> Netlist {
    let catalog = Catalog::standard();
    let muls: Vec<_> = ops
        .iter()
        .map(|n| catalog.get(n).expect("standard operator"))
        .collect();
    let spec = AcceleratorSpec {
        image_size: 32,
        window,
        stride: 1,
        downsample: false,
        mode,
        muls,
    };
    build_datapath(&spec, 8).expect("valid spec")
}

/// The five pinned datapaths: a mixed 3×3, a 5×5 cycling through the
/// whole catalog, a 3-tap separable one, a 3×3 with the exact multiplier
/// at tap 0 and `mul8s_tr6` at the other eight, and a 3-tap separable
/// one mixing the exact, truncated, DRUM and broken-array multipliers.
/// The first three map every multiplier instance from its operator's
/// template (9 of 9, 25 of 25 and 6 of 6 instances). In the last two,
/// optimizing the datapath leaves some instances different from the
/// optimized operator (dead-code elimination removes gates of the exact
/// instance of the fourth), so one instance of the fourth and two of the
/// fifth fail the mapper's checks and are enumerated node by node.
fn pinned_datapaths() -> [Netlist; 5] {
    let mixed_3x3 = datapath(
        ConvMode::TwoD,
        3,
        &[
            "mul8s_exact",
            "mul8s_tr3",
            "mul8s_bam_v6_h2",
            "mul8s_cmp8",
            "mul8s_loa6",
            "mul8s_booth_tr3",
            "mul8s_log",
            "mul8s_drum4",
            "mul8s_tr5",
        ],
    );
    let all_ops = Catalog::standard();
    let names: Vec<&str> = all_ops.names().into_iter().cycle().take(25).collect();
    let mixed_5x5 = datapath(ConvMode::TwoD, 5, &names);
    let separable_3 = datapath(
        ConvMode::Separable,
        3,
        &[
            "mul8s_exact",
            "mul8s_drum5",
            "mul8s_loa4",
            "mul8s_tr2",
            "mul8s_booth",
            "mul8s_cmp4",
        ],
    );
    let mut exact_then_tr6 = vec!["mul8s_exact"];
    exact_then_tr6.extend(["mul8s_tr6"; 8]);
    let exact_tr6_3x3 = datapath(ConvMode::TwoD, 3, &exact_then_tr6);
    let separable_mixed = datapath(
        ConvMode::Separable,
        3,
        &[
            "mul8s_exact",
            "mul8s_tr6",
            "mul8s_tr6",
            "mul8s_drum3",
            "mul8s_bam_v8_h3",
            "mul8s_bam_v8_h3",
        ],
    );
    [
        mixed_3x3,
        mixed_5x5,
        separable_3,
        exact_tr6_3x3,
        separable_mixed,
    ]
}

#[test]
fn datapath_mappings_are_pinned() {
    let got = pinned_datapaths().map(|n| map_digest(&n, 6, MapStrategy::Depth));
    let hex = got.map(|d| format!("{d:#018x}")).join(", ");
    assert_eq!(
        got,
        [
            0x5b66a7505ed127a0,
            0xead6412e358dd100,
            0x5446b8eae8c3d3f2,
            0x26540cf3f7ac1052,
            0x9f48aefbf15cfc54,
        ],
        "got [{hex}]"
    );
}

/// `(rounds, [logic_mw, signal_mw, static_mw, mean_activity] bits)` per
/// pinned datapath, in [`pinned_datapaths`] order.
#[rustfmt::skip]
const POWER: [[(usize, [u64; 4]); 4]; 5] = [
    [
        (1, [0x405b7abe2be2be2c, 0x406b78fa4fa4fa4f, 0x4033cae147ae147b, 0x3fdac0a98e534d98]),
        (16, [0x405b78ea0ea0ea0f, 0x406b8d3d27d27d27, 0x4033cae147ae147b, 0x3fdac6be70df9929]),
        (17, [0x405b783712803712, 0x406b8e4ef9a44ef9, 0x4033cae147ae147b, 0x3fdac5ff6aedc3c4]),
        (40, [0x405b63130463796a, 0x406b8cabcdf01234, 0x4033cae147ae147b, 0x3fdab486004c2295]),
    ],
    [
        (1, [0x40740457c57c57c5, 0x4083fcec16c16c16, 0x4037283126e978d5, 0x3fdb0de6c379b0de]),
        (16, [0x4073fc9249249249, 0x408404116c16c16c, 0x4037283126e978d5, 0x3fdb075de6981bde]),
        (17, [0x4073fc560ce8560d, 0x4084033b3b3b3b3b, 0x4037283126e978d5, 0x3fdb06b5fbad3295]),
        (40, [0x4073fd918de5ab28, 0x408404d333333333, 0x4037283126e978d5, 0x3fdb08b672970db1]),
    ],
    [
        (1, [0x4052bea0ea0ea0ea, 0x4063731111111111, 0x40333ccccccccccd, 0x3fda6d525548e8b5]),
        (16, [0x4052b18ea0ea0ea1, 0x40639d2eeeeeeeef, 0x40333ccccccccccd, 0x3fda6bb733873bca]),
        (17, [0x4052b2dd264add26, 0x40639f368be1368c, 0x40333ccccccccccd, 0x3fda6dc5244bdbef]),
        (40, [0x4052af8231bcb565, 0x40639de4fa4fa4fa, 0x40333ccccccccccd, 0x3fda6a0d9cae6e57]),
    ],
    [
        (1, [0x40539e2be2be2be3, 0x406326aaaaaaaaaa, 0x403323d70a3d70a4, 0x3fddbb2c1f80450b]),
        (16, [0x40536d8750750750, 0x406324582d82d82d, 0x403323d70a3d70a4, 0x3fdd89427d8032a2]),
        (17, [0x405369b522d9b523, 0x4063230b0b0b0b0b, 0x403323d70a3d70a4, 0x3fdd8439ae15376a]),
        (40, [0x405357bb3ee721a6, 0x40631c8e38e38e39, 0x403323d70a3d70a4, 0x3fdd6e535b03d905]),
    ],
    [
        (1, [0x4046357c57c57c58, 0x405763e93e93e93e, 0x4032b66666666666, 0x3fdb66e1eb34ab39]),
        (16, [0x40464a0ea0ea0ea1, 0x4057b24000000000, 0x4032b66666666666, 0x3fdb92d56c1b20be]),
        (17, [0x404643d86ab3d86a, 0x4057aeac0156ac00, 0x4032b66666666666, 0x3fdb8d5ad7a114e7]),
        (40, [0x4046359c86953621, 0x4057abe93e93e93e, 0x4032b66666666666, 0x3fdb7fdd3412eb1a]),
    ],
];

#[test]
fn datapath_power_reports_are_pinned_bit_for_bit() {
    let mut mismatches = Vec::new();
    for (d, (n, pinned)) in pinned_datapaths().iter().zip(POWER).enumerate() {
        let mapped = map_luts(&optimize(n), 6, MapStrategy::Depth).expect("mapping succeeds");
        for (rounds, bits) in pinned {
            let model = PowerModel {
                rounds,
                ..PowerModel::default()
            };
            let p = estimate_power(&mapped, &model).expect("power estimate");
            let got = [p.logic_mw, p.signal_mw, p.static_mw, p.mean_activity].map(f64::to_bits);
            if got != bits {
                let hex = got.map(|b| format!("{b:#018x}")).join(", ");
                mismatches.push(format!("datapath {d}: ({rounds}, [{hex}]),"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "power reports moved:\n{}",
        mismatches.join("\n")
    );
}

/// Seed of the composed-spec sample.
const GEN_SEED: u64 = 0x6765_6e5f_6d61_7001;

/// Sixteen composed specs of [`GenSpace::standard`], drawn by index from
/// `GEN_SEED` with an FNV-1a hash (distinct indices, in draw order).
fn sampled_composed_specs() -> Vec<(String, MulArch)> {
    let space = GenSpace::standard();
    let composed: Vec<_> = space
        .specs()
        .iter()
        .filter(|s| matches!(s.arch, MulArch::Composed(_)))
        .collect();
    let mut picked: Vec<usize> = Vec::new();
    let mut draw = 0u64;
    while picked.len() < 16 {
        let mut h = Fnv64::new();
        h.write_u64(GEN_SEED);
        h.write_u64(draw);
        draw += 1;
        let i = (h.finish() % composed.len() as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
        .into_iter()
        .map(|i| (composed[i].name.clone(), composed[i].arch))
        .collect()
}

/// `(spec name, k6 Depth mapping digest)`, in draw order. The two specs
/// with vertical break 10 map to the same network.
#[rustfmt::skip]
const COMPOSED: [(&str, u64); 16] = [
    ("mul8s_g_t0_v6_h4_c6-10_l4", 0xace8bbc2eddddbb9),
    ("mul8s_g_t0_v7_h3_c2-4_l8", 0xef57e8319675c23a),
    ("mul8s_g_t0_v2_h0_c6-12_l4", 0xfc984b37b43876e5),
    ("mul8s_g_t0_v4_h4_c0-0_l8", 0x193ade6e58e5a05c),
    ("mul8s_g_t0_v10_h1_c2-5_l4", 0xfdefccf0e7775e4d),
    ("mul8s_g_t0_v4_h2_c0-6_l8", 0xf5bacf290f31c753),
    ("mul8s_g_t0_v6_h3_c2-6_l4", 0x1a467fdc3943fa78),
    ("mul8s_g_t0_v5_h3_c4-10_l6", 0xdedf4df9ba855f3a),
    ("mul8s_g_t0_v10_h0_c0-2_l6", 0xfdefccf0e7775e4d),
    ("mul8s_g_t0_v1_h0_c10-13_l0", 0x11cb264ebc039088),
    ("mul8s_g_t0_v2_h2_c0-4_l0", 0x72a77957485aa8f4),
    ("mul8s_g_t0_v3_h2_c8-12_l4", 0x77e89ec69494a742),
    ("mul8s_g_t0_v5_h4_c0-4_l4", 0x1e523c4687498c82),
    ("mul8s_g_t0_v0_h4_c0-0_l6", 0x167e2c91274dd0df),
    ("mul8s_g_t0_v7_h2_c2-6_l6", 0x00393f8969d3fccc),
    ("mul8s_g_t0_v7_h0_c8-12_l8", 0x08a2aaf56f888160),
];

/// `Netlist::content_digest` of `optimize(n)` for the 24 catalog
/// multipliers, the five pinned datapaths and the sixteen sampled
/// composed specs, in that order. The mapping pins see the optimizer
/// only through LUT roots; `SynthReport::gate_count` reads the whole
/// optimized netlist.
#[rustfmt::skip]
const OPTIMIZED: [u64; 45] = [
    // The 24 catalog multipliers, in `MULTIPLIERS` order.
    0x9976ef065e5d4c31, 0x835d1c48d25a1cea, 0x814691444894488f, 0x0be363d1f98bb203,
    0x81108d14a6c37f3d, 0x99fa54eedd5a32fa, 0x99c443655fee4c40, 0x5cc26743bf978340,
    0xe97b7f29dc5c4f0d, 0x99c38410de6c3020, 0x8c2a486619ade3ab, 0x41854e8d2c8048f1,
    0xd808da2e93348f6e, 0x56e421198301ed1d, 0x0df2cf0847f1a45a, 0xc15b0ae020c8aea3,
    0x2099e899e9259e27, 0x0fc978d50fc4e0dd, 0xf5bb9b5d7a91d8e7, 0xf59001b4339020ca,
    0x174fa6bbf63ebf12, 0x1fe94c7a4f734116, 0x09107f7ef9f90432, 0xa679b467d6984bcf,
    // The five pinned datapaths.
    0x6b2c77b396da6c11, 0xcf7cea4f64a8c544, 0xb5e4b6ed2ca20638, 0x544a26097f6e1b38,
    0x7c8995b6b3f622b8,
    // The sixteen sampled composed specs, in draw order.
    0x371e76af1e745431, 0x782e5601d9d1ce32, 0xed27dffa924aa00d, 0x8cd6e0cf43014e88,
    0x2dffc740de5db04c, 0x647862138204effc, 0xc43c9ebb24882bc0, 0x74e6f20df6fa9eec,
    0x2ab2d34f912122f9, 0x4f7b9ff497d7e08f, 0x028dddc480bcc53d, 0x10d343b56c0d16d7,
    0x63b2c37453f67878, 0xb18647052be46fd4, 0xc574e7dbff67b4ba, 0x5f753ee7980f8892,
];

#[test]
fn optimized_netlists_are_pinned() {
    let catalog = Catalog::standard();
    let multipliers = MULTIPLIERS.map(|(name, _)| catalog.get(name).expect("standard operator"));
    let netlists = multipliers
        .iter()
        .map(|m| m.netlist().clone())
        .chain(pinned_datapaths())
        .chain(sampled_composed_specs().into_iter().map(|(_, arch)| arch.build_netlist()));
    let got: Vec<u64> = netlists.map(|n| optimize(&n).content_digest()).collect();
    let rows: Vec<String> = got.iter().map(|d| format!("{d:#018x},")).collect();
    assert_eq!(got, OPTIMIZED, "optimized netlists moved:\n{}", rows.join("\n"));
}

#[test]
fn composed_generative_mappings_are_pinned() {
    let specs = sampled_composed_specs();
    let got: Vec<(String, u64)> = specs
        .iter()
        .map(|(name, arch)| {
            (
                name.clone(),
                map_digest(&arch.build_netlist(), 6, MapStrategy::Depth),
            )
        })
        .collect();
    let want: Vec<(String, u64)> = COMPOSED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    let rows: Vec<String> = got
        .iter()
        .map(|(n, d)| format!("(\"{n}\", {d:#018x}),"))
        .collect();
    assert_eq!(got, want, "mappings moved:\n{}", rows.join("\n"));
}
