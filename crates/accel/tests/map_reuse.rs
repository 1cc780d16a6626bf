//! Reusing an operator's cut enumeration never moves a mapping. Random
//! datapaths (windows 3, 5 and 7, 2D and separable, uniform, random and
//! exact/truncated-mixed taps, several normalization shifts) map at
//! k ∈ {4, 6} under both strategies exactly as the same netlist rebuilt
//! by `Netlist::from_parts`, which carries no instance records and so is
//! enumerated node by node. The cases must include both instances that
//! reuse their template and instances that fail a check.
//!
//! The default test keeps debug builds cheap; the ignored sweep maps 320
//! datapaths: `cargo test --release -p clapped-accel --test map_reuse --
//! --ignored`.

use clapped_accel::{build_datapath, AcceleratorSpec};
use clapped_axops::Catalog;
use clapped_imgproc::ConvMode;
use clapped_netlist::{map_luts, optimize, MapStrategy, Netlist};
use proptest::test_runner::TestRng;
use std::sync::OnceLock;

fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(Catalog::standard)
}

/// The truncated operators of the exact/truncated-mixed draw: one tap
/// takes `mul8s_exact` and the others one of these. The exact product's
/// low bits then meet only zeros in the adder tree, and below the
/// normalization shift nothing reads them, so optimizing the datapath
/// removes gates of the exact instance, which then fails a check.
const TRUNCATED: [&str; 3] = ["mul8s_tr2", "mul8s_tr4", "mul8s_tr6"];

/// One drawn case: a datapath and the mapping settings.
#[derive(Debug)]
struct Case {
    window: usize,
    mode: ConvMode,
    taps: Vec<String>,
    shift: u32,
    k: usize,
    strategy: MapStrategy,
}

fn pick(rng: &mut TestRng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

impl Case {
    /// Draws a case; `max_window` bounds the window size.
    fn draw(rng: &mut TestRng, max_window: usize) -> Case {
        let windows: Vec<usize> = [3, 5, 7].into_iter().filter(|&w| w <= max_window).collect();
        let window = windows[pick(rng, windows.len())];
        let mode = if pick(rng, 2) == 0 {
            ConvMode::TwoD
        } else {
            ConvMode::Separable
        };
        let count = match mode {
            ConvMode::TwoD => window * window,
            ConvMode::Separable => 2 * window,
        };
        let names = catalog().names();
        let taps: Vec<String> = match pick(rng, 3) {
            0 => vec![names[pick(rng, names.len())].to_string(); count],
            1 => (0..count)
                .map(|_| names[pick(rng, names.len())].to_string())
                .collect(),
            _ => {
                let truncated = TRUNCATED[pick(rng, TRUNCATED.len())];
                let mut taps = vec![truncated.to_string(); count];
                taps[pick(rng, count)] = "mul8s_exact".to_string();
                taps
            }
        };
        Case {
            window,
            mode,
            taps,
            shift: [0, 4, 8, 12][pick(rng, 4)],
            k: [4, 6][pick(rng, 2)],
            strategy: [MapStrategy::Depth, MapStrategy::Area][pick(rng, 2)],
        }
    }

    fn datapath(&self) -> Netlist {
        let spec = AcceleratorSpec {
            image_size: 32,
            window: self.window,
            stride: 1,
            downsample: false,
            mode: self.mode,
            muls: self
                .taps
                .iter()
                .map(|n| catalog().get(n).expect("standard operator"))
                .collect(),
        };
        build_datapath(&spec, self.shift).expect("valid spec")
    }
}

/// `netlist`'s gates and ports without its instance records.
fn without_records(netlist: &Netlist) -> Netlist {
    Netlist::from_parts(
        netlist.name(),
        netlist.gates().to_vec(),
        netlist.inputs().to_vec(),
        netlist.outputs().to_vec(),
    )
}

/// Maps `cases` drawn datapaths both ways and asserts equal mappings,
/// then that the instances counted include reused and enumerated ones.
fn mappings_agree(name: &str, cases: usize, max_window: usize) {
    clapped_obs::enable();
    let counter = clapped_obs::metrics::counter_value;
    let before = [
        counter("netlist.map.instances_reused"),
        counter("netlist.map.instances_enumerated"),
    ];
    let mut rng = TestRng::deterministic(name);
    for case in 0..cases {
        let c = Case::draw(&mut rng, max_window);
        let opt = optimize(&c.datapath());
        let enumerated =
            map_luts(&without_records(&opt), c.k, c.strategy).expect("mapping succeeds");
        let reused = map_luts(&opt, c.k, c.strategy);
        assert!(
            reused == Ok(enumerated),
            "case {case} maps differently: {c:?}"
        );
    }
    let after = [
        counter("netlist.map.instances_reused"),
        counter("netlist.map.instances_enumerated"),
    ];
    assert!(after[0] > before[0], "no instance reused its template");
    assert!(after[1] > before[1], "no instance failed a check");
}

#[test]
fn reusing_templates_never_moves_a_mapping() {
    mappings_agree("map_reuse::default", 12, 5);
}

#[test]
#[ignore = "a 320-datapath sweep; run it in release"]
fn reusing_templates_never_moves_a_mapping_sweep() {
    mappings_agree("map_reuse::sweep", 320, 7);
}
