//! Characterizing the operator library maps each operator as a recorded
//! instance of its shared netlist, so once the process holds the
//! operator's template a library build copies every mapping instead of
//! enumerating it. The mapping counters are process-wide and shared by
//! every test of a binary, so this check runs in a binary of its own.

use clapped_accel::OpLibrary;
use clapped_axops::Catalog;
use clapped_netlist::SynthConfig;

#[test]
fn a_second_library_build_copies_every_operator_mapping() {
    clapped_obs::enable();
    let catalog = Catalog::standard();
    let config = SynthConfig::default();
    let counters = [
        "netlist.map.instances_reused",
        "netlist.map.instances_enumerated",
        "netlist.map.truths_extracted",
    ];
    let read = || counters.map(clapped_obs::metrics::counter_value);
    let first = OpLibrary::characterize(&catalog, &config).unwrap();
    let before = read();
    let second = OpLibrary::characterize(&catalog, &config).unwrap();
    let after = read();
    let added: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(added, [catalog.len() as u64, 0, 0], "{counters:?}");
    for name in catalog.names() {
        assert_eq!(first.props(name), second.props(name), "{name}");
    }
}
