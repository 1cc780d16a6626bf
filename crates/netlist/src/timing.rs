//! Level-based static timing for mapped LUT networks.

use crate::map::MappedNetlist;

/// Delay parameters of the target FPGA fabric.
///
/// The defaults approximate a Xilinx UltraScale+ -1 speed grade: a LUT6
/// logic delay of 0.124 ns and an average net (routing) delay of 0.45 ns
/// per level. Absolute values are not calibrated against silicon — the
/// model's purpose is to rank designs the way a timing engine would.
///
/// # Examples
///
/// ```
/// use clapped_netlist::TimingModel;
///
/// let t = TimingModel::default();
/// assert!(t.critical_path_ns_for_depth(4) > t.critical_path_ns_for_depth(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Logic delay through one LUT, in nanoseconds.
    pub lut_delay_ns: f64,
    /// Average routed-net delay between consecutive LUT levels, in
    /// nanoseconds.
    pub net_delay_ns: f64,
    /// Fixed input/output boundary delay (IBUF + clock-to-out style), in
    /// nanoseconds.
    pub boundary_delay_ns: f64,
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel {
            lut_delay_ns: 0.124,
            net_delay_ns: 0.45,
            boundary_delay_ns: 0.6,
        }
    }
}

impl TimingModel {
    /// Critical path delay for a network of the given LUT depth.
    pub fn critical_path_ns_for_depth(&self, depth: u32) -> f64 {
        if depth == 0 {
            return self.boundary_delay_ns;
        }
        self.boundary_delay_ns
            + f64::from(depth) * self.lut_delay_ns
            + f64::from(depth.saturating_sub(1)) * self.net_delay_ns
    }

    /// Critical path delay of a mapped netlist.
    pub fn critical_path_ns(&self, mapped: &MappedNetlist) -> f64 {
        self.critical_path_ns_for_depth(mapped.depth)
    }

    /// Maximum clock frequency in MHz for the mapped netlist.
    pub(crate) fn fmax_mhz(&self, mapped: &MappedNetlist) -> f64 {
        1000.0 / self.critical_path_ns(mapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bus, map_luts, optimize, MapStrategy, Netlist};

    #[test]
    fn deeper_networks_are_slower() {
        let t = TimingModel::default();
        assert!(t.critical_path_ns_for_depth(3) > t.critical_path_ns_for_depth(1));
        assert_eq!(t.critical_path_ns_for_depth(0), t.boundary_delay_ns);
    }

    #[test]
    fn wider_adders_have_longer_critical_paths() {
        let t = TimingModel::default();
        let cpd = |w: usize| {
            let mut n = Netlist::new("add");
            let a = n.input_bus("a", w);
            let b = n.input_bus("b", w);
            let (s, c) = bus::ripple_carry_add(&mut n, &a, &b, None);
            n.output_bus("s", &s);
            n.output("c", c);
            let m = map_luts(&optimize(&n), 6, MapStrategy::Depth).unwrap();
            t.critical_path_ns(&m)
        };
        assert!(cpd(16) > cpd(4));
    }

    #[test]
    fn fmax_is_inverse_of_cpd() {
        let t = TimingModel::default();
        let mut n = Netlist::new("x");
        let a = n.input("a");
        let b = n.input("b");
        let y = n.xor(a, b);
        n.output("y", y);
        let m = map_luts(&optimize(&n), 6, MapStrategy::Depth).unwrap();
        let f = t.fmax_mhz(&m);
        assert!((f - 1000.0 / t.critical_path_ns(&m)).abs() < 1e-9);
    }
}
