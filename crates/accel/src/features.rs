//! ML feature extraction for accelerator performance prediction —
//! the paper's Table I.
//!
//! Two representations are compared in the paper's Fig. 11:
//!
//! - **IDX**: each tap multiplier contributes only its catalog index,
//! - **EXP** (expanded): each metric's model consumes the accelerator
//!   dimensions plus physically meaningful per-operator characteristics
//!   (Table I): CPD and total power for PDP, LUT counts for LUTs, none
//!   for latency, signal/logic power for power dissipation.

use crate::{AccelError, AcceleratorSpec, Result};
use clapped_axops::{Catalog, Mul8s};
use clapped_netlist::{synthesize, SynthConfig};
use std::collections::HashMap;

/// Per-operator synthesis characteristics used as EXP features.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MulProps {
    /// LUT count of the bare operator.
    pub luts: f64,
    /// Critical path delay in ns.
    pub cpd_ns: f64,
    /// Total power in mW (at the flow's reference clock).
    pub total_power_mw: f64,
    /// Dynamic signal power in mW.
    pub signal_power_mw: f64,
    /// Dynamic logic power in mW.
    pub logic_power_mw: f64,
}

/// A characterized operator library: per-operator properties plus the
/// catalog indices, feeding both feature representations.
#[derive(Debug, Clone)]
pub struct OpLibrary {
    props: HashMap<String, MulProps>,
    indices: HashMap<String, usize>,
}

impl OpLibrary {
    /// Synthesizes every catalog operator once and records its
    /// properties.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Synth`] if an operator fails the flow.
    pub fn characterize(catalog: &Catalog, synth: &SynthConfig) -> Result<OpLibrary> {
        let mut props = HashMap::new();
        let mut indices = HashMap::new();
        for (i, m) in catalog.iter().enumerate() {
            let r = synthesize(m.netlist(), synth)
                .map_err(|e| AccelError::Synth(format!("{}: {e}", m.name())))?;
            props.insert(
                m.name().to_string(),
                MulProps {
                    luts: r.lut_count as f64,
                    cpd_ns: r.cpd_ns,
                    total_power_mw: r.power.total_mw(),
                    signal_power_mw: r.power.signal_mw,
                    logic_power_mw: r.power.logic_mw,
                },
            );
            indices.insert(m.name().to_string(), i);
        }
        Ok(OpLibrary { props, indices })
    }

    /// Properties of a named operator.
    pub fn props(&self, name: &str) -> Option<&MulProps> {
        self.props.get(name)
    }

    /// Catalog index of a named operator.
    pub(crate) fn index(&self, name: &str) -> Option<usize> {
        self.indices.get(name).copied()
    }
}

/// The accelerator performance metrics modelled in the paper's Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerfMetric {
    /// Power-delay product.
    Pdp,
    /// LUT utilization.
    Luts,
    /// Image-processing latency in cycles.
    Latency,
    /// Total power dissipation.
    Power,
}

impl PerfMetric {
    /// All four metrics.
    pub const ALL: [PerfMetric; 4] = [
        PerfMetric::Pdp,
        PerfMetric::Luts,
        PerfMetric::Latency,
        PerfMetric::Power,
    ];

    /// Metric name as printed in reports.
    pub fn name(self) -> &'static str {
        match self {
            PerfMetric::Pdp => "PDP",
            PerfMetric::Luts => "LUTs",
            PerfMetric::Latency => "Latency",
            PerfMetric::Power => "Power",
        }
    }
}

/// Feature representation mode (paper Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureMode {
    /// Multipliers appear as bare catalog indices.
    Idx,
    /// Expanded Table-I features per metric.
    Exp,
}

/// Extracts the feature vector of a design point for one metric under
/// one representation.
///
/// # Errors
///
/// Returns [`AccelError::Synth`] if an operator of the spec is missing
/// from the library.
pub fn features(
    spec: &AcceleratorSpec,
    metric: PerfMetric,
    mode: FeatureMode,
    lib: &OpLibrary,
) -> Result<Vec<f64>> {
    spec.validate()?;
    let accel_dims = |with_stride: bool| -> Vec<f64> {
        let mut v = vec![spec.image_size as f64];
        if with_stride {
            v.push(spec.stride as f64);
            v.push(if spec.downsample { 1.0 } else { 0.0 });
        }
        v
    };
    let mut mul_props = Vec::with_capacity(spec.muls.len());
    for m in &spec.muls {
        let name = Mul8s::name(m.as_ref());
        let p = lib
            .props(name)
            .ok_or_else(|| AccelError::Synth(format!("operator {name} not in library")))?;
        let idx = lib
            .index(name)
            .ok_or_else(|| AccelError::Synth(format!("operator {name} not in library")))?;
        mul_props.push((idx, *p));
    }
    let feats = match mode {
        FeatureMode::Idx => {
            // Image dims + one index per tap.
            let mut v = accel_dims(true);
            v.extend(mul_props.iter().map(|(i, _)| *i as f64));
            v
        }
        FeatureMode::Exp => match metric {
            PerfMetric::Pdp => {
                let mut v = accel_dims(true);
                v.extend(mul_props.iter().map(|(_, p)| p.cpd_ns));
                v.extend(mul_props.iter().map(|(_, p)| p.total_power_mw));
                v
            }
            PerfMetric::Luts => {
                let mut v = accel_dims(true);
                v.extend(mul_props.iter().map(|(_, p)| p.luts));
                v
            }
            PerfMetric::Latency => accel_dims(false),
            PerfMetric::Power => {
                let mut v = accel_dims(true);
                v.extend(mul_props.iter().map(|(_, p)| p.signal_power_mw));
                v.extend(mul_props.iter().map(|(_, p)| p.logic_power_mw));
                v
            }
        },
    };
    Ok(feats)
}

/// Prints the Table-I style dimension summary for the EXP models.
pub fn table1_rows() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        (
            "PDP",
            "Image Size, Stridelength, Downsampling",
            "Critical Path Delay, Total Power Dissipation",
        ),
        (
            "LUTs",
            "Image Size, Stridelength, Downsampling",
            "LUT Utilization",
        ),
        ("Latency", "Image Size", "-"),
        (
            "Power Dissipation",
            "Image Size, Stridelength, Downsampling",
            "Signal Power, Logic Power",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_axops::Catalog;

    fn small_library(cat: &Catalog) -> OpLibrary {
        // Characterizing the full catalog is slow in debug; restrict to a
        // couple of operators by building a reduced catalog.
        let reduced = Catalog::from_specs(vec![
            ("mul8s_exact".to_string(), clapped_axops::MulArch::Exact),
            (
                "mul8s_tr4".to_string(),
                clapped_axops::MulArch::Truncated { k: 4 },
            ),
        ])
        .expect("unique names");
        let _ = cat;
        OpLibrary::characterize(&reduced, &SynthConfig {
            verify_rounds: 0,
            ..SynthConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn feature_shapes_match_table1() {
        let cat = Catalog::standard();
        let lib = small_library(&cat);
        let m = cat.get("mul8s_tr4").unwrap();
        let spec = AcceleratorSpec::uniform_2d(32, 3, &m);
        let f_pdp = features(&spec, PerfMetric::Pdp, FeatureMode::Exp, &lib).unwrap();
        assert_eq!(f_pdp.len(), 3 + 9 + 9);
        let f_luts = features(&spec, PerfMetric::Luts, FeatureMode::Exp, &lib).unwrap();
        assert_eq!(f_luts.len(), 3 + 9);
        let f_lat = features(&spec, PerfMetric::Latency, FeatureMode::Exp, &lib).unwrap();
        assert_eq!(f_lat.len(), 1);
        let f_pow = features(&spec, PerfMetric::Power, FeatureMode::Exp, &lib).unwrap();
        assert_eq!(f_pow.len(), 3 + 18);
        let f_idx = features(&spec, PerfMetric::Pdp, FeatureMode::Idx, &lib).unwrap();
        assert_eq!(f_idx.len(), 3 + 9);
    }

    #[test]
    fn exp_features_reflect_operator_cost() {
        let cat = Catalog::standard();
        let lib = small_library(&cat);
        let exact = cat.get("mul8s_exact").unwrap();
        let rough = cat.get("mul8s_tr4").unwrap();
        let s_exact = AcceleratorSpec::uniform_2d(32, 3, &exact);
        let s_rough = AcceleratorSpec::uniform_2d(32, 3, &rough);
        let f_e = features(&s_exact, PerfMetric::Luts, FeatureMode::Exp, &lib).unwrap();
        let f_r = features(&s_rough, PerfMetric::Luts, FeatureMode::Exp, &lib).unwrap();
        // LUT features of the rough design must be strictly smaller.
        assert!(f_r[3] < f_e[3]);
    }

    #[test]
    fn unknown_operator_is_reported() {
        let cat = Catalog::standard();
        let lib = small_library(&cat);
        let m = cat.get("mul8s_log").unwrap(); // not in the reduced library
        let spec = AcceleratorSpec::uniform_2d(32, 3, &m);
        assert!(features(&spec, PerfMetric::Luts, FeatureMode::Exp, &lib).is_err());
    }

    #[test]
    fn table1_has_four_rows() {
        assert_eq!(table1_rows().len(), 4);
    }
}
