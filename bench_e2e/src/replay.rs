//! Serial replay of a traced phase's inputs through the public layer
//! functions, one benchmark span around each call, so busy time can be
//! attributed to layers the program does not instrument itself.
//!
//! Replays run on one thread after the measured phase and feed only the
//! per-layer report; end-to-end numbers never come from them.

use clapped::accel::build_datapath;
use clapped::axops::{build_mul_table, MulArch};
use clapped::core::{Clapped, MulRepr};
use clapped::dse::Configuration;
use clapped::netlist::{
    analyze_error_bounds, estimate_power, lint_netlist, map_luts, optimize, ErrBoundConfig,
    Netlist, SynthConfig,
};
use clapped::obs::{span, Stopwatch};

/// At most `max` items taken at a fixed stride, first item included.
pub fn stride_sample<T: Clone>(items: &[T], max: usize) -> Vec<T> {
    if items.len() <= max {
        return items.to_vec();
    }
    let step = items.len().div_ceil(max);
    items.iter().step_by(step).cloned().collect()
}

/// The synthesis flow of `netlist::synthesize` (without verification),
/// stage by stage. Returns the mapped LUT count.
fn synth_stages(netlist: &Netlist, cfg: &SynthConfig) -> Result<usize, String> {
    let opt = {
        let _s = span("bench.replay.netlist.optimize");
        optimize(netlist)
    };
    let mapped = {
        let _s = span("bench.replay.netlist.map");
        map_luts(&opt, cfg.k, cfg.strategy).map_err(|e| e.to_string())?
    };
    {
        let _s = span("bench.replay.netlist.timing");
        std::hint::black_box(cfg.timing.critical_path_ns(&mapped));
    }
    {
        let _s = span("bench.replay.netlist.power");
        estimate_power(&mapped, &cfg.power).map_err(|e| e.to_string())?;
    }
    Ok(mapped.lut_count())
}

/// One configuration's true hardware characterization, replayed as
/// datapath generation plus the synthesis stages. Returns the LUT count
/// and the replay's wall time in milliseconds.
pub fn characterize(fw: &Clapped, c: &Configuration) -> Result<(usize, f64), String> {
    let t = Stopwatch::start();
    let cfg = fw.characterization();
    let datapath = {
        let _s = span("bench.replay.accel.datapath");
        build_datapath(&fw.accel_spec(c), cfg.shift).map_err(|e| e.to_string())?
    };
    let luts = synth_stages(&datapath, &cfg.synth)?;
    Ok((luts, t.elapsed().as_secs_f64() * 1e3))
}

/// One configuration's true behavioural evaluation.
pub fn evaluate(fw: &Clapped, c: &Configuration) -> Result<f64, String> {
    let _s = span("bench.replay.imgproc.evaluate");
    fw.evaluate_error(c)
        .map(|r| r.error_percent)
        .map_err(|e| e.to_string())
}

/// One configuration's behavioural and hardware feature encodings (the
/// surrogate inputs MBO and the ML models use).
pub fn encode(
    fw: &Clapped,
    c: &Configuration,
    repr: MulRepr,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let _s = span("bench.replay.core.encode");
    Ok((
        fw.encode(c, repr),
        fw.encode_hw(c).map_err(|e| e.to_string())?,
    ))
}

/// Replays every layer call a cold generative-catalog build makes for
/// one spec: netlist generation, structural lint, exhaustive table,
/// synthesis and the interval error-bound pass.
pub fn catalog_spec(arch: &MulArch, exact: &Netlist, synth: &SynthConfig) -> Result<(), String> {
    let netlist = {
        let _s = span("bench.replay.axops.netlist");
        arch.build_netlist()
    };
    {
        let _s = span("bench.replay.netlist.lint");
        if !lint_netlist(&netlist).is_clean() {
            return Err(format!("{arch:?} fails the structural lint"));
        }
    }
    {
        let _s = span("bench.replay.axops.table");
        std::hint::black_box(build_mul_table(&netlist));
    }
    synth_stages(&netlist, synth)?;
    let _s = span("bench.replay.netlist.errbound");
    let cfg = ErrBoundConfig {
        bdd_node_limit: 0,
        signed_outputs: true,
    };
    analyze_error_bounds(&netlist, exact, &cfg).map_err(|e| e.to_string())?;
    Ok(())
}
