//! Host-speed calibration: a fixed reference kernel timed through the
//! run, and timed sections scaled by it to the reference host's speed.
//!
//! On a shared virtual machine the same code runs up to twice as slowly
//! and more for seconds to minutes at a time (a busy sibling hyperthread,
//! shared caches, clock frequency), and CPU time slows with it. The
//! kernel is the benchmark's own code and never changes, so its time moves
//! only with the host; a section's latency scaled by
//! `REFERENCE_S / kernel time around it` is its latency at the speed the
//! reference host had when the kernel took [`REFERENCE_S`]. The kernel
//! does the three kinds of work the program does, in working sets of the
//! program's size: hash-table inserts and probes (structural hashing,
//! caches), a bit-parallel gate-level simulation of a fixed random netlist
//! (tables, power estimation) and a dense Cholesky factorization (GP
//! fits).

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Time of one kernel run on the reference host (2-vCPU KVM guest on a
/// 2.1 GHz Xeon, at a quiet hour): the speed scaled latencies are
/// expressed at.
pub const REFERENCE_S: f64 = 0.0075;

/// A new calibration sample is taken before and after a timed section
/// when the last one is at least this old.
const PERIOD: Duration = Duration::from_millis(250);

/// Gates and primary inputs of the simulated netlist.
const GATES: usize = 1 << 14;
const INPUTS: usize = 64;
/// Side of the factorized matrix: 512 KiB, the size of the GP kernel
/// matrices late in an ML-mode search.
const SPD: usize = 256;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The kernel's fixed inputs, built once per process.
struct Inputs {
    /// Gates `(fanin a, fanin b, kind)`; fanins index inputs then gates.
    netlist: Vec<(u32, u32, u8)>,
    /// A symmetric positive-definite `SPD × SPD` matrix, row-major.
    spd: Vec<f64>,
}

fn inputs() -> &'static Inputs {
    static INPUTS_ONCE: OnceLock<Inputs> = OnceLock::new();
    INPUTS_ONCE.get_or_init(|| {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let netlist = (0..GATES)
            .map(|g| {
                let fanins = (g + INPUTS) as u64;
                let a = (xorshift(&mut x) % fanins) as u32;
                let b = (xorshift(&mut x) % fanins) as u32;
                (a, b, (xorshift(&mut x) % 3) as u8)
            })
            .collect();
        let m: Vec<f64> = (0..SPD * SPD)
            .map(|_| (xorshift(&mut x) % 1000) as f64 / 1000.0)
            .collect();
        let mut spd = vec![0.0; SPD * SPD];
        for i in 0..SPD {
            for j in 0..SPD {
                let dot: f64 = (0..SPD).map(|k| m[i * SPD + k] * m[j * SPD + k]).sum();
                spd[i * SPD + j] = dot + if i == j { SPD as f64 } else { 0.0 };
            }
        }
        Inputs { netlist, spd }
    })
}

fn hashing() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut table: HashMap<u64, u32> = HashMap::with_capacity(1 << 16);
    for i in 0..(1u32 << 16) {
        table.insert(xorshift(&mut x) & 0xff_ffff, i);
    }
    let mut y = 0x9e37_79b9_7f4a_7c15u64;
    (0..1u32 << 17)
        .filter_map(|_| table.get(&(xorshift(&mut y) & 0xff_ffff)))
        .map(|&v| u64::from(v))
        .sum()
}

fn simulate(netlist: &[(u32, u32, u8)]) -> u64 {
    let mut values = vec![0u64; INPUTS + GATES];
    let mut x = 0x1234_5678_9abc_def1u64;
    let mut out = 0u64;
    for _ in 0..24 {
        for v in values.iter_mut().take(INPUTS) {
            *v = xorshift(&mut x);
        }
        for (g, &(a, b, kind)) in netlist.iter().enumerate() {
            let (a, b) = (values[a as usize], values[b as usize]);
            values[INPUTS + g] = match kind {
                0 => a & b,
                1 => a | !b,
                _ => a ^ b,
            };
        }
        out ^= values[INPUTS + GATES - 1];
    }
    out
}

fn cholesky(spd: &[f64]) -> f64 {
    let mut l = spd.to_vec();
    for j in 0..SPD {
        let d = (l[j * SPD + j] - (0..j).map(|k| l[j * SPD + k].powi(2)).sum::<f64>()).sqrt();
        l[j * SPD + j] = d;
        for i in j + 1..SPD {
            let dot: f64 = (0..j).map(|k| l[i * SPD + k] * l[j * SPD + k]).sum();
            l[i * SPD + j] = (l[i * SPD + j] - dot) / d;
        }
    }
    l[SPD * SPD - 1]
}

/// A timed section of the run.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    start: Instant,
    end: Instant,
}

impl Section {
    /// Its wall time, seconds.
    pub fn raw_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// The calibration samples of one run.
#[derive(Debug)]
pub struct HostClock {
    /// `(when it ended, kernel seconds)`, in time order.
    samples: Vec<(Instant, f64)>,
}

impl HostClock {
    /// A clock with its first sample taken.
    pub fn new() -> HostClock {
        let mut clock = HostClock {
            samples: Vec::new(),
        };
        clock.sample();
        clock
    }

    fn sample(&mut self) {
        let inputs = inputs();
        let t = Instant::now();
        black_box(hashing());
        black_box(simulate(&inputs.netlist));
        black_box(cholesky(&inputs.spd));
        self.samples.push((Instant::now(), t.elapsed().as_secs_f64()));
    }

    fn sample_if_due(&mut self) {
        if self
            .samples
            .last()
            .is_none_or(|&(at, _)| at.elapsed() >= PERIOD)
        {
            self.sample();
        }
    }

    /// Starts a timed section, calibrating first when a sample is due.
    pub fn begin(&mut self) -> Instant {
        self.sample_if_due();
        Instant::now()
    }

    /// Ends the section begun at `start`, calibrating after it when a
    /// sample is due.
    pub fn end(&mut self, start: Instant) -> Section {
        let section = Section {
            start,
            end: Instant::now(),
        };
        self.sample_if_due();
        section
    }

    /// Takes the sample that closes the run: every section then has one
    /// after it.
    pub fn finish(&mut self) {
        self.sample();
    }

    /// Mean kernel time of the last sample before `s` and the first after
    /// it (the last sample taken if none is after it yet), seconds.
    fn kernel_s(&self, s: &Section) -> f64 {
        let before = self.samples.partition_point(|&(at, _)| at <= s.start);
        let after = self.samples.partition_point(|&(at, _)| at < s.end);
        let pick = |k: usize| self.samples[k.min(self.samples.len() - 1)].1;
        (pick(before.saturating_sub(1)) + pick(after)) / 2.0
    }

    /// `s`'s wall time at the reference host's speed, seconds.
    pub fn scaled_s(&self, s: &Section) -> f64 {
        s.raw_s() * REFERENCE_S / self.kernel_s(s)
    }

    /// Median kernel time over the run, seconds.
    pub fn median_kernel_s(&self) -> f64 {
        crate::stats::median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }
}
