//! Property tests: every protocol message type round-trips through its
//! wire line — `decode(encode(m)) == m` — including awkward floats,
//! optional fields in both states, and every enum variant.
//!
//! The vendored proptest has no string or enum strategies, so messages
//! are assembled from drawn primitives: strings come from `u64`s
//! (`format!("t{n}")`), enums from small integer selectors.

use clapped_dse::{Configuration, MboConfig};
use clapped_imgproc::ConvMode;
use clapped_serve::{
    ErrorCode, JobSpec, JobState, JobStatus, ParetoEntry, Reply, Request, ServerStats,
};
use proptest::prelude::*;

fn app_of(selector: bool) -> clapped_core::AppKind {
    if selector {
        clapped_core::AppKind::GaussianDenoise
    } else {
        clapped_core::AppKind::SobelEdge
    }
}

fn mbo_of(seed: u64, batch: usize, reference: Vec<f64>) -> MboConfig {
    MboConfig {
        initial_samples: (seed % 19 + 1) as usize,
        iterations: (seed % 7) as usize,
        batch,
        candidates: (seed % 31 + 1) as usize,
        reference,
        kappa: (seed % 11) as f64 / 3.0,
        explore_fraction: (seed % 10) as f64 / 10.0,
        seed,
    }
}

fn spec_of(
    selector: u64,
    seed: u64,
    sigma: f64,
    batch: usize,
    reference: Vec<f64>,
    limit: f64,
) -> JobSpec {
    JobSpec {
        app: app_of(selector.is_multiple_of(2)),
        image_size: (seed % 60 + 4) as usize,
        noise_sigma: sigma,
        seed,
        mbo: mbo_of(seed, batch, reference),
        max_error_percent: selector.is_multiple_of(3).then_some(limit),
        max_evaluations: selector.is_multiple_of(5).then_some((seed % 200) as usize + 1),
        deadline_ms: selector.is_multiple_of(7).then_some(seed % 100_000),
    }
}

fn status_of(selector: u64, job: u64, hv: f64) -> JobStatus {
    let state = match selector % 4 {
        0 => JobState::Queued,
        1 => JobState::Running,
        2 => JobState::Done,
        _ => JobState::Failed,
    };
    JobStatus {
        job: format!("j{job}"),
        tenant: format!("t{}", job % 13),
        state,
        evaluations_done: selector % 500,
        evaluations_planned: selector % 500 + job % 50,
        iterations_done: selector % 40,
        hypervolume: hv,
        finish_seq: state.is_terminal().then_some(job % 97),
        error: (state == JobState::Failed).then(|| format!("fail{selector}")),
    }
}

fn entry_of(window_sel: u64, scale: usize, luts: f64, err: f64, muls: Vec<usize>) -> ParetoEntry {
    let window = (window_sel % 3) as usize * 2 + 3; // 3, 5 or 7
    let mut config = Configuration::golden(window);
    config.stride = (window_sel % 2 + 1) as usize;
    config.downsample = window_sel.is_multiple_of(3);
    config.mode = if window_sel.is_multiple_of(2) { ConvMode::TwoD } else { ConvMode::Separable };
    config.scale = scale;
    config.mul_indices = (0..window * window).map(|i| muls[i % muls.len()]).collect();
    ParetoEntry { config, error_percent: err, luts, feasible: window_sel % 2 == 1 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_request_variant_round_trips(
        variant in 0usize..7,
        selector: u64,
        seed: u64,
        sigma in 0.0f64..60.0,
        batch in 1usize..9,
        reference in proptest::collection::vec(0.1f64..10_000.0, 2),
        limit in 0.0f64..50.0,
    ) {
        let request = match variant {
            0 => Request::Ping,
            1 => Request::Submit {
                tenant: format!("t{}", selector % 23),
                spec: spec_of(selector, seed, sigma, batch, reference, limit),
            },
            2 => Request::Status { job: format!("j{}", seed % 1000) },
            3 => Request::Result { job: format!("j{}", seed % 1000) },
            4 => Request::Jobs,
            5 => Request::Stats,
            _ => Request::Shutdown,
        };
        let line = request.encode();
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(Request::decode(&line).map_err(|e| e.to_string()), Ok(request));
    }

    #[test]
    fn every_reply_variant_round_trips(
        variant in 0usize..8,
        selector: u64,
        job: u64,
        hv in 0.0f64..1.0e9,
        luts in 0.0f64..50_000.0,
        err in 0.0f64..100.0,
        scale in 1usize..5,
        muls in proptest::collection::vec(0usize..12, 1..6),
        counters in proptest::collection::vec(0u64..1_000_000, 13),
    ) {
        let reply = match variant {
            0 => Reply::Pong,
            1 => Reply::Submitted { job: format!("j{job}") },
            2 => Reply::Status(status_of(selector, job, hv)),
            3 => Reply::JobResult {
                status: status_of(selector, job, hv),
                pareto: (0..(selector % 4))
                    .map(|i| entry_of(selector + i, scale, luts, err, muls.clone()))
                    .collect(),
            },
            4 => Reply::Jobs(
                (0..(selector % 5)).map(|i| status_of(selector + i, job + i, hv)).collect(),
            ),
            5 => Reply::Stats(ServerStats {
                jobs_submitted: counters[0],
                jobs_done: counters[1],
                jobs_failed: counters[2],
                steps: counters[3],
                requests: counters[4],
                protocol_errors: counters[5],
                cache: clapped_exec::CacheStats {
                    hits: counters[6],
                    disk_hits: counters[7],
                    misses: counters[8],
                    insertions: counters[9],
                    evictions: counters[10],
                    disk_corrupt: counters[11],
                    entries: counters[12] as usize,
                },
            }),
            6 => Reply::Bye,
            _ => {
                let codes = [
                    ErrorCode::Malformed,
                    ErrorCode::Oversized,
                    ErrorCode::Timeout,
                    ErrorCode::UnknownOp,
                    ErrorCode::UnknownJob,
                    ErrorCode::BadSpec,
                    ErrorCode::ShuttingDown,
                ];
                Reply::Error {
                    code: codes[(selector % codes.len() as u64) as usize],
                    detail: format!("d{selector}"),
                }
            }
        };
        let line = reply.encode();
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(Reply::decode(&line).map_err(|e| e.to_string()), Ok(reply));
    }

    /// The MBO seed, kappa and reference floats survive the submit path
    /// bit-exactly — the property bit-identical resume rests on.
    #[test]
    fn submit_spec_floats_are_bit_exact(
        seed: u64,
        sigma in 0.0f64..60.0,
        reference in proptest::collection::vec(1.0e-6f64..1.0e7, 2),
    ) {
        let spec = spec_of(1, seed, sigma, 3, reference, 5.0);
        let line = Request::Submit { tenant: "t".to_string(), spec: spec.clone() }.encode();
        let Ok(Request::Submit { spec: decoded, .. }) = Request::decode(&line) else {
            return Err("decode failed".to_string());
        };
        prop_assert_eq!(decoded.noise_sigma.to_bits(), spec.noise_sigma.to_bits());
        prop_assert_eq!(decoded.mbo.kappa.to_bits(), spec.mbo.kappa.to_bits());
        for (a, b) in decoded.mbo.reference.iter().zip(&spec.mbo.reference) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
