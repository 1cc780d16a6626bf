//! Pins the wire format and fuzzes the line decoders.
//!
//! One fixed message per `Request` and `Reply` variant is encoded and
//! its line's `Fnv64` digest compared with a pinned value, so a codec
//! change that moves a byte of any line fails. The fuzz half asserts
//! that every truncation of a line decodes to a structured `malformed`
//! error and that single-byte corruptions decode to `Ok` or `Err` but
//! never panic.

use clapped_dse::Configuration;
use clapped_exec::{CacheStats, Fnv64};
use clapped_imgproc::ConvMode;
use clapped_serve::{
    ErrorCode, JobSpec, JobState, JobStatus, ParetoEntry, Reply, Request, ServeError, ServerStats,
};
use proptest::prelude::*;

/// Bytes a corruption draws from half of the time: the JSON grammar's
/// structural characters, so mutations reach the field readers instead
/// of stopping at the parser.
const GRAMMAR: &[u8] = b"0123456789-+.eE\"{}[],: ntfrul\\";

fn spec() -> JobSpec {
    let mut spec = JobSpec {
        max_error_percent: Some(7.5),
        max_evaluations: Some(40),
        deadline_ms: Some(60_000),
        ..JobSpec::default()
    };
    spec.mbo.reference = vec![0.1 + 0.2, 12345.678901234567];
    spec.mbo.kappa = 1.0 / 3.0;
    spec
}

fn status(state: JobState) -> JobStatus {
    JobStatus {
        job: "j7".to_string(),
        tenant: "acme".to_string(),
        state,
        evaluations_done: 23,
        evaluations_planned: 40,
        iterations_done: 2,
        hypervolume: 1.0 / 7.0,
        finish_seq: state.is_terminal().then_some(5),
        error: (state == JobState::Failed).then(|| "deadline exceeded".to_string()),
    }
}

fn entry() -> ParetoEntry {
    let mut config = Configuration::golden(3);
    config.stride = 2;
    config.mode = ConvMode::Separable;
    config.mul_indices = (0..9).map(|i| i % 4).collect();
    ParetoEntry { config, error_percent: 3.25, luts: 1234.0, feasible: true }
}

fn requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Submit { tenant: "acme".to_string(), spec: spec() },
        Request::Status { job: "j7".to_string() },
        Request::Result { job: "j7".to_string() },
        Request::Jobs,
        Request::Stats,
        Request::Shutdown,
    ]
}

fn replies() -> Vec<Reply> {
    vec![
        Reply::Pong,
        Reply::Submitted { job: "j7".to_string() },
        Reply::Status(status(JobState::Running)),
        Reply::JobResult { status: status(JobState::Done), pareto: vec![entry(), entry()] },
        Reply::Jobs(vec![status(JobState::Queued), status(JobState::Failed)]),
        Reply::Stats(ServerStats {
            jobs_submitted: 9,
            jobs_done: 6,
            jobs_failed: 1,
            steps: 77,
            requests: 1234,
            protocol_errors: 3,
            cache: CacheStats {
                hits: 100,
                disk_hits: 20,
                misses: 30,
                insertions: 30,
                evictions: 2,
                disk_corrupt: 0,
                entries: 28,
            },
        }),
        Reply::Bye,
        Reply::Error {
            code: ErrorCode::BadSpec,
            detail: "image_size 0 outside [4, 4096]".to_string(),
        },
    ]
}

/// Every pinned line: requests first, then replies, in variant order.
fn lines() -> Vec<String> {
    let mut lines: Vec<String> = requests().iter().map(Request::encode).collect();
    lines.extend(replies().iter().map(Reply::encode));
    lines
}

const PINNED: [u64; 15] = [
    17302454402292954693,
    11397535492674891188,
    16064259413964319231,
    16680560053014248013,
    16812958621330446345,
    16403243799347039861,
    17552857279864287823,
    2965015637091179371,
    15849465449848541573,
    12158194300786295143,
    14047913487530187928,
    16516769039151215561,
    2770880280023013137,
    15983062526322564128,
    12837296457869680109,
];

fn digest(line: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(line.as_bytes());
    h.finish()
}

fn decode(index: usize, line: &str) -> Result<(), ServeError> {
    if index < requests().len() {
        Request::decode(line).map(drop)
    } else {
        Reply::decode(line).map(drop)
    }
}

#[test]
fn wire_lines_are_pinned() {
    let digests: Vec<u64> = lines().iter().map(|l| digest(l)).collect();
    assert_eq!(digests, PINNED, "wire format moved:\n{}", lines().join("\n"));
}

#[test]
fn every_truncated_line_is_malformed() {
    for (index, line) in lines().iter().enumerate() {
        let line = line.trim();
        for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
            assert!(
                matches!(
                    decode(index, &line[..cut]),
                    Err(ServeError::Protocol { code: ErrorCode::Malformed, .. })
                ),
                "prefix {:?} must be malformed",
                &line[..cut]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn corrupted_lines_never_panic(
        which in 0usize..15,
        position in any::<usize>(),
        byte in any::<u8>(),
        grammar in any::<bool>(),
    ) {
        let mut bytes = lines()[which].clone().into_bytes();
        let at = position % bytes.len();
        bytes[at] = if grammar { GRAMMAR[usize::from(byte) % GRAMMAR.len()] } else { byte };
        let _ = decode(which, &String::from_utf8_lossy(&bytes));
    }
}
