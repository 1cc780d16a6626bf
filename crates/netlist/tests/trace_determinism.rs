//! Observability must never perturb the fault campaign: a traced
//! sharded stuck-at campaign is bit-identical to an untraced run —
//! instrumentation only reads clocks and bumps atomics, it never
//! touches the wide-word evaluation or the shard fold.

use clapped_netlist::{bus, CampaignReport, Netlist};

fn adder() -> Netlist {
    let mut n = Netlist::new("add3");
    let a = n.input_bus("a", 3);
    let b = n.input_bus("b", 3);
    let (sum, carry) = bus::ripple_carry_add(&mut n, &a, &b, None);
    n.output_bus("s", &sum);
    n.output("cout", carry);
    n
}

fn run() -> CampaignReport {
    let n = adder();
    // Ten batches of deterministic stimulus: three W=4 block groups,
    // the last one partial, so the sharded path is fully exercised.
    let mut state = 0x243F6A8885A308D3u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let batches: Vec<Vec<u64>> = (0..10).map(|_| (0..6).map(|_| next()).collect()).collect();
    let engine = clapped_exec::Engine::new(clapped_exec::ExecConfig::with_jobs(3));
    n.stuck_at_campaign(&n.fault_sites(), &batches, 64, &engine).unwrap()
}

#[test]
fn traced_and_untraced_campaigns_are_bit_identical() {
    let untraced = run();

    let path = std::env::temp_dir()
        .join(format!("clapped-netlist-trace-test-{}.jsonl", std::process::id()));
    clapped_obs::enable_jsonl(&path).unwrap();
    let traced = run();
    clapped_obs::reset();

    assert_eq!(traced, untraced, "tracing must not change a single campaign statistic");

    // The trace itself is well-formed JSONL carrying the engine's batch
    // spans for the sharded sweep.
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 3, "start + events + trailing metrics");
    for line in &lines {
        let v: serde_json::Value =
            serde_json::from_str(line).expect("every trace line parses as JSON");
        assert!(v.get("type").and_then(|t| t.as_str()).is_some());
    }
    assert!(
        text.contains("\"exec.batch\""),
        "the sharded sweep must run through the traced engine"
    );
    let _ = std::fs::remove_file(&path);
}
