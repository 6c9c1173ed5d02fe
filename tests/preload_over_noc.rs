//! Integration across all three hardware substrates: Phase 1 (pre-loading
//! command blocks over the NoC), Phase 2 (installing the offline schedule),
//! Phase 3 (timed execution) — the full Fig. 3 / §IV flow.
//!
//! Pre-load traffic is time-*insensitive* (it happens before run-time), so
//! NoC jitter on that path is harmless; execution timing comes from the
//! controller's global timer and is exact.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagio::controller::command::{CommandBlock, GpioCommand};
use tagio::controller::sim::{max_deviation_micros, IoController};
use tagio::core::job::JobSet;
use tagio::core::schedule::Schedule;
use tagio::core::task::{DeviceId, TaskId};
use tagio::noc::sim::{NocConfig, NocSim};
use tagio::noc::topology::{Mesh, NodeId};
use tagio::noc::traffic::UniformTraffic;
use tagio::sched::{Scheduler, StaticScheduler};
use tagio::workload::SystemConfig;

/// Encodes one command block as a pre-load packet: header flit + one flit
/// per 4-byte command word.
fn preload_packet_flits(block: &CommandBlock) -> u32 {
    1 + (block.encoded_bytes() / 4) as u32
}

#[test]
fn full_preload_schedule_execute_flow() {
    let mut rng = StdRng::seed_from_u64(42);
    let tasks = SystemConfig::paper(0.3).generate(&mut rng);
    let jobs = JobSet::expand(&tasks);
    let schedule: Schedule = StaticScheduler::new()
        .schedule(&jobs)
        .expect("schedulable at U=0.3");
    schedule.validate(&jobs).expect("valid");

    // --- Phase 1: ship command blocks from CPU (0,0) to the controller at
    // the home port of router (3,3), across a busy mesh. ---
    let mut noc = NocSim::new(Mesh::new(4, 4), NocConfig::default());
    let mut traffic_rng = StdRng::seed_from_u64(7);
    UniformTraffic::light().schedule(&mut noc, 300, &mut traffic_rng);

    let cpu = NodeId::new(0, 0);
    let controller_node = NodeId::new(3, 3);
    let mut controller = IoController::new();
    let mut preload_packets = Vec::new();
    for task in &tasks {
        let wcet = task.wcet().as_micros();
        let block = if wcet >= 3 {
            CommandBlock::pulse(0, wcet - 2)
        } else {
            CommandBlock::sample()
        };
        let id = noc.send(cpu, controller_node, preload_packet_flits(&block), 3, 0);
        preload_packets.push(id);
        controller.preload(task.id(), block).expect("memory fits");
    }
    assert!(noc.run_to_idle(5_000_000), "pre-load traffic drained");
    for id in &preload_packets {
        assert!(
            noc.delivered().iter().any(|d| d.packet.id == *id),
            "pre-load packet {id} delivered"
        );
    }

    // --- Phase 2: install the offline schedule; Phase 3: execute. ---
    controller.load_schedule(DeviceId(0), &schedule);
    controller.enable_all();
    let traces = controller.run();
    let trace = &traces[&DeviceId(0)];
    assert!(trace.faults.is_empty());
    assert_eq!(max_deviation_micros(trace, &schedule), Some(0));
}

#[test]
fn preload_latency_varies_but_execution_does_not() {
    // The crux of the paper: NoC delivery times of identical packets differ
    // run-to-run with background load, while the controller's execution of
    // the same schedule is identical every time.
    let block = CommandBlock::new().with(GpioCommand::ReadWord);
    let flits = preload_packet_flits(&block);

    let mut latencies = Vec::new();
    for seed in 0..5u64 {
        let mut noc = NocSim::new(Mesh::new(4, 4), NocConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        UniformTraffic {
            injection_rate: 0.08,
            flits: 4,
            priority: 1,
        }
        .schedule(&mut noc, 300, &mut rng);
        let probe = noc.send(NodeId::new(0, 0), NodeId::new(3, 3), flits, 1, 50);
        assert!(noc.run_to_idle(5_000_000));
        latencies.push(
            noc.delivered()
                .iter()
                .find(|d| d.packet.id == probe)
                .expect("delivered")
                .latency(),
        );
    }
    let jitter = latencies.iter().max().unwrap() - latencies.iter().min().unwrap();
    assert!(
        jitter > 0,
        "expected load-dependent latency, got {latencies:?}"
    );

    // Same schedule, five controller runs: identical traces.
    let mut rng = StdRng::seed_from_u64(3);
    let tasks = SystemConfig::paper(0.3).generate(&mut rng);
    let jobs = JobSet::expand(&tasks);
    let schedule = StaticScheduler::new().schedule(&jobs).expect("feasible");
    let mut traces = Vec::new();
    for _ in 0..5 {
        let mut controller = IoController::for_taskset(&tasks).expect("fits");
        controller.load_schedule(DeviceId(0), &schedule);
        controller.enable_all();
        traces.push(controller.run().remove(&DeviceId(0)).expect("device 0"));
    }
    for t in &traces[1..] {
        assert_eq!(t.executed, traces[0].executed, "execution is deterministic");
    }
    let _ = TaskId(0);
}
