//! Sensor fleet: the paper's motivating scenario — unplanned wireless
//! deployments that must coordinate despite node compromise.
//!
//! Sixteen battery-powered sensors on a shared 802.11b channel must
//! agree whether to raise an evacuation alarm. Seven sensors detected
//! the hazard (propose 1), nine did not (propose 0); five sensors have
//! been captured by an adversary and actively fight the decision. The
//! fleet must reach a *common* decision — an alarm raised by half the
//! sensors is worse than no alarm at all.
//!
//! ```text
//! cargo run --release --example sensor_fleet
//! ```

use std::time::Duration;
use turquois::core::config::Config;
use turquois::harness::adapters::RunProbe;
use turquois::harness::{Group, Protocol, Role};
use turquois::net::fault::GilbertElliott;
use turquois::net::sim::{SimConfig, Simulator};
use turquois::net::time::SimTime;

fn main() {
    let n = 16;
    let cfg = Config::evaluation(n).expect("16 sensors admit f = 5");
    let f = cfg.f();
    println!("sensor fleet: n = {n}, tolerating f = {f} captured sensors, k = {}", cfg.k());

    // Detections: sensors 0..7 saw the hazard.
    let detected = |i| i < 7;
    // Sensors 11..16 are captured: they flip their value (the paper's
    // §7.2 attack).
    let role = |i| if i >= n - f { Role::Attack } else { Role::Correct };

    let (group, probe) = (Group::new(Protocol::Turquois, cfg, 600, 99), RunProbe::new(n));
    let apps = (0..n).map(|i| group.node(i, detected(i), role(i), 99 + i as u64, &probe)).collect();

    // Outdoor channel: bursty interference (Gilbert–Elliott).
    let fault = GilbertElliott::new(0.02, 0.3, 0.005, 0.5, 7);
    let sim_cfg = SimConfig {
        seed: 99,
        start_jitter: Duration::from_millis(2),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(sim_cfg, Box::new(fault), apps);
    let status = sim.run_until_k_decided(cfg.k(), SimTime::from_millis(60_000));
    println!("run status: {status:?} at t = {}", sim.now());

    let mut alarm_votes = 0;
    let mut decided = 0;
    for i in 0..n {
        if role(i) != Role::Correct {
            continue;
        }
        if let Some(d) = sim.decisions()[i] {
            decided += 1;
            if d.value {
                alarm_votes += 1;
            }
            println!(
                "  sensor {i:2}: detected={} decided={} at {:.1} ms",
                detected(i) as u8,
                d.value as u8,
                d.time.saturating_since(sim.start_times()[i]).as_secs_f64() * 1e3
            );
        }
    }
    assert!(decided >= cfg.k(), "k sensors must decide");
    assert!(
        alarm_votes == 0 || alarm_votes == decided,
        "agreement: the fleet must speak with one voice"
    );
    println!(
        "\nfleet decision: {} ({decided} sensors, unanimous despite {f} captured)",
        if alarm_votes > 0 { "RAISE ALARM" } else { "stand down" }
    );
    println!(
        "channel: {} frames, {} collisions, {} burst-loss drops",
        sim.stats().frames_sent(),
        sim.stats().collisions,
        sim.stats().fault_drops
    );
}
