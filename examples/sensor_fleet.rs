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
use turquois::core::instance::Turquois;
use turquois::core::KeyRing;
use turquois::crypto::cost::CostModel;
use turquois::harness::adapters::{RunProbe, TurquoisApp};
use turquois::net::fault::GilbertElliott;
use turquois::net::sim::{Application, SimConfig, Simulator};
use turquois::net::time::SimTime;

fn main() {
    let n = 16;
    let cfg = Config::evaluation(n).expect("16 sensors admit f = 5");
    let f = cfg.f();
    println!("sensor fleet: n = {n}, tolerating f = {f} captured sensors, k = {}", cfg.k());

    // Detections: sensors 0..7 saw the hazard.
    let proposals: Vec<bool> = (0..n).map(|i| i < 7).collect();
    // Sensors 11..16 are captured.
    let captured: Vec<bool> = (0..n).map(|i| i >= n - f).collect();

    let rings = KeyRing::trusted_setup(n, 600, 99);
    let probe = RunProbe::new(n);
    let cost = CostModel::pentium3_600();
    let apps: Vec<Box<dyn Application>> = rings
        .into_iter()
        .enumerate()
        .map(|(i, ring)| {
            if captured[i] {
                let tracker = Turquois::new(cfg, i, proposals[i], ring.clone(), 99 + i as u64);
                Box::new(TurquoisApp::flipping(tracker, ring)) as Box<dyn Application>
            } else {
                let inst = Turquois::new(cfg, i, proposals[i], ring, 99 + i as u64);
                Box::new(TurquoisApp::new(inst, cost, probe.clone())) as Box<dyn Application>
            }
        })
        .collect();

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
        if captured[i] {
            continue;
        }
        if let Some(d) = sim.decisions()[i] {
            decided += 1;
            if d.value {
                alarm_votes += 1;
            }
            println!(
                "  sensor {i:2}: detected={} decided={} at {:.1} ms",
                proposals[i] as u8,
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
