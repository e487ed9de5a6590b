//! Synthetic timer-storm load on the simulator's event queue. It is kept
//! only because the repository benchmark's frozen
//! `net.storm_events_per_s` probe calls [`run_storm`]; no experiment
//! binary and no benchmark workload resembles it (ROADMAP 4(a) retires
//! the probe and this module together).
//!
//! The paper grids hold *shallow* pending sets (a few dozen MAC/timer
//! events in flight). This load arms a deep, mixed-horizon timer
//! population per node instead:
//!
//! * a working set of `TIMERS_PER_NODE` timers per node, rearmed on
//!   every firing with delays drawn (deterministically, from the node's
//!   simulation RNG) from 20 µs to 2 ms;
//! * one "chaff" timer armed per firing, 2 ms to 10 days out and mostly
//!   beyond any measured horizon, so the pending set grows linearly
//!   over the run the way accumulated timeout/GC timers do in long
//!   protocol runs, and every queue operation pays `O(log E)` on the
//!   growing `E`.
//!
//! No frames are sent: the load isolates the event queue from the
//! CSMA/CA medium. Everything is deterministic given the seed, so the
//! event count of a `(n, horizon, seed)` storm is a constant.

use std::time::Duration;
use wireless_net::frame::ReceivedFrame;
use wireless_net::sim::{Application, NodeCtx, SimConfig, Simulator};
use wireless_net::time::SimTime;

use rand::RngCore;

/// Live (continuously rearming) timers armed per node.
pub(crate) const TIMERS_PER_NODE: u64 = 32;

/// Timer id carried by chaff timers (never expected to fire within the
/// measured horizon; rearms as chaff if it ever does).
const CHAFF_ID: u64 = u64::MAX;

/// Draws the next rearm delay for a working-set timer: 20 µs – 2 ms
/// (backoff/airtime scale). Kept short so the firing rate — the event
/// throughput under measurement — stays high; the long horizons are
/// chaff's job.
fn next_delay(rng: &mut impl RngCore) -> Duration {
    Duration::from_nanos(20_000 + rng.next_u64() % 1_980_000)
}

/// Draws a chaff delay from five horizon classes. The short class
/// fires within a measured horizon; the rest accumulate as the growing
/// pending set.
fn chaff_delay(rng: &mut impl RngCore) -> Duration {
    let class = rng.next_u32() & 0xf;
    let nanos = match class {
        // 2 ms – 100 ms: fires in-horizon.
        0..=3 => 2_000_000 + rng.next_u64() % 98_000_000,
        // 100 ms – 5 s.
        4..=7 => 100_000_000 + rng.next_u64() % 4_900_000_000,
        // 5 s – 50 s.
        8..=11 => 5_000_000_000 + rng.next_u64() % 45_000_000_000,
        // 50 s – 1000 s.
        12..=14 => 50_000_000_000 + rng.next_u64() % 950_000_000_000,
        // 4 – 10 days.
        _ => 345_600_000_000_000 + rng.next_u64() % 518_400_000_000_000,
    };
    Duration::from_nanos(nanos)
}

/// The stress application: arms [`TIMERS_PER_NODE`] rearming timers
/// plus one chaff timer per firing. Sends nothing.
struct TimerStorm;

impl Application for TimerStorm {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for id in 0..TIMERS_PER_NODE {
            let delay = next_delay(ctx.rng());
            ctx.set_timer(delay, id);
        }
    }

    fn on_frame(&mut self, _ctx: &mut NodeCtx<'_>, _frame: ReceivedFrame) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
        let delay = if timer == CHAFF_ID {
            chaff_delay(ctx.rng())
        } else {
            next_delay(ctx.rng())
        };
        ctx.set_timer(delay, timer);
        let chaff = chaff_delay(ctx.rng());
        ctx.set_timer(chaff, CHAFF_ID);
    }
}

/// Runs an `n`-node storm for `horizon_ms` of simulated time and returns
/// the number of events processed. Deterministic given `(n, seed,
/// horizon_ms)`.
pub fn run_storm(n: usize, seed: u64, horizon_ms: u64) -> u64 {
    let apps: Vec<Box<dyn Application>> = (0..n).map(|_| Box::new(TimerStorm) as _).collect();
    let cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut sim = Simulator::without_faults(cfg, apps);
    sim.run_until(SimTime::from_millis(horizon_ms), |_| false);
    sim.stats().events_processed
}
