//! `radio_null`'s application: traffic with no engine and no crypto
//! behind it, so all of the workload's host time is `wireless-net`.
//!
//! Every scaled tick each node puts one fixed-size, time-stamped
//! broadcast and one unicast to a rotating peer on the air. A receiver
//! reads only the stamp of what it hears. After the horizon the nodes
//! stop re-arming, the event queue drains, and the run ends quiescent —
//! so the harness's `run_until` and the tracer's own `step` loop process
//! exactly the same events.

use crate::jobs::scale_tick;
use crate::surface::{Application, Bytes, NodeCtx, ReceivedFrame, SimTime, UDP_OVERHEAD};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Payload bytes of every frame the load sends.
pub const PAYLOAD_LEN: usize = 300;

/// What the receivers saw, summed over all nodes of one run.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct RadioTally {
    /// Frames heard from other nodes.
    pub heard: u64,
    /// Sum over those frames of simulated delivery − send time, ns.
    pub delay_ns: u64,
}

/// Shared handle to a run's [`RadioTally`].
pub type SharedTally = Rc<RefCell<RadioTally>>;

struct NullRadio {
    n: usize,
    tick: Duration,
    stop_at: SimTime,
    round: usize,
    tally: SharedTally,
}

impl NullRadio {
    fn send(&mut self, ctx: &mut NodeCtx<'_>) {
        if ctx.now() >= self.stop_at {
            return;
        }
        let mut payload = vec![0u8; PAYLOAD_LEN];
        payload[..8].copy_from_slice(&ctx.now().as_nanos().to_be_bytes());
        let payload = Bytes::from(payload);
        ctx.broadcast(payload.clone(), UDP_OVERHEAD);
        // Rotate over the n − 1 other nodes.
        let peer = (ctx.node() + 1 + self.round % (self.n - 1)) % self.n;
        ctx.unicast(peer, payload, UDP_OVERHEAD);
        self.round += 1;
        ctx.set_timer(self.tick, 0);
    }
}

impl Application for NullRadio {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.send(ctx);
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
        if frame.src == ctx.node() {
            return; // own broadcast, looped back by the OS
        }
        let mut stamp = [0u8; 8];
        stamp.copy_from_slice(&frame.payload[..8]);
        let sent = SimTime::from_nanos(u64::from_be_bytes(stamp));
        let mut tally = self.tally.borrow_mut();
        tally.heard += 1;
        tally.delay_ns += ctx.now().saturating_since(sent).as_nanos() as u64;
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: u64) {
        self.send(ctx);
    }
}

/// Builds the `n` applications of one radio run and their shared tally.
pub fn radio_apps(n: usize, horizon: Duration) -> (Vec<Box<dyn Application>>, SharedTally) {
    assert!(n >= 2, "the rotating unicast needs a peer");
    let tally = SharedTally::default();
    let apps = (0..n)
        .map(|_| {
            Box::new(NullRadio {
                n,
                tick: scale_tick(n),
                stop_at: SimTime::ZERO + horizon,
                round: 0,
                tally: tally.clone(),
            }) as Box<dyn Application>
        })
        .collect();
    (apps, tally)
}
