//! Property tests for the wireless substrate: the reliable transport's
//! exactly-once/in-order contract under arbitrary loss, and frame
//! conservation in the medium.

use bytes::Bytes;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use wireless_net::fault::{FaultModel, IidLoss};
use wireless_net::frame::{NodeId, ReceivedFrame};
use wireless_net::reliable::ReliableEndpoint;
use wireless_net::sim::{Application, NodeCtx, SimConfig, Simulator};
use wireless_net::time::SimTime;

type Inbox = Rc<RefCell<Vec<(NodeId, Vec<u8>)>>>;

/// Sends a scripted list of (dst, tag) messages at start; records
/// ordered deliveries.
struct Scripted {
    transport: ReliableEndpoint,
    script: Vec<(usize, u32)>,
    inbox: Inbox,
}

impl Application for Scripted {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let me = ctx.node();
        for (i, &(dst, tag)) in self.script.iter().enumerate() {
            let msg = format!("{me}:{i}:{tag}");
            self.transport.send(ctx, dst, Bytes::from(msg.into_bytes()));
        }
    }
    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
        for (peer, msg) in self.transport.on_frame(ctx, &frame) {
            self.inbox.borrow_mut().push((peer, msg.to_vec()));
        }
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
        let _ = self.transport.on_timer(ctx, timer);
    }
    fn on_unicast_failed(&mut self, ctx: &mut NodeCtx<'_>, dst: NodeId, payload: Bytes) {
        self.transport.on_unicast_failed(ctx, dst, payload);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every sent message is delivered exactly once, in per-sender
    /// order, regardless of loss rate (below the MAC-death threshold)
    /// and scheduling seed.
    #[test]
    fn reliable_transport_exactly_once_in_order(
        seed in 0u64..5000,
        loss_pct in 0u32..35,
        scripts in prop::collection::vec(
            prop::collection::vec((0usize..3, 0u32..100), 0..6),
            3,
        ),
    ) {
        let n = 3;
        let inboxes: Vec<Inbox> = (0..n).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
        let apps: Vec<Box<dyn Application>> = scripts
            .iter()
            .enumerate()
            .map(|(i, script)| {
                Box::new(Scripted {
                    transport: ReliableEndpoint::new(i, n),
                    script: script.clone(),
                    inbox: inboxes[i].clone(),
                }) as Box<dyn Application>
            })
            .collect();
        let fault: Box<dyn FaultModel> = Box::new(IidLoss::new(loss_pct as f64 / 100.0, seed));
        let mut sim = Simulator::new(
            SimConfig { seed, ..SimConfig::default() },
            fault,
            apps,
        );
        sim.run_until(SimTime::from_millis(120_000), |_| false);

        // Expected per (receiver, sender): the sender's script entries
        // addressed to that receiver, in order.
        for (rx, inbox) in inboxes.iter().enumerate() {
            for (tx, script) in scripts.iter().enumerate() {
                let expected: Vec<String> = script
                    .iter()
                    .enumerate()
                    .filter(|(_, &(dst, _))| dst == rx)
                    .map(|(i, &(_, tag))| format!("{tx}:{i}:{tag}"))
                    .collect();
                let got: Vec<String> = inbox
                    .borrow()
                    .iter()
                    .filter(|(peer, _)| *peer == tx)
                    .map(|(_, m)| String::from_utf8_lossy(m).into_owned())
                    .collect();
                prop_assert_eq!(
                    got, expected,
                    "rx={} tx={} seed={} loss={}%", rx, tx, seed, loss_pct
                );
            }
        }
    }

    /// Frame accounting is conserved: every application delivery stems
    /// from a transmitted frame, and drops + deliveries never exceed
    /// transmissions × receivers.
    #[test]
    fn frame_accounting_consistent(seed in 0u64..2000, loss_pct in 0u32..50) {
        struct Babbler;
        impl Application for Babbler {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                for _ in 0..5 {
                    ctx.broadcast(Bytes::from_static(b"x"), 36);
                }
            }
            fn on_frame(&mut self, _ctx: &mut NodeCtx<'_>, _f: ReceivedFrame) {}
            fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _t: u64) {}
        }
        let n = 4;
        let apps: Vec<Box<dyn Application>> =
            (0..n).map(|_| Box::new(Babbler) as Box<dyn Application>).collect();
        let mut sim = Simulator::new(
            SimConfig { seed, ..SimConfig::default() },
            Box::new(IidLoss::new(loss_pct as f64 / 100.0, seed)),
            apps,
        );
        sim.run_until(SimTime::from_millis(10_000), |_| false);
        let s = sim.stats();
        // Non-loopback deliveries can never exceed successful broadcast
        // transmissions × (n − 1).
        let successful = s.broadcast_frames_sent - s.collisions.min(s.broadcast_frames_sent);
        prop_assert!(s.deliveries - s.loopback_deliveries <= successful * (n as u64 - 1));
        // Fault drops only occur on transmitted frames.
        prop_assert!(s.fault_drops <= s.broadcast_frames_sent * (n as u64 - 1));
        // Everything enqueued either flew or was queue-dropped.
        prop_assert!(s.broadcast_frames_sent + s.queue_drops >= s.broadcast_sends);
    }
}
