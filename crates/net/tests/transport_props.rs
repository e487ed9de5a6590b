//! Property tests for the wireless substrate: the reliable transport's
//! exactly-once/in-order contract under arbitrary loss, its reused
//! release buffer, and frame conservation in the medium.

use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;
use wireless_net::fault::{FaultModel, IidLoss};
use wireless_net::frame::{Addressing, NodeId, ReceivedFrame};
use wireless_net::reliable::ReliableEndpoint;
use wireless_net::sim::{Application, Command, NodeCtx, SimConfig, Simulator};
use wireless_net::time::SimTime;

type Inbox = Rc<RefCell<Vec<(NodeId, Vec<u8>)>>>;

/// Sends a scripted list of (dst, tag) messages at start; records
/// ordered deliveries.
struct Scripted {
    transport: ReliableEndpoint,
    script: Vec<(usize, u32)>,
    inbox: Inbox,
    released: Vec<(NodeId, Bytes)>,
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
        self.transport.on_frame(ctx, &frame, &mut self.released);
        for (peer, msg) in &self.released {
            self.inbox.borrow_mut().push((*peer, msg.to_vec()));
        }
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
        let _ = self.transport.on_timer(ctx, timer);
    }
    fn on_unicast_failed(&mut self, ctx: &mut NodeCtx<'_>, dst: NodeId, payload: Bytes) {
        self.transport.on_unicast_failed(ctx, dst, payload);
    }
}

/// Runs one callback of `endpoint` at `ms` simulated milliseconds and
/// returns the commands it issued.
fn callback(
    endpoint: &mut ReliableEndpoint,
    ms: u64,
    body: impl FnOnce(&mut ReliableEndpoint, &mut NodeCtx<'_>),
) -> Vec<Command> {
    let mut rng = StdRng::seed_from_u64(1);
    let mut ctx = NodeCtx::new(endpoint.node(), SimTime::from_millis(ms), &mut rng, Vec::new());
    body(endpoint, &mut ctx);
    ctx.finish().1
}

/// The unicast payloads among `commands`.
fn unicasts(commands: &[Command]) -> Vec<Bytes> {
    let payloads = commands.iter().filter_map(|command| match command {
        Command::Unicast { payload, .. } => Some(payload.clone()),
        _ => None,
    });
    payloads.collect()
}

/// The transport's timer id among `commands`.
fn tick_id(commands: &[Command]) -> u64 {
    let mut ids = commands.iter().filter_map(|command| match command {
        Command::SetTimer { id, .. } => Some(*id),
        _ => None,
    });
    ids.next().expect("the transport armed its tick")
}

/// `on_frame` clears the caller's buffer before releasing into it: a
/// frame that releases nothing — a duplicate segment, a pure ACK, a
/// malformed batch, a frame that is no segment, a segment parked in
/// the reorder buffer — leaves it empty, and a reorder-buffer drain
/// releases in order into the same buffer.
#[test]
fn release_buffer_is_cleared_and_reused_per_frame() {
    let (mut sender, mut receiver) = (ReliableEndpoint::new(0, 2), ReliableEndpoint::new(1, 2));
    // One small message flies at once; each full-MSS message behind it
    // is a segment of its own.
    let messages: Vec<Bytes> =
        [3, 1400, 1400, 1400].map(|len| Bytes::from(vec![len as u8; len])).to_vec();
    let segments = unicasts(&callback(&mut sender, 0, |sender, ctx| {
        for message in &messages {
            sender.send(ctx, 1, message.clone());
        }
    }));
    assert_eq!(segments.len(), 4);
    let frame = |src: NodeId, payload: &Bytes| ReceivedFrame {
        src,
        addressing: Addressing::Unicast(1 - src),
        payload: payload.clone(),
    };
    let stale = (7, Bytes::from_static(b"stale"));
    let mut released = Vec::new();
    let mut deliver = |endpoint: &mut ReliableEndpoint, ms: u64, frame: ReceivedFrame| {
        released.push(stale.clone());
        let commands = callback(endpoint, ms, |endpoint, ctx| {
            endpoint.on_frame(ctx, &frame, &mut released);
        });
        (released.clone(), commands)
    };

    let (first, commands) = deliver(&mut receiver, 1, frame(0, &segments[0]));
    assert_eq!(first, vec![(0, messages[0].clone())]);
    let ack_tick = tick_id(&commands);
    assert!(deliver(&mut receiver, 2, frame(0, &segments[0])).0.is_empty(), "duplicate segment");
    let foreign = Bytes::from_static(b"not a segment");
    assert!(deliver(&mut receiver, 3, frame(0, &foreign)).0.is_empty(), "no segment");
    assert!(deliver(&mut receiver, 4, frame(0, &segments[2])).0.is_empty(), "parked out of order");
    let (drained, _) = deliver(&mut receiver, 5, frame(0, &segments[1]));
    assert_eq!(drained, vec![(0, messages[1].clone()), (0, messages[2].clone())]);
    let truncated = segments[3].slice(..segments[3].len() - 1);
    assert!(deliver(&mut receiver, 6, frame(0, &truncated)).0.is_empty(), "malformed batch");

    // The receiver's delayed ACK, once due, is a pure ACK segment.
    let acks = unicasts(&callback(&mut receiver, 20, |receiver, ctx| {
        assert!(receiver.on_timer(ctx, ack_tick));
    }));
    assert_eq!(acks.len(), 1);
    assert!(deliver(&mut sender, 21, frame(1, &acks[0])).0.is_empty(), "pure ACK");
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
                    released: Vec::new(),
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
