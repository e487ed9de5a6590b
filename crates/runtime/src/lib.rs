//! # turquois-runtime — any simulator `Application`, live over UDP
//!
//! Hosts the simulator's [`Application`]s (the harness's Turquois, Bracha
//! and ABBA adapters, unchanged) on real sockets: one thread and one
//! [`UdpSocket`] per node, its application built on that thread by a
//! [`Recipe`], typically `Scenario::live_node`. Each callback gets a
//! [`NodeCtx`] at the wall time since its node started; what it drains
//! applies at once: a broadcast is a datagram to every node, the sender
//! included, a unicast one datagram, a timer a min-heap entry. CPU
//! charged through [`NodeCtx::charge_cpu`] is ignored: live CPU is real.
//! Receivers apply the recipe's [`FaultModel`], and every node records
//! its inputs and commands ([`NodeLog`]) for [`NodeLog::replay`].
//!
//! ```
//! use std::time::Duration;
//! use turquois_runtime::{run, ClusterConfig};
//! use wireless_net::{fault::NoFaults, Application, NodeCtx, ReceivedFrame};
//!
//! struct Hello; // broadcasts once, decides on the first frame it hears
//! impl Application for Hello {
//!     fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
//!         ctx.broadcast(bytes::Bytes::from_static(b"hi"), 0);
//!     }
//!     fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, _: ReceivedFrame) {
//!         ctx.decide(true);
//!     }
//!     fn on_timer(&mut self, _: &mut NodeCtx<'_>, _: u64) {}
//! }
//! let config = ClusterConfig::localhost(3, Duration::from_secs(10))?;
//! let logs = run(config, &|_| (Box::new(Hello) as _, Box::new(NoFaults) as _))?;
//! assert!(logs.iter().all(|log| log.decision == Some(true)));
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bytes::Bytes;
use rand::{rngs::StdRng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use wireless_net::fault::{DeliveryCtx, FaultModel};
use wireless_net::{Addressing, Application, Command, Node, NodeCtx, NodeId, ReceivedFrame};
use wireless_net::SimTime;

/// Builds node `id`; called once per node thread and once per replay.
pub type Recipe<'a> = dyn Fn(NodeId) -> Node + Sync + 'a;

/// A live cluster: node `i` owns `sockets[i]`.
#[derive(Debug)]
pub struct ClusterConfig {
    /// One bound socket per node; their local addresses are the group.
    pub sockets: Vec<UdpSocket>,
    /// Wall-clock budget; the run ends sooner once every node decided.
    pub(crate) timeout: Duration,
}

impl ClusterConfig {
    /// `n` sockets on ephemeral `127.0.0.1` ports.
    pub fn localhost(n: usize, timeout: Duration) -> io::Result<ClusterConfig> {
        let sockets = (0..n).map(|_| UdpSocket::bind("127.0.0.1:0"));
        let sockets = sockets.collect::<io::Result<_>>()?;
        Ok(ClusterConfig { sockets, timeout })
    }
}

/// One callback a node was driven through.
#[derive(Clone, Debug)]
pub enum Input {
    /// [`Application::on_start`].
    Start,
    /// [`Application::on_frame`].
    Frame(ReceivedFrame),
    /// [`Application::on_timer`].
    Timer(u64),
}

/// What one node saw and did, in order, and what it decided.
#[derive(Clone, Debug, Default)]
pub struct NodeLog {
    /// The node.
    pub node: NodeId,
    /// Every callback with the time it ran at.
    pub inputs: Vec<(SimTime, Input)>,
    /// Every command the callbacks issued, in issue order.
    pub commands: Vec<Command>,
    /// The node's first decision, if it made one before the run stopped.
    pub decision: Option<bool>,
}

impl NodeLog {
    /// Feeds the recorded inputs, at their recorded times, to a fresh
    /// application built by `recipe`, with the node's rng seed; returns
    /// the commands it issues. A faithful run returns `self.commands`.
    pub fn replay(&self, recipe: &Recipe<'_>) -> Vec<Command> {
        let (mut app, _) = recipe(self.node);
        let mut rng = StdRng::seed_from_u64(self.node as u64);
        let mut commands = Vec::new();
        for (now, input) in &self.inputs {
            let ctx = NodeCtx::new(self.node, *now, &mut rng, Vec::new());
            commands.extend(callback(app.as_mut(), ctx, input.clone()));
        }
        commands
    }
}

/// The addressing tag leading a broadcast datagram.
pub const BROADCAST: u8 = 0;
/// The addressing tag leading a unicast datagram.
pub const UNICAST: u8 = 1;
/// Longest a node blocks in `recv` before checking timers and the deadline.
const MAX_WAIT: Duration = Duration::from_millis(5);

/// Runs one callback in `ctx`; returns the commands it issued (the CPU
/// it charged is dropped: live CPU time is real).
fn callback(app: &mut dyn Application, mut ctx: NodeCtx<'_>, input: Input) -> Vec<Command> {
    match input {
        Input::Start => app.on_start(&mut ctx),
        Input::Frame(frame) => app.on_frame(&mut ctx, frame),
        Input::Timer(id) => app.on_timer(&mut ctx, id),
    }
    ctx.finish().1
}

/// Runs `recipe`'s applications over `config`'s sockets until every
/// node decided or the timeout passed; returns the nodes' logs. Fails
/// on a socket error, and re-raises a node thread's panic.
pub fn run(config: ClusterConfig, recipe: &Recipe<'_>) -> io::Result<Vec<NodeLog>> {
    let addrs = config.sockets.iter().map(UdpSocket::local_addr);
    let addrs: Vec<SocketAddr> = addrs.collect::<io::Result<_>>()?;
    let deadline = Instant::now() + config.timeout;
    let undecided = AtomicUsize::new(addrs.len());
    std::thread::scope(|scope| {
        let mut threads = Vec::new();
        for (id, socket) in config.sockets.into_iter().enumerate() {
            let (addrs, undecided) = (&addrs, &undecided);
            let node = move || drive(id, &socket, addrs, recipe, undecided, deadline);
            threads.push(scope.spawn(node));
        }
        let joined = threads.into_iter().map(|thread| thread.join());
        joined.map(|r| r.unwrap_or_else(|panic| std::panic::resume_unwind(panic))).collect()
    })
}

/// One node's thread: build, start, then serve due timers and arrivals
/// until no node is `undecided` or the `deadline` passed.
fn drive(
    id: NodeId,
    socket: &UdpSocket,
    addrs: &[SocketAddr],
    recipe: &Recipe<'_>,
    undecided: &AtomicUsize,
    deadline: Instant,
) -> io::Result<NodeLog> {
    let (mut app, mut loss) = recipe(id);
    // The rng behind `NodeCtx::rng` is seeded by node id, as in `replay`.
    let mut rng = StdRng::seed_from_u64(id as u64);
    let mut log = NodeLog { node: id, ..NodeLog::default() };
    let mut timers = BinaryHeap::new();
    let mut buf = vec![0u8; 1 << 16];
    let mut next = Some(Input::Start);
    let epoch = Instant::now();
    // A failed send is a lost datagram, as UDP has it.
    let send = |tag: u8, payload: &[u8], to| drop(socket.send_to(&[&[tag], payload].concat(), to));
    loop {
        let now = SimTime::from_nanos(epoch.elapsed().as_nanos() as u64);
        if let Some(input) = next.take() {
            log.inputs.push((now, input.clone()));
            let ctx = NodeCtx::new(id, now, &mut rng, Vec::new());
            for cmd in callback(app.as_mut(), ctx, input) {
                match &cmd {
                    Command::Broadcast { payload, .. } => {
                        addrs.iter().for_each(|to| send(BROADCAST, payload, to));
                    }
                    Command::Unicast { dst, payload, .. } => send(UNICAST, payload, &addrs[*dst]),
                    // The command's index breaks ties between equal deadlines.
                    Command::SetTimer { delay, id } => {
                        timers.push(Reverse((now + *delay, log.commands.len(), *id)));
                    }
                    Command::Decide { value } if log.decision.is_none() => {
                        log.decision = Some(*value);
                        undecided.fetch_sub(1, Ordering::Relaxed);
                    }
                    Command::Decide { .. } => {}
                }
                log.commands.push(cmd);
            }
        } else if undecided.load(Ordering::Relaxed) == 0 || Instant::now() >= deadline {
            return Ok(log);
        } else if timers.peek().is_some_and(|Reverse((due, ..))| *due <= now) {
            let Reverse((_, _, timer)) = timers.pop().expect("a due timer");
            next = Some(Input::Timer(timer));
        } else {
            let due = timers.peek().map(|Reverse((due, ..))| due.saturating_since(now));
            socket.set_read_timeout(Some(due.map_or(MAX_WAIT, |d| d.min(MAX_WAIT))))?;
            match socket.recv_from(&mut buf) {
                Ok((len, from)) => {
                    next = receive(id, &buf[..len], from, addrs, loss.as_mut(), now);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The frame a datagram carries to node `me`, or `None` when it comes
/// from outside the group, is untagged or mistagged, or the loss model
/// drops it (a node's own datagrams are never dropped: OS loopback).
fn receive(
    me: NodeId,
    datagram: &[u8],
    from: SocketAddr,
    addrs: &[SocketAddr],
    loss: &mut dyn FaultModel,
    now: SimTime,
) -> Option<Input> {
    let src = addrs.iter().position(|a| *a == from)?;
    let (addressing, payload) = match datagram.split_first()? {
        (&BROADCAST, payload) => (Addressing::Broadcast, payload),
        (&UNICAST, payload) => (Addressing::Unicast(me), payload),
        _ => return None,
    };
    let broadcast = addressing == Addressing::Broadcast;
    if src != me && loss.drops(&DeliveryCtx { now, src, dst: me, broadcast }) {
        return None;
    }
    let payload = Bytes::copy_from_slice(payload);
    Some(Input::Frame(ReceivedFrame { src, addressing, payload }))
}
