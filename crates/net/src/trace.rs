//! Bounded event tracing for simulation debugging.
//!
//! The simulator can record a ring buffer of network-level events
//! (transmissions, collisions, drops, deliveries, decisions). Tracing is
//! off by default — experiments run with zero overhead — and is enabled
//! per run via [`crate::sim::SimConfig::trace_capacity`]. The captured
//! trace reads like a radio log:
//!
//! ```text
//! 0.001643s  tx-start  n0 broadcast 78B
//! 0.002113s  collision n2,n3
//! 0.002113s  deliver   n0→n1 78B
//! 0.009731s  decide    n1 = 1
//! ```

use crate::frame::NodeId;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// One traced event.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum TraceEvent {
    /// A transmission started.
    TxStart {
        /// Transmitting node.
        node: NodeId,
        /// `true` for link-layer broadcast.
        broadcast: bool,
        /// MAC payload bytes.
        bytes: usize,
    },
    /// Two or more transmissions collided.
    Collision {
        /// The colliding transmitters.
        nodes: Vec<NodeId>,
    },
    /// The fault model suppressed a delivery.
    FaultDrop {
        /// Transmitter.
        src: NodeId,
        /// Intended receiver.
        dst: NodeId,
    },
    /// A node's transmit queue tail-dropped a frame.
    QueueDrop {
        /// The saturated node.
        node: NodeId,
    },
    /// A frame reached an application.
    Deliver {
        /// Transmitter.
        src: NodeId,
        /// Receiver.
        dst: NodeId,
        /// Payload bytes.
        bytes: usize,
    },
    /// A node recorded its consensus decision.
    Decide {
        /// The deciding node.
        node: NodeId,
        /// The decided value.
        value: bool,
    },
    /// A [`crate::fault::CrashSchedule`] took a node down.
    Crash {
        /// The crashed node.
        node: NodeId,
    },
    /// A crashed node rejoined (restarted with fresh state).
    Rejoin {
        /// The rejoining node.
        node: NodeId,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::TxStart {
                node,
                broadcast,
                bytes,
            } => write!(
                f,
                "tx-start  n{node} {} {bytes}B",
                if *broadcast { "broadcast" } else { "unicast" }
            ),
            TraceEvent::Collision { nodes } => {
                write!(f, "collision ")?;
                for (i, n) in nodes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "n{n}")?;
                }
                Ok(())
            }
            TraceEvent::FaultDrop { src, dst } => write!(f, "fault-drop n{src}→n{dst}"),
            TraceEvent::QueueDrop { node } => write!(f, "queue-drop n{node}"),
            TraceEvent::Deliver { src, dst, bytes } => {
                write!(f, "deliver   n{src}→n{dst} {bytes}B")
            }
            TraceEvent::Decide { node, value } => write!(f, "decide    n{node} = {}", *value as u8),
            TraceEvent::Crash { node } => write!(f, "crash     n{node}"),
            TraceEvent::Rejoin { node } => write!(f, "rejoin    n{node}"),
        }
    }
}

/// A bounded ring of timestamped events.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    capacity: usize,
    events: VecDeque<(SimTime, TraceEvent)>,
    dropped: u64,
}

impl Trace {
    /// Creates a trace keeping at most `capacity` events (0 disables).
    pub fn new(capacity: usize) -> Trace {
        Trace {
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// `true` when tracing is disabled.
    pub(crate) fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Records an event (oldest events fall off when full).
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((at, event));
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(SimTime, TraceEvent)> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Trace {
        /// Renders the trace as a log, one event per line.
        pub(crate) fn render(&self) -> String {
            let mut out = String::new();
            for (at, ev) in &self.events {
                out.push_str(&format!("{at}  {ev}\n"));
            }
            out
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(0);
        t.record(SimTime::ZERO, TraceEvent::QueueDrop { node: 1 });
        assert!(t.is_empty());
        assert!(t.is_disabled());
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Trace::new(2);
        for node in 0..3 {
            t.record(SimTime::from_micros(node as u64), TraceEvent::QueueDrop { node });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        let first = t.events().next().expect("non-empty");
        assert_eq!(first.1, TraceEvent::QueueDrop { node: 1 });
    }

    #[test]
    fn render_is_line_per_event() {
        let mut t = Trace::new(8);
        t.record(
            SimTime::from_millis(1),
            TraceEvent::TxStart {
                node: 0,
                broadcast: true,
                bytes: 78,
            },
        );
        t.record(
            SimTime::from_millis(2),
            TraceEvent::Collision { nodes: vec![2, 3] },
        );
        t.record(
            SimTime::from_millis(3),
            TraceEvent::Deliver {
                src: 0,
                dst: 1,
                bytes: 78,
            },
        );
        t.record(SimTime::from_millis(4), TraceEvent::Decide { node: 1, value: true });
        t.record(SimTime::from_millis(5), TraceEvent::FaultDrop { src: 0, dst: 2 });
        let log = t.render();
        assert_eq!(log.lines().count(), 5);
        assert!(log.contains("tx-start  n0 broadcast 78B"));
        assert!(log.contains("collision n2,n3"));
        assert!(log.contains("deliver   n0→n1 78B"));
        assert!(log.contains("decide    n1 = 1"));
        assert!(log.contains("fault-drop n0→n2"));
    }
}
