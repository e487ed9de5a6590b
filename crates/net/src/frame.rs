//! Frames: the unit of transmission on the simulated medium.

use bytes::Bytes;
use std::fmt;

/// Identifier of a node in the simulated network (index into the node
/// table).
pub type NodeId = usize;

/// How a frame is addressed.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum Addressing {
    /// Link-layer broadcast: every node in range receives the frame; the
    /// MAC sends it once at the basic rate with **no acknowledgement or
    /// retransmission** (802.11 group-addressed frames).
    Broadcast,
    /// Unicast to one node; the MAC uses the full data rate and the
    /// ACK/retransmission machinery of the DCF.
    Unicast(NodeId),
}

/// A link-layer frame as handed to the medium.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Sending node.
    pub src: NodeId,
    /// Destination.
    pub addressing: Addressing,
    /// Application payload carried by the frame (what the receiver's
    /// `on_frame` sees).
    pub payload: Bytes,
    /// Bytes of protocol overhead *above* the MAC layer (UDP/IP or TCP/IP
    /// headers) that occupy airtime but are not part of `payload`.
    pub transport_overhead: usize,
}

impl Frame {
    /// Total bytes the MAC payload occupies on the air (application
    /// payload plus transport overhead).
    pub(crate) fn mac_payload_len(&self) -> usize {
        self.payload.len() + self.transport_overhead
    }

    /// Whether this frame is link-layer broadcast.
    pub(crate) fn is_broadcast(&self) -> bool {
        self.addressing == Addressing::Broadcast
    }
}

/// A frame as seen by the receiving application.
#[derive(Clone)]
pub struct ReceivedFrame {
    /// Sending node (as reported by the link layer — trustworthy in the
    /// simulation; protocols must still *authenticate* contents).
    pub src: NodeId,
    /// How the frame was addressed.
    pub addressing: Addressing,
    /// Application payload.
    pub payload: Bytes,
}

impl fmt::Debug for ReceivedFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReceivedFrame")
            .field("src", &self.src)
            .field("addressing", &self.addressing)
            .field("payload_len", &self.payload.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_payload_includes_overhead() {
        let f = Frame {
            src: 0,
            addressing: Addressing::Broadcast,
            payload: Bytes::from_static(b"0123456789"),
            transport_overhead: 28,
        };
        assert_eq!(f.mac_payload_len(), 38);
        assert!(f.is_broadcast());
    }

    #[test]
    fn unicast_is_not_broadcast() {
        let f = Frame {
            src: 1,
            addressing: Addressing::Unicast(2),
            payload: Bytes::new(),
            transport_overhead: 40,
        };
        assert!(!f.is_broadcast());
    }

    #[test]
    fn received_frame_debug_shows_len() {
        let r = ReceivedFrame {
            src: 3,
            addressing: Addressing::Broadcast,
            payload: Bytes::from_static(b"abc"),
        };
        let s = format!("{r:?}");
        assert!(s.contains("payload_len: 3"), "{s}");
    }
}
