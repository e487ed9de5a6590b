//! Network-level counters collected during a simulation run.

use std::time::Duration;

/// Aggregate statistics for one simulation run.
///
/// Message-complexity experiments (paper §7, O(n)/O(n²)/O(n³) discussion)
/// read these counters directly.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Broadcast data frames put on the air (including collided ones).
    pub broadcast_frames_sent: u64,
    /// Unicast data frame transmissions put on the air, **including MAC
    /// retransmissions**.
    pub(crate) unicast_frames_sent: u64,
    /// Unicast application sends accepted (before MAC retransmissions).
    pub(crate) unicast_sends: u64,
    /// Broadcast application sends accepted.
    pub broadcast_sends: u64,
    /// Transmissions that ended in a collision.
    pub collisions: u64,
    /// Deliveries suppressed by the injected fault model.
    pub fault_drops: u64,
    /// Unicast frames abandoned after exhausting the MAC retry limit.
    pub(crate) mac_failures: u64,
    /// Frames tail-dropped because a node's transmit queue was full
    /// (channel saturation).
    pub queue_drops: u64,
    /// Deliveries and transmissions suppressed because the target node
    /// was crashed by a [`crate::fault::CrashSchedule`].
    pub crash_drops: u64,
    /// Frames delivered to an application (per-receiver count).
    pub deliveries: u64,
    /// Events processed by the simulator loop ([`crate::sim::Simulator::step`]).
    /// A pure host-side throughput counter.
    pub events_processed: u64,
    /// Loopback (self) deliveries, which bypass the radio.
    pub loopback_deliveries: u64,
    /// Total time the channel was busy with transmissions.
    pub(crate) channel_busy: Duration,
    /// Total application-payload bytes put on the air.
    pub payload_bytes_sent: u64,
    /// Per-node count of data-frame transmissions.
    pub(crate) per_node_tx: Vec<u64>,
    /// Per-node count of application deliveries.
    pub(crate) per_node_rx: Vec<u64>,
    /// Per-node count of transmit-queue tail drops (sums to
    /// [`NetStats::queue_drops`]); the congestion fingerprint a
    /// [`crate::supervise::StallReport`] points at.
    pub(crate) per_node_queue_drops: Vec<u64>,
}

impl NetStats {
    /// Creates zeroed statistics for `n` nodes.
    pub fn new(n: usize) -> Self {
        NetStats {
            per_node_tx: vec![0; n],
            per_node_rx: vec![0; n],
            per_node_queue_drops: vec![0; n],
            ..NetStats::default()
        }
    }

    /// Total data-frame transmissions (broadcast + unicast, including
    /// retransmissions).
    pub fn frames_sent(&self) -> u64 {
        self.broadcast_frames_sent + self.unicast_frames_sent
    }

    /// Fraction of transmissions lost to collisions, in `[0, 1]`.
    pub fn collision_rate(&self) -> f64 {
        let sent = self.frames_sent();
        if sent == 0 {
            0.0
        } else {
            self.collisions as f64 / sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sizes_per_node_vectors() {
        let s = NetStats::new(5);
        assert_eq!(s.per_node_tx.len(), 5);
        assert_eq!(s.per_node_rx.len(), 5);
        assert_eq!(s.per_node_queue_drops.len(), 5);
    }

    #[test]
    fn frames_sent_sums_kinds() {
        let s = NetStats {
            broadcast_frames_sent: 3,
            unicast_frames_sent: 4,
            ..NetStats::new(1)
        };
        assert_eq!(s.frames_sent(), 7);
    }

    #[test]
    fn collision_rate_handles_zero() {
        assert_eq!(NetStats::new(1).collision_rate(), 0.0);
        let s = NetStats {
            broadcast_frames_sent: 10,
            collisions: 5,
            ..NetStats::new(1)
        };
        assert!((s.collision_rate() - 0.5).abs() < 1e-12);
    }
}
