//! Physical- and MAC-layer configuration of the simulated 802.11b
//! network.

use std::time::Duration;

/// 802.11b DCF timing and rate parameters.
///
/// Defaults model the paper's testbed: 802.11b with long PLCP preamble,
/// broadcast (group-addressed) frames at the 2 Mb/s basic rate, unicast
/// data at 11 Mb/s, control responses at 2 Mb/s.
///
/// # Example
///
/// ```
/// use wireless_net::config::PhyConfig;
/// let phy = PhyConfig::default();
/// // A 100-byte broadcast frame takes PLCP preamble + payload airtime.
/// let t = phy.broadcast_airtime(100);
/// assert!(t > phy.plcp);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhyConfig {
    /// Backoff slot time.
    pub slot: Duration,
    /// Short inter-frame space (precedes ACKs).
    pub sifs: Duration,
    /// DCF inter-frame space (precedes contention).
    pub difs: Duration,
    /// PLCP preamble + header time (long preamble: 192 µs).
    pub plcp: Duration,
    /// Rate for group-addressed (broadcast) data frames, bits per µs.
    pub broadcast_rate_mbps: f64,
    /// Rate for unicast data frames, bits per µs.
    pub unicast_rate_mbps: f64,
    /// Rate for control (ACK) frames, bits per µs.
    pub control_rate_mbps: f64,
    /// MAC header + FCS bytes added to every data frame.
    pub mac_overhead_bytes: usize,
    /// Bytes of an ACK control frame.
    pub ack_bytes: usize,
    /// Minimum contention window (slots − 1); 802.11b: 31.
    pub cw_min: u32,
    /// Maximum contention window; 802.11b: 1023.
    pub cw_max: u32,
    /// MAC retransmission limit for unicast frames.
    pub retry_limit: u32,
    /// One-way propagation + radio turnaround, effectively negligible at
    /// single-hop range but kept for completeness.
    pub propagation: Duration,
    /// Per-node transmit-queue capacity (device + socket buffer). When
    /// the channel saturates, further sends are tail-dropped — UDP
    /// datagrams silently vanish, exactly as a real socket buffer
    /// behaves; reliable transports recover through retransmission. The
    /// default is shallow: protocols whose state goes stale in
    /// milliseconds are better served by fresh frames than deep buffers
    /// (bufferbloat), and the loss-sweep ablation covers deeper queues.
    pub tx_queue_cap: usize,
}

impl Default for PhyConfig {
    fn default() -> Self {
        PhyConfig {
            slot: Duration::from_micros(20),
            sifs: Duration::from_micros(10),
            difs: Duration::from_micros(50),
            plcp: Duration::from_micros(192),
            broadcast_rate_mbps: 2.0,
            unicast_rate_mbps: 11.0,
            control_rate_mbps: 2.0,
            mac_overhead_bytes: 34,
            ack_bytes: 14,
            cw_min: 31,
            cw_max: 1023,
            retry_limit: 7,
            propagation: Duration::from_nanos(500),
            tx_queue_cap: 4,
        }
    }
}

impl PhyConfig {
    /// Airtime of a broadcast data frame carrying `mac_payload` bytes
    /// above the MAC layer.
    pub fn broadcast_airtime(&self, mac_payload: usize) -> Duration {
        self.data_airtime(mac_payload, self.broadcast_rate_mbps)
    }

    /// Airtime of a unicast data frame carrying `mac_payload` bytes above
    /// the MAC layer (data only, excluding SIFS + ACK).
    pub(crate) fn unicast_airtime(&self, mac_payload: usize) -> Duration {
        self.data_airtime(mac_payload, self.unicast_rate_mbps)
    }

    /// Airtime of an ACK control frame, including its PLCP overhead.
    pub(crate) fn ack_airtime(&self) -> Duration {
        self.plcp + bits_duration(self.ack_bytes * 8, self.control_rate_mbps)
    }

    /// Full cost of a successful unicast exchange: data, SIFS, ACK.
    pub(crate) fn unicast_exchange_airtime(&self, mac_payload: usize) -> Duration {
        self.unicast_airtime(mac_payload) + self.sifs + self.ack_airtime()
    }

    /// Contention window for transmission `attempt` (0-based):
    /// `min(cw_max, (cw_min + 1) << attempt) - 1` slots, per the 802.11
    /// binary exponential backoff.
    pub(crate) fn contention_window(&self, attempt: u32) -> u32 {
        let scaled = (self.cw_min as u64 + 1) << attempt.min(10);
        (scaled.min(self.cw_max as u64 + 1) - 1) as u32
    }

    fn data_airtime(&self, mac_payload: usize, rate_mbps: f64) -> Duration {
        let bits = (mac_payload + self.mac_overhead_bytes) * 8;
        self.plcp + bits_duration(bits, rate_mbps)
    }
}

fn bits_duration(bits: usize, rate_mbps: f64) -> Duration {
    // rate in bits per microsecond == Mb/s.
    Duration::from_nanos((bits as f64 * 1_000.0 / rate_mbps).round() as u64)
}

/// Transport-layer overhead constants (bytes on the wire above the MAC).
pub mod overhead {
    /// LLC/SNAP + IP + UDP headers on an 802.11 frame.
    pub const UDP: usize = 8 + 20 + 8;
    /// LLC/SNAP + IP + TCP headers on an 802.11 frame.
    pub(crate) const TCP: usize = 8 + 20 + 20;
    /// A bare TCP ACK segment (no payload).
    pub(crate) const TCP_ACK_SEGMENT: usize = TCP;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_formula_broadcast() {
        let phy = PhyConfig::default();
        // 100 B payload + 34 B MAC = 134 B = 1072 bits at 2 Mb/s = 536 µs,
        // plus 192 µs PLCP.
        assert_eq!(
            phy.broadcast_airtime(100),
            Duration::from_micros(192 + 536)
        );
    }

    #[test]
    fn airtime_formula_unicast_faster_than_broadcast() {
        let phy = PhyConfig::default();
        assert!(phy.unicast_airtime(100) < phy.broadcast_airtime(100));
    }

    #[test]
    fn ack_airtime() {
        let phy = PhyConfig::default();
        // 14 B * 8 = 112 bits at 2 Mb/s = 56 µs + 192 µs PLCP.
        assert_eq!(phy.ack_airtime(), Duration::from_micros(248));
    }

    #[test]
    fn unicast_exchange_includes_ack() {
        let phy = PhyConfig::default();
        let exchange = phy.unicast_exchange_airtime(100);
        assert_eq!(
            exchange,
            phy.unicast_airtime(100) + phy.sifs + phy.ack_airtime()
        );
    }

    #[test]
    fn contention_window_doubles_and_caps() {
        let phy = PhyConfig::default();
        assert_eq!(phy.contention_window(0), 31);
        assert_eq!(phy.contention_window(1), 63);
        assert_eq!(phy.contention_window(2), 127);
        assert_eq!(phy.contention_window(5), 1023);
        assert_eq!(phy.contention_window(9), 1023);
        assert_eq!(phy.contention_window(63), 1023); // no overflow
    }

    #[test]
    fn overhead_constants() {
        assert_eq!(overhead::UDP, 36);
        assert_eq!(overhead::TCP, 48);
    }
}
