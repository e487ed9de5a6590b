//! Live run: the simulator's applications, real UDP sockets.
//!
//! Everything else in this repository drives the sans-io engines from a
//! deterministic simulator; this example hosts the very same
//! applications on seven OS threads, each with its own `UdpSocket`,
//! fanning broadcasts across localhost — with 15 % receiver-side packet
//! loss injected for good measure. The engine is a parameter of the
//! `Scenario`: Turquois runs first, then Bracha over the same runtime.
//!
//! ```text
//! cargo run --release --example live_udp
//! ```

use std::time::{Duration, Instant};
use turquois::harness::{LossSpec, ProposalDistribution, Protocol, Scenario};
use turquois::runtime::{run, ClusterConfig};

fn main() {
    let n = 7;
    for protocol in [Protocol::Turquois, Protocol::Bracha] {
        let scenario = Scenario::new(protocol, n)
            .proposals(ProposalDistribution::Divergent)
            .loss(LossSpec::Iid(0.15))
            .seed(4242);
        println!(
            "starting {n} {} processes on 127.0.0.1 over UDP (divergent proposals, 15% loss)…",
            protocol.name()
        );
        let config = ClusterConfig::localhost(n, Duration::from_secs(30)).expect("bind sockets");
        let start = Instant::now();
        let logs = run(config, &|id| scenario.live_node(id).expect("valid group size"))
            .expect("cluster runs");
        let elapsed = start.elapsed();

        for log in &logs {
            match log.decision {
                Some(v) => println!("  p{}: decided {}", log.node, v as u8),
                None => println!("  p{}: no decision", log.node),
            }
        }
        let first = logs[0].decision.expect("p0 decides");
        assert!(
            logs.iter().all(|log| log.decision == Some(first)),
            "agreement over real sockets"
        );
        println!("consensus on {} in {elapsed:.2?} of wall-clock time\n", first as u8);
    }
}
