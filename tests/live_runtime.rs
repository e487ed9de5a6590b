//! Integration: the simulator's applications, live over real UDP
//! sockets and threads — every engine, held to its simulated model by
//! replay, and robust to garbage on the wire.

use rand::{Rng, SeedableRng};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use turquois::harness::{LossSpec, ProposalDistribution, Protocol, Scenario};
use turquois::net::{Command, Node, NodeId};
use turquois::runtime::{run, ClusterConfig, Input, NodeLog, BROADCAST, UNICAST};

const N: usize = 4;
const TIMEOUT: Duration = Duration::from_secs(60);

fn recipe(scenario: &Scenario) -> impl Fn(NodeId) -> Node + Sync + '_ {
    move |id| scenario.live_node(id).expect("valid group size")
}

/// Every node decided, all alike (agreement), and on the common
/// proposal when there was one (validity).
fn assert_consensus(scenario: &Scenario, proposals: ProposalDistribution, logs: &[NodeLog]) {
    let decisions: Vec<Option<bool>> = logs.iter().map(|l| l.decision).collect();
    let first = decisions[0].unwrap_or_else(|| panic!("{scenario:?}: {decisions:?}"));
    assert!(decisions.iter().all(|d| *d == Some(first)), "agreement: {scenario:?}: {decisions:?}");
    if proposals == ProposalDistribution::Unanimous {
        assert_eq!(first, proposals.proposal(0), "validity: {scenario:?}");
    }
}

fn live(protocol: Protocol, proposals: ProposalDistribution, loss: LossSpec, seed: u64) -> Vec<NodeLog> {
    let scenario = Scenario::new(protocol, N).proposals(proposals).loss(loss).seed(seed);
    let config = ClusterConfig::localhost(N, TIMEOUT).expect("bind");
    let logs = run(config, &recipe(&scenario)).expect("cluster runs");
    assert_consensus(&scenario, proposals, &logs);
    logs
}

#[test]
fn live_cluster_unanimous() {
    for protocol in Protocol::ALL {
        live(protocol, ProposalDistribution::Unanimous, LossSpec::None, 11);
    }
}

#[test]
fn live_cluster_divergent() {
    for protocol in Protocol::ALL {
        live(protocol, ProposalDistribution::Divergent, LossSpec::None, 12);
    }
}

#[test]
fn live_cluster_divergent_with_loss() {
    for protocol in Protocol::ALL {
        live(protocol, ProposalDistribution::Divergent, LossSpec::Iid(0.2), 13);
    }
}

/// Each live node's recorded inputs, replayed through a fresh
/// application from the same recipe, issue the live command stream; a
/// recording with one input dropped does not.
fn replay_conforms(protocol: Protocol) {
    let proposals = ProposalDistribution::Divergent;
    let scenario = Scenario::new(protocol, N).proposals(proposals).loss(LossSpec::Iid(0.1)).seed(21);
    let recipe = recipe(&scenario);
    let logs = run(ClusterConfig::localhost(N, TIMEOUT).expect("bind"), &recipe).expect("cluster runs");
    assert_consensus(&scenario, proposals, &logs);
    for log in &logs {
        assert!(!log.commands.is_empty());
        assert_eq!(log.replay(&recipe), log.commands, "{protocol:?} node {}", log.node);
        let frames = (0..log.inputs.len()).filter(|&i| matches!(log.inputs[i].1, Input::Frame(_)));
        let diverges = frames.take(20).any(|dropped| {
            let mut perturbed = log.clone();
            perturbed.inputs.remove(dropped);
            perturbed.replay(&recipe) != log.commands
        });
        assert!(diverges, "{protocol:?} node {}: no dropped frame changed the stream", log.node);
    }
}

#[test]
fn turquois_replay_conforms() {
    replay_conforms(Protocol::Turquois);
}

#[test]
fn bracha_replay_conforms() {
    replay_conforms(Protocol::Bracha);
}

#[test]
fn abba_replay_conforms() {
    replay_conforms(Protocol::Abba);
}

/// Every kind of garbage datagram, built around one `valid` datagram:
/// empty, one byte, a wrong addressing tag, random bytes, `valid`
/// truncated at every length, and the largest datagram IPv4 carries.
fn garbage(valid: &[u8], rng: &mut impl Rng) -> Vec<Vec<u8>> {
    let mut all = vec![vec![], vec![BROADCAST], vec![7, 1, 2, 3]];
    all.extend((0..8).map(|len| (0..len * 40).map(|_| rng.gen::<u32>() as u8).collect()));
    all.extend((0..=valid.len()).map(|len| valid[..len].to_vec()));
    all.push(vec![UNICAST; 65_507]);
    all
}

/// The first datagram `log`'s node sent, with its addressing tag.
fn first_datagram(log: &NodeLog) -> Vec<u8> {
    log.commands
        .iter()
        .find_map(|cmd| match cmd {
            Command::Broadcast { payload, .. } => Some([&[BROADCAST], &payload[..]].concat()),
            Command::Unicast { payload, .. } => Some([&[UNICAST], &payload[..]].concat()),
            _ => None,
        })
        .expect("the node sent something")
}

#[test]
fn live_receive_path_is_total_under_garbage() {
    let (clusters, injectors): (Vec<_>, Vec<_>) = [Protocol::Turquois, Protocol::Bracha].map(|protocol| {
        let scenario = Scenario::new(protocol, N).proposals(ProposalDistribution::Divergent).seed(31);
        // A valid frame of this very scenario, from a clean first run.
        let clean = run(ClusterConfig::localhost(N, TIMEOUT).expect("bind"), &recipe(&scenario)).expect("runs");
        let config = ClusterConfig::localhost(N, TIMEOUT).expect("bind");
        // Garbage comes from every member's own address (so it reaches
        // the applications as that member's frames) and from a stranger.
        let mut senders: Vec<UdpSocket> = config.sockets.iter().map(|s| s.try_clone().expect("clone")).collect();
        senders.push(UdpSocket::bind("127.0.0.1:0").expect("bind"));
        let targets: Vec<SocketAddr> = config.sockets.iter().map(|s| s.local_addr().expect("addr")).collect();
        // One bare tag from every member to every member, itself
        // included, queued before the cluster starts: a node's own
        // datagrams are never dropped, so each node reads garbage
        // before anything else, however the threads are scheduled.
        for sender in &senders[..N] {
            for target in &targets {
                sender.send_to(&[BROADCAST], target).expect("queue a bare tag");
            }
        }
        ((scenario, config), (first_datagram(&clean[1]), senders, targets))
    }).into_iter().unzip();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for (valid, senders, targets) in &injectors {
            let done = &done;
            scope.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(valid.len() as u64);
                while !done.load(Ordering::Relaxed) {
                    for datagram in garbage(valid, &mut rng) {
                        for target in targets {
                            let sender = &senders[rng.gen_range(0..senders.len())];
                            let _ = sender.send_to(&datagram, target);
                        }
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
            });
        }
        let runs: Vec<_> = clusters
            .into_iter()
            .map(|(scenario, config)| {
                scope.spawn(move || {
                    let logs = run(config, &recipe(&scenario)).expect("cluster runs");
                    assert_consensus(&scenario, ProposalDistribution::Divergent, &logs);
                    // The garbage reached every application (a bare tag is
                    // an empty frame from a member).
                    for log in &logs {
                        assert!(
                            log.inputs.iter().any(|(_, i)| matches!(i, Input::Frame(f) if f.payload.is_empty())),
                            "no empty frame reached node {} of the {:?} cluster",
                            log.node,
                            scenario.protocol()
                        );
                    }
                })
            })
            .collect();
        let outcomes: Vec<_> = runs.into_iter().map(|r| r.join()).collect();
        done.store(true, Ordering::Relaxed);
        for outcome in outcomes {
            outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
    });
}
