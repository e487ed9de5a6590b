//! Bracha's reliable broadcast (the substrate of his consensus
//! protocol).
//!
//! Reliable broadcast prevents equivocation: if a Byzantine sender tries
//! to send different values to different processes, either nobody
//! delivers or everybody delivers the *same* value. The classic echo
//! protocol:
//!
//! 1. The sender broadcasts `INITIAL(m)`.
//! 2. On `INITIAL(m)`: broadcast `ECHO(m)`.
//! 3. On more than `(n+f)/2` `ECHO(m)`: broadcast `READY(m)` (once).
//! 4. On `f + 1` `READY(m)`: broadcast `READY(m)` (once) — amplification.
//! 5. On `2f + 1` `READY(m)`: deliver `m`.
//!
//! Each broadcast *instance* is identified by a [`Tag`] — the origin
//! process plus an application-chosen `(round, step)` label — so one
//! origin can run many broadcasts. A correct origin broadcasts at most
//! one payload per tag; the protocol guarantees all correct processes
//! deliver at most one payload per tag, the same one everywhere.
//!
//! This is the source of Bracha's O(n³) message complexity: every
//! logical broadcast costs `n` ECHOs and `n` READYs from every process.

use crate::quorum::Quorums;
use bytes::{BufMut, Bytes, BytesMut};
use turquois_crypto::memo::FixedMap;

/// Identifies one reliable-broadcast instance.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash, Ord, PartialOrd)]
pub struct Tag {
    /// The process whose message is being broadcast.
    pub origin: usize,
    /// Application label (consensus round).
    pub round: u32,
    /// Application label (consensus step).
    pub step: u8,
}

/// A reliable-broadcast protocol message.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum RbcMessage {
    /// The origin's initial transmission.
    Initial {
        /// Instance tag (its `origin` must equal the link-layer sender).
        tag: Tag,
        /// The payload being broadcast.
        payload: Bytes,
    },
    /// A witness echo.
    Echo {
        /// Instance tag.
        tag: Tag,
        /// The echoed payload.
        payload: Bytes,
    },
    /// A delivery-readiness attestation.
    Ready {
        /// Instance tag.
        tag: Tag,
        /// The payload attested.
        payload: Bytes,
    },
}

const KIND_INITIAL: u8 = 1;
const KIND_ECHO: u8 = 2;
const KIND_READY: u8 = 3;

/// Fixed wire-header length: kind, origin, round, step, payload len.
const RBC_HEADER_LEN: usize = 1 + 2 + 4 + 1 + 2;

impl RbcMessage {
    /// Encodes for transmission into one exact-capacity buffer.
    ///
    /// # Panics
    ///
    /// If the payload is longer than `u16::MAX` bytes, the most the
    /// length prefix can carry (a wrapped prefix would yield a frame the
    /// parser rejects), or the origin id does not fit the format's
    /// 16-bit field (truncated, it would name another process's
    /// instance).
    pub fn encode(&self) -> Bytes {
        let RbcView { kind, tag, payload } = self.view();
        assert!(payload.len() <= usize::from(u16::MAX), "payload exceeds the 16-bit length prefix");
        let origin = u16::try_from(tag.origin).expect("origin id exceeds the wire format's u16");
        let mut buf = BytesMut::with_capacity(RBC_HEADER_LEN + payload.len());
        buf.put_u8(kind);
        buf.put_u16(origin);
        buf.put_u32(tag.round);
        buf.put_u8(tag.step);
        buf.put_u16(payload.len() as u16);
        buf.put_slice(payload);
        buf.freeze()
    }

    /// Borrows this message as the [`RbcView`] its encoding would
    /// parse to — no encode, no copy.
    pub(crate) fn view(&self) -> RbcView<'_> {
        let (kind, tag, payload) = match self {
            RbcMessage::Initial { tag, payload } => (KIND_INITIAL, tag, payload),
            RbcMessage::Echo { tag, payload } => (KIND_ECHO, tag, payload),
            RbcMessage::Ready { tag, payload } => (KIND_READY, tag, payload),
        };
        RbcView {
            kind,
            tag: *tag,
            payload,
        }
    }

    /// Decodes from wire bytes (`RbcView::parse`, then
    /// `RbcView::to_message`); `None` for malformed input.
    pub fn decode(bytes: &[u8]) -> Option<RbcMessage> {
        RbcView::parse(bytes).map(|view| view.to_message())
    }
}

/// A borrowed, zero-copy view of one [`RbcMessage`] — the one parser
/// of the format: the payload stays an offset range into the receive
/// buffer instead of being copied into a fresh [`Bytes`] at decode
/// time. `ReliableBroadcast::on_view` consumes the view directly,
/// materializing an owned copy of the payload only when it first
/// enters a vote table or an outgoing echo (DESIGN.md §13).
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub(crate) struct RbcView<'a> {
    kind: u8,
    tag: Tag,
    payload: &'a [u8],
}

impl<'a> RbcView<'a> {
    /// Parses wire bytes without copying the payload. Returns `None`
    /// on short input, a length field disagreeing with the buffer, or
    /// an unknown kind.
    pub fn parse(bytes: &'a [u8]) -> Option<RbcView<'a>> {
        if bytes.len() < RBC_HEADER_LEN {
            return None;
        }
        let kind = bytes[0];
        let origin = u16::from_be_bytes(bytes[1..3].try_into().ok()?) as usize;
        let round = u32::from_be_bytes(bytes[3..7].try_into().ok()?);
        let step = bytes[7];
        let len = u16::from_be_bytes(bytes[8..10].try_into().ok()?) as usize;
        if bytes.len() != RBC_HEADER_LEN + len {
            return None;
        }
        if !matches!(kind, KIND_INITIAL | KIND_ECHO | KIND_READY) {
            return None;
        }
        Some(RbcView {
            kind,
            tag: Tag {
                origin,
                round,
                step,
            },
            payload: &bytes[RBC_HEADER_LEN..],
        })
    }

    /// Materializes the owned [`RbcMessage`] this view describes
    /// (copies the payload).
    pub fn to_message(self) -> RbcMessage {
        let tag = self.tag;
        let payload = Bytes::copy_from_slice(self.payload);
        match self.kind {
            KIND_INITIAL => RbcMessage::Initial { tag, payload },
            KIND_ECHO => RbcMessage::Echo { tag, payload },
            _ => RbcMessage::Ready { tag, payload },
        }
    }
}

/// One payload's votes in an ECHO or READY table: its senders as a
/// bitset over process ids, and how many bits are set.
#[derive(Debug)]
struct Vote {
    payload: Bytes,
    senders: Vec<u64>,
    count: usize,
}

/// Counts `from`'s vote for `payload` in `votes` (one entry per
/// distinct payload, in arrival order; `owned` makes the entry's copy
/// on the payload's first sight). `false` when it was counted already.
fn vote(
    votes: &mut Vec<Vote>,
    n: usize,
    payload: &[u8],
    from: usize,
    owned: impl FnOnce() -> Bytes,
) -> bool {
    let i = votes.iter().position(|v| v.payload[..] == *payload).unwrap_or_else(|| {
        votes.push(Vote { payload: owned(), senders: vec![0; n.div_ceil(64)], count: 0 });
        votes.len() - 1
    });
    let (v, word, bit) = (&mut votes[i], from / 64, 1u64 << (from % 64));
    let fresh = v.senders[word] & bit == 0;
    v.senders[word] |= bit;
    v.count += usize::from(fresh);
    fresh
}

/// One broadcast instance. Its thresholds are found by walking the vote
/// tables in arrival order; the order cannot matter, since with at most
/// f Byzantine senders at most one payload reaches each threshold.
#[derive(Debug, Default)]
struct Instance {
    echoes: Vec<Vote>,
    readies: Vec<Vote>,
    echoed: bool,
    readied: bool,
    delivered: Option<Bytes>,
}

impl Instance {
    /// READY on an echo quorum (> (n+f)/2) or on f+1 READYs; deliver on
    /// 2f+1 READYs. Idempotent: a second call without a new vote in
    /// between finds nothing to do.
    fn evaluate(&mut self, tag: Tag, q: Quorums, me: usize, out: &mut RbcOutput) {
        if !self.readied {
            let echo = self.echoes.iter().find(|v| q.exceeds_echo_quorum(v.count));
            let ready = self.readies.iter().find(|v| v.count >= q.weak());
            if let Some(payload) = echo.or(ready).map(|v| v.payload.clone()) {
                self.readied = true;
                // Count our own READY too (we will also hear it via
                // loopback, but counting now keeps small groups live
                // even if loopback frames race).
                vote(&mut self.readies, q.n(), &payload, me, || payload.clone());
                out.send.push(RbcMessage::Ready { tag, payload });
            }
        }
        if self.delivered.is_none() {
            if let Some(v) = self.readies.iter().find(|v| v.count >= q.strong()) {
                self.delivered = Some(v.payload.clone());
                out.deliver.push((tag, v.payload.clone()));
            }
        }
    }
}

/// Actions produced by one protocol step.
#[derive(Debug, Default, Eq, PartialEq)]
pub(crate) struct RbcOutput {
    /// Messages this process must now send to everyone.
    pub send: Vec<RbcMessage>,
    /// Payloads delivered, as `(tag, payload)`.
    pub deliver: Vec<(Tag, Bytes)>,
}

/// One process's reliable-broadcast engine (all instances).
#[derive(Debug)]
pub(crate) struct ReliableBroadcast {
    q: Quorums,
    me: usize,
    instances: FixedMap<Tag, Instance>,
}

impl ReliableBroadcast {
    /// Creates the engine for process `me` of `n` with at most `f`
    /// Byzantine.
    ///
    /// # Panics
    ///
    /// Panics unless `3f < n` and `me < n`.
    pub fn new(n: usize, f: usize, me: usize) -> Self {
        let q = Quorums::new(n, f);
        assert!(me < n, "process id out of range");
        ReliableBroadcast {
            q,
            me,
            instances: FixedMap::default(),
        }
    }

    /// Starts broadcasting `payload` under `(round, step)` as this
    /// process's own instance. Returns the messages to send.
    pub fn broadcast(&mut self, round: u32, step: u8, payload: Bytes) -> RbcOutput {
        let tag = Tag {
            origin: self.me,
            round,
            step,
        };
        let send = vec![RbcMessage::Initial { tag, payload }];
        RbcOutput { send, deliver: Vec::new() }
    }

    /// Processes a message received from link-layer sender `from`
    /// (authenticated by the channel, per the paper's IPSec AH setup).
    /// The payload is copied into an owned [`Bytes`] only when it first
    /// enters a vote table or an outgoing echo; a repeated vote is a
    /// slice compare and a bit test, and allocates nothing.
    pub(crate) fn on_view(&mut self, from: usize, view: &RbcView<'_>) -> RbcOutput {
        let mut out = RbcOutput::default();
        let tag = view.tag;
        // Only the origin may initiate its own instance.
        let forged_initial = view.kind == KIND_INITIAL && from != tag.origin;
        if from >= self.q.n() || tag.origin >= self.q.n() || forged_initial {
            return out;
        }
        let inst = self.instances.entry(tag).or_default();
        let votes = match view.kind {
            KIND_INITIAL => {
                if !inst.echoed {
                    inst.echoed = true;
                    out.send.push(RbcMessage::Echo {
                        tag,
                        payload: Bytes::copy_from_slice(view.payload),
                    });
                }
                return out;
            }
            KIND_ECHO => &mut inst.echoes,
            _ => &mut inst.readies,
        };
        let owned = || Bytes::copy_from_slice(view.payload);
        if vote(votes, self.q.n(), view.payload, from, owned) {
            inst.evaluate(tag, self.q, self.me, &mut out);
        }
        out
    }

    /// Drops state for instances with `round < min_round` (GC).
    pub(crate) fn prune_rounds_below(&mut self, min_round: u32) {
        self.instances.retain(|tag, _| tag.round >= min_round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    impl ReliableBroadcast {
        /// Processes an owned message: [`ReliableBroadcast::on_view`]
        /// over [`RbcMessage::view`].
        pub(crate) fn on_message(&mut self, from: usize, msg: &RbcMessage) -> RbcOutput {
            self.on_view(from, &msg.view())
        }

        /// What this process delivered for `tag`, if anything.
        fn delivered(&self, tag: Tag) -> Option<&Bytes> {
            self.instances.get(&tag).and_then(|i| i.delivered.as_ref())
        }
    }

    /// Runs a lossless full-information exchange among `n` engines until
    /// quiescence, starting from `initial` messages sent by each process.
    /// Returns per-process deliveries.
    fn run_network(
        engines: &mut [ReliableBroadcast],
        initial: Vec<(usize, RbcMessage)>,
    ) -> Vec<Vec<(Tag, Bytes)>> {
        let n = engines.len();
        let mut deliveries: Vec<Vec<(Tag, Bytes)>> = vec![Vec::new(); n];
        let mut queue: Vec<(usize, RbcMessage)> = initial;
        while let Some((from, msg)) = queue.pop() {
            for to in 0..n {
                let out = engines[to].on_message(from, &msg);
                for m in out.send {
                    queue.push((to, m));
                }
                deliveries[to].extend(out.deliver);
            }
        }
        deliveries
    }

    fn engines(n: usize, f: usize) -> Vec<ReliableBroadcast> {
        (0..n).map(|me| ReliableBroadcast::new(n, f, me)).collect()
    }

    #[test]
    fn codec_round_trip() {
        let tag = Tag {
            origin: 3,
            round: 9,
            step: 2,
        };
        for msg in [
            RbcMessage::Initial {
                tag,
                payload: Bytes::from_static(b"x"),
            },
            RbcMessage::Echo {
                tag,
                payload: Bytes::from_static(b""),
            },
            RbcMessage::Ready {
                tag,
                payload: Bytes::from_static(b"abc"),
            },
        ] {
            let decoded = RbcMessage::decode(&msg.encode()).expect("valid");
            assert_eq!(decoded, msg);
        }
        assert_eq!(RbcMessage::decode(b"short"), None);
        let mut bad = RbcMessage::Initial {
            tag,
            payload: Bytes::new(),
        }
        .encode()
        .to_vec();
        bad[0] = 9;
        assert_eq!(RbcMessage::decode(&bad), None);
        bad.push(0);
        assert_eq!(RbcMessage::decode(&bad), None);
    }

    #[test]
    fn everyone_delivers_honest_broadcast() {
        let mut engines = engines(4, 1);
        let out = engines[0].broadcast(1, 1, Bytes::from_static(b"hello"));
        let initial: Vec<(usize, RbcMessage)> =
            out.send.into_iter().map(|m| (0usize, m)).collect();
        let deliveries = run_network(&mut engines, initial);
        for (i, d) in deliveries.iter().enumerate() {
            assert_eq!(d.len(), 1, "process {i} delivers exactly once");
            assert_eq!(&d[0].1[..], b"hello");
            assert_eq!(d[0].0.origin, 0);
        }
    }

    #[test]
    fn equivocating_origin_cannot_split_delivery() {
        // Byzantine origin 3 sends INITIAL "a" to half and "b" to the
        // other half. With n=4, f=1 no two correct processes may deliver
        // differently.
        let mut engines = engines(4, 1);
        let tag = Tag {
            origin: 3,
            round: 1,
            step: 1,
        };
        let m_a = RbcMessage::Initial {
            tag,
            payload: Bytes::from_static(b"a"),
        };
        let m_b = RbcMessage::Initial {
            tag,
            payload: Bytes::from_static(b"b"),
        };
        // Deliver the conflicting initials directly (bypassing
        // run_network's everyone-hears-everything model).
        let mut queue: Vec<(usize, RbcMessage)> = Vec::new();
        for (to, msg) in [(0usize, &m_a), (1usize, &m_a), (2usize, &m_b)] {
            let out = engines[to].on_message(3, msg);
            for m in out.send {
                queue.push((to, m));
            }
        }
        // Now run the exchange among correct processes 0..3 only.
        let n = 4;
        let mut deliveries: Vec<Vec<(Tag, Bytes)>> = vec![Vec::new(); n];
        while let Some((from, msg)) = queue.pop() {
            for to in 0..3 {
                let out = engines[to].on_message(from, &msg);
                for m in out.send {
                    queue.push((to, m));
                }
                deliveries[to].extend(out.deliver);
            }
        }
        let delivered: Vec<&Bytes> = deliveries[..3]
            .iter()
            .flat_map(|d| d.iter().map(|(_, p)| p))
            .collect();
        let distinct: BTreeSet<&[u8]> = delivered.iter().map(|b| &b[..]).collect();
        assert!(
            distinct.len() <= 1,
            "correct processes delivered different payloads: {distinct:?}"
        );
    }

    #[test]
    fn initial_from_non_origin_ignored() {
        let mut engines = engines(4, 1);
        let tag = Tag {
            origin: 2,
            round: 1,
            step: 1,
        };
        let forged = RbcMessage::Initial {
            tag,
            payload: Bytes::from_static(b"evil"),
        };
        let out = engines[0].on_message(1, &forged); // sender 1 ≠ origin 2
        assert!(out.send.is_empty());
        assert!(out.deliver.is_empty());
    }

    #[test]
    fn no_delivery_below_ready_threshold() {
        let mut e = ReliableBroadcast::new(4, 1, 0);
        let tag = Tag {
            origin: 1,
            round: 1,
            step: 1,
        };
        let ready = RbcMessage::Ready {
            tag,
            payload: Bytes::from_static(b"v"),
        };
        // 2f+1 = 3 READYs required; one is not enough.
        assert!(e.on_message(1, &ready).deliver.is_empty());
        // The second external READY reaches f+1 = 2 → we amplify with our
        // own READY, which self-counts to 3 = 2f+1 → delivery.
        let out = e.on_message(2, &ready);
        assert_eq!(out.send.len(), 1, "amplification READY");
        assert_eq!(out.deliver.len(), 1);
    }

    #[test]
    fn ready_amplification_from_f_plus_one() {
        let mut e = ReliableBroadcast::new(7, 2, 0);
        let tag = Tag {
            origin: 1,
            round: 1,
            step: 1,
        };
        let ready = RbcMessage::Ready {
            tag,
            payload: Bytes::from_static(b"v"),
        };
        assert!(e.on_message(1, &ready).send.is_empty(), "1 ready: quiet");
        assert!(e.on_message(2, &ready).send.is_empty(), "2 readies: quiet");
        let out = e.on_message(3, &ready);
        assert_eq!(out.send.len(), 1, "f+1 = 3 readies: amplify");
        assert!(matches!(out.send[0], RbcMessage::Ready { .. }));
    }

    #[test]
    fn duplicate_echoes_counted_once() {
        let mut e = ReliableBroadcast::new(4, 1, 0);
        let tag = Tag {
            origin: 1,
            round: 1,
            step: 1,
        };
        let echo = RbcMessage::Echo {
            tag,
            payload: Bytes::from_static(b"v"),
        };
        // Quorum is > (4+1)/2 → 3 senders. The same sender thrice is one.
        for _ in 0..5 {
            assert!(e.on_message(1, &echo).send.is_empty());
        }
        assert!(e.on_message(2, &echo).send.is_empty());
        let out = e.on_message(3, &echo);
        assert_eq!(out.send.len(), 1, "third distinct echo sender → READY");
    }

    #[test]
    fn delivery_happens_once() {
        let mut engines = engines(4, 1);
        let out = engines[1].broadcast(2, 3, Bytes::from_static(b"p"));
        let initial: Vec<(usize, RbcMessage)> =
            out.send.into_iter().map(|m| (1usize, m)).collect();
        let deliveries = run_network(&mut engines, initial);
        for d in &deliveries {
            assert_eq!(d.len(), 1);
        }
        // Feed a straggler READY afterwards: no double delivery.
        let tag = Tag {
            origin: 1,
            round: 2,
            step: 3,
        };
        let late = RbcMessage::Ready {
            tag,
            payload: Bytes::from_static(b"p"),
        };
        assert!(engines[0].on_message(2, &late).deliver.is_empty());
        assert_eq!(engines[0].delivered(tag).map(|b| &b[..]), Some(&b"p"[..]));
    }

    #[test]
    fn prune_drops_old_rounds() {
        let mut e = ReliableBroadcast::new(4, 1, 0);
        for round in 1..=5 {
            let tag = Tag {
                origin: 1,
                round,
                step: 1,
            };
            let _ = e.on_message(
                1,
                &RbcMessage::Initial {
                    tag,
                    payload: Bytes::from_static(b"v"),
                },
            );
        }
        assert_eq!(e.instances.len(), 5);
        e.prune_rounds_below(4);
        assert_eq!(e.instances.len(), 2);
    }

    #[test]
    fn out_of_range_ids_ignored() {
        let mut e = ReliableBroadcast::new(4, 1, 0);
        let tag = Tag {
            origin: 9,
            round: 1,
            step: 1,
        };
        let msg = RbcMessage::Initial {
            tag,
            payload: Bytes::new(),
        };
        assert_eq!(e.on_message(9, &msg), RbcOutput::default());
        assert_eq!(e.on_message(1, &msg), RbcOutput::default());
    }

    #[test]
    #[should_panic(expected = "payload exceeds the 16-bit length prefix")]
    fn encode_rejects_a_payload_past_the_length_prefix() {
        let _ = ReliableBroadcast::new(4, 1, 0)
            .broadcast(1, 1, Bytes::from(vec![0; usize::from(u16::MAX) + 1]))
            .send[0]
            .encode();
    }

    /// Nor may an origin wrap: 65 536 would go out as process 0.
    #[test]
    #[should_panic(expected = "origin id exceeds the wire format's u16")]
    fn encode_rejects_an_origin_beyond_u16() {
        let tag = Tag {
            origin: 65_536,
            round: 1,
            step: 1,
        };
        let _ = RbcMessage::Initial {
            tag,
            payload: Bytes::from_static(b"v"),
        }
        .encode();
    }

    /// An owned message and its wire encoding are the same view, so
    /// `on_message` and `on_view` are one transition function.
    #[test]
    fn view_of_a_message_is_the_parse_of_its_encoding() {
        let tag = Tag {
            origin: 5,
            round: 12,
            step: 3,
        };
        for msg in [
            RbcMessage::Initial {
                tag,
                payload: Bytes::copy_from_slice(b"payload"),
            },
            RbcMessage::Echo {
                tag,
                payload: Bytes::new(),
            },
            RbcMessage::Ready {
                tag,
                payload: Bytes::copy_from_slice(&[0xff; 40]),
            },
        ] {
            assert_eq!(RbcView::parse(&msg.encode()), Some(msg.view()));
            assert_eq!(msg.view().to_message(), msg);
        }
    }

    /// Duplicate payloads probe the vote tables by raw slice: the
    /// second sender joins the first one's vote instead of storing a
    /// second copy of the payload, and a repeated sender is one bit.
    #[test]
    fn view_duplicates_share_one_table_key() {
        let mut e = ReliableBroadcast::new(7, 2, 0);
        let tag = Tag {
            origin: 1,
            round: 1,
            step: 1,
        };
        let wire = RbcMessage::Echo {
            tag,
            payload: Bytes::copy_from_slice(b"dup-payload"),
        }
        .encode();
        let view = RbcView::parse(&wire).expect("valid");
        let _ = e.on_view(1, &view);
        let _ = e.on_view(2, &view);
        let _ = e.on_view(2, &view);
        let echoes = &e.instances[&tag].echoes;
        assert_eq!(echoes.len(), 1);
        assert_eq!(&echoes[0].payload[..], b"dup-payload");
        assert_eq!((echoes[0].senders[0], echoes[0].count), (0b110, 2));
    }

    /// The instance logic the vote lists replaced, kept as their
    /// differential oracle: payload-keyed sender sets, thresholds found
    /// in the map's hash order, `evaluate` after every vote.
    #[derive(Default)]
    struct OracleInstance {
        echoes: FixedMap<Bytes, BTreeSet<usize>>,
        readies: FixedMap<Bytes, BTreeSet<usize>>,
        echoed: bool,
        readied: bool,
        delivered: Option<Bytes>,
    }

    struct Oracle {
        n: usize,
        f: usize,
        me: usize,
        instances: FixedMap<Tag, OracleInstance>,
    }

    impl Oracle {
        fn on_message(&mut self, from: usize, msg: &RbcMessage) -> RbcOutput {
            let view = msg.view();
            let mut out = RbcOutput::default();
            let tag = view.tag;
            if from >= self.n || tag.origin >= self.n {
                return out;
            }
            match view.kind {
                KIND_INITIAL => {
                    if from != tag.origin {
                        return out;
                    }
                    let inst = self.instances.entry(tag).or_default();
                    if !inst.echoed {
                        inst.echoed = true;
                        let payload = Bytes::copy_from_slice(view.payload);
                        out.send.push(RbcMessage::Echo { tag, payload });
                    }
                }
                KIND_ECHO => {
                    let inst = self.instances.entry(tag).or_default();
                    let payload = Bytes::copy_from_slice(view.payload);
                    inst.echoes.entry(payload).or_default().insert(from);
                    self.evaluate(tag, &mut out);
                }
                _ => {
                    let inst = self.instances.entry(tag).or_default();
                    let payload = Bytes::copy_from_slice(view.payload);
                    inst.readies.entry(payload).or_default().insert(from);
                    self.evaluate(tag, &mut out);
                }
            }
            out
        }

        fn evaluate(&mut self, tag: Tag, out: &mut RbcOutput) {
            let (n, f) = (self.n, self.f);
            let inst = self.instances.get_mut(&tag).expect("caller created it");
            if !inst.readied {
                let echo = inst.echoes.iter().find(|(_, s)| 2 * s.len() > n + f);
                let ready = inst.readies.iter().find(|(_, s)| s.len() > f);
                if let Some(payload) = echo.or(ready).map(|(p, _)| p.clone()) {
                    inst.readied = true;
                    out.send.push(RbcMessage::Ready { tag, payload: payload.clone() });
                    inst.readies.entry(payload).or_default().insert(self.me);
                }
            }
            if inst.delivered.is_none() {
                let deliverable = inst.readies.iter().find(|(_, s)| s.len() > 2 * f);
                if let Some((payload, _)) = deliverable {
                    inst.delivered = Some(payload.clone());
                    out.deliver.push((tag, payload.clone()));
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The bitset vote lists against the sender-set oracle, at
        /// n ∈ {4, 7, 10, 16, 64, 65}: random INITIAL / ECHO / READY
        /// streams over three instances, from senders in `0..n + 2`
        /// (the last two out of range), with repeats, and with up to f
        /// senders equivocating between their instance's two payloads
        /// (the rest vote the honest one). Every message must produce
        /// the oracle's output, and the end state must agree.
        #[test]
        fn vote_lists_match_the_sender_set_oracle(
            size in 0usize..6,
            me_pick in 0usize..1000,
            liars_pick in 0usize..1000,
            // (kind: 0 = repeat the previous message, 1 = INITIAL,
            // 2 = ECHO, else READY; instance; sender; choice: bit 0 =
            // a liar sends the lying payload, bit 1 = an INITIAL comes
            // from its origin)
            stream in proptest::collection::vec((0u8..4, 0usize..3, 0usize..1000, 0u8..4), 1..1500),
        ) {
            let n = [4, 7, 10, 16, 64, 65][size];
            let f = (n - 1) / 3;
            let me = me_pick % n;
            // Senders n - liars .. n may equivocate.
            let liars = liars_pick % (f + 1);
            let tags = [(0, 1, 1), (n - 1, 1, 2), (1, 2, 1)]
                .map(|(origin, round, step)| Tag { origin, round, step });
            let payloads: [[&'static [u8]; 2]; 3] =
                [[b"\x01", b"\x00"], [b"", b"\x02"], [b"honest payload", b"lying payload"]];
            let mut engine = ReliableBroadcast::new(n, f, me);
            let mut oracle = Oracle { n, f, me, instances: FixedMap::default() };
            let mut previous = None;
            for (kind, i, pick, choice) in stream {
                let (from, msg) = match (kind, previous.take()) {
                    (0, Some(repeat)) => repeat,
                    (0, None) => continue,
                    _ => {
                        let tag = tags[i];
                        let initiates = kind == 1 && choice & 2 != 0;
                        let from = if initiates { tag.origin } else { pick % (n + 2) };
                        let lies = from + liars >= n && choice & 1 != 0;
                        let payload = Bytes::from_static(payloads[i][usize::from(lies)]);
                        let msg = match kind {
                            1 => RbcMessage::Initial { tag, payload },
                            2 => RbcMessage::Echo { tag, payload },
                            _ => RbcMessage::Ready { tag, payload },
                        };
                        (from, msg)
                    }
                };
                let (got, want) = (engine.on_message(from, &msg), oracle.on_message(from, &msg));
                proptest::prop_assert_eq!(got, want);
                previous = Some((from, msg));
            }
            for tag in tags {
                proptest::prop_assert_eq!(
                    engine.delivered(tag),
                    oracle.instances.get(&tag).and_then(|i| i.delivered.as_ref())
                );
            }
            proptest::prop_assert_eq!(engine.instances.len(), oracle.instances.len());
        }


        /// Accepted ⇒ canonical: arbitrary bytes — as they come, and
        /// with the kind and length fields made plausible so the parser
        /// gets past them — never panic it, and whatever it accepts
        /// re-encodes to exactly the input.
        #[test]
        fn parse_is_total_and_canonical(
            kind in 0u8..5,
            raw in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..64),
        ) {
            let mut framed = raw.clone();
            if let Some(len) = framed.len().checked_sub(RBC_HEADER_LEN) {
                framed[0] = kind;
                framed[8..10].copy_from_slice(&(len as u16).to_be_bytes());
            }
            for bytes in [raw, framed] {
                if let Some(view) = RbcView::parse(&bytes) {
                    proptest::prop_assert_eq!(&view.to_message().encode()[..], &bytes[..]);
                }
            }
        }

        /// Every strict prefix of a valid frame, and the frame plus one
        /// trailing byte, is rejected; the frame itself round-trips.
        #[test]
        fn parse_rejects_every_strict_prefix_and_a_trailing_byte(
            kind in 1u8..4,
            origin in 0u16..9,
            round in 1u32..100,
            step in 0u8..4,
            payload in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..24),
        ) {
            let tag = Tag { origin: origin as usize, round, step };
            let payload = Bytes::copy_from_slice(&payload);
            let msg = match kind {
                1 => RbcMessage::Initial { tag, payload },
                2 => RbcMessage::Echo { tag, payload },
                _ => RbcMessage::Ready { tag, payload },
            };
            let wire = msg.encode();
            for cut in 0..wire.len() {
                proptest::prop_assert_eq!(RbcView::parse(&wire[..cut]), None, "cut={}", cut);
            }
            proptest::prop_assert_eq!(RbcMessage::decode(&wire), Some(msg));
            let mut trailing = wire.to_vec();
            trailing.push(0);
            proptest::prop_assert_eq!(RbcView::parse(&trailing), None);
        }
    }
}
