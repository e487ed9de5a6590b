//! Protocol messages and their wire encoding.
//!
//! A Turquois message is `⟨i, φ_i, v_i, status_i⟩` (Algorithm 1, line 6),
//! authenticated by the one-time signature `SK_i[φ_i][v_i]` (§6.1). Two
//! unauthenticated annotations ride along:
//!
//! * the **coin flag** — whether a CONVERGE-phase value came from a coin
//!   flip (Algorithm 1 distinguishes the two on lines 12–15); and
//! * the **status** — `decided`/`undecided`.
//!
//! Neither is covered by the signature; the paper explicitly notes this
//! for `status` (§6.1) and both are instead constrained by the semantic
//! validation of §6.2, which demands quorum evidence for every claim.
//!
//! A message optionally carries a **justification**: copies of earlier
//! signed messages supporting its phase/value/status claims (the
//! *explicit* validation path of §6.2, used from the second broadcast of
//! an unchanged state).

use crate::config::Config;
use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;
use turquois_crypto::otss::{OneTimeSignature, Value};
use turquois_crypto::sha256::DIGEST_LEN;

/// Decision status carried in a message.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum Status {
    /// The sender has not decided.
    Undecided,
    /// The sender has decided its current value.
    Decided,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Undecided => f.write_str("undecided"),
            Status::Decided => f.write_str("decided"),
        }
    }
}

/// The signed, wire-visible part of a protocol message.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub struct Envelope {
    /// Claimed sender (verified by the one-time signature).
    pub sender: usize,
    /// The sender's phase `φ`.
    pub phase: u32,
    /// The sender's proposal value `v ∈ {0, 1, ⊥}`.
    pub value: Value,
    /// Whether `value` was produced by a coin flip (meaningful only when
    /// `phase mod 3 = 1`; unauthenticated, constrained semantically).
    pub coin_flip: bool,
    /// The sender's decision status (unauthenticated, constrained
    /// semantically).
    pub status: Status,
}

/// A full protocol message: envelope, signature, optional justification.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Message {
    /// The message contents.
    pub envelope: Envelope,
    /// One-time signature over `(phase, value)` by the claimed sender.
    pub signature: OneTimeSignature,
    /// Attached justification messages (envelope + signature each; never
    /// nested).
    pub justification: Vec<(Envelope, OneTimeSignature)>,
}

impl Message {
    /// A message with no justification attached.
    pub fn bare(envelope: Envelope, signature: OneTimeSignature) -> Self {
        Message {
            envelope,
            signature,
            justification: Vec::new(),
        }
    }

    /// Serialized size in bytes (drives simulated airtime).
    pub fn wire_size(&self) -> usize {
        HEADER_LEN + self.justification.len() * ENTRY_LEN
    }

    /// Encodes the message for transmission into one exact-capacity
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if a sender id (the message's or an attachment's) or the
    /// number of attachments does not fit the format's 16-bit field:
    /// truncated, it would decode as another process or another count.
    pub fn encode(&self) -> Bytes {
        let count = u16::try_from(self.justification.len())
            .expect("justification count exceeds the wire format's u16");
        let mut buf = BytesMut::with_capacity(self.wire_size());
        buf.put_slice(&encode_record(&self.envelope, &self.signature));
        buf.put_u16(count);
        for (env, sig) in &self.justification {
            buf.put_slice(&encode_record(env, sig));
        }
        buf.freeze()
    }

    /// Decodes a message from wire bytes: [`MessageView::parse`], then
    /// [`MessageView::to_message`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation or malformed fields; `cfg`
    /// is used to bound the sender id and justification size.
    pub fn decode(bytes: &[u8], cfg: &Config) -> Result<Message, DecodeError> {
        MessageView::parse(bytes, cfg).map(|view| view.to_message())
    }
}

const ENVELOPE_LEN: usize = 2 + 4 + 1 + 1;
/// One signed record, envelope + signature: the message opens with
/// one, and every justification entry is one.
const ENTRY_LEN: usize = ENVELOPE_LEN + DIGEST_LEN;
/// Fixed prefix: the message's record + justification count.
const HEADER_LEN: usize = ENTRY_LEN + 2;
/// Where each field of a record ends, in wire order: sender, phase,
/// value, flags, signature.
const FIELD_ENDS: [usize; 5] = [2, 6, 7, 8, ENTRY_LEN];
/// A record [`check_record`] accepts at every `n`: sender 0, phase 1.
const FILLER: [u8; ENTRY_LEN] = {
    let mut rec = [0; ENTRY_LEN];
    rec[5] = 1;
    rec
};

const FLAG_COIN: u8 = 0b01;
const FLAG_DECIDED: u8 = 0b10;

/// One signed record in wire order: sender, phase, value, flags,
/// signature.
fn encode_record(env: &Envelope, sig: &OneTimeSignature) -> [u8; ENTRY_LEN] {
    let sender = u16::try_from(env.sender).expect("sender id exceeds the wire format's u16");
    let mut flags = 0u8;
    if env.coin_flip {
        flags |= FLAG_COIN;
    }
    if env.status == Status::Decided {
        flags |= FLAG_DECIDED;
    }
    let mut rec = [0; ENTRY_LEN];
    rec[..2].copy_from_slice(&sender.to_be_bytes());
    rec[2..6].copy_from_slice(&env.phase.to_be_bytes());
    rec[6] = env.value.index() as u8;
    rec[7] = flags;
    rec[ENVELOPE_LEN..].copy_from_slice(&sig.0);
    rec
}

/// Checks a record's envelope fields in wire order — sender, phase,
/// value, flags — and reports the first malformed one.
fn check_record(rec: &[u8; ENTRY_LEN], n: usize) -> Result<(), DecodeError> {
    let sender = usize::from(u16::from_be_bytes([rec[0], rec[1]]));
    if sender >= n {
        return Err(DecodeError::BadSender { sender });
    }
    if rec[2..6] == [0; 4] {
        return Err(DecodeError::ZeroPhase);
    }
    if rec[6] > 2 {
        return Err(DecodeError::BadValue { byte: rec[6] });
    }
    if rec[7] & !(FLAG_COIN | FLAG_DECIDED) != 0 {
        return Err(DecodeError::BadFlags { byte: rec[7] });
    }
    Ok(())
}

/// Reads a record [`check_record`] accepted.
fn read_record(rec: &[u8; ENTRY_LEN]) -> (Envelope, OneTimeSignature) {
    let envelope = Envelope {
        sender: usize::from(u16::from_be_bytes([rec[0], rec[1]])),
        phase: u32::from_be_bytes([rec[2], rec[3], rec[4], rec[5]]),
        value: Value::ALL[usize::from(rec[6])],
        coin_flip: rec[7] & FLAG_COIN != 0,
        status: if rec[7] & FLAG_DECIDED != 0 {
            Status::Decided
        } else {
            Status::Undecided
        },
    };
    let signature = rec.last_chunk().expect("a record ends in its signature");
    (envelope, OneTimeSignature(*signature))
}

/// The justification records of a frame [`MessageView::parse`]
/// accepted, as they sit in its buffer.
pub(crate) fn justification_bytes(frame: &[u8]) -> &[u8] {
    &frame[HEADER_LEN..]
}

/// A word that picks the candidates for a byte compare of two
/// justification regions: the record count mixed with the first eight
/// signature bytes of each record, never 0. Equal regions have equal
/// keys; the converse is anybody's to break (a Byzantine sender can
/// collide it at will), so a key decides nothing.
pub(crate) fn bundle_key(region: &[u8]) -> u64 {
    let (records, _) = region.as_chunks::<ENTRY_LEN>();
    records.iter().fold(records.len() as u64, |key, rec| {
        let sig = rec[ENVELOPE_LEN..].first_chunk().expect("a signature is 32 bytes");
        (key ^ u64::from_le_bytes(*sig)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }) | 1
}

/// The sender the head record of `bytes` claims, unchecked, and the
/// number of justification entries a message of `bytes.len()` carries
/// if it parses.
pub(crate) fn claimed_head(bytes: &[u8]) -> Option<(usize, usize)> {
    let &[hi, lo] = bytes.first_chunk()?;
    let entries = bytes.len().checked_sub(HEADER_LEN)? / ENTRY_LEN;
    Some((usize::from(u16::from_be_bytes([hi, lo])), entries))
}

/// The error of the record at `at` when `bytes` ends inside it: the
/// first malformed field the input holds in full, else `Truncated` at
/// the end of the first field it cuts — what reading field by field
/// reports.
#[cold]
fn cut_short(bytes: &[u8], at: usize, n: usize) -> DecodeError {
    let have = bytes.len() - at;
    let whole = FIELD_ENDS.partition_point(|&end| end <= have);
    let checked = whole.checked_sub(1).map_or(0, |last| FIELD_ENDS[last]);
    let mut rec = FILLER;
    rec[..checked].copy_from_slice(&bytes[at..at + checked]);
    match check_record(&rec, n) {
        Err(malformed) => malformed,
        Ok(()) => DecodeError::Truncated {
            needed: at + FIELD_ENDS[whole],
            len: bytes.len(),
        },
    }
}

/// A borrowed, validated view of a wire message — the one parser of
/// the format.
///
/// The justification entries stay in place, as fixed-width records in
/// the received buffer, instead of being materialized into a `Vec`:
/// the steady-state receive path allocates nothing. Entries are fully
/// validated during [`MessageView::parse`]; [`MessageView::entry`]
/// reads one out without checking it again ([`Envelope`] and
/// [`OneTimeSignature`] are plain `Copy` data, so an access is a
/// 40-byte stack copy, not a heap allocation).
///
/// Use [`MessageView::to_message`] (or [`Message::decode`], which is
/// parse + `to_message`) at the few points where a message must
/// outlive its delivery.
#[derive(Clone, Copy, Debug)]
pub struct MessageView<'a> {
    envelope: Envelope,
    signature: OneTimeSignature,
    entries: &'a [[u8; ENTRY_LEN]],
}

impl<'a> MessageView<'a> {
    /// Parses and validates a wire message without materializing its
    /// justification. Each record is one fixed-width array, checked
    /// field by field in wire order.
    ///
    /// # Errors
    ///
    /// Returns the [`DecodeError`] of the first malformed field, or
    /// [`DecodeError::Truncated`] / [`DecodeError::TrailingBytes`] when
    /// the length disagrees with the format. Nothing is reserved from
    /// the untrusted count: a huge count on a tiny payload is
    /// `Truncated` at its first missing entry.
    pub fn parse(bytes: &'a [u8], cfg: &Config) -> Result<MessageView<'a>, DecodeError> {
        let n = cfg.n();
        let Some(head) = bytes.first_chunk() else {
            return Err(cut_short(bytes, 0, n));
        };
        check_record(head, n)?;
        let Some(&[hi, lo]) = bytes.get(ENTRY_LEN..HEADER_LEN) else {
            return Err(DecodeError::Truncated {
                needed: HEADER_LEN,
                len: bytes.len(),
            });
        };
        let count = usize::from(u16::from_be_bytes([hi, lo]));
        // A justification never needs more than one full quorum per
        // claim; three claims bound it at 3n.
        if count > 3 * n {
            return Err(DecodeError::JustificationTooLarge { count });
        }
        let (records, _) = bytes[HEADER_LEN..].as_chunks();
        let entries = &records[..count.min(records.len())];
        for rec in entries {
            check_record(rec, n)?;
        }
        if entries.len() < count {
            return Err(cut_short(bytes, HEADER_LEN + entries.len() * ENTRY_LEN, n));
        }
        let extra = bytes.len() - HEADER_LEN - count * ENTRY_LEN;
        if extra != 0 {
            return Err(DecodeError::TrailingBytes { extra });
        }
        let (envelope, signature) = read_record(head);
        Ok(MessageView {
            envelope,
            signature,
            entries,
        })
    }

    /// The signed envelope.
    pub fn envelope(&self) -> Envelope {
        self.envelope
    }

    /// The one-time signature over the envelope.
    pub fn signature(&self) -> OneTimeSignature {
        self.signature
    }

    /// Number of attached justification entries.
    pub fn justification_len(&self) -> usize {
        self.entries.len()
    }

    /// Reads justification entry `i` out of the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn entry(&self, i: usize) -> (Envelope, OneTimeSignature) {
        read_record(&self.entries[i])
    }

    /// Materializes an owned [`Message`] (used only where a message
    /// outlives its delivery, e.g. tests and fixtures).
    pub fn to_message(&self) -> Message {
        Message {
            envelope: self.envelope,
            signature: self.signature,
            justification: self.entries.iter().map(read_record).collect(),
        }
    }
}

/// Errors decoding a wire message.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum DecodeError {
    /// Fewer bytes than the format requires.
    Truncated {
        /// Bytes needed so far.
        needed: usize,
        /// Bytes available.
        len: usize,
    },
    /// Sender id out of `0..n`.
    BadSender {
        /// The offending id.
        sender: usize,
    },
    /// Phases are 1-based; 0 is invalid.
    ZeroPhase,
    /// Value byte not in `{0, 1, 2}`.
    BadValue {
        /// The offending byte.
        byte: u8,
    },
    /// Unknown flag bits set.
    BadFlags {
        /// The offending byte.
        byte: u8,
    },
    /// Justification count exceeds the protocol bound.
    JustificationTooLarge {
        /// The claimed count.
        count: usize,
    },
    /// Bytes remain after a complete message.
    TrailingBytes {
        /// Number of surplus bytes.
        extra: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, len } => {
                write!(f, "truncated message: needed {needed} bytes, have {len}")
            }
            DecodeError::BadSender { sender } => write!(f, "sender {sender} out of range"),
            DecodeError::ZeroPhase => write!(f, "phase 0 is invalid (phases are 1-based)"),
            DecodeError::BadValue { byte } => write!(f, "invalid value byte {byte}"),
            DecodeError::BadFlags { byte } => write!(f, "invalid flag byte {byte:#x}"),
            DecodeError::JustificationTooLarge { count } => {
                write!(f, "justification of {count} messages exceeds bound")
            }
            DecodeError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::new(7, 2, 5).expect("valid")
    }

    fn env(sender: usize, phase: u32, value: Value) -> Envelope {
        Envelope {
            sender,
            phase,
            value,
            coin_flip: false,
            status: Status::Undecided,
        }
    }

    fn sig(b: u8) -> OneTimeSignature {
        OneTimeSignature([b; DIGEST_LEN])
    }

    #[test]
    fn round_trip_bare() {
        let m = Message::bare(env(3, 5, Value::One), sig(7));
        let bytes = m.encode();
        assert_eq!(bytes.len(), m.wire_size());
        let d = Message::decode(&bytes, &cfg()).expect("valid");
        assert_eq!(d, m);
    }

    #[test]
    fn round_trip_all_fields() {
        for value in [Value::Zero, Value::One, Value::Bot] {
            for coin_flip in [false, true] {
                for status in [Status::Undecided, Status::Decided] {
                    let m = Message {
                        envelope: Envelope {
                            sender: 6,
                            phase: 123,
                            value,
                            coin_flip,
                            status,
                        },
                        signature: sig(9),
                        justification: vec![
                            (env(0, 122, Value::Zero), sig(1)),
                            (env(1, 122, Value::One), sig(2)),
                        ],
                    };
                    let d = Message::decode(&m.encode(), &cfg()).expect("valid");
                    assert_eq!(d, m);
                }
            }
        }
    }

    /// Every strict prefix is `Truncated` at the end of the first field
    /// it cuts into — never a panic, never another error.
    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let m = Message {
            envelope: env(1, 2, Value::Zero),
            signature: sig(3),
            justification: vec![(env(2, 1, Value::One), sig(4))],
        };
        let bytes = m.encode();
        // sender, phase, value, flags, signature, count, then one entry.
        let field_ends = [2, 6, 7, 8, 40, 42, 44, 48, 49, 50, 82];
        assert_eq!(bytes.len(), 82);
        for cut in 0..bytes.len() {
            let needed = *field_ends.iter().find(|&&end| end > cut).expect("cut < 82");
            assert_eq!(
                Message::decode(&bytes[..cut], &cfg()),
                Err(DecodeError::Truncated { needed, len: cut }),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn decode_rejects_bad_sender() {
        let m = Message::bare(env(6, 1, Value::Zero), sig(0));
        let mut bytes = m.encode().to_vec();
        bytes[1] = 200; // sender = 200 > n
        assert!(matches!(
            Message::decode(&bytes, &cfg()),
            Err(DecodeError::BadSender { sender: 200 })
        ));
    }

    #[test]
    fn decode_rejects_zero_phase() {
        let m = Message::bare(env(0, 1, Value::Zero), sig(0));
        let mut bytes = m.encode().to_vec();
        bytes[2..6].copy_from_slice(&0u32.to_be_bytes());
        assert_eq!(Message::decode(&bytes, &cfg()), Err(DecodeError::ZeroPhase));
    }

    #[test]
    fn decode_rejects_bad_value_and_flags() {
        let m = Message::bare(env(0, 1, Value::Zero), sig(0));
        let mut bytes = m.encode().to_vec();
        bytes[6] = 9;
        assert_eq!(
            Message::decode(&bytes, &cfg()),
            Err(DecodeError::BadValue { byte: 9 })
        );
        let mut bytes = m.encode().to_vec();
        bytes[7] = 0xf0;
        assert_eq!(
            Message::decode(&bytes, &cfg()),
            Err(DecodeError::BadFlags { byte: 0xf0 })
        );
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let m = Message::bare(env(0, 1, Value::Zero), sig(0));
        let mut bytes = m.encode().to_vec();
        bytes.push(0);
        assert_eq!(
            Message::decode(&bytes, &cfg()),
            Err(DecodeError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn decode_rejects_oversized_justification() {
        let m = Message::bare(env(0, 1, Value::Zero), sig(0));
        let mut bytes = m.encode().to_vec();
        let count_at = ENVELOPE_LEN + DIGEST_LEN;
        bytes[count_at..count_at + 2].copy_from_slice(&1000u16.to_be_bytes());
        assert!(matches!(
            Message::decode(&bytes, &cfg()),
            Err(DecodeError::JustificationTooLarge { count: 1000 })
        ));
    }

    #[test]
    fn wire_size_small_without_justification() {
        let m = Message::bare(env(0, 1, Value::Zero), sig(0));
        // 8-byte envelope + 32-byte signature + 2-byte count.
        assert_eq!(m.wire_size(), 42);
    }

    #[test]
    fn status_display() {
        assert_eq!(Status::Decided.to_string(), "decided");
        assert_eq!(Status::Undecided.to_string(), "undecided");
    }

    /// A malformed field inside a justification entry is reported like
    /// the same field of the header envelope.
    #[test]
    fn decode_rejects_malformed_justification_entries() {
        let m = Message {
            envelope: env(1, 2, Value::Zero),
            signature: sig(3),
            justification: vec![(env(2, 1, Value::One), sig(4))],
        };
        let bytes = m.encode();
        // Entry 0 starts at HEADER_LEN: sender, phase, value, flags.
        for (at, val, expected) in [
            (HEADER_LEN + 1, 200, DecodeError::BadSender { sender: 200 }),
            (HEADER_LEN + 5, 0, DecodeError::ZeroPhase),
            (HEADER_LEN + 6, 9, DecodeError::BadValue { byte: 9 }),
            (HEADER_LEN + 7, 0xf0, DecodeError::BadFlags { byte: 0xf0 }),
        ] {
            let mut mutated = bytes.to_vec();
            mutated[at] = val;
            assert_eq!(
                Message::decode(&mutated, &cfg()),
                Err(expected),
                "byte {at} set to {val}"
            );
        }
    }

    /// The sender field is 16 bits wide: a larger id panics instead of
    /// wrapping into another process's (65 536 would go out as 0).
    #[test]
    #[should_panic(expected = "sender id exceeds the wire format's u16")]
    fn encode_rejects_a_sender_beyond_u16() {
        let _ = Message::bare(env(65_536, 1, Value::Zero), sig(0)).encode();
    }

    /// So is the count: 65 536 attachments would go out as 0 and leave
    /// every entry as trailing bytes.
    #[test]
    #[should_panic(expected = "justification count exceeds the wire format's u16")]
    fn encode_rejects_a_bundle_beyond_u16() {
        let mut m = Message::bare(env(0, 2, Value::Zero), sig(0));
        m.justification = vec![(env(1, 1, Value::Zero), sig(1)); 65_536];
        let _ = m.encode();
    }

    /// The field-by-field decoder that `MessageView::parse` replaced,
    /// kept verbatim as its reference: a cursor that bounds-checks every
    /// field as it reads it.
    struct Reader<'a> {
        bytes: &'a [u8],
        at: usize,
    }

    impl<'a> Reader<'a> {
        fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
            if self.at + n > self.bytes.len() {
                return Err(DecodeError::Truncated {
                    needed: self.at + n,
                    len: self.bytes.len(),
                });
            }
            let s = &self.bytes[self.at..self.at + n];
            self.at += n;
            Ok(s)
        }

        fn take_u16(&mut self) -> Result<u16, DecodeError> {
            Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("2 bytes")))
        }

        fn take_u32(&mut self) -> Result<u32, DecodeError> {
            Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes")))
        }

        fn take_u8(&mut self) -> Result<u8, DecodeError> {
            Ok(self.take(1)?[0])
        }

        fn take_digest(&mut self) -> Result<[u8; DIGEST_LEN], DecodeError> {
            Ok(self
                .take(DIGEST_LEN)?
                .try_into()
                .expect("DIGEST_LEN bytes"))
        }
    }

    fn decode_envelope(r: &mut Reader<'_>, cfg: &Config) -> Result<Envelope, DecodeError> {
        let sender = r.take_u16()? as usize;
        if sender >= cfg.n() {
            return Err(DecodeError::BadSender { sender });
        }
        let phase = r.take_u32()?;
        if phase == 0 {
            return Err(DecodeError::ZeroPhase);
        }
        let value = match r.take_u8()? {
            0 => Value::Zero,
            1 => Value::One,
            2 => Value::Bot,
            other => return Err(DecodeError::BadValue { byte: other }),
        };
        let flags = r.take_u8()?;
        if flags & !(FLAG_COIN | FLAG_DECIDED) != 0 {
            return Err(DecodeError::BadFlags { byte: flags });
        }
        Ok(Envelope {
            sender,
            phase,
            value,
            coin_flip: flags & FLAG_COIN != 0,
            status: if flags & FLAG_DECIDED != 0 {
                Status::Decided
            } else {
                Status::Undecided
            },
        })
    }

    type Parsed = (
        Envelope,
        OneTimeSignature,
        Vec<(Envelope, OneTimeSignature)>,
    );

    fn parse_reference(bytes: &[u8], cfg: &Config) -> Result<Parsed, DecodeError> {
        let mut r = Reader { bytes, at: 0 };
        let envelope = decode_envelope(&mut r, cfg)?;
        let signature = OneTimeSignature(r.take_digest()?);
        let count = r.take_u16()? as usize;
        if count > 3 * cfg.n() {
            return Err(DecodeError::JustificationTooLarge { count });
        }
        let mut justification = Vec::new();
        for _ in 0..count {
            let env = decode_envelope(&mut r, cfg)?;
            justification.push((env, OneTimeSignature(r.take_digest()?)));
        }
        if r.at != bytes.len() {
            return Err(DecodeError::TrailingBytes {
                extra: bytes.len() - r.at,
            });
        }
        Ok((envelope, signature, justification))
    }

    /// `MessageView::parse` returns what the reference returns: the same
    /// error with the same fields, or the same envelope, signature,
    /// count and entries.
    fn matches_reference(bytes: &[u8], cfg: &Config) -> Result<(), proptest::TestCaseError> {
        let view = MessageView::parse(bytes, cfg).map(|v| {
            let entries: Vec<_> = (0..v.justification_len()).map(|i| v.entry(i)).collect();
            (v.envelope(), v.signature(), entries)
        });
        proptest::prop_assert_eq!(
            view,
            parse_reference(bytes, cfg),
            "n = {}, {} bytes",
            cfg.n(),
            bytes.len()
        );
        Ok(())
    }

    /// A well-formed record for a group of `n`, with a full-width phase
    /// now and then.
    fn random_record(rng: &mut impl rand::Rng, n: usize) -> (Envelope, OneTimeSignature) {
        let env = Envelope {
            sender: rng.gen_range(0..n),
            phase: if rng.gen_bool(0.8) {
                rng.gen_range(1..40)
            } else {
                rng.gen_range(1..=u32::MAX)
            },
            value: Value::ALL[rng.gen_range(0..3usize)],
            coin_flip: rng.gen(),
            status: if rng.gen() {
                Status::Decided
            } else {
                Status::Undecided
            },
        };
        (env, sig(rng.gen_range(0..=u8::MAX)))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The fixed-width parser against its field-by-field reference,
        /// at n = 4, 64 and 256: on arbitrary bytes, on every prefix of
        /// a valid encoding (bundles past the 3n bound included), and on
        /// valid encodings with 1–3 bytes overwritten or trailing bytes
        /// appended.
        #[test]
        fn parse_matches_field_by_field_reference(seed in proptest::arbitrary::any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for n in [4usize, 64, 256] {
                let cfg = Config::evaluation(n).expect("valid n");
                let len = rng.gen_range(0..4 * ENTRY_LEN);
                let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
                matches_reference(&garbage, &cfg)?;

                let (envelope, signature) = random_record(&mut rng, n);
                let count = rng.gen_range(0..=(3 * n + 1).min(24));
                let justification = (0..count).map(|_| random_record(&mut rng, n)).collect();
                let valid = Message { envelope, signature, justification }.encode();
                for cut in 0..=valid.len() {
                    matches_reference(&valid[..cut], &cfg)?;
                }
                for _ in 0..16 {
                    let mut mutated = valid.to_vec();
                    for _ in 0..rng.gen_range(1..=3usize) {
                        let at = rng.gen_range(0..mutated.len());
                        mutated[at] = rng.gen_range(0..=u8::MAX);
                    }
                    matches_reference(&mutated, &cfg)?;
                }
                let mut trailing = valid.to_vec();
                trailing.extend((0..rng.gen_range(1..=3usize)).map(|_| rng.gen_range(0..=u8::MAX)));
                matches_reference(&trailing, &cfg)?;
            }
        }
    }

    /// The count field is untrusted: a huge claimed count on a tiny
    /// payload fails as `Truncated` at its first missing entry, and the
    /// parser reserves nothing on its say-so.
    #[test]
    fn huge_count_with_tiny_payload_is_truncated() {
        // Large n so the 3n justification bound does not trip first.
        let big = Config::evaluation(30000).expect("valid");
        let m = Message::bare(env(0, 1, Value::Zero), sig(0));
        let mut bytes = m.encode().to_vec();
        let count_at = ENVELOPE_LEN + DIGEST_LEN;
        bytes[count_at..count_at + 2].copy_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(
            Message::decode(&bytes, &big),
            Err(DecodeError::Truncated {
                needed: HEADER_LEN + 2,
                len: HEADER_LEN
            })
        );
    }
}
