//! Simulated `(n, t)` threshold signatures and threshold coin for ABBA.
//!
//! ABBA (Cachin–Kursawe–Shoup, *Random oracles in Constantinople*) relies
//! on a trusted dealer that distributes threshold key shares before the
//! protocol runs: a dual-threshold signature scheme for justifying
//! pre-votes/main-votes, and a threshold coin-tossing scheme producing a
//! shared coin per round. The reproduction keeps the dealer but implements
//! shares as keyed hashes instead of RSA/Diffie–Hellman exponentiations:
//!
//! * party `i`'s secret is `K_i = H(master ∥ i)`;
//! * a signature share on `m` is `HMAC(K_i, m)`;
//! * a combined signature is `HMAC(master, m)` and is produced by the
//!   combiner only when at least `threshold` valid shares from distinct
//!   parties are presented;
//! * the shared coin for tag `g` is a bit of `HMAC(master, "coin" ∥ g)`,
//!   recoverable only by combining `threshold` coin shares.
//!
//! Against the modeled adversary — who corrupts at most `t < threshold`
//! parties and therefore never holds `master` nor enough shares — this
//! preserves exactly the properties ABBA needs: shares are unforgeable,
//! combined signatures are unforgeable, and the coin is unpredictable
//! until `threshold` correct parties have revealed their shares.
//! Share *verification* in a real deployment uses public verification keys;
//! here [`SharePublic`] plays that role (it is distributed by the dealer
//! and must never be handed to adversary code — the harness enforces
//! this). The CPU price of the real exponentiations is charged separately
//! via [`crate::cost::CostModel`]. See `DESIGN.md` §4.

use crate::hmac::HmacKey;
use crate::sha256::{sha256_concat, Digest};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A signature share produced by one party.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct SigShare {
    /// Identifier of the producing party.
    pub party: usize,
    /// The share tag.
    pub tag: Digest,
}

/// A combined threshold signature.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct ThresholdSignature {
    /// The combined tag (`HMAC(master, message)` in the simulation).
    pub tag: Digest,
}

/// A coin share produced by one party for a given coin tag.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct CoinShare {
    /// Identifier of the producing party.
    pub party: usize,
    /// The share tag.
    pub tag: Digest,
}

/// Errors from threshold operations.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum ThresholdError {
    /// Fewer than `threshold` *valid* shares from distinct parties.
    NotEnoughShares {
        /// Valid shares presented.
        valid: usize,
        /// Shares required.
        required: usize,
    },
}

impl fmt::Display for ThresholdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThresholdError::NotEnoughShares { valid, required } => {
                write!(f, "{valid} valid shares, {required} required")
            }
        }
    }
}

impl std::error::Error for ThresholdError {}

struct SchemeInner {
    n: usize,
    threshold: usize,
    master: HmacKey,
    party_keys: Vec<HmacKey>,
}

/// Public verification/combination state of a threshold scheme instance.
///
/// Stands in for the public verification keys of a real (Shoup-style)
/// threshold RSA setup: every correct party may hold it; adversary code
/// must not (the experiment harness upholds this, mirroring the secrecy of
/// the dealer's master key in the real scheme).
#[derive(Clone)]
pub struct SharePublic {
    inner: Arc<SchemeInner>,
}

impl fmt::Debug for SharePublic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharePublic")
            .field("n", &self.inner.n)
            .field("threshold", &self.inner.threshold)
            .finish_non_exhaustive()
    }
}

/// One party's secret share of the threshold key.
#[derive(Clone)]
pub struct PartyKey {
    party: usize,
    key: HmacKey,
}

impl fmt::Debug for PartyKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartyKey")
            .field("party", &self.party)
            .finish_non_exhaustive()
    }
}

impl PartyKey {
    /// The party this key belongs to.
    pub fn party(&self) -> usize {
        self.party
    }

    /// Produces a signature share on `message`.
    pub fn sign_share(&self, message: &[u8]) -> SigShare {
        SigShare {
            party: self.party,
            tag: self.key.mac_parts(&[b"sig-share", message]),
        }
    }

    /// Produces a coin share for `coin_tag`.
    pub fn coin_share(&self, coin_tag: &[u8]) -> CoinShare {
        CoinShare {
            party: self.party,
            tag: self.key.mac_parts(&[b"coin-share", coin_tag]),
        }
    }
}

/// The trusted dealer: generates one threshold-scheme instance.
///
/// # Example
///
/// ```
/// use turquois_crypto::threshold::Dealer;
/// let (public, keys) = Dealer::deal(4, 3, 42);
/// let msg = b"pre-vote 0 round 1";
/// let shares: Vec<_> = keys.iter().take(3).map(|k| k.sign_share(msg)).collect();
/// let sig = public.combine(msg, &shares)?;
/// assert!(public.verify(msg, &sig));
/// # Ok::<(), turquois_crypto::threshold::ThresholdError>(())
/// ```
#[derive(Debug)]
pub struct Dealer;

impl Dealer {
    /// Deals an `(n, threshold)` instance derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= threshold <= n`.
    pub fn deal(n: usize, threshold: usize, seed: u64) -> (SharePublic, Vec<PartyKey>) {
        assert!(n >= 1, "need at least one party");
        assert!(
            (1..=n).contains(&threshold),
            "threshold {threshold} out of range 1..={n}"
        );
        let master_material = sha256_concat(&[b"turquois-threshold-master", &seed.to_be_bytes()]);
        let master = HmacKey::from_bytes(master_material.as_bytes());
        let party_keys: Vec<HmacKey> = (0..n)
            .map(|i| {
                let material = sha256_concat(&[
                    b"turquois-threshold-party",
                    &seed.to_be_bytes(),
                    &(i as u64).to_be_bytes(),
                ]);
                HmacKey::from_bytes(material.as_bytes())
            })
            .collect();
        let inner = Arc::new(SchemeInner {
            n,
            threshold,
            master,
            party_keys: party_keys.clone(),
        });
        let keys = party_keys
            .into_iter()
            .enumerate()
            .map(|(party, key)| PartyKey { party, key })
            .collect();
        (SharePublic { inner }, keys)
    }
}

impl SharePublic {
    /// Number of parties.
    pub fn n(&self) -> usize {
        self.inner.n
    }

    /// Shares required to combine.
    pub fn threshold(&self) -> usize {
        self.inner.threshold
    }

    /// Verifies a signature share on `message`.
    pub fn verify_share(&self, message: &[u8], share: &SigShare) -> bool {
        let Some(key) = self.inner.party_keys.get(share.party) else {
            return false;
        };
        key.mac_parts(&[b"sig-share", message]) == share.tag
    }

    /// Combines at least `threshold` valid shares into a threshold
    /// signature.
    ///
    /// Invalid or duplicate-party shares are ignored rather than
    /// rejected — a Byzantine party flooding bad shares cannot prevent
    /// combination once enough honest shares are present.
    ///
    /// # Errors
    ///
    /// [`ThresholdError::NotEnoughShares`] when fewer than `threshold`
    /// valid shares from distinct parties are given.
    pub fn combine(
        &self,
        message: &[u8],
        shares: &[SigShare],
    ) -> Result<ThresholdSignature, ThresholdError> {
        let mut seen = BTreeSet::new();
        for share in shares {
            if self.verify_share(message, share) {
                seen.insert(share.party);
            }
        }
        if seen.len() < self.inner.threshold {
            return Err(ThresholdError::NotEnoughShares {
                valid: seen.len(),
                required: self.inner.threshold,
            });
        }
        Ok(ThresholdSignature {
            tag: self.inner.master.mac_parts(&[b"sig", message]),
        })
    }

    /// Verifies a combined threshold signature.
    pub fn verify(&self, message: &[u8], sig: &ThresholdSignature) -> bool {
        self.inner.master.mac_parts(&[b"sig", message]) == sig.tag
    }

    /// Verifies a coin share for `coin_tag`.
    pub fn verify_coin_share(&self, coin_tag: &[u8], share: &CoinShare) -> bool {
        let Some(key) = self.inner.party_keys.get(share.party) else {
            return false;
        };
        key.mac_parts(&[b"coin-share", coin_tag]) == share.tag
    }

    /// Combines coin shares into the shared coin value for `coin_tag`.
    ///
    /// # Errors
    ///
    /// [`ThresholdError::NotEnoughShares`] when fewer than `threshold`
    /// valid shares from distinct parties are given.
    pub fn combine_coin(
        &self,
        coin_tag: &[u8],
        shares: &[CoinShare],
    ) -> Result<bool, ThresholdError> {
        let mut seen = BTreeSet::new();
        for share in shares {
            if self.verify_coin_share(coin_tag, share) {
                seen.insert(share.party);
            }
        }
        if seen.len() < self.inner.threshold {
            return Err(ThresholdError::NotEnoughShares {
                valid: seen.len(),
                required: self.inner.threshold,
            });
        }
        Ok(self.coin_value(coin_tag))
    }

    /// The underlying coin value — exposed for test oracles only; protocol
    /// code must go through [`SharePublic::combine_coin`].
    pub(crate) fn coin_value(&self, coin_tag: &[u8]) -> bool {
        self.inner.master.mac_parts(&[b"coin", coin_tag]).0[0] & 1 == 1
    }

    /// Combines coin shares into a *transferable proof* of the coin
    /// value: a third party can verify the proof without holding any
    /// share (ABBA's coin-justified pre-votes carry one).
    ///
    /// # Errors
    ///
    /// [`ThresholdError::NotEnoughShares`] under `threshold` valid shares
    /// from distinct parties.
    pub fn combine_coin_proof(
        &self,
        coin_tag: &[u8],
        shares: &[CoinShare],
    ) -> Result<CoinProof, ThresholdError> {
        let value = self.combine_coin(coin_tag, shares)?;
        Ok(CoinProof {
            value,
            tag: self.inner.master.mac_parts(&[b"coin-proof", coin_tag]),
        })
    }

    /// Verifies a transferable coin proof for `coin_tag`.
    pub fn verify_coin_proof(&self, coin_tag: &[u8], proof: &CoinProof) -> bool {
        proof.tag == self.inner.master.mac_parts(&[b"coin-proof", coin_tag])
            && proof.value == self.coin_value(coin_tag)
    }
}

/// A transferable proof of a shared-coin outcome.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct CoinProof {
    /// The coin value proven.
    pub value: bool,
    /// The proof tag (unforgeable without the master key).
    pub tag: Digest,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SharePublic, Vec<PartyKey>) {
        Dealer::deal(7, 5, 1234)
    }

    #[test]
    fn combine_with_exactly_threshold_shares() {
        let (public, keys) = setup();
        let msg = b"main-vote";
        let shares: Vec<_> = keys.iter().take(5).map(|k| k.sign_share(msg)).collect();
        let sig = public.combine(msg, &shares).expect("enough shares");
        assert!(public.verify(msg, &sig));
        assert!(!public.verify(b"other message", &sig));
    }

    #[test]
    fn too_few_shares_rejected() {
        let (public, keys) = setup();
        let msg = b"main-vote";
        let shares: Vec<_> = keys.iter().take(4).map(|k| k.sign_share(msg)).collect();
        assert_eq!(
            public.combine(msg, &shares),
            Err(ThresholdError::NotEnoughShares {
                valid: 4,
                required: 5
            })
        );
    }

    #[test]
    fn duplicate_party_shares_counted_once() {
        let (public, keys) = setup();
        let msg = b"vote";
        let mut shares: Vec<_> = keys.iter().take(4).map(|k| k.sign_share(msg)).collect();
        shares.push(keys[0].sign_share(msg)); // duplicate of party 0
        assert!(matches!(
            public.combine(msg, &shares),
            Err(ThresholdError::NotEnoughShares { valid: 4, .. })
        ));
    }

    #[test]
    fn forged_shares_ignored() {
        let (public, keys) = setup();
        let msg = b"vote";
        let mut shares: Vec<_> = keys.iter().take(4).map(|k| k.sign_share(msg)).collect();
        // A Byzantine party fabricates shares for parties it does not
        // control: random tags that fail verification.
        shares.push(SigShare {
            party: 5,
            tag: Digest::ZERO,
        });
        shares.push(SigShare {
            party: 6,
            tag: crate::sha256::sha256(b"guess"),
        });
        assert!(matches!(
            public.combine(msg, &shares),
            Err(ThresholdError::NotEnoughShares { valid: 4, .. })
        ));
        // Adding a genuine 5th share succeeds despite the junk.
        shares.push(keys[4].sign_share(msg));
        assert!(public.combine(msg, &shares).is_ok());
    }

    #[test]
    fn share_bound_to_message() {
        let (public, keys) = setup();
        let share = keys[2].sign_share(b"msg-a");
        assert!(public.verify_share(b"msg-a", &share));
        assert!(!public.verify_share(b"msg-b", &share));
    }

    #[test]
    fn share_party_id_cannot_be_reassigned() {
        let (public, keys) = setup();
        let mut share = keys[2].sign_share(b"msg");
        share.party = 3;
        assert!(!public.verify_share(b"msg", &share));
    }

    #[test]
    fn out_of_range_party_rejected() {
        let (public, keys) = setup();
        let mut share = keys[0].sign_share(b"msg");
        share.party = 99;
        assert!(!public.verify_share(b"msg", &share));
    }

    #[test]
    fn coin_is_deterministic_and_combinable() {
        let (public, keys) = setup();
        let tag = b"abba/round-3";
        let shares: Vec<_> = keys.iter().take(5).map(|k| k.coin_share(tag)).collect();
        let v1 = public.combine_coin(tag, &shares).expect("enough shares");
        let shares2: Vec<_> = keys.iter().skip(2).map(|k| k.coin_share(tag)).collect();
        let v2 = public.combine_coin(tag, &shares2).expect("enough shares");
        assert_eq!(v1, v2, "coin must agree regardless of which shares combine");
        assert_eq!(v1, public.coin_value(tag));
    }

    #[test]
    fn coin_varies_across_tags() {
        let (public, keys) = setup();
        // At least one differing coin value among many tags (overwhelming
        // probability for a sound construction).
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..32u32 {
            let tag = format!("round-{r}");
            let shares: Vec<_> = keys
                .iter()
                .take(5)
                .map(|k| k.coin_share(tag.as_bytes()))
                .collect();
            seen.insert(public.combine_coin(tag.as_bytes(), &shares).unwrap());
        }
        assert_eq!(seen.len(), 2, "coin should produce both values over 32 rounds");
    }

    #[test]
    fn coin_too_few_shares_rejected() {
        let (public, keys) = setup();
        let tag = b"round";
        let shares: Vec<_> = keys.iter().take(4).map(|k| k.coin_share(tag)).collect();
        assert!(public.combine_coin(tag, &shares).is_err());
    }

    #[test]
    fn coin_share_not_valid_as_sig_share() {
        let (public, keys) = setup();
        let cs = keys[0].coin_share(b"x");
        let as_sig = SigShare {
            party: cs.party,
            tag: cs.tag,
        };
        assert!(!public.verify_share(b"x", &as_sig));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_panics() {
        let _ = Dealer::deal(4, 0, 1);
    }

    #[test]
    fn coin_proof_round_trip_and_forgery() {
        let (public, keys) = setup();
        let tag = b"abba/coin/4";
        let shares: Vec<_> = keys.iter().take(5).map(|k| k.coin_share(tag)).collect();
        let proof = public.combine_coin_proof(tag, &shares).expect("enough");
        assert!(public.verify_coin_proof(tag, &proof));
        assert_eq!(proof.value, public.coin_value(tag));
        // Wrong tag or flipped value fails.
        assert!(!public.verify_coin_proof(b"abba/coin/5", &proof));
        let flipped = CoinProof {
            value: !proof.value,
            tag: proof.tag,
        };
        assert!(!public.verify_coin_proof(tag, &flipped));
        let forged = CoinProof {
            value: proof.value,
            tag: Digest::ZERO,
        };
        assert!(!public.verify_coin_proof(tag, &forged));
        // Too few shares cannot produce a proof.
        assert!(public
            .combine_coin_proof(tag, &shares[..4])
            .is_err());
    }

    #[test]
    fn different_seeds_independent_instances() {
        let (pub_a, keys_a) = Dealer::deal(4, 3, 1);
        let (pub_b, _) = Dealer::deal(4, 3, 2);
        let share = keys_a[0].sign_share(b"m");
        assert!(pub_a.verify_share(b"m", &share));
        assert!(!pub_b.verify_share(b"m", &share));
    }
}
