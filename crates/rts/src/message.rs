//! Runtime-level messages between ranks.
//!
//! The RTS transports opaque payloads addressed by rank; MPI semantics
//! (communicators, tags, wildcards, collectives) are layered on top in
//! `pvr-ampi`, which encodes them in the `tag` word and in the mask/value
//! predicates the rank's matching engine ([`crate::matching`]) pairs
//! messages with — which is also how the tag survives migration:
//! messages are addressed to ranks, not PEs.

use crate::RankId;
use bytes::Bytes;
use pvr_isomalloc::{checksum64, fold64};

#[derive(Debug, Clone)]
pub struct RtsMessage {
    pub from: RankId,
    pub to: RankId,
    /// Opaque to the RTS; `pvr-ampi` packs its envelope here.
    pub tag: u64,
    pub payload: Bytes,
    /// Per-(src,dst)-pair sequence number assigned by the reliable
    /// delivery layer (0 on the fault-free fast path, where it is
    /// unused).
    pub seq: u64,
    /// [`Self::integrity`] seal over the header fields and payload,
    /// stamped at transmit time by the reliable delivery layer so the
    /// receiver can detect in-flight corruption. 0 on the fault-free fast
    /// path.
    pub checksum: u64,
}

impl RtsMessage {
    pub fn new(from: RankId, to: RankId, tag: u64, payload: Bytes) -> RtsMessage {
        RtsMessage {
            from,
            to,
            tag,
            payload,
            seq: 0,
            checksum: 0,
        }
    }

    /// Wire size for network cost purposes (payload + header).
    pub fn wire_bytes(&self) -> usize {
        self.payload.len() + 32
    }

    /// [`checksum64`] of the payload with the header fields (from, to,
    /// tag, seq) folded in — what `checksum` should hold for an
    /// uncorrupted message. Runs directly over the payload view, no
    /// staging copy.
    pub fn integrity(&self) -> u64 {
        [self.from as u64, self.to as u64, self.tag, self.seq]
            .into_iter()
            .fold(checksum64(self.payload.as_ref()), fold64)
    }

    /// Flip one payload bit in place (or a checksum bit when the
    /// payload's storage is shared or empty) — either way the receiver's
    /// [`Self::intact`] check fails, which is the entire observable
    /// effect of in-flight corruption. Never allocates: inline payloads
    /// are uniquely owned by value and mutated directly; spilled
    /// payloads share their buffer with the sender's retransmit copy, so
    /// the damage is recorded in the seal instead of the bytes.
    pub fn corrupt_payload(&mut self) {
        let mid = self.payload.len() / 2;
        match self.payload.inline_mut() {
            Some(bytes) if !bytes.is_empty() => bytes[mid] ^= 0x01,
            _ => self.checksum ^= 1 << (mid % 64),
        }
    }

    /// Stamp `checksum` from the current contents.
    pub fn seal(&mut self) {
        self.checksum = self.integrity();
    }

    /// True when the checksum matches the contents (no in-flight
    /// corruption).
    pub fn intact(&self) -> bool {
        self.checksum == self.integrity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_includes_header() {
        let m = RtsMessage::new(0, 1, 7, Bytes::from_static(b"hello"));
        assert_eq!(m.wire_bytes(), 5 + 32);
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut m = RtsMessage::new(0, 1, 7, Bytes::from(vec![1, 2, 3, 4]));
        m.seq = 9;
        m.seal();
        assert!(m.intact());
        m.payload.inline_mut().expect("small payload is inline")[2] ^= 0x10; // single bit flip
        assert!(!m.intact());
    }

    #[test]
    fn checksum_covers_header() {
        let mut m = RtsMessage::new(0, 1, 7, Bytes::from_static(b"x"));
        m.seal();
        m.seq = 1;
        assert!(!m.intact());
    }

    #[test]
    fn every_header_field_and_payload_bit_is_covered() {
        // inline, spilled (> 64 B) and block-unaligned payloads
        for n in [0usize, 1, 7, 8, 9, 33, 64, 65, 100] {
            let payload: Vec<u8> = (0..n).map(|i| (i * 31 + 7) as u8).collect();
            let mut m = RtsMessage::new(3, 5, 11, Bytes::from(payload.clone()));
            m.seq = 42;
            m.seal();
            type Edit = fn(&mut RtsMessage);
            let edits: [(&str, Edit); 6] = [
                ("from", |m| m.from ^= 1),
                ("to", |m| m.to ^= 1),
                ("tag", |m| m.tag ^= 1 << 63),
                ("seq", |m| m.seq += 1),
                // two header fields exchanged: the fold is ordered
                ("from<->to", |m| std::mem::swap(&mut m.from, &mut m.to)),
                ("tag<->seq", |m| std::mem::swap(&mut m.tag, &mut m.seq)),
            ];
            for (what, edit) in edits {
                let mut bad = m.clone();
                edit(&mut bad);
                assert!(!bad.intact(), "len {n}: {what} not covered");
            }
            for pos in 0..n {
                for bit in 0..8 {
                    let mut bytes = payload.clone();
                    bytes[pos] ^= 1 << bit;
                    let mut bad = m.clone();
                    bad.payload = Bytes::from(bytes);
                    assert!(!bad.intact(), "len {n} byte {pos} bit {bit}");
                }
            }
            // the length is sealed: one more zero byte is another message
            let mut longer = payload.clone();
            longer.push(0);
            let mut bad = m.clone();
            bad.payload = Bytes::from(longer);
            assert!(!bad.intact(), "len {n}: trailing zero byte");
        }
    }

    #[test]
    fn corrupt_payload_never_allocates_and_always_detected() {
        // Inline payload: real bit flip in place.
        let mut m = RtsMessage::new(0, 1, 7, Bytes::from(vec![1, 2, 3, 4]));
        m.seal();
        m.corrupt_payload();
        assert!(!m.intact());
        assert_eq!(m.payload.as_ref(), &[1, 2, 0x02, 4], "mid bit flipped");
        // Empty payload: seal bit flip.
        let mut m = RtsMessage::new(0, 1, 7, Bytes::new());
        m.seal();
        m.corrupt_payload();
        assert!(!m.intact());
        // Spilled (shared) payload: seal bit flip, shared bytes intact.
        let big = Bytes::from(vec![9u8; 128]);
        let mut m = RtsMessage::new(0, 1, 7, big.clone());
        m.seal();
        m.corrupt_payload();
        assert!(!m.intact());
        assert_eq!(m.payload, big, "shared buffer must not be scribbled");
    }
}
