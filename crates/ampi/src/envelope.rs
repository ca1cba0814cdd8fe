//! MPI envelope packing into the RTS's opaque 64-bit tag.
//!
//! Layout: `[comm:16][kind:8][reserved:8][tag:32]`.

/// The header bits of an encoded envelope, `[comm:16][kind:8]`: what a
/// receive with a wildcard tag still matches on.
pub const HEADER_MASK: u64 = 0xFFFF_FF00_0000_0000;

/// Message class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointToPoint,
    Collective,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    pub comm: u16,
    pub kind: Kind,
    pub tag: u32,
}

impl Envelope {
    pub fn p2p(comm: u16, tag: u32) -> Envelope {
        Envelope {
            comm,
            kind: Kind::PointToPoint,
            tag,
        }
    }

    pub fn coll(comm: u16, tag: u32) -> Envelope {
        Envelope {
            comm,
            kind: Kind::Collective,
            tag,
        }
    }

    pub fn encode(self) -> u64 {
        let kind = match self.kind {
            Kind::PointToPoint => 0u64,
            Kind::Collective => 1u64,
        };
        ((self.comm as u64) << 48) | (kind << 40) | (self.tag as u64)
    }

    pub fn decode(v: u64) -> Envelope {
        let comm = (v >> 48) as u16;
        let kind = match (v >> 40) & 0xFF {
            0 => Kind::PointToPoint,
            1 => Kind::Collective,
            k => panic!("corrupt envelope kind {k}"),
        };
        Envelope {
            comm,
            kind,
            tag: (v & 0xFFFF_FFFF) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_extremes() {
        for env in [
            Envelope::p2p(0, 0),
            Envelope::p2p(u16::MAX, u32::MAX),
            Envelope::coll(7, 12345),
        ] {
            assert_eq!(Envelope::decode(env.encode()), env);
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(comm: u16, tag: u32, coll: bool) {
            let env = if coll { Envelope::coll(comm, tag) } else { Envelope::p2p(comm, tag) };
            prop_assert_eq!(Envelope::decode(env.encode()), env);
        }
    }
}
