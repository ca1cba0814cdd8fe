//! Byte-level helpers for typed payloads.

use bytes::Bytes;

/// Serialize an `f64` slice little-endian.
pub fn f64s_to_bytes(data: &[f64]) -> Bytes {
    let mut v = Vec::with_capacity(data.len() * 8);
    for x in data {
        v.extend_from_slice(&x.to_le_bytes());
    }
    Bytes::from(v)
}

/// The payload's little-endian `f64`s, in order.
fn decode_f64s(b: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    assert_eq!(b.len() % 8, 0, "payload is not a whole number of f64s");
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
}

/// Deserialize little-endian `f64`s.
pub fn bytes_to_f64s(b: &[u8]) -> Vec<f64> {
    decode_f64s(b).collect()
}

/// Deserialize little-endian `f64`s into `out`, which must be exactly
/// as long as the payload.
pub fn bytes_into_f64s(b: &[u8], out: &mut [f64]) {
    let vals = decode_f64s(b);
    assert_eq!(
        vals.len(),
        out.len(),
        "payload and destination differ in f64 count"
    );
    for (x, v) in out.iter_mut().zip(vals) {
        *x = v;
    }
}

/// Serialize a `u64` slice little-endian.
pub fn u64s_to_bytes(data: &[u64]) -> Bytes {
    let mut v = Vec::with_capacity(data.len() * 8);
    for x in data {
        v.extend_from_slice(&x.to_le_bytes());
    }
    Bytes::from(v)
}

pub fn bytes_to_u64s(b: &[u8]) -> Vec<u64> {
    assert_eq!(b.len() % 8, 0);
    b.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_f64_roundtrip(v in proptest::collection::vec(any::<f64>().prop_filter("finite", |x| x.is_finite()), 0..64)) {
            let wire = f64s_to_bytes(&v);
            let mut out = vec![f64::NAN; v.len()];
            bytes_into_f64s(&wire, &mut out);
            prop_assert_eq!(&out, &v);
            prop_assert_eq!(bytes_to_f64s(&wire), v);
        }

        #[test]
        fn prop_u64_roundtrip(v in proptest::collection::vec(any::<u64>(), 0..64)) {
            prop_assert_eq!(bytes_to_u64s(&u64s_to_bytes(&v)), v);
        }
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_payload_rejected() {
        let _ = bytes_to_f64s(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "differ in f64 count")]
    fn mismatched_destination_rejected() {
        bytes_into_f64s(&f64s_to_bytes(&[1.0, 2.0]), &mut [0.0; 3]);
    }
}
