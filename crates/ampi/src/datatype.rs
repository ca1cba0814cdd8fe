//! Derived datatypes — the subset of MPI's type machinery that halo
//! exchanges actually use.
//!
//! AMPI transports opaque bytes; derived datatypes describe how to
//! gather ("pack") non-contiguous application memory into a wire buffer
//! and scatter it back ("unpack"). `Vector` is the workhorse: `count`
//! blocks of `blocklen` elements separated by `stride` elements — e.g. a
//! *column* of a row-major 2-D grid is `Vector { count: rows, blocklen:
//! 1, stride: row_len }`.

use bytes::Bytes;

/// A datatype over `f64` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Datatype {
    /// `count` contiguous elements.
    Contiguous { count: usize },
    /// `count` blocks of `blocklen` elements, block starts `stride`
    /// elements apart (`MPI_Type_vector`).
    Vector {
        count: usize,
        blocklen: usize,
        stride: usize,
    },
}

impl Datatype {
    /// `MPI_Type_contiguous`. Kept for tests: MPI surface.
    pub fn contiguous(count: usize) -> Datatype {
        Datatype::Contiguous { count }
    }

    pub fn vector(count: usize, blocklen: usize, stride: usize) -> Datatype {
        assert!(blocklen <= stride, "blocks may not overlap");
        Datatype::Vector {
            count,
            blocklen,
            stride,
        }
    }

    /// Elements transferred by one instance of the type.
    pub fn element_count(&self) -> usize {
        match *self {
            Datatype::Contiguous { count } => count,
            Datatype::Vector {
                count, blocklen, ..
            } => count * blocklen,
        }
    }

    /// Extent in elements of the region the type walks over.
    pub fn extent(&self) -> usize {
        match *self {
            Datatype::Contiguous { count } => count,
            Datatype::Vector {
                count,
                blocklen,
                stride,
            } => {
                if count == 0 {
                    0
                } else {
                    (count - 1) * stride + blocklen
                }
            }
        }
    }

    /// Pack `src` (which must cover the type's extent) into a wire
    /// buffer.
    pub fn pack(&self, src: &[f64]) -> Bytes {
        assert!(
            src.len() >= self.extent(),
            "source slice shorter than the datatype's extent"
        );
        let mut out = Vec::with_capacity(self.element_count() * 8);
        match *self {
            Datatype::Contiguous { count } => {
                for v in &src[..count] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Datatype::Vector {
                count,
                blocklen,
                stride,
            } => {
                for b in 0..count {
                    let start = b * stride;
                    for v in &src[start..start + blocklen] {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        Bytes::from(out)
    }

    /// Unpack a wire buffer produced by an *equal-element-count* type
    /// into `dst` at this type's positions.
    pub fn unpack(&self, wire: &[u8], dst: &mut [f64]) {
        assert_eq!(
            wire.len(),
            self.element_count() * 8,
            "wire buffer does not match the datatype's element count"
        );
        assert!(
            dst.len() >= self.extent(),
            "destination slice shorter than the datatype's extent"
        );
        let mut elems = wire
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()));
        match *self {
            Datatype::Contiguous { count } => {
                for slot in dst[..count].iter_mut() {
                    *slot = elems.next().unwrap();
                }
            }
            Datatype::Vector {
                count,
                blocklen,
                stride,
            } => {
                for b in 0..count {
                    let start = b * stride;
                    for slot in dst[start..start + blocklen].iter_mut() {
                        *slot = elems.next().unwrap();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_roundtrip() {
        let ty = Datatype::contiguous(4);
        let src = [1.0, 2.0, 3.0, 4.0, 99.0];
        let wire = ty.pack(&src);
        assert_eq!(wire.len(), 32);
        let mut dst = [0.0; 5];
        ty.unpack(&wire, &mut dst);
        assert_eq!(&dst[..4], &src[..4]);
        assert_eq!(dst[4], 0.0, "beyond the type untouched");
    }

    #[test]
    fn vector_extracts_a_matrix_column() {
        // 3x4 row-major matrix; column 2 = elements 2, 6, 10
        let m: Vec<f64> = (0..12).map(|x| x as f64).collect();
        let col = Datatype::vector(3, 1, 4);
        assert_eq!(col.element_count(), 3);
        assert_eq!(col.extent(), 9);
        let wire = col.pack(&m[2..]); // start at column offset
        let got: Vec<f64> = wire
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(got, vec![2.0, 6.0, 10.0]);
    }

    #[test]
    fn vector_scatter_into_column() {
        let mut m = [0.0f64; 12];
        let col = Datatype::vector(3, 1, 4);
        let wire = Datatype::contiguous(3).pack(&[7.0, 8.0, 9.0]);
        col.unpack(&wire, &mut m[1..]);
        assert_eq!(m[1], 7.0);
        assert_eq!(m[5], 8.0);
        assert_eq!(m[9], 9.0);
        assert_eq!(m.iter().filter(|&&v| v != 0.0).count(), 3);
    }

    #[test]
    fn blocked_vector() {
        // 2 blocks of 3, stride 5: elements 0,1,2 and 5,6,7
        let src: Vec<f64> = (0..10).map(|x| x as f64).collect();
        let ty = Datatype::vector(2, 3, 5);
        assert_eq!(ty.element_count(), 6);
        assert_eq!(ty.extent(), 8);
        let wire = ty.pack(&src);
        let mut dst = vec![0.0; 10];
        ty.unpack(&wire, &mut dst);
        assert_eq!(dst, vec![0.0, 1.0, 2.0, 0.0, 0.0, 5.0, 6.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_blocks_rejected() {
        let _ = Datatype::vector(2, 5, 3);
    }

    #[test]
    #[should_panic(expected = "shorter than")]
    fn short_source_rejected() {
        let ty = Datatype::vector(3, 1, 4);
        let _ = ty.pack(&[0.0; 5]);
    }

    #[test]
    fn column_halo_exchange_end_to_end() {
        use crate::testutil::run_spmd;
        use crate::COMM_WORLD;
        // two ranks each own a 4x4 block of a row-major grid, split by
        // columns; they exchange their boundary column via Vector types
        run_spmd(2, 1, |mpi| {
            let me = mpi.rank();
            let rows = 4usize;
            let width = 5usize; // 4 owned + 1 ghost column
            let mut grid = vec![0.0f64; rows * width];
            // fill owned region with rank-distinct values
            for r in 0..rows {
                for c in 0..4 {
                    let cc = if me == 0 { c } else { c + 1 };
                    grid[r * width + cc] = (me * 100 + r * 10 + c) as f64;
                }
            }
            let col = Datatype::vector(rows, 1, width);
            let other = 1 - me;
            if me == 0 {
                // send my last owned column (index 3), receive ghost (4)
                let wire = col.pack(&grid[3..]);
                mpi.send_bytes(COMM_WORLD, other, 0, wire);
                let (b, _) = mpi.recv_bytes(COMM_WORLD, Some(other), Some(0));
                let mut ghost = grid.split_off(4);
                col.unpack(&b, &mut ghost);
                grid.extend(ghost);
                // ghost column now holds rank 1's first owned column
                for r in 0..rows {
                    assert_eq!(grid[r * width + 4], (100 + r * 10) as f64);
                }
            } else {
                let wire = col.pack(&grid[1..]);
                mpi.send_bytes(COMM_WORLD, other, 0, wire);
                let (b, _) = mpi.recv_bytes(COMM_WORLD, Some(other), Some(0));
                col.unpack(&b, &mut grid[0..]);
                for r in 0..rows {
                    assert_eq!(grid[r * width], (r * 10 + 3) as f64);
                }
            }
        });
    }
}
