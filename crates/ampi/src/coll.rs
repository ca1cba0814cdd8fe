//! Collective operations, built over point-to-point messaging with the
//! textbook algorithms (dissemination barrier, binomial trees, ring
//! allgather, pairwise alltoall, linear scan chain).
//!
//! Every collective allocates a fresh sequence number on its
//! communicator; rounds within it are sub-tagged. Matching is by exact
//! (comm, seq-tag, source), so back-to-back collectives on one
//! communicator cannot cross-talk even when messages arrive early.

use crate::comm::CommId;
use crate::envelope::{Envelope, Kind};
use crate::op::Op;
use crate::util::{bytes_to_f64s, f64s_to_bytes};
use crate::Ampi;
use bytes::Bytes;

impl Ampi {
    fn coll_send(&self, comm: CommId, dest_local: usize, tag: u32, payload: Bytes) {
        let g = self.to_global(comm, dest_local);
        self.raw_send(g, Envelope::coll(comm.0, tag), payload);
    }

    fn coll_recv(&self, comm: CommId, src_local: usize, tag: u32) -> Bytes {
        let spec = self.match_spec(comm, Kind::Collective, Some(src_local), Some(tag));
        self.ctx.recv_match(spec).payload
    }

    /// `MPI_Barrier` — dissemination algorithm, ⌈log2 p⌉ rounds.
    pub fn barrier(&self, comm: CommId) {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Barrier" });
        let p = self.comm_size(comm);
        if p <= 1 {
            return;
        }
        let me = self.comm_rank(comm);
        let seq = self.next_coll_seq(comm);
        let mut k = 0u32;
        let mut dist = 1usize;
        while dist < p {
            let tag = Self::coll_tag(seq, k);
            let to = (me + dist) % p;
            let from = (me + p - dist) % p;
            self.coll_send(comm, to, tag, Bytes::new());
            let _ = self.coll_recv(comm, from, tag);
            dist <<= 1;
            k += 1;
        }
    }

    /// `MPI_Bcast` — binomial tree from `root`.
    pub fn bcast_bytes(&self, comm: CommId, root: usize, data: Option<Bytes>) -> Bytes {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Bcast" });
        let p = self.comm_size(comm);
        let me = self.comm_rank(comm);
        let seq = self.next_coll_seq(comm);
        if p == 1 {
            return data.expect("root must supply data");
        }
        let vrank = (me + p - root) % p;
        let mut buf = if me == root {
            data.expect("root must supply data")
        } else {
            // receive from parent: the highest set bit of vrank
            let mut mask = 1usize;
            while mask <= vrank {
                mask <<= 1;
            }
            mask >>= 1;
            let parent_v = vrank - mask;
            let parent = (parent_v + root) % p;
            self.coll_recv(comm, parent, Self::coll_tag(seq, 0))
        };
        // forward to children
        let mut mask = 1usize;
        while mask <= vrank {
            mask <<= 1;
        }
        while mask < p {
            let child_v = vrank + mask;
            if child_v < p {
                let child = (child_v + root) % p;
                self.coll_send(comm, child, Self::coll_tag(seq, 0), buf.clone());
            }
            mask <<= 1;
        }
        if me != root {
            // keep shape: non-roots return the received data
            buf = buf.clone();
        }
        buf
    }

    /// `MPI_Reduce` — binomial tree onto `root`; returns `Some(result)`
    /// on root, `None` elsewhere.
    pub fn reduce(&self, comm: CommId, root: usize, data: &[f64], op: Op) -> Option<Vec<f64>> {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Reduce" });
        let p = self.comm_size(comm);
        let me = self.comm_rank(comm);
        let seq = self.next_coll_seq(comm);
        let vrank = (me + p - root) % p;
        let mut acc = data.to_vec();
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                // send partial to partner and drop out
                let parent_v = vrank - mask;
                let parent = (parent_v + root) % p;
                self.coll_send(comm, parent, Self::coll_tag(seq, 0), f64s_to_bytes(&acc));
                return None;
            } else if vrank + mask < p {
                let child_v = vrank + mask;
                let child = (child_v + root) % p;
                let partial = bytes_to_f64s(&self.coll_recv(comm, child, Self::coll_tag(seq, 0)));
                self.apply_op(op, &partial, &mut acc);
            }
            mask <<= 1;
        }
        debug_assert_eq!(me, root);
        Some(acc)
    }

    /// `MPI_Allreduce` — reduce to rank 0 then broadcast.
    pub fn allreduce(&self, data: &[f64], op: Op) -> Vec<f64> {
        self.allreduce_comm(crate::COMM_WORLD, data, op)
    }

    pub fn allreduce_comm(&self, comm: CommId, data: &[f64], op: Op) -> Vec<f64> {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Allreduce" });
        let result = self.reduce(comm, 0, data, op);
        let bytes = self.bcast_bytes(comm, 0, result.map(|r| f64s_to_bytes(&r)));
        bytes_to_f64s(&bytes)
    }

    /// `MPI_Gather` (variable-size payloads allowed, like `Gatherv`).
    pub fn gather_bytes(&self, comm: CommId, root: usize, mine: Bytes) -> Option<Vec<Bytes>> {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Gather" });
        let p = self.comm_size(comm);
        let me = self.comm_rank(comm);
        let seq = self.next_coll_seq(comm);
        if me == root {
            let mut parts: Vec<Option<Bytes>> = vec![None; p];
            parts[me] = Some(mine);
            for (i, part) in parts.iter_mut().enumerate() {
                if i != me {
                    *part = Some(self.coll_recv(comm, i, Self::coll_tag(seq, 0)));
                }
            }
            Some(parts.into_iter().map(|b| b.unwrap()).collect())
        } else {
            self.coll_send(comm, root, Self::coll_tag(seq, 0), mine);
            None
        }
    }

    /// `MPI_Scatter(v)` — root supplies one part per rank.
    pub fn scatter_bytes(&self, comm: CommId, root: usize, parts: Option<Vec<Bytes>>) -> Bytes {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Scatter" });
        let p = self.comm_size(comm);
        let me = self.comm_rank(comm);
        let seq = self.next_coll_seq(comm);
        if me == root {
            let parts = parts.expect("root must supply parts");
            assert_eq!(parts.len(), p, "scatter needs one part per rank");
            for (i, part) in parts.iter().enumerate() {
                if i != me {
                    self.coll_send(comm, i, Self::coll_tag(seq, 0), part.clone());
                }
            }
            parts[me].clone()
        } else {
            self.coll_recv(comm, root, Self::coll_tag(seq, 0))
        }
    }

    /// `MPI_Allgather` — ring algorithm, p−1 steps.
    pub fn allgather_bytes(&self, comm: CommId, mine: Bytes) -> Vec<Bytes> {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Allgather" });
        let p = self.comm_size(comm);
        let me = self.comm_rank(comm);
        let seq = self.next_coll_seq(comm);
        let mut parts: Vec<Option<Bytes>> = vec![None; p];
        parts[me] = Some(mine);
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        for step in 0..p.saturating_sub(1) {
            // send the piece we received last step (or ours) to the right
            let send_idx = (me + p - step) % p;
            let tag = Self::coll_tag(seq, step as u32);
            self.coll_send(
                comm,
                right,
                tag,
                parts[send_idx].clone().expect("piece present"),
            );
            let recv_idx = (me + p - step - 1) % p;
            let data = self.coll_recv(comm, left, tag);
            parts[recv_idx] = Some(data);
        }
        parts.into_iter().map(|b| b.unwrap()).collect()
    }

    /// `MPI_Alltoall(v)` — pairwise exchange.
    pub fn alltoall_bytes(&self, comm: CommId, parts: Vec<Bytes>) -> Vec<Bytes> {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Alltoall" });
        let p = self.comm_size(comm);
        let me = self.comm_rank(comm);
        assert_eq!(parts.len(), p);
        let seq = self.next_coll_seq(comm);
        let mut out: Vec<Option<Bytes>> = vec![None; p];
        out[me] = Some(parts[me].clone());
        for step in 1..p {
            let partner = me ^ step;
            let tag = Self::coll_tag(seq, step as u32);
            if partner < p {
                self.coll_send(comm, partner, tag, parts[partner].clone());
                out[partner] = Some(self.coll_recv(comm, partner, tag));
            }
        }
        // XOR pairing only covers power-of-two sizes fully; fall back to
        // a pairwise pattern (symmetric tag per pair) for any leftovers.
        for i in 0..p {
            if out[i].is_none() {
                let pair = (me.min(i) * p + me.max(i)) as u32;
                let tag = Self::coll_tag(seq, p as u32 + pair);
                self.coll_send(comm, i, tag, parts[i].clone());
                out[i] = Some(self.coll_recv(comm, i, tag));
            }
        }
        out.into_iter().map(|b| b.unwrap()).collect()
    }

    /// `MPI_Exscan` — exclusive prefix: rank r gets the combination of
    /// ranks 0..r (rank 0 gets `identity`).
    pub fn exscan(&self, comm: CommId, data: &[f64], op: Op, identity: &[f64]) -> Vec<f64> {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Exscan" });
        let p = self.comm_size(comm);
        let me = self.comm_rank(comm);
        let seq = self.next_coll_seq(comm);
        assert_eq!(data.len(), identity.len());
        // receive the prefix of ranks 0..me from the left
        let prefix = if me == 0 {
            identity.to_vec()
        } else {
            bytes_to_f64s(&self.coll_recv(comm, me - 1, Self::coll_tag(seq, 0)))
        };
        // forward prefix ⊕ mine to the right
        if me + 1 < p {
            let mut next = prefix.clone();
            if me == 0 {
                next = data.to_vec();
            } else {
                self.apply_op(op, data, &mut next);
            }
            self.coll_send(comm, me + 1, Self::coll_tag(seq, 0), f64s_to_bytes(&next));
        }
        prefix
    }

    /// `MPI_Reduce_scatter_block`: elementwise-reduce a `p * n` array,
    /// then scatter block `r` (length `n`) to rank `r`.
    pub fn reduce_scatter_block(&self, comm: CommId, data: &[f64], op: Op) -> Vec<f64> {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall {
            name: "MPI_Reduce_scatter_block",
        });
        let p = self.comm_size(comm);
        assert_eq!(data.len() % p, 0, "data must be p equal blocks");
        let n = data.len() / p;
        let total = self.reduce(comm, 0, data, op);
        let parts = total.map(|t| {
            t.chunks(n)
                .map(crate::util::f64s_to_bytes)
                .collect::<Vec<_>>()
        });
        bytes_to_f64s(&self.scatter_bytes(comm, 0, parts))
    }

    /// `MPI_Scan` — inclusive prefix along the rank order (linear chain).
    pub fn scan(&self, comm: CommId, data: &[f64], op: Op) -> Vec<f64> {
        pvr_trace::emit(pvr_trace::EventKind::MpiCall { name: "MPI_Scan" });
        let p = self.comm_size(comm);
        let me = self.comm_rank(comm);
        let seq = self.next_coll_seq(comm);
        let mut acc = data.to_vec();
        if me > 0 {
            let prefix = bytes_to_f64s(&self.coll_recv(comm, me - 1, Self::coll_tag(seq, 0)));
            // acc = prefix ⊕ mine (order matters for non-commutative ops)
            let mine = acc.clone();
            acc = prefix;
            self.apply_op(op, &mine, &mut acc);
        }
        if me + 1 < p {
            self.coll_send(comm, me + 1, Self::coll_tag(seq, 0), f64s_to_bytes(&acc));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::run_spmd;
    use crate::{Op, COMM_WORLD};
    use bytes::Bytes;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn barrier_synchronizes() {
        let before = Arc::new(AtomicUsize::new(0));
        let b2 = before.clone();
        run_spmd(2, 2, move |mpi| {
            b2.fetch_add(1, Ordering::SeqCst);
            mpi.barrier(COMM_WORLD);
            // after the barrier, every rank must have incremented
            assert_eq!(b2.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn bcast_from_each_root() {
        run_spmd(2, 2, |mpi| {
            for root in 0..mpi.size() {
                let data = if mpi.rank() == root {
                    Some(Bytes::from(format!("from-{root}")))
                } else {
                    None
                };
                let out = mpi.bcast_bytes(COMM_WORLD, root, data);
                assert_eq!(&out[..], format!("from-{root}").as_bytes());
            }
        });
    }

    #[test]
    fn reduce_sum_on_root() {
        run_spmd(2, 2, |mpi| {
            let me = mpi.rank() as f64;
            let result = mpi.reduce(COMM_WORLD, 0, &[me, me * 10.0], Op::Sum);
            if mpi.rank() == 0 {
                let r = result.unwrap();
                assert_eq!(r, vec![6.0, 60.0]); // 0+1+2+3
            } else {
                assert!(result.is_none());
            }
        });
    }

    #[test]
    fn allreduce_min_max_prod() {
        run_spmd(2, 2, |mpi| {
            let me = mpi.rank() as f64 + 1.0; // 1..=4
            assert_eq!(mpi.allreduce(&[me], Op::Min)[0], 1.0);
            assert_eq!(mpi.allreduce(&[me], Op::Max)[0], 4.0);
            assert_eq!(mpi.allreduce(&[me], Op::Prod)[0], 24.0);
        });
    }

    #[test]
    fn user_op_via_offset_under_pieglobals() {
        // user_max_abs is registered in the test binary; each rank's op
        // handle is an offset anchored to its own code copy.
        run_spmd(2, 2, |mpi| {
            let op = mpi.op_create("user_max_abs");
            let me = mpi.rank() as f64;
            let v = [if me == 2.0 { -9.0 } else { me }];
            let r = mpi.allreduce(&v, Op::User(op));
            assert_eq!(r[0], 9.0, "max |x| over {{0,1,-9,3}}");
        });
    }

    #[test]
    fn gather_and_scatter_roundtrip() {
        run_spmd(2, 2, |mpi| {
            let me = mpi.rank();
            let gathered = mpi.gather_bytes(COMM_WORLD, 1, Bytes::from(vec![me as u8; me + 1]));
            let parts = if me == 1 {
                let g = gathered.unwrap();
                assert_eq!(g.len(), 4);
                for (i, p) in g.iter().enumerate() {
                    assert_eq!(p.len(), i + 1);
                    assert!(p.iter().all(|&b| b == i as u8));
                }
                Some(g)
            } else {
                assert!(gathered.is_none());
                None
            };
            let mine = mpi.scatter_bytes(COMM_WORLD, 1, parts);
            assert_eq!(mine.len(), me + 1);
            assert!(mine.iter().all(|&b| b == me as u8));
        });
    }

    #[test]
    fn allgather_ring() {
        run_spmd(3, 1, |mpi| {
            let me = mpi.rank();
            let all = mpi.allgather_bytes(COMM_WORLD, Bytes::from(vec![me as u8 * 3]));
            assert_eq!(all.len(), 3);
            for (i, p) in all.iter().enumerate() {
                assert_eq!(&p[..], &[i as u8 * 3]);
            }
        });
    }

    #[test]
    fn alltoall_transpose() {
        for size in [(2usize, 2usize), (3, 1)] {
            run_spmd(size.0, size.1, |mpi| {
                let p = mpi.size();
                let me = mpi.rank();
                // part j = [me, j]
                let parts: Vec<Bytes> = (0..p)
                    .map(|j| Bytes::from(vec![me as u8, j as u8]))
                    .collect();
                let got = mpi.alltoall_bytes(COMM_WORLD, parts);
                for (j, b) in got.iter().enumerate() {
                    assert_eq!(&b[..], &[j as u8, me as u8], "cell ({me},{j})");
                }
            });
        }
    }

    #[test]
    fn scan_prefix_sums() {
        run_spmd(2, 2, |mpi| {
            let me = mpi.rank() as f64 + 1.0;
            let r = mpi.scan(COMM_WORLD, &[me], Op::Sum);
            let expect: f64 = (1..=mpi.rank() + 1).map(|x| x as f64).sum();
            assert_eq!(r[0], expect);
        });
    }

    #[test]
    fn comm_split_even_odd() {
        run_spmd(2, 2, |mpi| {
            let me = mpi.rank();
            let sub = mpi.comm_split(COMM_WORLD, (me % 2) as i64, me as i64);
            assert_eq!(mpi.comm_size(sub), 2);
            assert_eq!(mpi.comm_rank(sub), me / 2);
            // collectives work on the subcommunicator
            let total = mpi.allreduce_comm(sub, &[me as f64], Op::Sum)[0];
            let expect = if me % 2 == 0 { 2.0 } else { 4.0 }; // 0+2 / 1+3
            assert_eq!(total, expect);
        });
    }

    #[test]
    fn comm_dup_independent_sequence() {
        run_spmd(2, 1, |mpi| {
            let dup = mpi.comm_dup(COMM_WORLD);
            // interleave collectives on both comms
            let a = mpi.allreduce_comm(COMM_WORLD, &[1.0], Op::Sum)[0];
            let b = mpi.allreduce_comm(dup, &[2.0], Op::Sum)[0];
            assert_eq!(a, 2.0);
            assert_eq!(b, 4.0);
        });
    }

    #[test]
    fn collectives_on_non_power_of_two() {
        run_spmd(3, 1, |mpi| {
            let me = mpi.rank() as f64;
            assert_eq!(mpi.allreduce(&[me], Op::Sum)[0], 3.0);
            mpi.barrier(COMM_WORLD);
            let r = mpi.scan(COMM_WORLD, &[1.0], Op::Sum);
            assert_eq!(r[0], mpi.rank() as f64 + 1.0);
        });
    }
}
