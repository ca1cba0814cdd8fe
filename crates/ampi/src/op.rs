//! Reduction operators, including user-defined `MPI_Op`s encoded as
//! code-segment *offsets*.
//!
//! §3.3: "AMPI implemented user-defined custom reduction operators by
//! simply calling the same user function pointer on whichever core it may
//! need to. With PIEglobals, we had to modify AMPI to subtract the base
//! address from the user function address during MPI_Op creation, to
//! store that offset in the op, and to then apply that offset to some
//! rank's base address whenever applying the reduction operator."
//!
//! [`Ampi::op_create`] performs exactly that subtraction against *this
//! rank's* image base; [`Ampi::apply_op`] re-anchors the offset to the
//! applying rank's base. A raw-address op applied on a rank with a
//! different code copy would jump into the weeds — the unit tests
//! demonstrate the offset encoding survives where addresses cannot.

use crate::Ampi;
use pvr_progimage::spec::Callable;

/// Reduction operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Sum,
    Prod,
    Min,
    Max,
    /// User-defined operator created by [`Ampi::op_create`].
    User(OpHandle),
}

/// Handle to a user reduction function: an *offset from the image base*,
/// not an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpHandle {
    pub(crate) offset: usize,
}

impl OpHandle {
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl Ampi {
    /// `MPI_Op_create`: look up the user function *in this rank's own
    /// image*, take its address, subtract the image base, store the
    /// offset. Kept for tests: MPI surface.
    pub fn op_create(&self, fn_name: &str) -> OpHandle {
        let layout_offset = self
            .ctx
            .binary()
            .fn_offset_of(fn_name)
            .unwrap_or_else(|| panic!("MPI_Op_create: no such function `{fn_name}`"));
        // address in THIS rank's (possibly private) code copy...
        let addr = self.ctx.instance().offset_to_fn_addr(layout_offset);
        // ...then base-subtracted, per the paper.
        let offset = self.ctx.instance().fn_addr_to_offset(addr);
        debug_assert_eq!(offset, layout_offset);
        OpHandle { offset }
    }

    /// Resolve and run `op` to combine `input` into `acc` (both f64
    /// arrays of equal length). For user ops, the offset is applied to
    /// *this* rank's image base.
    pub fn apply_op(&self, op: Op, input: &[f64], acc: &mut [f64]) {
        assert_eq!(input.len(), acc.len(), "reduction length mismatch");
        match op {
            Op::Sum => {
                for (a, x) in acc.iter_mut().zip(input) {
                    *a += x;
                }
            }
            Op::Prod => {
                for (a, x) in acc.iter_mut().zip(input) {
                    *a *= x;
                }
            }
            Op::Min => {
                for (a, x) in acc.iter_mut().zip(input) {
                    *a = a.min(*x);
                }
            }
            Op::Max => {
                for (a, x) in acc.iter_mut().zip(input) {
                    *a = a.max(*x);
                }
            }
            Op::User(h) => {
                let callable = self.resolve_user_op(h);
                let in_bytes: Vec<u8> = input.iter().flat_map(|v| v.to_le_bytes()).collect();
                let mut acc_bytes: Vec<u8> = acc.iter().flat_map(|v| v.to_le_bytes()).collect();
                callable(&in_bytes, &mut acc_bytes);
                for (i, a) in acc.iter_mut().enumerate() {
                    *a = f64::from_le_bytes(acc_bytes[i * 8..i * 8 + 8].try_into().unwrap());
                }
            }
        }
    }

    /// Anchor the op's offset to this rank's image base and resolve the
    /// resulting address back into callable behavior.
    pub(crate) fn resolve_user_op(&self, h: OpHandle) -> Callable {
        // offset → address in this rank's code copy (may differ per rank
        // under PIEglobals) → offset again → behavior. The double
        // conversion is deliberate: it is the paper's mechanism, and it
        // would catch a raw-address op leaking across ranks.
        let addr = self.ctx.instance().offset_to_fn_addr(h.offset);
        let offset = self.ctx.instance().fn_addr_to_offset(addr);
        self.ctx
            .binary()
            .callable_at(offset)
            .unwrap_or_else(|| panic!("no function with registered behavior at offset {offset}"))
    }
}
