//! Work-item tokens and value-signature mappings.
//!
//! Tokens flow between pipelines carrying the *live variables* of one
//! work-item (§IV-D: "the role of the glue logic is to … pass live
//! variables of a work-item produced by one pipeline to the input of
//! another pipeline"). Every channel has a *signature* — the ordered list
//! of SSA values its tokens carry — and glue applies a precomputed
//! [`Mapping`] when moving a token onto a channel with a different
//! signature (this is where phi nodes are materialized).

use crate::machine::SimError;
use soff_ir::ir::{BlockId, InstKind, Kernel, ValueId};
use soff_ir::mem as irmem;

/// A work-item token: identity plus the live values of the current
/// signature.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Work-item serial (index into the launch's work-item table).
    pub wi: u32,
    /// Work-group serial.
    pub wg: u32,
    /// Live values, ordered per the channel's signature.
    pub vals: Box<[u64]>,
}

/// Where one output-signature slot comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Slot {
    /// Copy from index `.0` of the source signature.
    Idx(usize),
    /// A launch-constant (uniform) value, resolved at launch time.
    Uniform(u64),
}

/// A signature-to-signature mapping.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Mapping {
    /// One source per destination slot. Empty mapping = identity move.
    pub slots: Vec<Slot>,
    /// Identity mappings skip the copy entirely.
    pub identity: bool,
}

impl Mapping {
    /// The identity mapping (source and destination signatures agree).
    pub fn identity() -> Mapping {
        Mapping { slots: Vec::new(), identity: true }
    }

    /// Applies the mapping to a token; an identity mapping moves it.
    pub fn apply(&self, t: Token) -> Token {
        if self.identity {
            return t;
        }
        let vals = self
            .slots
            .iter()
            .map(|s| match s {
                Slot::Idx(i) => t.vals[*i],
                Slot::Uniform(v) => *v,
            })
            .collect();
        Token { wi: t.wi, wg: t.wg, vals }
    }
}

/// Resolves the launch-constant value of `v` if it is a *uniform*
/// instruction (`Const`, `Param`, `LocalBase`, `PrivBase`), and `None`
/// otherwise.
///
/// `params` are the bound argument values in [`Kernel::params`] order.
pub fn uniform_value(k: &Kernel, v: ValueId, params: &[u64]) -> Option<u64> {
    Some(match &k.instr(v).kind {
        InstKind::Const(bits) => *bits,
        InstKind::Param(i) => params[*i],
        InstKind::LocalBase(var) => irmem::local_addr(*var, 0),
        InstKind::PrivBase(off) => *off,
        _ => return None,
    })
}

/// Builds the mapping for CFG edge `p → s`: destination signature `sig_to`
/// (the live-in of `s`), source signature `sig_from` (the live-out of
/// `p`). Phis of `s` take their `p`-incoming value.
///
/// # Errors
///
/// [`SimError::InvariantViolation`] at cycle 0, naming the edge, if a
/// phi of `s` has no incoming value from `p`, or a value `s` needs is
/// neither uniform nor in the live-out of `p`.
pub fn edge_mapping(
    k: &Kernel,
    p: BlockId,
    sig_from: &[ValueId],
    s: BlockId,
    sig_to: &[ValueId],
    params: &[u64],
) -> Result<Mapping, SimError> {
    let err = |what: String| SimError::InvariantViolation {
        cycle: 0,
        what: format!("glue for CFG edge {p} -> {s}: {what}"),
    };
    let slots = sig_to
        .iter()
        .map(|&v| {
            // Resolve phis of the destination block along this edge.
            let src = match &k.instr(v).kind {
                InstKind::Phi { incoming } if k.block(s).instrs.contains(&v) => incoming
                    .iter()
                    .find(|(pred, _)| *pred == p)
                    .map(|(_, pv)| *pv)
                    .ok_or_else(|| err(format!("phi {v} has no incoming value from {p}")))?,
                _ => v,
            };
            match uniform_value(k, src, params) {
                Some(u) => Ok(Slot::Uniform(u)),
                None => sig_from
                    .iter()
                    .position(|&f| f == src)
                    .map(Slot::Idx)
                    .ok_or_else(|| err(format!("{src} is missing from the live-out of {p}"))),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    // Same signature on both sides: the hop moves the token unchanged.
    if slots.len() == sig_from.len() && slots.iter().enumerate().all(|(i, s)| *s == Slot::Idx(i)) {
        return Ok(Mapping::identity());
    }
    Ok(Mapping { slots, identity: false })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_mapping_preserves_token() {
        let t = Token { wi: 1, wg: 0, vals: vec![10, 20].into_boxed_slice() };
        let m = Mapping::identity();
        assert_eq!(m.apply(t.clone()), t);
    }

    #[test]
    fn mapping_reorders_and_fills_uniforms() {
        let t = Token { wi: 1, wg: 0, vals: vec![10, 20].into_boxed_slice() };
        let m = Mapping {
            slots: vec![Slot::Idx(1), Slot::Uniform(99), Slot::Idx(0)],
            identity: false,
        };
        let out = m.apply(t);
        assert_eq!(&*out.vals, &[20, 99, 10]);
        assert_eq!(out.wi, 1);
    }
}
