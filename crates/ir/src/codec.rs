//! Binary serialization of lowered [`Module`]s.
//!
//! The serve layer's on-disk compile cache stores lowered IR so compiles
//! survive process restarts and are shared across processes. The format is
//! a plain little-endian byte stream: length-prefixed strings, `u8` tags
//! for enum variants, and a recursive encoding for control-tree regions.
//! It is an *internal* cache format, not an interchange format — any
//! structural damage must surface as a typed [`CodecError`] (never a
//! panic or an over-allocation), because the disk store treats decode
//! failures as cache misses and self-heals by recompiling.

use crate::ctree::Region;
use crate::ir::{
    Block, BlockId, Instr, InstKind, Kernel, KernelParam, LocalVar, Module, ParamKind,
    Terminator, ValueId,
};
use soff_frontend::ast::{BinOp, UnOp};
use soff_frontend::builtins::{AtomicOp, MathFunc, WorkItemQuery};
use soff_frontend::types::{AddressSpace, Scalar};
use std::fmt;

/// Format magic; bump the digit on any layout change so stale cache
/// objects decode as [`CodecError::BadMagic`] instead of garbage.
pub const MAGIC: &[u8; 8] = b"SOFFIR1\n";

/// Maximum control-tree nesting the decoder accepts. Real kernels nest a
/// handful of levels; the bound only exists so corrupt input cannot drive
/// unbounded recursion.
const MAX_REGION_DEPTH: usize = 512;

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream ended before a field was complete.
    Truncated,
    /// An enum tag byte was out of range.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length prefix implies more data than the stream holds.
    BadLength {
        /// Which collection was being decoded.
        what: &'static str,
        /// The claimed element count.
        len: u64,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// Control-tree nesting exceeded `MAX_REGION_DEPTH` (512).
    TooDeep,
    /// Decoding finished with bytes left over.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => f.write_str("bad magic"),
            CodecError::Truncated => f.write_str("truncated stream"),
            CodecError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            CodecError::BadLength { what, len } => {
                write!(f, "implausible {what} length {len}")
            }
            CodecError::BadUtf8 => f.write_str("invalid UTF-8 in string"),
            CodecError::TooDeep => f.write_str("control tree nested too deeply"),
            CodecError::TrailingBytes => f.write_str("trailing bytes after module"),
        }
    }
}

impl std::error::Error for CodecError {}

// Tag <-> variant tables for the fieldless leaf enums. Tags are the
// position in the listed order, which must therefore never be reordered —
// append new variants at the end and bump MAGIC if semantics change.
macro_rules! leaf_codec {
    ($ty:ty, $what:expr, $to:ident, $from:ident, [$($v:ident),* $(,)?]) => {
        fn $to(x: $ty) -> u8 {
            const VARIANTS: &[$ty] = &[$(<$ty>::$v),*];
            VARIANTS
                .iter()
                .position(|p| *p == x)
                .expect("every variant is listed") as u8
        }
        fn $from(tag: u8) -> Result<$ty, CodecError> {
            const VARIANTS: &[$ty] = &[$(<$ty>::$v),*];
            VARIANTS
                .get(tag as usize)
                .copied()
                .ok_or(CodecError::BadTag { what: $what, tag })
        }
    };
}

leaf_codec!(Scalar, "scalar", scalar_tag, scalar_from, [
    Bool, I8, U8, I16, U16, I32, U32, I64, U64, F32, F64,
]);
leaf_codec!(AddressSpace, "address space", space_tag, space_from, [
    Global, Local, Private, Constant,
]);
leaf_codec!(BinOp, "binop", binop_tag, binop_from, [
    Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Lt, Gt, Le, Ge, Eq, Ne, LogAnd, LogOr,
]);
leaf_codec!(UnOp, "unop", unop_tag, unop_from, [Neg, Not, LogNot, Plus]);
leaf_codec!(WorkItemQuery, "work-item query", query_tag, query_from, [
    GlobalId, LocalId, GroupId, GlobalSize, LocalSize, NumGroups, WorkDim, GlobalOffset,
]);
leaf_codec!(MathFunc, "math func", math_tag, math_from, [
    Sqrt, Rsqrt, Fabs, Exp, Exp2, Log, Log2, Log10, Sin, Cos, Tan, Asin, Acos, Atan, Sinh,
    Cosh, Tanh, Floor, Ceil, Round, Trunc, Pow, Fmin, Fmax, Fmod, Hypot, Atan2, Fma, Mad,
]);
leaf_codec!(AtomicOp, "atomic op", atomic_tag, atomic_from, [
    Add, Sub, Inc, Dec, Min, Max, And, Or, Xor, Xchg, CmpXchg,
]);

// ---------------------------------------------------------------- encode

struct Enc {
    out: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.out.extend_from_slice(s.as_bytes());
    }
    fn value(&mut self, v: ValueId) {
        self.u32(v.0);
    }
    fn block_id(&mut self, b: BlockId) {
        self.u32(b.0);
    }
    fn opt_scalar(&mut self, s: Option<Scalar>) {
        match s {
            None => self.u8(0xff),
            Some(s) => self.u8(scalar_tag(s)),
        }
    }

    fn instr(&mut self, i: &Instr) {
        match &i.kind {
            InstKind::Const(bits) => {
                self.u8(0);
                self.u64(*bits);
            }
            InstKind::Param(idx) => {
                self.u8(1);
                self.u64(*idx as u64);
            }
            InstKind::WorkItem(q, dim) => {
                self.u8(2);
                self.u8(query_tag(*q));
                self.u8(*dim);
            }
            InstKind::LocalBase(var) => {
                self.u8(3);
                self.u64(*var as u64);
            }
            InstKind::PrivBase(off) => {
                self.u8(4);
                self.u64(*off);
            }
            InstKind::Bin { op, ty, a, b } => {
                self.u8(5);
                self.u8(binop_tag(*op));
                self.u8(scalar_tag(*ty));
                self.value(*a);
                self.value(*b);
            }
            InstKind::Un { op, ty, a } => {
                self.u8(6);
                self.u8(unop_tag(*op));
                self.u8(scalar_tag(*ty));
                self.value(*a);
            }
            InstKind::Cast { from, to, a } => {
                self.u8(7);
                self.u8(scalar_tag(*from));
                self.u8(scalar_tag(*to));
                self.value(*a);
            }
            InstKind::Select { cond, a, b } => {
                self.u8(8);
                self.value(*cond);
                self.value(*a);
                self.value(*b);
            }
            InstKind::Math { func, ty, args } => {
                self.u8(9);
                self.u8(math_tag(*func));
                self.u8(scalar_tag(*ty));
                self.u32(args.len() as u32);
                for a in args {
                    self.value(*a);
                }
            }
            InstKind::Load { space, addr, ty } => {
                self.u8(10);
                self.u8(space_tag(*space));
                self.value(*addr);
                self.u8(scalar_tag(*ty));
            }
            InstKind::Store { space, addr, value, ty } => {
                self.u8(11);
                self.u8(space_tag(*space));
                self.value(*addr);
                self.value(*value);
                self.u8(scalar_tag(*ty));
            }
            InstKind::Atomic { op, space, addr, operands, ty } => {
                self.u8(12);
                self.u8(atomic_tag(*op));
                self.u8(space_tag(*space));
                self.value(*addr);
                self.u32(operands.len() as u32);
                for o in operands {
                    self.value(*o);
                }
                self.u8(scalar_tag(*ty));
            }
            InstKind::Phi { incoming } => {
                self.u8(13);
                self.u32(incoming.len() as u32);
                for (b, v) in incoming {
                    self.block_id(*b);
                    self.value(*v);
                }
            }
        }
        self.opt_scalar(i.ty);
    }

    fn term(&mut self, t: &Terminator) {
        match t {
            Terminator::Br(b) => {
                self.u8(0);
                self.block_id(*b);
            }
            Terminator::CondBr { cond, then, els } => {
                self.u8(1);
                self.value(*cond);
                self.block_id(*then);
                self.block_id(*els);
            }
            Terminator::Ret => self.u8(2),
        }
    }

    fn region(&mut self, r: &Region) {
        match r {
            Region::Block(b) => {
                self.u8(0);
                self.block_id(*b);
            }
            Region::Seq(children) => {
                self.u8(1);
                self.u32(children.len() as u32);
                for c in children {
                    self.region(c);
                }
            }
            Region::Barrier { flags } => {
                self.u8(2);
                self.u32(*flags);
            }
            Region::IfThen { cond, then } => {
                self.u8(3);
                self.block_id(*cond);
                self.region(then);
            }
            Region::IfThenElse { cond, then, els } => {
                self.u8(4);
                self.block_id(*cond);
                self.region(then);
                self.region(els);
            }
            Region::WhileLoop { cond, body } => {
                self.u8(5);
                self.block_id(*cond);
                self.region(body);
            }
            Region::SelfLoop { body } => {
                self.u8(6);
                self.region(body);
            }
        }
    }

    fn kernel(&mut self, k: &Kernel) {
        self.str(&k.name);
        self.u32(k.params.len() as u32);
        for p in &k.params {
            self.str(&p.name);
            match &p.kind {
                ParamKind::Scalar(s) => {
                    self.u8(0);
                    self.u8(scalar_tag(*s));
                }
                ParamKind::Buffer { space, elem_size } => {
                    self.u8(1);
                    self.u8(space_tag(*space));
                    self.u32(*elem_size);
                }
                ParamKind::LocalPointer { elem_size, var } => {
                    self.u8(2);
                    self.u32(*elem_size);
                    self.u64(*var as u64);
                }
            }
        }
        self.u32(k.local_vars.len() as u32);
        for v in &k.local_vars {
            self.str(&v.name);
            self.u64(v.size);
            self.u32(v.elem_size);
        }
        self.u32(k.values.len() as u32);
        for i in &k.values {
            self.instr(i);
        }
        self.u32(k.blocks.len() as u32);
        for b in &k.blocks {
            self.u32(b.instrs.len() as u32);
            for v in &b.instrs {
                self.value(*v);
            }
            self.term(&b.term);
        }
        self.region(&k.ctree);
        self.u32(k.barrier_after.len() as u32);
        for (b, flags) in &k.barrier_after {
            self.block_id(*b);
            self.u32(*flags);
        }
        self.u64(k.private_bytes);
        let flags = (k.uses_barrier as u8)
            | ((k.uses_atomics as u8) << 1)
            | ((k.uses_local as u8) << 2);
        self.u8(flags);
    }
}

/// Serializes a module to the cache byte format.
pub fn encode_module(m: &Module) -> Vec<u8> {
    let mut e = Enc { out: Vec::with_capacity(4096) };
    e.out.extend_from_slice(MAGIC);
    e.u32(m.kernels.len() as u32);
    for k in &m.kernels {
        e.kernel(k);
    }
    e.out
}

// ---------------------------------------------------------------- decode

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// usize decoded from a u64 field; rejects values a corrupt stream
    /// could use to overflow 32-bit `usize` targets.
    fn index(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::BadLength { what: "index", len: v })
    }

    /// Validates a length prefix against the bytes actually left in the
    /// stream: every element of the collection needs at least
    /// `min_elem_bytes`, so any larger claim is corrupt. This is what
    /// keeps `Vec::with_capacity` allocations bounded by input size.
    fn len(&mut self, what: &'static str, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(CodecError::BadLength { what, len: n as u64 });
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, CodecError> {
        let n = self.len("string", 1)?;
        let b = self.bytes(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    fn value(&mut self) -> Result<ValueId, CodecError> {
        Ok(ValueId(self.u32()?))
    }

    fn block_id(&mut self) -> Result<BlockId, CodecError> {
        Ok(BlockId(self.u32()?))
    }

    fn scalar(&mut self) -> Result<Scalar, CodecError> {
        scalar_from(self.u8()?)
    }

    fn opt_scalar(&mut self) -> Result<Option<Scalar>, CodecError> {
        let t = self.u8()?;
        if t == 0xff { Ok(None) } else { scalar_from(t).map(Some) }
    }

    fn instr(&mut self) -> Result<Instr, CodecError> {
        let tag = self.u8()?;
        let kind = match tag {
            0 => InstKind::Const(self.u64()?),
            1 => InstKind::Param(self.index()?),
            2 => InstKind::WorkItem(query_from(self.u8()?)?, self.u8()?),
            3 => InstKind::LocalBase(self.index()?),
            4 => InstKind::PrivBase(self.u64()?),
            5 => InstKind::Bin {
                op: binop_from(self.u8()?)?,
                ty: self.scalar()?,
                a: self.value()?,
                b: self.value()?,
            },
            6 => InstKind::Un {
                op: unop_from(self.u8()?)?,
                ty: self.scalar()?,
                a: self.value()?,
            },
            7 => InstKind::Cast {
                from: self.scalar()?,
                to: self.scalar()?,
                a: self.value()?,
            },
            8 => InstKind::Select {
                cond: self.value()?,
                a: self.value()?,
                b: self.value()?,
            },
            9 => {
                let func = math_from(self.u8()?)?;
                let ty = self.scalar()?;
                let n = self.len("math args", 4)?;
                let mut args = Vec::with_capacity(n);
                for _ in 0..n {
                    args.push(self.value()?);
                }
                InstKind::Math { func, ty, args }
            }
            10 => InstKind::Load {
                space: space_from(self.u8()?)?,
                addr: self.value()?,
                ty: self.scalar()?,
            },
            11 => InstKind::Store {
                space: space_from(self.u8()?)?,
                addr: self.value()?,
                value: self.value()?,
                ty: self.scalar()?,
            },
            12 => {
                let op = atomic_from(self.u8()?)?;
                let space = space_from(self.u8()?)?;
                let addr = self.value()?;
                let n = self.len("atomic operands", 4)?;
                let mut operands = Vec::with_capacity(n);
                for _ in 0..n {
                    operands.push(self.value()?);
                }
                InstKind::Atomic { op, space, addr, operands, ty: self.scalar()? }
            }
            13 => {
                let n = self.len("phi incoming", 8)?;
                let mut incoming = Vec::with_capacity(n);
                for _ in 0..n {
                    incoming.push((self.block_id()?, self.value()?));
                }
                InstKind::Phi { incoming }
            }
            tag => return Err(CodecError::BadTag { what: "instr", tag }),
        };
        Ok(Instr { kind, ty: self.opt_scalar()? })
    }

    fn term(&mut self) -> Result<Terminator, CodecError> {
        match self.u8()? {
            0 => Ok(Terminator::Br(self.block_id()?)),
            1 => Ok(Terminator::CondBr {
                cond: self.value()?,
                then: self.block_id()?,
                els: self.block_id()?,
            }),
            2 => Ok(Terminator::Ret),
            tag => Err(CodecError::BadTag { what: "terminator", tag }),
        }
    }

    fn region(&mut self, depth: usize) -> Result<Region, CodecError> {
        if depth > MAX_REGION_DEPTH {
            return Err(CodecError::TooDeep);
        }
        match self.u8()? {
            0 => Ok(Region::Block(self.block_id()?)),
            1 => {
                let n = self.len("region seq", 1)?;
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    children.push(self.region(depth + 1)?);
                }
                Ok(Region::Seq(children))
            }
            2 => Ok(Region::Barrier { flags: self.u32()? }),
            3 => Ok(Region::IfThen {
                cond: self.block_id()?,
                then: Box::new(self.region(depth + 1)?),
            }),
            4 => Ok(Region::IfThenElse {
                cond: self.block_id()?,
                then: Box::new(self.region(depth + 1)?),
                els: Box::new(self.region(depth + 1)?),
            }),
            5 => Ok(Region::WhileLoop {
                cond: self.block_id()?,
                body: Box::new(self.region(depth + 1)?),
            }),
            6 => Ok(Region::SelfLoop { body: Box::new(self.region(depth + 1)?) }),
            tag => Err(CodecError::BadTag { what: "region", tag }),
        }
    }

    fn kernel(&mut self) -> Result<Kernel, CodecError> {
        let name = self.str()?;
        let n_params = self.len("params", 6)?;
        let mut params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            let pname = self.str()?;
            let kind = match self.u8()? {
                0 => ParamKind::Scalar(self.scalar()?),
                1 => ParamKind::Buffer {
                    space: space_from(self.u8()?)?,
                    elem_size: self.u32()?,
                },
                2 => ParamKind::LocalPointer {
                    elem_size: self.u32()?,
                    var: self.index()?,
                },
                tag => return Err(CodecError::BadTag { what: "param kind", tag }),
            };
            params.push(KernelParam { name: pname, kind });
        }
        let n_locals = self.len("local vars", 16)?;
        let mut local_vars = Vec::with_capacity(n_locals);
        for _ in 0..n_locals {
            local_vars.push(LocalVar {
                name: self.str()?,
                size: self.u64()?,
                elem_size: self.u32()?,
            });
        }
        let n_values = self.len("values", 2)?;
        let mut values = Vec::with_capacity(n_values);
        for _ in 0..n_values {
            values.push(self.instr()?);
        }
        let n_blocks = self.len("blocks", 5)?;
        let mut blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let n_instrs = self.len("block instrs", 4)?;
            let mut instrs = Vec::with_capacity(n_instrs);
            for _ in 0..n_instrs {
                instrs.push(self.value()?);
            }
            blocks.push(Block { instrs, term: self.term()? });
        }
        let ctree = self.region(0)?;
        let n_barriers = self.len("barriers", 8)?;
        let mut barrier_after = Vec::with_capacity(n_barriers);
        for _ in 0..n_barriers {
            barrier_after.push((self.block_id()?, self.u32()?));
        }
        let private_bytes = self.u64()?;
        let flags = self.u8()?;
        Ok(Kernel {
            name,
            params,
            local_vars,
            values,
            blocks,
            ctree,
            barrier_after,
            private_bytes,
            uses_barrier: flags & 1 != 0,
            uses_atomics: flags & 2 != 0,
            uses_local: flags & 4 != 0,
        })
    }
}

/// Deserializes a module from the cache byte format.
///
/// # Errors
///
/// [`CodecError`] for any structural damage: wrong magic, truncation,
/// out-of-range tags, implausible lengths, invalid UTF-8, over-deep
/// control trees, or trailing bytes. Never panics on corrupt input.
pub fn decode_module(bytes: &[u8]) -> Result<Module, CodecError> {
    let mut d = Dec { buf: bytes, pos: 0 };
    if d.bytes(MAGIC.len()).map_err(|_| CodecError::BadMagic)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let n = d.len("kernels", 32)?;
    let mut kernels = Vec::with_capacity(n);
    for _ in 0..n {
        kernels.push(d.kernel()?);
    }
    if d.remaining() != 0 {
        return Err(CodecError::TrailingBytes);
    }
    Ok(Module { kernels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;

    fn lower(src: &str) -> Module {
        let parsed = soff_frontend::compile(src, &[]).expect("frontend");
        build::lower(&parsed).expect("lowering")
    }

    /// Structural equality via the Debug rendering: `Module` derives
    /// `Debug` over every field, so identical strings mean identical IR.
    fn assert_roundtrip(m: &Module) {
        let bytes = encode_module(m);
        let back = decode_module(&bytes).expect("decode");
        assert_eq!(format!("{m:?}"), format!("{back:?}"));
    }

    #[test]
    fn roundtrips_simple_kernel() {
        assert_roundtrip(&lower(
            "__kernel void scale(__global float* a, float s) {
                a[get_global_id(0)] *= s;
            }",
        ));
    }

    #[test]
    fn roundtrips_control_flow_and_features() {
        assert_roundtrip(&lower(
            "__kernel void k(__global int* a, __global int* hist, __local int* tmp, int n) {
                int i = get_global_id(0);
                int lid = get_local_id(0);
                tmp[lid] = a[i];
                barrier(CLK_LOCAL_MEM_FENCE);
                int acc = 0;
                for (int j = 0; j < n; j++) {
                    if (tmp[lid] > j) { acc += j; } else { acc -= 1; }
                }
                atomic_add(&hist[acc & 7], 1);
                a[i] = acc + (int)sqrt((float)n);
            }",
        ));
    }

    #[test]
    fn roundtrips_multi_kernel_module() {
        assert_roundtrip(&lower(
            "__kernel void a(__global float* x) { x[get_global_id(0)] += 1.0f; }
             __kernel void b(__global double* y, double s) {
                 y[get_global_id(0)] = fma(s, s, y[get_global_id(0)]);
             }",
        ));
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(decode_module(b"NOTSOFF\n\0\0\0\0").err(), Some(CodecError::BadMagic));
        assert_eq!(decode_module(b"").err(), Some(CodecError::BadMagic));
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = encode_module(&lower(
            "__kernel void k(__global int* a) { a[get_global_id(0)] = 0; }",
        ));
        bytes.push(0);
        assert_eq!(decode_module(&bytes).err(), Some(CodecError::TrailingBytes));
    }

    #[test]
    fn corrupt_input_yields_errors_not_panics() {
        let bytes = encode_module(&lower(
            "__kernel void k(__global int* a, int n) {
                for (int i = 0; i < n; i++) { a[i] = i; }
            }",
        ));
        // Truncation at every prefix length must decode to a typed error.
        for cut in 0..bytes.len() {
            assert!(decode_module(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
        // Single-byte corruption at every position must never panic
        // (decoding may still succeed when the byte is don't-care).
        for i in 0..bytes.len() {
            let mut dam = bytes.clone();
            dam[i] ^= 0xa5;
            let _ = decode_module(&dam);
        }
    }

    #[test]
    fn huge_length_prefix_is_rejected_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // kernel count
        assert!(matches!(
            decode_module(&bytes).err(),
            Some(CodecError::BadLength { what: "kernels", .. })
        ));
    }
}
