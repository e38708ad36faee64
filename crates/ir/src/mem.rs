//! Backing storage and address encoding shared by the reference
//! interpreter and the cycle-level simulator.
//!
//! Addresses are 64-bit. Global addresses carry the buffer id in bits
//! 40..56 and the byte offset in bits 0..40; local addresses carry the
//! local-variable index in bits 28..40. This mirrors how SOFF's pointer
//! analysis keys caches by buffer: the runtime hands each kernel argument
//! the encoded base address of its buffer.

use std::sync::Arc;

use soff_frontend::types::Scalar;

/// Bit position of the buffer id within a global address.
pub const GLOBAL_BUF_SHIFT: u32 = 40;
/// Bit position of the local-variable index within a local address.
pub const LOCAL_VAR_SHIFT: u32 = 28;

/// Encodes a global address.
pub fn global_addr(buffer: u32, offset: u64) -> u64 {
    debug_assert!(offset < (1 << GLOBAL_BUF_SHIFT));
    ((buffer as u64) << GLOBAL_BUF_SHIFT) | offset
}

/// Splits a global address into `(buffer, offset)`.
pub fn split_global(addr: u64) -> (u32, u64) {
    ((addr >> GLOBAL_BUF_SHIFT) as u32, addr & ((1 << GLOBAL_BUF_SHIFT) - 1))
}

/// Encodes a local-memory address.
pub fn local_addr(var: usize, offset: u64) -> u64 {
    debug_assert!(offset < (1 << LOCAL_VAR_SHIFT));
    ((var as u64) << LOCAL_VAR_SHIFT) | offset
}

/// Splits a local address into `(var, offset)`.
pub fn split_local(addr: u64) -> (usize, u64) {
    ((addr >> LOCAL_VAR_SHIFT) as usize, addr & ((1 << LOCAL_VAR_SHIFT) - 1))
}

/// A flat byte store with typed accessors. Out-of-range reads return 0 and
/// out-of-range writes are dropped, giving speculative accesses a defined
/// meaning (see [`crate::eval`]).
#[derive(Debug, Clone, Default)]
pub struct ByteStore {
    bytes: Vec<u8>,
}

impl ByteStore {
    /// Creates a zero-filled store of `size` bytes.
    pub fn new(size: usize) -> Self {
        ByteStore { bytes: vec![0; size] }
    }

    /// The size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Raw bytes (for host copies).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable raw bytes (for host copies).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Whether a `ty` access at byte offset `off` lies inside the store.
    fn in_range(&self, off: u64, ty: Scalar) -> bool {
        (off as usize).checked_add(ty.size() as usize).is_some_and(|e| e <= self.bytes.len())
    }

    /// Reads a scalar of type `ty` at byte offset `off` (little-endian),
    /// returning canonical bits. Out-of-range reads yield 0.
    pub fn read_scalar(&self, off: u64, ty: Scalar) -> u64 {
        if !self.in_range(off, ty) {
            return 0;
        }
        let size = ty.size() as usize;
        let off = off as usize;
        let mut v = 0u64;
        for i in 0..size {
            v |= (self.bytes[off + i] as u64) << (8 * i);
        }
        v
    }

    /// Writes canonical bits of type `ty` at byte offset `off`.
    /// Out-of-range writes are dropped.
    pub fn write_scalar(&mut self, off: u64, ty: Scalar, bits: u64) {
        if !self.in_range(off, ty) {
            return;
        }
        let size = ty.size() as usize;
        let off = off as usize;
        for i in 0..size {
            self.bytes[off + i] = (bits >> (8 * i)) as u8;
        }
    }
}

/// The device's global memory: a set of buffers indexed by buffer id.
///
/// Buffers are copy-on-write: a clone (a checkpoint image) copies only
/// buffer handles, and the first write to a buffer that another clone
/// still holds copies that one buffer.
#[derive(Debug, Clone, Default)]
pub struct GlobalMemory {
    buffers: Vec<Arc<ByteStore>>,
}

impl GlobalMemory {
    /// Creates an empty global memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a buffer of `size` bytes and returns its id.
    pub fn alloc(&mut self, size: usize) -> u32 {
        self.buffers.push(Arc::new(ByteStore::new(size)));
        (self.buffers.len() - 1) as u32
    }

    /// Number of buffers allocated.
    pub fn num_buffers(&self) -> usize {
        self.buffers.len()
    }

    /// The buffer with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`GlobalMemory::alloc`].
    pub fn buffer(&self, id: u32) -> &ByteStore {
        &self.buffers[id as usize]
    }

    /// Mutable access to buffer `id`, unsharing it from any clone first.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`GlobalMemory::alloc`].
    pub fn buffer_mut(&mut self, id: u32) -> &mut ByteStore {
        Arc::make_mut(&mut self.buffers[id as usize])
    }

    /// Rolls memory back to `image`, a clone taken from it earlier: every
    /// buffer the image holds gets the image's bytes back, and buffers
    /// allocated after the image keep their ids and bytes.
    pub fn rollback_to(&mut self, image: &GlobalMemory) {
        let n = image.buffers.len().min(self.buffers.len());
        self.buffers[..n].clone_from_slice(&image.buffers[..n]);
        self.buffers.extend_from_slice(&image.buffers[n..]);
    }

    /// Reads a scalar at an encoded global address.
    pub fn read(&self, addr: u64, ty: Scalar) -> u64 {
        let (buf, off) = split_global(addr);
        match self.buffers.get(buf as usize) {
            Some(b) => b.read_scalar(off, ty),
            None => 0,
        }
    }

    /// Writes a scalar at an encoded global address. The range check
    /// comes first, so a dropped write never unshares its buffer.
    pub fn write(&mut self, addr: u64, ty: Scalar, bits: u64) {
        let (buf, off) = split_global(addr);
        if let Some(b) = self.buffers.get_mut(buf as usize) {
            if b.in_range(off, ty) {
                Arc::make_mut(b).write_scalar(off, ty, bits);
            }
        }
    }
}

/// A kernel argument value, as bound by the host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// A scalar, as canonical bits.
    Scalar(u64),
    /// A global/constant buffer id.
    Buffer(u32),
    /// The byte size for a `__local` pointer argument.
    LocalSize(u64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn address_roundtrip() {
        let a = global_addr(7, 1234);
        assert_eq!(split_global(a), (7, 1234));
        let l = local_addr(3, 16);
        assert_eq!(split_local(l), (3, 16));
    }

    #[test]
    fn scalar_roundtrip() {
        let mut s = ByteStore::new(64);
        s.write_scalar(8, Scalar::F32, (1.5f32).to_bits() as u64);
        assert_eq!(s.read_scalar(8, Scalar::F32), (1.5f32).to_bits() as u64);
        s.write_scalar(16, Scalar::I64, u64::MAX);
        assert_eq!(s.read_scalar(16, Scalar::I64), u64::MAX);
        s.write_scalar(0, Scalar::U8, 0x1FF);
        assert_eq!(s.read_scalar(0, Scalar::U8), 0xFF);
    }

    #[test]
    fn out_of_range_is_defined() {
        let mut s = ByteStore::new(4);
        assert_eq!(s.read_scalar(2, Scalar::F32), 0);
        s.write_scalar(u64::MAX - 1, Scalar::I32, 42); // no panic
        assert_eq!(s.read_scalar(0, Scalar::I32), 0);
    }

    #[test]
    fn global_memory_read_write() {
        let mut g = GlobalMemory::new();
        let a = g.alloc(16);
        let b = g.alloc(16);
        g.write(global_addr(a, 0), Scalar::I32, 111);
        g.write(global_addr(b, 0), Scalar::I32, 222);
        assert_eq!(g.read(global_addr(a, 0), Scalar::I32), 111);
        assert_eq!(g.read(global_addr(b, 0), Scalar::I32), 222);
        // Nonexistent buffer reads as 0.
        assert_eq!(g.read(global_addr(99, 0), Scalar::I32), 0);
    }

    fn shared(a: &GlobalMemory, b: &GlobalMemory, id: usize) -> bool {
        Arc::ptr_eq(&a.buffers[id], &b.buffers[id])
    }

    #[test]
    fn clones_share_buffers_until_one_is_written() {
        let mut g = GlobalMemory::new();
        for _ in 0..3 {
            g.alloc(16);
        }
        let image = g.clone();
        assert!((0..3).all(|i| shared(&g, &image, i)));
        // A dropped out-of-range write leaves the buffer shared.
        g.write(global_addr(1, 14), Scalar::I32, 7);
        assert!(shared(&g, &image, 1));
        g.write(global_addr(1, 0), Scalar::I32, 7);
        assert!(!shared(&g, &image, 1));
        assert!(shared(&g, &image, 0) && shared(&g, &image, 2));
        assert_eq!(g.read(global_addr(1, 0), Scalar::I32), 7);
        assert_eq!(image.read(global_addr(1, 0), Scalar::I32), 0);
        // A rollback shares the image's buffers again and keeps a buffer
        // allocated after the image.
        let late = g.alloc(4);
        g.buffer_mut(late).bytes_mut()[0] = 9;
        g.rollback_to(&image);
        assert!((0..3).all(|i| shared(&g, &image, i)));
        assert_eq!(g.num_buffers(), 4);
        assert_eq!(g.buffer(late).bytes(), &[9, 0, 0, 0]);
    }

    /// One step of a copy-on-write sequence.
    #[derive(Debug, Clone)]
    enum Op {
        Alloc(usize),
        /// `write` of an `I32` at `(buffer, offset)`, possibly out of range.
        Write(u32, u64, u64),
        /// One byte through `buffer_mut`, skipped when out of range.
        Poke(u32, usize, u8),
        Clone,
        /// Roll back to the retained clone with this index (modulo count).
        Rollback(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1usize..24).prop_map(Op::Alloc),
            (0u32..6, 0u64..28, any::<u64>()).prop_map(|(b, o, v)| Op::Write(b, o, v)),
            (0u32..6, 0usize..24, any::<u8>()).prop_map(|(b, i, v)| Op::Poke(b, i, v)),
            Just(Op::Clone),
            (0usize..4).prop_map(Op::Rollback),
        ]
    }

    /// Whether `gm` holds exactly the model's buffers.
    fn matches(gm: &GlobalMemory, model: &[Vec<u8>]) -> bool {
        gm.num_buffers() == model.len()
            && model.iter().enumerate().all(|(i, m)| gm.buffer(i as u32).bytes() == &m[..])
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Copy-on-write memory behaves like deep copies: after every step
        /// the live memory and every retained clone equal a deep-copy
        /// model, ids included.
        #[test]
        fn copy_on_write_matches_deep_copies(ops in prop::collection::vec(op(), 1..48)) {
            let mut gm = GlobalMemory::new();
            let mut model: Vec<Vec<u8>> = Vec::new();
            let mut images: Vec<(GlobalMemory, Vec<Vec<u8>>)> = Vec::new();
            for op in &ops {
                match *op {
                    Op::Alloc(size) => {
                        prop_assert_eq!(gm.alloc(size) as usize, model.len());
                        model.push(vec![0; size]);
                    }
                    Op::Write(b, off, v) => {
                        gm.write(global_addr(b, off), Scalar::I32, v);
                        let off = off as usize;
                        if let Some(m) = model.get_mut(b as usize).filter(|m| off + 4 <= m.len()) {
                            m[off..off + 4].copy_from_slice(&(v as u32).to_le_bytes());
                        }
                    }
                    Op::Poke(b, i, v) => {
                        if let Some(m) = model.get_mut(b as usize).filter(|m| i < m.len()) {
                            m[i] = v;
                            gm.buffer_mut(b).bytes_mut()[i] = v;
                        }
                    }
                    Op::Clone => images.push((gm.clone(), model.clone())),
                    Op::Rollback(k) => {
                        if !images.is_empty() {
                            let (image, saved) = &images[k % images.len()];
                            gm.rollback_to(image);
                            model[..saved.len()].clone_from_slice(saved);
                        }
                    }
                }
                prop_assert!(matches(&gm, &model), "live memory diverged after {:?}", op);
                for (image, saved) in &images {
                    prop_assert!(matches(image, saved), "a clone changed after {:?}", op);
                }
            }
        }
    }
}
