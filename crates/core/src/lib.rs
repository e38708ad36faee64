//! # SOFF — an OpenCL high-level synthesis framework for FPGAs
//!
//! A complete, simulation-based reproduction of *"SOFF: An OpenCL
//! High-Level Synthesis Framework for FPGAs"* (ISCA 2020). SOFF compiles
//! OpenCL C kernels into datapaths that execute many kernel work-items in
//! a run-time-pipelined (handshake/dataflow) fashion, synthesizes a memory
//! subsystem of per-buffer caches and banked local-memory blocks, and
//! handles variable-latency instructions, complex control flow, work-group
//! barriers, and atomics — formally, not best-effort.
//!
//! This crate is the facade: it re-exports the whole stack and offers a
//! one-call compiler driver. The pieces are:
//!
//! | crate | paper section | contents |
//! |---|---|---|
//! | [`frontend`] | §II-B, §III-C2 | OpenCL C preprocessor, lexer, parser, sema |
//! | [`ir`] | §III-C2 | SSA IR, inlining, liveness, pointer analysis, DFGs, control tree, interpreter |
//! | [`ilp`] | §IV-C | exact LP solver for FIFO balancing |
//! | [`datapath`] | §IV | functional units, basic pipelines, glue, deadlock bounds, resource model |
//! | [`mem`] | §V | caches, DRAM, arbiters, local memory blocks, private memory |
//! | [`sim`] | §III-B | cycle-level simulator of the reconfigurable region |
//! | [`rtl`] | §III-C | Verilog emission + the SOFF IP-core library |
//! | [`runtime`] | §III-C1 | OpenCL-style host API over the simulated device |
//! | [`baseline`] | §VI | Intel FPGA SDK / Xilinx SDAccel behavioural models |
//!
//! ## Quickstart
//!
//! ```
//! use soff::runtime::{Context, Device, Program};
//!
//! let device = Device::system_a();
//! let program = Program::build(
//!     "__kernel void vadd(__global const float* a, __global const float* b,
//!                         __global float* c) {
//!          int i = get_global_id(0);
//!          c[i] = a[i] + b[i];
//!      }",
//!     &[],
//!     &device,
//! )?;
//! let mut ctx = Context::new(device);
//! let (a, b, c) = (ctx.create_buffer(64), ctx.create_buffer(64), ctx.create_buffer(64));
//! ctx.write_buffer_f32(a, &[1.0; 16])?;
//! ctx.write_buffer_f32(b, &[2.0; 16])?;
//! let mut kernel = program.kernel("vadd").unwrap();
//! kernel.set_arg_buffer(0, a).set_arg_buffer(1, b).set_arg_buffer(2, c);
//! let stats = ctx.enqueue_ndrange(&kernel, soff::NdRange::dim1(16, 4))?;
//! assert_eq!(ctx.read_buffer_f32(c)?, vec![3.0; 16]);
//! println!("executed in {} simulated cycles on {} datapath instance(s)",
//!          stats.sim.cycles, stats.num_instances);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use soff_baseline as baseline;
pub use soff_datapath as datapath;
pub use soff_frontend as frontend;
pub use soff_ilp as ilp;
pub use soff_ir as ir;
pub use soff_mem as mem;
pub use soff_rtl as rtl;
pub use soff_runtime as runtime;
pub use soff_sim as sim;

pub use soff_ir::NdRange;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use crate::compiler::{compile, Compiled};
    pub use crate::NdRange;
    pub use soff_runtime::{Context, Device, Program};
}

/// The end-to-end compiler driver (Fig. 3 (b)): source → SSA → datapaths →
/// Verilog, without executing anything.
pub mod compiler {
    use soff_datapath::{Datapath, LatencyModel};
    use soff_frontend::Diagnostic;
    use soff_ir::Module;
    use soff_rtl::RtlModule;

    /// The output of the OpenCL-C-to-Verilog compiler for one program.
    #[derive(Debug)]
    pub struct Compiled {
        /// SSA IR of every kernel.
        pub module: Module,
        /// One synthesized datapath per kernel.
        pub datapaths: Vec<Datapath>,
        /// RTL of the reconfigurable region, one module per kernel.
        pub rtl: Vec<RtlModule>,
        /// The target-independent IP-core library the RTL instantiates.
        pub ip_library: String,
    }

    /// Compiles OpenCL C source through the full SOFF flow.
    ///
    /// `instances` is the number of datapath copies to emit in the RTL
    /// (normally chosen by the resource model; see
    /// `soff_runtime::Program::build` for the integrated flow).
    ///
    /// # Errors
    ///
    /// Returns the first frontend/lowering [`Diagnostic`].
    pub fn compile(source: &str, instances: u32) -> Result<Compiled, Diagnostic> {
        let parsed = soff_frontend::compile(source, &[])?;
        let module = soff_ir::build::lower(&parsed)?;
        let lat = LatencyModel::default();
        let mut datapaths = Vec::new();
        let mut rtl = Vec::new();
        for kernel in &module.kernels {
            let dp = Datapath::build(kernel, &lat);
            let m = soff_rtl::emit_kernel(kernel, &dp, instances)
                .expect("RTL emission is infallible for valid datapaths");
            datapaths.push(dp);
            rtl.push(m);
        }
        Ok(Compiled { module, datapaths, rtl, ip_library: soff_rtl::ipcores::emit_ip_library() })
    }
}

#[cfg(test)]
mod tests {
    use super::compiler::compile;

    #[test]
    fn end_to_end_compile_produces_all_artifacts() {
        let c = compile(
            "__kernel void k(__global float* a, int n) {
                float s = 0.0f;
                for (int i = 0; i < n; i++) s += a[i];
                a[0] = s;
            }",
            2,
        )
        .unwrap();
        assert_eq!(c.module.kernels.len(), 1);
        assert_eq!(c.datapaths.len(), 1);
        assert!(c.rtl[0].source.contains("module soff_kernel_k"));
        assert!(c.ip_library.contains("module soff_chan"));
    }

    #[test]
    fn compile_errors_surface() {
        assert!(compile("__kernel void k() { nope(); }", 1).is_err());
    }
}
