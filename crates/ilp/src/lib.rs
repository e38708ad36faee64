//! # soff-ilp
//!
//! A small exact linear programming solver: two-phase primal simplex with
//! sparse pivots (see [`simplex`]).
//!
//! SOFF sizes the FIFO queues inserted between functional units of a basic
//! pipeline with it (§IV-C of the paper): one variable per DFG edge,
//! equality constraints making every source-sink path hold the same total
//! near-maximum latency, minimizing the total FIFO capacity added. The
//! paper states that problem as an ILP; its LP relaxation already has an
//! integral optimum, so no integer search is needed.
//!
//! The simplex works in `f64` with a tolerance, yet it is exact on those
//! LPs. Their constraint matrix is a DFG's edge-node incidence matrix
//! plus unit columns, so it is totally unimodular, and latencies are
//! integers. Every tableau entry, reduced cost and basic solution is then
//! a small integer that `f64` holds exactly, and Bland's rule ends on an
//! integral vertex.
//!
//! ## Example
//!
//! ```
//! use soff_ilp::simplex::solve_lp;
//! use soff_ilp::{Constraint, Rel};
//!
//! // min x + y  s.t.  x + 2y >= 3,  x,y >= 0
//! let rows = [Constraint { coeffs: vec![(0, 1.0), (1, 2.0)], rel: Rel::Ge, rhs: 3.0 }];
//! let sol = solve_lp(&[1.0, 1.0], &rows).unwrap();
//! assert_eq!(sol.x, [0.0, 1.5]); // an LP optimum need not be integral
//! ```

#[cfg(test)]
mod dense;
pub mod simplex;

pub use simplex::{Constraint, LpError, LpSolution, Rel};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_path_balancing() {
        // Three parallel paths with latencies 5, 8, 2 joining at a sink;
        // q1, q2, q3 ≥ 0 with 5+q1 = 8+q2 = 2+q3, minimize Σq.
        // Optimum: q1=3, q2=0, q3=6 (total 9), integral as it stands.
        let eq = |coeffs: &[(usize, f64)], rhs| Constraint {
            coeffs: coeffs.to_vec(),
            rel: Rel::Eq,
            rhs,
        };
        let s = simplex::solve_lp(
            &[1.0, 1.0, 1.0],
            &[
                eq(&[(0, 1.0), (1, -1.0)], 3.0), // 5+q1 = 8+q2
                eq(&[(2, 1.0), (1, -1.0)], 6.0), // 2+q3 = 8+q2
            ],
        )
        .unwrap();
        assert_eq!(s.x, [3.0, 0.0, 6.0]);
        assert_eq!(s.objective, 9.0);
    }
}
