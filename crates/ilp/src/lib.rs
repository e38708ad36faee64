//! # soff-ilp
//!
//! A small exact integer linear programming solver: two-phase primal
//! simplex with sparse pivots for the LP relaxation (see [`simplex`])
//! plus depth-first branch & bound on fractional variables.
//!
//! SOFF uses ILP to size the FIFO queues inserted between functional units
//! of a basic pipeline (§IV-C of the paper): one variable per DFG edge,
//! equality constraints making every source-sink path hold the same total
//! near-maximum latency, minimizing the total FIFO capacity added.
//!
//! The simplex works in `f64` with a tolerance, yet it is exact on those
//! LPs. Their constraint matrix is a DFG's edge-node incidence matrix
//! plus unit columns, so it is totally unimodular, and latencies are
//! integers. Every tableau entry, reduced cost and basic solution is then
//! a small integer that `f64` holds exactly, Bland's rule ends on an
//! integral vertex, and branch & bound never branches.
//!
//! ## Example
//!
//! ```
//! use soff_ilp::{Ilp, Rel};
//!
//! // min x + y  s.t.  x + 2y >= 3,  x,y integer >= 0
//! let mut p = Ilp::new(2);
//! p.set_objective(&[1.0, 1.0]);
//! p.add_constraint(&[(0, 1.0), (1, 2.0)], Rel::Ge, 3.0);
//! p.mark_integer(0);
//! p.mark_integer(1);
//! let sol = p.solve().unwrap();
//! assert_eq!(sol.objective.round() as i64, 2); // x=1, y=1
//! ```

#[cfg(test)]
mod dense;
pub mod simplex;

pub use simplex::{Constraint, LpError, LpSolution, Rel};

use std::borrow::Cow;

/// An integer linear program under construction.
///
/// All variables are implicitly `≥ 0`.
#[derive(Debug, Clone)]
pub struct Ilp {
    n: usize,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
    integer: Vec<bool>,
}

/// An ILP solution.
#[derive(Debug, Clone)]
pub struct IlpSolution {
    /// Variable values (integral for variables marked integer, up to
    /// rounding tolerance).
    pub x: Vec<f64>,
    /// Objective value.
    pub objective: f64,
}

impl IlpSolution {
    /// Variable `i` rounded to the nearest integer.
    pub fn int(&self, i: usize) -> i64 {
        self.x[i].round() as i64
    }
}

const INT_EPS: f64 = 1e-6;
/// Bound on branch & bound nodes; the FIFO problems SOFF builds are
/// integral LPs, so this is pure paranoia.
const MAX_NODES: usize = 100_000;

impl Ilp {
    /// Creates a program with `n` variables (all `≥ 0`, continuous).
    pub fn new(n: usize) -> Self {
        Ilp { n, objective: vec![0.0; n], constraints: Vec::new(), integer: vec![false; n] }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Sets the minimization objective coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `c.len()` differs from the variable count.
    pub fn set_objective(&mut self, c: &[f64]) {
        assert_eq!(c.len(), self.n);
        self.objective = c.to_vec();
    }

    /// Adds `Σ coeffs · x  rel  rhs`.
    pub fn add_constraint(&mut self, coeffs: &[(usize, f64)], rel: Rel, rhs: f64) {
        self.constraints.push(Constraint { coeffs: coeffs.to_vec(), rel, rhs });
    }

    /// Marks variable `i` as integer.
    pub fn mark_integer(&mut self, i: usize) {
        self.integer[i] = true;
    }

    /// Solves the program exactly.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`] if no integer point satisfies the
    /// constraints, [`LpError::Unbounded`] if the relaxation is unbounded.
    pub fn solve(&self) -> Result<IlpSolution, LpError> {
        // Depth-first branch & bound over LP relaxations.
        let mut best: Option<IlpSolution> = None;
        let mut stack: Vec<Vec<Constraint>> = vec![Vec::new()];
        let mut nodes = 0usize;

        while let Some(extra) = stack.pop() {
            nodes += 1;
            if nodes > MAX_NODES {
                break;
            }
            // The root node adds no bounds and solves the constraints as
            // they are.
            let cons: Cow<[Constraint]> = if extra.is_empty() {
                Cow::Borrowed(&self.constraints)
            } else {
                Cow::Owned(self.constraints.iter().chain(&extra).cloned().collect())
            };
            let relax = match simplex::solve_lp(&self.objective, &cons) {
                Ok(s) => s,
                Err(LpError::Infeasible) => continue,
                Err(e) => return Err(e),
            };
            if let Some(b) = &best {
                if relax.objective >= b.objective - INT_EPS {
                    continue; // bound
                }
            }
            // Find a fractional integer variable.
            let frac = (0..self.n).find(|&i| {
                self.integer[i] && (relax.x[i] - relax.x[i].round()).abs() > INT_EPS
            });
            match frac {
                None => {
                    let sol = IlpSolution { x: relax.x, objective: relax.objective };
                    match &best {
                        Some(b) if b.objective <= sol.objective => {}
                        _ => best = Some(sol),
                    }
                }
                Some(i) => {
                    let v = relax.x[i];
                    let mut lo = extra.clone();
                    lo.push(Constraint {
                        coeffs: vec![(i, 1.0)],
                        rel: Rel::Le,
                        rhs: v.floor(),
                    });
                    let mut hi = extra;
                    hi.push(Constraint {
                        coeffs: vec![(i, 1.0)],
                        rel: Rel::Ge,
                        rhs: v.ceil(),
                    });
                    stack.push(lo);
                    stack.push(hi);
                }
            }
        }
        best.ok_or(LpError::Infeasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_lp_passthrough() {
        let mut p = Ilp::new(2);
        p.set_objective(&[1.0, 1.0]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Rel::Ge, 1.5);
        let s = p.solve().unwrap();
        assert!((s.objective - 1.5).abs() < 1e-6);
    }

    #[test]
    fn integrality_forces_rounding_up() {
        // min x s.t. x >= 1.5, x integer → x = 2
        let mut p = Ilp::new(1);
        p.set_objective(&[1.0]);
        p.add_constraint(&[(0, 1.0)], Rel::Ge, 1.5);
        p.mark_integer(0);
        let s = p.solve().unwrap();
        assert_eq!(s.int(0), 2);
    }

    #[test]
    fn small_knapsack() {
        // max 5a + 4b s.t. 6a + 5b <= 10, a,b ∈ {0..} integer.
        // Optimum: a=0,b=2 → 8 (LP relaxation would take a=10/6).
        let mut p = Ilp::new(2);
        p.set_objective(&[-5.0, -4.0]);
        p.add_constraint(&[(0, 6.0), (1, 5.0)], Rel::Le, 10.0);
        p.mark_integer(0);
        p.mark_integer(1);
        let s = p.solve().unwrap();
        assert_eq!(-s.objective.round() as i64, 8);
    }

    #[test]
    fn integer_infeasible() {
        // 2x = 3 has no integer solution.
        let mut p = Ilp::new(1);
        p.set_objective(&[1.0]);
        p.add_constraint(&[(0, 2.0)], Rel::Eq, 3.0);
        p.mark_integer(0);
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn multi_path_balancing() {
        // Three parallel paths with latencies 5, 8, 2 joining at a sink;
        // q1, q2, q3 ≥ 0 with 5+q1 = 8+q2 = 2+q3, minimize Σq.
        // Optimum: q1=3, q2=0, q3=6 (total 9).
        let mut p = Ilp::new(3);
        p.set_objective(&[1.0, 1.0, 1.0]);
        p.add_constraint(&[(0, 1.0), (1, -1.0)], Rel::Eq, 3.0); // 5+q1 = 8+q2
        p.add_constraint(&[(2, 1.0), (1, -1.0)], Rel::Eq, 6.0); // 2+q3 = 8+q2
        for i in 0..3 {
            p.mark_integer(i);
        }
        let s = p.solve().unwrap();
        assert_eq!((s.int(0), s.int(1), s.int(2)), (3, 0, 6));
        assert_eq!(s.objective.round() as i64, 9);
    }

    #[test]
    fn branching_respects_bounds() {
        // min -x - y s.t. x + y <= 3.5, x - y <= 0.5, integers.
        // LP opt at (2, 1.5); integer optimum e.g. (1,2) or (1.5→) (1,2): -3.
        let mut p = Ilp::new(2);
        p.set_objective(&[-1.0, -1.0]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Rel::Le, 3.5);
        p.add_constraint(&[(0, 1.0), (1, -1.0)], Rel::Le, 0.5);
        p.mark_integer(0);
        p.mark_integer(1);
        let s = p.solve().unwrap();
        assert_eq!(-s.objective.round() as i64, 3);
    }
}
