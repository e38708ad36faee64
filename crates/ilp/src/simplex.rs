//! Two-phase primal simplex for linear programs in the form
//! `minimize c·x  subject to  A·x {≤,=,≥} b,  x ≥ 0`.
//!
//! Bland's rule (no cycling) with sparse pivots. The LPs SOFF solves
//! (FIFO sizing, §IV-C) have a few hundred columns, but a pivot row holds
//! about ten nonzeros and eliminates about one row in seven, so a pivot
//! collects the pivot row's nonzeros once and updates only those columns
//! of the rows it eliminates. Phase 2 stops updating the artificial
//! columns: none may enter, and nothing reads them again.
//!
//! The pivots are exactly those of a dense tableau that updates every
//! column. Each update is `a − f·b`; where `b` is zero the dense result is
//! `a` itself, up to the sign of a zero, so skipping it changes no nonzero
//! entry. Every decision (entering column, ratio test, infeasibility,
//! which artificial to drive out) compares against `±EPS`, which the sign
//! of a zero cannot flip. Right-hand sides take the same operations as in
//! the dense tableau, so solutions and objectives are bit-identical to the
//! dense solver the tests keep as a reference.

use std::fmt;

/// Relation of a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `≤ rhs`
    Le,
    /// `= rhs`
    Eq,
    /// `≥ rhs`
    Ge,
}

/// One linear constraint: `Σ coeffs[i].1 · x[coeffs[i].0]  rel  rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Sparse coefficient list `(variable, coefficient)`.
    pub coeffs: Vec<(usize, f64)>,
    /// Relation.
    pub rel: Rel,
    /// Right-hand side.
    pub rhs: f64,
}

/// Why an LP could not be solved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal LP solution.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Optimal variable values.
    pub x: Vec<f64>,
    /// Optimal objective value.
    pub objective: f64,
}

/// Tolerance of every pivoting decision.
pub(crate) const EPS: f64 = 1e-9;

/// A simplex tableau whose pivots touch only nonzeros.
///
/// Rows stay dense, so any entry is one load away; a row is allocated on
/// its own, as the dense solver did. The objective row is a slice of
/// `columns + 1` entries whose last entry is its right-hand side.
struct Tableau {
    /// One dense row of every column per constraint.
    rows: Vec<Vec<f64>>,
    /// Right-hand side per row.
    rhs: Vec<f64>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Columns `< live` are updated; phase 2 leaves the artificial ones.
    live: usize,
    /// The `(row, value)` pairs of the pivot column beyond `±EPS`, by
    /// ascending row (scratch).
    column: Vec<(usize, f64)>,
    /// The pivot row's nonzero `(column, value)` pairs (scratch).
    nz: Vec<(usize, f64)>,
}

impl Tableau {
    /// Loads column `col` into `self.column`.
    fn load_column(&mut self, col: usize) {
        self.column.clear();
        for (i, r) in self.rows.iter().enumerate() {
            if r[col].abs() > EPS {
                self.column.push((i, r[col]));
            }
        }
    }

    /// Pivots on `(row, col)`, pricing `obj` too if given. `self.column`
    /// must hold column `col`.
    fn pivot(&mut self, obj: Option<&mut [f64]>, row: usize, col: usize) {
        let mut prow = std::mem::take(&mut self.rows[row]);
        let p = prow[col];
        self.nz.clear();
        for (j, v) in prow[..self.live].iter_mut().enumerate() {
            if *v != 0.0 {
                *v /= p;
                self.nz.push((j, *v));
            }
        }
        self.rhs[row] /= p;
        let r = self.rhs[row];
        for &(i, f) in &self.column {
            if i != row {
                let dst = &mut self.rows[i];
                for &(j, v) in &self.nz {
                    dst[j] -= f * v;
                }
                self.rhs[i] -= f * r;
            }
        }
        if let Some(obj) = obj {
            let f = obj[col];
            if f.abs() > EPS {
                for &(j, v) in &self.nz {
                    obj[j] -= f * v;
                }
                let last = obj.len() - 1;
                obj[last] -= f * r;
            }
        }
        self.rows[row] = prow;
        self.basis[row] = col;
    }

    /// Subtracts `f ×` row `i` (with its right-hand side) from `obj`.
    fn price(&self, obj: &mut [f64], i: usize, f: f64) {
        for (o, &v) in obj.iter_mut().zip(&self.rows[i]) {
            *o -= f * v;
        }
        let last = obj.len() - 1;
        obj[last] -= f * self.rhs[i];
    }

    /// Simplex iterations where only columns `< allowed` may enter the
    /// basis.
    fn run(&mut self, obj: &mut [f64], allowed: usize) -> Result<(), LpError> {
        loop {
            // Bland's rule: smallest index with negative reduced cost.
            let Some(enter) = obj[..allowed].iter().position(|&v| v < -EPS) else {
                return Ok(());
            };
            // Ratio test (Bland: smallest basis index on ties).
            self.load_column(enter);
            let mut leave: Option<usize> = None;
            let mut best = f64::INFINITY;
            for &(i, a) in &self.column {
                if a > EPS {
                    let ratio = self.rhs[i] / a;
                    if ratio < best - EPS
                        || (ratio < best + EPS
                            && leave.is_some_and(|l| self.basis[i] < self.basis[l]))
                    {
                        best = ratio;
                        leave = Some(i);
                    }
                }
            }
            let leave = leave.ok_or(LpError::Unbounded)?;
            self.pivot(Some(obj), leave, enter);
        }
    }
}

/// Solves `minimize c·x  s.t.  constraints, x ≥ 0`.
///
/// # Errors
///
/// Returns [`LpError::Infeasible`] or [`LpError::Unbounded`].
pub fn solve_lp(c: &[f64], constraints: &[Constraint]) -> Result<LpSolution, LpError> {
    let n = c.len();
    let m = constraints.len();

    // Standard form: every row becomes an equation with a slack (Le),
    // surplus (Ge), and artificial variables as needed; rhs made ≥ 0.
    // Column layout: [x(n) | slack/surplus(s) | artificial(a)].
    let rels: Vec<Rel> = constraints
        .iter()
        .map(|con| match (con.rel, con.rhs < 0.0) {
            (Rel::Le, true) => Rel::Ge,
            (Rel::Ge, true) => Rel::Le,
            (rel, _) => rel,
        })
        .collect();
    let n_slack = rels.iter().filter(|r| **r != Rel::Eq).count();
    let n_art = rels.iter().filter(|r| **r != Rel::Le).count();
    let art = n + n_slack;
    let total = art + n_art;

    let mut t = Tableau {
        rows: Vec::with_capacity(m),
        rhs: Vec::with_capacity(m),
        basis: Vec::with_capacity(m),
        live: total,
        column: Vec::new(),
        nz: Vec::new(),
    };
    let (mut s_idx, mut a_idx) = (n, art);
    for (con, rel) in constraints.iter().zip(&rels) {
        let mut row = vec![0.0; total];
        for &(i, v) in &con.coeffs {
            assert!(i < n, "constraint references variable {i} out of {n}");
            row[i] += v;
        }
        let mut rhs = con.rhs;
        if rhs < 0.0 {
            // Negate so rhs ≥ 0.
            rhs = -rhs;
            for v in &mut row[..n] {
                *v = -*v;
            }
        }
        match rel {
            Rel::Le => {
                row[s_idx] = 1.0;
                t.basis.push(s_idx);
                s_idx += 1;
            }
            Rel::Ge => {
                row[s_idx] = -1.0;
                s_idx += 1;
                row[a_idx] = 1.0;
                t.basis.push(a_idx);
                a_idx += 1;
            }
            Rel::Eq => {
                row[a_idx] = 1.0;
                t.basis.push(a_idx);
                a_idx += 1;
            }
        }
        t.rows.push(row);
        t.rhs.push(rhs);
    }

    // Phase 1: minimize the sum of artificial variables.
    if n_art > 0 {
        let mut obj = vec![0.0; total + 1];
        obj[art..total].fill(1.0);
        // Price out basic artificials.
        for i in 0..m {
            if t.basis[i] >= art {
                t.price(&mut obj, i, 1.0);
            }
        }
        t.run(&mut obj, total)?;
        if -obj[total] > EPS {
            return Err(LpError::Infeasible);
        }
        // Drive any artificial variables out of the basis.
        for i in 0..m {
            if t.basis[i] >= art {
                // Find a non-artificial column to pivot in.
                if let Some(j) = t.rows[i][..art].iter().position(|v| v.abs() > EPS) {
                    t.load_column(j);
                    t.pivot(None, i, j);
                }
                // If none, the row is redundant; leave it (rhs must be ~0).
            }
        }
    }

    // Phase 2: minimize the real objective. Price out the basic columns,
    // artificials included (a redundant row may keep one basic).
    let mut obj = vec![0.0; total + 1];
    obj[..n].copy_from_slice(c);
    for i in 0..m {
        let f = obj[t.basis[i]];
        if f.abs() > EPS {
            t.price(&mut obj, i, f);
        }
    }
    // No artificial column may enter, and nothing reads one again.
    t.live = art;
    t.run(&mut obj, art)?;

    let mut x = vec![0.0; n];
    for (&b, &r) in t.basis.iter().zip(&t.rhs) {
        if b < n {
            x[b] = r;
        }
    }
    let objective = c.iter().zip(&x).map(|(a, b)| a * b).sum();
    Ok(LpSolution { x, objective })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use proptest::prelude::*;

    fn con(coeffs: &[(usize, f64)], rel: Rel, rhs: f64) -> Constraint {
        Constraint { coeffs: coeffs.to_vec(), rel, rhs }
    }

    /// The sparse and the dense solver agree bit for bit: the same
    /// solution and objective, or the same error.
    fn same_as_dense(c: &[f64], cons: &[Constraint]) -> Result<(), TestCaseError> {
        let bits = |s: &LpSolution| {
            (s.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), s.objective.to_bits())
        };
        match (solve_lp(c, cons), dense::solve_lp(c, cons)) {
            (Ok(s), Ok(d)) => prop_assert_eq!(bits(&s), bits(&d)),
            (s, d) => prop_assert_eq!(s.map(|s| s.x).unwrap_err(), d.map(|d| d.x).unwrap_err()),
        }
        Ok(())
    }

    /// Small LPs mixing `≤`/`=`/`≥` rows, negative right-hand sides and
    /// repeated variables in a row, so that some are infeasible and some
    /// unbounded. One in three has real-valued data, the rest integers.
    /// Variable indices are taken modulo the variable count.
    fn random_lp() -> impl Strategy<Value = (Vec<f64>, Vec<Constraint>)> {
        let row =
            (prop::collection::vec((0usize..6, -3.0f64..5.0), 1..5), 0usize..5, -6.0f64..10.0);
        let lp = (1usize..7, prop::collection::vec(-1.5f64..3.0, 6..7));
        (lp, prop::collection::vec(row, 1..6), 0u8..3).prop_map(|((n, costs), rows, kind)| {
            let v = |x: f64| if kind == 0 { x } else { x.round() };
            let c = costs[..n].iter().map(|&x| v(x)).collect();
            let cons = rows
                .into_iter()
                .map(|(coeffs, rel, rhs)| Constraint {
                    coeffs: coeffs.into_iter().map(|(i, a)| (i % n, v(a))).collect(),
                    rel: [Rel::Le, Rel::Le, Rel::Le, Rel::Eq, Rel::Ge][rel],
                    rhs: v(rhs),
                })
                .collect();
            (c, cons)
        })
    }

    /// The LP `balance_fifos` (soff-datapath) builds for a random DFG-shaped
    /// DAG, in its variable and row order: node 0 is the source, node 1 the
    /// sink, and the rest instructions in program order. Instruction-to-
    /// instruction edges (repeats allowed, like `x * x`) run forward;
    /// instructions without an input hang off the source and those without
    /// a successor feed the sink.
    fn fifo_lp() -> impl Strategy<Value = (Vec<f64>, Vec<Constraint>)> {
        let pairs = prop::collection::vec((0usize..41, 0usize..41), 0..80);
        let lat =
            prop::collection::vec(prop_oneof![Just(0u32), Just(1), Just(3), 0u32..70], 40..41);
        (0usize..40, pairs, lat).prop_map(|(k, pairs, lat)| {
            // An endpoint drawn as 40 is the source (as `a`) or the sink
            // (as `b`), adding live-ins and live-outs beside the forced ones.
            let mut edges: Vec<(usize, usize)> = Vec::new();
            for (a, b) in pairs.into_iter().filter(|_| k > 0) {
                let (u, v) = (a % k + 2, b % k + 2);
                let edge = match (a, b) {
                    (40, _) => (0, v),
                    (_, 40) => (u, 1),
                    _ => (u.min(v), u.max(v)),
                };
                if edge.0 != edge.1 {
                    edges.push(edge);
                }
            }
            for v in 2..k + 2 {
                if !edges.iter().any(|e| e.1 == v) {
                    edges.push((0, v));
                }
                if !edges.iter().any(|e| e.0 == v) {
                    edges.push((v, 1));
                }
            }
            if !edges.iter().any(|e| e.0 == 0) {
                edges.push((0, 1));
            }
            let lf = |v: usize| if v < 2 { 0.0 } else { f64::from(lat[v - 2]) };
            let (ne, nn) = (edges.len(), k + 2);
            let mut c = vec![0.0; ne + nn];
            c[..ne].fill(1.0);
            let mut cons: Vec<Constraint> = edges
                .iter()
                .enumerate()
                .map(|(ei, &(from, to))| {
                    con(&[(ne + to, 1.0), (ne + from, -1.0), (ei, -1.0)], Rel::Eq, lf(from) + 1.0)
                })
                .collect();
            cons.push(con(&[(ne, 1.0)], Rel::Eq, 0.0));
            (c, cons)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4000, ..ProptestConfig::default() })]

        #[test]
        fn sparse_matches_dense_on_random_lps(lp in random_lp()) {
            same_as_dense(&lp.0, &lp.1)?;
        }

        #[test]
        fn sparse_matches_dense_on_fifo_lps(lp in fifo_lp()) {
            same_as_dense(&lp.0, &lp.1)?;
            // Total unimodularity: every FIFO LP has an optimum, and it is
            // an integral vertex, so `balance_fifos` needs no branching.
            let sol = solve_lp(&lp.0, &lp.1);
            prop_assert!(sol.is_ok(), "FIFO LP not solved: {:?}", sol);
            let x = sol.unwrap().x;
            prop_assert!(x.iter().all(|v| v.fract() == 0.0), "fractional optimum {:?}", x);
        }
    }

    #[test]
    fn simple_minimization() {
        // min x0 + x1 s.t. x0 + x1 >= 2, x0 >= 0.5
        let sol = solve_lp(
            &[1.0, 1.0],
            &[
                con(&[(0, 1.0), (1, 1.0)], Rel::Ge, 2.0),
                con(&[(0, 1.0)], Rel::Ge, 0.5),
            ],
        )
        .unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn maximization_via_negation() {
        // max 3x + 2y s.t. x + y <= 4, x <= 2  → min -3x - 2y; optimum (2,2)=10
        let sol = solve_lp(
            &[-3.0, -2.0],
            &[
                con(&[(0, 1.0), (1, 1.0)], Rel::Le, 4.0),
                con(&[(0, 1.0)], Rel::Le, 2.0),
            ],
        )
        .unwrap();
        assert!((sol.objective + 10.0).abs() < 1e-6);
        assert!((sol.x[0] - 2.0).abs() < 1e-6);
        assert!((sol.x[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // min x + 2y s.t. x + y = 3, y >= 1 → x=2, y=1, obj=4
        let sol = solve_lp(
            &[1.0, 2.0],
            &[
                con(&[(0, 1.0), (1, 1.0)], Rel::Eq, 3.0),
                con(&[(1, 1.0)], Rel::Ge, 1.0),
            ],
        )
        .unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-6, "obj = {}", sol.objective);
    }

    #[test]
    fn infeasible_detected() {
        let r = solve_lp(
            &[1.0],
            &[con(&[(0, 1.0)], Rel::Ge, 5.0), con(&[(0, 1.0)], Rel::Le, 1.0)],
        );
        assert_eq!(r.unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x s.t. x >= 0 (implicit) → unbounded
        let r = solve_lp(&[-1.0], &[con(&[(0, 1.0)], Rel::Ge, 0.0)]);
        assert_eq!(r.unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // min x s.t. -x <= -3  (i.e. x >= 3)
        let sol = solve_lp(&[1.0], &[con(&[(0, -1.0)], Rel::Le, -3.0)]).unwrap();
        assert!((sol.x[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // A classic degenerate instance; Bland's rule must terminate.
        let sol = solve_lp(
            &[-0.75, 150.0, -0.02, 6.0],
            &[
                con(&[(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)], Rel::Le, 0.0),
                con(&[(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)], Rel::Le, 0.0),
                con(&[(2, 1.0)], Rel::Le, 1.0),
            ],
        )
        .unwrap();
        assert!((sol.objective + 0.05).abs() < 1e-6, "obj = {}", sol.objective);
    }
}
