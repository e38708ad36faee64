//! The dense-tableau simplex that [`crate::simplex::solve_lp`] replaced,
//! moved here unchanged as the reference its tests compare against bit
//! for bit: every pivot sweeps every column of every eliminated row.

use crate::simplex::{Constraint, LpError, LpSolution, Rel, EPS};

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
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut rhs: Vec<f64> = Vec::with_capacity(m);
    let mut rels: Vec<Rel> = Vec::with_capacity(m);
    for con in constraints {
        let mut row = vec![0.0; n];
        for &(i, v) in &con.coeffs {
            assert!(i < n, "constraint references variable {i} out of {n}");
            row[i] += v;
        }
        let (row, r, rel) = if con.rhs < 0.0 {
            // Negate so rhs ≥ 0.
            let flipped = match con.rel {
                Rel::Le => Rel::Ge,
                Rel::Ge => Rel::Le,
                Rel::Eq => Rel::Eq,
            };
            (row.iter().map(|v| -v).collect::<Vec<_>>(), -con.rhs, flipped)
        } else {
            (row, con.rhs, con.rel)
        };
        rows.push(row);
        rhs.push(r);
        rels.push(rel);
    }

    let n_slack = rels.iter().filter(|r| **r != Rel::Eq).count();
    let n_art = rels.iter().filter(|r| **r != Rel::Le).count();
    let total = n + n_slack + n_art;

    // Build the tableau.
    let mut t = vec![vec![0.0; total + 1]; m];
    let mut basis = vec![0usize; m];
    let mut s_idx = n;
    let mut a_idx = n + n_slack;
    for i in 0..m {
        t[i][..n].copy_from_slice(&rows[i]);
        t[i][total] = rhs[i];
        match rels[i] {
            Rel::Le => {
                t[i][s_idx] = 1.0;
                basis[i] = s_idx;
                s_idx += 1;
            }
            Rel::Ge => {
                t[i][s_idx] = -1.0;
                s_idx += 1;
                t[i][a_idx] = 1.0;
                basis[i] = a_idx;
                a_idx += 1;
            }
            Rel::Eq => {
                t[i][a_idx] = 1.0;
                basis[i] = a_idx;
                a_idx += 1;
            }
        }
    }

    // Phase 1: minimize the sum of artificial variables.
    if n_art > 0 {
        let mut obj = vec![0.0; total + 1];
        for o in &mut obj[(n + n_slack)..total] {
            *o = 1.0;
        }
        // Price out basic artificials.
        for i in 0..m {
            if basis[i] >= n + n_slack {
                for j in 0..=total {
                    obj[j] -= t[i][j];
                }
            }
        }
        run_simplex(&mut t, &mut obj, &mut basis, total)?;
        if -obj[total] > EPS {
            return Err(LpError::Infeasible);
        }
        // Drive any artificial variables out of the basis.
        for i in 0..m {
            if basis[i] >= n + n_slack {
                // Find a non-artificial column to pivot in.
                if let Some(j) = (0..n + n_slack).find(|&j| t[i][j].abs() > EPS) {
                    pivot(&mut t, &mut vec![0.0; total + 1], &mut basis, i, j, total);
                }
                // If none, the row is redundant; leave it (rhs must be ~0).
            }
        }
    }

    // Phase 2: minimize the real objective (artificials pinned at 0 by
    // giving them prohibitive cost and never selecting them).
    let mut obj = vec![0.0; total + 1];
    obj[..n].copy_from_slice(c);
    for i in 0..m {
        let b = basis[i];
        if obj[b].abs() > EPS {
            let f = obj[b];
            for j in 0..=total {
                obj[j] -= f * t[i][j];
            }
        }
    }
    // Forbid artificial columns from entering.
    run_simplex_restricted(&mut t, &mut obj, &mut basis, total, n + n_slack)?;

    let mut x = vec![0.0; n];
    for i in 0..m {
        if basis[i] < n {
            x[basis[i]] = t[i][total];
        }
    }
    let objective = c.iter().zip(&x).map(|(a, b)| a * b).sum();
    Ok(LpSolution { x, objective })
}

fn run_simplex(
    t: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    total: usize,
) -> Result<(), LpError> {
    run_simplex_restricted(t, obj, basis, total, total)
}

/// Simplex iterations where only columns `< allowed` may enter the basis.
fn run_simplex_restricted(
    t: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    total: usize,
    allowed: usize,
) -> Result<(), LpError> {
    let m = t.len();
    loop {
        // Bland's rule: smallest index with negative reduced cost.
        let enter = (0..allowed).find(|&j| obj[j] < -EPS);
        let enter = match enter {
            Some(j) => j,
            None => return Ok(()),
        };
        // Ratio test (Bland: smallest basis index on ties).
        let mut leave: Option<usize> = None;
        let mut best = f64::INFINITY;
        for i in 0..m {
            if t[i][enter] > EPS {
                let ratio = t[i][total] / t[i][enter];
                if ratio < best - EPS
                    || (ratio < best + EPS
                        && leave.map(|l| basis[i] < basis[l]).unwrap_or(false))
                {
                    best = ratio;
                    leave = Some(i);
                }
            }
        }
        let leave = leave.ok_or(LpError::Unbounded)?;
        pivot_full(t, obj, basis, leave, enter, total);
    }
}

// Index loops stay: `t[i][j] -= f * t[row][j]` reads one row while
// mutating another, which slice iterators cannot express without splits.
#[allow(clippy::needless_range_loop)]
fn pivot_full(
    t: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    row: usize,
    col: usize,
    total: usize,
) {
    let m = t.len();
    let p = t[row][col];
    for x in &mut t[row][..=total] {
        *x /= p;
    }
    for i in 0..m {
        if i != row && t[i][col].abs() > EPS {
            let f = t[i][col];
            for j in 0..=total {
                t[i][j] -= f * t[row][j];
            }
        }
    }
    if obj[col].abs() > EPS {
        let f = obj[col];
        for j in 0..=total {
            obj[j] -= f * t[row][j];
        }
    }
    basis[row] = col;
}

fn pivot(
    t: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    row: usize,
    col: usize,
    total: usize,
) {
    pivot_full(t, obj, basis, row, col, total);
}
