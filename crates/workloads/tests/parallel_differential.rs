//! Differential suite for the parallel sweep engine: the pooled driver
//! must be observationally identical to the plain sequential loop it
//! replaced — byte-identical canonical JSON over the PolyBench suite —
//! and the compile cache must stay invisible in the results while
//! actually being exercised.

use soff_baseline::Framework;
use soff_workloads::data::Scale;
use soff_workloads::sweep::{digest, grid, run_cells, CellResult, SweepOptions};
use soff_workloads::{all_apps, App, Suite};

fn polybench() -> Vec<App> {
    all_apps().into_iter().filter(|a| a.suite == Suite::PolyBench).collect()
}

/// The `apps` × `fws` grid at Small scale on `jobs` workers.
fn sweep(apps: &[App], fws: &[Framework], jobs: usize) -> Vec<CellResult> {
    run_cells(&grid(apps, fws, Scale::Small), &SweepOptions { jobs, journal: None })
        .expect("a journal-free sweep cannot fail")
}

/// A sweep on 4 workers and the sequential runner produce
/// byte-identical JSON for the PolyBench suite.
#[test]
fn parallel_polybench_sweep_is_byte_identical_to_sequential() {
    let apps = polybench();
    let fws = [Framework::Soff];
    let seq = sweep(&apps, &fws, 1);
    let par = sweep(&apps, &fws, 4);
    assert_eq!(seq.len(), apps.len());
    let (dseq, dpar) = (digest(&seq), digest(&par));
    assert!(
        dseq == dpar,
        "parallel sweep diverged from sequential:\n--- sequential\n{dseq}\n--- parallel\n{dpar}"
    );
    // Paranoia beyond the digest: the per-cell structs agree field by
    // field on everything deterministic.
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.app, p.app);
        assert_eq!(s.fw, p.fw);
        assert_eq!(s.result, p.result, "{}: results diverged", s.app);
        assert!(s.panic.is_none() && p.panic.is_none(), "{}: unexpected panic", s.app);
    }
}

/// A repeated-config sweep (the same cells three times — the shape of
/// re-running fig11/fig12/table2 in one process) over all three
/// frameworks must also digest identically at 1 and 4 workers, and each
/// repeat, executed again, must reproduce its first run exactly.
#[test]
fn repeated_cells_digest_identically_at_one_and_four_jobs() {
    let apps: Vec<App> =
        polybench().into_iter().filter(|a| a.name == "atax" || a.name == "mvt").collect();
    let fws = [Framework::Soff, Framework::XilinxLike, Framework::IntelLike];
    let mut tripled = apps.clone();
    tripled.extend(apps.iter().copied());
    tripled.extend(apps.iter().copied());

    let seq = sweep(&tripled, &fws, 1);
    let par = sweep(&tripled, &fws, 4);
    assert_eq!(digest(&seq), digest(&par));

    let pass = apps.len() * fws.len();
    for (i, c) in par.iter().enumerate().skip(pass) {
        let first = &par[i % pass];
        assert_eq!((c.app, c.fw), (first.app, first.fw));
        assert_eq!(c.result, first.result, "{} on {}: a repeat diverged", c.app, c.fw);
    }
}
