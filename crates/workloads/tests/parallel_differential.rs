//! Differential suite for the parallel sweep engine: the deduplicated
//! parallel driver must be observationally identical to the plain
//! sequential loop it replaced — byte-identical canonical JSON over the
//! PolyBench suite — and the compile cache must stay invisible in the
//! results while actually being exercised.

use soff_baseline::Framework;
use soff_workloads::data::Scale;
use soff_workloads::sweep::{digest, run_suite_parallel, SweepOptions};
use soff_workloads::{all_apps, App, Suite};

fn polybench() -> Vec<App> {
    all_apps().into_iter().filter(|a| a.suite == Suite::PolyBench).collect()
}

/// The satellite requirement verbatim: `run_suite_parallel(jobs=4)` and
/// the sequential runner produce byte-identical JSON for the PolyBench
/// suite.
#[test]
fn parallel_polybench_sweep_is_byte_identical_to_sequential() {
    let apps = polybench();
    let fws = [Framework::Soff];
    let seq = run_suite_parallel(&apps, &fws, Scale::Small, &SweepOptions::sequential());
    let par = run_suite_parallel(
        &apps,
        &fws,
        Scale::Small,
        &SweepOptions { jobs: 4, dedup: true, ..SweepOptions::default() },
    );
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
/// frameworks must also digest identically, with the duplicates memoized
/// rather than re-executed.
#[test]
fn repeated_cells_memoize_without_changing_results() {
    let apps: Vec<App> =
        polybench().into_iter().filter(|a| a.name == "atax" || a.name == "mvt").collect();
    let fws = [Framework::Soff, Framework::XilinxLike, Framework::IntelLike];
    let mut tripled = apps.clone();
    tripled.extend(apps.iter().copied());
    tripled.extend(apps.iter().copied());

    let seq = run_suite_parallel(&tripled, &fws, Scale::Small, &SweepOptions::sequential());
    let par = run_suite_parallel(
        &tripled,
        &fws,
        Scale::Small,
        &SweepOptions { jobs: 4, dedup: true, ..SweepOptions::default() },
    );
    assert_eq!(digest(&seq), digest(&par));

    let memoized = par.iter().filter(|c| c.memo_of.is_some()).count();
    assert_eq!(memoized, 2 * apps.len() * fws.len(), "every repeat shares its original");
    assert!(seq.iter().all(|c| c.memo_of.is_none()), "sequential mode never memoizes");
}
