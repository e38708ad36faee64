//! Line-buffer differential test over the stencil suite.
//!
//! For every stencil app (plain and temporally blocked) we run all four
//! scheduler × line-buffer combinations and require:
//!
//!   * the app's own output check passes in every configuration,
//!   * every buffer in the machine is byte-identical across all four runs
//!     (the line buffer is a performance feature, never a semantic one),
//!   * with the line buffer enabled the window path actually engages
//!     (`accesses > 0`) and its bookkeeping balances
//!     (`window_hits + underruns == accesses`),
//!   * with the line buffer disabled no line-buffer activity is recorded.

use soff_sim::Scheduler;
use soff_workloads::data::Scale;
use soff_workloads::stencil::{run_stencil, stencil_app_names};

const SCHEDULERS: [Scheduler; 2] = [Scheduler::Dense, Scheduler::Fast];

#[test]
fn stencil_apps_bit_identical_lb_on_vs_off_across_backends() {
    let apps = soff_workloads::all_apps();
    for name in stencil_app_names() {
        let app = apps
            .iter()
            .find(|a| a.name == name)
            .unwrap_or_else(|| panic!("{name}: not in registry"));
        let mut reference: Option<Vec<Vec<u8>>> = None;
        for lb in [true, false] {
            for sched in SCHEDULERS {
                let run = run_stencil(app, Scale::Small, sched, lb)
                    .unwrap_or_else(|o| panic!("{name} (lb={lb}, {sched:?}): {o:?}"));
                assert!(run.correct, "{name}: wrong output (lb={lb}, {sched:?})");
                if lb {
                    assert!(
                        run.line_buf.accesses > 0,
                        "{name}: line buffer never engaged ({sched:?})"
                    );
                    assert_eq!(
                        run.line_buf.window_hits + run.line_buf.underruns,
                        run.line_buf.accesses,
                        "{name}: line-buffer stats don't balance ({sched:?})"
                    );
                } else {
                    assert_eq!(
                        run.line_buf.accesses, 0,
                        "{name}: line-buffer activity with LB disabled ({sched:?})"
                    );
                }
                match &reference {
                    None => reference = Some(run.buffers),
                    Some(want) => assert_eq!(
                        want, &run.buffers,
                        "{name}: buffers diverge (lb={lb}, {sched:?})"
                    ),
                }
            }
        }
    }
}
