//! Ablation study of SOFF's design choices (beyond the paper's figures;
//! DESIGN.md's per-experiment index calls these out):
//!
//! 1. **FIFO balancing off** (§IV-C): channels get capacity 1 — Case-2
//!    stalls throttle every join.
//! 2. **N_min loop limit** (§IV-E3): loops capped at the conservative
//!    minimum-cycle capacity with no back-edge FIFO — lower utilization
//!    when work-items take the long path.
//! 3. **Shared cache** (§V-A): one cache for all buffers instead of one
//!    per (buffer × datapath) — arbitration and conflict misses.
//! 4. **Near-maximum latency sweep** (§IV-A): L_F for global memory in
//!    {8, 16, 32, 64, 128}.
//! 5. **Uniform-loop SWGR elision off** (§IV-F1): every loop in a barrier
//!    kernel is serialized to one work-group at a time — measured on a
//!    separate barrier kernel whose loop bound is a kernel argument.
//!
//! ```text
//! cargo run --release -p soff-bench --bin ablation [--json] [--jobs N] [--resume <journal>]
//! ```
//!
//! `--resume <journal>` makes the study crash-recoverable: each
//! variant's cycle count is durably appended as it completes, and a
//! journal left by a killed run replays those variants instead of
//! re-simulating them.

use soff_baseline::Outcome;
use soff_bench::json::{write_bench_rows, Json};
use soff_bench::{jobs_flag, resume_flag};
use soff_datapath::hierarchy::DatapathOptions;
use soff_datapath::{Datapath, LatencyModel};
use soff_ir::ir::Kernel;
use soff_ir::mem::{ArgValue, GlobalMemory};
use soff_ir::NdRange;
use soff_obs::{fnv1a, FNV_OFFSET};
use soff_sim::{run, SimConfig};
use soff_workloads::journal::{Journal, JournalError, Record};
use soff_workloads::AppResult;
use std::collections::HashMap;
use std::sync::Mutex;

/// A variant's journal record: the cycle count rides in the standard
/// sweep-record shape (`fw` marks it as an ablation row).
fn variant_record(name: &str, cycles: u64) -> Record {
    Record {
        app: name.to_string(),
        fw: "ablation".to_string(),
        scale: "-".to_string(),
        result: AppResult {
            outcome: Outcome::Ok,
            seconds: 0.0,
            cycles,
            launches: 1,
            replication: 1,
        },
        panicked: false,
        attempts: 1,
    }
}

/// A memory-bound reduction kernel with a branchy loop: every ablated
/// mechanism matters for it.
const SRC: &str = r#"
__kernel void reduce(__global const float* a, __global const float* b,
                     __global float* o, int n) {
    int i = get_global_id(0);
    float acc = 0.0f;
    for (int j = 0; j < n; j++) {
        // Pseudo-random gather over a >64 KB region: misses dominate, so
        // the near-maximum latency (how many misses stay in flight) and
        // the cache organization both matter.
        float x = a[(i * 379 + j * 1543) % (n * 512)];
        if (x > 0.5f) acc += x / b[j % 16];
        else acc += x * 0.25f;
    }
    o[i] = acc;
}
"#;

struct Variant {
    name: &'static str,
    opts: DatapathOptions,
    lat: LatencyModel,
    shared_cache: bool,
}

fn run_variant(kernel: &Kernel, v: &Variant) -> Result<u64, String> {
    let dp = Datapath::build_opts(kernel, &v.lat, v.opts);

    let n = 64u64;
    let mut gm = GlobalMemory::new();
    let a = gm.alloc((n * 512 * 4) as usize);
    let b = gm.alloc(16 * 4);
    let o = gm.alloc((n * 16 * 4) as usize);
    for i in 0..n * 512 {
        gm.buffer_mut(a).write_scalar(
            i * 4,
            soff_frontend::types::Scalar::F32,
            ((i % 17) as f32 / 16.0).to_bits() as u64,
        );
    }
    for i in 0..16 {
        gm.buffer_mut(b).write_scalar(
            i * 4,
            soff_frontend::types::Scalar::F32,
            (1.0f32 + i as f32).to_bits() as u64,
        );
    }
    let cfg = SimConfig {
        num_instances: 2,
        force_shared_cache: v.shared_cache,
        ..SimConfig::default()
    };
    let res = run(
        kernel,
        &dp,
        &cfg,
        NdRange::dim1(n * 16, 16),
        &[ArgValue::Buffer(a), ArgValue::Buffer(b), ArgValue::Buffer(o), ArgValue::Scalar(n)],
        &mut gm,
    )
    .map_err(|e| e.to_string())?;
    Ok(res.cycles)
}

fn main() {
    let base = Variant {
        name: "full SOFF (baseline)",
        opts: DatapathOptions::default(),
        lat: LatencyModel::default(),
        shared_cache: false,
    };
    let variants = [
        Variant {
            name: "no FIFO balancing (§IV-C)",
            opts: DatapathOptions { balance_fifos: false, ..Default::default() },
            ..make_like(&base)
        },
        Variant {
            name: "N_min loop limit (§IV-E3)",
            opts: DatapathOptions { loop_limit_max: false, ..Default::default() },
            ..make_like(&base)
        },
        Variant {
            name: "single shared cache (§V-A)",
            shared_cache: true,
            ..make_like(&base)
        },
        Variant {
            name: "L_F(mem)=8",
            lat: LatencyModel { global_mem: 8, ..LatencyModel::default() },
            ..make_like(&base)
        },
        Variant {
            name: "L_F(mem)=16",
            lat: LatencyModel { global_mem: 16, ..LatencyModel::default() },
            ..make_like(&base)
        },
        Variant {
            name: "L_F(mem)=32",
            lat: LatencyModel { global_mem: 32, ..LatencyModel::default() },
            ..make_like(&base)
        },
        Variant {
            name: "L_F(mem)=128",
            lat: LatencyModel { global_mem: 128, ..LatencyModel::default() },
            ..make_like(&base)
        },
    ];

    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let jobs = jobs_flag(&args);
    let resume = resume_flag(&args);
    let mut jrows = Vec::new();
    let jrow = |name: &str, cycles: Option<u64>, vs: Option<f64>| {
        Json::obj(vec![
            ("variant", Json::str(name)),
            ("cycles", cycles.map_or(Json::Null, |c| Json::Int(c as i64))),
            ("vs_baseline", vs.map_or(Json::Null, Json::Num)),
        ])
    };

    println!("Ablations on the branchy memory-bound reduction kernel");
    println!("{:-<58}", "");
    println!("{:<30} {:>10} {:>12}", "variant", "cycles", "vs baseline");
    println!("{:-<58}", "");
    // Fan all nine variants (baseline + ablations) across the pool. A
    // variant that fails — or whose task panics — becomes a failure row
    // (the deadlock forensics go to stderr); the sweep always completes.
    let all: Vec<&Variant> = std::iter::once(&base).chain(variants.iter()).collect();

    // Crash recovery: replay a resume journal (variants it holds are not
    // re-simulated) and append each fresh completion durably, in-worker.
    // The study's identity is FNV-1a over the ordered variant keys, so a
    // journal from a different variant list reads as stale.
    let barrier_keys = ["uniform-loop-on", "uniform-loop-off"];
    let keys: Vec<&str> =
        all.iter().map(|v| v.name).chain(barrier_keys.iter().copied()).collect();
    let identity = fnv1a(FNV_OFFSET, keys.join("\n").as_bytes());
    let mut replayed: HashMap<String, u64> = HashMap::new();
    let journal = match &resume {
        // `recover` also truncates a torn tail, so the next append starts
        // on a fresh line, and creates a missing journal.
        Some(path) => match Journal::recover(path, identity) {
            Ok((records, j)) => {
                replayed.extend(records.into_iter().map(|r| (r.app, r.result.cycles)));
                Some(j)
            }
            Err(e) => {
                eprintln!("cannot resume: {e}");
                std::process::exit(1);
            }
        },
        None => None,
    };
    let append_error: Mutex<Option<JournalError>> = Mutex::new(None);
    let append = |name: &str, cycles: u64| {
        if let Some(j) = &journal {
            if let Err(e) = j.append(&variant_record(name, cycles)) {
                append_error.lock().unwrap_or_else(|e| e.into_inner()).get_or_insert(e);
            }
        }
    };

    let todo: Vec<(usize, &Variant)> = all
        .iter()
        .enumerate()
        .filter(|(_, v)| !replayed.contains_key(v.name))
        .map(|(i, v)| (i, *v))
        .collect();
    // One frontend+lower pass, shared by every variant: only the datapath
    // and the simulation differ between them.
    let module = soff_runtime::cache::lower_cached(SRC, &[]).expect("the reduction compiles");
    let kernel = module.kernel("reduce").expect("kernel `reduce`");
    let ran = soff_exec::run_tasks(jobs, todo.clone(), |_, (_, v): (usize, &Variant)| {
        let r = run_variant(kernel, v);
        if let Ok(c) = r {
            append(v.name, c);
        }
        r
    });
    let mut measured: Vec<Result<u64, String>> = all
        .iter()
        .map(|v| {
            replayed
                .get(v.name)
                .map(|&c| Ok(c))
                .unwrap_or_else(|| Err("variant did not run".to_string()))
        })
        .collect();
    for ((i, _), r) in todo.iter().zip(ran) {
        measured[*i] = match r {
            Ok(inner) => inner,
            Err(soff_exec::TaskError::Panicked { message }) => {
                Err(format!("variant panicked: {message}"))
            }
        };
    }
    let rest = measured.split_off(1);
    let base_cycles = match measured.remove(0) {
        Ok(c) => {
            println!("{:<30} {:>10} {:>11.2}x", base.name, c, 1.0);
            Some(c)
        }
        Err(e) => {
            eprintln!("{}", e);
            println!("{:<30} {:>10} {:>11}", base.name, "FAILED", "-");
            None
        }
    };
    jrows.push(jrow(base.name, base_cycles, base_cycles.map(|_| 1.0)));
    for (v, r) in variants.iter().zip(rest) {
        match r {
            Ok(c) => {
                let vs = base_cycles.map(|b| c as f64 / b as f64);
                match vs {
                    Some(r) => println!("{:<30} {:>10} {:>11.2}x", v.name, c, r),
                    None => println!("{:<30} {:>10} {:>11}", v.name, c, "-"),
                }
                jrows.push(jrow(v.name, Some(c), vs));
            }
            Err(e) => {
                eprintln!("{}", e);
                println!("{:<30} {:>10} {:>11}", v.name, "FAILED", "-");
                jrows.push(jrow(v.name, None, None));
            }
        }
    }
    println!("{:-<58}", "");
    println!("(>1.00x = slower than full SOFF; each mechanism should cost when removed)");

    // The §IV-F1 uniform-loop optimization, on a barrier kernel.
    println!();
    println!("Uniform-trip-count loop analysis (§IV-F1), barrier kernel:");
    let barrier = |key: &str, uniform: bool| -> Result<u64, String> {
        if let Some(&c) = replayed.get(key) {
            return Ok(c);
        }
        let r = run_barrier_variant(uniform);
        if let Ok(c) = r {
            append(key, c);
        }
        r
    };
    match (barrier("uniform-loop-on", true), barrier("uniform-loop-off", false)) {
        (Ok(with), Ok(without)) => {
            println!("  with analysis (no SWGR)    : {with:>10} cycles");
            println!(
                "  without (SWGR serializes)  : {without:>10} cycles  ({:.2}x)",
                without as f64 / with as f64
            );
            jrows.push(jrow("uniform-loop analysis on (§IV-F1)", Some(with), Some(1.0)));
            jrows.push(jrow(
                "uniform-loop analysis off (SWGR)",
                Some(without),
                Some(without as f64 / with as f64),
            ));
        }
        (with, without) => {
            for (name, r) in [("with analysis", with), ("without", without)] {
                match r {
                    Ok(c) => {
                        println!("  {name:<27}: {c:>10} cycles");
                        jrows.push(jrow(name, Some(c), None));
                    }
                    Err(e) => {
                        eprintln!("{}", e);
                        println!("  {name:<27}:     FAILED");
                        jrows.push(jrow(name, None, None));
                    }
                }
            }
        }
    }

    if json {
        match write_bench_rows("ablation", jrows) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => eprintln!("could not write JSON: {e}"),
        }
    }

    // A journal append failing means durability silently degraded — the
    // next resume would redo (or worse, misreport) work. Fail loudly.
    if let Some(e) = append_error.into_inner().unwrap_or_else(|e| e.into_inner()) {
        eprintln!("journal append failed: {e}");
        std::process::exit(1);
    }
}

/// A barrier kernel whose loop bound is a kernel argument: §IV-F1's
/// analysis proves it uniform, so the loop keeps ordinary entrance glue
/// and work-groups overlap inside it; disabling the analysis serializes
/// them.
// Uses a *global*-fence barrier and no local memory, so the §V-B
// work-group slot gating does not apply and the loop's SWGR policy is the
// only thing limiting work-group overlap.
const BARRIER_SRC: &str = r#"
__kernel void neigh(__global float* tmp, __global const float* a,
                    __global float* o, int n) {
    int g = get_global_id(0);
    float s = 0.0f;
    for (int j = 0; j < n; j++) s += a[(g + j * 64) % (n * 64)];
    tmp[g] = s;
    barrier(CLK_GLOBAL_MEM_FENCE);
    o[g] = tmp[(int)((ulong)g ^ 1UL)] + s;
}
"#;

fn run_barrier_variant(uniform_opt: bool) -> Result<u64, String> {
    let module = soff_runtime::cache::lower_cached(BARRIER_SRC, &[])
        .map_err(|d| format!("compile failed: {d}"))?;
    let kernel = module.kernel("neigh").ok_or("kernel `neigh` missing")?;
    let opts = DatapathOptions { uniform_loop_opt: uniform_opt, ..Default::default() };
    let dp = Datapath::build_opts(kernel, &LatencyModel::default(), opts);
    let n = 32u64;
    let mut gm = GlobalMemory::new();
    let tmp = gm.alloc((n * 64 * 4) as usize);
    let a = gm.alloc((n * 64 * 4) as usize);
    let o = gm.alloc((n * 64 * 4) as usize);
    let cfg = SimConfig { num_instances: 2, ..SimConfig::default() };
    run(
        kernel,
        &dp,
        &cfg,
        NdRange::dim1(n * 16, 16),
        &[
            ArgValue::Buffer(tmp),
            ArgValue::Buffer(a),
            ArgValue::Buffer(o),
            ArgValue::Scalar(n),
        ],
        &mut gm,
    )
    .map(|r| r.cycles)
    .map_err(|e| e.to_string())
}

fn make_like(base: &Variant) -> Variant {
    Variant {
        name: base.name,
        opts: base.opts,
        lat: base.lat.clone(),
        shared_cache: base.shared_cache,
    }
}
