//! The repository benchmark: one workload per run, every output checked,
//! every metric printed by name with its unit.
//!
//! ```text
//! bddcf-perfbench --workload words|arith|serve --seed N --seconds S --trace 0|1
//!                 [--inject-wait <span>=<ms>]
//! ```
//!
//! The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` repeats the measurement with spans
//! recorded around each call into a layer and reports the per-layer
//! metrics, writing the spans to `.bench_work/trace-<workload>-<seed>.json`
//! as Chrome trace events. `--inject-wait` adds a fixed wait inside one
//! span (the sensitivity self-check). Wall times are reported as measured,
//! with no calibration divisor; `run.py` prints the host facts beside them.
//!
//! Every workload reports every metric. On the batch workloads (`words`,
//! `arith`) a request is one pass over the workload's functions:
//! `serve_p50_ms`/`serve_p99_ms` are over the run's passes and
//! `serve_goodput_rps` counts correct functions per second of pass time.
//! On `serve`, `synth_wall_s` is the local recomputation of the run's
//! distinct specs that the replies are checked against, and the quality
//! sums are over those specs. `error_rate` is `(failed + 1) / (attempted +
//! 1)`, so a clean run reads as a small non-zero base rate.
//! `serve_p99_ms` is printed with the per-layer metrics, which carry no
//! bound: on `serve` a handful of slow replies set it, and its spread
//! between runs is wider than any bound the benchmark may set.
//!
//! `--generate <addr> --connections <n>` is the serve workload's generator
//! process, which the benchmark starts itself.

mod batch;
mod common;
mod serve;
mod trace;

use common::Metrics;
use std::process::ExitCode;
use std::time::Duration;

/// Where run artifacts (traces, the serve spool) go, relative to the
/// directory the benchmark runs in.
pub const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject: Option<(String, Duration)>,
    /// Set in the serve workload's generator process: the daemon address.
    generate: Option<String>,
    connections: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        inject: None,
        generate: None,
        connections: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            "--inject-wait" => {
                let (name, ms) = value
                    .split_once('=')
                    .ok_or("--inject-wait takes <span>=<ms>")?;
                let ms: u64 = ms.parse().map_err(|e| format!("--inject-wait: {e}"))?;
                args.inject = Some((name.to_owned(), Duration::from_millis(ms)));
            }
            "--generate" => args.generate = Some(value),
            "--connections" => {
                args.connections = value.parse().map_err(|e| format!("--connections: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.generate.is_none() && !["words", "arith", "serve"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Writes the Chrome trace of a traced run.
pub fn write_trace(workload: &str, seed: u64, json: &str) {
    let path = format!("{WORK_DIR}/trace-{workload}-{seed}.json");
    if let Err(e) = std::fs::create_dir_all(WORK_DIR).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("cannot write {path}: {e}");
    }
}

/// The end-to-end metrics (`--trace 0`), each with its unit.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("synth_wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cascade_memory_bits", "bits"),
    ("cascade_cells", "count"),
    ("cf_width_sum", "count"),
    ("error_rate", "ratio"),
    ("serve_p50_ms", "ms"),
    ("serve_goodput_rps", "1/s"),
];

/// The per-layer metrics (`--trace 1`). A layer a workload does not run
/// reads 0 there.
const PER_LAYER: [(&str, &str); 34] = [
    ("core.sift_s", "s"),
    ("core.alg33_s", "s"),
    ("core.support_s", "s"),
    ("funcs.build_s", "s"),
    ("cascade.synth_s", "s"),
    ("cascade.prepare_useful_ratio", "ratio"),
    ("cascade.addrgen_s", "s"),
    ("io.emit_s", "s"),
    ("io.emit_bytes", "bytes"),
    ("bdd.gc_runs", "count"),
    ("bdd.gc_pause_s", "s"),
    ("bdd.cache_hit_ratio", "ratio"),
    ("bdd.cache_lookups", "count"),
    ("bdd.unique_probe_len", "probes/lookup"),
    ("core.support.removed_vars", "count"),
    ("core.alg33.width_sum", "count"),
    ("bdd.peak_arena_bytes", "bytes"),
    ("serve.execute_ms", "ms"),
    ("check.audit_ms", "ms"),
    ("io.parse_pla_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.worker_util", "ratio"),
    ("bdd.vfs.sync_ms", "ms"),
    ("bdd.vfs.ops", "count"),
    ("serve.queue_max", "count"),
    ("serve.queue_mean", "count"),
    ("serve.residual_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.infeasible_frac", "ratio"),
    ("serve.gen_late_ms", "ms"),
    ("serve.requests", "count"),
    ("serve_p99_ms", "ms"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The metrics object of the result line: every listed metric, in order.
fn render(list: &[(&str, &str)], values: &Metrics) -> String {
    let body: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let value = values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((name, wait)) = &args.inject {
        trace::set_injected_wait(name, *wait);
    }
    if let Some(addr) = &args.generate {
        return match serve::generate(addr, args.seed, args.seconds, args.connections) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("generator: {e}");
                ExitCode::from(1)
            }
        };
    }
    let (attempted, failed, metrics) = match args.workload.as_str() {
        "serve" => serve::run(args.seed, args.seconds, args.trace),
        w => batch::run(w, args.seed, args.seconds, args.trace),
    };
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        render(list, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
