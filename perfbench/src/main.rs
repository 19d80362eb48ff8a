//! End-to-end SQL benchmark of the engine.
//!
//! ```text
//! perfbench --workload <point|olap|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the seeded tables and queries, sets the engine up several
//! times (reporting the median set-up time), computes each distinct query's
//! expected rows with a sequential `Session::sql` on the first and the last
//! set-up (which must agree exactly), then runs the workload's closed-loop
//! callers for `--seconds`, checking every reply. The last line
//! of standard output is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). A traced run
//! measures untraced for half the time and traced for the other half, and
//! writes its spans to `.perfbench/spans-<workload>-seed<n>.json`.
//!
//! See `README.md` in this directory for what each metric means.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use perfbench::drive::{run_phase, Phase};
use perfbench::queries::{QuerySet, Scale, Workload};
use perfbench::report::{result_line, Values, END_TO_END, PER_LAYER};
use perfbench::setup::{census, ctx, set_up, Census, Dataset, Engine, Result, SetupTimes};
use perfbench::{spans, stats};

/// Command-line options.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

const USAGE: &str = "usage: perfbench --workload <point|olap|serve> --seed <n> --seconds <s> \
                     --trace <0|1>\n\
                     (tests only: --rows <lineitem rows>, a smaller dataset than the benchmark's)";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Where traced runs write their spans, under the working directory.
const OUT_DIR: &str = ".perfbench";

fn parse_args() -> Result<Args> {
    let mut args = Args {
        workload: Workload::Point,
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: Scale::FULL,
    };
    let mut seen_workload = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Workload::parse(&value).ok_or(format!("unknown workload {value}"))?;
                seen_workload = true;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--rows" => args.scale = Scale::of(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !seen_workload || args.seconds <= 0.0 || args.scale.lineitem < 4000 {
        return Err(USAGE.into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Set up [`SETUPS`] times; keep the last engine. The census runs on the
/// first and the last set-up, each from freshly generated tables, and the
/// two must agree exactly.
fn set_up_repeatedly(args: &Args, set: &QuerySet) -> Result<(Engine, Census, Vec<SetupTimes>)> {
    let mut times = Vec::new();
    let mut first: Option<Census> = None;
    let mut engine: Option<Engine> = None;
    let mut data: Option<Dataset> = None;
    for k in 0..SETUPS {
        if let Some(previous) = engine.take() {
            previous.shut_down();
        }
        let census_here = k == 0 || k + 1 == SETUPS;
        if census_here {
            data = Some(Dataset::generate(args.scale, args.seed));
        }
        let (e, t) = set_up(args.workload, data.as_ref().ok_or("no data")?)?;
        times.push(t);
        if census_here {
            let c = census(e.session(), set)?;
            if let Some(f) = &first {
                if let Some(diff) = f.first_difference(&c) {
                    return Err(format!(
                        "same seed, different deterministic figures across set-ups: {diff}"
                    ));
                }
            } else {
                first = Some(c);
            }
        }
        engine = Some(e);
    }
    let engine = engine.ok_or("no set-up ran")?;
    Ok((engine, first.ok_or("no census ran")?, times))
}

fn run(args: &Args) -> Result<String> {
    let set = QuerySet::generate(args.workload, args.scale, args.seed);
    let (mut engine, census, setups) = set_up_repeatedly(args, &set)?;
    let parallelism = args.workload.parallelism();
    if let Engine::Local(session) = &mut engine {
        session.parallelism = parallelism;
    }
    eprintln!(
        "perfbench: {} seed {} — {} distinct queries {:?}, {} callers, parallelism \
         {parallelism}, {} cores available",
        args.workload.name(),
        args.seed,
        set.distinct.len(),
        set.template_counts(),
        set.streams.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let run_for = |seconds: f64, traced: bool| -> Result<Phase> {
        let phase = run_phase(&engine, parallelism, &set, &census, seconds, traced)?;
        let close = phase.close();
        if close > 0 {
            eprintln!(
                "perfbench: {close} replies matched the sequential census only within float \
                 tolerance (parallel summation order)"
            );
        }
        eprintln!(
            "perfbench: {} queries in {:.2} s wall, {:.2} s CPU; host steal {:.2} s, \
             reference work {:.3} ms",
            phase.counts().0,
            phase.wall_s,
            phase.cpu_s,
            phase.steal_s,
            phase.reference_ms
        );
        Ok(phase)
    };
    let mut values = Values::default();
    let line = if args.trace {
        let untraced = run_for(args.seconds / 2.0, false)?;
        let traced = run_for(args.seconds / 2.0, true)?;
        per_layer(args, &census, &setups, &untraced, &traced, &mut values)?;
        let (a1, f1) = untraced.counts();
        let (a2, f2) = traced.counts();
        result_line(f1 + f2 == 0, a1 + a2, f1 + f2, &PER_LAYER, &values)?
    } else {
        let phase = run_for(args.seconds, false)?;
        end_to_end(args.workload, &census, &setups, &phase, &mut values);
        let (attempted, failed) = phase.counts();
        result_line(failed == 0, attempted, failed, &END_TO_END, &values)?
    };
    engine.shut_down();
    Ok(line)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Peak resident set (VmHWM) in MB.
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall-clock figures of a whole phase.
struct Figures {
    qps: f64,
    p50: f64,
    p90: f64,
    p99: f64,
    pass_s: f64,
    geomean: f64,
}

/// Median latency (ms) per template, over the templates that ran.
fn template_medians(workload: Workload, phase: &Phase) -> Vec<f64> {
    (0..workload.templates().len())
        .map(|t| {
            let v: Vec<f64> = phase
                .samples()
                .filter(|s| s.template == t)
                .map(|s| ms(s.latency_ns))
                .collect();
            stats::median(&v)
        })
        .filter(|&m| m > 0.0)
        .collect()
}

/// Median wall time (s) of one whole cycle of a round-robin caller's
/// pattern; where the mix is drawn at random instead, the sum of the
/// template medians.
fn pass_s(workload: Workload, phase: &Phase) -> f64 {
    let Some(len) = workload.pass_len() else {
        return template_medians(workload, phase).iter().sum::<f64>() / 1e3;
    };
    let mut passes: BTreeMap<(usize, u64), (usize, u64)> = BTreeMap::new();
    for (c, caller) in phase.callers.iter().enumerate() {
        for s in &caller.samples {
            let pass = passes.entry((c, s.seq / len as u64)).or_default();
            pass.0 += 1;
            pass.1 += s.latency_ns;
        }
    }
    let whole: Vec<f64> = passes
        .values()
        .filter(|(n, _)| *n == len)
        .map(|&(_, ns)| ns as f64 / 1e9)
        .collect();
    stats::median(&whole)
}

/// The figures over every query of `phase`.
fn figures(workload: Workload, phase: &Phase) -> Figures {
    let lat: Vec<f64> = phase.samples().map(|s| ms(s.latency_ns)).collect();
    Figures {
        qps: phase.qps(),
        p50: stats::quantile(&lat, 0.50),
        p90: stats::quantile(&lat, 0.90),
        p99: stats::quantile(&lat, 0.99),
        pass_s: pass_s(workload, phase),
        geomean: stats::geomean(&template_medians(workload, phase)),
    }
}

fn end_to_end(
    workload: Workload,
    census: &Census,
    setups: &[SetupTimes],
    phase: &Phase,
    out: &mut Values,
) {
    let f = figures(workload, phase);
    let (attempted, failed) = phase.counts();
    let setup: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    out.set("setup_s", stats::median(&setup));
    out.set("qps", f.qps);
    out.set("lat_p50_ms", f.p50);
    out.set("pass_s", f.pass_s);
    out.set("query_geomean_ms", f.geomean);
    out.set("fabric_bytes_per_query", census.mean(|f| f.fabric_bytes));
    out.set("sim_ms_per_query", census.mean(|f| f.sim_ns) / 1e6);
    out.set("rss_peak_mb", rss_peak_mb());
    out.set("ok_share", 1.0 - failed as f64 / attempted.max(1) as f64);
}

fn per_layer(
    args: &Args,
    census: &Census,
    setups: &[SetupTimes],
    untraced: &Phase,
    traced: &Phase,
    out: &mut Values,
) -> Result<()> {
    let totals = spans::per_query_self_ns(&traced.spans);
    let empty = BTreeMap::new();
    let of = |name: &str| totals.get(name).unwrap_or(&empty);
    // Median over queries of a layer's per-query self time, in µs.
    let us = |name: &str| stats::median_u64(&of(name).values().copied().collect::<Vec<_>>()) / 1e3;
    let sum_ns = |name: &str| of(name).values().sum::<u64>() as f64;

    let gbps = |name: &str| {
        let ns = sum_ns(name);
        if ns > 0.0 {
            traced.counters.codec_bytes as f64 / ns
        } else {
            0.0
        }
    };
    let serve = args.workload == Workload::Serve;
    let served = |v: f64| if serve { v } else { 0.0 };
    let batches: Vec<f64> = traced
        .counters
        .batches_out
        .iter()
        .map(|&b| b as f64)
        .collect();
    let credits: Vec<f64> = traced.counters.credits.iter().map(|&c| c as f64).collect();
    let load: Vec<f64> = setups.iter().map(|t| t.load_s).collect();
    let profile: Vec<f64> = setups.iter().map(|t| t.profile_s).collect();

    out.set("sql.parse_us", us("sql.parse"));
    out.set("optimizer.variants_us", us("optimizer.variants"));
    out.set("optimizer.variants", census.mean(|f| f.variants));
    out.set("pipeline.compile_us", us("pipeline.compile"));
    out.set("pipeline.verify_us", us("pipeline.verify"));
    out.set("pipeline.pipelines", census.mean(|f| f.pipelines));
    out.set("pipeline.fabric_edges", census.mean(|f| f.fabric_edges));
    out.set("check.deadlock_us", us("check.deadlock"));
    out.set("check.model_states", census.mean(|f| f.model_states));
    out.set(
        "exec.execute_us",
        stats::median(&traced.counters.exec_ns) / 1e3,
    );
    out.set("exec.rows_out", census.mean(|f| f.rows_out));
    out.set("exec.batches_out", stats::mean(&batches));
    let (a1, _) = untraced.counts();
    let (a2, _) = traced.counts();
    out.set(
        "exec.inexact_share",
        (untraced.close() + traced.close()) as f64 / (a1 + a2).max(1) as f64,
    );
    out.set("session.glue_us", us("query"));
    out.set("storage.scan_us", us("storage.scan"));
    out.set(
        "storage.pages_pruned_share",
        census.share(|f| f.pages_pruned, |f| f.pages_total),
    );
    out.set(
        "storage.bytes_returned_share",
        census.share(|f| f.bytes_returned, |f| f.bytes_scanned),
    );
    out.set("storage.rows_scanned", census.mean(|f| f.rows_scanned));
    out.set("storage.load_s", stats::median(&load));
    out.set("codec.decode_gbps", gbps("codec.decode"));
    out.set("codec.encode_gbps", gbps("codec.encode"));
    out.set("codec.wire_size_us", us("codec.wire_size"));
    out.set("optimizer.profile_s", stats::median(&profile));
    out.set("fabric.flow_specs_us", us("fabric.flow_specs"));
    out.set("serve.admission_us", us("serve.admission"));
    out.set("serve.credits", stats::mean(&credits));
    out.set("serve.run_sql_us", us("serve.run_sql"));
    out.set(
        "serve.dispatch_residual_us",
        stats::median(&traced.counters.residual_ns) / 1e3,
    );
    out.set(
        "serve.protocol_us",
        stats::median(&traced.counters.protocol_ns) / 1e3,
    );
    out.set("serve.encode_result_us", us("serve.encode_result"));
    out.set("serve.decode_result_us", us("serve.decode_result"));
    out.set(
        "serve.result_frames",
        served(census.mean(|f| f.result_frames)),
    );
    out.set(
        "serve.result_bytes",
        served(census.mean(|f| f.result_bytes)),
    );
    let tail = figures(args.workload, untraced);
    out.set("lat_p90_ms", tail.p90);
    out.set("lat_p99_ms", tail.p99);
    out.set(
        "host.reference_ms",
        (untraced.reference_ms + traced.reference_ms) / 2.0,
    );
    let traced_qps = traced.busy_qps();
    let untraced_qps = untraced.busy_qps();
    out.set("trace.qps", traced_qps);
    out.set("trace.untraced_qps", untraced_qps);
    out.set(
        "trace.overhead_share",
        1.0 - traced_qps / untraced_qps.max(1e-9),
    );

    std::fs::create_dir_all(OUT_DIR).map_err(ctx("create out dir"))?;
    let path = Path::new(OUT_DIR).join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, spans::to_json(&traced.spans, &totals)).map_err(ctx("write spans"))?;
    eprintln!("perfbench: spans written to {}", path.display());
    eprintln!(
        "{:<28} {:>8} {:>14} {:>16}",
        "layer", "queries", "self total ms", "median us/query"
    );
    for (name, per_query) in &totals {
        let v: Vec<u64> = per_query.values().copied().collect();
        eprintln!(
            "{name:<28} {:>8} {:>14.3} {:>16.2}",
            v.len(),
            v.iter().sum::<u64>() as f64 / 1e6,
            stats::median_u64(&v) / 1e3
        );
    }
    Ok(())
}
