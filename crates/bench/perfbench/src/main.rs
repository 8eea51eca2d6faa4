//! Two-clock benchmark of the Dynatune reproduction.
//!
//! Every workload drives the real stack — `ScenarioBuilder` → `ClusterSim`
//! / `BrokerClusterSim` → `ServerHost` → `RaftNode` → `Store` / `BrokerSm`
//! over `simnet::World` — single-threaded, and is reported on both clocks:
//! host time says how fast the code is, simulated time says what the
//! protocol delivers. See README.md for the workloads, the metrics and how
//! they interact.

// The measurement harness owns the wall clock (the lint's D001 policy for
// `crates/bench`); clippy.toml cannot express that per crate.
#![allow(clippy::disallowed_types)]

mod broker;
mod check;
mod drives;
mod kv;
mod measure;
mod observe;
mod spec;
mod trace;

use drives::Effort;
use observe::Rep;
use spec::{END_TO_END, PER_LAYER, RUN_SECONDS, TIMED_REPS, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

const USAGE: &str = "\
benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
benchmark --smoke                      every workload and drive once, tiny horizons
benchmark --check A B                  compare two captured result sets
benchmark --print-benchmark-json       render BENCHMARK.json from the metric tables

No --workload runs all five. --seconds scales every simulated horizon
(default: the run_seconds of BENCHMARK.json). --trace 1 adds one traced rep
and the per-layer drives; with --out the spans are written there as
Chrome-trace JSON.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    check: Option<(PathBuf, PathBuf)>,
    print_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        out: None,
        smoke: false,
        check: None,
        print_json: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => args.smoke = true,
            "--check" => {
                args.check = Some((
                    PathBuf::from(value("--check")?),
                    PathBuf::from(value("--check")?),
                ));
            }
            "--print-benchmark-json" => args.print_json = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// How one workload is run: horizons, reps, drive effort.
#[derive(Clone, Copy)]
struct Protocol {
    scale: f64,
    warmup_reps: usize,
    timed_reps: usize,
    effort: Effort,
}

fn run_rep(workload: &str, seed: u64, scale: f64, tracer: &mut Tracer) -> Rep {
    match workload {
        "kv_write_wan" => kv::run(&kv::kv_write_wan(seed, scale), tracer),
        "kv_read_lan" => kv::run(&kv::kv_read_lan(seed, scale), tracer),
        "failover_wan" => kv::run(&kv::failover_wan(seed, scale), tracer),
        "fluct_wan" => kv::run(&kv::fluct_wan(seed, scale), tracer),
        "broker_stream" => broker::run(seed, scale, tracer),
        other => unreachable!("workload names are checked at parse time: {other}"),
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

fn run_workload(
    workload: &str,
    seed: u64,
    proto: Protocol,
    trace: bool,
    out: Option<&PathBuf>,
) -> Outcome {
    let mut problems: Vec<String> = Vec::new();
    let mut off = Tracer::new(false);
    // Every rep runs between two speed probes; its host times are scaled
    // to calibration speed (see `measure::probed`).
    let mut all: Vec<(Rep, f64)> = Vec::new();
    for i in 0..proto.warmup_reps + proto.timed_reps {
        let (rep, speed) = measure::probed(|| run_rep(workload, seed, proto.scale, &mut off));
        // Same seed, same simulated outcome, bit for bit: the determinism
        // gate, and what makes the spread of host times pure machine noise.
        if let Some(diff) = all
            .first()
            .and_then(|(f, _)| f.sim.first_difference(&rep.sim))
        {
            problems.push(format!("rep {i} differs from rep 0: {diff}"));
        }
        all.push((rep, speed));
    }
    problems.extend(all[0].0.sim.violations.iter().cloned());
    // Set-up repeats in every rep, the discarded one included.
    let mut setups: Vec<f64> = all
        .iter()
        .map(|(r, speed)| r.setup.as_secs_f64() * speed)
        .collect();
    let reps = &all[proto.warmup_reps..];
    let peak_rss_mib = measure::peak_rss_mib();

    let mut raw: Vec<f64> = reps.iter().map(|(r, _)| r.run.as_secs_f64()).collect();
    let mut speeds: Vec<f64> = reps.iter().map(|&(_, speed)| speed).collect();
    let mut walls: Vec<f64> = raw.iter().zip(&speeds).map(|(r, s)| r * s).collect();
    eprintln!("{workload}: rep host seconds {raw:.3?} at speeds {speeds:.2?}");
    let rep_wall = measure::median(&mut walls);
    let rep_wall_raw = measure::median(&mut raw);
    let mut cpu_over_wall: Vec<f64> = reps
        .iter()
        .map(|(r, _)| r.cpu.as_secs_f64() / r.run.as_secs_f64())
        .collect();
    let base = &reps[0].0;

    let mut m: BTreeMap<&'static str, f64> = base.sim.values.clone();
    m.insert("setup_s", measure::median(&mut setups));
    m.insert("ops_per_wall_s", base.ops as f64 / rep_wall);
    m.insert("peak_rss_mib", peak_rss_mib);
    m.insert("bench.rep_wall_iqr_pct", measure::iqr_pct(&mut walls));
    m.insert("bench.machine_speed", measure::median(&mut speeds));
    m.insert("bench.raw_ops_per_wall_s", base.ops as f64 / rep_wall_raw);
    m.insert("bench.cpu_over_wall", measure::median(&mut cpu_over_wall));
    m.insert(
        "cluster.host_us_per_op",
        rep_wall * 1e6 / base.ops.max(1) as f64,
    );

    if trace {
        let mut tracer = Tracer::new(true);
        tracer.begin("workload");
        let (traced, traced_speed) =
            measure::probed(|| run_rep(workload, seed, proto.scale, &mut tracer));
        if let Some(diff) = base.sim.first_difference(&traced.sim) {
            problems.push(format!("the traced rep differs from rep 0: {diff}"));
        }
        let broker = workload == "broker_stream";
        let group_size = if broker { 3 } else { 5 };
        let d = drives::run_all(
            &traced.inputs,
            group_size,
            broker,
            proto.effort,
            &mut tracer,
        );
        // The floor without replication: the same plan on one server.
        let (mut solo_ops, mut solo_p50) = (0.0, 0.0);
        if workload == "kv_write_wan" {
            tracer.begin("solo");
            let plan = kv::kv_write_wan(seed, proto.scale * 0.25).solo(seed);
            let (solo, speed) = measure::probed(|| kv::run(&plan, &mut Tracer::new(false)));
            tracer.end(&[]);
            solo_ops = solo.ops as f64 / (solo.run.as_secs_f64() * speed);
            solo_p50 = solo.sim.get("lat_ms_p50");
        }
        tracer.end(&[]);

        let c = &traced.calls;
        let get = |name: &str| d.get(name).copied().unwrap_or(0.0);
        let beat_in_raft = (get("raft.step_heartbeat_ns") - get("core.on_heartbeat_ns")).max(0.0);
        let layer_ns = [
            (
                "simnet.est_host_share",
                c.msgs * get("simnet.kernel_ns_per_event"),
            ),
            (
                "core.est_host_share",
                c.heartbeats * get("core.on_heartbeat_ns"),
            ),
            (
                "raft.est_host_share",
                c.proposals * get("raft.propose_ns")
                    + c.appends * (get("raft.step_append_ns") + get("raft.step_append_resp_ns"))
                    + c.heartbeats * (beat_in_raft + get("raft.tick_ns")),
            ),
            (
                "kv.est_host_share",
                c.kv_applies * get("kv.apply_ns")
                    + c.kv_reads * get("kv.read_ns")
                    + c.kv_generated * get("kv.gen_next_ns")
                    + c.kv_snapshots * get("kv.snapshot_us") * 1e3,
            ),
            (
                "broker.est_host_share",
                c.broker_applies * get("broker.apply_produce_ns")
                    + c.broker_fetches * get("broker.fetch_ns"),
            ),
        ];
        // Drives and reps as measured, both: neither is scaled.
        let shares = measure::shares(&layer_ns, rep_wall_raw * 1e9);
        m.extend(shares.layers);
        m.insert("cluster.unattributed_share", shares.unattributed);
        m.extend(d);
        let mut slices = tracer.durations_ms("cluster.run_slice");
        m.insert("cluster.run_slice_ms_p50", measure::tail(&mut slices, 0.5));
        m.insert("cluster.run_slice_ms_p99", measure::tail(&mut slices, 0.99));
        m.insert(
            "cluster.build_ms",
            tracer.durations_ms("cluster.build").iter().sum(),
        );
        m.insert("cluster.solo_ops_per_wall_s", solo_ops);
        m.insert("cluster.solo_lat_ms_p50", solo_p50);
        let traced_wall = traced.run.as_secs_f64() * traced_speed;
        m.insert(
            "bench.trace_overhead_pct",
            (traced_wall - rep_wall) / rep_wall * 100.0,
        );
        if let Some(dir) = out {
            let path = dir.join(format!("trace_{workload}_seed{seed}.json"));
            let written =
                std::fs::create_dir_all(dir).and_then(|()| tracer.write_chrome_json(&path));
            match written {
                Ok(()) => eprintln!("trace: {}", path.display()),
                Err(e) => problems.push(format!("writing {}: {e}", path.display())),
            }
        }
    }

    for (name, v) in &mut m {
        if !v.is_finite() {
            problems.push(format!("{name} is not a finite number"));
            *v = 0.0;
        }
    }
    for p in &problems {
        eprintln!("{workload}: FAILED: {p}");
    }
    Outcome {
        correct: problems.is_empty(),
        attempted: base.sim.attempted.max(1),
        failed: base.sim.failed,
        metrics: m,
    }
}

fn print_outcome(workload: &str, seed: u64, seconds: f64, trace: bool, o: &Outcome) {
    println!(
        "# workload {workload} seed {seed} seconds {seconds} trace {}",
        u8::from(trace)
    );
    // Every number measured, one per line, for people and for `--check`.
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if let Some(v) = o.metrics.get(m.name) {
            println!("{} {v} {}", m.name, m.unit);
        }
    }
    debug_assert!(o.metrics.keys().all(|k| spec::find(k).is_some()));
    // The contract's line: end-to-end metrics untraced, per-layer traced.
    let listed: &[spec::Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    let body: Vec<String> = listed
        .iter()
        .map(|m| {
            let v = o.metrics.get(m.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.check {
        let read = |p: &PathBuf| std::fs::read_to_string(p).map(|t| check::parse(&t));
        return match (read(a), read(b)) {
            (Ok(a), Ok(b)) if check::compare(&a, &b) => ExitCode::SUCCESS,
            (Ok(_), Ok(_)) => ExitCode::FAILURE,
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let (proto, trace, seconds) = if args.smoke {
        let proto = Protocol {
            scale: 0.02,
            warmup_reps: 0,
            timed_reps: 1,
            effort: Effort(0.01),
        };
        (proto, true, 0.02 * f64::from(RUN_SECONDS))
    } else {
        let proto = Protocol {
            scale: args.seconds / f64::from(RUN_SECONDS),
            warmup_reps: 1,
            timed_reps: TIMED_REPS,
            effort: Effort(1.0),
        };
        (proto, args.trace, args.seconds)
    };
    let mut all_correct = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
    {
        let outcome = run_workload(w.name, args.seed, proto, trace, args.out.as_ref());
        print_outcome(w.name, args.seed, seconds, trace, &outcome);
        all_correct &= outcome.correct;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
