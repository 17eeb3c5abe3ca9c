//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <sim-mix|warm-figure|chip-contention>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload on one thread, in a closed loop (the
//! next point starts when the previous one returns), in three steps:
//! set-up (timed as `setup_s`, repeated and reported as a median),
//! one discarded warm-up pass, then timed passes for `--seconds`.
//! Host time is on-CPU time of this thread (see [`clock`]); the timed
//! figures are also reported rescaled by the host-speed probe sampled
//! between points (see [`probe`]). Every output is checked after the
//! timed passes. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics
//! (from spans recorded around every call into a layer) with
//! `--trace 1`. README.md lists the workloads and the metric map.

mod chip_contention;
mod clock;
mod probe;
mod sim_mix;
mod stats;
mod trace;
mod warm_figure;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use vr_obs::Json;

use crate::stats::{median, median_index, quartiles};
use crate::workload::{Bench, Checks, PassSummary, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <sim-mix|warm-figure|chip-contention> \
                     [--seed N] [--seconds S] [--trace 0|1]";

const WORKLOADS: [&str; 3] = ["sim-mix", "warm-figure", "chip-contention"];

/// The paper family's VR h-mean speed-up, printed beside the
/// simulated one for context only: the model is not validated against
/// hardware, so their difference is not an error figure.
const PAPER_VR_HMEAN: f64 = 1.2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Where the benchmark writes its trace and scratch store: inside the
/// checkout, next to the build.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "sim-mix" => drive::<sim_mix::SimMix>(&args),
        "warm-figure" => drive::<warm_figure::WarmFigure>(&args),
        _ => drive::<chip_contention::ChipContention>(&args),
    };
    let correct = result.failed == 0;
    let metrics = result
        .metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let m =
                Json::Obj(vec![("value".into(), Json::F64(value)), ("unit".into(), unit.into())]);
            (name, m)
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::U64(result.attempted)),
        ("failed".into(), Json::U64(result.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a run reports.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

/// One timed pass, as measured around the whole pass.
struct Timed {
    /// Pass id (spans carry it).
    id: u32,
    /// Index into the run's passes and their summaries.
    index: usize,
    traced: bool,
    /// On-CPU seconds, less the probe's.
    cpu: f64,
    /// `cpu` rescaled by the probe (see [`probe::normalize`]).
    norm: f64,
    /// The probe's on-CPU seconds during the pass.
    probe: f64,
    /// The probe's on-CPU ns per walk step during the pass.
    probe_ns_per_step: f64,
    wall: f64,
}

impl Timed {
    /// Share of the pass's wall time spent off-CPU (steal plus
    /// run-queue wait).
    fn off_cpu(timed: &[Timed]) -> f64 {
        let wall: f64 = timed.iter().map(|t| t.wall).sum();
        1.0 - timed.iter().map(|t| t.cpu + t.probe).sum::<f64>() / wall
    }
}

/// Runs `f` as pass `id` (recording spans when `traced`) and measures
/// its on-CPU and wall seconds.
fn measured<R>(id: u32, traced: bool, root: &'static str, f: impl FnOnce() -> R) -> (R, f64, f64) {
    trace::record(traced, id);
    let t0 = clock::now();
    let out = trace::span(root, f);
    let (cpu, wall) = clock::now().since(t0);
    trace::record(false, id);
    (out, cpu, wall)
}

fn drive<W: Bench>(args: &Args) -> RunResult {
    let name = args.workload.as_str();
    eprintln!(
        "perfbench: {name} seed {} for {}s, trace {} ({} clock)",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if clock::on_cpu() { "on-CPU" } else { "WALL-FALLBACK" }
    );
    let mut next_id = 0u32;
    let mut id = || {
        next_id += 1;
        next_id - 1
    };

    // Set-up, several times; the passes run on the last state. The
    // previous state is dropped outside the timed region.
    let mut setups: Vec<(u32, f64)> = Vec::new();
    let mut state = None;
    for _ in 0..W::SETUPS {
        drop(state.take());
        let sid = id();
        let (st, cpu, _) = measured(sid, args.trace, "setup", || W::setup(args.seed));
        setups.push((sid, cpu));
        state = Some(st);
    }
    let mut st = state.expect("every workload sets up at least once");
    let peak_before_probe = clock::peak_rss_mb();
    probe::start();

    let mut passes: Vec<W::Pass> =
        (0..W::WARM_UPS).map(|_| measured(id(), false, "pass", || st.pass()).0).collect();

    // Timed passes, while the next one is expected to end within
    // `--seconds`. A traced run alternates untraced and traced passes,
    // so the tracing overhead is measured in the same process.
    let min_passes = if args.trace { 2 } else { 1 };
    probe::take();
    let start = clock::now();
    let mut timed: Vec<Timed> = Vec::new();
    let more = |timed: &[Timed]| {
        let elapsed = clock::now().since(start).1;
        timed.len() < min_passes || elapsed + elapsed / timed.len() as f64 <= args.seconds
    };
    while more(&timed) {
        let traced = args.trace && timed.len() % 2 == 1;
        let pid = id();
        let (pass, cpu, wall) = measured(pid, traced, "pass", || st.pass());
        let (probe_ns, steps) = probe::take();
        let cpu = cpu - clock::secs(probe_ns);
        let norm = probe::normalize(cpu, probe_ns, steps, W::ELASTICITY)
            .expect("every pass samples the probe between its points");
        let probe_ns_per_step = probe_ns as f64 / steps as f64;
        eprintln!(
            "perfbench: pass {pid}{} cpu {cpu:.3}s (normalized {norm:.3}s, probe {probe_ns_per_step:.0} \
             ns/step) wall {wall:.3}s",
            if traced { " (traced)" } else { "" }
        );
        timed.push(Timed {
            id: pid,
            index: passes.len(),
            traced,
            cpu,
            norm,
            probe: clock::secs(probe_ns),
            probe_ns_per_step,
            wall,
        });
        passes.push(pass);
    }

    // Correctness, outside every timed window.
    let mut checks = Checks::default();
    let summaries: Vec<PassSummary> = passes.iter().map(|p| st.summarize(p)).collect();
    let first = &summaries[0];
    for (i, s) in summaries.iter().enumerate().skip(1) {
        checks.expect(s.digest == first.digest, || {
            format!("pass {i}: statistics differ from the first pass's")
        });
    }
    st.check(args.seed, &passes, &mut checks);
    let attempted = summaries.iter().map(|s| s.points).sum::<u64>() + checks.attempted;
    let failed = summaries.iter().map(|s| s.failed).sum::<u64>() + checks.failed;
    eprintln!(
        "perfbench: {name}: {} checks, {} failed; stats digest {:016x}; VR h-mean {:.4} \
         (paper family {PAPER_VR_HMEAN}; the model is unvalidated, so this is not an error figure)",
        checks.attempted, checks.failed, first.digest, first.vr_speedup_hmean
    );

    let metrics = if args.trace {
        per_layer(name, args.seed, &setups, &timed, &summaries)
    } else {
        end_to_end(&setups, &timed, &summaries, peak_before_probe)
    };
    drop(passes);
    drop(st);
    RunResult { attempted, failed, metrics }
}

fn describe(what: &str, v: &[f64]) {
    let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
    eprintln!(
        "perfbench: {what}: median {:.4} (q1 {q1:.4}, q3 {q3:.4}; {} samples)",
        median(v),
        v.len()
    );
}

fn end_to_end(
    setups: &[(u32, f64)],
    timed: &[Timed],
    summaries: &[PassSummary],
    peak_before_probe: Option<f64>,
) -> Vec<(String, f64, &'static str)> {
    let cpu: Vec<f64> = timed.iter().map(|t| t.cpu).collect();
    let norm: Vec<f64> = timed.iter().map(|t| t.norm).collect();
    let kips: Vec<f64> =
        timed.iter().map(|t| summaries[t.index].insts as f64 / 1e3 / t.norm).collect();
    let setup: Vec<f64> = setups.iter().map(|s| s.1).collect();
    describe("on-CPU s per pass", &cpu);
    describe("cpu_s_norm per pass", &norm);
    describe("probe ns/step", &timed.iter().map(|t| t.probe_ns_per_step).collect::<Vec<_>>());
    describe("setup_s", &setup);
    eprintln!(
        "perfbench: wall {:.3}s over the timed passes, {:.1}% of it off-CPU (steal + run-queue wait)",
        timed.iter().map(|t| t.wall).sum::<f64>(),
        100.0 * Timed::off_cpu(timed)
    );

    vec![
        ("cpu_s_norm".into(), median(&norm), "s"),
        ("kips_norm".into(), median(&kips), "kinst/s"),
        ("setup_s".into(), median(&setup), "s"),
        ("peak_rss_mb".into(), program_peak_rss_mb(peak_before_probe), "MiB"),
        ("vr_speedup_hmean".into(), summaries[0].vr_speedup_hmean, "x"),
    ]
}

/// The program's own peak resident set, in MiB: the larger of the
/// peak before the probe's buffer was built and the peak since less
/// the buffer, which stays resident from [`probe::start`] to exit.
fn program_peak_rss_mb(before_probe: Option<f64>) -> f64 {
    match (before_probe, clock::peak_rss_mb()) {
        (Some(before), Some(now)) => before.max(now - probe::BUFFER_MB),
        _ => f64::NAN,
    }
}

/// Per-layer `_ms` metrics and the span prefixes they sum.
const LAYER_MS: [(&str, &str); 13] = [
    ("workloads.graph_ms", "workloads.graph"),
    ("workloads.image_ms", "workloads.image"),
    ("campaign.key_ms", "campaign.key"),
    ("campaign.load_ms", "campaign.load"),
    ("campaign.engine_self_ms", "campaign.run"),
    ("campaign.save_ms", "campaign.save"),
    ("core.new_ms", "core.new"),
    ("core.run_ms", "core.run"),
    ("chip.new_ms", "chip.new"),
    ("chip.run_ms", "chip.run"),
    ("bench.render_ms", "bench.render"),
    ("host.probe_ms", "host.probe"),
    ("bench.other_ms", "pass"),
];

/// Counts every workload reports (0 where its layer is not used).
const COUNTS: [&str; 16] = [
    "campaign.hit_ratio",
    "campaign.retries",
    "core.sim_cycles",
    "core.vr_batches",
    "core.vr_lane_valid_ratio",
    "core.runahead_cycle_frac",
    "mem.pf_accuracy",
    "mem.dram_reads",
    "mem.mshr_occupancy_avg",
    "chip.ff_skip_frac",
    "chip.broker_installs",
    "chip.episode_steps",
    "chip.bank_conflicts",
    "chip.arbitration_stall_cycles",
    "chip.shared_mshr_rejections",
    "chip.llc_hit_ratio",
];

/// The per-layer metrics of a traced run. Host times come from the
/// median traced pass, so its layers' self times plus `bench.other_ms`
/// add up to `bench.pass_ms`; a layer the passes never call (input
/// building on sim-mix and chip-contention, store saves on
/// warm-figure) reports its time in the median set-up instead.
fn per_layer(
    name: &str,
    seed: u64,
    setups: &[(u32, f64)],
    timed: &[Timed],
    summaries: &[PassSummary],
) -> Vec<(String, f64, &'static str)> {
    let spans = trace::spans();
    let own = trace::self_times(&spans);
    let traced: Vec<&Timed> = timed.iter().filter(|t| t.traced).collect();
    let untraced: Vec<f64> = timed.iter().filter(|t| !t.traced).map(|t| t.cpu).collect();
    let traced_cpu: Vec<f64> = traced.iter().map(|t| t.cpu).collect();
    let mid = traced[median_index(&traced_cpu).expect("a traced run has a traced pass")];
    let summary = &summaries[mid.index];
    let setup_cpu: Vec<f64> = setups.iter().map(|s| s.1).collect();
    let mid_setup = setups[median_index(&setup_cpu).expect("one set-up at least")].0;
    let layer = |prefix: &str| {
        let (ns, n) = trace::layer_time(&spans, &own, mid.id, prefix);
        if n > 0 {
            (ns, n)
        } else {
            trace::layer_time(&spans, &own, mid_setup, prefix)
        }
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    let kips = |span_name: &str| {
        let insts = summary.insts_by_span.iter().find(|(n, _)| *n == span_name).map_or(0, |s| s.1);
        let ns = trace::layer_time(&spans, &own, mid.id, span_name).0;
        if ns == 0 {
            0.0
        } else {
            insts as f64 / 1e3 / clock::secs(ns)
        }
    };

    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    eprintln!("perfbench: traced pass {} self times:", mid.id);
    for (metric, prefix) in LAYER_MS {
        let (ns, calls) = layer(prefix);
        let in_pass = trace::layer_time(&spans, &own, mid.id, prefix).1 > 0;
        eprintln!(
            "perfbench:   {metric:<26} {:>10.1} ms{}",
            ms(ns),
            if in_pass || calls == 0 { "" } else { "  (set-up)" }
        );
        m.push((metric.into(), ms(ns), "ms"));
    }
    let pass_ns: u64 =
        spans.iter().zip(&own).filter(|(s, _)| s.pass == mid.id).map(|(_, o)| o).sum();
    eprintln!(
        "perfbench:   {:<26} {:>10.1} ms (measured {:.1} ms)",
        "= pass",
        ms(pass_ns),
        (mid.cpu + mid.probe) * 1e3
    );
    m.push(("bench.pass_ms".into(), ms(pass_ns), "ms"));
    m.push(("campaign.key_calls".into(), layer("campaign.key").1 as f64, "count"));

    let tech = ["OoO", "PRE", "IMP", "VR"].map(|t| kips(&format!("core.run.{t}")));
    for (t, k) in ["OoO", "PRE", "IMP", "VR"].iter().zip(tech) {
        m.push((format!("core.kips.{t}"), k, "kinst/s"));
    }
    m.push((
        "core.vr_ooo_kips_ratio".into(),
        if tech[0] > 0.0 { tech[3] / tech[0] } else { 0.0 },
        "x",
    ));
    let count = |c: &str| summary.counts.iter().find(|(n, _)| *n == c).map_or(0.0, |x| x.1);
    let run_ns = trace::layer_time(&spans, &own, mid.id, "core.run").0;
    let cycles = count("core.sim_cycles");
    m.push((
        "core.host_ns_per_cycle".into(),
        if cycles > 0.0 && run_ns > 0 { run_ns as f64 / cycles } else { 0.0 },
        "ns",
    ));
    m.push((
        "chip.kips_per_core".into(),
        kips("chip.run") / chip_contention::CORES as f64,
        "kinst/s",
    ));
    for c in COUNTS {
        let unit = if c.ends_with("ratio") || c.ends_with("frac") || c.ends_with("accuracy") {
            "frac"
        } else {
            "count"
        };
        m.push((c.into(), count(c), unit));
    }
    m.push(("trace.overhead_frac".into(), median(&traced_cpu) / median(&untraced) - 1.0, "frac"));
    m.push(("host.cpu_s".into(), median(&timed.iter().map(|t| t.cpu).collect::<Vec<_>>()), "s"));
    m.push((
        "host.probe_ns_per_step".into(),
        median(&timed.iter().map(|t| t.probe_ns_per_step).collect::<Vec<_>>()),
        "ns",
    ));
    m.push(("host.wall_s".into(), median(&timed.iter().map(|t| t.wall).collect::<Vec<_>>()), "s"));
    m.push(("host.steal_frac".into(), Timed::off_cpu(timed), "frac"));

    write_trace(name, seed, &spans, &own, setups, timed);
    m
}

fn write_trace(
    name: &str,
    seed: u64,
    spans: &[trace::Span],
    own: &[u64],
    setups: &[(u32, f64)],
    timed: &[Timed],
) {
    let pass = |id: u32, kind: &str, traced: bool, cpu: f64| {
        Json::Obj(vec![
            ("id".into(), Json::U64(u64::from(id))),
            ("kind".into(), kind.into()),
            ("traced".into(), Json::Bool(traced)),
            ("cpu_s".into(), Json::F64(cpu)),
        ])
    };
    let passes = setups
        .iter()
        .map(|&(id, cpu)| pass(id, "setup", true, cpu))
        .chain(timed.iter().map(|t| pass(t.id, "timed", t.traced, t.cpu)))
        .collect();
    let doc = Json::Obj(vec![
        ("schema".into(), "perfbench-trace-v1".into()),
        ("workload".into(), name.into()),
        ("seed".into(), Json::U64(seed)),
        ("clock".into(), if clock::on_cpu() { "on-cpu" } else { "wall-fallback" }.into()),
        ("passes".into(), Json::Arr(passes)),
        ("spans".into(), trace::to_json(spans, own)),
    ]);
    let path = out_dir().join(format!("trace-{name}-seed{seed}.json"));
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc.to_string()));
    match written {
        Ok(()) => eprintln!("perfbench: trace written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
