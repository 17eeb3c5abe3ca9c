//! `warm-figure`: a fig-perf-shaped figure served from a warm store.
//!
//! The five GAP kernels on a seeded Kronecker graph plus the eight
//! hpc-db kernels, each under OoO and VR: 26 points. Set-up populates a
//! fresh `ResultStore` with a cold `run_campaign` (the write path).
//! Each pass is what a user's second `--cache` invocation pays: rebuild
//! the inputs from the recipe, run the campaign on the populated store
//! (every point must hit), and render the figure to text and JSON.
//! Nothing is simulated in a pass, so a simulator speed-up should not
//! move this workload; input generation, memory-image digests (store
//! keys), store reads and rendering do all the work.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use vr_bench::report::{export_json, Report, RunMeta};
use vr_bench::{ratio, Table, Technique};
use vr_campaign::{
    run_campaign, CampaignOutcome, CampaignPoint, CancelToken, EngineConfig, ExecCtx, Executor,
    PointKey, ResultStore, SimExecutor, SweepPoint,
};
use vr_core::{CoreConfig, SimError, SimStats};
use vr_workloads::graph::{self, GraphPreset};
use vr_workloads::{gap, hpcdb, Scale, Workload};

use crate::probe;
use crate::sim_mix::GapBuild;
use crate::stats::vr_speedup_hmean;
use crate::trace::span;
use crate::workload::{digest_of, sim_counts, Bench, Checks, PassSummary};

/// Committed-instruction budget per point (simulated at set-up only).
pub const INSTS: u64 = 20_000;

const TECHS: [Technique; 2] = [Technique::Baseline, Technique::Vr];

/// A populated store plus what set-up computed into it.
pub struct WarmFigure {
    seed: u64,
    dir: PathBuf,
    store: ResultStore,
    setup: CampaignOutcome,
    /// Statistics set-up computed, in point order.
    computed: Vec<Option<SimStats>>,
    /// The inputs the latest pass (or set-up) built.
    inputs: Vec<Arc<Workload>>,
}

/// One pass's outcome.
pub struct Pass {
    outcome: CampaignOutcome,
    loaded: Vec<Option<SimStats>>,
    rendered_bytes: usize,
}

/// A campaign point whose store traffic is timed from the benchmark:
/// key derivation, loads and saves each get their own span, and the
/// statistics that pass through are kept for the checks.
struct FigurePoint {
    inner: CampaignPoint,
    loaded: Mutex<Option<SimStats>>,
    saved: Mutex<Option<SimStats>>,
}

impl SweepPoint for FigurePoint {
    type Output = SimStats;

    fn key(&self) -> PointKey {
        span("campaign.key", || self.inner.key())
    }

    fn label(&self) -> &str {
        &self.inner.label
    }

    fn load(&self, store: &ResultStore) -> Option<SimStats> {
        let key = self.key();
        let out = span("campaign.load", || store.load(key));
        *self.loaded.lock().expect("the campaign runs on this thread alone") = out;
        sampled(out)
    }

    fn save(&self, store: &ResultStore, out: &SimStats) -> std::io::Result<()> {
        let key = self.key();
        *self.saved.lock().expect("the campaign runs on this thread alone") = Some(*out);
        span("campaign.save", || store.save(key, &self.inner.label, out))
    }
}

/// The production executor behind a span.
struct TimedSim;

impl Executor<FigurePoint> for TimedSim {
    fn execute(&self, p: &FigurePoint, ctx: &ExecCtx) -> Result<SimStats, SimError> {
        span("core.exec", || SimExecutor.execute(&p.inner, ctx))
    }
}

pub fn build_inputs(seed: u64) -> Vec<Arc<Workload>> {
    let g = span("workloads.graph", || graph::kronecker(20, 16, seed));
    let kernels: [GapBuild; 5] = [gap::bc_on, gap::bfs_on, gap::cc_on, gap::pr_on, gap::sssp_on];
    let mut inputs: Vec<Arc<Workload>> = kernels
        .iter()
        .map(|build| Arc::new(sampled(span("workloads.image", || build(&g, GraphPreset::Kron)))))
        .collect();
    let fixed: [fn() -> Workload; 8] = [
        || hpcdb::camel(Scale::Paper),
        || hpcdb::graph500(Scale::Paper),
        || hpcdb::hashjoin(Scale::Paper, 2),
        || hpcdb::hashjoin(Scale::Paper, 8),
        || hpcdb::kangaroo(Scale::Paper),
        || hpcdb::nas_cg(Scale::Paper),
        || hpcdb::nas_is(Scale::Paper),
        || hpcdb::randomaccess(Scale::Paper),
    ];
    inputs.extend(fixed.iter().map(|build| Arc::new(sampled(span("workloads.image", build)))));
    inputs
}

/// Takes a host-speed probe sample after a step of a pass.
fn sampled<T>(out: T) -> T {
    probe::sample();
    out
}

fn points(inputs: &[Arc<Workload>]) -> Vec<FigurePoint> {
    inputs
        .iter()
        .flat_map(|w| {
            TECHS.map(|tech| {
                let (mem, ra) = tech.configure();
                FigurePoint {
                    inner: CampaignPoint {
                        label: format!("perf/{}/{}", w.name, tech.label()),
                        workload: Arc::clone(w),
                        core: CoreConfig::table1(),
                        mem,
                        ra,
                        max_insts: INSTS,
                    },
                    loaded: Mutex::new(None),
                    saved: Mutex::new(None),
                }
            })
        })
        .collect()
}

fn campaign(points: &[FigurePoint], store: &ResultStore) -> CampaignOutcome {
    // One worker runs inline on this thread, so every span lands in
    // this thread's recorder and the order is deterministic.
    let cfg = EngineConfig { threads: 1, ..EngineConfig::default() };
    span("campaign.run", || run_campaign(points, store, &TimedSim, &cfg, &CancelToken::new(), None))
}

/// The figure: per-kernel OoO and VR IPC and the VR speed-up, with its
/// h-mean; returns the rendered text and JSON sizes.
fn render(inputs: &[Arc<Workload>], stats: &[Option<SimStats>]) -> usize {
    let mut r = Report::new("fig-perf", "VR speed-up over the baseline OoO, served from the store");
    let mut t = Table::new(&["benchmark", "OoO IPC", "VR IPC", "VR speedup"]);
    let ipc = |s: &Option<SimStats>| s.map_or(0.0, |s| s.ipc());
    for (w, pair) in inputs.iter().zip(stats.chunks(TECHS.len())) {
        let (ooo, vr) = (ipc(&pair[0]), ipc(&pair[1]));
        t.row(vec![w.name.clone(), format!("{ooo:.3}"), format!("{vr:.3}"), ratio(vr / ooo)]);
    }
    let hm = hmean_of(stats);
    t.row(vec!["h-mean".into(), String::new(), String::new(), ratio(hm)]);
    r.push_table("speedup", t);
    r.metric("hmean_VR", hm);
    let meta =
        RunMeta { command: "warm-figure".into(), insts: INSTS, threads: 1, scale: "paper".into() };
    r.render_text().len() + export_json(&[r], &meta).to_string().len()
}

fn hmean_of(stats: &[Option<SimStats>]) -> f64 {
    vr_speedup_hmean(
        stats.chunks(TECHS.len()).filter_map(|p| Some((p[0].as_ref()?, p[1].as_ref()?))),
    )
}

impl Drop for WarmFigure {
    fn drop(&mut self) {
        // Best effort: a leftover store only costs disk space, and the
        // next set-up clears it anyway.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Bench for WarmFigure {
    const SETUPS: usize = 1;
    // Across-run slopes 0.53-0.64 (one pass a run; three sets of 5-10
    // seeds).
    const ELASTICITY: f64 = 0.6;
    const WARM_UPS: usize = 0;
    type Pass = Pass;

    fn setup(seed: u64) -> WarmFigure {
        let dir = crate::out_dir().join(format!("store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).expect("the benchmark's store directory is writable");
        let inputs = build_inputs(seed);
        let points = points(&inputs);
        let setup = campaign(&points, &store);
        let computed = points.iter().map(|p| *p.saved.lock().expect("single thread")).collect();
        WarmFigure { seed, dir, store, setup, computed, inputs }
    }

    fn pass(&mut self) -> Pass {
        // Drop the previous inputs first, so one set is alive at a time.
        self.inputs.clear();
        self.inputs = build_inputs(self.seed);
        let points = points(&self.inputs);
        let outcome = campaign(&points, &self.store);
        let loaded: Vec<Option<SimStats>> =
            points.iter().map(|p| *p.loaded.lock().expect("single thread")).collect();
        let rendered_bytes = span("bench.render", || render(&self.inputs, &loaded));
        Pass { outcome, loaded, rendered_bytes: std::hint::black_box(rendered_bytes) }
    }

    fn summarize(&self, pass: &Pass) -> PassSummary {
        let o = &pass.outcome;
        let ok: Vec<&SimStats> = pass.loaded.iter().flatten().collect();
        let mut counts = sim_counts(ok.iter().copied());
        counts.extend([
            ("campaign.hit_ratio", o.cache_hits as f64 / o.total.max(1) as f64),
            ("campaign.retries", o.retries as f64),
        ]);
        PassSummary {
            points: pass.loaded.len() as u64,
            failed: (o.failed.len() + o.poisoned.len()) as u64 + o.skipped_poisoned,
            insts: ok.iter().map(|s| s.instructions).sum(),
            insts_by_span: Vec::new(),
            vr_speedup_hmean: hmean_of(&pass.loaded),
            digest: digest_of(&pass.loaded),
            counts,
        }
    }

    fn check(&self, seed: u64, passes: &[Pass], checks: &mut Checks) {
        let n = self.computed.len() as u64;
        checks.expect(self.setup.computed == n && self.setup.complete(), || {
            format!("cold set-up computed {} of {n} points", self.setup.computed)
        });
        for (i, pass) in passes.iter().enumerate() {
            let o = &pass.outcome;
            checks.expect(o.cache_hits == n && o.total == n, || {
                format!("pass {i}: {} of {n} points hit the warm store", o.cache_hits)
            });
            checks.expect(pass.rendered_bytes > 0, || format!("pass {i}: empty render"));
            for (j, (got, want)) in pass.loaded.iter().zip(&self.computed).enumerate() {
                checks.expect(got.is_some() && got == want, || {
                    format!("pass {i}: point {j} loaded {got:?}, set-up computed {want:?}")
                });
            }
        }
        checks.input_digests(seed, self.inputs.iter().map(|w| &**w));
    }
}
