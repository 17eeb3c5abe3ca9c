//! `sim-mix`: the uncached-figure path.
//!
//! Eight paper-scale inputs (bfs/pr/cc on a seeded uniform graph, plus
//! Kangaroo, HJ8, NAS-CG, Camel and RandomAccess), each under OoO, PRE,
//! IMP and VR. Every point is `Simulator::new` + `try_run` to a fixed
//! budget with no store, so simulation does nearly all the work; the
//! store, the fingerprint and the chip do none of it.

use vr_bench::Technique;
use vr_core::{CoreConfig, SimStats, Simulator};
use vr_isa::Cpu;
use vr_workloads::graph::{self, Csr, GraphPreset};
use vr_workloads::{gap, hpcdb, Scale, Workload};

use crate::probe;
use crate::stats::vr_speedup_hmean;
use crate::trace::span;
use crate::workload::{digest_of, sim_counts, Bench, Checks, PassSummary};

/// Committed-instruction budget per point.
pub const INSTS: u64 = 200_000;

/// The techniques each input runs under, with the span that times
/// their `try_run`.
const TECHS: [(Technique, &str); 4] = [
    (Technique::Baseline, "core.run.OoO"),
    (Technique::Pre, "core.run.PRE"),
    (Technique::Imp, "core.run.IMP"),
    (Technique::Vr, "core.run.VR"),
];

/// The inputs, built once per set-up.
pub struct SimMix {
    inputs: Vec<Workload>,
}

/// One point's outcome: its statistics (or error) and the committed
/// architectural state the functional check compares.
pub struct Point {
    result: Result<SimStats, String>,
    committed: Cpu,
}

/// Constructs a GAP kernel's input over a graph.
pub type GapBuild = fn(&Csr, GraphPreset) -> Workload;

/// `kernels` over the seeded paper-scale uniform graph.
pub fn uniform_inputs(seed: u64, kernels: &[GapBuild]) -> Vec<Workload> {
    let g = span("workloads.graph", || graph::uniform(1 << 20, 16, seed));
    kernels.iter().map(|build| span("workloads.image", || build(&g, GraphPreset::Urand))).collect()
}

impl Bench for SimMix {
    const SETUPS: usize = 5;
    // Within-run slopes 1.52-1.63 (three sets of 5-10 seeds).
    const ELASTICITY: f64 = 1.5;
    const WARM_UPS: usize = 1;
    type Pass = Vec<Point>;

    fn setup(seed: u64) -> SimMix {
        let mut inputs = uniform_inputs(seed, &[gap::bfs_on, gap::pr_on, gap::cc_on]);
        let fixed: [fn() -> Workload; 5] = [
            || hpcdb::kangaroo(Scale::Paper),
            || hpcdb::hashjoin(Scale::Paper, 8),
            || hpcdb::nas_cg(Scale::Paper),
            || hpcdb::camel(Scale::Paper),
            || hpcdb::randomaccess(Scale::Paper),
        ];
        inputs.extend(fixed.iter().map(|build| span("workloads.image", build)));
        SimMix { inputs }
    }

    fn pass(&mut self) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.inputs.len() * TECHS.len());
        for w in &self.inputs {
            for (tech, run_span) in TECHS {
                let (mem, ra) = tech.configure();
                let mut sim = span("core.new", || {
                    Simulator::new(
                        CoreConfig::table1(),
                        mem,
                        ra,
                        w.program.clone(),
                        w.memory.clone(),
                        &w.init_regs,
                    )
                });
                let result = span(run_span, || sim.try_run(INSTS)).map_err(|e| e.to_string());
                out.push(Point { result, committed: *sim.committed_cpu() });
                probe::sample();
            }
        }
        out
    }

    fn summarize(&self, pass: &Vec<Point>) -> PassSummary {
        let ok: Vec<&SimStats> = pass.iter().filter_map(|p| p.result.as_ref().ok()).collect();
        let insts_by_span = TECHS
            .iter()
            .enumerate()
            .map(|(t, &(_, name))| {
                let insts = pass
                    .iter()
                    .skip(t)
                    .step_by(TECHS.len())
                    .filter_map(|p| p.result.as_ref().ok())
                    .map(|s| s.instructions)
                    .sum();
                (name, insts)
            })
            .collect();
        // Pair each input's OoO run (technique 0) with its VR run (3).
        let pairs = pass
            .chunks(TECHS.len())
            .filter_map(|c| Some((c[0].result.as_ref().ok()?, c[3].result.as_ref().ok()?)));
        PassSummary {
            points: pass.len() as u64,
            failed: (pass.len() - ok.len()) as u64,
            insts: ok.iter().map(|s| s.instructions).sum(),
            insts_by_span,
            vr_speedup_hmean: vr_speedup_hmean(pairs),
            digest: digest_of(&pass.iter().map(|p| &p.result).collect::<Vec<_>>()),
            counts: sim_counts(ok),
        }
    }

    fn check(&self, seed: u64, passes: &[Vec<Point>], checks: &mut Checks) {
        let first = &passes[0];
        for (i, p) in first.iter().enumerate() {
            let w = &self.inputs[i / TECHS.len()];
            let label = format!("{}/{}", w.name, TECHS[i % TECHS.len()].0.label());
            if let Ok(s) = &p.result {
                checks.functional(&label, w, &p.committed, s.instructions);
            }
        }
        checks.input_digests(seed, &self.inputs);
    }
}
