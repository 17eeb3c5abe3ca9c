//! `chip-contention`: four cores in lockstep on one shared banked LLC.
//!
//! A homogeneous Kangaroo×4 placement and a mixed bfs_UR/Camel
//! placement, each under OoO and VR, stepped on one thread. The
//! shared-LLC broker, the bank arbitration and the lockstep
//! fast-forward do all the work; nothing here touches the store or the
//! fingerprint. Parallel stepping (`vr-pool`) is left out on purpose:
//! a small shared host cannot measure parallel scaling steadily.

use vr_bench::Technique;
use vr_chip::{Chip, ChipConfig, ChipRun, ChipTelemetry, CoreSlot};
use vr_core::{CoreConfig, SimStats};
use vr_isa::Cpu;
use vr_workloads::{gap, hpcdb, Scale, Workload};

use crate::probe;
use crate::sim_mix;
use crate::stats::vr_speedup_hmean;
use crate::trace::span;
use crate::workload::{digest_of, sim_counts, Bench, Checks, PassSummary};

/// Cores per chip.
pub const CORES: usize = 4;

/// Committed-instruction budget per core.
pub const INSTS: u64 = 100_000;

const TECHS: [Technique; 2] = [Technique::Baseline, Technique::Vr];

/// The inputs, built once per set-up. `placements[p][c]` indexes the
/// input core `c` of placement `p` runs.
pub struct ChipContention {
    inputs: Vec<Workload>,
    placements: [[usize; CORES]; 2],
}

/// One chip point's outcome.
pub struct Point {
    result: Result<ChipRun, String>,
    committed: Vec<Cpu>,
    telemetry: ChipTelemetry,
}

impl ChipContention {
    fn points(&self) -> impl Iterator<Item = (&[usize; CORES], Technique)> {
        self.placements.iter().flat_map(|p| TECHS.map(|t| (p, t)))
    }
}

impl Bench for ChipContention {
    const SETUPS: usize = 5;
    // Within-run slopes 1.35-1.51 (two sets of 5-10 seeds).
    const ELASTICITY: f64 = 1.5;
    const WARM_UPS: usize = 1;
    type Pass = Vec<Point>;

    fn setup(seed: u64) -> ChipContention {
        let mut inputs = sim_mix::uniform_inputs(seed, &[gap::bfs_on]);
        inputs.push(span("workloads.image", || hpcdb::camel(Scale::Paper)));
        inputs.push(span("workloads.image", || hpcdb::kangaroo(Scale::Paper)));
        ChipContention { inputs, placements: [[2; CORES], [0, 1, 0, 1]] }
    }

    fn pass(&mut self) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.placements.len() * TECHS.len());
        for (placement, tech) in self.points() {
            let (mem, ra) = tech.configure();
            let mut chip = span("chip.new", || {
                let slots = placement
                    .iter()
                    .map(|&i| {
                        let w = &self.inputs[i];
                        CoreSlot {
                            ra: ra.clone(),
                            program: w.program.clone(),
                            memory: w.memory.clone(),
                            init_regs: w.init_regs.clone(),
                        }
                    })
                    .collect();
                Chip::new(ChipConfig::with_cores(CORES), CoreConfig::table1(), mem, slots)
            });
            let result = span("chip.run", || chip.try_run(INSTS)).map_err(|e| e.to_string());
            out.push(Point {
                result,
                committed: (0..CORES).map(|c| *chip.core(c).committed_cpu()).collect(),
                telemetry: chip.telemetry().clone(),
            });
            probe::sample();
        }
        out
    }

    fn summarize(&self, pass: &Vec<Point>) -> PassSummary {
        let ok: Vec<&ChipRun> = pass.iter().filter_map(|p| p.result.as_ref().ok()).collect();
        let cores = || ok.iter().flat_map(|r| &r.per_core);
        let insts: u64 = cores().map(|s| s.instructions).sum();
        // Pair core c of each placement's OoO run with core c of its VR
        // run (points alternate OoO, VR per placement).
        let pairs: Vec<(&SimStats, &SimStats)> = pass
            .chunks(TECHS.len())
            .filter_map(|c| Some((c[0].result.as_ref().ok()?, c[1].result.as_ref().ok()?)))
            .flat_map(|(ooo, vr)| ooo.per_core.iter().zip(&vr.per_core))
            .collect();
        let sum = |f: fn(&ChipRun) -> u64| ok.iter().map(|r| f(r)).sum::<u64>() as f64;
        let tele =
            |f: fn(&ChipTelemetry) -> u64| pass.iter().map(|p| f(&p.telemetry)).sum::<u64>() as f64;
        let core_cycles = sum(|r| r.chip.cycles) * CORES as f64;
        let llc = sum(|r| r.chip.llc_hits + r.chip.llc_misses);
        let mut counts = sim_counts(cores());
        counts.extend([
            (
                "chip.ff_skip_frac",
                if core_cycles > 0.0 { tele(|t| t.ff_cycles_skipped) / core_cycles } else { 0.0 },
            ),
            ("chip.broker_installs", tele(|t| t.broker_installs)),
            ("chip.episode_steps", tele(|t| t.episode_steps)),
            ("chip.bank_conflicts", sum(|r| r.chip.bank_conflicts)),
            ("chip.arbitration_stall_cycles", sum(|r| r.chip.arbitration_stall_cycles)),
            ("chip.shared_mshr_rejections", sum(|r| r.chip.shared_mshr_rejections)),
            ("chip.llc_hit_ratio", if llc > 0.0 { sum(|r| r.chip.llc_hits) / llc } else { 0.0 }),
        ]);
        PassSummary {
            points: pass.len() as u64,
            failed: (pass.len() - ok.len()) as u64,
            insts,
            insts_by_span: vec![("chip.run", insts)],
            vr_speedup_hmean: vr_speedup_hmean(pairs),
            digest: digest_of(&pass.iter().map(|p| &p.result).collect::<Vec<_>>()),
            counts,
        }
    }

    fn check(&self, seed: u64, passes: &[Vec<Point>], checks: &mut Checks) {
        for ((placement, tech), p) in self.points().zip(&passes[0]) {
            let Ok(run) = &p.result else { continue };
            for (c, (&i, committed)) in placement.iter().zip(&p.committed).enumerate() {
                let w = &self.inputs[i];
                let label = format!("chip/{}/{}/core{c}", w.name, tech.label());
                checks.functional(&label, w, committed, run.per_core[c].instructions);
            }
        }
        checks.input_digests(seed, &self.inputs);
    }
}
