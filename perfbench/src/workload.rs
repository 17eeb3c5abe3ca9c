//! What every benchmark workload provides, and the checks they share.

use vr_core::SimStats;
use vr_isa::{Cpu, FReg, Reg};
use vr_mem::{MemStats, Requestor};
use vr_obs::Fnv64;
use vr_workloads::Workload;

/// The seed a run uses when `--seed` is not given; the graph-derived
/// input digests are pinned for it.
pub const DEFAULT_SEED: u64 = 1;

/// One named benchmark workload.
pub trait Bench: Sized {
    /// Set-ups per run; `setup_s` is their median, and the state of
    /// the last one is what the passes run on.
    const SETUPS: usize;

    /// How far the workload's on-CPU time moves, in log terms, per unit
    /// move of the host-speed probe's step time under host load: the
    /// exponent [`crate::probe::normalize`] rescales each pass by.
    /// Fitted on a 2-vCPU cloud VM by regressing log pass time on log
    /// step time over runs of 5 seeds; the simulator workloads slow
    /// more than the walk (which always misses the caches), input
    /// generation and store reads less.
    const ELASTICITY: f64;

    /// Discarded passes before the timed ones: the first pass in a
    /// process is consistently the slowest. 0 where set-up already ran
    /// the pass's code end to end.
    const WARM_UPS: usize;

    /// Everything one pass produced that the checks look at.
    type Pass;

    /// Builds the state the passes need (timed as `setup_s`).
    fn setup(seed: u64) -> Self;

    /// One timed pass.
    fn pass(&mut self) -> Self::Pass;

    /// The pass reduced to the numbers the metrics need.
    fn summarize(&self, pass: &Self::Pass) -> PassSummary;

    /// Output-correctness checks, run once after the timed passes.
    fn check(&self, seed: u64, passes: &[Self::Pass], checks: &mut Checks);
}

/// The numbers one pass contributes to the metrics.
#[derive(Clone, Debug, Default)]
pub struct PassSummary {
    /// Points the pass attempted.
    pub points: u64,
    /// Points that returned an error.
    pub failed: u64,
    /// Simulated instructions the pass delivered, computed or loaded.
    pub insts: u64,
    /// Simulated instructions delivered inside spans of each name (for
    /// per-layer KIPS).
    pub insts_by_span: Vec<(&'static str, u64)>,
    /// Simulated h-mean of VR IPC over OoO IPC.
    pub vr_speedup_hmean: f64,
    /// Digest of every statistic the pass delivered; equal across the
    /// passes of a run, because the model is deterministic.
    pub digest: u64,
    /// Per-layer counts the pass measured (simulated counts, campaign
    /// and chip host-work counts).
    pub counts: Vec<(&'static str, f64)>,
}

/// Tally of correctness checks.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Counts one check, reporting it on stderr when it fails.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
    }

    /// Checks a point's committed architectural state against the
    /// functional emulator stepped the same `insts` instructions.
    pub fn functional(&mut self, label: &str, w: &Workload, committed: &Cpu, insts: u64) {
        let want = w.run_functional(insts);
        let ok = want
            .as_ref()
            .is_ok_and(|want| want.retired() == insts && same_arch_state(want, committed));
        self.expect(ok, || {
            format!(
                "{label}: committed state differs from the functional emulator at {insts} insts"
            )
        });
    }

    /// Checks each input's memory-image digest against its pin (when
    /// one applies to this seed) and prints it.
    pub fn input_digests<'a>(&mut self, seed: u64, inputs: impl IntoIterator<Item = &'a Workload>) {
        for w in inputs {
            let got = w.memory.digest();
            eprintln!("perfbench: input {:<14} seed {seed:<6} digest {got:016x}", w.name);
            if let Some(want) = pinned_digest(&w.name, seed) {
                self.expect(got == want, || {
                    format!("input {} changed: digest {got:016x}, pinned {want:016x}", w.name)
                });
            }
        }
    }
}

/// Architectural equality: pc and every register (floating-point
/// registers bit for bit). The timing model's committed state does not
/// count retirements; callers compare the count separately.
pub fn same_arch_state(a: &Cpu, b: &Cpu) -> bool {
    a.pc() == b.pc()
        && (0..Reg::COUNT as u8).all(|i| a.x(Reg::new(i)) == b.x(Reg::new(i)))
        && (0..FReg::COUNT as u8)
            .all(|i| a.f(FReg::new(i)).to_bits() == b.f(FReg::new(i)).to_bits())
}

/// Digest of any statistics value (via its `Debug` form, which names
/// every field).
pub fn digest_of(v: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&format!("{v:?}"));
    h.finish()
}

/// Simulated per-layer counts over every `SimStats` a pass delivered.
pub fn sim_counts<'a>(all: impl IntoIterator<Item = &'a SimStats>) -> Vec<(&'static str, f64)> {
    let (mut cycles, mut batches, mut spawned, mut invalid, mut ra_cycles) = (0u64, 0, 0, 0, 0);
    let (mut pf_used, mut pf_issued, mut dram, mut mshr) = (0u64, 0, 0, 0);
    for s in all {
        cycles += s.cycles;
        batches += s.vr_batches;
        spawned += s.vr_lanes_spawned;
        invalid += s.vr_lanes_invalidated;
        ra_cycles += s.runahead_cycles;
        let ra = MemStats::req_idx(Requestor::Runahead);
        pf_used += s.mem.pf_used[ra];
        pf_issued += s.mem.pf_issued[ra];
        dram += s.mem.dram_reads_total();
        mshr += s.mshr_occupancy_integral;
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        ("core.sim_cycles", cycles as f64),
        ("core.vr_batches", batches as f64),
        (
            "core.vr_lane_valid_ratio",
            if spawned == 0 { 0.0 } else { 1.0 - ratio(invalid, spawned) },
        ),
        ("core.runahead_cycle_frac", ratio(ra_cycles, cycles)),
        ("mem.pf_accuracy", ratio(pf_used, pf_issued)),
        ("mem.dram_reads", dram as f64),
        ("mem.mshr_occupancy_avg", ratio(mshr, cycles)),
    ]
}

/// Memory-image digests of the fixed-recipe (`hpcdb`) inputs at paper
/// scale: the same for every seed.
const FIXED_PINS: &[(&str, u64)] = &[
    ("Camel", 0x9158_27c2_8892_48ff),
    ("Graph500", 0x9858_d67c_bf7d_3a1d),
    ("HJ2", 0xf02f_fb74_fd83_f20a),
    ("HJ8", 0xee72_68e0_0d15_d931),
    ("Kangaroo", 0x545f_d5ea_73e2_c279),
    ("NAS-CG", 0x0316_afc4_a17e_1acc),
    ("NAS-IS", 0x185d_bee5_d487_1f23),
    ("RandomAccess", 0xc217_572a_ae49_cc2e),
];

/// Memory-image digests of the graph-derived inputs at
/// [`DEFAULT_SEED`].
const DEFAULT_SEED_PINS: &[(&str, u64)] = &[
    ("bfs_UR", 0xbb97_f00b_2953_02c3),
    ("pr_UR", 0xcccf_f2a0_09e4_45ac),
    ("cc_UR", 0x05b4_d80f_2097_a7b7),
    ("bc_KR", 0x596d_66fd_62d5_7768),
    ("bfs_KR", 0x39c9_a270_c6fc_5601),
    ("cc_KR", 0xf358_be2d_3ad0_9838),
    ("pr_KR", 0xe823_e2ac_42ee_37c6),
    ("sssp_KR", 0xc7d9_79ff_f40c_fbdb),
];

fn pinned_digest(name: &str, seed: u64) -> Option<u64> {
    let find = |pins: &[(&str, u64)]| pins.iter().find(|(n, _)| *n == name).map(|&(_, d)| d);
    find(FIXED_PINS).or_else(|| if seed == DEFAULT_SEED { find(DEFAULT_SEED_PINS) } else { None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sim_mix, warm_figure};
    use vr_workloads::gap;

    #[test]
    fn pins_apply_by_seed() {
        for &(name, digest) in FIXED_PINS {
            assert_eq!(pinned_digest(name, DEFAULT_SEED + 1), Some(digest), "{name}");
        }
        for &(name, digest) in DEFAULT_SEED_PINS {
            assert_eq!(pinned_digest(name, DEFAULT_SEED), Some(digest), "{name}");
            assert_eq!(pinned_digest(name, DEFAULT_SEED + 1), None, "{name}");
        }
        assert_eq!(pinned_digest("no-such-input", DEFAULT_SEED), None);
    }

    /// Builds every input of every workload at the default seed (about
    /// 1.5 GB at peak, a few seconds optimized).
    #[test]
    fn default_seed_inputs_match_the_pins() {
        let mut seen = Vec::new();
        let mut pin = |w: &Workload| {
            let want = pinned_digest(&w.name, DEFAULT_SEED);
            assert_eq!(Some(w.memory.digest()), want, "{} changed", w.name);
            seen.push(w.name.clone());
        };
        sim_mix::uniform_inputs(DEFAULT_SEED, &[gap::bfs_on, gap::pr_on, gap::cc_on])
            .iter()
            .for_each(&mut pin);
        warm_figure::build_inputs(DEFAULT_SEED).iter().for_each(|w| pin(w));
        let mut pinned: Vec<&str> =
            FIXED_PINS.iter().chain(DEFAULT_SEED_PINS).map(|&(n, _)| n).collect();
        pinned.sort_unstable();
        seen.sort_unstable();
        assert_eq!(seen, pinned, "every pin is exercised, every input pinned");
    }
}
