//! The host-speed probe: a fixed, dependent random walk over a buffer
//! far larger than the host's caches, timed on-CPU between the points
//! of every pass.
//!
//! On a shared host the simulator's on-CPU time swings by up to 1.6x
//! in phases lasting seconds to minutes, with no steal and no page
//! faults: other guests load the memory system the simulator's large
//! working set depends on. The walk misses the caches and the TLB on
//! every step, so its time per step tracks that load; it is the
//! benchmark's own code, so no change to the program moves it. Each
//! pass's on-CPU seconds are rescaled to a host whose walk step takes
//! [`NOMINAL_NS_PER_STEP`] (see [`normalize`]), which keeps the
//! program's speed and drops most of the host's.
//!
//! [`sample`] is a no-op until [`start`], which the benchmark calls
//! after set-up: set-up is never probed, so `setup_s` stays plain
//! on-CPU time.

use std::cell::RefCell;

use crate::clock;
use crate::trace::span;

/// Buffer entries (`u32`): 256 MiB, past any host's last-level cache.
const ENTRIES: usize = 1 << 26;

/// The buffer's size in MiB, which the probe adds to the process's
/// resident set.
pub const BUFFER_MB: f64 = (ENTRIES * 4) as f64 / (1 << 20) as f64;

/// Walk steps per [`sample`]: some 10-15 ms on a 2020s server.
const STEPS: u64 = 50_000;

/// The walk step time the normalized figures are scaled to: a round
/// DRAM latency.
pub const NOMINAL_NS_PER_STEP: f64 = 100.0;

struct Probe {
    /// `next[i]` is the entry after `i`: one full-period LCG cycle
    /// through every entry.
    next: Vec<u32>,
    at: u32,
    ns: u64,
    steps: u64,
}

/// The entry after `x` in a buffer of `mask + 1` (a power of two)
/// entries. `x -> (a*x + c) mod 2^k` has full period when `c` is odd
/// and `a = 1 (mod 4)` (Hull-Dobell), so the walk is one cycle through
/// every entry; its stride changes at every step, which defeats the
/// hardware prefetchers.
fn successor(x: u64, mask: u64) -> u64 {
    0x5851_f42d_4c95_7f2d_u64.wrapping_mul(x).wrapping_add(0x1405_7b7e_f767_814f) & mask
}

thread_local! {
    static PROBE: RefCell<Option<Probe>> = const { RefCell::new(None) };
}

/// Builds the buffer (untimed) and turns the probe on for this thread.
pub fn start() {
    let mask = ENTRIES as u64 - 1;
    let next = (0..ENTRIES as u64).map(|i| successor(i, mask) as u32).collect();
    PROBE.with(|p| *p.borrow_mut() = Some(Probe { next, at: 0, ns: 0, steps: 0 }));
}

/// Walks [`STEPS`] steps and adds their on-CPU time to the tally; a
/// no-op before [`start`]. Workloads call it between points.
pub fn sample() {
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        let Some(p) = p.as_mut() else { return };
        span("host.probe", || {
            let t0 = cpu_ns();
            let mut at = p.at;
            for _ in 0..STEPS {
                at = p.next[at as usize];
            }
            p.at = std::hint::black_box(at);
            p.ns += cpu_ns() - t0;
            p.steps += STEPS;
        });
    });
}

/// A sample lasts a few scheduler ticks, so it reads the exact
/// per-thread clock where it can rather than the tick-granular one.
fn cpu_ns() -> u64 {
    clock::thread_cpu_ns().unwrap_or_else(|| clock::now().cpu)
}

/// The on-CPU nanoseconds and steps sampled since the last call, and
/// resets the tally.
pub fn take() -> (u64, u64) {
    PROBE.with(|p| {
        p.borrow_mut().as_mut().map_or((0, 0), |p| {
            let out = (p.ns, p.steps);
            (p.ns, p.steps) = (0, 0);
            out
        })
    })
}

/// `cpu` on-CPU seconds measured while the walk took `probe_ns` over
/// `steps` steps, rescaled to a host whose step takes
/// [`NOMINAL_NS_PER_STEP`]: `cpu * (NOMINAL / step)^elasticity`, where
/// `elasticity` is how far the workload's time moves (in log terms)
/// per unit move of the step time under host load
/// ([`crate::workload::Bench::ELASTICITY`]). The factor does not
/// depend on the program, so the result moves one for one with the
/// program's own speed. `None` without samples.
pub fn normalize(cpu: f64, probe_ns: u64, steps: u64, elasticity: f64) -> Option<f64> {
    (steps > 0 && probe_ns > 0).then(|| {
        let step = probe_ns as f64 / steps as f64;
        cpu * (NOMINAL_NS_PER_STEP / step).powf(elasticity)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_scales_by_the_nominal_step() {
        // A step 4x the nominal scales by 4^-1.5 = 1/8 at elasticity
        // 1.5, by 1/4 at 1.
        assert_eq!(normalize(8.0, 400 * 1000, 1000, 1.5), Some(1.0));
        assert_eq!(normalize(8.0, 400 * 1000, 1000, 1.0), Some(2.0));
        assert_eq!(normalize(3.0, 100 * 1000, 1000, 1.5), Some(3.0));
        assert_eq!(normalize(3.0, 0, 0, 1.5), None);
        // Proportional in the program's time at a fixed step.
        let at = |cpu| normalize(cpu, 250_000, 1000, 0.6).unwrap();
        assert!((at(2.0) / at(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn the_walk_is_one_cycle_through_every_entry() {
        let n = 1u64 << 12;
        let mut seen = vec![false; n as usize];
        let mut at = 0u64;
        for _ in 0..n {
            assert!(!seen[at as usize], "entry {at} revisited early");
            seen[at as usize] = true;
            at = successor(at, n - 1);
        }
        assert_eq!(at, 0, "back at the start after n steps");
    }
}
