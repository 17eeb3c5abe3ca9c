//! The simulation points of every experiment figure.
//!
//! [`campaign_points`] lists, for a figure id, every simulation point
//! that figure runs, in a documented order. It is the figure's only
//! description of what it simulates: `experiments <figure>` runs
//! exactly this list once through [`crate::run_points`] and renders
//! from the results positionally, and `experiments campaign run`
//! drives the same list through the result store, so a later `--cache`
//! figure invocation is pure cache hits by construction.
//!
//! The variant tables below ([`ROB_SIZES`], [`VR_LANES`],
//! [`MSHR_COUNTS`], [`breakdown_variants`], [`ablation_variants`]) are
//! shared by enumeration and rendering: a figure's column count comes
//! from the same table its points were built from.

use std::sync::Arc;

use vr_campaign::{CampaignPoint, ChipPoint, ChipSlot};
use vr_chip::ChipConfig;
use vr_core::{CoreConfig, RunaheadConfig};
use vr_mem::MemConfig;
use vr_workloads::{gap_suite, graph::GraphPreset, Scale, Workload};

use crate::{quick_workload_set, sweep_workload_set, workload_set, Technique};

/// The inputs that determine a figure's simulation points (the
/// campaign-relevant subset of the CLI options).
#[derive(Clone, Debug)]
pub struct FigureOpts {
    /// Instruction budget per run (`--insts`).
    pub insts: u64,
    /// Graph presets for the GAP kernels (`--all-inputs`).
    pub presets: Vec<GraphPreset>,
    /// Workload scale (`--quick` selects [`Scale::Test`]).
    pub scale: Scale,
}

/// Figure ids with cacheable simulation points, in presentation
/// order. (`table1`, `table-hw`, `trace`, `fault-oracle` and
/// `perf-report` run no cacheable simulations: the first two simulate
/// nothing, the rest need side artifacts a stats record cannot carry.)
pub const CACHED_FIGURES: &[&str] = &[
    "table2",
    "fig-perf",
    "fig-rob",
    "fig-breakdown",
    "fig-mlp",
    "fig-accuracy",
    "fig-timeliness",
    "fig-veclen",
    "fig-interval",
    "fig-ablation",
    "fig-mshr",
];

/// ROB sizes `fig-rob` sweeps (back-end queues and PRF scaled in
/// proportion).
pub const ROB_SIZES: [usize; 5] = [128, 192, 224, 350, 512];

/// Vector lengths (lanes) `fig-veclen` sweeps.
pub const VR_LANES: [usize; 4] = [16, 32, 64, 128];

/// L1-D MSHR counts `fig-mshr` sweeps.
pub const MSHR_COUNTS: [usize; 4] = [8, 16, 24, 48];

/// The `fig-breakdown` variants after its baseline point: VR and its
/// two extensions, as `(label, configuration)`.
pub fn breakdown_variants() -> [(&'static str, RunaheadConfig); 3] {
    [
        ("VR", RunaheadConfig::vector()),
        ("eager", RunaheadConfig { eager_trigger: true, ..RunaheadConfig::vector() }),
        (
            "eager+discovery",
            RunaheadConfig {
                eager_trigger: true,
                loop_bound_discovery: true,
                ..RunaheadConfig::vector()
            },
        ),
    ]
}

/// The `fig-ablation` variants after its baseline point: VR and its
/// three design-choice ablations, as `(label, configuration)`.
pub fn ablation_variants() -> [(&'static str, RunaheadConfig); 4] {
    [
        ("VR", RunaheadConfig::vector()),
        ("no-pipe", RunaheadConfig { vir_pipelining: false, ..RunaheadConfig::vector() }),
        ("reconv", RunaheadConfig { reconvergence: true, ..RunaheadConfig::vector() }),
        ("bounded64", RunaheadConfig { termination_slack: Some(64), ..RunaheadConfig::vector() }),
    ]
}

/// The full evaluation workload set for `o`: every GAP kernel on the
/// selected presets plus the hpc-db kernels at paper scale, the quick
/// set at test scale.
pub fn full_workload_set(o: &FigureOpts) -> Vec<Workload> {
    match o.scale {
        Scale::Paper => workload_set(&o.presets),
        Scale::Test => quick_workload_set(),
    }
}

fn arcs(set: Vec<Workload>) -> Vec<Arc<Workload>> {
    set.into_iter().map(Arc::new).collect()
}

fn point(
    fig: &str,
    w: &Arc<Workload>,
    variant: &str,
    core: CoreConfig,
    mem: MemConfig,
    ra: RunaheadConfig,
    insts: u64,
) -> CampaignPoint {
    CampaignPoint {
        label: format!("{fig}/{}/{variant}", w.name),
        workload: Arc::clone(w),
        core,
        mem,
        ra,
        max_insts: insts,
    }
}

fn tech_point(fig: &str, w: &Arc<Workload>, tech: Technique, insts: u64) -> CampaignPoint {
    let (mem, ra) = tech.configure();
    point(fig, w, tech.label(), CoreConfig::table1(), mem, ra, insts)
}

/// Enumerates the simulation points of `figure` (a figure id from
/// [`CACHED_FIGURES`], or `"all"` for their union in that order).
/// Returns `None` for ids with no cacheable points. Duplicate points
/// across figures are fine — the engine dedups by fingerprint.
///
/// Each figure's points come in the order its renderer chunks them:
///
/// * `table2` — per graph preset (in [`GraphPreset::ALL`] order), the
///   five GAP kernels on the baseline at half budget;
/// * `fig-perf` — per workload of the full set, the five
///   [`Technique::HEADLINE`] techniques;
/// * `fig-rob` — per ROB size in [`ROB_SIZES`], per sweep workload,
///   OoO then VR;
/// * `fig-breakdown` / `fig-ablation` — per sweep workload, the
///   baseline then each of [`breakdown_variants`] /
///   [`ablation_variants`];
/// * `fig-mlp` / `fig-accuracy` / `fig-interval` — per workload of the
///   full set, OoO then VR; `fig-timeliness` — VR only;
/// * `fig-veclen` — per sweep workload, the baseline then VR at each
///   lane count in [`VR_LANES`];
/// * `fig-mshr` — per sweep workload, per count in [`MSHR_COUNTS`],
///   OoO then VR.
pub fn campaign_points(figure: &str, o: &FigureOpts) -> Option<Vec<CampaignPoint>> {
    if figure != "all" && !CACHED_FIGURES.contains(&figure) {
        return None;
    }
    let want = |id: &str| figure == "all" || figure == id;
    let needs_full = ["fig-perf", "fig-mlp", "fig-accuracy", "fig-timeliness", "fig-interval"]
        .iter()
        .any(|id| want(id));
    let needs_sweep = ["fig-rob", "fig-breakdown", "fig-veclen", "fig-ablation", "fig-mshr"]
        .iter()
        .any(|id| want(id));
    let full = if needs_full { arcs(full_workload_set(o)) } else { Vec::new() };
    let sweep = if needs_sweep { arcs(sweep_workload_set(o.scale)) } else { Vec::new() };
    let table1 = |fig: &str, w: &Arc<Workload>, variant: &str, ra: RunaheadConfig| {
        point(fig, w, variant, CoreConfig::table1(), MemConfig::table1(), ra, o.insts)
    };
    let mut pts = Vec::new();

    if want("table2") {
        for p in GraphPreset::ALL {
            for w in arcs(gap_suite(o.scale, p)) {
                pts.push(tech_point("table2", &w, Technique::Baseline, o.insts / 2));
            }
        }
    }

    if want("fig-perf") {
        for w in &full {
            for tech in Technique::HEADLINE {
                pts.push(tech_point("fig-perf", w, tech, o.insts));
            }
        }
    }

    if want("fig-rob") {
        for rob in ROB_SIZES {
            for w in &sweep {
                let core = CoreConfig::with_rob_scaled(rob);
                for tech in [Technique::Baseline, Technique::Vr] {
                    let (mem, ra) = tech.configure();
                    let variant = format!("rob{rob}/{}", tech.label());
                    pts.push(point("fig-rob", w, &variant, core.clone(), mem, ra, o.insts));
                }
            }
        }
    }

    if want("fig-breakdown") {
        for w in &sweep {
            pts.push(tech_point("fig-breakdown", w, Technique::Baseline, o.insts));
            for (name, ra) in breakdown_variants() {
                pts.push(table1("fig-breakdown", w, name, ra));
            }
        }
    }

    for (fig, techs) in [
        ("fig-mlp", &[Technique::Baseline, Technique::Vr][..]),
        ("fig-accuracy", &[Technique::Baseline, Technique::Vr][..]),
        ("fig-timeliness", &[Technique::Vr][..]),
        ("fig-interval", &[Technique::Baseline, Technique::Vr][..]),
    ] {
        if want(fig) {
            for w in &full {
                for &tech in techs {
                    pts.push(tech_point(fig, w, tech, o.insts));
                }
            }
        }
    }

    if want("fig-veclen") {
        for w in &sweep {
            pts.push(tech_point("fig-veclen", w, Technique::Baseline, o.insts));
            for k in VR_LANES {
                let ra = RunaheadConfig { vr_lanes: k, ..RunaheadConfig::vector() };
                pts.push(table1("fig-veclen", w, &format!("K{k}"), ra));
            }
        }
    }

    if want("fig-ablation") {
        for w in &sweep {
            pts.push(tech_point("fig-ablation", w, Technique::Baseline, o.insts));
            for (name, ra) in ablation_variants() {
                pts.push(table1("fig-ablation", w, name, ra));
            }
        }
    }

    if want("fig-mshr") {
        for w in &sweep {
            for m in MSHR_COUNTS {
                let mem = MemConfig { mshrs: m, ..MemConfig::table1() };
                for (tech, ra) in
                    [("OoO", RunaheadConfig::none()), ("VR", RunaheadConfig::vector())]
                {
                    let variant = format!("m{m}/{tech}");
                    pts.push(point(
                        "fig-mshr",
                        w,
                        &variant,
                        CoreConfig::table1(),
                        mem.clone(),
                        ra,
                        o.insts,
                    ));
                }
            }
        }
    }

    Some(pts)
}

/// Core counts the chip figure sweeps.
pub const CHIP_CORE_COUNTS: &[usize] = &[1, 2, 4, 8];

/// Enumerates the multi-core simulation points of `fig-chip`: every
/// core count in [`CHIP_CORE_COUNTS`] × placement (homogeneous BFS, or
/// a mixed BFS/camel placement for N ≥ 2) × VR-on/VR-off. Returns
/// `None` for every other figure id — chip points are a separate type
/// from [`CampaignPoint`]s and are deliberately *not* part of the
/// `"all"` union (`campaign run --figure fig-chip` drives them).
pub fn chip_points(figure: &str, o: &FigureOpts) -> Option<Vec<ChipPoint>> {
    if figure != "fig-chip" {
        return None;
    }
    let g = GraphPreset::Kron.generate(o.scale);
    let bfs = Arc::new(vr_workloads::gap::bfs_on(&g, GraphPreset::Kron));
    let camel = Arc::new(vr_workloads::hpcdb::camel(o.scale));
    let slot = |w: &Arc<Workload>, vr: bool| ChipSlot {
        workload: Arc::clone(w),
        ra: if vr { RunaheadConfig::vector() } else { RunaheadConfig::none() },
    };
    let mut pts = Vec::new();
    for &n in CHIP_CORE_COUNTS {
        // Placement is a slot vector: homogeneous (every core runs
        // BFS) always; mixed (BFS on even cores, camel on odd) only
        // once there is more than one core.
        let placements: Vec<(&str, Vec<&Arc<Workload>>)> = if n == 1 {
            vec![("homog", vec![&bfs; n])]
        } else {
            let mixed = (0..n).map(|i| if i % 2 == 0 { &bfs } else { &camel }).collect();
            vec![("homog", vec![&bfs; n]), ("mixed", mixed)]
        };
        for (placement, ws) in placements {
            for (tech, vr) in [("OoO", false), ("VR", true)] {
                pts.push(ChipPoint {
                    label: format!("fig-chip/{placement}/n{n}/{tech}"),
                    chip: ChipConfig::with_cores(n),
                    core: CoreConfig::table1(),
                    mem: MemConfig::table1(),
                    slots: ws.iter().map(|w| slot(w, vr)).collect(),
                    max_insts: o.insts,
                });
            }
        }
    }
    Some(pts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> FigureOpts {
        FigureOpts { insts: 10_000, presets: vec![GraphPreset::Kron], scale: Scale::Test }
    }

    #[test]
    fn unknown_and_uncacheable_figures_have_no_points() {
        for id in ["table1", "table-hw", "trace", "fault-oracle", "perf-report", "bogus"] {
            assert!(campaign_points(id, &quick()).is_none(), "{id}");
        }
    }

    #[test]
    fn every_cached_figure_enumerates_nonempty_and_all_is_their_union() {
        let o = quick();
        let mut sum = 0usize;
        for id in CACHED_FIGURES {
            let pts = campaign_points(id, &o).unwrap_or_else(|| panic!("{id} must enumerate"));
            assert!(!pts.is_empty(), "{id} enumerated no points");
            assert!(
                pts.iter().all(|p| p.label.starts_with(&format!("{id}/"))),
                "{id} labels must be figure-prefixed"
            );
            sum += pts.len();
        }
        let all = campaign_points("all", &o).expect("all");
        assert_eq!(all.len(), sum, "`all` must be exactly the figures' union");
    }

    #[test]
    fn labels_are_unique_within_a_figure() {
        let o = quick();
        for id in CACHED_FIGURES {
            let pts = campaign_points(id, &o).unwrap();
            let mut labels: Vec<&str> = pts.iter().map(|p| p.label.as_str()).collect();
            labels.sort_unstable();
            let before = labels.len();
            labels.dedup();
            assert_eq!(labels.len(), before, "{id} has duplicate labels");
        }
    }

    #[test]
    fn chip_points_enumerate_only_for_fig_chip() {
        let o = quick();
        assert!(chip_points("fig-perf", &o).is_none());
        assert!(chip_points("all", &o).is_none(), "chip points are not part of the union");
        let pts = chip_points("fig-chip", &o).expect("fig-chip enumerates");
        // N=1: homog × {OoO, VR}; N∈{2,4,8}: {homog, mixed} × {OoO, VR}.
        assert_eq!(pts.len(), 2 + 3 * 4);
        let mut labels: Vec<&str> = pts.iter().map(|p| p.label.as_str()).collect();
        assert!(labels.iter().all(|l| l.starts_with("fig-chip/")));
        labels.sort_unstable();
        let before = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), before, "duplicate chip labels");
        for p in &pts {
            assert_eq!(p.slots.len(), p.chip.cores, "slot count matches topology");
        }
        // Keys separate: every point addresses a distinct record.
        let mut keys: Vec<u64> = pts.iter().map(|p| p.key().0).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), before);
    }

    #[test]
    fn chip_budget_participates_in_enumeration() {
        let a = chip_points("fig-chip", &quick()).unwrap();
        let b = chip_points("fig-chip", &FigureOpts { insts: 20_000, ..quick() }).unwrap();
        assert_ne!(a[0].key(), b[0].key(), "different budgets must address different records");
    }

    #[test]
    fn budget_participates_in_enumeration() {
        let a = campaign_points("fig-mshr", &quick()).unwrap();
        let b = campaign_points("fig-mshr", &FigureOpts { insts: 20_000, ..quick() }).unwrap();
        assert_eq!(a.len(), b.len());
        assert_ne!(a[0].key(), b[0].key(), "different budgets must address different records");
    }
}
