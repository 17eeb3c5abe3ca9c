//! The long-running `campaign serve` loop: manifests in, outcome
//! records out, shard-partitioned across processes (DESIGN.md §15).
//!
//! A *manifest* is one JSON object (one line on stdin, or one file in
//! a spool directory) naming a point set by figure id and budget; the
//! serve loop enumerates it through a caller-supplied closure (the
//! harness wires its figure enumeration in — this crate stays
//! figure-agnostic), filters the points down to the shard this process
//! owns, and drives them through [`run_campaign_on`] on one persistent
//! [`WorkerPool`] with deadlines, retries and poisoning exactly as a
//! one-shot `campaign run`. Each manifest streams one
//! [`CAMPAIGN_SCHEMA`] outcome line to the output writer, flushed
//! immediately, so a supervisor can tail progress.
//!
//! Sharding: [`shard_of`] deterministically partitions point
//! *fingerprints* ([`PointKey`]), so N serve processes pointed at the
//! same store with `--shards N --shard 0..N` split one campaign
//! without coordination — the store's atomic temp+rename publish
//! already makes concurrent writers safe, and identical keys map to
//! identical shards in every process. The union of the shards is
//! exactly the full point set; re-running any subset is idempotent
//! (cache hits).

use std::io::{self, BufRead, Write};
use std::path::Path;

use vr_obs::{Json, CAMPAIGN_SCHEMA, MANIFEST_SCHEMA};

use crate::chip::ChipPoint;
use crate::engine::SweepPoint;
use crate::engine::{run_campaign_on, CampaignOutcome, CancelToken, EngineConfig, Executor};
use crate::fingerprint::PointKey;
use crate::store::ResultStore;
use crate::CampaignPoint;
use vr_pool::WorkerPool;

/// Deterministic shard of a point fingerprint in `0..shards`. Folds
/// the high half into the low half before reducing so the partition
/// stays balanced even if one half of the fingerprint were biased.
pub fn shard_of(key: PointKey, shards: u32) -> u32 {
    let mixed = key.0 ^ (key.0 >> 32);
    (mixed % u64::from(shards.max(1))) as u32
}

/// Which shard of a sharded campaign this process owns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardSpec {
    /// Total number of shards (≥ 1).
    pub shards: u32,
    /// This process's shard index (`< shards`).
    pub index: u32,
}

impl Default for ShardSpec {
    fn default() -> ShardSpec {
        ShardSpec::SOLO
    }
}

impl ShardSpec {
    /// The unsharded spec: one process owns every point.
    pub const SOLO: ShardSpec = ShardSpec { shards: 1, index: 0 };

    /// Validates `index < shards` and `shards ≥ 1`.
    ///
    /// # Errors
    ///
    /// Returns a message suitable for CLI diagnostics when the pair is
    /// not a valid partition member.
    pub fn new(shards: u32, index: u32) -> Result<ShardSpec, String> {
        if shards == 0 {
            return Err("--shards must be >= 1".into());
        }
        if index >= shards {
            return Err(format!("--shard {index} out of range for --shards {shards}"));
        }
        Ok(ShardSpec { shards, index })
    }

    /// Whether this process owns `key`.
    pub fn owns(self, key: PointKey) -> bool {
        shard_of(key, self.shards) == self.index
    }
}

/// One parsed point-set manifest ([`MANIFEST_SCHEMA`]).
///
/// The fields are deliberately plain strings/ints: this crate cannot
/// name the harness's figure or preset types (the dependency points
/// the other way), so the enumerate closure owns their interpretation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Manifest {
    /// Identifier echoed into the outcome record (defaults to
    /// `"{figure}@{insts}"`).
    pub id: String,
    /// Figure id whose points to run (`"all"` for the union).
    pub figure: String,
    /// Instruction budget per point.
    pub insts: u64,
    /// Workload scale: `"quick"` or `"paper"` (default `"quick"`).
    pub scale: String,
    /// Graph-preset abbreviations for the full-set figures (empty
    /// means the enumerate closure's default).
    pub presets: Vec<String>,
}

impl Manifest {
    /// Parses one manifest line/file body.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the JSON is malformed, the schema tag
    /// is missing or unknown, or a required field is absent/mistyped.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = Json::parse(text).map_err(|e| format!("malformed manifest JSON: {e}"))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(MANIFEST_SCHEMA) => {}
            Some(other) => return Err(format!("unknown manifest schema {other:?}")),
            None => return Err(format!("manifest missing \"schema\" (want {MANIFEST_SCHEMA:?})")),
        }
        let figure = doc
            .get("figure")
            .and_then(Json::as_str)
            .ok_or("manifest missing string field \"figure\"")?
            .to_string();
        let insts = doc
            .get("insts")
            .and_then(Json::as_u64)
            .ok_or("manifest missing integer field \"insts\"")?;
        let scale = match doc.get("scale") {
            None => "quick".to_string(),
            Some(v) => match v.as_str() {
                Some(s @ ("quick" | "paper")) => s.to_string(),
                _ => return Err(r#"manifest "scale" must be "quick" or "paper""#.into()),
            },
        };
        let presets = match doc.get("presets") {
            None => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or(r#"manifest "presets" must be an array of strings"#)?
                .iter()
                .map(|p| {
                    p.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| r#"manifest "presets" must be an array of strings"#.into())
                })
                .collect::<Result<Vec<String>, String>>()?,
        };
        let id = match doc.get("id") {
            None => format!("{figure}@{insts}"),
            Some(v) => v.as_str().ok_or(r#"manifest "id" must be a string"#)?.to_string(),
        };
        Ok(Manifest { id, figure, insts, scale, presets })
    }
}

/// Serve-loop configuration: the engine knobs plus this process's
/// shard assignment.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeConfig {
    /// Engine tuning (threads, retries, deadline) applied to every
    /// manifest's campaign.
    pub engine: EngineConfig,
    /// This process's shard of the point-fingerprint space.
    pub shard: ShardSpec,
}

/// Aggregate tallies across every manifest a serve loop processed.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ServeSummary {
    /// Manifests executed (parsed, enumerated and driven).
    pub manifests: u64,
    /// Inputs rejected (parse or enumeration failure); the loop
    /// reports and continues.
    pub rejected: u64,
    /// Points enumerated across manifests, before shard filtering.
    pub enumerated: u64,
    /// Points owned by this shard and submitted to the engine.
    pub owned: u64,
    /// Engine tallies summed over manifests.
    pub computed: u64,
    /// Points served from the store.
    pub cache_hits: u64,
    /// Points skipped because an earlier run poisoned them.
    pub skipped_poisoned: u64,
    /// Points poisoned across manifests (degradation, not failure —
    /// matching `campaign run`'s exit-code policy).
    pub poisoned: u64,
    /// Points that failed without a poison record across manifests.
    pub failed: u64,
    /// Whether the loop stopped early on cancellation.
    pub cancelled: bool,
}

impl ServeSummary {
    fn absorb(&mut self, enumerated: usize, out: &CampaignOutcome) {
        self.manifests += 1;
        self.enumerated += enumerated as u64;
        self.owned += out.submitted;
        self.computed += out.computed;
        self.cache_hits += out.cache_hits;
        self.skipped_poisoned += out.skipped_poisoned;
        self.poisoned += out.poisoned.len() as u64;
        self.failed += out.failed.len() as u64;
        self.cancelled |= out.cancelled;
    }

    /// Machine-readable rendering under [`CAMPAIGN_SCHEMA`].
    pub fn to_json(&self) -> Json {
        // Exhaustive destructuring: a new field must decide how it
        // exports before this compiles.
        let ServeSummary {
            manifests,
            rejected,
            enumerated,
            owned,
            computed,
            cache_hits,
            skipped_poisoned,
            poisoned,
            failed,
            cancelled,
        } = self;
        Json::Obj(vec![
            ("schema".into(), Json::from(CAMPAIGN_SCHEMA)),
            ("kind".into(), Json::from("serve-summary")),
            ("manifests".into(), Json::U64(*manifests)),
            ("rejected".into(), Json::U64(*rejected)),
            ("enumerated".into(), Json::U64(*enumerated)),
            ("owned".into(), Json::U64(*owned)),
            ("computed".into(), Json::U64(*computed)),
            ("cache_hits".into(), Json::U64(*cache_hits)),
            ("skipped_poisoned".into(), Json::U64(*skipped_poisoned)),
            ("poisoned".into(), Json::U64(*poisoned)),
            ("failed".into(), Json::U64(*failed)),
            ("cancelled".into(), Json::Bool(*cancelled)),
        ])
    }
}

/// The point set one manifest enumerates to: either single-core
/// campaign points or multi-core chip points. One manifest is one
/// kind — the harness's chip figure enumerates `Chip`, everything else
/// `Scalar` — but a serve loop freely interleaves manifests of both.
#[derive(Clone, Debug)]
pub enum PointSet {
    /// Single-core sweep points.
    Scalar(Vec<CampaignPoint>),
    /// Multi-core chip points.
    Chip(Vec<ChipPoint>),
}

/// Maps a manifest to its campaign points. `Err` rejects the manifest
/// (reported on the output stream; the loop continues).
pub type Enumerate<'a> = &'a dyn Fn(&Manifest) -> Result<PointSet, String>;

/// The serve loop over a line-oriented reader (stdin in the CLI):
/// one manifest JSON per line, blank lines skipped, until EOF or
/// cancellation. Streams one outcome line per input to `out` (see
/// [`serve_one`]) and returns the aggregate summary.
///
/// # Errors
///
/// Propagates I/O errors from the input reader or output writer;
/// manifest-level problems are reported in-band and never abort the
/// loop.
pub fn serve_lines<E: Executor + Executor<ChipPoint>>(
    input: &mut dyn BufRead,
    out: &mut dyn Write,
    store: &ResultStore,
    exec: &E,
    cfg: &ServeConfig,
    cancel: &CancelToken,
    enumerate: Enumerate<'_>,
) -> io::Result<ServeSummary> {
    let pool = serve_pool(&cfg.engine);
    let mut summary = ServeSummary::default();
    for line in input.lines() {
        if cancel.is_cancelled() {
            summary.cancelled = true;
            break;
        }
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        serve_one(&pool, &line, out, store, exec, cfg, cancel, enumerate, &mut summary)?;
    }
    emit(out, &summary.to_json())?;
    Ok(summary)
}

/// The serve loop over a spool directory: drains every `*.json` file
/// in name order (renaming each to `*.done` once processed — rerunning
/// after a crash re-reads only what is left), looping until a pass
/// finds the spool empty or the campaign is cancelled. Files dropped
/// in while a pass runs are picked up by the next pass.
///
/// # Errors
///
/// Propagates I/O errors from spool enumeration, file reads, renames
/// or the output writer.
pub fn serve_spool<E: Executor + Executor<ChipPoint>>(
    spool: &Path,
    out: &mut dyn Write,
    store: &ResultStore,
    exec: &E,
    cfg: &ServeConfig,
    cancel: &CancelToken,
    enumerate: Enumerate<'_>,
) -> io::Result<ServeSummary> {
    let pool = serve_pool(&cfg.engine);
    let mut summary = ServeSummary::default();
    'drain: loop {
        let mut batch: Vec<std::path::PathBuf> = std::fs::read_dir(spool)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        if batch.is_empty() {
            break;
        }
        batch.sort();
        for path in batch {
            if cancel.is_cancelled() {
                summary.cancelled = true;
                break 'drain;
            }
            let text = std::fs::read_to_string(&path)?;
            serve_one(&pool, &text, out, store, exec, cfg, cancel, enumerate, &mut summary)?;
            std::fs::rename(&path, path.with_extension("done"))?;
        }
    }
    emit(out, &summary.to_json())?;
    Ok(summary)
}

/// One persistent pool sized for the engine config (the whole reason
/// serve exists: thread spawn cost is paid once, not per manifest).
fn serve_pool(cfg: &EngineConfig) -> WorkerPool {
    WorkerPool::new(cfg.resolved_threads(usize::MAX))
}

/// Parses, enumerates, shard-filters and runs one manifest, streaming
/// exactly one outcome line: `kind: "serve"` with the embedded engine
/// outcome on success, `kind: "serve-reject"` with the diagnostic on a
/// parse/enumeration failure.
#[allow(clippy::too_many_arguments)] // internal plumbing of the two loops above
fn serve_one<E: Executor + Executor<ChipPoint>>(
    pool: &WorkerPool,
    text: &str,
    out: &mut dyn Write,
    store: &ResultStore,
    exec: &E,
    cfg: &ServeConfig,
    cancel: &CancelToken,
    enumerate: Enumerate<'_>,
    summary: &mut ServeSummary,
) -> io::Result<()> {
    let run = Manifest::parse(text).and_then(|m| Ok((enumerate(&m)?, m)));
    match run {
        Err(error) => {
            summary.rejected += 1;
            emit(
                out,
                &Json::Obj(vec![
                    ("schema".into(), Json::from(CAMPAIGN_SCHEMA)),
                    ("kind".into(), Json::from("serve-reject")),
                    ("input".into(), Json::from(text.trim())),
                    ("error".into(), Json::from(error)),
                ]),
            )
        }
        Ok((points, manifest)) => {
            // Sharding, driving and outcome accounting are identical
            // for both point kinds — only the static type differs.
            let (enumerated, outcome) = match points {
                PointSet::Scalar(points) => drive(pool, points, store, exec, cfg, cancel),
                PointSet::Chip(points) => drive(pool, points, store, exec, cfg, cancel),
            };
            summary.absorb(enumerated, &outcome);
            emit(
                out,
                &Json::Obj(vec![
                    ("schema".into(), Json::from(CAMPAIGN_SCHEMA)),
                    ("kind".into(), Json::from("serve")),
                    ("manifest".into(), Json::from(manifest.id)),
                    ("shard".into(), Json::U64(u64::from(cfg.shard.index))),
                    ("shards".into(), Json::U64(u64::from(cfg.shard.shards))),
                    ("enumerated".into(), Json::from(enumerated)),
                    ("owned".into(), Json::from(outcome.total)),
                    ("outcome".into(), outcome.to_json()),
                ]),
            )
        }
    }
}

/// Shard-filters one manifest's points and drives them on the
/// persistent pool, returning the pre-filter count and the engine
/// outcome.
fn drive<P: SweepPoint, E: Executor<P>>(
    pool: &WorkerPool,
    points: Vec<P>,
    store: &ResultStore,
    exec: &E,
    cfg: &ServeConfig,
    cancel: &CancelToken,
) -> (usize, CampaignOutcome) {
    let enumerated = points.len();
    let owned: Vec<P> = points.into_iter().filter(|p| cfg.shard.owns(p.key())).collect();
    let outcome = run_campaign_on(pool, &owned, store, exec, &cfg.engine, cancel, None);
    (enumerated, outcome)
}

/// One flushed JSON line (the streaming contract: a tailing supervisor
/// sees every outcome as soon as it exists).
fn emit(out: &mut dyn Write, doc: &Json) -> io::Result<()> {
    writeln!(out, "{doc}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CampaignPoint, ExecCtx};
    use std::sync::Arc;
    use vr_core::{CoreConfig, RunaheadConfig, SimError, SimStats};
    use vr_mem::MemConfig;
    use vr_workloads::{hpcdb, Scale};

    fn points(n: u64, insts_base: u64) -> Vec<CampaignPoint> {
        let w = Arc::new(hpcdb::kangaroo(Scale::Test));
        (0..n)
            .map(|i| CampaignPoint {
                label: format!("serve/p{i}"),
                workload: Arc::clone(&w),
                core: CoreConfig::table1(),
                mem: MemConfig::tiny_for_tests(),
                ra: RunaheadConfig::none(),
                max_insts: insts_base + i,
            })
            .collect()
    }

    struct FakeExec;
    impl Executor for FakeExec {
        fn execute(&self, p: &CampaignPoint, _ctx: &ExecCtx) -> Result<SimStats, SimError> {
            Ok(SimStats {
                cycles: p.max_insts * 3,
                instructions: p.max_insts,
                ..SimStats::default()
            })
        }
    }
    impl Executor<ChipPoint> for FakeExec {
        fn execute(&self, p: &ChipPoint, _ctx: &ExecCtx) -> Result<vr_chip::ChipRun, SimError> {
            Ok(vr_chip::ChipRun {
                per_core: vec![SimStats::default(); p.slots.len()],
                chip: vr_chip::ChipStats { cycles: p.max_insts, ..Default::default() },
            })
        }
    }

    fn tmp_store(tag: &str) -> (std::path::PathBuf, ResultStore) {
        let dir = std::env::temp_dir().join(format!(
            "vr-serve-test-{tag}-{}-{}",
            std::process::id(),
            crate::test_nonce()
        ));
        (dir.clone(), ResultStore::open(&dir).expect("open store"))
    }

    fn manifest_line(insts: u64) -> String {
        format!(r#"{{"schema":"{MANIFEST_SCHEMA}","figure":"all","insts":{insts}}}"#)
    }

    #[test]
    fn shard_partition_is_total_and_deterministic() {
        let keys: Vec<PointKey> =
            (0..500u64).map(|i| PointKey(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))).collect();
        for shards in [1u32, 2, 3, 7] {
            let specs: Vec<ShardSpec> =
                (0..shards).map(|i| ShardSpec::new(shards, i).unwrap()).collect();
            for &k in &keys {
                let owners = specs.iter().filter(|s| s.owns(k)).count();
                assert_eq!(owners, 1, "every key has exactly one owner (shards={shards})");
                assert_eq!(shard_of(k, shards), shard_of(k, shards), "deterministic");
            }
        }
        // The partition is reasonably balanced (no shard starves).
        let per: Vec<usize> =
            (0..4u32).map(|i| keys.iter().filter(|k| shard_of(**k, 4) == i).count()).collect();
        assert!(per.iter().all(|&n| n > keys.len() / 10), "balance: {per:?}");
    }

    #[test]
    fn shard_spec_validates() {
        assert!(ShardSpec::new(0, 0).is_err());
        assert!(ShardSpec::new(2, 2).is_err());
        assert_eq!(ShardSpec::new(2, 1).unwrap(), ShardSpec { shards: 2, index: 1 });
        assert_eq!(ShardSpec::default(), ShardSpec::SOLO);
        assert!(ShardSpec::SOLO.owns(PointKey(u64::MAX)));
    }

    #[test]
    fn manifest_parses_with_defaults_and_rejects_garbage() {
        let m = Manifest::parse(&manifest_line(5000)).unwrap();
        assert_eq!(
            m,
            Manifest {
                id: "all@5000".into(),
                figure: "all".into(),
                insts: 5000,
                scale: "quick".into(),
                presets: vec![],
            }
        );
        let full = format!(
            r#"{{"schema":"{MANIFEST_SCHEMA}","id":"x","figure":"fig-mshr","insts":7,"scale":"paper","presets":["KR","UR"]}}"#
        );
        let m = Manifest::parse(&full).unwrap();
        assert_eq!((m.id.as_str(), m.scale.as_str()), ("x", "paper"));
        assert_eq!(m.presets, ["KR", "UR"]);
        // Unknown keys are ignored, so manifests carrying fields that
        // older writers set (or newer ones add) still parse.
        let extra = format!(
            r#"{{"schema":"{MANIFEST_SCHEMA}","figure":"fig-chip","insts":7,"retired_knob":2}}"#
        );
        assert_eq!(Manifest::parse(&extra).unwrap().figure, "fig-chip");

        for bad in [
            "not json",
            r#"{"figure":"all","insts":1}"#,
            r#"{"schema":"vr-campaign-manifest-v99","figure":"all","insts":1}"#,
            &format!(r#"{{"schema":"{MANIFEST_SCHEMA}","insts":1}}"#),
            &format!(r#"{{"schema":"{MANIFEST_SCHEMA}","figure":"all"}}"#),
            &format!(r#"{{"schema":"{MANIFEST_SCHEMA}","figure":"all","insts":1,"scale":"huge"}}"#),
            &format!(r#"{{"schema":"{MANIFEST_SCHEMA}","figure":"all","insts":1,"presets":[3]}}"#),
        ] {
            assert!(Manifest::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn serve_lines_streams_outcomes_and_sums_the_summary() {
        let (dir, store) = tmp_store("lines");
        let enumerate = |m: &Manifest| Ok(PointSet::Scalar(points(6, m.insts)));
        let input = format!("{}\n\n{}\nnot-a-manifest\n", manifest_line(100), manifest_line(200));
        let mut out = Vec::new();
        let cfg = ServeConfig {
            engine: EngineConfig { threads: 2, ..EngineConfig::default() },
            shard: ShardSpec::SOLO,
        };
        let summary = serve_lines(
            &mut input.as_bytes(),
            &mut out,
            &store,
            &FakeExec,
            &cfg,
            &CancelToken::new(),
            &enumerate,
        )
        .unwrap();
        assert_eq!(summary.manifests, 2);
        assert_eq!(summary.rejected, 1);
        assert_eq!(summary.enumerated, 12);
        assert_eq!(summary.owned, 12);
        assert_eq!(summary.computed, 12);
        assert!(!summary.cancelled);

        let lines: Vec<Json> =
            String::from_utf8(out).unwrap().lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 4, "2 outcomes + 1 reject + summary");
        assert_eq!(lines[0].get("kind").and_then(Json::as_str), Some("serve"));
        assert_eq!(lines[0].get("manifest").and_then(Json::as_str), Some("all@100"));
        assert_eq!(
            lines[0].get("outcome").and_then(|o| o.get("computed")).and_then(Json::as_u64),
            Some(6)
        );
        assert_eq!(lines[2].get("kind").and_then(Json::as_str), Some("serve-reject"));
        assert_eq!(lines[3].get("kind").and_then(Json::as_str), Some("serve-summary"));
        assert_eq!(lines[3].get("computed").and_then(Json::as_u64), Some(12));
        assert_eq!(Json::parse(&summary.to_json().to_string()).unwrap(), lines[3]);

        // Serving the same lines again is pure cache hits.
        let mut out2 = Vec::new();
        let again = serve_lines(
            &mut input.as_bytes(),
            &mut out2,
            &store,
            &FakeExec,
            &cfg,
            &CancelToken::new(),
            &enumerate,
        )
        .unwrap();
        assert_eq!((again.computed, again.cache_hits), (0, 12));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn two_shards_cover_the_set_exactly_once_and_match_solo() {
        let (solo_dir, solo_store) = tmp_store("solo");
        let (shard_dir, shard_store) = tmp_store("sharded");
        let enumerate = |m: &Manifest| Ok(PointSet::Scalar(points(20, m.insts)));
        let input = manifest_line(300);
        let engine = EngineConfig { threads: 2, ..EngineConfig::default() };

        let mut sink = Vec::new();
        let solo = serve_lines(
            &mut input.as_bytes(),
            &mut sink,
            &solo_store,
            &FakeExec,
            &ServeConfig { engine, shard: ShardSpec::SOLO },
            &CancelToken::new(),
            &enumerate,
        )
        .unwrap();
        assert_eq!(solo.computed, 20);

        let mut total_owned = 0;
        for index in 0..2 {
            let cfg = ServeConfig { engine, shard: ShardSpec::new(2, index).unwrap() };
            let s = serve_lines(
                &mut input.as_bytes(),
                &mut Vec::new(),
                &shard_store,
                &FakeExec,
                &cfg,
                &CancelToken::new(),
                &enumerate,
            )
            .unwrap();
            assert_eq!(s.enumerated, 20, "shards see the full manifest");
            assert_eq!(s.owned, s.computed, "each shard computes exactly what it owns");
            total_owned += s.owned;
        }
        assert_eq!(total_owned, 20, "shards partition the set");
        // Byte-identical stores: the sharded pair converged on exactly
        // the solo run's records.
        assert_eq!(
            crate::store::snapshot_records(&shard_dir).unwrap(),
            crate::store::snapshot_records(&solo_dir).unwrap()
        );
        std::fs::remove_dir_all(&solo_dir).ok();
        std::fs::remove_dir_all(&shard_dir).ok();
    }

    #[test]
    fn spool_mode_drains_renames_and_resumes() {
        let (dir, store) = tmp_store("spool");
        let spool = dir.join("spool");
        std::fs::create_dir_all(&spool).unwrap();
        std::fs::write(spool.join("a.json"), manifest_line(400)).unwrap();
        std::fs::write(spool.join("b.json"), manifest_line(500)).unwrap();
        std::fs::write(spool.join("ignored.txt"), "not a manifest").unwrap();
        let enumerate = |m: &Manifest| Ok(PointSet::Scalar(points(3, m.insts)));
        let cfg = ServeConfig::default();
        let mut out = Vec::new();
        let summary =
            serve_spool(&spool, &mut out, &store, &FakeExec, &cfg, &CancelToken::new(), &enumerate)
                .unwrap();
        assert_eq!((summary.manifests, summary.computed), (2, 6));
        assert!(spool.join("a.done").exists() && spool.join("b.done").exists());
        assert!(spool.join("ignored.txt").exists(), "non-manifest files untouched");

        // A second drain finds nothing to do.
        let again = serve_spool(
            &spool,
            &mut Vec::new(),
            &store,
            &FakeExec,
            &cfg,
            &CancelToken::new(),
            &enumerate,
        )
        .unwrap();
        assert_eq!(again.manifests, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancellation_stops_the_loop_between_manifests() {
        let (dir, store) = tmp_store("cancel");
        let cancel = CancelToken::new();
        cancel.cancel();
        let enumerate = |m: &Manifest| Ok(PointSet::Scalar(points(3, m.insts)));
        let input = format!("{}\n{}\n", manifest_line(600), manifest_line(700));
        let summary = serve_lines(
            &mut input.as_bytes(),
            &mut Vec::new(),
            &store,
            &FakeExec,
            &ServeConfig::default(),
            &cancel,
            &enumerate,
        )
        .unwrap();
        assert!(summary.cancelled);
        assert_eq!(summary.computed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
