//! The traced run: each workload's work, driven through the public
//! functions of every layer, with a span around each call.
//!
//! The program itself is not instrumented for this. The benchmark calls
//! `corpus::universe::generate`, the funnel steps
//! (`pipeline::funnel::assess_metadata`, `vcs::history::file_history`),
//! `ddl::lexer::tokenize`/`ddl::parse_schema`, `core::diff::diff`, the
//! measures and `core::taxa::classify`, the stats battery,
//! `report::study_to_json`/`write_atomic`, `ShardStore::stream`,
//! `append_into_store`, `journal::replay_file`/`JournalWriter::append`
//! and the `serve` frame/proto codec around `Server::dispatch` itself,
//! and runs the real engine (`try_run_study_source`, the daemon's
//! dispatch) for the figures it reports on its own: the per-stage spans
//! it records into a request scope, its run manifest's stage walls and
//! its `ExecStats`. Every output, and every count the benchmark's own
//! calls share with the engine, is checked outside the timed iteration.

use crate::span::span;
use schevo_core::diff::{diff, SchemaDelta};
use schevo_core::fk::fk_profile_with;
use schevo_core::heartbeat::REED_THRESHOLD;
use schevo_core::measures::measure_history_with;
use schevo_core::model::{CommitMeta, SchemaHistory, SchemaVersion};
use schevo_core::profile::{EvolutionProfile, ProjectContext};
use schevo_core::tables::table_lives_with;
use schevo_core::taxa::{classify, ProjectClass, Taxon, TaxonFeatures};
use schevo_corpus::store::{
    append_into_store, generate_into_store, ShardStore, StoreEvent, StoreStream,
};
use schevo_corpus::universe::{generate, generate_appendix, UniverseConfig};
use schevo_corpus::LibioRecord;
use schevo_obs::manifest::{stages_from_snapshot, RunManifest, StageWall};
use schevo_obs::metrics::Registry;
use schevo_obs::scope::TraceScope;
use schevo_obs::trace::TraceEvent;
use schevo_obs::ObsHooks;
use schevo_pipeline::exec::ExecStats;
use schevo_pipeline::funnel::{assess_metadata, CandidateHistory, Exclusion, FunnelReport};
use schevo_pipeline::journal::{replay_file, DurabilityOptions, JournalSummary, JournalWriter};
use schevo_pipeline::{
    try_run_study_source, MiningEngine, SliceSource, StatisticsBattery, StudyOptions, StudyResult,
    WarmCaches,
};
use schevo_report::{study_to_json, write_atomic};
use schevo_serve::proto::{decode_request, decode_response, encode_request, encode_response};
use schevo_serve::{read_frame, write_frame, Request, Response, Server, ServerConfig};
use schevo_stats::{kruskal_wallis, pairwise_kruskal, shapiro_wilk, spearman};
use schevo_vcs::{file_history, FileVersion, Repository, WalkStrategy};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Histories appended per `append-resume` round; round `r` appends
/// `generate_appendix` batch `r`.
pub const APPEND_COUNT: usize = 6;
/// The corpus every timed study runs on: the paper's canonical seed.
pub const CANONICAL_SEED: u64 = 2019;
/// The paper's funnel (SQL collection, Lib-io, cloned, analyzed) and
/// Fig. 4 taxon counts. The synthetic corpus plans them for every seed.
pub const PAPER_FUNNEL: [usize; 4] = [133_029, 365, 327, 195];
pub const PAPER_TAXA: [usize; 6] = [34, 65, 25, 29, 20, 22];
/// Spans around work the program does on its own, which no benchmark
/// span divides: the real engine, the benchmark's warm engine and the
/// daemon's dispatch. Coverage and the per-layer self times leave them
/// out; `trace.envelope_s` reports their time.
pub const ENVELOPES: [&str; 3] = ["pipeline.engine", "pipeline.mine", "serve.dispatch"];
/// Store records read per `corpus.store_read` span.
const READ_CHUNK: usize = 4096;

/// Counters one iteration collects, by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

fn add(c: &mut Counts, key: &'static str, v: f64) {
    *c.entry(key).or_insert(0.0) += v;
}

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Lex and parse one DDL text, each in its own span. The lexer pass is
/// the public `lexer::tokenize` run on its own; `parse_schema` lexes
/// again internally, so `ddl.parse` is the whole parse as the miner
/// pays it.
fn parse(text: &str, c: &mut Counts) -> Option<schevo_ddl::Schema> {
    let tokens = span("ddl.lex", || schevo_ddl::lexer::tokenize(text));
    std::hint::black_box(tokens.ok());
    let parsed = span("ddl.parse", || schevo_ddl::parse_schema(text));
    add(c, "ddl.parses", 1.0);
    add(c, "ddl.parse_bytes", text.len() as f64);
    if parsed.is_err() {
        add(c, "ddl.parse_failures", 1.0);
    }
    parsed.ok()
}

/// `pipeline::funnel::extract_versions_from`, step by step.
fn extract(repo: &Repository, path: &str, c: &mut Counts) -> Result<Vec<FileVersion>, Exclusion> {
    let walk = |c: &mut Counts| {
        add(c, "vcs.walks", 1.0);
        span("vcs.file_history", || {
            file_history(repo, path, WalkStrategy::FirstParent)
        })
    };
    let raw = walk(c).map_err(|_| Exclusion::ZeroVersions)?;
    add(c, "vcs.versions", raw.len() as f64);
    let versions: Vec<FileVersion> = raw
        .into_iter()
        .filter(|v| !v.content.trim().is_empty())
        .collect();
    if versions.is_empty() {
        let had_any = walk(c).map(|v| !v.is_empty()).unwrap_or(false);
        return Err(if had_any {
            Exclusion::EmptyOrNoCreateTable
        } else {
            Exclusion::ZeroVersions
        });
    }
    let has_ct = versions
        .iter()
        .any(|v| parse(&v.content, c).map(|s| !s.is_empty()).unwrap_or(false));
    if !has_ct {
        return Err(Exclusion::EmptyOrNoCreateTable);
    }
    Ok(versions)
}

/// The collection funnel, fed one repository record at a time.
#[derive(Default)]
struct Funnel {
    report: FunnelReport,
    analyzed: Vec<CandidateHistory>,
}

impl Funnel {
    fn offer(
        &mut self,
        name: &str,
        libio: Option<&LibioRecord>,
        sql_paths: &[String],
        repo: Option<(&Repository, u64, u64)>,
        c: &mut Counts,
    ) -> Result<(), String> {
        self.report.sql_collection += 1;
        let path = match assess_metadata(libio, sql_paths) {
            Ok(p) => p,
            Err(e) => {
                self.report.note_exclusion(e);
                return Ok(());
            }
        };
        let Some((repo, pup_months, total_commits)) = repo else {
            return Err(format!(
                "{name} passed the metadata filters but has no repository"
            ));
        };
        self.report.lib_io += 1;
        match extract(repo, &path, c) {
            Err(e) => self.report.note_exclusion(e),
            Ok(versions) => {
                let candidate = CandidateHistory {
                    name: name.to_string(),
                    ddl_path: path,
                    versions,
                    pup_months,
                    total_commits,
                };
                let rigid = candidate.is_rigid();
                self.report.note_candidate(rigid);
                if !rigid {
                    self.analyzed.push(candidate);
                }
            }
        }
        Ok(())
    }

    fn finish(self, c: &mut Counts) -> Funnel {
        c.insert("funnel.in", self.report.sql_collection as f64);
        c.insert("funnel.out", self.report.analyzed as f64);
        self
    }
}

/// Read a whole store through `ShardStore::stream`, funneling its
/// records: the work a store-backed study does before mining.
fn read_store(dir: &Path, c: &mut Counts) -> Result<Funnel, String> {
    let mut stream: StoreStream = span("corpus.store_read", || {
        ShardStore::open(dir).map(|s| s.stream())
    })
    .map_err(err("open store"))?;
    let mut funnel = Funnel::default();
    loop {
        let chunk = span("corpus.store_read", || {
            let mut chunk = Vec::with_capacity(READ_CHUNK);
            while chunk.len() < READ_CHUNK {
                match stream.next_event() {
                    Some(e) => chunk.push(e),
                    None => break,
                }
            }
            chunk
        });
        if chunk.is_empty() {
            break;
        }
        span("pipeline.funnel", || {
            for event in &chunk {
                match event {
                    StoreEvent::Corrupt {
                        shard,
                        offset,
                        detail,
                    } => {
                        return Err(format!(
                            "store corrupt at shard {shard} offset {offset}: {detail}"
                        ))
                    }
                    StoreEvent::Record(r) => funnel.offer(
                        &r.name,
                        r.libio.as_ref(),
                        &r.sql_paths,
                        r.materialized.as_ref().map(|(repo, p, t)| (repo, *p, *t)),
                        c,
                    )?,
                }
            }
            Ok(())
        })?;
    }
    let io = stream.io();
    add(c, "corpus.store_records_read", io.records_read as f64);
    add(c, "corpus.store_bytes_read", io.bytes_read as f64);
    Ok(funnel.finish(c))
}

/// Mine one candidate the way the engine's task does, uncached.
fn mine(candidate: &CandidateHistory, c: &mut Counts) -> Option<EvolutionProfile> {
    span("pipeline.task", || {
        let mut versions = Vec::with_capacity(candidate.versions.len());
        for v in &candidate.versions {
            let schema = parse(&v.content, c)?;
            versions.push(SchemaVersion {
                meta: CommitMeta {
                    id: v.commit.to_hex(),
                    timestamp: v.timestamp,
                    author: v.author.clone(),
                    message: v.message.clone(),
                },
                schema,
                source_len: v.content.len(),
            });
        }
        add(c, "bench.mine_parses", versions.len() as f64);
        let history = SchemaHistory {
            project: candidate.name.clone(),
            versions,
        };
        let deltas: Vec<SchemaDelta> = history
            .transitions()
            .map(|(_, old, new)| span("core.diff", || diff(&old.schema, &new.schema)))
            .collect();
        add(c, "core.diffs", deltas.len() as f64);
        let profile = span("core.measures", || {
            std::hint::black_box(fk_profile_with(&history, &deltas));
            std::hint::black_box(table_lives_with(&history, &deltas));
            let measures = measure_history_with(&history, deltas);
            EvolutionProfile::from_measures(&history, &measures, REED_THRESHOLD).with_context(
                ProjectContext {
                    pup_months: candidate.pup_months,
                    total_commits: candidate.total_commits,
                },
            )
        });
        let class = span("core.classify", || {
            classify(TaxonFeatures {
                commits: profile.commits,
                active_commits: profile.active_commits,
                total_activity: profile.total_activity,
                reeds: profile.reeds,
            })
        });
        (class == profile.class).then_some(profile)
    })
}

/// The §V statistical battery over the mined profiles, as the study
/// computes it.
fn battery(profiles: &[EvolutionProfile]) -> Result<StatisticsBattery, String> {
    span("stats.battery", || {
        let group = |t: Taxon, f: fn(&EvolutionProfile) -> f64| -> Vec<f64> {
            profiles
                .iter()
                .filter(|p| p.class == ProjectClass::Taxon(t))
                .map(f)
                .collect()
        };
        let act: fn(&EvolutionProfile) -> f64 = |p| p.total_activity as f64;
        let ac: fn(&EvolutionProfile) -> f64 = |p| p.active_commits as f64;
        let groups = |f| -> Vec<Vec<f64>> {
            Taxon::ALL
                .iter()
                .map(|&t| group(t, f))
                .filter(|g| !g.is_empty())
                .collect()
        };
        let labelled = |f| -> Vec<(String, Vec<f64>)> {
            Taxon::NON_FROZEN
                .iter()
                .map(|&t| (t.short().to_string(), group(t, f)))
                .filter(|(_, g)| !g.is_empty())
                .collect()
        };
        let (g_act, g_ac) = (groups(act), groups(ac));
        let r_act: Vec<&[f64]> = g_act.iter().map(|g| g.as_slice()).collect();
        let r_ac: Vec<&[f64]> = g_ac.iter().map(|g| g.as_slice()).collect();
        let all_act: Vec<f64> = profiles.iter().map(act).collect();
        let all_ac: Vec<f64> = profiles.iter().map(ac).collect();
        Ok(StatisticsBattery {
            kw_activity: kruskal_wallis(&r_act).map_err(|e| format!("{e:?}"))?,
            kw_active_commits: kruskal_wallis(&r_ac).map_err(|e| format!("{e:?}"))?,
            pairwise_activity: pairwise_kruskal(&labelled(act)).map_err(|e| format!("{e:?}"))?,
            pairwise_active_commits: pairwise_kruskal(&labelled(ac))
                .map_err(|e| format!("{e:?}"))?,
            shapiro_activity: shapiro_wilk(&all_act).map_err(|e| format!("{e:?}"))?,
            shapiro_active_commits: shapiro_wilk(&all_ac).map_err(|e| format!("{e:?}"))?,
            activity_ac_spearman: spearman(&all_act, &all_ac).map_err(|e| format!("{e:?}"))?,
        })
    })
}

/// Cache lookups and hits of one mining pass, from the engine's
/// `ExecStats`.
fn cache_counts(exec: &ExecStats, c: &mut Counts) {
    add(c, "exec.parse_hits", exec.parse_hits as f64);
    add(
        c,
        "exec.parse_lookups",
        (exec.parse_hits + exec.parse_misses) as f64,
    );
    add(c, "exec.diff_hits", exec.diff_hits as f64);
    add(
        c,
        "exec.diff_lookups",
        (exec.diff_hits + exec.diff_misses) as f64,
    );
}

/// The engine's own figures for one study: the spans it records into a
/// request scope (the daemon's per-request trace holds the same ones)
/// and the stage walls of its run manifest.
fn engine_counts(events: &[TraceEvent], stages: &[StageWall], workers: u64, c: &mut Counts) {
    let s = |us: u64| us as f64 / 1e6;
    c.insert("engine.workers", workers as f64);
    for e in events {
        let key = match e.name.as_str() {
            "source.read" => {
                let records = e.args.iter().find(|(k, _)| k == "records_read");
                if let Some(n) = records.and_then(|(_, v)| v.parse::<f64>().ok()) {
                    add(c, "engine.records_read", n);
                }
                "engine.source_s"
            }
            "journal.replay" => "engine.journal_replay_s",
            "mine.pass" => "engine.pass_s",
            "mine.task" => {
                add(c, "engine.tasks", 1.0);
                let longest = c.entry("engine.critical_s").or_insert(0.0);
                *longest = longest.max(s(e.dur_us));
                "engine.task_s"
            }
            "mine.parse" => "engine.parse_s",
            "mine.diff" => "engine.diff_s",
            "mine.measures" => "engine.measures_s",
            _ => continue,
        };
        add(c, key, s(e.dur_us));
    }
    for stage in stages.iter().filter(|st| st.name == "stats") {
        add(c, "engine.stats_s", s(stage.wall_us));
    }
}

/// Hooks that make an in-process study report what the daemon reports
/// per request: a span scope and a registry for the stage walls.
struct EngineObs {
    scope: Arc<TraceScope>,
    registry: Arc<Registry>,
}

impl EngineObs {
    fn new() -> EngineObs {
        EngineObs {
            scope: Arc::new(TraceScope::new()),
            registry: Arc::new(Registry::new()),
        }
    }

    fn options(&self, base: StudyOptions) -> StudyOptions {
        StudyOptions {
            obs: ObsHooks {
                trace: Some(Arc::clone(&self.scope)),
                ..ObsHooks::with_registry(Arc::clone(&self.registry))
            },
            ..base
        }
    }

    fn collect(&self, study: &StudyResult, c: &mut Counts) {
        let stages = stages_from_snapshot(&self.registry.snapshot());
        engine_counts(&self.scope.drain(), &stages, study.exec.workers as u64, c);
        cache_counts(&study.exec, c);
    }
}

/// The events of one of the daemon's per-request Chrome-trace exports.
fn read_daemon_trace(path: &Path) -> Result<Vec<TraceEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(err("read the daemon's request trace"))?;
    let string = |v: Option<&serde_json::Value>| match v {
        Some(serde_json::Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    text.lines()
        .map(|line| {
            let v: serde_json::Value =
                serde_json::from_str(line).map_err(err("parse the daemon's request trace"))?;
            let number = |key| v.get_field(key).and_then(serde_json::Value::as_u64);
            let args = v.get_field("args").and_then(serde_json::Value::as_map);
            Ok(TraceEvent {
                name: string(v.get_field("name")),
                cat: string(v.get_field("cat")),
                ts_us: number("ts").unwrap_or(0),
                dur_us: number("dur").ok_or("daemon trace event without a duration")?,
                tid: number("tid").unwrap_or(0),
                seq: 0,
                args: args
                    .unwrap_or(&[])
                    .iter()
                    .map(|(k, a)| (k.clone(), string(Some(a))))
                    .collect(),
            })
        })
        .collect()
}

/// Fail when a count the benchmark's own calls produced differs from
/// the engine's count of the same work.
fn same_count(what: &str, ours: f64, engine: f64) -> Result<(), String> {
    if ours != engine {
        return Err(format!(
            "{what}: the benchmark counts {ours}, the engine {engine}"
        ));
    }
    Ok(())
}

fn publish(study: &StudyResult, out: &Path, c: &mut Counts) -> Result<String, String> {
    let json = span("report.json", || study_to_json(study)).map_err(err("serialize study"))?;
    add(c, "report.json_bytes", json.len() as f64);
    span("report.publish", || write_atomic(out, json.as_bytes())).map_err(err("publish"))?;
    Ok(json)
}

fn check_paper_counts(study: &StudyResult) -> Result<(), String> {
    let r = &study.report;
    let funnel = [r.sql_collection, r.lib_io, r.cloned, r.analyzed];
    let taxa: Vec<usize> = study.taxa.iter().map(|t| t.count).collect();
    if funnel != PAPER_FUNNEL || taxa != PAPER_TAXA {
        return Err(format!("funnel {funnel:?} / taxa {taxa:?} differ from the paper's {PAPER_FUNNEL:?} / {PAPER_TAXA:?}"));
    }
    Ok(())
}

fn same_report(ours: &FunnelReport, theirs: &FunnelReport) -> Result<(), String> {
    if ours != theirs {
        return Err(format!(
            "benchmark funnel {ours:?} differs from the study's {theirs:?}"
        ));
    }
    Ok(())
}

/// One workload's traced run: set up once, then iterate.
pub trait Workload {
    /// What an iteration hands to its check.
    type Outcome;
    /// One timed iteration.
    fn iteration(&mut self, round: u64, c: &mut Counts) -> Result<Self::Outcome, String>;
    /// Verify an iteration's outputs and add the engine's own figures
    /// to its counts (not timed).
    fn check(&mut self, outcome: Self::Outcome, c: &mut Counts) -> Result<(), String>;
}

fn n(c: &Counts, key: &str) -> f64 {
    c.get(key).copied().unwrap_or(0.0)
}

/// The benchmark's stats battery must equal the study's.
fn same_battery(ours: &StatisticsBattery, theirs: &StatisticsBattery) -> Result<(), String> {
    let ours = serde_json::to_string(ours).map_err(err("battery"))?;
    let theirs = serde_json::to_string(theirs).map_err(err("battery"))?;
    if ours != theirs {
        return Err("benchmark stats battery differs from the study's".into());
    }
    Ok(())
}

pub struct StudyOutcome {
    report: FunnelReport,
    profiles: Vec<EvolutionProfile>,
    battery: StatisticsBattery,
    study: StudyResult,
    obs: EngineObs,
    json: String,
}

pub struct StudyCold {
    out: PathBuf,
    golden: String,
}

impl StudyCold {
    pub fn new(work: &Path, golden: String) -> StudyCold {
        StudyCold {
            out: work.join("study_results.json"),
            golden,
        }
    }
}

impl Workload for StudyCold {
    type Outcome = StudyOutcome;

    fn iteration(&mut self, _round: u64, c: &mut Counts) -> Result<StudyOutcome, String> {
        let u = span("corpus.generate", || {
            generate(UniverseConfig::paper(CANONICAL_SEED))
        });
        c.insert("corpus.repos", u.sql_collection.len() as f64);
        let funnel = span("pipeline.funnel", || {
            let mut f = Funnel::default();
            for e in &u.sql_collection {
                let repo = u.materialized.get(&e.repo_name).map(|m| {
                    let (pup, commits) = m.reported_meta();
                    (m.repo(), pup, commits)
                });
                f.offer(
                    &e.repo_name,
                    u.libio.get(&e.repo_name),
                    &e.sql_paths,
                    repo,
                    c,
                )?;
            }
            Ok::<_, String>(f)
        })?
        .finish(c);
        let mut profiles = Vec::with_capacity(funnel.analyzed.len());
        for candidate in &funnel.analyzed {
            profiles.push(
                mine(candidate, c).ok_or_else(|| format!("{} did not mine", candidate.name))?,
            );
        }
        let battery = battery(&profiles)?;
        let obs = EngineObs::new();
        let study = span("pipeline.engine", || {
            try_run_study_source(&u, obs.options(StudyOptions::default()))
        })
        .map_err(err("study"))?;
        let json = publish(&study, &self.out, c)?;
        Ok(StudyOutcome {
            report: funnel.report,
            profiles,
            battery,
            study,
            obs,
            json,
        })
    }

    fn check(&mut self, outcome: StudyOutcome, c: &mut Counts) -> Result<(), String> {
        let StudyOutcome {
            report,
            profiles,
            battery,
            study,
            obs,
            json,
        } = outcome;
        obs.collect(&study, c);
        check_paper_counts(&study)?;
        same_report(&report, &study.report)?;
        if profiles != study.profiles {
            return Err("benchmark-mined profiles differ from the engine's".into());
        }
        same_battery(&battery, &study.stats)?;
        same_count(
            "versions parsed while mining",
            n(c, "bench.mine_parses"),
            n(c, "exec.parse_lookups"),
        )?;
        same_count(
            "transitions diffed",
            n(c, "core.diffs"),
            n(c, "exec.diff_lookups"),
        )?;
        same_count(
            "histories mined",
            profiles.len() as f64,
            n(c, "engine.tasks"),
        )?;
        if json != self.golden {
            return Err("study_results.json differs from the committed file".into());
        }
        Ok(())
    }
}

/// Frame and encode a message, then read and decode it back: one hop
/// of the wire, as `Conn::roundtrip` and `Server::serve_stream` do it.
fn hop<T>(
    encode_name: &'static str,
    decode_name: &'static str,
    encode: impl FnOnce() -> Result<Vec<u8>, String>,
    decode: impl FnOnce(&[u8]) -> Result<T, String>,
) -> Result<(T, usize), String> {
    let frame = span(encode_name, || {
        let payload = encode()?;
        let mut frame = Vec::with_capacity(payload.len() + 24);
        write_frame(&mut frame, &payload).map_err(|e| e.to_string())?;
        Ok::<_, String>(frame)
    })?;
    let len = frame.len();
    let value = span(decode_name, || {
        let payload = read_frame(&mut frame.as_slice())
            .map_err(|e| e.to_string())?
            .ok_or("empty frame")?;
        decode(&payload)
    })?;
    Ok((value, len))
}

fn request(server: &Server, req: Request, c: &mut Counts) -> Result<Response, String> {
    let (decoded, _) = hop(
        "serve.request_encode",
        "serve.request_decode",
        || encode_request(&req),
        decode_request,
    )?;
    let (resp, _) = span("serve.dispatch", || server.dispatch(decoded));
    let (back, bytes) = hop(
        "serve.response_encode",
        "serve.response_decode",
        || encode_response(&resp),
        decode_response,
    )?;
    add(c, "serve.response_bytes", bytes as f64);
    if back.status == "busy" || back.status == "draining" {
        add(c, "serve.busy", 1.0);
    }
    Ok(back)
}

/// A fresh store of the canonical corpus at `dir`.
fn canonical_store(dir: &Path) -> Result<ShardStore, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(err("clear store"))?;
    }
    generate_into_store(UniverseConfig::paper(CANONICAL_SEED), dir, 8)
        .map_err(err("generate store"))?;
    ShardStore::open(dir).map_err(err("open store"))
}

/// Append `APPEND_COUNT` histories of `batch` to the store at `dir`.
fn append(dir: &Path, batch: u64, c: &mut Counts) -> Result<(), String> {
    let config = ShardStore::open(dir)
        .map_err(err("open store"))?
        .manifest()
        .config();
    let appendix = span("corpus.generate", || {
        generate_appendix(config, batch, APPEND_COUNT, 0)
    });
    c.insert("corpus.repos", appendix.records.len() as f64);
    let (_, io) = span("corpus.store_append", || {
        append_into_store(dir, &appendix.records)
    })
    .map_err(err("append"))?;
    add(c, "corpus.store_bytes_written", io.bytes_written as f64);
    Ok(())
}

/// A study of the canonical store, serialized and checked against the
/// paper's counts and the committed result.
fn batch_json(
    store: &ShardStore,
    options: StudyOptions,
    golden: &str,
) -> Result<(StudyResult, String), String> {
    let study = try_run_study_source(store, options).map_err(err("batch study"))?;
    check_paper_counts(&study)?;
    let json = study_to_json(&study).map_err(err("serialize study"))?;
    if json != golden {
        return Err("batch study differs from the committed study_results.json".into());
    }
    Ok((study, json))
}

pub struct ServeWarm {
    dir: PathBuf,
    trace_dir: PathBuf,
    server: Server,
    warm: WarmCaches,
    batch: String,
    batch_study: StudyResult,
}

/// What a `serve-warm` iteration hands to its check.
pub struct ServeOutcome {
    id: String,
    bodies: Vec<Response>,
    funnel: FunnelReport,
    profiles: Vec<EvolutionProfile>,
    battery: StatisticsBattery,
}

impl ServeWarm {
    /// Store, resident server, and one cold study to warm its caches.
    /// The server exports each study's own spans to `trace_dir`, as
    /// `schevo serve --trace-dir` does.
    pub fn new(work: &Path, golden: String) -> Result<ServeWarm, String> {
        let dir = work.join("store");
        let trace_dir = work.join("daemon-trace");
        let store = canonical_store(&dir)?;
        let (batch_study, batch) = batch_json(&store, StudyOptions::default(), &golden)?;
        let server = Server::new(ServerConfig {
            trace_dir: Some(trace_dir.clone()),
            ..ServerConfig::new(dir.clone())
        })
        .map_err(err("start server"))?;
        let cold = server
            .dispatch(Request {
                op: "study".into(),
                id: Some("cold".into()),
                ..Request::default()
            })
            .0;
        if cold.study_json.as_deref() != Some(batch.as_str()) {
            return Err(format!(
                "cold serve study differs from the batch result ({:?})",
                cold.error
            ));
        }
        let warm = WarmCaches::new();
        MiningEngine::new(StudyOptions::default())
            .with_warm(&warm)
            .mine(&store)
            .map_err(err("warm engine"))?;
        Ok(ServeWarm {
            dir,
            trace_dir,
            server,
            warm,
            batch,
            batch_study,
        })
    }
}

impl Workload for ServeWarm {
    type Outcome = ServeOutcome;

    fn iteration(&mut self, round: u64, c: &mut Counts) -> Result<ServeOutcome, String> {
        let id = format!("bench-{round}");
        let mut bodies = Vec::new();
        for op in ["study", "result"] {
            let req = Request {
                op: op.into(),
                id: Some(id.clone()),
                ..Request::default()
            };
            bodies.push(request(&self.server, req, c)?);
        }
        // The store read and funnel through the public calls, and the
        // warm-cache hit ratio, which the daemon does not export: an
        // engine with its own warm caches mines the funnel's output.
        let funnel = read_store(&self.dir, c)?;
        let out = span("pipeline.mine", || {
            MiningEngine::new(StudyOptions::default())
                .with_warm(&self.warm)
                .mine(&SliceSource::new(&funnel.analyzed))
        })
        .map_err(err("warm mine"))?;
        cache_counts(&out.exec, c);
        let profiles: Vec<EvolutionProfile> = out.mined.into_iter().map(|m| m.profile).collect();
        let battery = battery(&profiles)?;
        Ok(ServeOutcome {
            id,
            bodies,
            funnel: funnel.report,
            profiles,
            battery,
        })
    }

    fn check(&mut self, outcome: ServeOutcome, c: &mut Counts) -> Result<(), String> {
        for b in &outcome.bodies {
            if b.status != "ok" || b.study_json.as_deref() != Some(self.batch.as_str()) {
                return Err(format!(
                    "serve body differs from the batch result ({}, {:?})",
                    b.status, b.error
                ));
            }
        }
        same_report(&outcome.funnel, &self.batch_study.report)?;
        if outcome.profiles != self.batch_study.profiles {
            return Err("warm-engine profiles differ from the batch study's".into());
        }
        same_battery(&outcome.battery, &self.batch_study.stats)?;
        // The daemon's own figures for this study: its run manifest and
        // its per-request trace.
        let manifest = outcome.bodies[0]
            .manifest_json
            .as_deref()
            .ok_or("the study response carries no manifest")?;
        let manifest = RunManifest::from_json(manifest).map_err(err("parse manifest"))?;
        let trace = self.trace_dir.join(format!("{}.trace.jsonl", outcome.id));
        let events = read_daemon_trace(&trace)?;
        std::fs::remove_file(&trace).map_err(err("remove the daemon's request trace"))?;
        engine_counts(&events, &manifest.stages, manifest.workers, c);
        same_count(
            "store records read",
            n(c, "corpus.store_records_read"),
            n(c, "engine.records_read"),
        )?;
        same_count(
            "histories mined by the daemon",
            self.batch_study.report.analyzed as f64,
            n(c, "engine.tasks"),
        )
    }
}

pub struct AppendResume {
    dir: PathBuf,
    journal: PathBuf,
    scratch_journal: PathBuf,
    out: PathBuf,
    records: usize,
    analyzed: usize,
}

/// What an `append-resume` round hands to its check.
pub struct ResumeOutcome {
    json: String,
    study: StudyResult,
    obs: EngineObs,
    replayed_records: usize,
    battery: StatisticsBattery,
}

fn resume_options(journal: &Path) -> StudyOptions {
    StudyOptions {
        durability: DurabilityOptions {
            journal: Some(journal.to_path_buf()),
            resume: true,
            ..DurabilityOptions::default()
        },
        ..StudyOptions::default()
    }
}

impl AppendResume {
    /// Canonical store plus a journaled study of it.
    pub fn new(work: &Path, golden: String) -> Result<AppendResume, String> {
        let dir = work.join("store");
        let journal = work.join("journal");
        if journal.exists() {
            std::fs::remove_file(&journal).map_err(err("clear journal"))?;
        }
        let store = canonical_store(&dir)?;
        let (study, _) = batch_json(&store, resume_options(&journal), &golden)?;
        Ok(AppendResume {
            dir,
            scratch_journal: work.join("journal.append"),
            out: work.join("study_results.json"),
            journal,
            records: study.journal.as_ref().map_or(0, |j| j.mined_fresh),
            analyzed: study.report.analyzed,
        })
    }
}

impl Workload for AppendResume {
    type Outcome = ResumeOutcome;

    fn iteration(&mut self, round: u64, c: &mut Counts) -> Result<ResumeOutcome, String> {
        append(&self.dir, round, c)?;
        let obs = EngineObs::new();
        let study = span("pipeline.engine", || {
            let store = ShardStore::open(&self.dir).map_err(err("open store"))?;
            try_run_study_source(&store, obs.options(resume_options(&self.journal)))
                .map_err(err("resume"))
        })?;
        let summary = study.journal.clone().ok_or("resume reported no journal")?;
        add(
            c,
            "pipeline.journal_records_replayed",
            summary.replayed as f64,
        );
        add(c, "pipeline.mined_fresh", summary.mined_fresh as f64);
        let replay = span("pipeline.journal_replay", || replay_file(&self.journal))
            .map_err(err("replay"))?;
        let fresh = &replay.records[replay.records.len().saturating_sub(summary.mined_fresh)..];
        span("pipeline.journal_append", || {
            let mut w = JournalWriter::create(&self.scratch_journal)?;
            fresh.iter().try_for_each(|r| w.append(r))
        })
        .map_err(err("journal append"))?;
        let funnel = read_store(&self.dir, c)?;
        if funnel.report != study.report {
            return Err("store funnel disagrees with the resumed study".into());
        }
        let battery = battery(&study.profiles)?;
        let json = publish(&study, &self.out, c)?;
        Ok(ResumeOutcome {
            json,
            study,
            obs,
            replayed_records: replay.records.len(),
            battery,
        })
    }

    fn check(&mut self, outcome: ResumeOutcome, c: &mut Counts) -> Result<(), String> {
        let ResumeOutcome {
            json,
            study,
            obs,
            replayed_records,
            battery,
        } = outcome;
        obs.collect(&study, c);
        let summary: JournalSummary = study.journal.clone().ok_or("resume reported no journal")?;
        let (replayed, mined_fresh) = (summary.replayed, summary.mined_fresh);
        if replayed != self.records || mined_fresh != APPEND_COUNT {
            return Err(format!(
                "resume replayed {replayed} and mined {mined_fresh}; expected {} and {APPEND_COUNT}",
                self.records
            ));
        }
        same_count(
            "journal records",
            replayed_records as f64,
            (replayed + mined_fresh) as f64,
        )?;
        same_count(
            "store records read",
            n(c, "corpus.store_records_read"),
            n(c, "engine.records_read"),
        )?;
        same_count(
            "histories mined by the resume",
            mined_fresh as f64,
            n(c, "engine.tasks"),
        )?;
        same_battery(&battery, &study.stats)?;
        self.records += mined_fresh;
        self.analyzed += APPEND_COUNT;
        let store = ShardStore::open(&self.dir).map_err(err("open store"))?;
        let scratch =
            try_run_study_source(&store, StudyOptions::default()).map_err(err("scratch study"))?;
        if scratch.report.analyzed != self.analyzed {
            return Err(format!(
                "store analyzes {} projects, expected {}",
                scratch.report.analyzed, self.analyzed
            ));
        }
        if study_to_json(&scratch).map_err(err("serialize"))? != json {
            return Err(
                "resumed result differs from a from-scratch study of the same store".into(),
            );
        }
        Ok(())
    }
}
