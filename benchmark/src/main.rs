//! Benchmark harness for schevo. `run.py` drives it; it has three jobs:
//!
//! - `serve-load`: closed-loop clients against a running daemon
//!   (the timed part of the `serve-warm` workload);
//! - `trace`: the traced run of one workload, which is where every
//!   per-layer number comes from;
//! - `policy`: print, as one JSON object, the constants `run.py` shares
//!   with the traced run (canonical seed, append count, the paper's
//!   funnel and taxon counts) and the layer → end-to-end map.
//!
//! Usage:
//!   schevo-benchmark serve-load --addr unix:PATH --clients N --seconds T --expect FILE
//!   schevo-benchmark trace --workload W --seconds T --work DIR --golden FILE
//!   schevo-benchmark policy
//!
//! The traced run always uses the canonical corpus and fixed append
//! batches; the held-out inputs a run's seed picks are checked by the
//! untraced runs in `run.py`.

mod load;
mod span;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{
    AppendResume, Counts, ServeWarm, StudyCold, Workload, APPEND_COUNT, CANONICAL_SEED, ENVELOPES,
    PAPER_FUNNEL, PAPER_TAXA,
};

/// Every per-layer metric the traced run prints, with its unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.generate_s", "s"),
    ("corpus.repos", "count"),
    ("corpus.store_read_s", "s"),
    ("corpus.store_records_read", "count"),
    ("corpus.store_read_mb_per_s", "MB/s"),
    ("corpus.engine_source_s", "s"),
    ("corpus.store_append_s", "s"),
    ("corpus.store_bytes_written", "bytes"),
    ("pipeline.funnel_s", "s"),
    ("pipeline.funnel_yield", "ratio"),
    ("pipeline.mine_wall_s", "s"),
    ("pipeline.task_busy_s", "s"),
    ("pipeline.parallel_efficiency", "ratio"),
    ("pipeline.critical_task_s", "s"),
    ("pipeline.parse_cache_hit_ratio", "ratio"),
    ("pipeline.diff_cache_hit_ratio", "ratio"),
    ("pipeline.journal_append_s", "s"),
    ("pipeline.journal_replay_s", "s"),
    ("pipeline.engine_journal_replay_s", "s"),
    ("pipeline.journal_records_replayed", "count"),
    ("pipeline.mined_fresh", "count"),
    ("vcs.file_history_s", "s"),
    ("vcs.walks", "count"),
    ("vcs.versions", "count"),
    ("ddl.lex_s", "s"),
    ("ddl.parse_s", "s"),
    ("ddl.engine_parse_s", "s"),
    ("ddl.parses", "count"),
    ("ddl.parse_bytes", "bytes"),
    ("ddl.parse_mb_per_s", "MB/s"),
    ("ddl.parse_failures", "count"),
    ("core.diff_s", "s"),
    ("core.engine_diff_s", "s"),
    ("core.diffs", "count"),
    ("core.measures_s", "s"),
    ("core.engine_measures_s", "s"),
    ("core.classify_s", "s"),
    ("stats.battery_s", "s"),
    ("stats.engine_s", "s"),
    ("report.json_s", "s"),
    ("report.json_bytes", "bytes"),
    ("report.publish_s", "s"),
    ("serve.dispatch_s", "s"),
    ("serve.request_encode_s", "s"),
    ("serve.request_decode_s", "s"),
    ("serve.response_encode_s", "s"),
    ("serve.response_decode_s", "s"),
    ("serve.response_bytes", "bytes"),
    ("serve.busy", "count"),
    ("self.corpus_s", "s"),
    ("self.pipeline_s", "s"),
    ("self.vcs_s", "s"),
    ("self.ddl_s", "s"),
    ("self.core_s", "s"),
    ("self.stats_s", "s"),
    ("self.report_s", "s"),
    ("self.serve_s", "s"),
    ("self.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.envelope_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Layers must account for at least this share of each traced
/// iteration, outside the envelopes.
const MIN_COVERAGE: f64 = 0.9;

/// Traced and untraced iterations each run at least this often, so the
/// overhead comparison has a spread on both sides.
const MIN_PAIRS: usize = 3;

/// One row of the layer → end-to-end map: the layer metrics, the
/// end-to-end metrics they should move, the workloads they should move
/// them on, and where they are predicted flat. On every workload in
/// `on`, the traced run fails when one of `metrics` reads 0, except
/// those in [`MAY_BE_ZERO`].
struct LayerGroup {
    metrics: &'static [&'static str],
    moves: &'static [&'static str],
    on: &'static [&'static str],
    flat_on: &'static [&'static str],
}

const LAYER_MAP: &[LayerGroup] = &[
    LayerGroup {
        metrics: &["corpus.generate_s", "corpus.repos"],
        moves: &["study_wall_s"],
        on: &["study-cold"],
        flat_on: &["serve-warm (set-up only)"],
    },
    LayerGroup {
        metrics: &[
            "corpus.store_read_s",
            "corpus.store_records_read",
            "corpus.store_read_mb_per_s",
            "corpus.engine_source_s",
        ],
        moves: &["study_wall_s"],
        on: &["serve-warm", "append-resume"],
        flat_on: &["study-cold"],
    },
    LayerGroup {
        metrics: &["corpus.store_append_s", "corpus.store_bytes_written"],
        moves: &["studies_per_s"],
        on: &["append-resume"],
        flat_on: &["study-cold"],
    },
    LayerGroup {
        metrics: &["pipeline.funnel_s", "pipeline.funnel_yield"],
        moves: &["study_wall_s"],
        on: &["study-cold", "serve-warm"],
        flat_on: &[],
    },
    LayerGroup {
        metrics: &[
            "pipeline.mine_wall_s",
            "pipeline.task_busy_s",
            "pipeline.parallel_efficiency",
            "pipeline.critical_task_s",
        ],
        moves: &["study_wall_s"],
        on: &["study-cold"],
        flat_on: &[],
    },
    LayerGroup {
        metrics: &[
            "pipeline.parse_cache_hit_ratio",
            "pipeline.diff_cache_hit_ratio",
        ],
        moves: &["study_wall_s"],
        on: &["serve-warm"],
        flat_on: &["study-cold (0 hits)"],
    },
    LayerGroup {
        metrics: &[
            "pipeline.journal_append_s",
            "pipeline.journal_replay_s",
            "pipeline.engine_journal_replay_s",
            "pipeline.journal_records_replayed",
            "pipeline.mined_fresh",
        ],
        moves: &["study_wall_s"],
        on: &["append-resume"],
        flat_on: &["study-cold", "serve-warm"],
    },
    LayerGroup {
        metrics: &["vcs.file_history_s", "vcs.walks", "vcs.versions"],
        moves: &["study_wall_s"],
        on: &["study-cold"],
        flat_on: &["serve-warm"],
    },
    LayerGroup {
        metrics: &[
            "ddl.lex_s",
            "ddl.parse_s",
            "ddl.engine_parse_s",
            "ddl.parses",
            "ddl.parse_bytes",
            "ddl.parse_mb_per_s",
            "ddl.parse_failures",
        ],
        moves: &["study_wall_s"],
        on: &["study-cold"],
        flat_on: &["serve-warm (cache hits)"],
    },
    LayerGroup {
        metrics: &[
            "core.diff_s",
            "core.engine_diff_s",
            "core.diffs",
            "core.measures_s",
            "core.engine_measures_s",
            "core.classify_s",
        ],
        moves: &["study_wall_s"],
        on: &["study-cold"],
        flat_on: &["serve-warm"],
    },
    LayerGroup {
        metrics: &["stats.battery_s", "stats.engine_s"],
        moves: &[],
        on: &["study-cold", "serve-warm", "append-resume"],
        flat_on: &["all (about 1 ms; present so a regression shows)"],
    },
    LayerGroup {
        metrics: &["report.json_s", "report.json_bytes", "report.publish_s"],
        moves: &["study_wall_s"],
        on: &["study-cold", "append-resume"],
        flat_on: &[],
    },
    LayerGroup {
        metrics: &[
            "serve.dispatch_s",
            "serve.request_encode_s",
            "serve.request_decode_s",
            "serve.response_encode_s",
            "serve.response_decode_s",
            "serve.response_bytes",
            "serve.busy",
        ],
        moves: &["study_wall_s", "result_p50_ms"],
        on: &["serve-warm"],
        flat_on: &["study-cold"],
    },
];

/// Layer metrics whose right value is 0: a correct run has no parse
/// failures and no refusals.
const MAY_BE_ZERO: &[&str] = &["ddl.parse_failures", "serve.busy"];

fn json_strings(xs: &[&str]) -> String {
    let quoted: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", quoted.join(","))
}

/// The `policy` subcommand's JSON object.
fn policy_json() -> String {
    let numbers = |xs: &[usize]| {
        let s: Vec<String> = xs.iter().map(usize::to_string).collect();
        format!("[{}]", s.join(","))
    };
    let rows: Vec<String> = LAYER_MAP
        .iter()
        .map(|g| {
            format!(
                "{{\"layer_metrics\":{},\"moves\":{},\"on\":{},\"flat_on\":{}}}",
                json_strings(g.metrics),
                json_strings(g.moves),
                json_strings(g.on),
                json_strings(g.flat_on)
            )
        })
        .collect();
    format!(
        "{{\"canonical_seed\":{CANONICAL_SEED},\"append_count\":{APPEND_COUNT},\"paper_funnel\":{},\"paper_taxa\":{},\"layer_map\":[{}]}}",
        numbers(&PAPER_FUNNEL),
        numbers(&PAPER_TAXA),
        rows.join(",")
    )
}

/// Metrics the layer map lists as active on `workload` that read 0.
fn inactive_layers(workload: &str, m: &BTreeMap<&str, f64>) -> Vec<&'static str> {
    LAYER_MAP
        .iter()
        .filter(|g| g.on.contains(&workload))
        .flat_map(|g| g.metrics.iter().copied())
        .filter(|name| !MAY_BE_ZERO.contains(name))
        .filter(|name| m.get(name).copied().unwrap_or(0.0) <= 0.0)
        .collect()
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them (a single value is
/// all three).
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let (len, m) = (v.len() as i64, v.len() as i64 + 1);
    let mut q = [0.0; 3];
    for (i, slot) in (1..=3i64).zip(q.iter_mut()) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    q
}

/// Per-layer metrics of one traced iteration, plus the bases of its
/// ratios and the engine's own figures.
fn round_metrics(
    workload: &str,
    spans: &[span::Span],
    selfs: &[u64],
    round: u64,
    c: &Counts,
) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, String>) {
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut wall, mut envelope) = (0.0f64, 0.0f64);
    for (s, &own) in spans.iter().zip(selfs) {
        if s.iteration != round {
            continue;
        }
        let own = own as f64 / 1e9;
        *by_name.entry(s.name).or_insert(0.0) += own;
        if ENVELOPES.contains(&s.name) {
            envelope += own;
        } else {
            *by_layer.entry(s.layer()).or_insert(0.0) += own;
        }
        if s.name == "bench.iteration" {
            wall = s.dur_ns() as f64 / 1e9;
        }
    }
    let t = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let n = |key: &str| c.get(key).copied().unwrap_or(0.0);
    let l = |layer: &str| by_layer.get(layer).copied().unwrap_or(0.0);
    let mut m = BTreeMap::new();
    let mut bases = BTreeMap::new();
    m.insert("corpus.generate_s", t("corpus.generate"));
    m.insert("corpus.repos", n("corpus.repos"));
    m.insert("corpus.store_read_s", t("corpus.store_read"));
    m.insert("corpus.store_records_read", n("corpus.store_records_read"));
    m.insert(
        "corpus.store_read_mb_per_s",
        ratio(n("corpus.store_bytes_read") / 1e6, t("corpus.store_read")),
    );
    m.insert("corpus.store_append_s", t("corpus.store_append"));
    m.insert(
        "corpus.store_bytes_written",
        n("corpus.store_bytes_written"),
    );
    m.insert("pipeline.funnel_s", t("pipeline.funnel"));
    m.insert(
        "pipeline.funnel_yield",
        ratio(n("funnel.out"), n("funnel.in")),
    );
    bases.insert(
        "pipeline.funnel_yield",
        format!("{}/{}", n("funnel.out"), n("funnel.in")),
    );
    // The mining figures are the engine's own: its mining pass, its
    // per-task spans and its worker count.
    let (mine_wall, busy, workers) = (n("engine.pass_s"), n("engine.task_s"), n("engine.workers"));
    m.insert("pipeline.mine_wall_s", mine_wall);
    m.insert("pipeline.task_busy_s", busy);
    m.insert(
        "pipeline.parallel_efficiency",
        ratio(busy, workers * mine_wall),
    );
    bases.insert(
        "pipeline.parallel_efficiency",
        format!(
            "{busy:.3} s in {} tasks / ({workers} workers x {mine_wall:.3} s)",
            n("engine.tasks")
        ),
    );
    m.insert("pipeline.critical_task_s", n("engine.critical_s"));
    let cache_source = if workload == "serve-warm" {
        " lookups of the benchmark's warm engine; the daemon exports no hit counts"
    } else {
        " lookups of the engine"
    };
    for (key, hits, lookups) in [
        (
            "pipeline.parse_cache_hit_ratio",
            "exec.parse_hits",
            "exec.parse_lookups",
        ),
        (
            "pipeline.diff_cache_hit_ratio",
            "exec.diff_hits",
            "exec.diff_lookups",
        ),
    ] {
        m.insert(key, ratio(n(hits), n(lookups)));
        bases.insert(key, format!("{}/{}{cache_source}", n(hits), n(lookups)));
    }
    m.insert("pipeline.journal_append_s", t("pipeline.journal_append"));
    m.insert("pipeline.journal_replay_s", t("pipeline.journal_replay"));
    m.insert(
        "pipeline.journal_records_replayed",
        n("pipeline.journal_records_replayed"),
    );
    m.insert("pipeline.mined_fresh", n("pipeline.mined_fresh"));
    m.insert("vcs.file_history_s", t("vcs.file_history"));
    m.insert("vcs.walks", n("vcs.walks"));
    m.insert("vcs.versions", n("vcs.versions"));
    m.insert("ddl.lex_s", t("ddl.lex"));
    m.insert("ddl.parse_s", t("ddl.parse"));
    m.insert("ddl.parses", n("ddl.parses"));
    m.insert("ddl.parse_bytes", n("ddl.parse_bytes"));
    m.insert(
        "ddl.parse_mb_per_s",
        ratio(n("ddl.parse_bytes") / 1e6, t("ddl.parse")),
    );
    m.insert("ddl.parse_failures", n("ddl.parse_failures"));
    bases.insert(
        "ddl.parse_failures",
        format!("of {} parses", n("ddl.parses")),
    );
    m.insert("core.diff_s", t("core.diff"));
    m.insert("core.diffs", n("core.diffs"));
    m.insert("core.measures_s", t("core.measures"));
    m.insert("core.classify_s", t("core.classify"));
    m.insert("stats.battery_s", t("stats.battery"));
    // The engine's own seconds, each beside the benchmark's span of the
    // same work.
    m.insert("corpus.engine_source_s", n("engine.source_s"));
    bases.insert(
        "corpus.engine_source_s",
        format!(
            "engine's own store reads and funnel; benchmark's corpus.store_read {:.4} s + pipeline.funnel {:.4} s",
            t("corpus.store_read"),
            t("pipeline.funnel")
        ),
    );
    for (key, engine, ours) in [
        (
            "pipeline.engine_journal_replay_s",
            "engine.journal_replay_s",
            "pipeline.journal_replay",
        ),
        ("ddl.engine_parse_s", "engine.parse_s", "ddl.parse"),
        ("core.engine_diff_s", "engine.diff_s", "core.diff"),
        (
            "core.engine_measures_s",
            "engine.measures_s",
            "core.measures",
        ),
        ("stats.engine_s", "engine.stats_s", "stats.battery"),
    ] {
        m.insert(key, n(engine));
        bases.insert(
            key,
            format!("engine's own; benchmark's {ours} {:.4} s", t(ours)),
        );
    }
    m.insert("report.json_s", t("report.json"));
    m.insert("report.json_bytes", n("report.json_bytes"));
    m.insert("report.publish_s", t("report.publish"));
    m.insert("serve.dispatch_s", t("serve.dispatch"));
    m.insert("serve.request_encode_s", t("serve.request_encode"));
    m.insert("serve.request_decode_s", t("serve.request_decode"));
    m.insert("serve.response_encode_s", t("serve.response_encode"));
    m.insert("serve.response_decode_s", t("serve.response_decode"));
    m.insert("serve.response_bytes", n("serve.response_bytes"));
    m.insert("serve.busy", n("serve.busy"));
    for (key, layer) in [
        ("self.corpus_s", "corpus"),
        ("self.pipeline_s", "pipeline"),
        ("self.vcs_s", "vcs"),
        ("self.ddl_s", "ddl"),
        ("self.core_s", "core"),
        ("self.stats_s", "stats"),
        ("self.report_s", "report"),
        ("self.serve_s", "serve"),
        ("self.unattributed_s", "bench"),
    ] {
        m.insert(key, l(layer));
    }
    m.insert("trace.wall_s", wall);
    let divided = wall - envelope;
    let in_layers = divided - l("bench");
    m.insert("trace.coverage", ratio(in_layers, divided));
    bases.insert(
        "trace.coverage",
        format!("{in_layers:.3} s in layers / {divided:.3} s traced wall outside envelopes"),
    );
    m.insert("trace.envelope_s", envelope);
    bases.insert("trace.envelope_s", ENVELOPES.join(", "));
    (m, bases)
}

fn trace_cmd(args: &[String]) -> i32 {
    let (Some(workload), Some(work), Some(golden)) = (
        flag(args, "--workload"),
        flag(args, "--work"),
        flag(args, "--golden"),
    ) else {
        eprintln!("trace needs --workload W, --work DIR and --golden FILE");
        return 2;
    };
    let seconds: f64 = flag(args, "--seconds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);
    let work = PathBuf::from(work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        return 1;
    }
    let golden = match std::fs::read_to_string(&golden) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read the committed study result {golden}: {e}");
            return 1;
        }
    };
    let w = workload.as_str();
    let started = match w {
        "study-cold" => Ok(measure(StudyCold::new(&work, golden), w, seconds, &work)),
        "serve-warm" => ServeWarm::new(&work, golden).map(|s| measure(s, w, seconds, &work)),
        "append-resume" => AppendResume::new(&work, golden).map(|s| measure(s, w, seconds, &work)),
        other => Err(format!("unknown workload `{other}`")),
    };
    started.unwrap_or_else(|e| {
        eprintln!("set-up failed: {e}");
        1
    })
}

/// The traced run proper; prints the result line and returns the exit
/// code.
fn measure<W: Workload>(mut w: W, workload: &str, seconds: f64, work: &Path) -> i32 {
    // One untimed warm-up iteration, so neither side of the overhead
    // comparison pays the process's first-touch costs. Then traced and
    // untraced iterations alternate, traced first, until the measured
    // time is spent and each kind has run at least `MIN_PAIRS` times.
    let (mut attempted, mut failed) = (1u64, 0u64);
    let mut warm = Counts::new();
    if let Err(e) = w
        .iteration(0, &mut warm)
        .and_then(|o| w.check(o, &mut warm))
    {
        eprintln!("warm-up iteration failed: {e}");
        return 1;
    }
    let mut traced: Vec<(u64, Counts)> = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut measured = 0.0;
    let mut round = 0u64;
    while measured < seconds || untraced_walls.len() < MIN_PAIRS {
        round += 1;
        let on = round % 2 == 1;
        span::set_enabled(on);
        span::set_iteration(round);
        let mut counts = Counts::new();
        let started = Instant::now();
        let outcome = span::span("bench.iteration", || w.iteration(round, &mut counts));
        let wall = started.elapsed().as_secs_f64();
        span::set_enabled(false);
        attempted += 1;
        measured += wall;
        if let Err(e) = outcome.and_then(|o| w.check(o, &mut counts)) {
            failed += 1;
            eprintln!("iteration {round} failed: {e}");
            break;
        }
        if on {
            traced.push((round, counts));
            traced_walls.push(wall);
        } else {
            untraced_walls.push(wall);
        }
    }

    let spans = span::take();
    let selfs = span::self_times(&spans);
    let spans_path = work.join("spans.jsonl");
    if let Err(e) = std::fs::write(&spans_path, span::to_jsonl(&spans)) {
        eprintln!("cannot write {}: {e}", spans_path.display());
        return 1;
    }
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut bases = BTreeMap::new();
    for (round, counts) in &traced {
        let (m, b) = round_metrics(workload, &spans, &selfs, *round, counts);
        let idle = inactive_layers(workload, &m);
        if !idle.is_empty() {
            failed += 1;
            eprintln!(
                "iteration {round}: {} read 0, but the layer map has them active on {workload}",
                idle.join(", ")
            );
        }
        for (k, v) in m {
            samples.entry(k).or_default().push(v);
        }
        bases = b;
    }
    // Tracing overhead: the difference of the medians counts only when
    // it exceeds the inter-quartile range of both sides.
    let (tq, uq) = (quartiles(&traced_walls), quartiles(&untraced_walls));
    let overhead = tq[1] - uq[1];
    let noise = (tq[2] - tq[0]).max(uq[2] - uq[0]);
    samples.insert("trace.overhead_s", vec![overhead]);
    bases.insert(
        "trace.overhead_s",
        format!(
            "{}: median traced {:.4} s (IQR {:.4}-{:.4}, {} runs) - median untraced {:.4} s (IQR {:.4}-{:.4}, {} runs)",
            if overhead.abs() > noise { "resolved" } else { "unresolved, within the IQR" },
            tq[1],
            tq[0],
            tq[2],
            traced_walls.len(),
            uq[1],
            uq[0],
            uq[2],
            untraced_walls.len()
        ),
    );
    let mut metrics = Vec::new();
    let mut coverage = 0.0;
    for (name, unit) in PER_LAYER {
        let value = median(
            samples
                .get_mut(name)
                .map(Vec::as_mut_slice)
                .unwrap_or(&mut []),
        );
        if *name == "trace.coverage" {
            coverage = value;
        }
        let base = bases
            .get(name)
            .map(|b| format!("  ({b})"))
            .unwrap_or_default();
        eprintln!("  {name:<36} {value:>16.6} {unit}{base}");
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    if coverage < MIN_COVERAGE {
        failed += 1;
        eprintln!("layers cover only {coverage:.3} of the traced wall (need {MIN_COVERAGE})");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        metrics.join(",")
    );
    if failed == 0 {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("trace") => trace_cmd(&args[1..]),
        Some("policy") => {
            println!("{}", policy_json());
            0
        }
        Some("serve-load") => {
            let addr = flag(&args, "--addr").unwrap_or_default();
            let clients: usize = flag(&args, "--clients")
                .and_then(|v| v.parse().ok())
                .unwrap_or(2);
            let seconds: f64 = flag(&args, "--seconds")
                .and_then(|v| v.parse().ok())
                .unwrap_or(10.0);
            match flag(&args, "--expect").map(std::fs::read_to_string) {
                Some(Ok(expect)) => {
                    println!("{}", load::run(&addr, clients, seconds, &expect));
                    0
                }
                _ => {
                    eprintln!("serve-load needs --expect FILE (the batch study result)");
                    2
                }
            }
        }
        _ => {
            eprintln!("usage: schevo-benchmark trace|serve-load|policy ... (see src/main.rs)");
            2
        }
    };
    std::process::exit(code);
}
