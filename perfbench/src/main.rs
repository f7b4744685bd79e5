//! # perfbench — closed-loop end-to-end benchmark of stembed
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <static_train|insert_stream|durable_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Three workloads, each a single-client closed loop over the library's
//! public entry points (`repro::ExperimentConfig::quick()` model
//! settings, the embedders' `train*`/`extend`,
//! `reldb::{cascade_delete, restore_journal}`,
//! `repro::durable::DurablePipeline`). The seed determines the dataset
//! content, the held-out tuples, the op mix and every embedding seed.
//! Shards are the library default (`STEMBED_SHARDS`, else the core
//! count) and are recorded with the result.
//!
//! | workload | why it exists | stresses | bypasses |
//! |---|---|---|---|
//! | `static_train` | static training time (Table V) | `core::train` (eligibility probe, MC sampler, per-sample SGD), graph build, full-corpus walks, SGNS | distribution cache, solve, Node2Vec continuation, WAL |
//! | `insert_stream` | one-by-one insertion (§VI-E, Table VI) | journal restore, cache replay, plan frontiers, KD, solve; graph extension, continuation walks, incremental negative table, continued SGNS | training (set-up only), WAL |
//! | `durable_churn` | sustained churn through the WAL | WAL append + batched fsync, snapshots, recovery replay, delete-scoped cache invalidation next to inserts | training (set-up only) |
//!
//! The module docs of each workload (`src/workloads/`) give the exact
//! sizes and sequences.
//!
//! ## Metrics
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics: `setup_s`
//! (median of several set-ups), `pass_s` (median wall time of one timed
//! pass), and `op1_p50_ms` / `op2_p50_ms`, the medians of the workload's
//! two timed calls (FoRWaRD / Node2Vec training, FoRWaRD / Node2Vec
//! `extend`, commit / delete). Every op timed is above 100 µs. The full
//! named report — every op's median and tail (the highest percentile with
//! at least ten samples beyond it, with its n) — is printed above the
//! result line.
//!
//! Traced runs (`--trace 1`) alternate untraced and traced passes, record
//! a span around each call into a layer plus counter deltas, print the
//! per-layer table (calls, total and self time, counters), write the
//! spans to `target/perfbench/`, and report the per-layer metrics,
//! including the traced and untraced `pass_s` of the same run (the
//! tracing overhead).
//!
//! The last line of standard output is always one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. A failed output
//! check or op makes `correct` false and the exit code 1; bad arguments
//! exit with 2 and print no result.

mod context;
mod digest;
mod json;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Params, Report};

/// Workload names.
const WORKLOADS: [&str; 3] = ["static_train", "insert_stream", "durable_churn"];

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op1_p50_ms", "ms"),
    ("op2_p50_ms", "ms"),
];

/// The two timed calls behind `op1` and `op2`.
fn primary_ops(workload: &str) -> [&'static str; 2] {
    match workload {
        "static_train" => ["fwd_train", "n2v_train"],
        "insert_stream" => ["fwd_extend", "n2v_extend"],
        _ => ["commit", "delete"],
    }
}

/// Where a per-layer metric comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Median traced pass, s.
    TracedPass,
    /// Median untraced pass of the same run, s.
    UntracedPass,
    /// Median duration of the spans with this name, ms.
    SpanMedian(&'static str),
    /// Total of the counter named like the metric, per traced pass.
    PerPass,
    /// Counter total per span of the given name.
    PerSpan(&'static str, &'static str),
    /// `hits / (hits + misses)` of two counters.
    HitRate(&'static str, &'static str),
    /// Ratio of two counter totals.
    Share(&'static str, &'static str),
}

/// Per-layer metrics (`--trace 1`): name, unit, source. Every workload
/// reports all of them; a layer a workload bypasses reads 0, times and
/// counters alike. The trainings run in the dynamic workloads' set-up, so
/// their spans are there too.
const PER_LAYER: [(&str, &str, Source); 39] = [
    ("trace.pass_s", "s", Source::TracedPass),
    ("trace.untraced_pass_s", "s", Source::UntracedPass),
    ("core.train_ms", "ms", Source::SpanMedian("core.train")),
    (
        "dbgraph.build_ms",
        "ms",
        Source::SpanMedian("dbgraph.build"),
    ),
    (
        "dbgraph.nodes",
        "count",
        Source::PerSpan("dbgraph.nodes", "dbgraph.build"),
    ),
    (
        "node2vec.train_ms",
        "ms",
        Source::SpanMedian("node2vec.train"),
    ),
    (
        "reldb.restore_ms",
        "ms",
        Source::SpanMedian("reldb.restore"),
    ),
    ("reldb.facts_restored", "count", Source::PerPass),
    ("core.extend_ms", "ms", Source::SpanMedian("core.extend")),
    ("core.distcache.hits", "count", Source::PerPass),
    ("core.distcache.misses", "count", Source::PerPass),
    ("core.distcache.evicted", "count", Source::PerPass),
    ("core.distcache.invalidations", "count", Source::PerPass),
    ("core.distcache.replays", "count", Source::PerPass),
    ("core.distcache.prefix_hits", "count", Source::PerPass),
    ("core.distcache.prefix_misses", "count", Source::PerPass),
    ("core.distcache.kd_hits", "count", Source::PerPass),
    ("core.distcache.kd_misses", "count", Source::PerPass),
    (
        "core.distcache.hit_rate",
        "ratio",
        Source::HitRate("core.distcache.hits", "core.distcache.misses"),
    ),
    (
        "core.distcache.prefix_hit_rate",
        "ratio",
        Source::HitRate("core.distcache.prefix_hits", "core.distcache.prefix_misses"),
    ),
    (
        "core.distcache.kd_hit_rate",
        "ratio",
        Source::HitRate("core.distcache.kd_hits", "core.distcache.kd_misses"),
    ),
    (
        "node2vec.extend_ms",
        "ms",
        Source::SpanMedian("node2vec.extend"),
    ),
    ("node2vec.corpus_tokens", "count", Source::PerPass),
    ("node2vec.extend_epochs", "count", Source::PerPass),
    ("node2vec.negative.updates", "count", Source::PerPass),
    ("node2vec.negative.dirty_nodes", "count", Source::PerPass),
    (
        "node2vec.negative.buckets_rebuilt",
        "count",
        Source::PerPass,
    ),
    (
        "node2vec.negative.rebuilt_share",
        "ratio",
        Source::Share(
            "node2vec.negative.buckets_rebuilt",
            "node2vec.negative.buckets",
        ),
    ),
    (
        "durable.mutate_restore_ms",
        "ms",
        Source::SpanMedian("durable.mutate_restore"),
    ),
    (
        "durable.mutate_delete_ms",
        "ms",
        Source::SpanMedian("durable.mutate_delete"),
    ),
    (
        "durable.extend_ms",
        "ms",
        Source::SpanMedian("durable.extend"),
    ),
    ("wal.frames", "count", Source::PerPass),
    ("wal.bytes", "bytes", Source::PerPass),
    ("wal.fsyncs", "count", Source::PerPass),
    (
        "wal.bytes_per_fact",
        "bytes",
        Source::Share("wal.bytes", "wal.facts"),
    ),
    ("wal.snapshot_ms", "ms", Source::SpanMedian("wal.snapshot")),
    ("wal.snapshot_bytes", "bytes", Source::PerPass),
    ("wal.recover_ms", "ms", Source::SpanMedian("wal.recover")),
    (
        "wal.frames_replayed",
        "count",
        Source::PerSpan("wal.frames_replayed", "wal.recover"),
    ),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(workload: &str, p: &Params, tr: &mut Tracer) -> Report {
    match workload {
        "static_train" => workloads::static_train::run(p, tr),
        "insert_stream" => workloads::insert_stream::run(p, tr),
        _ => workloads::durable_churn::run(p, tr),
    }
}

/// End-to-end metric values; `None` where nothing was measured.
fn end_to_end(workload: &str, r: &Report) -> Vec<(&'static str, &'static str, Option<f64>)> {
    let [op1, op2] = primary_ops(workload);
    let values = [
        stats::median(&r.setup_s),
        stats::median(&r.pass_s),
        stats::median(r.samples(op1)),
        stats::median(r.samples(op2)),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// Per-layer metric values.
fn per_layer(r: &Report, tr: &Tracer) -> Vec<(&'static str, &'static str, f64)> {
    let passes = r.traced_pass_s.len().max(1) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    PER_LAYER
        .iter()
        .map(|&(name, unit, src)| {
            let v = match src {
                Source::TracedPass => stats::median(&r.traced_pass_s).unwrap_or(0.0),
                Source::UntracedPass => stats::median(&r.pass_s).unwrap_or(0.0),
                Source::SpanMedian(span) => stats::median(&tr.durations_ms(span)).unwrap_or(0.0),
                Source::PerPass => tr.counter_total(name) / passes,
                Source::PerSpan(c, span) => {
                    ratio(tr.counter_total(c), tr.durations_ms(span).len() as f64)
                }
                Source::HitRate(hits, misses) => {
                    let h = tr.counter_total(hits);
                    ratio(h, h + tr.counter_total(misses))
                }
                Source::Share(num, den) => ratio(tr.counter_total(num), tr.counter_total(den)),
            };
            (name, unit, v)
        })
        .collect()
}

/// One quantity of the named report.
struct Named {
    name: String,
    value: Option<f64>,
    unit: &'static str,
    /// Samples behind the value.
    n: usize,
    /// First and third quartile, for a median.
    quartiles: Option<(f64, f64)>,
    /// Percentile and samples beyond it, for a tail.
    tail: Option<(f64, usize)>,
}

impl Named {
    fn new(name: String, value: Option<f64>, unit: &'static str, n: usize) -> Named {
        Named {
            name,
            value,
            unit,
            n,
            quartiles: None,
            tail: None,
        }
    }

    fn json(&self) -> Json {
        let mut e = Json::obj()
            .with("value", self.value)
            .with("unit", self.unit)
            .with("n", self.n);
        if let Some((q1, q3)) = self.quartiles {
            e = e.with("q1", q1).with("q3", q3);
        }
        if let Some((pct, beyond)) = self.tail {
            e = e.with("percentile", pct).with("beyond", beyond);
        }
        e
    }

    fn line(&self) -> String {
        let value = self.value.map_or("-".into(), |v| format!("{v:.6}"));
        let tail = self.tail.map_or(String::new(), |(pct, beyond)| {
            format!("  p{pct} ({beyond} beyond)")
        });
        format!(
            "  {:<22} {value:>14} {:<2} n={}{tail}",
            self.name, self.unit, self.n
        )
    }
}

/// Every measured quantity under its descriptive name, with unit and
/// sample count: set-up, pass, and each timed call's median and tail.
/// Trainings are reported in seconds, as Table V does.
fn named_metrics(r: &Report) -> Vec<Named> {
    let mut out = vec![
        Named::new(
            "setup_s".into(),
            stats::median(&r.setup_s),
            "s",
            r.setup_s.len(),
        ),
        Named::new(
            "pass_s".into(),
            stats::median(&r.pass_s),
            "s",
            r.pass_s.len(),
        ),
    ];
    for (op, samples) in &r.ops {
        let p50 = stats::median(samples);
        if op.ends_with("_train") {
            let secs = p50.map(|v| v / 1e3);
            out.push(Named::new(format!("{op}_s"), secs, "s", samples.len()));
            continue;
        }
        let mut median = Named::new(format!("{op}_p50_ms"), p50, "ms", samples.len());
        median.quartiles = stats::quartiles(samples).map(|[q1, _, q3]| (q1, q3));
        out.push(median);
        if let Some(t) = stats::tail(samples) {
            let mut tail = Named::new(format!("{op}_tail_ms"), Some(t.value), "ms", t.n);
            tail.tail = Some((t.pct, t.beyond));
            out.push(tail);
        }
    }
    out
}

/// Where and how the numbers were taken: host, shards, kernel path, seed,
/// pass counts, CPU steal over the passes, WAL location, dataset sizes.
fn run_context(args: &Args, report: &Report) -> Json {
    let [op1, op2] = primary_ops(&args.workload);
    let mut context = context::host()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("passes", report.pass_s.len())
        .with("traced_passes", report.traced_pass_s.len())
        .with("steal", context::steal(report.cpu))
        .with("op1", op1)
        .with("op2", op2);
    if !report.context.iter().any(|(k, _)| *k == "wal_dir") {
        context = context
            .with("wal_dir", Json::Null)
            .with("wal_tmpfs", Json::Null);
    }
    report
        .context
        .iter()
        .fold(context, |c, (k, v)| c.with(k, v.clone()))
}

fn metrics_json(values: &[(&str, &str, f64)]) -> Json {
    values.iter().fold(Json::obj(), |o, &(name, unit, v)| {
        o.with(name, Json::obj().with("value", v).with("unit", unit))
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let p = Params {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: false,
    };
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tr = Tracer::new(args.trace);
    let report = run_workload(&args.workload, &p, &mut tr);

    let e2e = end_to_end(&args.workload, &report);
    let layers = per_layer(&report, &tr);
    let named = named_metrics(&report);
    for m in &named {
        println!("{}", m.line());
    }
    let mut context = run_context(&args, &report);
    if args.trace {
        print!("{}", tr.render_table());
        let (traced, untraced) = (layers[0].2, layers[1].2);
        if untraced > 0.0 {
            println!(
                "  trace overhead: traced pass_s {traced:.4} s vs untraced {untraced:.4} s ({:+.2}%)",
                (traced / untraced - 1.0) * 100.0
            );
        }
        let path = std::path::PathBuf::from(format!(
            "target/perfbench/trace-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match tr.write_jsonl(&path) {
            Ok(()) => context = context.with("trace_file", path.display().to_string()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let named_json = named
        .iter()
        .fold(Json::obj(), |o, m| o.with(&m.name, m.json()));
    println!(
        "{}",
        Json::obj().with(
            "report",
            Json::obj()
                .with("context", context)
                .with("metrics", named_json)
                .with("errors", report.errors.clone())
        )
    );

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        layers
    } else {
        e2e.iter()
            .map(|&(n, u, v)| (n, u, v.unwrap_or(f64::NAN)))
            .collect()
    };
    let measured = metrics.iter().all(|(_, _, v)| v.is_finite())
        && (args.trace || e2e.iter().all(|(_, _, v)| v.is_some_and(|v| v > 0.0)));
    let correct = report.errors.is_empty() && report.failed == 0 && measured;
    if !measured {
        eprintln!("perfbench: a metric has no samples");
    }
    println!(
        "{}",
        Json::obj()
            .with("correct", correct)
            .with("attempted", report.attempted.max(1))
            .with("failed", report.failed)
            .with("metrics", metrics_json(&metrics))
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload insert_stream --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "insert_stream".into(),
                seed: 7,
                seconds: 12.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload static_train --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload static_train --seed 1 --seconds -1")).is_err());
        assert!(parse_args(&argv(
            "--workload static_train --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload static_train --seed 1 --seconds")).is_err());
    }

    /// Names in `BENCHMARK.json` at the repository root, in file order.
    fn benchmark_json_names() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        text.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let start = rest.find('"').expect("name value") + 1;
                let len = rest[start..].find('"').expect("closing quote");
                rest[start..start + len].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let mut want: Vec<String> = WORKLOADS.iter().map(ToString::to_string).collect();
        want.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        want.extend(PER_LAYER.iter().map(|(n, _, _)| n.to_string()));
        assert_eq!(benchmark_json_names(), want);
    }

    fn smoke(workload: &str, trace: bool) -> (Report, Tracer) {
        let p = Params {
            seed: 3,
            seconds: 0.0,
            trace,
            tiny: true,
        };
        let mut tr = Tracer::new(trace);
        let r = run_workload(workload, &p, &mut tr);
        assert!(r.errors.is_empty(), "{workload}: {:?}", r.errors);
        assert_eq!(r.failed, 0);
        assert!(r.attempted > 0);
        (r, tr)
    }

    #[test]
    fn static_train_smoke() {
        let (r, _) = smoke("static_train", false);
        for (_, _, v) in end_to_end("static_train", &r) {
            assert!(v.is_some_and(|v| v > 0.0));
        }
        assert_eq!(r.samples("fwd_train").len(), 2);
        // One set-up sample before the passes and one per pass.
        assert_eq!(r.setup_s.len(), 1 + r.pass_s.len());
    }

    #[test]
    fn insert_stream_smoke_traced() {
        let (r, tr) = smoke("insert_stream", true);
        assert_eq!((r.pass_s.len(), r.traced_pass_s.len()), (1, 1));
        assert!(!r.samples("fwd_extend").is_empty());
        let layers = per_layer(&r, &tr);
        let get = |n: &str| layers.iter().find(|(m, _, _)| *m == n).unwrap().2;
        for name in [
            "core.train_ms",
            "reldb.restore_ms",
            "reldb.facts_restored",
            "core.extend_ms",
            "core.distcache.misses",
            "node2vec.extend_ms",
            "node2vec.corpus_tokens",
        ] {
            assert!(get(name) > 0.0, "{name}");
        }
        // The WAL is bypassed: its times and counters read 0.
        for name in ["durable.extend_ms", "wal.frames", "wal.recover_ms"] {
            assert_eq!(get(name), 0.0, "{name}");
        }
    }

    #[test]
    fn durable_churn_smoke_traced() {
        let (r, tr) = smoke("durable_churn", true);
        for op in ["commit", "delete", "snapshot", "recover"] {
            assert!(!r.samples(op).is_empty(), "{op}");
        }
        let layers = per_layer(&r, &tr);
        let get = |n: &str| layers.iter().find(|(m, _, _)| *m == n).unwrap().2;
        for name in [
            "reldb.restore_ms",
            "durable.mutate_restore_ms",
            "durable.mutate_delete_ms",
            "durable.extend_ms",
            "core.distcache.misses",
            "wal.frames",
            "wal.fsyncs",
            "wal.snapshot_ms",
            "wal.snapshot_bytes",
            "wal.recover_ms",
            "wal.frames_replayed",
        ] {
            assert!(get(name) > 0.0, "{name}");
        }
        // FoRWaRD and Node2Vec extend inside `DurablePipeline::extend`,
        // timed as `durable.extend`, so their own spans are absent.
        assert_eq!(get("core.extend_ms"), 0.0);
    }

    #[test]
    fn a_failed_check_is_reported() {
        let mut r = Report::default();
        r.check(true, || unreachable!());
        assert!(r.outcome::<(), _>("op", Err("boom")).is_none());
        assert_eq!((r.attempted, r.failed), (1, 1));
        assert_eq!(r.errors, vec!["op failed: boom".to_string()]);
    }
}
