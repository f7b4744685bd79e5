//! The three workloads and what they share: run parameters, the pass
//! loop, and the per-run [`Report`] they fill.
//!
//! Every workload is a single-client closed loop: each call into the
//! library waits for the previous one. A run sets up several times, with
//! the set-ups spread over the run (the median set-up is reported), and
//! runs identical passes over the same seeded inputs until `--seconds`
//! have elapsed, always finishing the pass in flight. Because passes are
//! identical, their outputs must be bit-identical too, which is one of
//! the output checks.

pub mod durable_churn;
pub mod insert_stream;
pub mod static_train;

use crate::trace::{SpanId, Tracer};
use std::time::Instant;
use stembed_core::{ForwardEmbedder, Node2VecEmbedder};

/// Passes every run makes at least, so cross-pass checks always compare
/// two outputs (and a traced run always has a traced and an untraced
/// pass).
pub const MIN_PASSES: usize = 2;

/// Set-ups of a dynamic workload before its passes and after them; a set-up
/// takes about 2 s, and spreading them over the run steadies their median.
pub const SETUPS: (usize, usize) = (2, 2);

/// Seed streams derived from the workload seed
/// (`stembed_runtime::derive_seed(seed, STREAM)`).
pub mod stream {
    /// Dataset generation.
    pub const DATA: u64 = 1;
    /// Which tuples are held out, and in which order.
    pub const HOLDOUT: u64 = 2;
    /// The operation mix (durable_churn).
    pub const OPS: u64 = 3;
    /// Every training and extension seed.
    pub const EMBED: u64 = 4;
}

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed: dataset content, held-out tuples, op mix and every
    /// embedding seed derive from it.
    pub seed: u64,
    /// Measure for at least this long.
    pub seconds: f64,
    /// Trace every other pass.
    pub trace: bool,
    /// Smoke-test scale: tiny datasets, few ops (tests only).
    pub tiny: bool,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Wall time of each set-up, s.
    pub setup_s: Vec<f64>,
    /// Wall time of each untraced timed pass, s.
    pub pass_s: Vec<f64>,
    /// Wall time of each traced pass, s.
    pub traced_pass_s: Vec<f64>,
    /// Per-call latency samples from untraced passes, ms, by op name.
    pub ops: Vec<(&'static str, Vec<f64>)>,
    /// Calls into the library (trainings, restores, extends, mutations,
    /// snapshots, recoveries).
    pub attempted: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// Failed output checks and op errors (the first 20, verbatim).
    pub errors: Vec<String>,
    /// Workload facts for the run context (dataset size, WAL location…).
    pub context: Vec<(&'static str, crate::json::Json)>,
    /// Host CPU ticks elapsed over the measured passes.
    pub cpu: Option<crate::context::CpuTicks>,
}

impl Report {
    /// Record one latency sample.
    pub fn sample(&mut self, op: &'static str, ms: f64) {
        match self.ops.iter_mut().find(|(name, _)| *name == op) {
            Some((_, v)) => v.push(ms),
            None => self.ops.push((op, vec![ms])),
        }
    }

    /// Samples of one op.
    pub fn samples(&self, op: &str) -> &[f64] {
        self.ops
            .iter()
            .find(|(name, _)| *name == op)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    /// Record a failed check or op error.
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Check a condition; record `msg` when it fails.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.error(msg());
        }
    }

    /// Count a library call and its outcome, returning the value on
    /// success.
    pub fn outcome<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.error(format!("{what} failed: {e}"));
                None
            }
        }
    }

    /// Add a context fact.
    pub fn note(&mut self, key: &'static str, value: impl Into<crate::json::Json>) {
        self.context.push((key, value.into()));
    }
}

/// How a pass is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Untimed, before measurement starts; its outputs are still checked.
    Warmup,
    /// Timed; its per-call samples feed the end-to-end metrics.
    Timed,
    /// Timed with spans and counters recorded.
    Traced,
}

/// Run identical passes until `p.seconds` have elapsed (at least
/// [`MIN_PASSES`]), after an optional warm-up pass; with tracing on,
/// every second pass is traced. The closure runs one pass and returns its
/// timed wall time in seconds.
pub fn run_passes(
    p: &Params,
    tr: &mut Tracer,
    report: &mut Report,
    warmup: bool,
    mut pass: impl FnMut(&mut Tracer, &mut Report, Pass) -> f64,
) {
    tr.set_enabled(false);
    if warmup {
        pass(tr, report, Pass::Warmup);
    }
    let ticks = crate::context::CpuTicks::read();
    let start = Instant::now();
    let mut done = 0usize;
    while done < MIN_PASSES || start.elapsed().as_secs_f64() < p.seconds {
        let kind = if p.trace && done % 2 == 1 {
            Pass::Traced
        } else {
            Pass::Timed
        };
        tr.set_enabled(kind == Pass::Traced);
        let secs = pass(tr, report, kind);
        if kind == Pass::Traced {
            report.traced_pass_s.push(secs);
        } else {
            report.pass_s.push(secs);
        }
        done += 1;
    }
    tr.set_enabled(false);
    report.cpu = ticks
        .zip(crate::context::CpuTicks::read())
        .map(|(a, b)| b.since(a));
}

/// Time a call in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Both embedders, freshly trained.
#[derive(Debug, Clone)]
pub struct Trained {
    /// FoRWaRD.
    pub fwd: ForwardEmbedder,
    /// Node2Vec.
    pub n2v: Node2VecEmbedder,
    /// Wall time of the FoRWaRD training, ms.
    pub fwd_ms: f64,
    /// Wall time of the Node2Vec training (graph build + SGNS), ms.
    pub n2v_ms: f64,
}

/// Train FoRWaRD, then Node2Vec, on the default runtime. Node2Vec is
/// composed from its two layer calls exactly as
/// `Node2VecEmbedder::train_localized_with_runtime` does, so the graph
/// build and the SGNS training get spans of their own. `None` (after
/// recording the error) when FoRWaRD training fails.
pub fn train_both(
    tr: &mut Tracer,
    report: &mut Report,
    db: &reldb::Database,
    rel: reldb::RelationId,
    cfg: &repro::ExperimentConfig,
    seed: u64,
) -> Option<Trained> {
    let runtime = stembed_runtime::Runtime::from_env();
    let op = tr.op("op.fwd_train");
    let span = tr.begin("core.train");
    let (fwd, fwd_ms) = timed(|| {
        stembed_core::ForwardEmbedding::train_with_runtime(db, rel, &cfg.fwd, seed, runtime)
    });
    tr.end(span);
    tr.end(op);
    let fwd = ForwardEmbedder::from(report.outcome("FoRWaRD training", fwd)?);

    let op = tr.op("op.n2v_train");
    let t = Instant::now();
    let span = tr.begin("dbgraph.build");
    let graph = dbgraph::DbGraph::build_localized(db, rel);
    tr.count(span, "dbgraph.nodes", graph.graph().node_count() as f64);
    tr.end(span);
    let span = tr.begin("node2vec.train");
    let model = node2vec::Node2VecModel::train_with_runtime(graph.graph(), &cfg.n2v, seed, runtime);
    tr.end(span);
    let n2v =
        Node2VecEmbedder::from_parts(graph, model, stembed_core::embedder::ExtendMode::OneByOne);
    let n2v_ms = t.elapsed().as_secs_f64() * 1e3;
    tr.end(op);
    report.attempted += 1;
    Some(Trained {
        fwd,
        n2v,
        fwd_ms,
        n2v_ms,
    })
}

/// The trained starting state of the two dynamic workloads.
#[derive(Debug, Clone)]
pub struct Dynamic {
    /// The database with the held-out tuples removed.
    pub db: reldb::Database,
    /// Held-out prediction tuples with a journal of their own, in
    /// deletion order.
    pub held_out: Vec<reldb::FactId>,
    /// Their cascade journals, in the same order.
    pub journals: Vec<reldb::DeletionJournal>,
    /// Prediction tuples still live.
    pub kept: Vec<reldb::FactId>,
    /// Both embedders, trained on `db`.
    pub trained: Trained,
}

/// Set-up shared by the dynamic workloads: generate the dataset,
/// cascade-delete a seeded half of its prediction tuples (journalled, in
/// a seeded order), and train both embedders on the rest with one epoch
/// each — per-arrival cost does not depend on training epochs. Repeated
/// `setups` times (each timed); every repeat must train bit-identical
/// embeddings, and the last one is returned.
pub fn dynamic_setup(
    p: &Params,
    tr: &mut Tracer,
    report: &mut Report,
    generate: fn(&datasets::DatasetParams) -> datasets::Dataset,
    scale: f64,
    setups: usize,
) -> Option<Dynamic> {
    let mut out: Option<Dynamic> = None;
    for _ in 0..setups {
        let next = set_up_once(p, tr, report, generate, scale)?;
        if let Some(prev) = &out {
            check_same_training(report, prev, &next);
        }
        out = Some(next);
    }
    let d = out?;
    report.note("scale", scale);
    report.note(
        "facts",
        d.db.schema()
            .relation_ids()
            .map(|r| d.db.live_count(r))
            .sum::<usize>(),
    );
    report.note("held_out", d.held_out.len());
    report.note("kept", d.kept.len());
    report.note(
        "held_out_facts",
        d.journals
            .iter()
            .map(reldb::DeletionJournal::len)
            .sum::<usize>(),
    );
    report.note("graph_nodes", d.trained.n2v.model().node_count());
    Some(d)
}

/// The same set-up `setups` more times after the passes, timed like the
/// first ones, so that the set-up samples span the run as the passes do
/// rather than one stretch of host load at its start. Each repeat must
/// train the embeddings the passes started from.
pub fn trailing_setups(
    p: &Params,
    tr: &mut Tracer,
    report: &mut Report,
    generate: fn(&datasets::DatasetParams) -> datasets::Dataset,
    scale: f64,
    setups: usize,
    first: &Dynamic,
) {
    for _ in 0..setups {
        let Some(next) = set_up_once(p, tr, report, generate, scale) else {
            return;
        };
        check_same_training(report, first, &next);
    }
}

/// Record a failed check unless two set-ups trained bit-identical
/// embeddings.
fn check_same_training(report: &mut Report, a: &Dynamic, b: &Dynamic) {
    let (a, b) = (
        crate::digest::embeddings(&a.trained.fwd, &a.trained.n2v),
        crate::digest::embeddings(&b.trained.fwd, &b.trained.n2v),
    );
    report.check(a == b, || {
        format!("set-up repeats trained different embeddings ({a:016x} vs {b:016x})")
    });
}

/// One timed set-up of a dynamic workload.
fn set_up_once(
    p: &Params,
    tr: &mut Tracer,
    report: &mut Report,
    generate: fn(&datasets::DatasetParams) -> datasets::Dataset,
    scale: f64,
) -> Option<Dynamic> {
    let mut cfg = repro::ExperimentConfig::quick();
    cfg.data.seed = stembed_runtime::derive_seed(p.seed, stream::DATA);
    cfg.data.scale = scale;
    cfg.fwd.epochs = 1;
    cfg.n2v.epochs = 1;
    let embed_seed = stembed_runtime::derive_seed(p.seed, stream::EMBED);
    let t = Instant::now();
    let ds = generate(&cfg.data);
    let mut db = ds.db;
    let mut order: Vec<reldb::FactId> = ds.labels.iter().map(|&(f, _)| f).collect();
    let mut rng = stembed_runtime::stream_rng(p.seed, stream::HOLDOUT);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let mut kept = order.split_off(order.len() / 2);
    let span = tr.begin("reldb.cascade_delete");
    let mut held_out = Vec::with_capacity(order.len());
    let mut journals = Vec::with_capacity(order.len());
    for &f in &order {
        // A tuple whose last reference went with an earlier deletion
        // was collected as an orphan; it returns with that journal.
        if db.fact(f).is_none() {
            continue;
        }
        let j = reldb::cascade_delete(&mut db, f, true);
        if let Some(j) = report.outcome("held-out cascade delete", j) {
            held_out.push(f);
            journals.push(j);
        }
    }
    tr.end(span);
    kept.retain(|&f| db.fact(f).is_some());
    let trained = train_both(tr, report, &db, ds.prediction_rel, &cfg, embed_seed)?;
    report.setup_s.push(t.elapsed().as_secs_f64());
    Some(Dynamic {
        db,
        held_out,
        journals,
        kept,
        trained,
    })
}

/// Counters of the FoRWaRD distribution cache, under their per-layer
/// metric names.
pub fn distcache_counters(fwd: &ForwardEmbedder) -> [(&'static str, u64); 9] {
    let s = fwd.dist_cache_stats();
    [
        ("core.distcache.hits", s.hits),
        ("core.distcache.misses", s.misses),
        ("core.distcache.evicted", s.evicted),
        ("core.distcache.invalidations", s.invalidations),
        ("core.distcache.replays", s.replays),
        ("core.distcache.prefix_hits", s.prefix_hits),
        ("core.distcache.prefix_misses", s.prefix_misses),
        ("core.distcache.kd_hits", s.kd_hits),
        ("core.distcache.kd_misses", s.kd_misses),
    ]
}

/// Maintenance counters of the Node2Vec negative-sampling table, under
/// their per-layer metric names.
pub fn negative_counters(n2v: &Node2VecEmbedder) -> [(&'static str, u64); 3] {
    let s = n2v.model().negative_stats();
    [
        ("node2vec.negative.updates", s.updates),
        ("node2vec.negative.dirty_nodes", s.dirty_nodes),
        ("node2vec.negative.buckets_rebuilt", s.buckets_rebuilt),
    ]
}

/// Attach `after - before` of each counter to a span.
pub fn count_deltas<const N: usize>(
    tr: &mut Tracer,
    span: SpanId,
    before: [(&'static str, u64); N],
    after: [(&'static str, u64); N],
) {
    for ((name, b), (_, a)) in before.into_iter().zip(after) {
        tr.count(span, name, a.saturating_sub(b) as f64);
    }
}

/// Attach the latest Node2Vec extension's corpus size and epochs (they
/// describe that call alone, so they are read rather than diffed) and the
/// table's bucket count, the denominator of the rebuilt-bucket share.
pub fn count_extend_timing(tr: &mut Tracer, span: SpanId, n2v: &Node2VecEmbedder) {
    let t = n2v.model().last_extend_timing();
    tr.count(span, "node2vec.corpus_tokens", t.corpus_tokens as f64);
    tr.count(span, "node2vec.extend_epochs", t.epochs as f64);
    tr.count(
        span,
        "node2vec.negative.buckets",
        n2v.model().negative_bucket_count() as f64,
    );
}
