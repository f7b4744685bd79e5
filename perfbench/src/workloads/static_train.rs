//! `static_train` — the paper's static phase (Table V).
//!
//! Set-up generates `hepatitis` at scale 0.25 (about 3,200 facts, 125
//! prediction tuples, a 12k-node graph). A set-up sample is the mean of
//! [`GENERATIONS`] back-to-back generations; one is taken before the
//! passes and one at the start of every pass. Each pass then trains
//! FoRWaRD, then Node2Vec, from scratch on the same seed, with the quick
//! preset's model sizes and epochs cut to 5 (FoRWaRD) and 1 (Node2Vec);
//! cutting epochs keeps each epoch's mix of work.
//!
//! Stresses `core::train` (eligibility probe, Monte-Carlo sampler,
//! per-sample SGD), `DbGraph::build_localized`, full-corpus walks and
//! SGNS. Bypasses the distribution cache, the dynamic solve, Node2Vec
//! continuation and the WAL: a change to those must read "no change"
//! here.
//!
//! `op1` is one FoRWaRD training and `op2` one Node2Vec training.

use super::{run_passes, stream, train_both, Params, Pass, Report};
use crate::digest;
use crate::trace::Tracer;
use std::time::Instant;
use stembed_core::TupleEmbedder;
use stembed_runtime::derive_seed;

/// Generations behind one set-up sample. One generation takes 4–7 ms; a
/// call that short falls wholly into a busy or an idle stretch of a
/// shared host (on a 2-vCPU KVM guest single calls are bimodal, about
/// 3.3 vs 6.5 ms), so a median of single calls flips between the two
/// modes from run to run. A sample is the mean of this many back-to-back
/// generations instead, about a quarter of a second.
const GENERATIONS: usize = 48;

/// Generate the dataset `n` times back to back: the last copy and the
/// mean wall time of one generation, s.
fn set_up(cfg: &repro::ExperimentConfig, n: usize) -> (datasets::Dataset, f64) {
    let t = Instant::now();
    let mut ds = datasets::hepatitis::generate(&cfg.data);
    for _ in 1..n {
        // Drop the previous copy first, so every generation runs on the
        // same recycled memory instead of faulting in fresh pages.
        drop(ds);
        ds = datasets::hepatitis::generate(&cfg.data);
    }
    (ds, t.elapsed().as_secs_f64() / n as f64)
}

/// Run the workload.
pub fn run(p: &Params, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    let mut cfg = repro::ExperimentConfig::quick();
    cfg.data.seed = derive_seed(p.seed, stream::DATA);
    cfg.data.scale = if p.tiny { 0.08 } else { 0.25 };
    cfg.fwd.epochs = 5;
    cfg.n2v.epochs = 1;
    let embed_seed = derive_seed(p.seed, stream::EMBED);
    let generations = if p.tiny { 2 } else { GENERATIONS };

    // One set-up sample here and one at the start of every pass, so the
    // samples spread over the whole run as the passes do.
    let (ds, secs) = set_up(&cfg, generations);
    report.setup_s.push(secs);
    report.note("dataset", "hepatitis");
    report.note("scale", cfg.data.scale);
    report.note("generations_per_setup_sample", generations);
    report.note(
        "facts",
        ds.db
            .schema()
            .relation_ids()
            .map(|r| ds.db.live_count(r))
            .sum::<usize>(),
    );
    report.note("prediction_tuples", ds.sample_count());
    let rel = ds.prediction_rel;
    drop(ds);

    let mut first: Option<u64> = None;
    run_passes(p, tr, &mut report, false, |tr, report, kind| {
        let (ds, secs) = set_up(&cfg, generations);
        report.setup_s.push(secs);
        let t = Instant::now();
        let trained = train_both(tr, report, &ds.db, rel, &cfg, embed_seed);
        let secs = t.elapsed().as_secs_f64();
        let Some(trained) = trained else {
            return secs;
        };
        if kind == Pass::Timed {
            report.sample("fwd_train", trained.fwd_ms);
            report.sample("n2v_train", trained.n2v_ms);
        }

        // Output checks: finite vectors of length dim for every
        // prediction tuple, and bit-identical repeats.
        for &(f, _) in &ds.labels {
            let ok = [
                trained
                    .fwd
                    .embedding(f)
                    .map(|v| (v.len(), trained.fwd.dim(), v)),
                trained
                    .n2v
                    .embedding(f)
                    .map(|v| (v.len(), trained.n2v.dim(), v)),
            ]
            .into_iter()
            .all(|e| e.is_some_and(|(len, dim, v)| len == dim && digest::all_finite(&v)));
            report.check(ok, || format!("fact {f}: missing or non-finite vector"));
        }
        let d = digest::embeddings(&trained.fwd, &trained.n2v);
        let want = *first.get_or_insert(d);
        report.check(d == want, || {
            format!("repeat digest {d:016x} differs from the first repeat's {want:016x}")
        });
        secs
    });
    report
}
