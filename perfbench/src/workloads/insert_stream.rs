//! `insert_stream` — the one-by-one insertion protocol (§VI-E, Table VI).
//!
//! Set-up generates `genes` at scale 1.0 (862 prediction tuples),
//! cascade-deletes a seeded half, and trains both embedders on the rest
//! (one epoch each); the run sets up twice before its passes and twice
//! after them. A pass starts from a clone of that trained state and
//! restores the 431 journals in inverse deletion order; after each
//! restore it calls FoRWaRD `extend`, then Node2Vec `extend`. One
//! untimed warm-up pass precedes the timed ones.
//!
//! Stresses the insert-only dynamic path: the `reldb` journal, on the
//! FoRWaRD side distribution-cache replay, scheme-plan frontiers, KD and
//! the least-squares solve; on the Node2Vec side graph extension,
//! continuation walks, the incremental negative table and continued SGNS.
//! Genes has the most prediction tuples, its scheme prefixes are shared,
//! and its INTERACTION table references genes on both sides, so inserts
//! also evict cache entries. Bypasses training and the WAL.
//!
//! `op1` is one FoRWaRD `extend`, `op2` one Node2Vec `extend`.

use super::{
    count_deltas, count_extend_timing, distcache_counters, dynamic_setup, negative_counters,
    run_passes, stream, timed, trailing_setups, Params, Pass, Report, SETUPS,
};
use crate::digest;
use crate::trace::Tracer;
use std::time::Instant;
use stembed_core::TupleEmbedder;
use stembed_runtime::derive_seed;

/// Run the workload.
pub fn run(p: &Params, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    report.note("dataset", "genes");
    let (scale, (before, after)) = if p.tiny {
        (0.08, (1, 1))
    } else {
        (1.0, SETUPS)
    };
    let generate = datasets::genes::generate;
    let Some(dy) = dynamic_setup(p, tr, &mut report, generate, scale, before) else {
        return report;
    };
    let embed_seed = derive_seed(p.seed, stream::EMBED);

    // Reference digests of every vector that exists before a pass.
    let old_facts: Vec<_> = dy.trained.fwd.inner().embedded_facts().collect();
    let old_nodes = dy.trained.n2v.model().node_count();
    let fwd_old = digest::forward_of(&dy.trained.fwd, old_facts.iter().copied());
    let n2v_old = digest::node2vec_prefix(&dy.trained.n2v, old_nodes);
    let mut final_digest: Option<u64> = None;

    run_passes(p, tr, &mut report, true, |tr, report, kind| {
        let mut db = dy.db.clone();
        let mut fwd = dy.trained.fwd.clone();
        let mut n2v = dy.trained.n2v.clone();
        let traced = kind == Pass::Traced;
        let start = Instant::now();
        for (round, journal) in dy.journals.iter().rev().enumerate() {
            let seed = derive_seed(embed_seed, round as u64);
            let op = tr.op("op.arrival");

            let span = tr.begin("reldb.restore");
            let restored = reldb::restore_journal(&mut db, journal);
            tr.end(span);
            let Some(restored) = report.outcome("restore", restored) else {
                tr.end(op);
                continue;
            };
            tr.count(span, "reldb.facts_restored", restored.len() as f64);

            let before = traced.then(|| distcache_counters(&fwd));
            let span = tr.begin("core.extend");
            let (r, ms) = timed(|| fwd.extend(&db, &restored, seed));
            tr.end(span);
            if let Some(before) = before {
                count_deltas(tr, span, before, distcache_counters(&fwd));
            }
            if report.outcome("FoRWaRD extend", r).is_some() && kind == Pass::Timed {
                report.sample("fwd_extend", ms);
            }

            let before = traced.then(|| negative_counters(&n2v));
            let span = tr.begin("node2vec.extend");
            let (r, ms) = timed(|| n2v.extend(&db, &restored, seed));
            tr.end(span);
            if let Some(before) = before {
                count_deltas(tr, span, before, negative_counters(&n2v));
                count_extend_timing(tr, span, &n2v);
            }
            if report.outcome("Node2Vec extend", r).is_some() && kind == Pass::Timed {
                report.sample("n2v_extend", ms);
            }
            tr.end(op);
        }
        let secs = start.elapsed().as_secs_f64();

        // Output checks (untimed): old vectors untouched, every arrival
        // embedded with a finite vector of length dim, identical passes.
        report.check(
            digest::forward_of(&fwd, old_facts.iter().copied()) == fwd_old,
            || "a FoRWaRD vector that existed before the pass changed".into(),
        );
        report.check(digest::node2vec_prefix(&n2v, old_nodes) == n2v_old, || {
            "a Node2Vec vector that existed before the pass changed".into()
        });
        for &f in &dy.held_out {
            for (name, v, dim) in [
                ("FoRWaRD", fwd.embedding(f), fwd.dim()),
                ("Node2Vec", n2v.embedding(f), n2v.dim()),
            ] {
                let ok = v.is_some_and(|v| v.len() == dim && digest::all_finite(&v));
                report.check(ok, || {
                    format!("{name}: arrival {f} lacks a finite vector of length {dim}")
                });
            }
        }
        let d = digest::embeddings(&fwd, &n2v);
        let want = *final_digest.get_or_insert(d);
        report.check(d == want, || {
            format!("pass digest {d:016x} differs from the first pass's {want:016x}")
        });
        secs
    });
    trailing_setups(p, tr, &mut report, generate, scale, after, &dy);
    report.note("arrivals_per_pass", dy.journals.len());
    report
}
