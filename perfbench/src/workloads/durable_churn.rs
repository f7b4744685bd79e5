//! `durable_churn` — sustained insert/delete churn through
//! `DurablePipeline`.
//!
//! Set-up generates `world` at scale 1.0 (239 countries; no foreign key
//! links one country to another, so deletes and arrivals interleave in
//! any order), holds out a seeded half of the countries as arrivals, and
//! trains both embedders on the rest (one epoch each); the run sets up
//! twice before its passes and twice after them. Each pass (a
//! "rep") puts a clone of that state under a fresh WAL with the default
//! fsync batching and runs one seeded stream of 200 operations, half of
//! each kind:
//!
//! * commit — `mutate(restore_journal)` of the next arrival, then
//!   `extend` of both embedders (which appends an `Extend` frame);
//! * delete — `mutate(cascade_delete)` of a live country, permanently.
//!
//! A snapshot is taken every 25 operations; snapshots stop so that
//! exactly 10 commits follow the last one, which fixes the recovery
//! replay length. After the stream the pipeline is synced and dropped,
//! the in-memory filesystem is power-cycled to its durable image, and the
//! pipeline is recovered three times.
//!
//! The WAL lives in the library's in-memory `SimVfs` (no fail points):
//! the benchmark may only write inside its checkout, whose filesystem is
//! unknown and whose fsyncs would add disk noise. Fsyncs and bytes are
//! therefore reported as counts; their wall-clock cost is not measured.
//!
//! Stresses WAL append with batched fsync, snapshot encode and write,
//! recovery replay, and delete-scoped distribution-cache invalidation; it
//! puts deletes beside inserts on FoRWaRD's cache, so a cache change that
//! helps `insert_stream` but hurts churn shows here. Bypasses training.
//!
//! `op1` is one commit, `op2` one delete.

use super::{
    count_deltas, count_extend_timing, distcache_counters, dynamic_setup, negative_counters,
    run_passes, stream, trailing_setups, Params, Pass, Report, SETUPS,
};
use crate::digest::Digest;
use crate::trace::{SpanId, Tracer};
use repro::durable::{DurablePipeline, DEFAULT_SYNC_EVERY};
use std::sync::Arc;
use std::time::Instant;
use stembed_runtime::derive_seed;
use stembed_wal::{SimVfs, Vfs};

/// Where the WAL lives inside the in-memory filesystem.
const WAL_DIR: &str = "wal";

/// Recoveries per rep.
const RECOVERIES: usize = 3;

/// Stream shape: operations per rep, snapshot cadence, and commits after
/// the last snapshot.
#[derive(Debug, Clone, Copy)]
struct Shape {
    ops: usize,
    snapshot_every: usize,
    tail_commits: usize,
}

const FULL: Shape = Shape {
    ops: 200,
    snapshot_every: 25,
    tail_commits: 10,
};

const TINY: Shape = Shape {
    ops: 12,
    snapshot_every: 4,
    tail_commits: 2,
};

/// One operation of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Restore journal `i` and extend.
    Commit(usize),
    /// Cascade-delete a live prediction tuple.
    Delete(reldb::FactId),
}

/// The seeded stream: equal numbers of commits and deletes in a seeded
/// order, arrivals restored in inverse deletion order, each delete
/// picking a seeded live tuple. `snapshot_before[k]` marks the operations
/// preceded by a snapshot.
fn plan(
    shape: Shape,
    journals: usize,
    held_out: &[reldb::FactId],
    kept: &[reldb::FactId],
    seed: u64,
) -> (Vec<Op>, Vec<bool>) {
    let commits = (shape.ops / 2).min(journals);
    let mut kinds: Vec<bool> = (0..shape.ops).map(|i| i < commits).collect();
    let mut rng = stembed_runtime::stream_rng(seed, stream::OPS);
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.random_range(0..=i));
    }
    // `kept` outnumbers the deletes, so a delete always finds a live tuple.
    let mut live = kept.to_vec();
    let mut next = journals;
    let ops: Vec<Op> = kinds
        .into_iter()
        .map(|commit| {
            if commit {
                next -= 1;
                live.push(held_out[next]);
                Op::Commit(next)
            } else {
                Op::Delete(live.swap_remove(rng.random_range(0..live.len())))
            }
        })
        .collect();
    let commit_at: Vec<usize> = (0..ops.len())
        .filter(|&k| matches!(ops[k], Op::Commit(_)))
        .collect();
    let cut = commit_at[commit_at.len().saturating_sub(shape.tail_commits)..]
        .first()
        .copied()
        .unwrap_or(ops.len());
    let snapshot_before = (0..ops.len())
        .map(|k| k == cut || (k > 0 && k < cut && k % shape.snapshot_every == 0))
        .collect();
    (ops, snapshot_before)
}

/// WAL writer counters, under their per-layer metric names.
fn wal_counters(pipe: &DurablePipeline) -> [(&'static str, u64); 3] {
    let s = pipe.wal_stats();
    [
        ("wal.frames", s.frames),
        ("wal.bytes", s.bytes),
        ("wal.fsyncs", s.fsyncs),
    ]
}

/// Run `f` under a span, attaching the WAL counter deltas when traced.
fn with_wal<T>(
    tr: &mut Tracer,
    name: &'static str,
    pipe: &mut DurablePipeline,
    f: impl FnOnce(&mut Tracer, &mut DurablePipeline) -> T,
) -> (T, SpanId) {
    let before = tr.enabled().then(|| wal_counters(pipe));
    let span = tr.begin(name);
    let out = f(tr, pipe);
    tr.end(span);
    if let Some(before) = before {
        count_deltas(tr, span, before, wal_counters(pipe));
    }
    (out, span)
}

/// Run the workload.
pub fn run(p: &Params, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    report.note("dataset", "world");
    let (scale, (before, after), shape) = if p.tiny {
        (0.08, (1, 1), TINY)
    } else {
        (1.0, SETUPS, FULL)
    };
    let generate = datasets::world::generate;
    let Some(dy) = dynamic_setup(p, tr, &mut report, generate, scale, before) else {
        return report;
    };
    let embed_seed = derive_seed(p.seed, stream::EMBED);
    let (ops, snapshot_before) = plan(shape, dy.journals.len(), &dy.held_out, &dy.kept, p.seed);
    report.note("ops_per_rep", ops.len());
    report.note(
        "commits_per_rep",
        ops.iter().filter(|o| matches!(o, Op::Commit(_))).count(),
    );
    report.note(
        "snapshots_per_rep",
        snapshot_before.iter().filter(|&&s| s).count(),
    );
    report.note("wal_dir", format!("{WAL_DIR} (in-memory SimVfs)"));
    report.note("wal_vfs", "SimVfs");
    report.note("wal_tmpfs", false);
    report.note("sync_every", DEFAULT_SYNC_EVERY);

    let mut rep_digest: Option<u64> = None;
    run_passes(p, tr, &mut report, false, |tr, report, kind| {
        let timed_pass = kind == Pass::Timed;
        let sim = SimVfs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let created = DurablePipeline::create(
            vfs.clone(),
            WAL_DIR,
            dy.db.clone(),
            dy.trained.fwd.clone(),
            dy.trained.n2v.clone(),
            DEFAULT_SYNC_EVERY,
        );
        let Some(mut pipe) = report.outcome("pipeline create", created) else {
            return 0.0;
        };
        let mut snapshot_lsn = pipe.last_lsn().unwrap_or(0);
        let mut last_snapshot_span = None;

        let start = Instant::now();
        for (k, &op) in ops.iter().enumerate() {
            if snapshot_before[k] {
                let o = tr.op("op.snapshot");
                let t = Instant::now();
                let (r, span) = with_wal(tr, "wal.snapshot", &mut pipe, |_, pipe| pipe.snapshot());
                let ms = t.elapsed().as_secs_f64() * 1e3;
                tr.end(o);
                last_snapshot_span = Some(span);
                if let Some(lsn) = report.outcome("snapshot", r) {
                    snapshot_lsn = lsn;
                    if timed_pass {
                        report.sample("snapshot", ms);
                    }
                }
            }
            match op {
                Op::Commit(j) => {
                    let o = tr.op("op.commit");
                    let t = Instant::now();
                    let journal = &dy.journals[j];
                    let (r, span) =
                        with_wal(tr, "durable.mutate_restore", &mut pipe, |tr, pipe| {
                            pipe.mutate(|db| {
                                let s = tr.begin("reldb.restore");
                                let r = reldb::restore_journal(db, journal);
                                tr.end(s);
                                if let Ok(restored) = &r {
                                    tr.count(s, "reldb.facts_restored", restored.len() as f64);
                                }
                                r
                            })
                        });
                    tr.count(span, "wal.facts", journal.len() as f64);
                    let ok = report.outcome("commit restore", r).is_some_and(|restored| {
                        let traced = tr.enabled();
                        let before = traced.then(|| {
                            (
                                distcache_counters(pipe.forward()),
                                negative_counters(pipe.node2vec()),
                            )
                        });
                        let seed = derive_seed(embed_seed, k as u64);
                        let (r, span) = with_wal(tr, "durable.extend", &mut pipe, |_, pipe| {
                            pipe.extend(&restored, seed)
                        });
                        if let Some((dist, neg)) = before {
                            count_deltas(tr, span, dist, distcache_counters(pipe.forward()));
                            count_deltas(tr, span, neg, negative_counters(pipe.node2vec()));
                            count_extend_timing(tr, span, pipe.node2vec());
                        }
                        report.outcome("commit extend", r).is_some()
                    });
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    tr.end(o);
                    if ok && timed_pass {
                        report.sample("commit", ms);
                    }
                }
                Op::Delete(f) => {
                    let o = tr.op("op.delete");
                    let t = Instant::now();
                    let (r, span) = with_wal(tr, "durable.mutate_delete", &mut pipe, |tr, pipe| {
                        pipe.mutate(|db| {
                            let s = tr.begin("reldb.cascade_delete");
                            let r = reldb::cascade_delete(db, f, true);
                            tr.end(s);
                            r
                        })
                    });
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    tr.end(o);
                    if let Some(journal) = report.outcome("delete", r) {
                        tr.count(span, "wal.facts", journal.len() as f64);
                        if timed_pass {
                            report.sample("delete", ms);
                        }
                    }
                }
            }
        }
        let secs = start.elapsed().as_secs_f64();

        // Untimed: make the tail durable, remember the live state, and
        // power-cycle the filesystem to what survived.
        let _ = report.outcome("final sync", pipe.sync());
        let live = pipe.state_bytes();
        let last_lsn = pipe.last_lsn().unwrap_or(0);
        if let (Some(span), Ok(Some(bytes))) = (last_snapshot_span, pipe.latest_snapshot_bytes()) {
            tr.count(span, "wal.snapshot_bytes", bytes as f64);
        }
        drop(pipe);
        sim.crash();

        for _ in 0..RECOVERIES {
            let o = tr.op("op.recover");
            let span = tr.begin("wal.recover");
            let t = Instant::now();
            let r = DurablePipeline::recover(vfs.clone(), WAL_DIR, DEFAULT_SYNC_EVERY);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tr.end(span);
            tr.end(o);
            tr.count(
                span,
                "wal.frames_replayed",
                last_lsn.saturating_sub(snapshot_lsn) as f64,
            );
            if let Some(recovered) = report.outcome("recover", r) {
                if timed_pass {
                    report.sample("recover", ms);
                }
                report.check(recovered.state_bytes() == live, || {
                    "a recovered pipeline's state differs from the live pipeline's".into()
                });
            }
        }
        let d = Digest::default().bytes(&live).finish();
        let want = *rep_digest.get_or_insert(d);
        report.check(d == want, || {
            format!("rep state digest {d:016x} differs from the first rep's {want:016x}")
        });
        secs
    });
    trailing_setups(p, tr, &mut report, generate, scale, after, &dy);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldb::{FactId, RelationId};

    fn ids(n: u32, base: u32) -> Vec<FactId> {
        (0..n)
            .map(|i| FactId::new(RelationId(0), base + i))
            .collect()
    }

    #[test]
    fn plan_balances_ops_and_fixes_the_tail() {
        let held = ids(120, 0);
        let kept = ids(119, 1000);
        let (ops, snap) = plan(FULL, held.len(), &held, &kept, 7);
        assert_eq!(ops.len(), 200);
        let commits: Vec<usize> = (0..ops.len())
            .filter(|&k| matches!(ops[k], Op::Commit(_)))
            .collect();
        assert_eq!(commits.len(), 100);
        // Arrivals come back in inverse deletion order.
        let order: Vec<usize> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Commit(j) => Some(*j),
                Op::Delete(_) => None,
            })
            .collect();
        assert_eq!(order, (20..120).rev().collect::<Vec<_>>());
        // Exactly `tail_commits` commits follow the last snapshot.
        let last = snap.iter().rposition(|&s| s).unwrap();
        assert_eq!(commits.iter().filter(|&&k| k >= last).count(), 10);
        assert!(snap[..last]
            .iter()
            .enumerate()
            .all(|(k, &s)| !s || k % 25 == 0));
        // Deletes never repeat a tuple and never touch a pending arrival.
        let mut deleted: Vec<FactId> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Delete(f) => Some(*f),
                Op::Commit(_) => None,
            })
            .collect();
        let n = deleted.len();
        deleted.sort();
        deleted.dedup();
        assert_eq!(deleted.len(), n);
        assert!(deleted.iter().all(|f| !held[..20].contains(f)));
        // Same seed, same plan.
        assert_eq!(plan(FULL, held.len(), &held, &kept, 7).0, ops);
    }
}
