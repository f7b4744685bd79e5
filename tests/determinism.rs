//! Thread-count invariance: the same master seed must produce
//! **bit-identical** results at 1, 2, and 8 runtime shards, for every
//! randomised pipeline in the workspace. This is the contract that makes
//! the parallel runtime safe to scale: the shard count is a pure
//! performance knob, never a semantics knob.
//!
//! The mechanism under test (see `stembed-runtime`): RNG streams are
//! derived per logical item (start node, target, chunk), parallel maps
//! return results in item order, and floating-point reductions merge
//! fixed-size chunks in chunk order.

use stembed::core::{ForwardConfig, ForwardEmbedding};
use stembed::dbgraph::{DbGraph, NodeId, WalkConfig, Walker};
use stembed::node2vec::{Node2VecConfig, Node2VecModel};
use stembed::reldb::{cascade_delete, restore_journal};
use stembed::runtime::Runtime;

const SHARDS: [usize; 3] = [1, 2, 8];

/// FNV-1a (64-bit) over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn movies() -> (
    stembed::reldb::Database,
    std::collections::HashMap<&'static str, stembed::reldb::FactId>,
) {
    stembed::reldb::movies::movies_database_labeled()
}

#[test]
fn walk_corpus_is_bit_identical_across_shard_counts() {
    let (db, _) = movies();
    let g = DbGraph::build(&db);
    let cfg = WalkConfig {
        walks_per_node: 12,
        walk_length: 10,
        p: 0.7,
        q: 1.4,
    };
    let corpora: Vec<_> = SHARDS
        .iter()
        .map(|&s| Walker::with_runtime(g.graph(), cfg.clone(), 2023, Runtime::new(s)).corpus())
        .collect();
    assert!(!corpora[0].is_empty());
    for (i, c) in corpora.iter().enumerate().skip(1) {
        assert_eq!(c, &corpora[0], "shards={} diverged", SHARDS[i]);
    }
}

#[test]
fn forward_training_is_bit_identical_across_shard_counts() {
    let (db, _) = movies();
    let actors = db.schema().relation_id("ACTORS").unwrap();
    let cfg = ForwardConfig {
        dim: 12,
        epochs: 5,
        nsamples: 30,
        batch_size: 8, // exercise the parallel minibatch reduction
        ..ForwardConfig::small()
    };
    let embeddings: Vec<ForwardEmbedding> = SHARDS
        .iter()
        .map(|&s| {
            ForwardEmbedding::train_with_runtime(&db, actors, &cfg, 7, Runtime::new(s)).unwrap()
        })
        .collect();
    for (i, emb) in embeddings.iter().enumerate().skip(1) {
        for f in db.fact_ids(actors) {
            let a = embeddings[0].embedding(f).unwrap();
            let b = emb.embedding(f).unwrap();
            // Bit-level comparison: f64 equality would already fail on any
            // reordered float sum, but make the intent explicit.
            let a_bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
            let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a_bits, b_bits, "shards={}: ϕ({f}) diverged", SHARDS[i]);
        }
        // Training diagnostics must agree too (same samples, same order).
        assert_eq!(emb.epoch_losses(), embeddings[0].epoch_losses());
    }
}

#[test]
fn dynamic_extension_is_bit_identical_across_shard_counts() {
    let (db0, ids) = movies();
    let mut db = db0.clone();
    let journal = cascade_delete(&mut db, ids["a5"], false).unwrap();
    let actors = db.schema().relation_id("ACTORS").unwrap();
    let cfg = ForwardConfig {
        dim: 8,
        epochs: 4,
        nsamples: 25,
        ..ForwardConfig::small()
    };

    let vectors: Vec<Vec<u64>> = SHARDS
        .iter()
        .map(|&s| {
            let mut emb =
                ForwardEmbedding::train_with_runtime(&db, actors, &cfg, 5, Runtime::new(s))
                    .unwrap();
            let mut db2 = db.clone();
            restore_journal(&mut db2, &journal).unwrap();
            emb.extend(&db2, ids["a5"], 11).unwrap();
            emb.embedding(ids["a5"])
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    for (i, v) in vectors.iter().enumerate().skip(1) {
        assert_eq!(v, &vectors[0], "shards={}: extension diverged", SHARDS[i]);
    }
}

#[test]
fn cached_and_uncached_extension_are_bit_identical_across_shard_counts() {
    // Property (over several master seeds): the walk-distribution cache is
    // semantically invisible. A batch extension on the persistent cache
    // (warm from the first fact onwards) and per-fact solves on throwaway
    // caches produce bit-identical ϕ(f_new), at 1, 2, and 8 shards.
    use stembed::core::ExtendOptions;
    use stembed::runtime::derive_seed;

    let (db0, ids) = movies();
    let mut db = db0.clone();
    let j_a5 = cascade_delete(&mut db, ids["a5"], false).unwrap();
    let j_a3 = cascade_delete(&mut db, ids["a3"], false).unwrap();
    let actors = db.schema().relation_id("ACTORS").unwrap();
    let cfg = ForwardConfig {
        dim: 8,
        epochs: 4,
        nsamples: 25,
        ..ForwardConfig::small()
    };
    let new_facts = [ids["a3"], ids["a5"]];

    for master_seed in [3u64, 17, 99] {
        let run = |shards: usize, cached: bool| -> Vec<Vec<u64>> {
            let mut emb = ForwardEmbedding::train_with_runtime(
                &db,
                actors,
                &cfg,
                master_seed,
                Runtime::new(shards),
            )
            .unwrap();
            let mut db2 = db.clone();
            restore_journal(&mut db2, &j_a3).unwrap();
            restore_journal(&mut db2, &j_a5).unwrap();
            if cached {
                emb.extend_batch(&db2, &new_facts, master_seed ^ 0xbeef)
                    .unwrap();
                assert!(
                    emb.dist_cache().stats().hits > 0,
                    "the cached path must actually hit"
                );
            } else {
                for (i, &f) in new_facts.iter().enumerate() {
                    emb.extend_with(
                        &db2,
                        f,
                        derive_seed(master_seed ^ 0xbeef, i as u64),
                        ExtendOptions {
                            nnew_samples: None,
                            reuse_cache: false,
                        },
                    )
                    .unwrap();
                }
                assert!(emb.dist_cache().is_empty(), "uncached path kept entries");
            }
            new_facts
                .iter()
                .map(|&f| {
                    emb.embedding(f)
                        .unwrap()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                })
                .collect()
        };
        let base = run(1, true);
        for &shards in &SHARDS {
            for cached in [true, false] {
                if shards == 1 && cached {
                    continue; // that configuration *is* the baseline
                }
                assert_eq!(
                    run(shards, cached),
                    base,
                    "seed={master_seed} shards={shards} cached={cached} diverged"
                );
            }
        }
    }
}

#[test]
fn cache_survives_a_delete_restore_cycle_without_changing_results() {
    // Invalidation property: mutating the database between extensions
    // (delete → restore of an unrelated fact) must leave the final vector
    // exactly what a cold-cache solve computes.
    let (db0, ids) = movies();
    let mut db = db0.clone();
    let journal = cascade_delete(&mut db, ids["a5"], false).unwrap();
    let actors = db.schema().relation_id("ACTORS").unwrap();
    let cfg = ForwardConfig {
        dim: 8,
        epochs: 4,
        nsamples: 25,
        ..ForwardConfig::small()
    };
    let emb0 = ForwardEmbedding::train(&db, actors, &cfg, 5).unwrap();
    restore_journal(&mut db, &journal).unwrap();

    // Warm the cache, then run the db through a delete→restore cycle.
    let mut warm = emb0.clone();
    warm.extend(&db, ids["a5"], 11).unwrap();
    let j_m6 = cascade_delete(&mut db, ids["m6"], false).unwrap();
    restore_journal(&mut db, &j_m6).unwrap();
    warm.forget(ids["a5"]);
    warm.extend(&db, ids["a5"], 11).unwrap();

    let mut cold = emb0.clone();
    cold.extend(&db, ids["a5"], 11).unwrap();

    let a: Vec<u64> = warm
        .embedding(ids["a5"])
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let b: Vec<u64> = cold
        .embedding(ids["a5"])
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(a, b, "cycled warm cache diverged from cold solve");
    let stats = warm.dist_cache().stats();
    assert!(
        stats.replays >= 1 || stats.invalidations >= 1,
        "the cycle must have been caught up (replay) or cleared"
    );
}

#[test]
fn fine_grained_invalidation_is_bit_identical_to_cold_caches() {
    // Property: across a whole insert/delete/restore *sequence*, a single
    // retained cache — caught up after every mutation by journal replay,
    // evicting only FK-reachable entries — produces bit-identical vectors
    // to throwaway caches (nothing read before a solve, nothing kept
    // after), at 1, 2, and 8 shards.
    use stembed::core::ExtendOptions;

    let (db0, ids) = movies();
    let mut base = db0.clone();
    let j_a5 = cascade_delete(&mut base, ids["a5"], false).unwrap();
    let j_a3 = cascade_delete(&mut base, ids["a3"], false).unwrap();
    let actors = base.schema().relation_id("ACTORS").unwrap();
    let cfg = ForwardConfig {
        dim: 8,
        epochs: 4,
        nsamples: 25,
        ..ForwardConfig::small()
    };

    // One run = the full mutation/extension sequence; returns the solved
    // vector bits after every extension step.
    let run = |shards: usize, retained: bool| -> Vec<Vec<u64>> {
        let mut emb =
            ForwardEmbedding::train_with_runtime(&base, actors, &cfg, 23, Runtime::new(shards))
                .unwrap();
        let mut db = base.clone();
        let mut out: Vec<Vec<u64>> = Vec::new();
        let mut step = 0u64;
        let mut extend = |emb: &mut ForwardEmbedding, db: &stembed::reldb::Database, f| {
            step += 1;
            if retained {
                emb.extend(db, f, step).unwrap();
            } else {
                emb.extend_with(
                    db,
                    f,
                    step,
                    ExtendOptions {
                        nnew_samples: None,
                        reuse_cache: false,
                    },
                )
                .unwrap();
            }
            out.push(
                emb.embedding(f)
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
            );
        };

        // Insert round 1: a3 comes back (restore mutations), extend it.
        restore_journal(&mut db, &j_a3).unwrap();
        extend(&mut emb, &db, ids["a3"]);
        // Insert round 2: a5 comes back, extend it (a3's entries warm).
        restore_journal(&mut db, &j_a5).unwrap();
        extend(&mut emb, &db, ids["a5"]);
        // A mutation most schemes cannot reach: a brand-new studio.
        db.insert_into("STUDIOS", vec!["s9".into(), "A24".into(), "NY".into()])
            .unwrap();
        emb.forget(ids["a3"]);
        extend(&mut emb, &db, ids["a3"]);
        // A mutation hitting walk-scheme interiors: cascade-delete m6.
        let j_m6 = cascade_delete(&mut db, ids["m6"], false).unwrap();
        emb.forget(ids["a5"]);
        extend(&mut emb, &db, ids["a5"]);
        // And the matching restore.
        restore_journal(&mut db, &j_m6).unwrap();
        emb.forget(ids["a3"]);
        extend(&mut emb, &db, ids["a3"]);

        let stats = emb.dist_cache().stats();
        if retained {
            assert!(stats.hits > 0, "retained cache must actually serve hits");
            assert!(stats.replays >= 3, "mutations must be caught up by replay");
            assert_eq!(
                stats.invalidations, 0,
                "nothing in this sequence may force a full clear"
            );
        } else {
            assert!(emb.dist_cache().is_empty(), "throwaway caches persisted");
        }
        out
    };

    let baseline = run(1, true);
    assert_eq!(baseline.len(), 5);
    for &shards in &SHARDS {
        for retained in [true, false] {
            if shards == 1 && retained {
                continue; // that configuration *is* the baseline
            }
            assert_eq!(
                run(shards, retained),
                baseline,
                "shards={shards} retained={retained} diverged"
            );
        }
    }
}

#[test]
fn plan_evaluated_extension_is_bit_identical_to_cold_caches() {
    // Scheme-plan property: dynamic extension pre-warms exact
    // distributions in the plan's DFS order, so every non-root scheme is
    // assembled as "cached parent frontier + 1 step" through the cache's
    // prefix tier. That factored evaluation must be semantically
    // invisible: across an insert/delete/restore sequence and at 1, 2,
    // and 8 shards, the solved vectors are bit-identical to throwaway
    // caches that never see a second scheme. The vectors' digest and the
    // retained cache's counters are pinned too, so a change that moves
    // every configuration alike still fails.
    use stembed::core::{DistCacheStats, ExtendOptions};

    let (db0, ids) = movies();
    let mut base = db0.clone();
    let j_a5 = cascade_delete(&mut base, ids["a5"], false).unwrap();
    let actors = base.schema().relation_id("ACTORS").unwrap();
    let cfg = ForwardConfig {
        dim: 8,
        epochs: 4,
        nsamples: 25,
        ..ForwardConfig::small()
    };

    let run = |shards: usize, retained: bool| -> Vec<Vec<u64>> {
        let mut emb =
            ForwardEmbedding::train_with_runtime(&base, actors, &cfg, 23, Runtime::new(shards))
                .unwrap();
        // The plan itself is shard-independent: one trie per target set.
        let plan = emb.scheme_plan();
        assert!(plan.shared_step_count() < plan.flat_step_count());
        let mut db = base.clone();
        let mut out: Vec<Vec<u64>> = Vec::new();
        let mut step = 0u64;
        let mut extend = |emb: &mut ForwardEmbedding, db: &stembed::reldb::Database, f| {
            step += 1;
            let options = ExtendOptions {
                nnew_samples: None,
                reuse_cache: retained,
            };
            emb.extend_with(db, f, step, options).unwrap();
            out.push(
                emb.embedding(f)
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
            );
        };

        // Insert: a5 comes back, extend it.
        restore_journal(&mut db, &j_a5).unwrap();
        extend(&mut emb, &db, ids["a5"]);
        // Delete + restore an interior fact, re-extend after each.
        let j_m6 = cascade_delete(&mut db, ids["m6"], false).unwrap();
        emb.forget(ids["a5"]);
        extend(&mut emb, &db, ids["a5"]);
        restore_journal(&mut db, &j_m6).unwrap();
        emb.forget(ids["a5"]);
        extend(&mut emb, &db, ids["a5"]);

        let stats = emb.dist_cache().stats();
        if retained {
            // Golden counters, equal at every shard count. Half the
            // frontier assemblies resume a cached parent: the plan-order
            // pre-warm at work.
            let golden = DistCacheStats {
                hits: 162,
                misses: 83,
                invalidations: 0,
                replays: 2,
                evicted: 18,
                prefix_hits: 14,
                prefix_misses: 14,
                prefix_evicted: 4,
                kd_hits: 0,
                kd_misses: 0,
            };
            assert_eq!(stats, golden, "shards={shards}");
        } else {
            assert!(emb.dist_cache().is_empty(), "throwaway caches persisted");
        }
        out
    };

    let baseline = run(1, true);
    assert_eq!(baseline.len(), 3);
    assert_eq!(
        fnv1a(baseline.iter().flatten().copied()),
        0x9d38_8e38_976a_52e8,
        "solved vectors moved off the golden digest"
    );
    for &shards in &SHARDS {
        for retained in [true, false] {
            if shards == 1 && retained {
                continue; // that configuration *is* the baseline
            }
            assert_eq!(
                run(shards, retained),
                baseline,
                "shards={shards} retained={retained} diverged"
            );
        }
    }
}

#[test]
fn wrapped_journal_falls_back_without_changing_results() {
    // With the journal disabled (capacity 0) every mutation is a forced
    // full clear — slower, but the solved vectors must not move a bit.
    let (db0, ids) = movies();
    let mut base = db0.clone();
    let j_a5 = cascade_delete(&mut base, ids["a5"], false).unwrap();
    let actors = base.schema().relation_id("ACTORS").unwrap();
    let cfg = ForwardConfig {
        dim: 8,
        epochs: 4,
        nsamples: 25,
        ..ForwardConfig::small()
    };
    let emb0 = ForwardEmbedding::train(&base, actors, &cfg, 31).unwrap();

    let run = |journal_capacity: Option<usize>| -> (Vec<u64>, stembed::core::DistCacheStats) {
        let mut db = base.clone();
        if let Some(cap) = journal_capacity {
            db.set_journal_capacity(cap);
        }
        let mut emb = emb0.clone();
        restore_journal(&mut db, &j_a5).unwrap();
        emb.extend(&db, ids["a5"], 7).unwrap();
        // Mutate (unreachable relation) and re-solve on the retained cache.
        db.insert_into("STUDIOS", vec!["s9".into(), "A24".into(), "NY".into()])
            .unwrap();
        emb.forget(ids["a5"]);
        emb.extend(&db, ids["a5"], 7).unwrap();
        let bits = emb
            .embedding(ids["a5"])
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        (bits, emb.dist_cache().stats())
    };

    let (with_journal, stats_journal) = run(None);
    let (without_journal, stats_cleared) = run(Some(0));
    assert_eq!(with_journal, without_journal, "fallback changed the result");
    // The two runs must have taken the two different paths.
    assert!(stats_journal.replays >= 1 && stats_journal.invalidations == 0);
    assert!(stats_cleared.invalidations >= 1 && stats_cleared.replays == 0);
}

#[test]
fn node2vec_sgns_is_bit_identical_across_shard_counts() {
    let (db, _) = movies();
    let g = DbGraph::build(&db);
    let cfg = Node2VecConfig::small();
    let models: Vec<Node2VecModel> = SHARDS
        .iter()
        .map(|&s| Node2VecModel::train_with_runtime(g.graph(), &cfg, 42, Runtime::new(s)))
        .collect();
    for (i, m) in models.iter().enumerate().skip(1) {
        for node in g.graph().node_ids() {
            let a: Vec<u32> = models[0]
                .embedding(node)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let b: Vec<u32> = m.embedding(node).iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "shards={}: node {node:?} diverged", SHARDS[i]);
        }
    }
}

#[test]
fn node2vec_dynamic_extension_is_bit_identical_across_shard_counts() {
    // Three retained extend rounds: the model's incrementally-maintained
    // negative-sampling table and walk arena must stay bit-identical at
    // every shard count after every round, for every embedded node.
    let (db0, ids) = movies();
    let mut db = db0.clone();
    let victims = ["c4", "c1", "c2"];
    let journals: Vec<_> = victims
        .iter()
        .map(|v| cascade_delete(&mut db, ids[v], false).unwrap())
        .collect();
    let results: Vec<Vec<Vec<u32>>> = SHARDS
        .iter()
        .map(|&s| {
            let mut g = DbGraph::build(&db);
            let mut model = Node2VecModel::train_with_runtime(
                g.graph(),
                &Node2VecConfig::small(),
                9,
                Runtime::new(s),
            );
            let mut db2 = db.clone();
            let mut per_round = Vec::new();
            for (round, journal) in journals.iter().rev().enumerate() {
                restore_journal(&mut db2, journal).unwrap();
                let victim = ids[victims[victims.len() - 1 - round]];
                let new_nodes = g.extend_with_fact(&db2, victim);
                model.extend(g.graph(), &new_nodes, 3 + round as u64);
                per_round.push(
                    g.graph()
                        .node_ids()
                        .flat_map(|n| model.embedding(n).iter().map(|v| v.to_bits()))
                        .collect::<Vec<u32>>(),
                );
            }
            per_round
        })
        .collect();
    for (i, v) in results.iter().enumerate().skip(1) {
        assert_eq!(
            v, &results[0],
            "shards={}: n2v extension diverged",
            SHARDS[i]
        );
    }
}

#[test]
fn walk_corpus_differs_across_seeds() {
    // Guard against the degenerate "determinism because nothing is random"
    // failure mode: different seeds must produce different corpora.
    let (db, _) = movies();
    let g = DbGraph::build(&db);
    let cfg = WalkConfig {
        walks_per_node: 12,
        walk_length: 10,
        ..Default::default()
    };
    let c1 = Walker::with_runtime(g.graph(), cfg.clone(), 1, Runtime::new(4)).corpus();
    let c2 = Walker::with_runtime(g.graph(), cfg, 2, Runtime::new(4)).corpus();
    assert_ne!(c1, c2);
    let _ = NodeId(0);
}
