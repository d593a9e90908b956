//! Property tests for the storage layer: random operation streams applied
//! both to a [`Relation`] (row pool + dedup table + indexes) and to a naive
//! `Vec`-of-rows model, asserting after every step that the two agree and
//! that the pool's internal invariants hold:
//!
//! * **dedup-map consistency** — membership, cardinality and iteration
//!   match the model exactly; re-inserting a present row or retracting an
//!   absent one is a no-op;
//! * **tombstone accounting** — `slot_count() == len() + dead_count()`, ids
//!   are never reused before a compaction, and compaction renumbers densely;
//! * **generation bumps** — `row_checked` accepts ids under the generation
//!   they were obtained under and rejects them (typed `StaleRowId`) once a
//!   compaction has moved ids;
//! * **support saturation** — random add/sub streams against an exact
//!   `u64` shadow counter: the stored count equals the true count while it
//!   fits, and the [`SUPPORT_SATURATED`] sentinel is sticky once reached;
//! * **composite probes** — `probe_rows` and `lookup_rows_composite` agree
//!   with the model whether a composite request is a real index (a strict
//!   subset of the columns) or covers the full key and is answered by the
//!   dedup table, through inserts, retractions, clears, compactions and
//!   shared clones.
//!
//! The streams are seeded (same RNG as the fuzz harness), so every failure
//! reproduces from its seed.

use std::collections::BTreeSet;

use carac_analysis::rng::SmallRng;
use carac_storage::{
    DbKind, RelId, Relation, RelationSchema, RowId, StorageError, StorageManager, Tuple, Value,
    SUPPORT_SATURATED,
};

const SEEDS: u64 = 40;
const OPS_PER_SEED: usize = 300;

fn test_relation(arity: usize) -> Relation {
    Relation::new(RelationSchema::new(RelId(0), "Prop", arity, true))
}

fn row(values: &[u32]) -> Vec<Value> {
    values.iter().copied().map(Value::int).collect()
}

/// Draws a row from a small value universe so inserts collide with earlier
/// rows often enough to exercise the dedup table and tombstone reuse paths.
fn random_row(rng: &mut SmallRng, arity: usize) -> Vec<u32> {
    (0..arity).map(|_| rng.gen_range_u32(0, 12)).collect()
}

fn raw(relation: &Relation, id: RowId) -> Vec<u32> {
    relation.row(id).iter().map(|v| v.raw()).collect()
}

/// The rows `probe_rows` yields for `filters` once re-checked against every
/// filter (as the execution kernels do), and whether a composite access
/// path answered.
fn probe_matches(relation: &Relation, filters: &[(usize, Value)]) -> (Vec<Vec<u32>>, bool) {
    let mut scratch = Vec::new();
    let probe = relation.probe_rows(filters, &mut scratch);
    let rows = probe
        .iter()
        .filter(|&id| filters.iter().all(|&(col, v)| relation.row(id)[col] == v))
        .map(|id| raw(relation, id))
        .collect();
    (rows, probe.via_composite())
}

/// Checks both composite access paths of `relation` (which carries a
/// composite request over columns 0 and 1) against the model: a probe
/// binding columns 0 and 1, and a probe binding every column.
fn check_composite_probes(relation: &Relation, model_order: &[Vec<u32>], key: &[u32], ctx: &str) {
    // Filters deliberately out of column order.
    let pair = [(1, Value::int(key[1])), (0, Value::int(key[0]))];
    let expected: Vec<Vec<u32>> = model_order
        .iter()
        .filter(|r| r[0] == key[0] && r[1] == key[1])
        .cloned()
        .collect();
    let exact = relation
        .lookup_rows_composite(&pair)
        .expect("the request covers columns 0 and 1");
    let exact: Vec<Vec<u32>> = exact.into_iter().map(|id| raw(relation, id)).collect();
    assert_eq!(exact, expected, "lookup_rows_composite ({ctx})");
    assert_eq!(
        probe_matches(relation, &pair),
        (expected, true),
        "probe_rows on columns 0 and 1 ({ctx})"
    );
    let full: Vec<(usize, Value)> = key
        .iter()
        .enumerate()
        .rev()
        .map(|(col, &v)| (col, Value::int(v)))
        .collect();
    let expected: Vec<Vec<u32>> = model_order.iter().filter(|r| *r == key).cloned().collect();
    assert_eq!(
        probe_matches(relation, &full),
        (expected, true),
        "probe_rows on the full key ({ctx})"
    );
}

/// One random op stream against a `Relation` and a naive ordered-set model,
/// checked for agreement after every single operation.
fn run_stream(seed: u64, arity: usize, with_indexes: bool, compactions: bool) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FF_EE00_u64.wrapping_mul(arity as u64 + 1));
    let mut relation = test_relation(arity);
    if with_indexes {
        relation.add_index(0).expect("column 0 exists");
        if arity >= 2 {
            relation
                .add_composite_index(&[0, 1])
                .expect("columns exist");
        }
    }
    // The model: live rows in insertion order (the order `iter_rows`
    // guarantees), plus a set view for membership.
    let mut model_order: Vec<Vec<u32>> = Vec::new();
    let mut model_set: BTreeSet<Vec<u32>> = BTreeSet::new();
    let mut inserted_ever = 0usize;

    for step in 0..OPS_PER_SEED {
        let ctx = || format!("seed {seed} arity {arity} step {step}");
        if compactions && rng.gen_bool(0.01) {
            relation.clear();
            model_order.clear();
            model_set.clear();
        } else if compactions && rng.gen_bool(0.04) {
            let before = relation.generation();
            let had_dead = relation.dead_count() > 0;
            relation.compact();
            assert_eq!(
                relation.generation(),
                before + u64::from(had_dead),
                "compaction must bump the generation exactly when ids move ({})",
                ctx()
            );
            assert_eq!(relation.dead_count(), 0, "compaction clears tombstones");
        } else if !model_order.is_empty() && rng.gen_bool(0.35) {
            // Retract: half the time a present row, half a random (likely
            // absent) one — both must report exactly what the model says.
            let values = if rng.gen_bool(0.5) {
                model_order[rng.gen_range_usize(0, model_order.len())].clone()
            } else {
                random_row(&mut rng, arity)
            };
            let was_present = model_set.remove(&values);
            if was_present {
                model_order.retain(|r| r != &values);
            }
            let removed = relation.retract_row(&row(&values)).expect("arity matches");
            assert_eq!(removed, was_present, "retract effect ({})", ctx());
        } else {
            let values = random_row(&mut rng, arity);
            let was_new = model_set.insert(values.clone());
            if was_new {
                model_order.push(values.clone());
            }
            let inserted = relation.insert_row(&row(&values)).expect("arity matches");
            assert_eq!(inserted, was_new, "insert set semantics ({})", ctx());
            if inserted {
                inserted_ever += 1;
            }
        }

        // --- dedup-map consistency ----------------------------------------
        assert_eq!(relation.len(), model_set.len(), "cardinality ({})", ctx());
        let got: Vec<Vec<u32>> = relation
            .iter_rows()
            .map(|r| r.iter().map(|v| v.raw()).collect())
            .collect();
        assert_eq!(got, model_order, "iteration order ({})", ctx());
        // Membership agrees on present rows and on a random probe.
        let probe = random_row(&mut rng, arity);
        assert_eq!(
            relation.contains_row(&row(&probe)),
            model_set.contains(&probe),
            "membership probe ({})",
            ctx()
        );
        assert_eq!(
            relation.contains(&Tuple::new(row(&probe))),
            model_set.contains(&probe),
            "tuple membership probe ({})",
            ctx()
        );

        // --- tombstone accounting -----------------------------------------
        assert_eq!(
            relation.slot_count(),
            relation.len() + relation.dead_count(),
            "slots = live + dead ({})",
            ctx()
        );
        // Ids are never reused between compactions, so the allocated slots
        // can never exceed the number of effective insertions.
        assert!(
            relation.slot_count() <= inserted_ever,
            "slot count cannot exceed lifetime insertions ({})",
            ctx()
        );

        // --- index consistency --------------------------------------------
        if with_indexes {
            let needle = rng.gen_range_u32(0, 12);
            let expected = model_order
                .iter()
                .filter(|r| r[0] == needle)
                .cloned()
                .collect::<Vec<_>>();
            let via_index: Vec<Vec<u32>> = relation
                .lookup_rows(0, Value::int(needle))
                .into_iter()
                .map(|id| relation.row(id).iter().map(|v| v.raw()).collect())
                .collect();
            assert_eq!(via_index, expected, "single-column index ({})", ctx());
            if arity >= 2 {
                let key = random_row(&mut rng, arity);
                check_composite_probes(&relation, &model_order, &key, &ctx());
            }
        }
    }
}

#[test]
fn random_op_streams_agree_with_the_vec_model() {
    for seed in 0..SEEDS {
        run_stream(seed, 2, false, false);
    }
}

#[test]
fn random_op_streams_agree_under_indexes_and_compaction() {
    for seed in 0..SEEDS {
        run_stream(seed, 2, true, true);
        run_stream(seed, 3, true, true);
    }
}

#[test]
fn unary_and_wide_rows_behave_identically() {
    for seed in 0..SEEDS / 2 {
        run_stream(seed, 1, true, true);
        run_stream(seed, 4, false, true);
    }
}

#[test]
fn row_ids_are_stable_until_compaction_then_stale() {
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        let mut relation = test_relation(2);
        // Insert a batch and remember every row's id under generation 0.
        let mut live: Vec<(RowId, Vec<u32>)> = Vec::new();
        for _ in 0..40 {
            let values = random_row(&mut rng, 2);
            let hash = carac_storage::pool::row_hash(&row(&values));
            if relation.insert_row(&row(&values)).unwrap() {
                let id = relation
                    .find_row_hashed(&row(&values), hash)
                    .expect("just inserted");
                live.push((id, values));
            }
        }
        let generation = relation.generation();
        // Ids resolve to their rows while the generation stands.
        for (id, values) in &live {
            assert_eq!(
                relation.row_checked(*id, generation).unwrap(),
                &row(values)[..]
            );
        }
        // Retract a random half: the retracted ids now fail the liveness
        // check even under the same generation, the others still resolve.
        let mut retracted = BTreeSet::new();
        for (i, (_, values)) in live.iter().enumerate() {
            if rng.gen_bool(0.5) {
                assert!(relation.retract_row(&row(values)).unwrap());
                retracted.insert(i);
            }
        }
        for (i, (id, values)) in live.iter().enumerate() {
            if retracted.contains(&i) {
                assert!(matches!(
                    relation.row_checked(*id, generation),
                    Err(StorageError::StaleRowId { .. })
                ));
            } else {
                assert_eq!(
                    relation.row_checked(*id, generation).unwrap(),
                    &row(values)[..]
                );
            }
        }
        // Compaction renumbers: every pre-compaction id is rejected under
        // the old generation, and the surviving rows are all still present
        // under fresh ids.
        let moved = !retracted.is_empty();
        relation.compact();
        if moved {
            assert_eq!(relation.generation(), generation + 1);
            for (id, _) in &live {
                assert!(matches!(
                    relation.row_checked(*id, generation),
                    Err(StorageError::StaleRowId { .. })
                ));
            }
        }
        for (i, (_, values)) in live.iter().enumerate() {
            assert_eq!(
                relation.contains_row(&row(values)),
                !retracted.contains(&i),
                "seed {seed}: compaction must preserve exactly the live rows"
            );
        }
        // Dense renumbering: ids are 0..len again.
        assert_eq!(relation.slot_count(), relation.len());
    }
}

#[test]
fn support_counts_track_an_exact_shadow_counter() {
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_5EED);
        let mut relation = test_relation(1);
        relation.insert_row(&row(&[7])).unwrap();
        let id: RowId = 0;
        // insert_row starts support at 1.
        let mut shadow: u64 = 1;
        let mut saturated = false;
        for _ in 0..2_000 {
            if rng.gen_bool(0.55) {
                // Adds are occasionally huge so the stream actually reaches
                // the sentinel within the step budget.
                let n = if rng.gen_bool(0.02) {
                    SUPPORT_SATURATED / 2
                } else {
                    rng.gen_range_u32(1, 1_000)
                };
                relation.add_support(id, n);
                shadow += u64::from(n);
            } else {
                let n = rng.gen_range_u32(1, 1_000);
                relation.sub_support(id, n);
                if !saturated {
                    shadow = shadow.saturating_sub(u64::from(n));
                }
            }
            if shadow >= u64::from(SUPPORT_SATURATED) {
                saturated = true;
            }
            if saturated {
                // Sticky: once the true count has ever left u32 range the
                // stored count must stay pinned at the sentinel — a
                // subtract must never conjure an exact-looking value.
                assert!(
                    relation.support_saturated(id),
                    "seed {seed}: sentinel must stick"
                );
                assert_eq!(relation.support_of(id), SUPPORT_SATURATED);
            } else {
                assert!(!relation.support_saturated(id));
                assert_eq!(
                    u64::from(relation.support_of(id)),
                    shadow,
                    "seed {seed}: exact counts must match the shadow counter"
                );
            }
        }
    }
}

#[test]
fn retraction_resets_support_and_reinsertion_restarts_it() {
    let mut relation = test_relation(1);
    relation.insert_row(&row(&[1])).unwrap();
    relation.add_support(0, 41);
    assert_eq!(relation.support_of(0), 42);
    assert!(relation.retract_row(&row(&[1])).unwrap());
    // Re-insertion allocates a fresh slot with a fresh count of 1 — the old
    // slot's count must not leak into the new derivation's bookkeeping.
    assert!(relation.insert_row(&row(&[1])).unwrap());
    let hash = carac_storage::pool::row_hash(&row(&[1]));
    let id = relation
        .find_row_hashed(&row(&[1]), hash)
        .expect("live row");
    assert_eq!(relation.support_of(id), 1);
    assert!(!relation.support_saturated(id));
}

#[test]
fn full_key_requests_build_no_index_and_partial_ones_do() {
    // Arity 2: the [0, 1] request is the full key.  It is listed and
    // answers probes, but costs no bytes beyond the pool and the column
    // index.
    let mut plain = test_relation(2);
    let mut full_key = test_relation(2);
    for relation in [&mut plain, &mut full_key] {
        relation.add_index(0).unwrap();
    }
    full_key.add_composite_index(&[1, 0]).unwrap();
    assert!(full_key.has_composite_index(&[0, 1]));
    assert!(full_key.has_composite_indexes());
    assert_eq!(full_key.composite_indexed_columns(), vec![vec![0, 1]]);
    // Arity 3: the [0, 1] request is a strict subset and builds a real
    // composite index.
    let mut plain3 = test_relation(3);
    let mut partial = test_relation(3);
    partial.add_composite_index(&[0, 1]).unwrap();
    assert_eq!(partial.composite_indexed_columns(), vec![vec![0, 1]]);
    for i in 0..500u32 {
        for relation in [&mut plain, &mut full_key] {
            relation.insert_row(&row(&[i % 37, i])).unwrap();
        }
        for relation in [&mut plain3, &mut partial] {
            relation.insert_row(&row(&[i % 37, i % 11, i])).unwrap();
        }
    }
    assert_eq!(full_key.pool_stats(), plain.pool_stats());
    assert!(partial.pool_stats().bytes > plain3.pool_stats().bytes);
    let model: Vec<Vec<u32>> = (0..500u32).map(|i| vec![i % 37, i]).collect();
    check_composite_probes(&full_key, &model, &[3, 40], "full key, present");
    check_composite_probes(&full_key, &model, &[3, 41], "full key, absent");
    let model3: Vec<Vec<u32>> = (0..500u32).map(|i| vec![i % 37, i % 11, i]).collect();
    check_composite_probes(&partial, &model3, &[3, 7, 40], "partial key");
}

#[test]
fn full_key_probes_agree_across_shared_clones() {
    let mut sm = StorageManager::new(true);
    let edge = sm.register("Edge", 2, true);
    sm.add_composite_index(edge, &[0, 1]).unwrap();
    let mut model: Vec<Vec<u32>> = Vec::new();
    for i in 0..200u32 {
        let values = vec![i % 13, i % 29];
        if sm.insert_fact_row(edge, &row(&values)).unwrap() {
            model.push(values);
        }
    }
    sm.share();
    let mut clone = sm.clone();
    // The clone retracts every third row and adds new ones; the original
    // must keep answering from its own (shared, then unshared) copy.
    let mut clone_model = model.clone();
    for values in model.iter().step_by(3) {
        assert!(clone.retract_fact_row(edge, &row(values)).unwrap());
    }
    clone_model.retain(|r| !model.iter().step_by(3).any(|gone| gone == r));
    for i in 0..40u32 {
        let values = vec![100 + i, i];
        assert!(clone.insert_fact_row(edge, &row(&values)).unwrap());
        clone_model.push(values);
    }
    for (storage, model, name) in [(&sm, &model, "original"), (&clone, &clone_model, "clone")] {
        let derived = storage.relation(DbKind::Derived, edge).unwrap();
        for key in [[0, 0], [1, 1], [3, 3], [12, 12], [105, 5], [7, 100]] {
            check_composite_probes(derived, model, &key, name);
        }
    }
}
