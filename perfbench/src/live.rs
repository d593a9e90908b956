//! `tc-live`: a live transitive-closure session kept current under a
//! stream of edge-churn batches, with the write-ahead journal attached.
//! One operation is one `Carac::apply_update` of one batch.

use std::time::Instant;

use carac::datalog::Program;
use carac::exec::{ExecContext, Tracer};
use carac::storage::{read_snapshot, JournalWriter, PoolStats};
use carac::{Carac, CaracError, EngineConfig, UpdateBatch};
use carac_analysis::rng::SmallRng;

use crate::harness::{
    absorb_tracer, ms, pairs, run_decomposed, sample_magic_rewrite, sample_run, trace_config,
    Budget, E2e, Traced, WorkDir,
};
use crate::inputs::{block_digraph, mix, transitive_closure, Batch, EdgeStream};
use crate::oracle;

/// 2000 nodes in 20 disjoint blocks of 100, one arc per node inside each
/// block.  The blocks keep every batch's DRed cone, and the closure a run
/// ends in, within one block, so the state a seed produces is an average
/// over 20 independent random graphs rather than one.
const BLOCKS: u32 = 20;
const BLOCK: u32 = 100;
const ARCS_PER_BLOCK: usize = 100;
/// Edges retracted, and as many inserted, per batch.  Eight spreads the
/// per-batch cost over several edges, so the batch's fsync is not most of
/// its latency (the fsync's own latency varies with the host's disk load).
const CHURN: usize = 8;
/// Batches applied before timing starts.
const WARMUP: usize = 50;
/// One applied batch in this many has its state checked against the oracle.
const CHECK_EVERY: usize = 400;
/// Batches journaled between a checkpoint and its recovery.
const SUFFIX: usize = 32;
/// Batches per traced round, before the checkpoint and the suffix.
const TRACED_BATCHES: usize = 600;

fn config() -> EngineConfig {
    EngineConfig::default()
        .with_parallelism(1)
        .with_verify(false)
}

fn base(seed: u64) -> Vec<(u32, u32)> {
    block_digraph(BLOCKS, BLOCK, ARCS_PER_BLOCK, mix(seed, 0))
}

fn stream(seed: u64, base: &[(u32, u32)]) -> EdgeStream {
    EdgeStream::new(base, BLOCK, CHURN, mix(seed, 1))
}

fn update(program: &Program, batch: &Batch) -> UpdateBatch {
    let edge = program.relation_by_name("Edge").expect("Edge declared");
    let mut update = UpdateBatch::new();
    for &(a, b) in &batch.retracts {
        update.retract(edge, carac::storage::Tuple::pair(a, b));
    }
    for &(a, b) in &batch.inserts {
        update.insert(edge, carac::storage::Tuple::pair(a, b));
    }
    update
}

/// Opens a journaled live session over `base`.
fn open(
    base: &[(u32, u32)],
    config: EngineConfig,
    wal: &std::path::Path,
) -> Result<(Carac, Program), CaracError> {
    let program = transitive_closure(base, false);
    let mut engine = Carac::new(program.clone()).with_config(config);
    engine.run_live()?;
    engine.journal_to(wal)?;
    Ok((engine, program))
}

fn live_matches(engine: &mut Carac, edges: &[(u32, u32)]) -> bool {
    engine.live_tuples("Path").ok().map(|t| pairs(&t)) == Some(oracle::closure(edges))
}

/// The untraced measurement.  Between batches, once a second of measured
/// time, two side samples are taken: a set-up of a fresh session over the
/// base graph, and a recovery cycle on the running session — attach a
/// fresh journal, checkpoint (the row pool is read from the checkpoint),
/// journal a suffix, recover into a fresh engine and compare.
pub fn measure(seed: u64, seconds: f64) -> E2e {
    let config = config();
    let edges = base(seed);
    let dir = WorkDir::new("live").expect("work directory");
    let mut e2e = E2e::default();
    let (mut engine, program) =
        open(&edges, config, &dir.file("live.wal")).expect("live session opens");
    let mut batches = stream(seed, &edges);
    for _ in 0..WARMUP {
        let batch = update(&program, &batches.next_batch());
        let outcome = engine.apply_update(batch);
        e2e.tally
            .record(outcome.is_ok(), || "warm-up batch failed".to_string());
    }
    let mut sampler = SmallRng::seed_from_u64(mix(seed, 2));
    let mut budget = Budget::new(seconds);
    let mut i = 0;
    let mut side = 0;
    while !budget.spent() {
        if budget.side_due() {
            let started = Instant::now();
            let opened = open(&edges, config, &dir.file("setup.wal"));
            e2e.setup_s.push(started.elapsed().as_secs_f64());
            e2e.tally
                .record(opened.is_ok(), || "set-up failed".to_string());
            drop(opened);
            // A fresh journal per cycle; the previous one is detached by it.
            let wal = dir.file(&format!("suffix-{side}.wal"));
            recovery_cycle(&mut engine, &program, &mut batches, &dir, &wal, &mut e2e);
            if side > 0 {
                let _ = std::fs::remove_file(dir.file(&format!("suffix-{}.wal", side - 1)));
            }
            side += 1;
        }
        let batch = update(&program, &batches.next_batch());
        let started = Instant::now();
        let outcome = engine.apply_update(batch);
        let elapsed = started.elapsed();
        budget.charge(elapsed);
        let mut ok = outcome.is_ok();
        if ok {
            e2e.latency_ms.push(ms(elapsed));
            if sampler.gen_range_usize(0, CHECK_EVERY) == 0 {
                ok = live_matches(&mut engine, batches.live());
            }
        }
        e2e.tally.record(ok, || {
            format!("batch {i}: failed or diverged from the oracle")
        });
        i += 1;
    }
    let final_ok = live_matches(&mut engine, batches.live());
    e2e.tally.record(final_ok, || {
        "final live state differs from the oracle".to_string()
    });
    e2e
}

/// One recovery side sample on the running session (see [`measure`]).
fn recovery_cycle(
    engine: &mut Carac,
    program: &Program,
    batches: &mut EdgeStream,
    dir: &WorkDir,
    wal: &std::path::Path,
    e2e: &mut E2e,
) {
    let ckpt = dir.file("live.ckpt");
    match engine
        .journal_to(wal)
        .and_then(|()| pool_of_checkpoint(engine, program, &ckpt))
    {
        Ok(pool) => e2e.pool_bytes.push(pool.bytes as f64),
        Err(err) => {
            e2e.tally.record(false, || format!("checkpoint: {err}"));
            return;
        }
    }
    for _ in 0..SUFFIX {
        let batch = update(program, &batches.next_batch());
        let outcome = engine.apply_update(batch);
        e2e.tally
            .record(outcome.is_ok(), || "suffix batch failed".to_string());
    }
    let expected = engine.live_tuples("Path").ok().map(|t| pairs(&t));
    e2e.tally
        .record(expected == Some(oracle::closure(batches.live())), || {
            "state before recovery differs from the oracle".to_string()
        });
    let mut fresh = Carac::new(program.clone()).with_config(*engine.config());
    let started = Instant::now();
    let outcome = fresh.recover(&ckpt, wal);
    let elapsed = started.elapsed();
    let ok = matches!(&outcome, Ok(report) if report.replayed == SUFFIX as u64)
        && fresh.live_tuples("Path").ok().map(|t| pairs(&t)) == expected;
    if ok {
        e2e.recover_ms.push(ms(elapsed));
    }
    e2e.tally.record(ok, || {
        "recovered state differs from the live state".to_string()
    });
}

/// Checkpoints `engine` to `path` and returns the row-pool figures of that
/// state installed into a freshly prepared context.
fn pool_of_checkpoint(
    engine: &mut Carac,
    program: &Program,
    path: &std::path::Path,
) -> Result<PoolStats, CaracError> {
    engine.checkpoint(path)?;
    let snapshot = read_snapshot(path)?;
    let mut ctx = ExecContext::prepare(program, engine.config().use_indexes)?;
    snapshot.apply(&mut ctx.storage)?;
    Ok(ctx.storage.pool_stats())
}

/// Per-batch engine counters of the traced pass.
fn count_update(traced: &mut Traced, before: &carac::RunStats, after: &carac::RunStats) {
    let (u0, u1) = (&before.update, &after.update);
    let diffs = [
        ("incremental.overdeleted", u1.overdeleted - u0.overdeleted),
        ("incremental.rederived", u1.rederived - u0.rederived),
        (
            "incremental.delta_subqueries",
            u1.delta_subqueries - u0.delta_subqueries,
        ),
        ("storage.compactions", u1.compactions - u0.compactions),
        (
            "exec.tuples_emitted",
            after.tuples_emitted - before.tuples_emitted,
        ),
        (
            "exec.tuples_inserted",
            after.tuples_inserted - before.tuples_inserted,
        ),
        ("exec.iterations", after.iterations - before.iterations),
        ("optimizer.reorders", after.reorders - before.reorders),
        ("optimizer.deopts", after.deopts - before.deopts),
        (
            "exec.compiles",
            (after.compilations() - before.compilations()) as u64,
        ),
    ];
    for (name, value) in diffs {
        traced.count(name, value as f64);
    }
}

/// The traced pass.  Each round opens a traced session, applies a fixed
/// batch sequence (every batch in a harness span, the engine's spans
/// folded in beneath), checkpoints, applies a suffix and recovers; the same
/// sequence then runs untraced through the facade.  Both sessions and the
/// recovered one must end in the oracle's state.
pub fn trace(seed: u64, seconds: f64) -> Traced {
    let edges = base(seed);
    let dir = WorkDir::new("live-trace").expect("work directory");
    let mut traced = Traced::default();
    let budget = Budget::new(seconds);
    loop {
        if let Err(err) = trace_round(&mut traced, seed, &edges, &dir) {
            traced
                .tally
                .record(false, || format!("traced round: {err}"));
            traced.end_round();
            break;
        }
        traced.end_round();
        if traced.rounds.len() >= 2 && budget.wall_spent() {
            break;
        }
    }
    traced
}

fn trace_round(
    traced: &mut Traced,
    seed: u64,
    edges: &[(u32, u32)],
    dir: &WorkDir,
) -> Result<(), CaracError> {
    let traced_config = config().with_tracing(trace_config());
    let (wal, ckpt) = (dir.file("traced.wal"), dir.file("traced.ckpt"));
    // Set-up: the initial fixpoint decomposed into its layer calls (checked
    // against the oracle), then the live session through the facade.
    let setup = traced.op_id();
    let tracer = Tracer::new(trace_config());
    traced.rec.begin_op(setup, "setup");
    let (program, _) = traced.rec.call("datalog", "ProgramBuilder::build", || {
        transitive_closure(edges, false)
    });
    let initial = run_decomposed(&mut traced.rec, &program, &config(), &[], &tracer)?;
    sample_magic_rewrite(traced, setup, &program, "Path");
    let mut engine = Carac::new(program.clone()).with_config(traced_config);
    let (opened, under) = traced
        .rec
        .call("core", "Carac::run_live", || engine.run_live());
    opened?;
    engine.journal_to(&wal)?;
    traced.rec.end_op();
    absorb_tracer(&mut traced.rec, &tracer, 0, initial.run_span);
    traced.dropped += tracer.dropped();
    let mut seen = absorb(traced, &engine, 0, under);
    let path = program.relation_by_name("Path")?;
    traced.tally.record(
        pairs(&initial.ctx.derived_tuples(path)) == oracle::closure(edges),
        || "decomposed initial fixpoint differs from the oracle".to_string(),
    );
    let build_ms = traced.rec.total_ms(setup, "ProgramBuilder::build");
    traced.sample("datalog.build_ms", build_ms);
    sample_run(traced, setup, &initial, &program);
    traced.count("ir.plan_nodes", initial.plan.node_count() as f64);

    let mut batches = stream(seed, edges);
    let mut applied: Vec<UpdateBatch> = Vec::new();
    for i in 0..TRACED_BATCHES + SUFFIX {
        if i == TRACED_BATCHES {
            let op = traced.op_id();
            traced.rec.begin_op(op, "checkpoint");
            let (written, under) = traced
                .rec
                .call("persist", "Carac::checkpoint", || engine.checkpoint(&ckpt));
            traced.rec.end_op();
            seen = absorb(traced, &engine, seen, under);
            written?;
            let checkpoint_ms = traced.rec.total_ms(op, "Carac::checkpoint");
            traced.sample("persist.checkpoint_ms", checkpoint_ms);
            traced.count(
                "storage.snapshot_bytes",
                std::fs::metadata(&ckpt).map_or(0, |m| m.len()) as f64,
            );
        }
        let batch = update(&program, &batches.next_batch());
        applied.push(batch.clone());
        let before = engine.live_stats().expect("live").clone();
        let op = traced.op_id();
        traced.rec.begin_op(op, "op");
        let (outcome, under) = traced
            .rec
            .call("core", "Carac::apply_update", || engine.apply_update(batch));
        traced.rec.end_op();
        seen = absorb(traced, &engine, seen, under);
        traced
            .tally
            .record(outcome.is_ok(), || format!("traced batch {i} failed"));
        count_update(traced, &before, engine.live_stats().expect("live"));
        traced.sample_layers(op);
    }
    let expected = oracle::closure(batches.live());
    let traced_state = engine.live_tuples("Path").map(|t| pairs(&t))?;
    traced.tally.record(traced_state == expected, || {
        "traced session differs from the oracle".to_string()
    });
    let pool = pool_of_checkpoint(&mut engine, &program, &dir.file("pool.ckpt"))?;
    traced.count("storage.pool_rows", pool.rows as f64);
    traced.count("storage.pool_bytes", pool.bytes as f64);

    // Recovery from the mid-stream checkpoint plus the journal suffix.
    let op = traced.op_id();
    let mut fresh = Carac::new(program.clone()).with_config(traced_config);
    traced.rec.begin_op(op, "recover");
    let (recovered, under) = traced
        .rec
        .call("persist", "Carac::recover", || fresh.recover(&ckpt, &wal));
    traced.rec.end_op();
    absorb(traced, &fresh, 0, under);
    let report = recovered?;
    traced.count("persist.replay_batches", report.replayed as f64);
    let recovered_state = fresh.live_tuples("Path").map(|t| pairs(&t))?;
    traced.tally.record(recovered_state == expected, || {
        "recovered session differs from the live one".to_string()
    });
    for session in [&engine, &fresh] {
        traced.dropped += session
            .live_stats()
            .map_or(0, |stats| stats.tracer.dropped());
    }

    // The same batches through an untraced facade session.
    let untraced_wal = dir.file("untraced.wal");
    let (mut plain, _) = open(edges, config(), &untraced_wal)?;
    for batch in &applied {
        let started = Instant::now();
        let outcome = plain.apply_update(batch.clone());
        traced.untraced_ms.push(ms(started.elapsed()));
        traced
            .tally
            .record(outcome.is_ok(), || "untraced batch failed".to_string());
    }
    let plain_state = plain.live_tuples("Path").map(|t| pairs(&t))?;
    traced.tally.record(plain_state == traced_state, || {
        "untraced facade session differs from the traced one".to_string()
    });

    // `JournalWriter::append` timed from outside, on the run's encodings.
    let mut journal = JournalWriter::create(&dir.file("append.wal"))?;
    let start_len = journal.byte_len();
    for batch in &applied {
        let bytes = batch.encode();
        let started = Instant::now();
        journal.append(&bytes)?;
        traced.sample("storage.journal_append_ms", ms(started.elapsed()));
    }
    let per_batch = (journal.byte_len() - start_len) as f64 / applied.len() as f64;
    traced.count("storage.journal_bytes_per_batch", per_batch);
    Ok(())
}

/// Folds the engine events of `engine`'s live session with ids above
/// `after` under harness span `under`; returns the highest id seen.
fn absorb(traced: &mut Traced, engine: &Carac, after: u64, under: usize) -> u64 {
    match engine.live_stats() {
        Some(stats) => absorb_tracer(&mut traced.rec, &stats.tracer, after, under),
        None => after,
    }
}
