//! `tc-point-query`: one operation is one goal-directed
//! `Carac::query("Path", [bound src, free])` on a sparse random graph, for
//! a seeded source.  Each query magic-rewrites the program and loads the
//! facts afresh, so the frontend and storage-load layers dominate.

use std::time::Instant;

use carac::datalog::magic::magic_rewrite;
use carac::datalog::Program;
use carac::exec::Tracer;
use carac::{Carac, CaracError, EngineConfig, QueryBinding};

use crate::harness::{
    absorb_tracer, count_run, ms, pairs, run_decomposed, sample_persistence, sample_run,
    trace_config, Budget, Decomposed, E2e, Restart, Traced, WorkDir,
};
use crate::inputs::{block_digraph, mix, transitive_closure, Edges};
use crate::layers::Recorder;
use crate::oracle::{self, Pairs};

/// 20 000 nodes in 200 disjoint blocks of 100 with 0.9 arcs per node
/// inside each block, so a seed's graph averages over many independent
/// random graphs and no reach set exceeds a block.
const BLOCKS: u32 = 200;
const BLOCK: u32 = 100;
const ARCS_PER_BLOCK: usize = 90;
const NODES: u32 = BLOCKS * BLOCK;
/// Side samples per recovery of the full closure (a recovery costs a few
/// queries' time).
const RESTART_EVERY: u32 = 3;
/// Queries rerun through the public layer calls to read the row pool.
const POOL_QUERIES: u64 = 10;
/// Queries per traced round.
const TRACED_QUERIES: u64 = 20;

fn config() -> EngineConfig {
    EngineConfig::default()
        .with_parallelism(1)
        .with_verify(false)
}

fn graph(seed: u64) -> Edges {
    block_digraph(BLOCKS, BLOCK, ARCS_PER_BLOCK, mix(seed, 0))
}

/// Source node of query `i`.
fn source(seed: u64, i: u64) -> u32 {
    (mix(seed, 1 << 32 | i) % u64::from(NODES)) as u32
}

fn pattern(src: u32) -> [QueryBinding; 2] {
    [QueryBinding::bound_int(src), QueryBinding::Free]
}

/// Whether `answer` is exactly `{(src, y) : y reachable from src}`.
fn correct(answer: &[(u32, u32)], graph: &oracle::Graph, src: u32) -> bool {
    let want: Vec<(u32, u32)> = graph.reach(src).into_iter().map(|y| (src, y)).collect();
    answer == want.as_slice()
}

/// `Carac::query` decomposed into its public layer calls:
/// `magic_rewrite`, then the decomposed `Carac::run` of the rewritten
/// program, then the bound-argument filter.
fn query_decomposed(
    rec: &mut Recorder,
    program: &Program,
    config: &EngineConfig,
    src: u32,
    tracer: &Tracer,
) -> Result<(Pairs, Decomposed, Program), CaracError> {
    let goal = program.relation_by_name("Path")?;
    let (rewritten, _) = rec.call("datalog", "magic_rewrite", || {
        magic_rewrite(program, goal, &pattern(src), &[])
    });
    let rewritten = rewritten?;
    let run = run_decomposed(
        rec,
        &rewritten.program,
        config,
        &rewritten.magic_relations,
        tracer,
    )?;
    let answer = rewritten
        .program
        .relation_by_name(&rewritten.answer_relation)?;
    let mut got = pairs(&run.ctx.derived_tuples(answer));
    got.retain(|&(x, _)| x == src);
    Ok((got, run, rewritten.program))
}

/// The untraced measurement.
pub fn measure(seed: u64, seconds: f64) -> E2e {
    let config = config();
    let edges = graph(seed);
    let reference = oracle::Graph::new(&edges);
    let mut e2e = E2e::default();
    let engine = Carac::new(transitive_closure(&edges, true)).with_config(config);
    let program = engine.program().clone();
    // Restart time of the fully evaluated closure, checkpointed with an
    // empty journal attached.
    let dir = WorkDir::new("query").expect("work directory");
    let restart = Restart::prepare(
        program.clone(),
        config,
        vec![("Path", reference.closure())],
        &dir,
        "tc",
    )
    .expect("checkpoint of a live session");
    for i in 0..20 {
        let _ = engine.query("Path", &pattern(source(seed, u64::MAX - i)));
    }
    let mut budget = Budget::new(seconds);
    let mut i = 0;
    let mut side = 0;
    while !budget.spent() {
        if budget.side_due() {
            let started = Instant::now();
            let built = Carac::new(transitive_closure(&edges, true)).with_config(config);
            e2e.setup_s.push(started.elapsed().as_secs_f64());
            drop(built);
            if side % RESTART_EVERY == 0 {
                restart.measure(&mut e2e);
            }
            side += 1;
        }
        let src = source(seed, i);
        let started = Instant::now();
        let outcome = engine.query("Path", &pattern(src));
        let elapsed = started.elapsed();
        budget.charge(elapsed);
        let ok = match outcome {
            Ok(answer) => {
                e2e.latency_ms.push(ms(elapsed));
                correct(&pairs(answer.tuples()), &reference, src)
            }
            Err(err) => {
                eprintln!("query {i}: {err}");
                false
            }
        };
        e2e.tally.record(ok, || {
            format!("query {i} from {src} differs from the oracle")
        });
        i += 1;
    }
    // `QueryAnswer` carries no row-pool figures: rerun a few queries through
    // the public layer calls, untraced, and read the pool of the context.
    for i in 0..POOL_QUERIES {
        let src = source(seed, i);
        let mut rec = Recorder::default();
        match query_decomposed(&mut rec, &program, &config, src, &Tracer::disabled()) {
            Ok((got, run, _)) => {
                e2e.pool_bytes
                    .push(run.ctx.storage.pool_stats().bytes as f64);
                e2e.tally.record(correct(&got, &reference, src), || {
                    format!("decomposed query from {src} differs")
                });
            }
            Err(err) => e2e
                .tally
                .record(false, || format!("decomposed query from {src}: {err}")),
        }
    }
    e2e
}

/// The traced pass: rounds over a fixed query set, each query answered
/// once through the facade untraced and once decomposed with tracing on.
pub fn trace(seed: u64, seconds: f64) -> Traced {
    let config = config();
    let edges = graph(seed);
    let reference = oracle::Graph::new(&edges);
    let mut traced = Traced::default();
    let budget = Budget::new(seconds);
    loop {
        let setup = traced.op_id();
        traced.rec.begin_op(setup, "setup");
        let (program, _) = traced.rec.call("datalog", "ProgramBuilder::build", || {
            transitive_closure(&edges, true)
        });
        let (engine, _) = traced.rec.call("core", "Carac::new", || {
            Carac::new(program.clone()).with_config(config)
        });
        traced.rec.end_op();
        let build_ms = traced.rec.total_ms(setup, "ProgramBuilder::build");
        traced.sample("datalog.build_ms", build_ms);
        sample_persistence(&mut traced, &program, config);
        for i in 0..TRACED_QUERIES {
            let src = source(seed, i);
            let started = Instant::now();
            let facade = engine.query("Path", &pattern(src));
            traced.untraced_ms.push(ms(started.elapsed()));
            let facade = facade.map(|a| pairs(a.tuples()));

            let op = traced.op_id();
            let tracer = Tracer::new(trace_config());
            traced.rec.begin_op(op, "op");
            let outcome = query_decomposed(&mut traced.rec, &program, &config, src, &tracer);
            traced.rec.end_op();
            traced.dropped += tracer.dropped();
            let (Ok(facade), Ok((got, run, rewritten))) = (facade, outcome) else {
                traced
                    .tally
                    .record(false, || format!("query from {src} failed"));
                continue;
            };
            absorb_tracer(&mut traced.rec, &tracer, 0, run.run_span);
            traced
                .tally
                .record(got == facade && correct(&got, &reference, src), || {
                    format!("query from {src}: decomposed, facade and oracle disagree")
                });
            let magic_ms = traced.rec.total_ms(op, "magic_rewrite");
            traced.sample("datalog.magic_rewrite_ms", magic_ms);
            sample_run(&mut traced, op, &run, &rewritten);
            traced.sample_layers(op);
            count_run(&mut traced, &run.ctx, &run.plan);
        }
        traced.end_round();
        if traced.rounds.len() >= 2 && budget.wall_spent() {
            break;
        }
    }
    traced
}
