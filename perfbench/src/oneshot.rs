//! `cspa-unopt` and `csda-deep`: one operation is one `Carac::run` over a
//! freshly generated program-analysis instance.
//!
//! Each operation analyses a different instance drawn from the run's seed,
//! as a client submitting one analysis after another would.  The join work
//! of a single small instance swings by 3× from one draw to the next, so a
//! run's median covers many draws instead of one.

use std::time::Instant;

use carac::datalog::Program;
use carac::exec::Tracer;
use carac::knobs::BackendKind;
use carac::{Carac, EngineConfig};
use carac_analysis::generators::{csda_facts, cspa_facts};

use crate::harness::{
    absorb_tracer, count_run, matches, ms, pairs, run_decomposed, sample_magic_rewrite,
    sample_persistence, sample_run, trace_config, Budget, E2e, Restart, Traced, WorkDir,
};
use crate::inputs::{csda_optimized, cspa_unoptimized, mix, Edges};
use crate::oracle::{self, Pairs};

/// CSPA variable universe: ~40–75 ms, 40+ reorders and ~100 tuples emitted
/// per tuple inserted per instance.  A run times ~500 instances, so the tail
/// rule settles on p95, below the ~1% of operations that host interference
/// stretches.
const CSPA_SCALE: u32 = 60;
/// CSDA chain length: 166k derived rows, ~290 iterations per instance.
const CSDA_SCALE: u32 = 576;
/// Instances checkpointed for the recovery samples, taken in turn.
const RESTART_INSTANCES: u64 = 4;

/// Which analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// CSPA, unoptimized formulation, adaptive JIT (Lambda, blocking).
    Cspa,
    /// CSDA, hand-optimized formulation, JIT Bytecode blocking.
    Csda,
}

/// Generated facts of one instance.
#[derive(Debug, Clone)]
enum Facts {
    Cspa { assign: Edges, derefr: Edges },
    Csda { nullflow: Edges },
}

impl Kind {
    fn config(self) -> EngineConfig {
        let base = match self {
            Kind::Cspa => EngineConfig::default(),
            Kind::Csda => EngineConfig::jit(BackendKind::Bytecode, false),
        };
        base.with_parallelism(1).with_verify(false)
    }

    /// The relation a point query on the analysis would ask for.
    fn goal(self) -> &'static str {
        match self {
            Kind::Cspa => "VaFlow",
            Kind::Csda => "Dataflow",
        }
    }

    /// Instances the traced pass evaluates per round.
    fn traced_instances(self) -> u64 {
        match self {
            Kind::Cspa => 8,
            Kind::Csda => 5,
        }
    }

    fn generate(self, seed: u64) -> Facts {
        match self {
            Kind::Cspa => {
                let facts = cspa_facts(CSPA_SCALE, seed);
                Facts::Cspa {
                    assign: facts.assign,
                    derefr: facts.derefr,
                }
            }
            Kind::Csda => Facts::Csda {
                nullflow: csda_facts(CSDA_SCALE, seed),
            },
        }
    }
}

impl Facts {
    fn build(&self) -> Program {
        match self {
            Facts::Cspa { assign, derefr } => cspa_unoptimized(assign, derefr),
            Facts::Csda { nullflow } => csda_optimized(nullflow),
        }
    }

    /// The reference answer: `(relation, pairs)` for every derived relation.
    fn oracle(&self) -> Vec<(&'static str, Pairs)> {
        match self {
            Facts::Cspa { assign, derefr } => {
                let a = oracle::cspa(assign, derefr);
                vec![
                    ("VaFlow", a.vaflow),
                    ("VAlias", a.valias),
                    ("MAlias", a.malias),
                ]
            }
            Facts::Csda { nullflow } => vec![("Dataflow", oracle::closure(nullflow))],
        }
    }
}

/// Instance `i` of the run with `seed`.
fn instance(kind: Kind, seed: u64, i: u64) -> Facts {
    kind.generate(mix(seed, i))
}

/// The untraced measurement.
pub fn measure(kind: Kind, seed: u64, seconds: f64) -> E2e {
    let config = kind.config();
    let mut e2e = E2e::default();
    // Restart time: live sessions over a few instances, checkpointed with an
    // empty journal attached, are recovered in turn between operations.
    let dir = WorkDir::new("restart").expect("work directory");
    let restarts: Vec<Restart> = (0..RESTART_INSTANCES)
        .map(|i| {
            let facts = instance(kind, seed, i);
            Restart::prepare(
                facts.build(),
                config,
                facts.oracle(),
                &dir,
                &format!("i{i}"),
            )
            .expect("checkpoint of a live session")
        })
        .collect();
    // Warm-up on instances outside the measured stream.
    for i in 0..2 {
        let facts = instance(kind, seed, u64::MAX - i);
        let _ = Carac::new(facts.build()).with_config(config).run();
    }
    let mut budget = Budget::new(seconds);
    let mut i = 0;
    let mut side = 0;
    while !budget.spent() {
        if budget.side_due() {
            restarts[side % restarts.len()].measure(&mut e2e);
            side += 1;
        }
        let facts = instance(kind, seed, i);
        let started = Instant::now();
        let engine = Carac::new(facts.build()).with_config(config);
        e2e.setup_s.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let outcome = engine.run();
        let elapsed = started.elapsed();
        budget.charge(elapsed);
        let ok = match outcome {
            Ok(result) => {
                e2e.latency_ms.push(ms(elapsed));
                e2e.pool_bytes.push(result.pool_stats().bytes as f64);
                matches(&facts.oracle(), |rel| {
                    result.tuples(rel).ok().map(|t| pairs(&t))
                })
            }
            Err(err) => {
                eprintln!("instance {i}: {err}");
                false
            }
        };
        e2e.tally.record(ok, || {
            format!("{kind:?} instance {i} differs from the oracle")
        });
        i += 1;
    }
    e2e
}

/// The traced pass: rounds over the first few instances, each evaluated
/// once through the facade untraced and once decomposed with tracing on.
pub fn trace(kind: Kind, seed: u64, seconds: f64) -> Traced {
    let config = kind.config();
    let mut traced = Traced::default();
    let budget = Budget::new(seconds);
    loop {
        for i in 0..kind.traced_instances() {
            let facts = instance(kind, seed, i);
            let setup = traced.op_id();
            traced.rec.begin_op(setup, "setup");
            let (program, _) = traced
                .rec
                .call("datalog", "ProgramBuilder::build", || facts.build());
            let (engine, _) = traced.rec.call("core", "Carac::new", || {
                Carac::new(program.clone()).with_config(config)
            });
            sample_magic_rewrite(&mut traced, setup, &program, kind.goal());
            traced.rec.end_op();
            let build_ms = traced.rec.total_ms(setup, "ProgramBuilder::build");
            traced.sample("datalog.build_ms", build_ms);
            if i == 0 {
                sample_persistence(&mut traced, &program, config);
            }

            let started = Instant::now();
            let facade = engine.run();
            traced.untraced_ms.push(ms(started.elapsed()));
            let Ok(facade) = facade else {
                traced
                    .tally
                    .record(false, || format!("instance {i}: facade run failed"));
                continue;
            };

            let op = traced.op_id();
            let tracer = Tracer::new(trace_config());
            traced.rec.begin_op(op, "op");
            let outcome = run_decomposed(&mut traced.rec, &program, &config, &[], &tracer);
            traced.rec.end_op();
            traced.dropped += tracer.dropped();
            let Ok(run) = outcome else {
                traced
                    .tally
                    .record(false, || format!("instance {i}: decomposed run failed"));
                continue;
            };
            absorb_tracer(&mut traced.rec, &tracer, 0, run.run_span);
            let expected = facts.oracle();
            let facade_ok = matches(&expected, |rel| facade.tuples(rel).ok().map(|t| pairs(&t)));
            let decomposed_ok = matches(&expected, |rel| {
                let id = program.relation_by_name(rel).ok()?;
                Some(pairs(&run.ctx.derived_tuples(id)))
            });
            traced.tally.record(facade_ok && decomposed_ok, || {
                format!(
                    "instance {i}: facade {facade_ok}, decomposed {decomposed_ok} vs the oracle"
                )
            });
            sample_run(&mut traced, op, &run, &program);
            traced.sample_layers(op);
            count_run(&mut traced, &run.ctx, &run.plan);
        }
        traced.end_round();
        // At least two rounds, so the determinism check always compares.
        if traced.rounds.len() >= 2 && budget.wall_spent() {
            break;
        }
    }
    traced
}
