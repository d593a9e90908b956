//! What every workload shares: the metric tables, the run budget, the
//! end-to-end sample sets, the traced pass's accumulators, the decomposed
//! `Carac::run` and the work directory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use carac::datalog::hasher::FxHashSet;
use carac::datalog::magic::magic_rewrite;
use carac::datalog::Program;
use carac::exec::UpdateBatch;
use carac::exec::{ExecContext, JitEngine, TraceConfig, Tracer};
use carac::ir::{generate_plan, verify_plan, IRNode, OpKind};
use carac::storage::JournalWriter;
use carac::storage::{RelId, Tuple};
use carac::{Carac, CaracError, EngineConfig, ExecutionMode, QueryBinding};

use crate::layers::{Recorder, HARNESS};
use crate::oracle::Pairs;

/// End-to-end metrics: name and unit.  Measured with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("pool_mib", "MiB"),
    ("recover_ms", "ms"),
];

/// Per-layer metrics: name and unit.  Measured by the traced pass.  Times
/// are medians per call; counts are totals over the pass's fixed operation
/// set, and read 0 where a workload never does that kind of work.  Every
/// time is measured on every workload.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("datalog.build_ms", "ms"),
    ("datalog.magic_rewrite_ms", "ms"),
    ("ir.plan_ms", "ms"),
    ("ir.plan_nodes", "count"),
    ("ir.verify_plan_ms", "ms"),
    ("storage.load_ms", "ms"),
    ("storage.pool_rows", "count"),
    ("storage.pool_bytes", "bytes"),
    ("storage.rehashes", "count"),
    ("storage.compactions", "count"),
    ("storage.journal_append_ms", "ms"),
    ("storage.journal_bytes_per_batch", "bytes"),
    ("storage.snapshot_bytes", "bytes"),
    ("optimizer.reorders", "count"),
    ("optimizer.deopts", "count"),
    ("optimizer.estimate_drift_rows", "count"),
    ("exec.run_ms", "ms"),
    ("exec.tuples_emitted", "count"),
    ("exec.tuples_inserted", "count"),
    ("exec.useful_ratio", "ratio"),
    ("exec.subquery_ms", "ms"),
    ("exec.iterations", "count"),
    ("exec.iteration_overhead_ms", "ms"),
    ("exec.compiles", "count"),
    ("exec.compile_ms", "ms"),
    ("incremental.overdeleted", "count"),
    ("incremental.rederived", "count"),
    ("incremental.waste_ratio", "ratio"),
    ("incremental.delta_subqueries", "count"),
    ("vm.compiles", "count"),
    ("vm.verify_us", "us"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.replay_batches", "count"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.dropped_events", "count"),
];

/// Count-valued per-layer metrics that must repeat exactly for a seed.
pub const DETERMINISTIC: [&str; 15] = [
    "ir.plan_nodes",
    "storage.pool_rows",
    "storage.rehashes",
    "storage.compactions",
    "optimizer.reorders",
    "optimizer.deopts",
    "exec.tuples_emitted",
    "exec.tuples_inserted",
    "exec.iterations",
    "exec.compiles",
    "incremental.overdeleted",
    "incremental.rederived",
    "incremental.delta_subqueries",
    "vm.compiles",
    "persist.replay_batches",
];

/// Layers whose per-operation self time the per-layer JSON file reports.
pub const LAYERS: [&str; 7] = [
    "datalog",
    "ir",
    "storage",
    "exec",
    "incremental",
    "persist",
    "core",
];

/// The engine's span ring: far larger than any traced operation needs, so
/// nothing is dropped (checked: `trace.dropped_events` must be 0).
pub fn trace_config() -> TraceConfig {
    TraceConfig::default().with_span_capacity(1 << 22)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Measured operation time between two side samples (set-up and recovery
/// timings taken between operations, so they see the same machine
/// conditions over the run as the operations do).
const SIDE_EVERY: Duration = Duration::from_secs(1);

/// The measuring budget of one run: `seconds` of measured operation time,
/// with the wall clock capped at three times that so the oracle checks
/// between operations cannot stretch a run without bound.
#[derive(Debug)]
pub struct Budget {
    started: Instant,
    seconds: f64,
    measured: Duration,
    next_side: Duration,
}

impl Budget {
    /// A budget starting now.
    pub fn new(seconds: f64) -> Self {
        Budget {
            started: Instant::now(),
            seconds,
            measured: Duration::ZERO,
            next_side: Duration::ZERO,
        }
    }

    /// Whether a side sample is due: true once per [`SIDE_EVERY`] of
    /// measured time, starting with the first call.
    pub fn side_due(&mut self) -> bool {
        let due = self.measured >= self.next_side;
        if due {
            self.next_side = self.measured + SIDE_EVERY;
        }
        due
    }

    /// Charges one measured interval.
    pub fn charge(&mut self, d: Duration) {
        self.measured += d;
    }

    /// Whether the run should stop.
    pub fn spent(&self) -> bool {
        self.measured.as_secs_f64() >= self.seconds
            || self.started.elapsed().as_secs_f64() >= 3.0 * self.seconds
    }

    /// Whether `seconds` of wall-clock time have passed (for passes that
    /// measure rounds rather than single operations).
    pub fn wall_spent(&self) -> bool {
        self.started.elapsed().as_secs_f64() >= self.seconds
    }
}

/// The samples behind the end-to-end metrics.
#[derive(Debug, Default)]
pub struct E2e {
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Latencies of the successful operations, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Row-pool resident bytes at the end of an operation.
    pub pool_bytes: Vec<f64>,
    /// Recovery times, milliseconds.
    pub recover_ms: Vec<f64>,
    /// Checked operations: timed operations, recoveries and state checks.
    pub tally: Tally,
}

/// Operations attempted and failed.  A failed operation errored or returned
/// an answer that differs from the reference.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one attempted operation; `ok` is whether it succeeded with
    /// the reference answer.  `what` names it in the mismatch report.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("MISMATCH: {}", what());
            }
        }
    }
}

/// Accumulators of the traced pass.  The pass runs in rounds over the same
/// fixed operation set; every round's counts must equal the first's.
#[derive(Debug, Default)]
pub struct Traced {
    /// Harness and engine spans.
    pub rec: Recorder,
    /// Per-call samples of time-valued metrics.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-operation self time of each layer, ms.
    pub self_ms: BTreeMap<&'static str, Vec<f64>>,
    /// The current round's count-valued metrics.
    pub counts: BTreeMap<&'static str, f64>,
    /// Counts of every finished round.
    pub rounds: Vec<BTreeMap<&'static str, f64>>,
    /// Untraced facade latencies, ms (for the overhead ratio).
    pub untraced_ms: Vec<f64>,
    /// Traced decomposed latencies, ms.
    pub traced_ms: Vec<f64>,
    /// Checked operations across all rounds.
    pub tally: Tally,
    /// Engine trace events dropped by a full ring.
    pub dropped: u64,
    next_op: u64,
}

impl Traced {
    /// Adds one sample of a time-valued metric.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Adds to a count-valued metric of the current round.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    /// A fresh operation id.
    pub fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Samples the per-layer self times and the unattributed time of
    /// operation `op`, and its total traced latency.
    pub fn sample_layers(&mut self, op: u64) {
        let layers = self.rec.layer_self_ms(op);
        for layer in LAYERS {
            let ms = layers.get(layer).copied().unwrap_or(0.0);
            self.self_ms.entry(layer).or_default().push(ms);
        }
        self.sample(
            "trace.unattributed_ms",
            layers.get(HARNESS).copied().unwrap_or(0.0),
        );
        let total: f64 = layers.values().sum();
        self.traced_ms.push(total);
    }

    /// Closes the current round.
    pub fn end_round(&mut self) {
        let counts = std::mem::take(&mut self.counts);
        self.rounds.push(counts);
    }

    /// Names of the deterministic counts that differ between rounds.
    pub fn nondeterministic(&self) -> Vec<&'static str> {
        let Some(first) = self.rounds.first() else {
            return Vec::new();
        };
        DETERMINISTIC
            .into_iter()
            .filter(|name| self.rounds.iter().any(|r| r.get(name) != first.get(name)))
            .collect()
    }
}

/// Sorted pairs of a binary relation's tuples.
pub fn pairs(tuples: &[Tuple]) -> Pairs {
    let mut out: Pairs = tuples
        .iter()
        .map(|t| {
            let v = t.values();
            (
                v[0].as_int().expect("integer column"),
                v[1].as_int().expect("integer column"),
            )
        })
        .collect();
    out.sort_unstable();
    out
}

/// Whether `got(relation)` equals the reference pairs of every relation.
pub fn matches(
    expected: &[(&'static str, Pairs)],
    mut got: impl FnMut(&str) -> Option<Pairs>,
) -> bool {
    expected
        .iter()
        .all(|(rel, want)| got(rel).as_ref() == Some(want))
}

/// What a decomposed run leaves behind.
#[derive(Debug)]
pub struct Decomposed {
    /// The evaluated context.
    pub ctx: ExecContext,
    /// The generated plan.
    pub plan: IRNode,
    /// Index of the `JitEngine::run` span, under which the caller folds the
    /// engine's events once the operation's span is closed (see
    /// [`absorb_tracer`]).
    pub run_span: usize,
}

/// `Carac::run` decomposed into its public layer calls, each in a harness
/// span: `ExecContext::prepare`, `generate_plan`, `verify_plan` and
/// `JitEngine::run`.  `verify_plan` is timed on every call even though the
/// release default skips it, to bound what turning it on costs; it reads the
/// plan only.  `magic` names demand-guard relations (for a magic-rewritten
/// program).
pub fn run_decomposed(
    rec: &mut Recorder,
    program: &Program,
    config: &EngineConfig,
    magic: &[String],
    tracer: &Tracer,
) -> Result<Decomposed, CaracError> {
    let (ctx, _) = rec.call("storage", "ExecContext::prepare", || {
        ExecContext::prepare(program, config.use_indexes)
    });
    let mut ctx = ctx?;
    if !magic.is_empty() {
        let rels: FxHashSet<RelId> = magic
            .iter()
            .map(|name| program.relation_by_name(name))
            .collect::<Result<_, _>>()?;
        ctx.set_magic_relations(rels);
    }
    ctx.set_parallelism(config.parallelism)?;
    ctx.set_verify(config.verify);
    ctx.stats.tracer = tracer.clone();
    let (plan, _) = rec.call("ir", "generate_plan", || {
        generate_plan(program, config.strategy)
    });
    let (verdict, _) = rec.call("ir", "verify_plan", || verify_plan(&plan, program));
    if let Err(err) = verdict {
        panic!("generated plan failed verification: {err}");
    }
    let ExecutionMode::Jit(jit) = config.mode else {
        panic!("the benchmark runs JIT configurations only");
    };
    let engine_plan = plan.clone();
    let (result, under) = rec.call("exec", "JitEngine::run", || {
        JitEngine::new(engine_plan, jit).run(&mut ctx)
    });
    result?;
    Ok(Decomposed {
        ctx,
        plan,
        run_span: under,
    })
}

/// Folds `tracer`'s events with span ids above `after` under harness span
/// `under`, outside any timed span; returns the highest id seen.
pub fn absorb_tracer(rec: &mut Recorder, tracer: &Tracer, after: u64, under: usize) -> u64 {
    match tracer.epoch() {
        Some(epoch) => rec.absorb(&tracer.events(), epoch, after, under),
        None => after,
    }
}

/// Median time, in microseconds, of `carac_vm::verify_program` over the
/// bytecode artifact of every node the JIT compiles at its default
/// granularity.  Called from outside the engine; bounds the verify-on cost.
pub fn vm_verify_us(plan: &IRNode, program: &Program) -> Vec<f64> {
    let arities: Vec<usize> = program.relations().iter().map(|r| r.arity).collect();
    let mut nodes = Vec::new();
    plan.visit(&mut |n| {
        if n.kind() == OpKind::UnionAllRules {
            nodes.push(n);
        }
    });
    let mut out = Vec::new();
    for node in nodes {
        let Ok(artifact) = carac::vm::compile_node(node) else {
            continue;
        };
        let started = Instant::now();
        let verdict = carac::vm::verify_program(&artifact, &arities);
        out.push(started.elapsed().as_secs_f64() * 1e6);
        assert!(verdict.is_ok(), "compiled artifact failed verification");
    }
    out
}

/// Engine counters of one evaluated context, added to the round's counts.
pub fn count_run(traced: &mut Traced, ctx: &ExecContext, plan: &IRNode) {
    let stats = &ctx.stats;
    let pool = ctx.storage.pool_stats();
    traced.count("ir.plan_nodes", plan.node_count() as f64);
    traced.count("storage.pool_rows", pool.rows as f64);
    traced.count("storage.pool_bytes", pool.bytes as f64);
    traced.count("storage.rehashes", pool.rehashes as f64);
    traced.count("optimizer.reorders", stats.reorders as f64);
    traced.count("optimizer.deopts", stats.deopts as f64);
    let drift: u64 = stats
        .rule_profiles
        .rules()
        .map(|p| p.estimate_drift().unsigned_abs())
        .sum();
    traced.count("optimizer.estimate_drift_rows", drift as f64);
    traced.count("exec.tuples_emitted", stats.tuples_emitted as f64);
    traced.count("exec.tuples_inserted", stats.tuples_inserted as f64);
    traced.count("exec.iterations", stats.iterations as f64);
    traced.count("exec.compiles", stats.compilations() as f64);
    let vm = stats
        .compile_events
        .iter()
        .filter(|e| e.backend == carac::exec::BackendTag::Bytecode)
        .count();
    traced.count("vm.compiles", vm as f64);
}

/// Samples the times of a decomposed run of `program` recorded in operation
/// `op`: its layer calls, its engine spans, its compile time and the
/// verification time of its bytecode artifacts.
pub fn sample_run(traced: &mut Traced, op: u64, run: &Decomposed, program: &Program) {
    let rec = &traced.rec;
    let values = [
        ("storage.load_ms", rec.total_ms(op, "ExecContext::prepare")),
        ("ir.plan_ms", rec.total_ms(op, "generate_plan")),
        ("ir.verify_plan_ms", rec.total_ms(op, "verify_plan")),
        ("exec.run_ms", rec.total_ms(op, "JitEngine::run")),
        ("exec.subquery_ms", rec.total_ms(op, "subquery")),
        ("exec.iteration_overhead_ms", rec.self_ms(op, "iteration")),
        ("exec.compile_ms", ms(run.ctx.stats.compile_time())),
    ];
    for (name, value) in values {
        traced.sample(name, value);
    }
    for us in vm_verify_us(&run.plan, program) {
        traced.sample("vm.verify_us", us);
    }
}

/// Times `magic_rewrite` of the point goal `relation(0, _)` on `program`
/// in a harness span of the current operation (the frontend cost a
/// goal-directed query on the program pays before evaluating anything).
pub fn sample_magic_rewrite(traced: &mut Traced, op: u64, program: &Program, relation: &str) {
    let goal = program
        .relation_by_name(relation)
        .expect("goal relation declared");
    let pattern = [QueryBinding::bound_int(0), QueryBinding::Free];
    let (rewritten, _) = traced.rec.call("datalog", "magic_rewrite", || {
        magic_rewrite(program, goal, &pattern, &[])
    });
    assert!(rewritten.is_ok(), "point goal rewrites");
    let rewrite_ms = traced.rec.total_ms(op, "magic_rewrite");
    traced.sample("datalog.magic_rewrite_ms", rewrite_ms);
}

/// Persistence costs of a workload's evaluated state, for the workloads
/// whose operations do not persist anything: `Carac::checkpoint` of a live
/// session over `program`, and `JournalWriter::append` of an update batch
/// inserting the program's base facts (what loading them through a
/// journaled session logs).  Each call runs in a harness span of its own
/// operation.
pub fn sample_persistence(traced: &mut Traced, program: &Program, config: EngineConfig) {
    let dir = WorkDir::new("persist").expect("work directory");
    let mut live = Carac::new(program.clone()).with_config(config);
    if let Err(err) = live.run_live() {
        traced
            .tally
            .record(false, || format!("live session: {err}"));
        return;
    }
    let ckpt = dir.file("state.ckpt");
    let op = traced.op_id();
    traced.rec.begin_op(op, "checkpoint");
    let (written, _) = traced
        .rec
        .call("persist", "Carac::checkpoint", || live.checkpoint(&ckpt));
    traced.rec.end_op();
    traced
        .tally
        .record(written.is_ok(), || "checkpoint failed".to_string());
    let checkpoint_ms = traced.rec.total_ms(op, "Carac::checkpoint");
    traced.sample("persist.checkpoint_ms", checkpoint_ms);
    let bytes = std::fs::metadata(&ckpt).map_or(0, |m| m.len());
    traced.count("storage.snapshot_bytes", bytes as f64);

    let mut batch = UpdateBatch::new();
    for (rel, tuple) in program.facts() {
        batch.insert(*rel, tuple.clone());
    }
    let encoded = batch.encode();
    let appended = JournalWriter::create(&dir.file("facts.wal")).and_then(|mut journal| {
        let started = Instant::now();
        journal.append(&encoded)?;
        traced.sample("storage.journal_append_ms", ms(started.elapsed()));
        Ok(journal.byte_len())
    });
    match appended {
        Ok(len) => traced.count("storage.journal_bytes_per_batch", len as f64),
        Err(err) => traced
            .tally
            .record(false, || format!("journal append: {err}")),
    }
}

/// A checkpointed live session, ready to be recovered again and again.
#[derive(Debug)]
pub struct Restart {
    program: Program,
    config: EngineConfig,
    ckpt: PathBuf,
    wal: PathBuf,
    expected: Vec<(&'static str, Pairs)>,
}

impl Restart {
    /// Evaluates `program` as a live session, attaches an empty journal and
    /// checkpoints it under `dir`.  `expected` holds the reference pairs of
    /// every relation a recovery must restore.
    pub fn prepare(
        program: Program,
        config: EngineConfig,
        expected: Vec<(&'static str, Pairs)>,
        dir: &WorkDir,
        tag: &str,
    ) -> Result<Restart, CaracError> {
        let (ckpt, wal) = (
            dir.file(&format!("{tag}.ckpt")),
            dir.file(&format!("{tag}.wal")),
        );
        let mut live = Carac::new(program.clone()).with_config(config);
        live.journal_to(&wal)?;
        live.checkpoint(&ckpt)?;
        Ok(Restart {
            program,
            config,
            ckpt,
            wal,
            expected,
        })
    }

    /// Times one `Carac::recover` into a fresh engine and checks the
    /// restored relations.
    pub fn measure(&self, e2e: &mut E2e) {
        let mut fresh = Carac::new(self.program.clone()).with_config(self.config);
        let started = Instant::now();
        let outcome = fresh.recover(&self.ckpt, &self.wal);
        let elapsed = started.elapsed();
        let ok = outcome.is_ok()
            && matches(&self.expected, |rel| {
                fresh.live_tuples(rel).ok().map(|t| pairs(&t))
            });
        if ok {
            e2e.recover_ms.push(ms(elapsed));
        }
        e2e.tally.record(ok, || {
            format!("recovery from {} differs", self.ckpt.display())
        });
    }
}

/// A work directory for journals and checkpoints, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `out/work-<pid>-<tag>` under the benchmark's directory.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = out_dir().join(format!("work-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the benchmark writes traces and work files: `out/` beside its
/// manifest, inside the checkout it was built from.
pub fn out_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}
