//! The batch workloads rebuilt from the public calls the CLI makes, with
//! timing wrappers at each layer boundary, plus isolated timings of the
//! layers' single calls.
//!
//! Nothing here changes what the program computes: every wrapper
//! delegates, and each traced piece of work is checked against the same
//! figures the end-to-end runs check.

use crate::spans::Tracer;
use crate::stats::{median, per_call_ns};
use simsym_check::explore_check::Reduction;
use simsym_check::FaultToleranceChecker;
use simsym_core::{hopcroft_similarity, selection_program_q, LabelLearner, Model};
use simsym_graph::{automorphism::automorphism_group, topology, ProcId, SystemGraph};
use simsym_vm::engine::sweep::{effective_threads, sweep_jobs, SweepConfig, SweepScheduler};
use simsym_vm::engine::trace::TraceRecorder;
use simsym_vm::engine::{self, Probe, System};
use simsym_vm::faults::{FaultPlan, FaultSched, Faulty};
use simsym_vm::reduce::{init_colors, GROUP_CAP};
use simsym_vm::{
    explore_with, ExploreConfig, ExploreResult, InstructionSet, Machine, ProbedStep, Program,
    Reducer, ScheduleKind, Scheduler, SystemInit, Violation,
};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// `simsym verify --depth` of the verify-quotient workload.
pub const VERIFY_DEPTH: usize = 60;
/// `simsym verify --states` of the verify-quotient workload.
pub const VERIFY_STATES: usize = 3_000_000;

/// A uniform ring to verify exhaustively, and the canonical state counts
/// its quotient search and its identity baseline must certify.
#[derive(Clone, Copy, Debug)]
pub struct VerifySize {
    /// Processors of the ring; also the order of its automorphism group.
    pub procs: usize,
    /// Canonical states of the quotient search.
    pub quotient_states: usize,
    /// Canonical states of the identity baseline.
    pub identity_states: usize,
}

/// The verify-quotient workload's ring:6.
pub const VERIFY_FULL: VerifySize = VerifySize {
    procs: 6,
    quotient_states: 28_420,
    identity_states: 170_025,
};

/// ring:5, about a sixth of the work: what a traced run of another
/// workload measures the explore and reduce layers on.
pub const VERIFY_SMALL: VerifySize = VerifySize {
    procs: 5,
    quotient_states: 4_559,
    identity_states: 22_775,
};

/// Processors of the soak ring (the CLI's default for `ring`).
pub const SOAK_PROCS: usize = 5;
/// `simsym soak`'s default budget: runs per sweep.
pub const SOAK_RUNS: usize = 200;
/// Sweep runs a traced run of another workload measures the soak layers on.
pub const SOAK_SMALL_RUNS: usize = 20;
/// `simsym soak`'s default step budget per run.
pub const SOAK_STEPS: u64 = 4_000;
/// Sweep threads `simsym soak` asks for.
pub const SOAK_THREADS: usize = 4;

fn nanos(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The uniform ring of `procs` processors, as `simsym verify` builds it.
pub fn verify_family(procs: usize) -> (SystemGraph, SystemInit) {
    let graph = topology::uniform_ring(procs);
    let init = SystemInit::uniform(&graph);
    (graph, init)
}

/// The soak-journal system: the ring with p0 marked, as `simsym soak` builds it.
pub fn soak_family() -> (SystemGraph, SystemInit) {
    let graph = topology::uniform_ring(SOAK_PROCS);
    let init = SystemInit::with_marked(&graph, &[ProcId::new(0)]);
    (graph, init)
}

/// The program `simsym verify` runs when no fixture is named: the
/// generated Q selection program if one exists, else the label learner.
fn verify_program(graph: &SystemGraph, init: &SystemInit) -> Arc<dyn Program> {
    match selection_program_q(graph, init).expect("verify family builds") {
        Some(select) => Arc::new(select),
        None => {
            let theta = hopcroft_similarity(graph, init, Model::Q);
            Arc::new(LabelLearner::new(graph, init, &theta).expect("label learner builds"))
        }
    }
}

/// The verify-quotient machine and its reducers, built by the calls
/// `simsym verify` makes before its first step.
pub fn verify_setup() -> (Machine, Box<dyn Reducer>, Box<dyn Reducer>) {
    let (graph, init) = verify_family(VERIFY_FULL.procs);
    let graph = Arc::new(graph);
    let program = verify_program(&graph, &init);
    let machine = Machine::new(Arc::clone(&graph), InstructionSet::Q, program, &init)
        .expect("verify machine builds");
    let quotient = Reduction::Quotient.build(&graph, &init);
    let identity = Reduction::None.build(&graph, &init);
    (machine, quotient, identity)
}

/// What `simsym soak` builds before its sweep: the marked ring, its leader
/// (to pick the protected processor), and the Q selection program.
pub struct SoakSetup {
    graph: Arc<SystemGraph>,
    init: SystemInit,
    program: Arc<dyn Program>,
    protect: ProcId,
}

/// Builds [`SoakSetup`] by the calls `simsym soak` makes.
pub fn soak_setup() -> SoakSetup {
    let (graph, init) = soak_family();
    let leader = *hopcroft_similarity(&graph, &init, Model::Q)
        .uniquely_labeled_processors()
        .first()
        .expect("marked ring has a unique processor");
    let program = selection_program_q(&graph, &init)
        .expect("soak family builds")
        .expect("marked ring admits a Q selection program");
    let protect = ProcId::new((leader.index() + 1) % SOAK_PROCS);
    // Every sweep run starts by building a machine; the setup counts one.
    let graph = Arc::new(graph);
    let program: Arc<dyn Program> = Arc::new(program);
    Machine::new(
        Arc::clone(&graph),
        InstructionSet::Q,
        Arc::clone(&program),
        &init,
    )
    .expect("soak machine builds");
    SoakSetup {
        graph,
        init,
        program,
        protect,
    }
}

/// Repeats of a workload's setup that one `perfbench setup` times.
pub const SETUP_REPS: usize = 100;

/// Median seconds of [`SETUP_REPS`] repeats of a workload's setup, timed
/// in process: a process spawn of about 2 ms would drown it.
pub fn setup_seconds(workload: &str) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        match workload {
            "verify-quotient" => {
                black_box(verify_setup());
            }
            "soak-journal" => {
                black_box(soak_setup());
            }
            other => return Err(format!("no in-process setup for workload {other:?}")),
        }
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&samples))
}

/// A reducer that times the `canonical_fingerprint` calls it delegates.
struct TimedReducer<'a> {
    inner: &'a mut dyn Reducer,
    timed: bool,
    calls: u64,
    ns: u64,
}

impl Reducer for TimedReducer<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn canonical_fingerprint(&mut self, m: &Machine) -> (u64, u64) {
        if !self.timed {
            return self.inner.canonical_fingerprint(m);
        }
        let t = Instant::now();
        let key = self.inner.canonical_fingerprint(m);
        self.ns += nanos(t);
        self.calls += 1;
        key
    }

    fn group_order(&self) -> usize {
        self.inner.group_order()
    }

    fn group_capped(&self) -> bool {
        self.inner.group_capped()
    }

    fn expand_outcome(&self, selected: &[ProcId], out: &mut BTreeSet<Vec<ProcId>>) {
        self.inner.expand_outcome(selected, out);
    }

    fn uses_por(&self) -> bool {
        self.inner.uses_por()
    }

    fn ample(&self, probes: &[ProbedStep]) -> Option<Vec<usize>> {
        self.inner.ample(probes)
    }
}

/// One explored mode of the verify workload.
pub struct ExploreStats {
    /// `explore_with` wall time.
    pub ns: u64,
    /// `canonical_fingerprint` calls and their summed time.
    pub canon_calls: u64,
    /// Summed canonicalize time.
    pub canon_ns: u64,
    /// The explorer's own result.
    pub result: ExploreResult,
}

fn explore_mode(machine: &Machine, reducer: &mut dyn Reducer, timed: bool) -> ExploreStats {
    let cfg = ExploreConfig {
        max_depth: VERIFY_DEPTH,
        max_states: VERIFY_STATES,
        threads: 1,
    };
    let mut wrapped = TimedReducer {
        inner: reducer,
        timed,
        calls: 0,
        ns: 0,
    };
    let t = Instant::now();
    let result = explore_with(machine, cfg, &mut wrapped);
    ExploreStats {
        ns: nanos(t),
        canon_calls: wrapped.calls,
        canon_ns: wrapped.ns,
        result,
    }
}

/// Whether an exploration certifies what the verify workload expects.
pub fn verify_result_ok(result: &ExploreResult, states: usize) -> bool {
    result.states_visited == states
        && !result.truncated
        && result.uniqueness_violation.is_none()
        && result.violation_kinds.is_empty()
}

/// The verify-quotient work, traced: setup spans, then the quotient and
/// identity explorations one after the other with canonicalization
/// folded into an aggregate span under each.
pub struct VerifyTrace {
    /// The traced quotient run.
    pub quotient: ExploreStats,
    /// The traced identity run.
    pub identity: ExploreStats,
    /// Quotient + identity explore time with the timing wrapper switched off.
    pub untraced_ns: u64,
    /// Whether both runs certified the expected state counts.
    pub correct: bool,
}

/// Runs [`VerifyTrace`] on the ring of `size` under `tracer`.
pub fn trace_verify(tracer: &mut Tracer, size: VerifySize) -> VerifyTrace {
    let (graph, init) = tracer.span("graph.family.ring", |_| verify_family(size.procs));
    let graph = Arc::new(graph);
    let program = tracer.span("core.selection_program", |_| verify_program(&graph, &init));
    let machine = tracer.span("vm.machine.new", |_| {
        Machine::new(Arc::clone(&graph), InstructionSet::Q, program, &init)
            .expect("verify machine builds")
    });
    let mut quotient_reducer = tracer.span("graph.automorphism.reducer", |_| {
        Reduction::Quotient.build(&graph, &init)
    });
    let mut identity_reducer = Reduction::None.build(&graph, &init);
    let quotient = tracer.span("vm.explore.quotient", |t| {
        let s = explore_mode(&machine, quotient_reducer.as_mut(), true);
        t.aggregate("vm.reduce.canonicalize.quotient", s.canon_calls, s.canon_ns);
        s
    });
    let identity = tracer.span("vm.explore.identity", |t| {
        let s = explore_mode(&machine, identity_reducer.as_mut(), true);
        t.aggregate("vm.reduce.canonicalize.identity", s.canon_calls, s.canon_ns);
        s
    });
    let untraced_ns = tracer.span("bench.untraced.verify", |_| {
        let mut q = Reduction::Quotient.build(&graph, &init);
        let mut i = Reduction::None.build(&graph, &init);
        explore_mode(&machine, q.as_mut(), false).ns + explore_mode(&machine, i.as_mut(), false).ns
    });
    let correct = verify_result_ok(&quotient.result, size.quotient_states)
        && verify_result_ok(&identity.result, size.identity_states)
        && quotient.result.group_order == size.procs;
    VerifyTrace {
        quotient,
        identity,
        untraced_ns,
        correct,
    }
}

/// A probe that times the `observe` calls it delegates.
struct TimedProbe<P> {
    inner: P,
    timed: bool,
    calls: u64,
    ns: u64,
}

impl<S: ?Sized, P: Probe<S>> Probe<S> for TimedProbe<P> {
    fn observe(&mut self, system: &S, just_stepped: ProcId) -> Option<Violation> {
        if !self.timed {
            return self.inner.observe(system, just_stepped);
        }
        let t = Instant::now();
        let out = self.inner.observe(system, just_stepped);
        self.ns += nanos(t);
        self.calls += 1;
        out
    }

    fn finish(&mut self, system: &S) {
        self.inner.finish(system);
    }
}

/// A scheduler that times the `next` calls it delegates.
struct TimedScheduler<T> {
    inner: T,
    timed: bool,
    ns: u64,
}

impl<S: ?Sized, T: Scheduler<S>> Scheduler<S> for TimedScheduler<T> {
    fn next(&mut self, system: &S) -> ProcId {
        if !self.timed {
            return self.inner.next(system);
        }
        let t = Instant::now();
        let p = self.inner.next(system);
        self.ns += nanos(t);
        p
    }

    fn kind(&self) -> ScheduleKind {
        self.inner.kind()
    }
}

/// What one sweep run spent where.
#[derive(Clone, Copy, Debug, Default)]
struct RunTimes {
    job_ns: u64,
    engine_ns: u64,
    steps: u64,
    checker_ns: u64,
    recorder_ns: u64,
    sched_ns: u64,
    observe_calls: u64,
    violation: bool,
}

/// The soak-journal sweep, traced: per-run times inside `sweep_jobs`, and
/// the probes and scheduler timed inside each run.
pub struct SoakTrace {
    /// Runs the sweep made.
    pub runs: usize,
    /// Steps summed over the sweep.
    pub steps: u64,
    /// Sweep wall time, traced.
    pub wall_ns: u64,
    /// Sweep wall time with the wrappers switched off.
    pub untraced_ns: u64,
    /// Per-run times in milliseconds.
    pub run_ms: Vec<f64>,
    /// Summed run time / (threads × sweep wall).
    pub busy_share: f64,
    /// `engine::run` minus probe and scheduler time, per step.
    pub faults_step_ns: f64,
    /// `FaultToleranceChecker::observe`, per call.
    pub checker_observe_ns: f64,
    /// `TraceRecorder::observe`, per call.
    pub recorder_ns: f64,
    /// `FaultSched::next`, per call.
    pub sched_next_ns: f64,
    /// Whether every run was clean and the run count matches the CLI's.
    pub correct: bool,
}

fn soak_sweep(setup: &SoakSetup, seed: u64, runs: usize, timed: bool) -> (Vec<RunTimes>, u64) {
    let config = SweepConfig {
        kinds: vec![SweepScheduler::RoundRobin, SweepScheduler::RandomFair],
        seeds: (seed..seed + (runs as u64).div_ceil(2)).collect(),
        max_steps: SOAK_STEPS,
        threads: SOAK_THREADS,
    };
    let horizon = (SOAK_STEPS / 4).max(1);
    let t = Instant::now();
    let runs = sweep_jobs(&config, |kind, seed| {
        let job = Instant::now();
        let plan = FaultPlan::seeded_crash_resets(SOAK_PROCS, &[setup.protect], seed, horizon)
            .with_replay_recoveries();
        let m = Machine::new(
            Arc::clone(&setup.graph),
            InstructionSet::Q,
            Arc::clone(&setup.program),
            &setup.init,
        )
        .expect("validated selection machine");
        let mut f = Faulty::with_journal(m, plan, LabelLearner::journal_spec());
        let mut sched = TimedScheduler {
            inner: FaultSched::new(kind.scheduler::<Faulty<Machine>>(SOAK_PROCS, seed)),
            timed,
            ns: 0,
        };
        let mut recorder = TimedProbe {
            inner: TraceRecorder::new(format!("{}(seed={seed})", kind.label()), "chaos"),
            timed,
            calls: 0,
            ns: 0,
        };
        let mut checker = TimedProbe {
            inner: FaultToleranceChecker::strict(),
            timed,
            calls: 0,
            ns: 0,
        };
        let run = Instant::now();
        let report = engine::run(
            &mut f,
            &mut sched,
            SOAK_STEPS,
            &mut [&mut recorder, &mut checker],
            &mut engine::stop::Never,
        );
        let engine_ns = nanos(run);
        let violation = checker
            .inner
            .into_diagnostics()
            .iter()
            .any(|d| d.severity == simsym_check::Severity::Error);
        black_box(recorder.inner.into_trace());
        RunTimes {
            job_ns: nanos(job),
            engine_ns,
            steps: report.steps,
            checker_ns: checker.ns,
            recorder_ns: recorder.ns,
            sched_ns: sched.ns,
            observe_calls: checker.calls,
            violation,
        }
    });
    (runs, nanos(t))
}

/// Runs [`SoakTrace`] for `seed` under `tracer`: a sweep of `run_count` runs,
/// [`SOAK_RUNS`] for the soak-journal workload.
pub fn trace_soak(tracer: &mut Tracer, seed: u64, run_count: usize) -> SoakTrace {
    let setup = tracer.span("core.soak.setup", |_| soak_setup());
    let threads = effective_threads(SOAK_THREADS);
    let (runs, wall_ns) = tracer.span("vm.sweep", |t| {
        let (runs, wall_ns) = soak_sweep(&setup, seed, run_count, true);
        // The sweep runs on several threads, so its calls' summed time
        // exceeds its wall time; each layer is charged its share of the
        // wall time instead, which keeps self times summing to the total.
        let sum = |f: fn(&RunTimes) -> u64| runs.iter().map(f).sum::<u64>();
        let thread_ns = sum(|r| r.job_ns).max(1);
        let scale = |ns: u64| (ns as f64 * wall_ns as f64 / thread_ns as f64) as u64;
        let (checker, recorder, sched) = (
            sum(|r| r.checker_ns),
            sum(|r| r.recorder_ns),
            sum(|r| r.sched_ns),
        );
        let faults = sum(|r| r.job_ns).saturating_sub(checker + recorder + sched);
        let steps = sum(|r| r.steps);
        let calls = sum(|r| r.observe_calls);
        t.aggregate("check.fault_tolerance.observe", calls, scale(checker));
        t.aggregate("vm.trace.record", calls, scale(recorder));
        t.aggregate("vm.schedule.next", steps, scale(sched));
        t.aggregate("vm.faults.step", steps, scale(faults));
        (runs, wall_ns)
    });
    let untraced_ns = tracer.span("bench.untraced.soak", |_| {
        soak_sweep(&setup, seed, run_count, false).1
    });
    let sum = |f: fn(&RunTimes) -> u64| runs.iter().map(f).sum::<u64>();
    let steps = sum(|r| r.steps).max(1);
    let calls = sum(|r| r.observe_calls).max(1);
    let engine_self =
        sum(|r| r.engine_ns).saturating_sub(sum(|r| r.checker_ns + r.recorder_ns + r.sched_ns));
    SoakTrace {
        runs: runs.len(),
        steps: sum(|r| r.steps),
        wall_ns,
        untraced_ns,
        run_ms: runs.iter().map(|r| r.job_ns as f64 / 1e6).collect(),
        busy_share: sum(|r| r.job_ns) as f64 / (threads as f64 * wall_ns.max(1) as f64),
        faults_step_ns: engine_self as f64 / steps as f64,
        checker_observe_ns: sum(|r| r.checker_ns) as f64 / calls as f64,
        recorder_ns: sum(|r| r.recorder_ns) as f64 / calls as f64,
        sched_next_ns: sum(|r| r.sched_ns) as f64 / steps as f64,
        correct: runs.len() == run_count && runs.iter().all(|r| !r.violation),
    }
}

/// Isolated timings of single calls, in nanoseconds per call.
pub struct CallTimes {
    /// `automorphism_group` on the verify ring with its init colors.
    pub automorphism_ns: f64,
    /// `selection_program_q` on the verify and the soak families.
    pub selection_program_ns: f64,
    /// `hopcroft_similarity(.., Model::Q)` on the soak family.
    pub hopcroft_ns: f64,
    /// `Machine::step_undoable` + `undo` on the verify machine.
    pub step_undo_ns: f64,
}

/// Times the single calls of [`CallTimes`] under one span each.
pub fn time_calls(tracer: &mut Tracer) -> CallTimes {
    let (vg, vinit) = verify_family(VERIFY_FULL.procs);
    let (sg, sinit) = soak_family();
    let colors = init_colors(&vg, &vinit);
    let automorphism_ns = tracer.span("graph.automorphism", |_| {
        per_call_ns(15, 20, |_| {
            black_box(automorphism_group(&vg, Some(&colors), GROUP_CAP));
        })
    });
    let selection_program_ns = tracer.span("core.selection_program_q", |_| {
        per_call_ns(15, 20, |_| {
            black_box(selection_program_q(&vg, &vinit).ok());
            black_box(selection_program_q(&sg, &sinit).ok());
        })
    });
    let hopcroft_ns = tracer.span("core.hopcroft", |_| {
        per_call_ns(15, 50, |_| {
            black_box(hopcroft_similarity(&sg, &sinit, Model::Q));
        })
    });
    let (mut machine, ..) = verify_setup();
    machine.enable_incremental_fingerprint();
    let procs = machine.processor_count();
    let mut p = 0;
    let step_undo_ns = tracer.span("vm.machine.step_undo", |_| {
        per_call_ns(15, 2000, |_| {
            let undo = machine.step_undoable(ProcId::new(p));
            machine.undo(undo);
            p = (p + 1) % procs;
        })
    });
    CallTimes {
        automorphism_ns,
        selection_program_ns,
        hopcroft_ns,
        step_undo_ns,
    }
}
