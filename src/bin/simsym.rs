//! The `simsym` command-line tool: analyze systems, run elections, seat
//! philosophers, and export Graphviz — from the shell.
//!
//! ```sh
//! simsym list
//! simsym analyze ring:5
//! simsym analyze figure2 --mark p0
//! simsym elect figure2
//! simsym dine 6 alternating
//! simsym dot marked-ring:5
//! simsym lint table:5 --program fixed-order
//! ```

use simsym::check::explore_check::{
    check_exploration, check_exploration_static, diverged_diagnostics, Interference, Reduction,
};
use simsym::check::{self, suite::lint_sweep, CheckReport, Diagnostic, FaultToleranceChecker};
use simsym::core::{
    decide_selection_with_init, hopcroft_similarity, markdown_report, refinement_similarity,
    selection_program_q, LabelLearner, Model,
};
use simsym::flags::{Arg, Flags, VALUE};
use simsym::graph::{dot, topology, SystemGraph};
use simsym::mp::{ChangRoberts, ChannelFaults, MpMachine, MpNetwork};
use simsym::philo::{
    chandy_misra_init, ChandyMisraPhilosopher, ExclusionMonitor, LehmannRabinPhilosopher,
    LockOrderPhilosopher, MealCounter,
};
use simsym::serve::{client as serve_client, JobOutput, JobRunner, ServeConfig, Server};
use simsym::systems;
use simsym::vm::engine::metrics::MetricsProbe;
use simsym::vm::engine::sweep::{run_jobs, sweep_jobs, SweepConfig, SweepScheduler};
use simsym::vm::engine::trace::{replay, TraceRecorder};
use simsym::vm::faults::{FaultEvent, FaultPlan, FaultSched, FaultView, Faulty, StarveAdversary};
use simsym::vm::{
    engine, run, run_until, shrink_counterexample, ExploreConfig, FixedSequence, InstructionSet,
    Machine, Program, RandomFair, ReproArtifact, ReproError, RoundRobin, Scheduler, Shrunk,
    SystemInit, Value,
};
use simsym_graph::ProcId;
use std::process::ExitCode;
use std::sync::Arc;

/// What a command produced: text for stdout, plus whether the process
/// should exit nonzero *after* printing it (lint findings, not usage
/// errors).
#[derive(Debug)]
struct CmdOut {
    text: String,
    failed: bool,
}

/// Wraps successful command text in a passing [`CmdOut`].
fn ok(text: String) -> Result<CmdOut, String> {
    Ok(CmdOut {
        text,
        failed: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(out) => {
            print!("{}", out.text);
            if out.failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage:\n  simsym list\n  simsym analyze <system> [--mark p0,p1,...] [--trace [--seed N] [--steps N]]\n  simsym analyze --trace FILE\n  simsym elect <system> [--mark p0,...]\n  simsym dine <n> <greedy|alternating|chandy-misra|lehmann-rabin> [steps]\n  simsym report <system> [--mark p0,...]\n  simsym dot <system> [--mark p0,...]\n  simsym lint <system> [--mark p0,...] [--program NAME] [--seed N]\n              [--steps N] [--sweep] [--static] [--json] [--dot]\n  simsym verify --family <ring|table|alternating|hypercube> [--procs N]\n              [--program NAME] [--reduce none|quotient|por|both] [--depth N]\n              [--states N] [--json] [--interference probe|static|both]\n  simsym faults --family <ring|table|alternating|hypercube>\n                --plan <crash|lossy|starve>\n                [--seed N] [--sweep M] [--steps N] [--journal] [--json]\n  simsym soak --family <ring|table|alternating|hypercube> [--budget N] [--seed N]\n              [--steps N] [--procs N] [--journal] [--repro-out FILE] [--json]\n  simsym bench [--json] [--quick] [--against FILE]\n  simsym serve [--addr HOST:PORT] [--workers N] [--queue N]\n              [--state-dir DIR] [--default-deadline-ms N]\n  simsym submit [--addr HOST:PORT] [--watch] [--deadline-ms N] <job.json | ->\n  simsym cancel [--addr HOST:PORT] JOB\n  simsym shutdown [--addr HOST:PORT]\n\nverify explores the family's selection machine exhaustively (depth-\nand state-bounded DFS over undoable steps) under a pluggable\nstate-space reduction: quotient canonicalizes states modulo the\nautomorphism group Aut(N, state0), por prunes commuting interleavings\nwith persistent sets, both composes the two, none is the identity\noracle. The requested mode and the identity baseline run under the\nsame budgets and are cross-checked; the report carries canonical state\ncounts, peak visited-store bytes, and the reduction factor (x100 in\nJSON). A reachable double selection (DYN-EXPLORE-UNIQ), a surfaced\nmachine-model violation, or a reducer that diverges from the oracle\n(DYN-EXPLORE-DIVERGED) exits nonzero; an exhausted search is certified\nup to depth d modulo Aut(N) (DYN-EXPLORE-CERTIFIED). --program swaps\nthe generated selection program for a seeded-defect fixture (grab is\nthe naive grab-your-fork strawman that double-selects).\n--interference static drives the POR modes from the program's declared\nstatic footprints (may-touch sets from its ProgramSpec) instead of\none-step probes; both runs the exploration once per source and\ncross-checks every reduced run against the identity oracle.\n\nfaults runs a seeded fault-injection sweep over one system family:\n--plan crash wraps the Q selection program in deterministic\ncrash/recovery faults (the marked leader is protected, losers crash\nand may recover with or without a state reset); --plan lossy runs\nChang-Roberts election on a unidirectional message ring whose channels\ndrop, duplicate, and reorder; --plan starve drives the k-bounded-fair\nstarvation adversary against the leader (k grows with the seed).\nEvery run is checked for Uniqueness and Stability under faults and\nthe sweep exits nonzero on error-severity findings. --sweep M fans\neach plan across M consecutive seeds on the deterministic schedule\nsweep, so identical invocations are byte-identical. With --journal\n(crash plan only) every processor — the leader included — crashes and\nreboots from a stable-storage journal, and the checker runs strict:\nany selection lost across a reboot is a DYN-RECOV-STAB error.\n\nsoak is the budgeted chaos loop: it fans randomized crash-reset plans\nacross schedules and seeds (strict checker) until the budget is spent\nor a violation is found. A violation is delta-debug shrunk — crash\nevents dropped, the schedule truncated and minimized, the processor\ncount reduced — while replaying to the identical verdict, and emitted\nas a replayable simsym-repro/v1 JSON artifact (--repro-out FILE).\nWithout --journal the selection decision lives in volatile memory and\nsoak finds the Stability violation by construction; with --journal the\nsame chaos stays clean. The exit code stays zero either way (the JSON\nreports \"violation_found\"); only replay divergence exits nonzero.\n\nanalyze --trace FILE replays a simsym-repro/v1 artifact verbatim (the\nschedule runs through a fixed-sequence scheduler) and exits nonzero if\nthe recorded verdict does not reproduce (SOAK-REPLAY-DIVERGED) or the\nembedded fault plan is ill-formed (SOAK-PLAN).\n\nbench runs the deterministic perf micro-suite: round-robin steps/second\nper built-in family, naive-vs-hopcroft labeling time on marked rings,\nand the fault-layer and journal overhead rows.\n--json emits the BENCH_pr3.json document; --quick shrinks the step\ncounts for CI smoke runs; --against FILE checks that the emitted JSON\nhas the same schema (keys and labels, numbers ignored) as FILE and\nexits nonzero on drift.\n\n--trace (with a system) runs the Q label learner under a seeded\nrandom-fair schedule and emits a replayable JSON schedule trace\n(verified by re-execution) on stdout; metrics go to stderr.\n\nlint runs static checks (spec/graph/ISA/labeling) and then the dynamic\ncheckers (lockset races, lock-order deadlock cycles, lock discipline, ISA\nconformance) over one seeded run — or a deterministic schedule sweep with\n--sweep. --program swaps the default Q label learner for a seeded-defect\nfixture (racy | fixed-order | isa-cheater | greedy | grab | uninit);\n--dot prints the lock-order graph in Graphviz syntax. --static skips\nthe dynamic pass entirely and instead runs the dataflow analyses over\nthe program's declared spec (uninit reads, dead phases, symmetry\nbreaks, static lock-order cycles) with zero VM steps executed. Exits\nnonzero on error-severity findings.\n\nserve runs the multi-tenant simulation farm: a bounded job queue over\nTCP (HTTP/1.1, newline-delimited JSON events) accepting sweep, lint,\nfaults, soak, and verify job specs. Jobs are sharded across a worker\npool by the deterministic strided-partition sweep, so results are\nbyte-identical for any --workers count and identical to the batch CLI.\nCompleted artifacts land in a content-addressed store keyed by the\njob's canonical argv; resubmitting the same job reports a cache hit\nand returns the stored document without recomputation. POST /shutdown\ndrains gracefully: queued and in-flight jobs finish, new submissions\nare rejected with SERVE-DRAINING. With --state-dir the farm is\ncrash-safe: every submit/start/finish/cancel is written ahead to an\nNDJSON job journal (synced before the ack) and artifacts spill to an\non-disk store, so after kill -9 a restart re-queues unfinished jobs\nand serves finished ones byte-identically from disk. deadline_ms in a\nspec (or --default-deadline-ms farm-wide) bounds a job's execution:\nthe worker stops at the next sweep-job boundary and reports\nSERVE-JOB-DEADLINE. A panicking job is caught (SERVE-JOB-PANIC),\nretried once, and cannot take the dispatcher down. submit posts one\njob spec (a JSON object, e.g. {\"kind\":\"verify\",\"family\":\"ring\"})\nand prints the result document; --watch streams the job's progress\nevents first; --deadline-ms injects the spec's deadline_ms field.\ncancel dequeues a queued job or interrupts a running one at its next\nsweep-job boundary.\n\nsystems: figure1 | figure2 | figure3 | ring:N | marked-ring:N | line:N |\n         star:N | table:N | alternating:N | hypercube:D | board:PxV |\n         @spec-file.sysg".to_owned()
}

fn dispatch(args: &[String]) -> Result<CmdOut, String> {
    match args.first().map(String::as_str) {
        Some("list") => ok(list()),
        Some("analyze") => {
            let flags = Flags::read(
                &args[1..],
                &[
                    ("--trace", Arg::Optional),
                    ("--seed", VALUE),
                    ("--steps", VALUE),
                ],
            )?;
            let seed = flags.parse("--seed", "seed")?;
            let steps = flags.parse("--steps", "step count")?;
            let tuned = seed.is_some() || steps.is_some();
            if tuned && !flags.has("--trace") {
                return Err("--seed/--steps only make sense with --trace".into());
            }
            if let Some(path) = flags.value("--trace") {
                if tuned {
                    return Err(
                        "--seed/--steps do not apply when replaying a repro artifact".into(),
                    );
                }
                if !flags.rest().is_empty() {
                    return Err(
                        "--trace FILE replays a repro artifact; a system spec is not allowed"
                            .into(),
                    );
                }
                return analyze_replay(path);
            }
            let (graph, init) = parse_system_args(flags.rest())?;
            if flags.has("--trace") {
                analyze_trace(&graph, &init, seed.unwrap_or(0), steps.unwrap_or(100_000))
                    .and_then(ok)
            } else {
                ok(analyze(&graph, &init))
            }
        }
        Some("elect") => {
            let (graph, init) = parse_system_args(&args[1..])?;
            elect(&graph, &init).and_then(ok)
        }
        Some("dine") => dine(&args[1..]).and_then(ok),
        Some("report") => {
            let (graph, init) = parse_system_args(&args[1..])?;
            ok(markdown_report(&graph, &init))
        }
        Some("dot") => {
            let (graph, init) = parse_system_args(&args[1..])?;
            let theta = hopcroft_similarity(&graph, &init, Model::Q);
            ok(dot::to_dot(&graph, Some(theta.as_slice())))
        }
        Some("lint") => lint(&args[1..]),
        Some("verify") => verify(&args[1..]),
        Some("faults") => faults(&args[1..]),
        Some("soak") => soak(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("submit") => submit(&args[1..]),
        Some("cancel") => cancel(&args[1..]),
        Some("shutdown") => shutdown(&args[1..]),
        Some("panic") => panic_fixture(&args[1..]),
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("missing command".to_owned()),
    }
}

/// Options for `lint`.
struct LintOpts {
    seed: u64,
    steps: u64,
    sweep: bool,
    json: bool,
    dot: bool,
    static_only: bool,
    program: Option<String>,
}

fn extract_lint_flags(args: &[String]) -> Result<(LintOpts, Vec<String>), String> {
    let f = Flags::read(
        args,
        &[
            ("--seed", VALUE),
            ("--steps", VALUE),
            ("--sweep", Arg::Switch),
            ("--json", Arg::Switch),
            ("--dot", Arg::Switch),
            ("--static", Arg::Switch),
            ("--program", Arg::Value("a fixture name")),
        ],
    )?;
    let opts = LintOpts {
        seed: f.parse("--seed", "seed")?.unwrap_or(0),
        steps: f.parse("--steps", "step count")?.unwrap_or(5_000),
        sweep: f.has("--sweep"),
        json: f.has("--json"),
        dot: f.has("--dot"),
        static_only: f.has("--static"),
        program: f.value("--program").map(str::to_owned),
    };
    if opts.dot && opts.sweep {
        return Err("--dot and --sweep are mutually exclusive".into());
    }
    if opts.static_only && (opts.dot || opts.sweep) {
        return Err("--static runs no dynamic pass; it excludes --dot and --sweep".into());
    }
    Ok((opts, f.rest().to_vec()))
}

/// `simsym lint`: static lints over the system, then the dynamic checker
/// suite over one seeded run (or a schedule sweep). Exits nonzero when any
/// error-severity diagnostic is found.
fn lint(args: &[String]) -> Result<CmdOut, String> {
    let (opts, rest) = extract_lint_flags(args)?;
    let spec = rest.first().ok_or("missing system spec")?.clone();

    // Spec files get the raw-text lint before (and regardless of) parsing.
    let mut diags: Vec<Diagnostic> = Vec::new();
    if let Some(path) = spec.strip_prefix('@') {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        diags.extend(check::lint_spec(&text));
    }
    let (graph, init) = match parse_system_args(&rest) {
        Ok(pair) => pair,
        // A malformed spec file is a lint finding, not a usage error: the
        // raw-text lint above has already diagnosed it with line witnesses.
        Err(_) if diags.iter().any(|d| d.severity == check::Severity::Error) => {
            let report = CheckReport::new(spec, diags);
            return lint_render(&report, &opts, None);
        }
        Err(e) => return Err(e),
    };

    diags.extend(check::lint_graph(&graph));
    diags.extend(check::lint_labeling(&graph, &init));

    let graph = Arc::new(graph);
    let factory: Box<dyn Fn() -> Machine + Sync> = if let Some(name) = &opts.program {
        // Validate the fixture name once; the factory can then unwrap.
        check::fixture_machine(name, Arc::clone(&graph), &init).ok_or_else(|| {
            format!(
                "unknown fixture program {name:?} (have: {})",
                check::FIXTURE_NAMES.join(", ")
            )
        })?;
        let (name, g, init) = (name.clone(), Arc::clone(&graph), init.clone());
        Box::new(move || {
            check::fixture_machine(&name, Arc::clone(&g), &init).expect("validated fixture")
        })
    } else {
        // Default dynamic pass: the Q label learner (Algorithm 2), a
        // known-conforming program that exercises every processor.
        let labeling = hopcroft_similarity(&graph, &init, Model::Q);
        match LabelLearner::new(&graph, &init, &labeling) {
            Ok(learner) => {
                let prog: Arc<dyn Program> = Arc::new(learner);
                let (g, init) = (Arc::clone(&graph), init.clone());
                Box::new(move || {
                    Machine::new(Arc::clone(&g), InstructionSet::Q, Arc::clone(&prog), &init)
                        .expect("learner machine construction")
                })
            }
            Err(_) => {
                // lint_labeling has already reported the inconsistency;
                // there is no sound machine to run, so stop at statics.
                let report = CheckReport::new(spec, diags);
                return lint_render(&report, &opts, None);
            }
        }
    };

    let machine = factory();
    diags.extend(check::lint_machine(&machine));
    if opts.static_only {
        // Statics only — the dataflow analyses over the program's spec
        // replace the dynamic pass; zero VM steps are executed.
        diags.extend(check::analyze_machine(&machine, &init)?);
        let report = CheckReport::new(spec, diags);
        return lint_render(&report, &opts, None);
    }
    drop(machine);

    if opts.sweep {
        let config = SweepConfig {
            kinds: vec![SweepScheduler::RoundRobin, SweepScheduler::RandomFair],
            seeds: (opts.seed..opts.seed + 8).collect(),
            max_steps: opts.steps,
            threads: 4,
        };
        let sweep = lint_sweep(spec.clone(), &factory, &config);
        let static_report = CheckReport::new(spec, diags);
        let failed = static_report.has_errors() || sweep.has_errors();
        let text = if opts.json {
            format!("{}\n{}\n", static_report.to_json(), sweep.to_json())
        } else {
            format!("{}{}", static_report.render_text(), sweep.render_text())
        };
        return Ok(CmdOut { text, failed });
    }

    let mut machine = factory();
    let mut sched = RandomFair::seeded(opts.seed);
    let outcome = check::run_dynamic(&mut machine, &mut sched, opts.steps);
    diags.extend(outcome.diagnostics);
    let report = CheckReport::new(spec, diags);
    lint_render(&report, &opts, Some(&outcome.lock_order))
}

/// Renders a lint report per the output flags; `--dot` substitutes the
/// lock-order graph (empty when no dynamic run happened).
fn lint_render(
    report: &CheckReport,
    opts: &LintOpts,
    lock_order: Option<&check::LockOrderGraph>,
) -> Result<CmdOut, String> {
    let text = if opts.dot {
        lock_order.cloned().unwrap_or_default().to_dot()
    } else if opts.json {
        format!("{}\n", report.to_json())
    } else {
        report.render_text()
    };
    Ok(CmdOut {
        text,
        failed: report.has_errors(),
    })
}

/// Options for `verify`.
struct VerifyOpts {
    family: String,
    procs: Option<usize>,
    program: Option<String>,
    reduce: Reduction,
    interference: String,
    depth: usize,
    states: usize,
    json: bool,
}

fn extract_verify_flags(args: &[String]) -> Result<VerifyOpts, String> {
    let f = Flags::read(
        args,
        &[
            ("--family", VALUE),
            ("--procs", VALUE),
            ("--program", Arg::Value("a fixture name")),
            ("--reduce", Arg::Value("a mode")),
            ("--interference", Arg::Value("a mode")),
            ("--depth", VALUE),
            ("--states", VALUE),
            ("--json", Arg::Switch),
        ],
    )?;
    f.reject_rest("verify")?;
    let reduce = match f.value("--reduce") {
        None => Reduction::Both,
        Some(v) => Reduction::parse(v).ok_or_else(|| {
            format!(
                "unknown reduction {v:?} (have: {})",
                check::REDUCTION_NAMES.join(" | ")
            )
        })?,
    };
    let interference = f.value("--interference").unwrap_or("probe");
    if !check::INTERFERENCE_NAMES.contains(&interference) {
        return Err(format!(
            "unknown interference {interference:?} (have: {})",
            check::INTERFERENCE_NAMES.join(" | ")
        ));
    }
    let opts = VerifyOpts {
        family: f
            .value("--family")
            .map(str::to_owned)
            .ok_or("verify needs --family <ring|table|alternating|hypercube>")?,
        procs: f.parse("--procs", "processor count")?,
        program: f.value("--program").map(str::to_owned),
        reduce,
        interference: interference.to_owned(),
        depth: f.parse("--depth", "depth")?.unwrap_or(12),
        states: f.parse("--states", "state budget")?.unwrap_or(200_000),
        json: f.has("--json"),
    };
    if opts.depth == 0 || opts.states == 0 {
        return Err("--depth and --states need to be positive".into());
    }
    if opts.interference != "probe" && !matches!(opts.reduce, Reduction::Por | Reduction::Both) {
        return Err(format!(
            "--interference {} only affects the POR reductions; use --reduce por or both",
            opts.interference
        ));
    }
    Ok(opts)
}

/// The families the `--family` commands take, each with two default
/// processor counts: verify's, for small uniform systems (symmetric, so
/// the similarity quotient has a nontrivial `Aut(N)` to divide by), and
/// the one faults and soak share, for marked systems.
const COMMAND_FAMILIES: &[(&str, usize, usize)] = &[
    ("ring", 4, 5),
    ("table", 4, 6),
    ("alternating", 4, 6),
    ("hypercube", 8, 8),
];

/// `family`'s `(verify, faults and soak)` default processor counts; a
/// family the `--family` commands do not take is an error.
fn command_family(family: &str) -> Result<(usize, usize), String> {
    let names: Vec<&str> = COMMAND_FAMILIES.iter().map(|f| f.0).collect();
    COMMAND_FAMILIES
        .iter()
        .find(|f| f.0 == family)
        .map(|f| (f.1, f.2))
        .ok_or_else(|| format!("unknown family {family:?} (have: {})", names.join(" | ")))
}

/// `family` with `procs` processors, built through the family table.
fn family_system(family: &str, procs: usize) -> Result<SystemGraph, String> {
    command_family(family)?;
    systems::family(family)
        .expect("command families are table families")
        .with_procs(procs)
}

/// `family` at `procs` processors (the faults and soak default when
/// `None`) with p0 structurally marked, so a Q selection algorithm
/// exists: the systems faults and soak run on.
fn marked_family(family: &str, procs: Option<usize>) -> Result<(SystemGraph, SystemInit), String> {
    let graph = family_system(family, procs.unwrap_or(command_family(family)?.1))?;
    let init = SystemInit::with_marked(&graph, &[ProcId::new(0)]);
    Ok((graph, init))
}

/// The program `elect` runs: the generated Q selection program when one
/// exists, else the label learner itself.
fn selection_or_learner(
    graph: &SystemGraph,
    init: &SystemInit,
) -> Result<Arc<dyn Program>, String> {
    if let Some(select) = selection_program_q(graph, init).map_err(|e| e.to_string())? {
        return Ok(Arc::new(select));
    }
    let theta = hopcroft_similarity(graph, init, Model::Q);
    Ok(Arc::new(
        LabelLearner::new(graph, init, &theta).map_err(|e| e.to_string())?,
    ))
}

/// One verify run: the mode it explored under and what it found.
struct VerifyRow {
    reduce: Reduction,
    interference: Interference,
    result: simsym::vm::ExploreResult,
}

/// `simsym verify`: reduction-aware exhaustive exploration of one family
/// (or a seeded-defect fixture on it). Runs the requested reduction *and*
/// the identity baseline under the same budgets, cross-checks them, and
/// exits nonzero on any error-severity finding — a reachable double
/// selection, a surfaced machine-model violation, or a reducer that
/// diverged from the oracle.
fn verify(args: &[String]) -> Result<CmdOut, String> {
    let opts = extract_verify_flags(args)?;
    let (default, _) = command_family(&opts.family)?;
    let graph = family_system(&opts.family, opts.procs.unwrap_or(default))?;
    let init = SystemInit::uniform(&graph);
    let graph = Arc::new(graph);

    let (machine, program_label) = match &opts.program {
        Some(name) => {
            let m = check::fixture_machine(name, Arc::clone(&graph), &init).ok_or_else(|| {
                format!(
                    "unknown fixture program {name:?} (have: {})",
                    check::FIXTURE_NAMES.join(", ")
                )
            })?;
            (m, name.clone())
        }
        None => {
            let program = selection_or_learner(&graph, &init)?;
            let m = Machine::new(Arc::clone(&graph), InstructionSet::Q, program, &init)
                .map_err(|e| e.to_string())?;
            (m, "learner".to_owned())
        }
    };

    let cfg = ExploreConfig {
        max_depth: opts.depth,
        max_states: opts.states,
        threads: 1,
    };
    // The requested mode plus the identity baseline, fanned across the
    // generic job runner (order-preserving, so row 0 is the request and
    // the identity oracle is always last). --interference both inserts a
    // probe-driven twin of the request between the two.
    let primary = match opts.interference.as_str() {
        "static" | "both" => Interference::Static,
        _ => Interference::Probe,
    };
    let mut modes: Vec<(Reduction, Interference)> = vec![(opts.reduce, primary)];
    if opts.interference == "both" {
        modes.push((opts.reduce, Interference::Probe));
    }
    if opts.reduce != Reduction::None {
        modes.push((Reduction::None, Interference::Probe));
    }
    let footprints = if primary == Interference::Static {
        Some(check::machine_footprints(&machine)?)
    } else {
        None
    };
    let mut runs = run_jobs(
        modes.len(),
        &modes,
        |&(mode, interference)| match interference {
            Interference::Probe => check_exploration(&machine, &init, cfg, mode),
            Interference::Static => check_exploration_static(
                &machine,
                &init,
                cfg,
                mode,
                footprints.as_ref().expect("footprints derived above"),
            ),
        },
    );

    let mut rows = Vec::new();
    let mut diags = Vec::new();
    for (i, ((result, run_diags), (mode, interference))) in runs.drain(..).zip(modes).enumerate() {
        if i == 0 {
            diags.extend(run_diags);
        }
        rows.push(VerifyRow {
            reduce: mode,
            interference,
            result,
        });
    }
    if rows.len() > 1 {
        let baseline = rows.last().expect("identity baseline");
        for row in &rows[..rows.len() - 1] {
            diags.extend(diverged_diagnostics(
                &baseline.result,
                &row.result,
                row.reduce,
            ));
        }
    }
    let factor_x100 = rows.last().expect("at least one run").result.states_visited * 100
        / rows[0].result.states_visited.max(1);
    let system = format!("{}:{}", opts.family, graph.processor_count());
    let report = CheckReport::new(system.clone(), diags);
    let text = if opts.json {
        verify_render_json(&opts, &system, &program_label, &rows, factor_x100, &report)
    } else {
        verify_render_text(&opts, &system, &program_label, &rows, factor_x100, &report)
    };
    Ok(CmdOut {
        text,
        failed: report.has_errors(),
    })
}

/// Renders the `simsym-verify/v1` JSON document. All numbers are
/// integers (the reduction factor ships ×100), so the schema skeleton is
/// byte-stable across hosts.
fn verify_render_json(
    opts: &VerifyOpts,
    system: &str,
    program: &str,
    rows: &[VerifyRow],
    factor_x100: usize,
    report: &CheckReport,
) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"simsym-verify/v1\",\n  \"system\": \"{system}\",\n  \"program\": \"{program}\",\n  \"interference\": \"{}\",\n  \"depth\": {},\n  \"max_states\": {},\n  \"runs\": [\n",
        opts.interference, opts.depth, opts.states
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"reduce\": \"{}\", \"interference\": \"{}\", \"states_canonical\": {}, \"states_seen\": {}, \"outcomes\": {}, \"group_order\": {}, \"group_capped\": {}, \"peak_visited_bytes\": {}, \"truncated\": {}, \"double_selection\": {}}}{}\n",
            r.reduce.label(),
            r.interference.label(),
            r.result.states_visited,
            r.result.states_seen,
            r.result.outcomes.len(),
            r.result.group_order,
            u8::from(r.result.group_capped),
            r.result.peak_visited_bytes,
            u8::from(r.result.truncated),
            u8::from(r.result.has_double_selection()),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    let diags: Vec<String> = report.diagnostics.iter().map(|d| d.to_json()).collect();
    out.push_str(&format!(
        "  ],\n  \"reduction_factor_x100\": {factor_x100},\n  \"diagnostics\": [{}]\n}}\n",
        diags.join(",")
    ));
    out
}

fn verify_render_text(
    opts: &VerifyOpts,
    system: &str,
    program: &str,
    rows: &[VerifyRow],
    factor_x100: usize,
    report: &CheckReport,
) -> String {
    let mut out = format!(
        "verify {system} program={program} depth={} states<={}\n",
        opts.depth, opts.states
    );
    for r in rows {
        out.push_str(&format!(
            "  reduce={:<9} intf={:<7} {:>8} canonical states ({:>9} arrivals)  |Aut| {}{}  peak {} B  outcomes {}{}{}\n",
            r.reduce.label(),
            r.interference.label(),
            r.result.states_visited,
            r.result.states_seen,
            r.result.group_order,
            if r.result.group_capped {
                " (capped)"
            } else {
                ""
            },
            r.result.peak_visited_bytes,
            r.result.outcomes.len(),
            if r.result.truncated {
                "  [truncated]"
            } else {
                ""
            },
            if r.result.has_double_selection() {
                "  [DOUBLE SELECTION]"
            } else {
                ""
            },
        ));
    }
    out.push_str(&format!(
        "reduction factor: {}.{:02}x (reduce={} vs none)\n",
        factor_x100 / 100,
        factor_x100 % 100,
        rows[0].reduce.label()
    ));
    for d in &report.diagnostics {
        out.push_str(&format!("    {d}\n"));
    }
    out
}

fn list() -> String {
    let mut out = String::from("built-in systems:\n");
    for family in systems::FAMILIES {
        out.push_str(&format!("  {:<16} {}\n", family.usage(), family.about));
    }
    out
}

/// Parses `<system> [--mark p0,p1]`. A leading `@` loads a spec file
/// (see `simsym_graph::spec`), whose own `mark` lines seed the init.
fn parse_system_args(args: &[String]) -> Result<(SystemGraph, SystemInit), String> {
    let spec = args.first().ok_or("missing system spec")?;
    if let Some(path) = spec.strip_prefix('@') {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let parsed = simsym::graph::parse_spec(&text).map_err(|e| e.to_string())?;
        let mut init = SystemInit::uniform(&parsed.graph);
        for (p, value) in &parsed.marks {
            init.proc_values[p.index()] = simsym::vm::Value::from(*value);
        }
        if args.len() > 1 {
            return Err(
                "spec files carry their own marks; flags are not supported with @file".into(),
            );
        }
        return Ok((parsed.graph, init));
    }
    let graph = systems::parse(spec)?;
    let flags = Flags::read(&args[1..], &[("--mark", Arg::Value("a processor list"))])?;
    if let Some(other) = flags.rest().first() {
        return Err(format!("unknown flag {other:?}"));
    }
    let init = match flags.value("--mark") {
        Some(list) => SystemInit::with_marked(&graph, &parse_marks(list, graph.processor_count())?),
        None => SystemInit::uniform(&graph),
    };
    Ok((graph, init))
}

/// Runs the Q label learner under a seeded random-fair schedule, records a
/// [`ScheduleTrace`], verifies it replays to the identical final state on a
/// fresh machine, and returns the JSON document.
fn analyze_trace(
    graph: &SystemGraph,
    init: &SystemInit,
    seed: u64,
    max_steps: u64,
) -> Result<String, String> {
    let labeling = hopcroft_similarity(graph, init, Model::Q);
    let prog = LabelLearner::new(graph, init, &labeling).map_err(|e| e.to_string())?;
    let prog: Arc<dyn Program> = Arc::new(prog);
    let graph = Arc::new(graph.clone());
    let fresh = || {
        Machine::new(
            Arc::clone(&graph),
            InstructionSet::Q,
            Arc::clone(&prog),
            init,
        )
        .map_err(|e| e.to_string())
    };

    let mut machine = fresh()?;
    let mut sched = RandomFair::seeded(seed);
    let kind = Scheduler::<Machine>::kind(&sched).to_string();
    let mut recorder = TraceRecorder::new(format!("random_fair(seed={seed})"), kind);
    let mut metrics = MetricsProbe::new();
    let report = engine::run(
        &mut machine,
        &mut sched,
        max_steps,
        &mut [&mut recorder, &mut metrics],
        &mut engine::stop::when(|m: &Machine| {
            m.graph()
                .processors()
                .all(|p| LabelLearner::is_done(m.local(p)))
        }),
    );
    let trace = recorder.into_trace();

    let mut replica = fresh()?;
    replay(&mut replica, &trace).map_err(|e| format!("trace failed to replay: {e}"))?;

    eprintln!(
        "# {} steps under {} ({:?})",
        report.steps, trace.scheduler, report.stop
    );
    eprint!("{}", metrics.metrics());
    Ok(format!("{}\n", trace.to_json()))
}

/// `analyze --trace FILE`: replays a `simsym-repro/v1` artifact verbatim
/// and checks that the recorded verdict reproduces. An ill-formed fault
/// plan is a `SOAK-PLAN` diagnostic (nonzero exit), not a panic; a
/// verdict mismatch is `SOAK-REPLAY-DIVERGED`.
fn analyze_replay(path: &str) -> Result<CmdOut, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let artifact = match ReproArtifact::from_json(text.trim()) {
        Ok(a) => a,
        Err(ReproError::Plan(e)) => {
            let diag = Diagnostic::new(
                check::Severity::Error,
                check::diag::codes::SOAK_PLAN,
                check::Span::none(),
                format!("repro artifact carries an ill-formed fault plan: {e}"),
            );
            let report = CheckReport::new(format!("repro:{path}"), vec![diag]);
            return Ok(CmdOut {
                text: report.render_text(),
                failed: true,
            });
        }
        Err(e) => return Err(format!("{path}: {e}")),
    };
    let observed = soak_run_fixed(
        &artifact.family,
        artifact.journal,
        artifact.procs,
        &artifact.plan,
        &artifact.schedule,
    )?;
    let mut out = format!(
        "replayed {path}: family={} procs={} journal={} crashes={} steps={}\n",
        artifact.family,
        artifact.procs,
        artifact.journal,
        artifact.plan.crashes.len(),
        artifact.schedule.len()
    );
    if observed.as_deref() == Some(artifact.violation.as_str()) {
        out.push_str(&format!("verdict {} reproduced\n", artifact.violation));
        return Ok(CmdOut {
            text: out,
            failed: false,
        });
    }
    let diag = Diagnostic::new(
        check::Severity::Error,
        check::diag::codes::SOAK_REPLAY_DIVERGED,
        check::Span::none(),
        format!(
            "artifact records verdict {} but the replay produced {}",
            artifact.violation,
            observed.as_deref().unwrap_or("a clean run")
        ),
    );
    out.push_str(&format!("    {diag}\n"));
    Ok(CmdOut {
        text: out,
        failed: true,
    })
}

fn parse_marks(list: &str, procs: usize) -> Result<Vec<ProcId>, String> {
    list.split(',')
        .map(|tok| {
            let tok = tok.trim().trim_start_matches('p');
            let idx: usize = tok.parse().map_err(|_| format!("bad processor {tok:?}"))?;
            if idx >= procs {
                return Err(format!("processor p{idx} out of range (have {procs})"));
            }
            Ok(ProcId::new(idx))
        })
        .collect()
}

fn analyze(graph: &SystemGraph, init: &SystemInit) -> String {
    let mut out = String::new();
    let theta = hopcroft_similarity(graph, init, Model::Q);
    out.push_str(&format!(
        "{} processors, {} variables, {} names; Q-similarity classes: {}\n",
        graph.processor_count(),
        graph.variable_count(),
        graph.name_count(),
        theta.class_count()
    ));
    let classes: Vec<String> = theta
        .proc_classes()
        .iter()
        .map(|c| {
            let ids: Vec<String> = c.iter().map(|p| p.to_string()).collect();
            format!("{{{}}}", ids.join(" "))
        })
        .collect();
    out.push_str(&format!("processor classes: {}\n", classes.join("  ")));
    for model in Model::ALL {
        let d = decide_selection_with_init(graph, init, model);
        out.push_str(&format!("  {d}\n"));
    }
    out
}

fn elect(graph: &SystemGraph, init: &SystemInit) -> Result<String, String> {
    let prog = selection_program_q(graph, init)
        .map_err(|e| e.to_string())?
        .ok_or("no selection algorithm exists in Q for this system (every processor is shadowed); try `analyze` to see which models can solve it")?;
    let mut m = Machine::new(
        Arc::new(graph.clone()),
        InstructionSet::Q,
        Arc::new(prog),
        init,
    )
    .map_err(|e| e.to_string())?;
    let mut sched = RoundRobin::new();
    let report = run_until(&mut m, &mut sched, 10_000_000, &mut [], |mach| {
        mach.selected_count() >= 1
    });
    Ok(format!(
        "elected {:?} after {} round-robin steps\n",
        m.selected(),
        report.steps
    ))
}

fn dine(args: &[String]) -> Result<String, String> {
    let n: usize = args
        .first()
        .ok_or("dine needs a table size")?
        .parse()
        .map_err(|_| "bad table size")?;
    if n < 2 {
        return Err("table needs at least 2 philosophers".to_owned());
    }
    let solution = args.get(1).map(String::as_str).unwrap_or("alternating");
    let steps: u64 = match args.get(2) {
        Some(s) => s.parse().map_err(|_| "bad step count")?,
        None => 50_000,
    };
    let (graph, init, prog, randomized): (SystemGraph, SystemInit, Arc<dyn Program>, bool) =
        match solution {
            "greedy" => {
                let g = topology::philosophers_table(n);
                let i = SystemInit::uniform(&g);
                (g, i, Arc::new(LockOrderPhilosopher::new(3, 2)), false)
            }
            "alternating" => {
                if !n.is_multiple_of(2) {
                    return Err(format!(
                        "the alternating solution needs an even table (got {n}); that is DP' — for odd/prime tables use chandy-misra or lehmann-rabin"
                    ));
                }
                let g = topology::philosophers_alternating(n);
                let i = SystemInit::uniform(&g);
                (g, i, Arc::new(LockOrderPhilosopher::new(3, 2)), false)
            }
            "chandy-misra" => {
                let g = topology::philosophers_table(n);
                let i = chandy_misra_init(&g);
                (g, i, Arc::new(ChandyMisraPhilosopher::new(2, 2)), false)
            }
            "lehmann-rabin" => {
                let g = topology::philosophers_table(n);
                let i = SystemInit::uniform(&g);
                (g, i, Arc::new(LehmannRabinPhilosopher::new(2, 2)), true)
            }
            other => return Err(format!("unknown solution {other:?}")),
        };
    let mut m = Machine::new(Arc::new(graph.clone()), InstructionSet::L, prog, &init)
        .map_err(|e| e.to_string())?;
    if randomized {
        m = m.with_randomness(0xD15E);
    }
    let mut sched = RoundRobin::new();
    let mut excl = ExclusionMonitor::new(&graph);
    let mut meals = MealCounter::new(n);
    let report = run(&mut m, &mut sched, steps, &mut [&mut excl, &mut meals]);
    let mut out = format!("{solution} on a {n}-table for {} steps:\n", report.steps);
    match &report.violation {
        Some(v) => out.push_str(&format!("  VIOLATION: {v}\n")),
        None if meals.total() == 0 => {
            let certified = simsym::vm::is_quiescent(&m);
            out.push_str(&format!(
                "  no violation, but nobody eats ({})\n",
                if certified {
                    "certified deadlock: no step changes any state"
                } else {
                    "starvation"
                }
            ));
        }
        None => out.push_str(&format!(
            "  {} meals, min/philosopher {}, fairness {:.3}\n",
            meals.total(),
            meals.minimum(),
            meals.fairness()
        )),
    }
    out.push_str(&format!("  meals: {:?}\n", meals.meals));
    Ok(out)
}

/// Options for `faults`.
struct FaultsOpts {
    family: String,
    plan: String,
    seed: u64,
    sweep: u64,
    steps: Option<u64>,
    journal: bool,
    json: bool,
}

fn extract_faults_flags(args: &[String]) -> Result<FaultsOpts, String> {
    let f = Flags::read(
        args,
        &[
            ("--family", VALUE),
            ("--plan", VALUE),
            ("--seed", VALUE),
            ("--sweep", Arg::Value("a seed count")),
            ("--steps", VALUE),
            ("--journal", Arg::Switch),
            ("--json", Arg::Switch),
        ],
    )?;
    f.reject_rest("faults")?;
    let sweep = f.parse("--sweep", "sweep count")?.unwrap_or(1);
    if sweep == 0 {
        return Err("--sweep needs at least one seed".into());
    }
    let opts = FaultsOpts {
        family: f
            .value("--family")
            .map(str::to_owned)
            .ok_or("faults needs --family <ring|table|alternating|hypercube>")?,
        plan: f
            .value("--plan")
            .map(str::to_owned)
            .ok_or("faults needs --plan <crash|lossy|starve>")?,
        seed: f.parse("--seed", "seed")?.unwrap_or(0),
        sweep,
        steps: f.parse("--steps", "step count")?,
        journal: f.has("--journal"),
        json: f.has("--json"),
    };
    if opts.journal && opts.plan != "crash" {
        return Err("--journal only applies to --plan crash".into());
    }
    Ok(opts)
}

/// One faulted run in a `faults` sweep: what happened, what was injected,
/// and what the fault-tolerance checker concluded.
struct FaultRunRow {
    scheduler: String,
    seed: u64,
    steps: u64,
    selected: Vec<ProcId>,
    crashed: Vec<ProcId>,
    crashes: usize,
    recoveries: usize,
    replayed: usize,
    dropped: usize,
    duplicated: usize,
    reordered: usize,
    diagnostics: Vec<Diagnostic>,
}

impl FaultRunRow {
    fn new(scheduler: String, seed: u64, steps: u64) -> FaultRunRow {
        FaultRunRow {
            scheduler,
            seed,
            steps,
            selected: Vec::new(),
            crashed: Vec::new(),
            crashes: 0,
            recoveries: 0,
            replayed: 0,
            dropped: 0,
            duplicated: 0,
            reordered: 0,
            diagnostics: Vec::new(),
        }
    }

    fn count_events(&mut self, events: &[FaultEvent]) {
        for ev in events {
            match ev {
                FaultEvent::Crashed { .. } => self.crashes += 1,
                FaultEvent::Recovered { .. } => self.recoveries += 1,
                FaultEvent::Replayed { .. } => self.replayed += 1,
                FaultEvent::MessageDropped { .. } => self.dropped += 1,
                FaultEvent::MessageDuplicated { .. } => self.duplicated += 1,
                FaultEvent::DeliveryReordered { .. } => self.reordered += 1,
                // FaultEvent is non-exhaustive; unknown kinds simply are
                // not tallied.
                _ => {}
            }
        }
    }
}

/// The ingredients every shared-memory fault plan needs, from a marked
/// family: the system, its Q selection program, and the unique leader
/// the labeling designates.
#[allow(clippy::type_complexity)]
fn faults_selection(
    (graph, init): (SystemGraph, SystemInit),
) -> Result<(Arc<SystemGraph>, SystemInit, Arc<dyn Program>, ProcId), String> {
    let leader = *hopcroft_similarity(&graph, &init, Model::Q)
        .uniquely_labeled_processors()
        .first()
        .ok_or("marked family has no uniquely labeled processor")?;
    let prog = selection_program_q(&graph, &init)
        .map_err(|e| e.to_string())?
        .ok_or("marked family admits no selection algorithm in Q")?;
    Ok((Arc::new(graph), init, Arc::new(prog), leader))
}

fn faults_sweep_config(opts: &FaultsOpts, kinds: &[SweepScheduler], max_steps: u64) -> SweepConfig {
    SweepConfig {
        kinds: kinds.to_vec(),
        seeds: (opts.seed..opts.seed + opts.sweep).collect(),
        max_steps,
        threads: 4,
    }
}

/// `simsym faults`: a seeded fault-injection sweep. Exits nonzero when the
/// fault-tolerance checker reports any error-severity finding.
fn faults(args: &[String]) -> Result<CmdOut, String> {
    let opts = extract_faults_flags(args)?;
    let rows = match opts.plan.as_str() {
        "crash" => faults_crash(&opts)?,
        "lossy" => faults_lossy(&opts)?,
        "starve" => faults_starve(&opts)?,
        other => {
            return Err(format!(
                "unknown fault plan {other:?} (have: crash | lossy | starve)"
            ))
        }
    };
    let failed = rows
        .iter()
        .flat_map(|r| &r.diagnostics)
        .any(|d| d.severity == check::Severity::Error);
    let text = if opts.json {
        faults_render_json(&opts, &rows)
    } else {
        faults_render_text(&opts, &rows)
    };
    Ok(CmdOut { text, failed })
}

/// Crash/recovery plan: the Q selection program under seeded crash-stop
/// and crash-recovery faults. The leader is protected; everyone else may
/// crash, and may come back with or without a state reset. Uniqueness
/// must survive (a dead loser cannot un-compete); selection itself need
/// not — crashes make the schedule General, which is the paper's
/// impossibility regime, so `selected` may honestly stay empty.
///
/// With `--journal` the adversary is strictly harder and the bar
/// strictly higher: *every* processor (the leader included — one
/// arbitrary loser is protected so a schedule survives) crashes and
/// recovers by replaying its stable-storage journal, and the checker
/// runs strict, so any selection lost across a reboot is a
/// `DYN-RECOV-STAB` error. The journal is what makes that bar meetable.
fn faults_crash(opts: &FaultsOpts) -> Result<Vec<FaultRunRow>, String> {
    let (graph, init, prog, leader) = faults_selection(marked_family(&opts.family, None)?)?;
    let procs = graph.processor_count();
    let max_steps = opts.steps.unwrap_or(4_000);
    // Crashes land in the first quarter so recoveries (at most one more
    // horizon later) still play out inside the run.
    let horizon = (max_steps / 4).max(1);
    let survivor = ProcId::new((leader.index() + 1) % procs);
    let config = faults_sweep_config(
        opts,
        &[SweepScheduler::RoundRobin, SweepScheduler::RandomFair],
        max_steps,
    );
    Ok(sweep_jobs(&config, |kind, seed| {
        let m = Machine::new(
            Arc::clone(&graph),
            InstructionSet::Q,
            Arc::clone(&prog),
            &init,
        )
        .expect("validated selection machine");
        let (mut f, mut checker) = if opts.journal {
            let plan = FaultPlan::seeded_crash_resets(procs, &[survivor], seed, horizon)
                .with_replay_recoveries();
            (
                Faulty::with_journal(m, plan, LabelLearner::journal_spec()),
                FaultToleranceChecker::strict(),
            )
        } else {
            (
                Faulty::new(
                    m,
                    FaultPlan::seeded_crashes(procs, &[leader], seed, horizon),
                ),
                FaultToleranceChecker::new(),
            )
        };
        let mut sched = FaultSched::new(kind.scheduler::<Faulty<Machine>>(procs, seed));
        let report = engine::run(
            &mut f,
            &mut sched,
            max_steps,
            &mut [&mut checker],
            &mut engine::stop::Never,
        );
        let mut row = FaultRunRow::new(kind.label(), seed, report.steps);
        row.selected = report.selected;
        row.crashed = (0..procs)
            .map(ProcId::new)
            .filter(|&p| f.is_crashed(p))
            .collect();
        row.count_events(f.fault_events());
        row.diagnostics = checker.into_diagnostics();
        row
    }))
}

/// Lossy-channel plan: Chang-Roberts election on a unidirectional message
/// ring whose channels drop, duplicate, and reorder under a seeded policy.
/// Uniqueness must survive; the election token may legitimately be lost,
/// in which case nobody is elected.
fn faults_lossy(opts: &FaultsOpts) -> Result<Vec<FaultRunRow>, String> {
    let n = command_family(&opts.family)?.1;
    let net = Arc::new(MpNetwork::ring_unidirectional(n));
    // Distinct ids with the maximum away from p0, so the winning token
    // has to travel through faulty channels.
    let ids: Vec<Value> = (0..n)
        .map(|i| Value::from(((i + 2) % n + 1) as i64))
        .collect();
    let policy = ChannelFaults::new(10, 15, 20);
    let max_steps = opts.steps.unwrap_or(20_000);
    let config = faults_sweep_config(
        opts,
        &[SweepScheduler::RoundRobin, SweepScheduler::RandomFair],
        max_steps,
    );
    Ok(sweep_jobs(&config, |kind, seed| {
        let mut m = MpMachine::new(Arc::clone(&net), Arc::new(ChangRoberts), &ids)
            .with_channel_faults(policy, seed);
        let mut sched = kind.scheduler::<MpMachine>(n, seed);
        let mut checker = FaultToleranceChecker::new();
        let report = engine::run(
            &mut m,
            &mut sched,
            max_steps,
            &mut [&mut checker],
            &mut engine::stop::AnySelected,
        );
        let mut row = FaultRunRow::new(kind.label(), seed, report.steps);
        row.selected = report.selected;
        row.count_events(m.channel_fault_events());
        row.diagnostics = checker.into_diagnostics();
        row
    }))
}

/// Starvation plan: the k-bounded-fair adversary denies the leader every
/// step it legally can. Because the schedule stays inside the
/// k-bounded-fair class, selection must still complete — this is the
/// boundary Theorem 1's bound draws, probed from the inside.
fn faults_starve(opts: &FaultsOpts) -> Result<Vec<FaultRunRow>, String> {
    let (graph, init, prog, leader) = faults_selection(marked_family(&opts.family, None)?)?;
    let procs = graph.processor_count();
    let max_steps = opts.steps.unwrap_or(20_000);
    let config = faults_sweep_config(opts, &[SweepScheduler::RoundRobin], max_steps);
    Ok(sweep_jobs(&config, |_kind, seed| {
        // k grows with the seed: seed 0 probes the tightest legal window
        // (k = n, the target runs exactly once per n steps).
        let k = procs + seed as usize;
        let m = Machine::new(
            Arc::clone(&graph),
            InstructionSet::Q,
            Arc::clone(&prog),
            &init,
        )
        .expect("validated selection machine");
        let mut f = Faulty::new(m, FaultPlan::none());
        let mut sched = StarveAdversary::new(procs, leader, k);
        let mut checker = FaultToleranceChecker::new();
        let report = engine::run(
            &mut f,
            &mut sched,
            max_steps,
            &mut [&mut checker],
            &mut engine::stop::AnySelected,
        );
        let mut row = FaultRunRow::new(format!("starve(k={k})"), seed, report.steps);
        row.selected = report.selected;
        row.count_events(f.fault_events());
        row.diagnostics = checker.into_diagnostics();
        row
    }))
}

fn faults_violation_counts(rows: &[FaultRunRow]) -> (usize, usize) {
    let count = |code: &str| {
        rows.iter()
            .flat_map(|r| &r.diagnostics)
            .filter(|d| d.code == code)
            .count()
    };
    (
        count(check::diag::codes::DYN_FAULT_UNIQ),
        // A selection lost across a reboot is a Stability violation too —
        // the strict/journaled paths report it as DYN-RECOV-STAB.
        count(check::diag::codes::DYN_FAULT_STAB) + count(check::diag::codes::DYN_RECOV_STAB),
    )
}

/// Renders the `simsym-faults/v1` JSON document. Deterministic: identical
/// invocations are byte-identical.
fn faults_render_json(opts: &FaultsOpts, rows: &[FaultRunRow]) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"simsym-faults/v1\",\n  \"family\": \"{}\",\n  \"plan\": \"{}\",\n  \"runs\": [\n",
        opts.family, opts.plan
    );
    for (i, r) in rows.iter().enumerate() {
        let sel: Vec<String> = r.selected.iter().map(|p| p.index().to_string()).collect();
        let cra: Vec<String> = r.crashed.iter().map(|p| p.index().to_string()).collect();
        let diags: Vec<String> = r.diagnostics.iter().map(|d| d.to_json()).collect();
        out.push_str(&format!(
            "    {{\"scheduler\": \"{}\", \"seed\": {}, \"steps\": {}, \"selected\": [{}], \"crashed\": [{}], \"events\": {{\"crashes\": {}, \"recoveries\": {}, \"replayed\": {}, \"dropped\": {}, \"duplicated\": {}, \"reordered\": {}}}, \"diagnostics\": [{}]}}{}\n",
            r.scheduler,
            r.seed,
            r.steps,
            sel.join(", "),
            cra.join(", "),
            r.crashes,
            r.recoveries,
            r.replayed,
            r.dropped,
            r.duplicated,
            r.reordered,
            diags.join(","),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    let (uniq, stab) = faults_violation_counts(rows);
    let elections = rows.iter().filter(|r| !r.selected.is_empty()).count();
    out.push_str(&format!(
        "  ],\n  \"summary\": {{\"runs\": {}, \"elections\": {}, \"uniqueness_violations\": {}, \"stability_violations\": {}}}\n}}\n",
        rows.len(),
        elections,
        uniq,
        stab
    ));
    out
}

fn faults_render_text(opts: &FaultsOpts, rows: &[FaultRunRow]) -> String {
    let mut out = format!(
        "fault sweep: family={} plan={} seeds {}..{}\n",
        opts.family,
        opts.plan,
        opts.seed,
        opts.seed + opts.sweep
    );
    for r in rows {
        let sel: Vec<String> = r
            .selected
            .iter()
            .map(|p| format!("p{}", p.index()))
            .collect();
        let cra: Vec<String> = r
            .crashed
            .iter()
            .map(|p| format!("p{}", p.index()))
            .collect();
        out.push_str(&format!(
            "  {:<20} seed={:<4} {:>6} steps  selected [{}]  crashed [{}]  crashes={} recoveries={} replayed={} dropped={} duplicated={} reordered={}\n",
            r.scheduler,
            r.seed,
            r.steps,
            sel.join(" "),
            cra.join(" "),
            r.crashes,
            r.recoveries,
            r.replayed,
            r.dropped,
            r.duplicated,
            r.reordered
        ));
        for d in &r.diagnostics {
            out.push_str(&format!("    {d}\n"));
        }
    }
    let (uniq, stab) = faults_violation_counts(rows);
    let elections = rows.iter().filter(|r| !r.selected.is_empty()).count();
    out.push_str(&format!(
        "summary: {} runs, {} elections, {} uniqueness violation(s), {} stability violation(s)\n",
        rows.len(),
        elections,
        uniq,
        stab
    ));
    out
}

/// Options for `soak`.
struct SoakOpts {
    family: String,
    budget: u64,
    seed: u64,
    steps: Option<u64>,
    procs: Option<usize>,
    journal: bool,
    json: bool,
    repro_out: Option<String>,
}

fn extract_soak_flags(args: &[String]) -> Result<SoakOpts, String> {
    let f = Flags::read(
        args,
        &[
            ("--family", VALUE),
            ("--budget", Arg::Value("a run count")),
            ("--seed", VALUE),
            ("--steps", VALUE),
            ("--procs", VALUE),
            ("--journal", Arg::Switch),
            ("--json", Arg::Switch),
            ("--repro-out", Arg::Value("a file")),
        ],
    )?;
    f.reject_rest("soak")?;
    let budget = f.parse("--budget", "budget")?.unwrap_or(200);
    if budget == 0 {
        return Err("--budget needs at least one run".into());
    }
    Ok(SoakOpts {
        family: f
            .value("--family")
            .map(str::to_owned)
            .ok_or("soak needs --family <ring|table|alternating|hypercube>")?,
        budget,
        seed: f.parse("--seed", "seed")?.unwrap_or(0),
        steps: f.parse("--steps", "step count")?,
        procs: f.parse("--procs", "processor count")?,
        journal: f.has("--journal"),
        json: f.has("--json"),
        repro_out: f.value("--repro-out").map(str::to_owned),
    })
}

/// Builds one soak family at an explicit processor count (the shrinker
/// varies it), with p0 structurally marked. Soak keeps a floor of its
/// own above the family table's: at least 3 processors on a ring or
/// table, 4 on an alternating table. Sizes below it, or ones the family
/// cannot take, are plain errors — the shrink oracle treats them as
/// non-reproducing candidates.
fn soak_family(family: &str, procs: usize) -> Result<(SystemGraph, SystemInit), String> {
    let floor = match family {
        "ring" | "table" => 3,
        "alternating" => 4,
        _ => 0,
    };
    if procs < floor {
        return Err(format!(
            "{family} needs at least {floor} processors (got {procs})"
        ));
    }
    marked_family(family, Some(procs))
}

/// One deterministic replay: build `family` at `procs` processors, wrap
/// the Q selection program in `plan` (journaled iff `journal`), drive
/// `schedule` verbatim through a fixed-sequence scheduler — no
/// [`FaultSched`]; a crashed processor's step is a no-op, exactly as in
/// the recorded run — and return the first error-severity code the
/// strict fault-tolerance checker reports (`None` for a clean run).
fn soak_run_fixed(
    family: &str,
    journal: bool,
    procs: usize,
    plan: &FaultPlan,
    schedule: &[ProcId],
) -> Result<Option<String>, String> {
    if schedule.is_empty() {
        return Ok(None);
    }
    if schedule.iter().any(|p| p.index() >= procs) {
        return Err(format!(
            "schedule references a processor out of range (have {procs})"
        ));
    }
    if plan.crashes.iter().any(|c| c.proc.index() >= procs) {
        return Err(format!(
            "fault plan references a processor out of range (have {procs})"
        ));
    }
    if !journal && plan.needs_journal() {
        return Err("fault plan has replay recoveries but journal is off".into());
    }
    let (graph, init) = soak_family(family, procs)?;
    let prog = selection_program_q(&graph, &init)
        .map_err(|e| e.to_string())?
        .ok_or("family admits no selection algorithm in Q")?;
    let m = Machine::new(Arc::new(graph), InstructionSet::Q, Arc::new(prog), &init)
        .map_err(|e| e.to_string())?;
    let mut f = if journal {
        Faulty::with_journal(m, plan.clone(), LabelLearner::journal_spec())
    } else {
        Faulty::new(m, plan.clone())
    };
    let mut sched = FixedSequence::once(schedule.to_vec());
    let mut checker = FaultToleranceChecker::strict();
    let _report = engine::run(
        &mut f,
        &mut sched,
        schedule.len() as u64,
        &mut [&mut checker],
        &mut engine::stop::Never,
    );
    Ok(checker
        .into_diagnostics()
        .iter()
        .find(|d| d.severity == check::Severity::Error)
        .map(|d| d.code.to_owned()))
}

/// One run of the chaos loop: what was injected and what the strict
/// checker concluded. The schedule is kept only for violating runs (it
/// feeds the shrinker); clean runs drop it to keep the sweep cheap.
struct SoakRun {
    scheduler: String,
    seed: u64,
    steps: u64,
    violation: Option<String>,
    plan: FaultPlan,
    schedule: Vec<ProcId>,
}

/// A found-and-shrunk counterexample, ready to render.
struct SoakFound {
    scheduler: String,
    seed: u64,
    steps: u64,
    shrunk: Shrunk,
    artifact: ReproArtifact,
}

/// Everything `soak` concluded, for rendering.
struct SoakOutcome {
    procs: usize,
    runs: usize,
    found: Option<SoakFound>,
    diagnostics: Vec<Diagnostic>,
    failed: bool,
}

/// `simsym soak`: the budgeted chaos loop. Fans randomized crash-reset
/// plans across schedules and seeds through the sweep engine (strict
/// checker); the first violation is delta-debug shrunk and emitted as a
/// replayable `simsym-repro/v1` artifact. Finding a violation is a
/// *successful* soak — the exit code stays zero either way, and CI greps
/// `"violation_found"`; only a shrunk repro that fails to replay to the
/// recorded verdict exits nonzero.
fn soak(args: &[String]) -> Result<CmdOut, String> {
    let opts = extract_soak_flags(args)?;
    let procs = opts.procs.unwrap_or(command_family(&opts.family)?.1);
    let mut diagnostics = Vec::new();

    // Degenerate plans: with one processor (p0 is implicitly protected so
    // a schedule always has someone to run) every seeded fault plan is
    // empty. Flag it instead of silently burning the whole budget on
    // chaos-free runs.
    if FaultPlan::victim_count(procs, &[]) == 0 {
        diagnostics.push(Diagnostic::new(
            check::Severity::Info,
            check::diag::codes::SOAK_DEGENERATE,
            check::Span::none(),
            format!(
                "a {procs}-processor soak has no crashable processor: every seeded \
                 fault plan is empty, so no chaos would be injected"
            ),
        ));
        let outcome = SoakOutcome {
            procs,
            runs: 0,
            found: None,
            diagnostics,
            failed: false,
        };
        return soak_render(&opts, &outcome);
    }

    let (graph, init, prog, leader) = faults_selection(soak_family(&opts.family, procs)?)?;
    // Protect one arbitrary non-leader so a survivor always exists; the
    // leader itself stays crashable — Stability must be attackable, or
    // the soak proves nothing.
    let protect = ProcId::new((leader.index() + 1) % procs);
    let max_steps = opts.steps.unwrap_or(4_000);
    let horizon = (max_steps / 4).max(1);
    let config = SweepConfig {
        kinds: vec![SweepScheduler::RoundRobin, SweepScheduler::RandomFair],
        seeds: (opts.seed..opts.seed + opts.budget.div_ceil(2)).collect(),
        max_steps,
        threads: 4,
    };
    let runs: Vec<SoakRun> = sweep_jobs(&config, |kind, seed| {
        let base = FaultPlan::seeded_crash_resets(procs, &[protect], seed, horizon);
        let plan = if opts.journal {
            base.with_replay_recoveries()
        } else {
            base
        };
        let m = Machine::new(
            Arc::clone(&graph),
            InstructionSet::Q,
            Arc::clone(&prog),
            &init,
        )
        .expect("validated selection machine");
        let mut f = if opts.journal {
            Faulty::with_journal(m, plan.clone(), LabelLearner::journal_spec())
        } else {
            Faulty::new(m, plan.clone())
        };
        let mut sched = FaultSched::new(kind.scheduler::<Faulty<Machine>>(procs, seed));
        let mut recorder = TraceRecorder::new(format!("{}(seed={seed})", kind.label()), "chaos");
        let mut checker = FaultToleranceChecker::strict();
        let report = engine::run(
            &mut f,
            &mut sched,
            max_steps,
            &mut [&mut recorder, &mut checker],
            &mut engine::stop::Never,
        );
        let violation = checker
            .into_diagnostics()
            .iter()
            .find(|d| d.severity == check::Severity::Error)
            .map(|d| d.code.to_owned());
        let schedule = if violation.is_some() {
            recorder.into_trace().schedule()
        } else {
            Vec::new()
        };
        SoakRun {
            scheduler: kind.label(),
            seed,
            steps: report.steps,
            violation,
            plan,
            schedule,
        }
    });
    let total_runs = runs.len();

    let mut failed = false;
    let found = match runs.into_iter().find(|r| r.violation.is_some()) {
        None => None,
        Some(run) => {
            let violation = run.violation.clone().expect("filtered on violation");
            let family = opts.family.clone();
            let journal = opts.journal;
            // The shrink oracle replays candidates deterministically; a
            // candidate the family cannot even build (odd alternating
            // size, too few processors) simply does not reproduce.
            let oracle = |n: usize, plan: &FaultPlan, schedule: &[ProcId]| {
                soak_run_fixed(&family, journal, n, plan, schedule)
                    .ok()
                    .flatten()
            };
            let shrunk =
                shrink_counterexample(procs, run.plan.clone(), run.schedule, &violation, oracle);
            let artifact = ReproArtifact {
                family: opts.family.clone(),
                procs: shrunk.procs,
                seed: run.seed,
                journal,
                violation: violation.clone(),
                plan: shrunk.plan.clone(),
                schedule: shrunk.schedule.clone(),
            };
            // Close the loop before shipping the artifact anywhere: it
            // must replay to the recorded verdict.
            let verdict = soak_run_fixed(
                &opts.family,
                journal,
                artifact.procs,
                &artifact.plan,
                &artifact.schedule,
            )?;
            if verdict.as_deref() != Some(violation.as_str()) {
                diagnostics.push(Diagnostic::new(
                    check::Severity::Error,
                    check::diag::codes::SOAK_REPLAY_DIVERGED,
                    check::Span::none(),
                    format!(
                        "shrunk counterexample replayed to {} instead of {}",
                        verdict.as_deref().unwrap_or("a clean run"),
                        violation
                    ),
                ));
                failed = true;
            }
            if let Some(path) = &opts.repro_out {
                std::fs::write(path, format!("{}\n", artifact.to_json()))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
            Some(SoakFound {
                scheduler: run.scheduler,
                seed: run.seed,
                steps: run.steps,
                shrunk,
                artifact,
            })
        }
    };
    let outcome = SoakOutcome {
        procs,
        runs: total_runs,
        found,
        diagnostics,
        failed,
    };
    soak_render(&opts, &outcome)
}

fn soak_render(opts: &SoakOpts, outcome: &SoakOutcome) -> Result<CmdOut, String> {
    let text = if opts.json {
        soak_render_json(opts, outcome)
    } else {
        soak_render_text(opts, outcome)
    };
    Ok(CmdOut {
        text,
        failed: outcome.failed,
    })
}

/// Renders the `simsym-soak/v1` JSON document. Deterministic: identical
/// invocations are byte-identical.
fn soak_render_json(opts: &SoakOpts, o: &SoakOutcome) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"simsym-soak/v1\",\n  \"family\": \"{}\",\n  \"procs\": {},\n  \"journal\": {},\n  \"budget\": {},\n  \"runs\": {},\n  \"violation_found\": {},\n",
        opts.family,
        o.procs,
        opts.journal,
        opts.budget,
        o.runs,
        o.found.is_some()
    );
    match &o.found {
        Some(f) => {
            let s = &f.shrunk.stats;
            out.push_str(&format!(
                "  \"violation\": \"{}\",\n  \"found_at\": {{\"scheduler\": \"{}\", \"seed\": {}, \"steps\": {}}},\n",
                f.artifact.violation, f.scheduler, f.seed, f.steps
            ));
            out.push_str(&format!(
                "  \"shrink\": {{\"candidates\": {}, \"crashes_before\": {}, \"crashes_after\": {}, \"steps_before\": {}, \"steps_after\": {}, \"procs_before\": {}, \"procs_after\": {}}},\n",
                s.candidates,
                s.crashes_before,
                s.crashes_after,
                s.steps_before,
                s.steps_after,
                s.procs_before,
                s.procs_after
            ));
            out.push_str(&format!("  \"repro\": {},\n", f.artifact.to_json()));
        }
        None => out.push_str(
            "  \"violation\": null,\n  \"found_at\": null,\n  \"shrink\": null,\n  \"repro\": null,\n",
        ),
    }
    let diags: Vec<String> = o.diagnostics.iter().map(|d| d.to_json()).collect();
    out.push_str(&format!("  \"diagnostics\": [{}]\n}}\n", diags.join(",")));
    out
}

fn soak_render_text(opts: &SoakOpts, o: &SoakOutcome) -> String {
    let mut out = format!(
        "soak: family={} procs={} journal={} budget={} ({} runs)\n",
        opts.family, o.procs, opts.journal, opts.budget, o.runs
    );
    match &o.found {
        Some(f) => {
            let s = &f.shrunk.stats;
            out.push_str(&format!(
                "  violation {} found by {} (seed {}, {} steps)\n",
                f.artifact.violation, f.scheduler, f.seed, f.steps
            ));
            out.push_str(&format!(
                "  shrunk in {} candidate replays: crashes {} -> {}, schedule {} -> {}, processors {} -> {}\n",
                s.candidates,
                s.crashes_before,
                s.crashes_after,
                s.steps_before,
                s.steps_after,
                s.procs_before,
                s.procs_after
            ));
            out.push_str(&format!("  repro: {}\n", f.artifact.to_json()));
        }
        None => out.push_str("  no violation found within budget\n"),
    }
    for d in &o.diagnostics {
        out.push_str(&format!("    {d}\n"));
    }
    out
}

/// Options for `bench`.
struct BenchOpts {
    json: bool,
    quick: bool,
    against: Option<String>,
}

fn extract_bench_flags(args: &[String]) -> Result<BenchOpts, String> {
    let f = Flags::read(
        args,
        &[
            ("--json", Arg::Switch),
            ("--quick", Arg::Switch),
            ("--against", Arg::Value("a file")),
        ],
    )?;
    f.reject_rest("bench")?;
    Ok(BenchOpts {
        json: f.has("--json"),
        quick: f.has("--quick"),
        against: f.value("--against").map(str::to_owned),
    })
}

/// One steps/second measurement: a fixed round-robin step budget on a
/// fixed machine, mirroring `benches/step_throughput.rs`.
struct ThroughputRow {
    family: &'static str,
    n: usize,
    isa: &'static str,
    steps: u64,
    nanos: u128,
}

/// One scale-tier measurement: a CSR-backed ring built through
/// `SystemGraph::from_fn`, timed for construction, run under the budgeted
/// Q diffusion workload, and costed in bytes per processor (adjacency plus
/// machine state). The 10^6 tier constructs and reports memory only —
/// `steps == 0` — so the suite stays inside a CI wall-clock budget.
struct ScaleRow {
    family: &'static str,
    n: usize,
    construct_nanos: u128,
    steps: u64,
    nanos: u128,
    bytes_per_processor: usize,
}

/// Builds the `n`-processor scale ring, runs `steps` round-robin steps of
/// the budgeted Q workload (skipped when `steps == 0`), and reports the
/// row. Construction is timed separately from stepping so the row shows
/// both "how fast does the 10^5 tier build" and "how fast does it run".
fn scale_row(family: &'static str, n: usize, steps: u64, reps: u32) -> Result<ScaleRow, String> {
    let mut built = None;
    let construct_nanos = time_min(
        || {
            let sys = simsym::core::scale_ring(n);
            let m = Machine::new(
                Arc::new(sys.graph),
                InstructionSet::Q,
                Arc::new(simsym::core::ScaleWorkload::new(2)),
                &sys.init,
            );
            built = Some(m);
        },
        1,
    );
    let m = built
        .expect("timed at least once")
        .map_err(|e| e.to_string())?;
    let nanos = if steps == 0 {
        1
    } else {
        time_steps(&m, steps, reps)
    };
    let bytes = m.graph().approx_bytes() + m.approx_state_bytes();
    Ok(ScaleRow {
        family,
        n,
        construct_nanos,
        steps,
        nanos,
        bytes_per_processor: bytes / n,
    })
}

/// One labeling-time measurement on a marked ring.
struct LabelingRow {
    n: usize,
    algorithm: &'static str,
    nanos: u128,
}

/// One reduction-aware exploration measurement: states visited and
/// wall-clock for one `(family, reduce)` pair under a fixed budget.
struct ExploreRow {
    family: &'static str,
    n: usize,
    reduce: &'static str,
    states_canonical: usize,
    states_seen: usize,
    nanos: u128,
}

/// One static-lint measurement: wall-clock for the full dataflow
/// analysis suite over one family's learner machine — zero VM steps.
struct StaticLintRow {
    family: &'static str,
    n: usize,
    nanos: u128,
}

/// One static-vs-probe interference measurement: the POR exploration of
/// one family under each interference source.
struct StaticInterferenceRow {
    family: &'static str,
    n: usize,
    interference: &'static str,
    states_canonical: usize,
    states_seen: usize,
    nanos: u128,
}

/// The zero-fault overhead measurement: the same machine and step budget
/// timed bare, through the fault layer with an empty plan, and through
/// the fault layer with an empty plan *plus* an active journal.
struct OverheadRow {
    steps: u64,
    plain_nanos: u128,
    faulted_nanos: u128,
    journaled_nanos: u128,
}

impl OverheadRow {
    /// Signed integer overhead percent. A (noise-induced) faster faulted
    /// run renders as a negative percent instead of silently clamping to
    /// zero; [`bench_schema_skeleton`] strips a numeric `-` along with
    /// the digits it signs, so the sign never reads as schema drift.
    fn percent(&self) -> i128 {
        (self.faulted_nanos as i128 - self.plain_nanos as i128) * 100 / self.plain_nanos as i128
    }

    /// What journaling costs on top of the fault layer itself: journaled
    /// vs faulted, so the number isolates the write-ahead log from the
    /// `Faulty`/`FaultSched` wrapping already priced by [`Self::percent`].
    fn journal_percent(&self) -> i128 {
        (self.journaled_nanos as i128 - self.faulted_nanos as i128) * 100
            / self.faulted_nanos as i128
    }
}

/// Best-of-`reps` wall-clock nanos for one closure call (min suppresses
/// scheduler noise; clamped to 1 so steps/sec never divides by zero).
fn time_min<R, F: FnMut() -> R>(mut f: F, reps: u32) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        let out = f();
        best = best.min(t.elapsed().as_nanos());
        std::hint::black_box(&out);
    }
    best.max(1)
}

/// Best-of-`reps` nanos to run `steps` round-robin steps from `base`.
/// The per-rep machine clone happens *outside* the timed window — the
/// number is steps/second of the VM, not of `Machine::clone`.
fn time_steps(base: &Machine, steps: u64, reps: u32) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let mut m = base.clone();
        let mut sched = RoundRobin::new();
        let t = std::time::Instant::now();
        let report = run(&mut m, &mut sched, steps, &mut []);
        best = best.min(t.elapsed().as_nanos());
        std::hint::black_box(report.steps);
    }
    best.max(1)
}

/// Like [`time_steps`], but driven through the fault layer with an empty
/// plan: `Faulty` wraps the machine, `FaultSched` wraps the scheduler.
/// The delta against [`time_steps`] is what fault injection costs a run
/// that injects nothing.
fn time_steps_faulted(base: &Machine, steps: u64, reps: u32) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let mut f = Faulty::new(base.clone(), FaultPlan::none());
        let mut sched = FaultSched::new(RoundRobin::new());
        let t = std::time::Instant::now();
        let report = run(&mut f, &mut sched, steps, &mut []);
        best = best.min(t.elapsed().as_nanos());
        std::hint::black_box(report.steps);
    }
    best.max(1)
}

/// Like [`time_steps_faulted`], but with the stable-storage journal
/// active: every tracked-register write is journaled and fsynced at the
/// modeled boundary, even though the empty plan never crashes anyone.
/// The delta against [`time_steps_faulted`] is the journaling cost.
fn time_steps_journaled(base: &Machine, steps: u64, reps: u32) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let mut f = Faulty::with_journal(
            base.clone(),
            FaultPlan::none(),
            LabelLearner::journal_spec(),
        );
        let mut sched = FaultSched::new(RoundRobin::new());
        let t = std::time::Instant::now();
        let report = run(&mut f, &mut sched, steps, &mut []);
        best = best.min(t.elapsed().as_nanos());
        std::hint::black_box(report.steps);
    }
    best.max(1)
}

fn bench(args: &[String]) -> Result<CmdOut, String> {
    let opts = extract_bench_flags(args)?;
    // --quick shrinks budgets and repetitions, never the entry list: the
    // emitted schema must match full mode so CI can diff against the
    // committed BENCH_pr3.json.
    let div = if opts.quick { 10 } else { 1 };
    let reps = if opts.quick { 1 } else { 3 };

    let mut throughput = Vec::new();
    for (family, graph, steps) in [
        ("ring", topology::uniform_ring(64), 320u64),
        ("marked-ring", topology::marked_ring(64), 10_000),
        ("hypercube", topology::hypercube(6), 320),
    ] {
        let init = SystemInit::uniform(&graph);
        let labeling = hopcroft_similarity(&graph, &init, Model::Q);
        let learner = LabelLearner::new(&graph, &init, &labeling).map_err(|e| e.to_string())?;
        let m = Machine::new(Arc::new(graph), InstructionSet::Q, Arc::new(learner), &init)
            .map_err(|e| e.to_string())?;
        let steps = steps / div;
        throughput.push(ThroughputRow {
            family,
            n: 64,
            isa: "Q",
            steps,
            nanos: time_steps(&m, steps, reps),
        });
    }

    let graph = topology::philosophers_alternating(64);
    let init = SystemInit::uniform(&graph);
    let prog: Arc<dyn Program> = Arc::new(LockOrderPhilosopher::new(3, 2));
    let m =
        Machine::new(Arc::new(graph), InstructionSet::L, prog, &init).map_err(|e| e.to_string())?;
    let steps = 20_000 / div;
    throughput.push(ThroughputRow {
        family: "alternating",
        n: 64,
        isa: "L",
        steps,
        nanos: time_steps(&m, steps, reps),
    });

    let graph = topology::philosophers_table(64);
    let init = chandy_misra_init(&graph);
    let prog: Arc<dyn Program> = Arc::new(ChandyMisraPhilosopher::new(2, 2));
    let m =
        Machine::new(Arc::new(graph), InstructionSet::L, prog, &init).map_err(|e| e.to_string())?;
    throughput.push(ThroughputRow {
        family: "table",
        n: 64,
        isa: "L",
        steps,
        nanos: time_steps(&m, steps, reps),
    });

    // Scale tier: CSR construction plus the budgeted Q diffusion workload
    // at 10^2–10^6 processors. The 10^6 row constructs and reports bytes
    // per processor only (steps = 0) — what a 1-CPU CI container can
    // afford — while 10^5 actually runs.
    let mut scale_rows = Vec::new();
    for (n, steps) in [
        (64usize, 20_000u64),
        (4096, 20_000),
        (100_000, 300_000),
        (1_000_000, 0),
    ] {
        scale_rows.push(scale_row("scale-ring", n, steps / div, reps)?);
    }

    let mut labeling = Vec::new();
    let lreps = if opts.quick { 1 } else { 2 };
    for n in [64usize, 256, 1024] {
        let graph = topology::marked_ring(n);
        let init = SystemInit::uniform(&graph);
        labeling.push(LabelingRow {
            n,
            algorithm: "naive",
            nanos: time_min(|| refinement_similarity(&graph, &init, Model::Q), lreps),
        });
        labeling.push(LabelingRow {
            n,
            algorithm: "hopcroft",
            nanos: time_min(|| hopcroft_similarity(&graph, &init, Model::Q), lreps),
        });
    }
    // The naive refiner is quadratic-plus on a fully-splitting ring, so
    // 4096 is hopcroft-only — the point of the entry is that the
    // index-vector refiner still finishes comfortably there.
    let graph = topology::marked_ring(4096);
    let init = SystemInit::uniform(&graph);
    labeling.push(LabelingRow {
        n: 4096,
        algorithm: "hopcroft",
        nanos: time_min(|| hopcroft_similarity(&graph, &init, Model::Q), 1),
    });

    // Reduction-aware exploration: states visited and wall-clock for each
    // reduce mode on the marked ring (rigid, so POR does the work) and the
    // uniform table (|Aut| = n, so the quotient does). The timed window
    // includes building the reducer — the automorphism search is part of
    // what a verify run costs.
    let mut explore_rows = Vec::new();
    let mut interference_rows = Vec::new();
    let ecfg = ExploreConfig {
        max_depth: if opts.quick { 8 } else { 12 },
        max_states: 30_000 / div as usize,
        threads: 1,
    };
    for (family, graph) in [
        ("marked-ring", topology::marked_ring(4)),
        ("table", topology::philosophers_table(4)),
    ] {
        let init = SystemInit::uniform(&graph);
        let graph = Arc::new(graph);
        let program = selection_or_learner(&graph, &init)?;
        let machine = Machine::new(Arc::clone(&graph), InstructionSet::Q, program, &init)
            .map_err(|e| e.to_string())?;
        for mode in Reduction::ALL {
            let mut result = None;
            let nanos = time_min(
                || result = Some(check_exploration(&machine, &init, ecfg, mode).0),
                reps,
            );
            let result = result.expect("timed at least once");
            explore_rows.push(ExploreRow {
                family,
                n: graph.processor_count(),
                reduce: mode.label(),
                states_canonical: result.states_visited,
                states_seen: result.states_seen,
                nanos,
            });
        }

        // Static vs probe interference under plain POR on the same
        // machine — what `verify --interference` trades.
        let footprints = check::machine_footprints(&machine)?;
        for interference in [Interference::Probe, Interference::Static] {
            let mut result = None;
            let nanos = time_min(
                || {
                    result = Some(match interference {
                        Interference::Probe => {
                            check_exploration(&machine, &init, ecfg, Reduction::Por).0
                        }
                        Interference::Static => {
                            check_exploration_static(
                                &machine,
                                &init,
                                ecfg,
                                Reduction::Por,
                                &footprints,
                            )
                            .0
                        }
                    })
                },
                reps,
            );
            let result = result.expect("timed at least once");
            interference_rows.push(StaticInterferenceRow {
                family,
                n: graph.processor_count(),
                interference: interference.label(),
                states_canonical: result.states_visited,
                states_seen: result.states_seen,
                nanos,
            });
        }
    }

    // Static lint wall-clock per family: the full dataflow suite over
    // the learner machine, zero VM steps. The contract is "cheap" —
    // well under the 100ms/family budget the docs promise.
    let mut static_lint_rows = Vec::new();
    for (family, graph) in [
        ("ring", topology::uniform_ring(64)),
        ("marked-ring", topology::marked_ring(64)),
        ("table", topology::philosophers_table(64)),
        ("alternating", topology::philosophers_alternating(64)),
        ("hypercube", topology::hypercube(6)),
    ] {
        let init = SystemInit::uniform(&graph);
        let theta = hopcroft_similarity(&graph, &init, Model::Q);
        let learner = LabelLearner::new(&graph, &init, &theta).map_err(|e| e.to_string())?;
        let m = Machine::new(Arc::new(graph), InstructionSet::Q, Arc::new(learner), &init)
            .map_err(|e| e.to_string())?;
        let nanos = time_min(|| check::analyze_machine(&m, &init), reps);
        static_lint_rows.push(StaticLintRow {
            family,
            n: 64,
            nanos,
        });
    }

    // Zero-fault overhead: the marked-ring learner again, bare vs driven
    // through `Faulty` + `FaultSched` with an empty plan. The fault layer
    // must be (near) free when it injects nothing.
    let graph = topology::marked_ring(64);
    let init = SystemInit::uniform(&graph);
    let labeling_q = hopcroft_similarity(&graph, &init, Model::Q);
    let learner = LabelLearner::new(&graph, &init, &labeling_q).map_err(|e| e.to_string())?;
    let m = Machine::new(Arc::new(graph), InstructionSet::Q, Arc::new(learner), &init)
        .map_err(|e| e.to_string())?;
    let osteps = 10_000 / div;
    let oreps = if opts.quick { 1 } else { 5 };
    let overhead = OverheadRow {
        steps: osteps,
        plain_nanos: time_steps(&m, osteps, oreps),
        faulted_nanos: time_steps_faulted(&m, osteps, oreps),
        journaled_nanos: time_steps_journaled(&m, osteps, oreps),
    };

    let json = bench_render_json(
        &throughput,
        &scale_rows,
        &labeling,
        &explore_rows,
        &static_lint_rows,
        &interference_rows,
        &overhead,
    );
    if let Some(path) = &opts.against {
        let expected =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let (want, got) = (
            bench_schema_skeleton(&expected),
            bench_schema_skeleton(&json),
        );
        if want != got {
            return Ok(CmdOut {
                text: format!(
                    "bench schema drift against {path}\n  expected skeleton: {want}\n  emitted skeleton:  {got}\n"
                ),
                failed: true,
            });
        }
    }
    if opts.json {
        ok(json)
    } else {
        ok(bench_render_text(
            &throughput,
            &scale_rows,
            &labeling,
            &explore_rows,
            &static_lint_rows,
            &interference_rows,
            &overhead,
            &opts,
        ))
    }
}

/// Renders the BENCH_pr3.json document. All numbers are integers so the
/// schema skeleton (everything but digit runs) is byte-stable across
/// hosts and runs.
#[allow(clippy::too_many_arguments)]
fn bench_render_json(
    throughput: &[ThroughputRow],
    scale: &[ScaleRow],
    labeling: &[LabelingRow],
    explore: &[ExploreRow],
    static_lint: &[StaticLintRow],
    interference: &[StaticInterferenceRow],
    overhead: &OverheadRow,
) -> String {
    let mut out = String::from("{\n  \"schema\": \"simsym-bench/v1\",\n  \"step_throughput\": [\n");
    for (i, r) in throughput.iter().enumerate() {
        let sps = (r.steps as u128) * 1_000_000_000 / r.nanos;
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"isa\": \"{}\", \"steps\": {}, \"nanos\": {}, \"steps_per_sec\": {}}}{}\n",
            r.family,
            r.n,
            r.isa,
            r.steps,
            r.nanos,
            sps,
            if i + 1 < throughput.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"scale_tier\": [\n");
    for (i, r) in scale.iter().enumerate() {
        let sps = if r.steps == 0 {
            0
        } else {
            (r.steps as u128) * 1_000_000_000 / r.nanos
        };
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"isa\": \"Q\", \"construct_nanos\": {}, \"steps\": {}, \"nanos\": {}, \"steps_per_sec\": {}, \"bytes_per_processor\": {}}}{}\n",
            r.family,
            r.n,
            r.construct_nanos,
            r.steps,
            r.nanos,
            sps,
            r.bytes_per_processor,
            if i + 1 < scale.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"labeling\": [\n");
    for (i, r) in labeling.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"marked-ring\", \"n\": {}, \"algorithm\": \"{}\", \"nanos\": {}}}{}\n",
            r.n,
            r.algorithm,
            r.nanos,
            if i + 1 < labeling.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"explore_reduction\": [\n");
    for (i, r) in explore.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"reduce\": \"{}\", \"states_canonical\": {}, \"states_seen\": {}, \"nanos\": {}}}{}\n",
            r.family,
            r.n,
            r.reduce,
            r.states_canonical,
            r.states_seen,
            r.nanos,
            if i + 1 < explore.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"static_lint\": [\n");
    for (i, r) in static_lint.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"nanos\": {}}}{}\n",
            r.family,
            r.n,
            r.nanos,
            if i + 1 < static_lint.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"verify_static_interference\": [\n");
    for (i, r) in interference.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"interference\": \"{}\", \"states_canonical\": {}, \"states_seen\": {}, \"nanos\": {}}}{}\n",
            r.family,
            r.n,
            r.interference,
            r.states_canonical,
            r.states_seen,
            r.nanos,
            if i + 1 < interference.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"faults_overhead\": {{\"family\": \"marked-ring\", \"n\": 64, \"isa\": \"Q\", \"steps\": {}, \"plain_nanos\": {}, \"faulted_nanos\": {}, \"overhead_percent\": {}}},\n",
        overhead.steps,
        overhead.plain_nanos,
        overhead.faulted_nanos,
        overhead.percent()
    ));
    out.push_str(&format!(
        "  \"journal_overhead\": {{\"family\": \"marked-ring\", \"n\": 64, \"isa\": \"Q\", \"steps\": {}, \"faulted_nanos\": {}, \"journaled_nanos\": {}, \"overhead_percent\": {}}}\n}}\n",
        overhead.steps,
        overhead.faulted_nanos,
        overhead.journaled_nanos,
        overhead.journal_percent()
    ));
    out
}

#[allow(clippy::too_many_arguments)]
fn bench_render_text(
    throughput: &[ThroughputRow],
    scale: &[ScaleRow],
    labeling: &[LabelingRow],
    explore: &[ExploreRow],
    static_lint: &[StaticLintRow],
    interference: &[StaticInterferenceRow],
    overhead: &OverheadRow,
    opts: &BenchOpts,
) -> String {
    let mut out = format!(
        "step throughput (round-robin{}):\n",
        if opts.quick { ", quick" } else { "" }
    );
    for r in throughput {
        let sps = (r.steps as u128) * 1_000_000_000 / r.nanos;
        out.push_str(&format!(
            "  {:<12} n={:<5} {}  {:>7} steps in {:>12} ns  ({} steps/s)\n",
            r.family, r.n, r.isa, r.steps, r.nanos, sps
        ));
    }
    out.push_str("scale tier (CSR from_fn construction + budgeted Q diffusion):\n");
    for r in scale {
        let rate = if r.steps == 0 {
            "construct-only".to_owned()
        } else {
            format!("{} steps/s", (r.steps as u128) * 1_000_000_000 / r.nanos)
        };
        out.push_str(&format!(
            "  {:<12} n={:<8} built in {:>12} ns  {:<16} {:>5} bytes/processor\n",
            r.family, r.n, r.construct_nanos, rate, r.bytes_per_processor
        ));
    }
    out.push_str("labeling time (marked-ring):\n");
    for r in labeling {
        out.push_str(&format!(
            "  n={:<5} {:<9} {:>12} ns\n",
            r.n, r.algorithm, r.nanos
        ));
    }
    out.push_str("reduction-aware exploration (selection programs, bounded DFS):\n");
    for r in explore {
        out.push_str(&format!(
            "  {:<12} n={:<3} reduce={:<9} {:>7} canonical states ({:>8} arrivals) in {:>12} ns\n",
            r.family, r.n, r.reduce, r.states_canonical, r.states_seen, r.nanos
        ));
    }
    for family in ["marked-ring", "table"] {
        let states = |mode: &str| {
            explore
                .iter()
                .find(|r| r.family == family && r.reduce == mode)
                .map(|r| r.states_canonical)
        };
        if let (Some(none), Some(both)) = (states("none"), states("both")) {
            let x100 = none * 100 / both.max(1);
            out.push_str(&format!(
                "  {:<12} reduction factor {}.{:02}x (none vs both)\n",
                family,
                x100 / 100,
                x100 % 100
            ));
        }
    }
    out.push_str("static lint (dataflow suite over the learner spec, zero VM steps):\n");
    for r in static_lint {
        out.push_str(&format!(
            "  {:<12} n={:<3} {:>12} ns\n",
            r.family, r.n, r.nanos
        ));
    }
    out.push_str("static vs probe interference (reduce=por, bounded DFS):\n");
    for r in interference {
        let sps = (r.states_canonical as u128) * 1_000_000_000 / r.nanos;
        out.push_str(&format!(
            "  {:<12} n={:<3} intf={:<7} {:>7} canonical states ({:>8} arrivals) in {:>12} ns  ({} states/s)\n",
            r.family, r.n, r.interference, r.states_canonical, r.states_seen, r.nanos, sps
        ));
    }
    out.push_str(&format!(
        "zero-fault overhead (marked-ring n=64, {} steps, empty plan):\n  plain     {:>12} ns\n  faulted   {:>12} ns  ({:+}%)\n  journaled {:>12} ns  ({:+}% over faulted)\n",
        overhead.steps,
        overhead.plain_nanos,
        overhead.faulted_nanos,
        overhead.percent(),
        overhead.journaled_nanos,
        overhead.journal_percent()
    ));
    if opts.against.is_some() {
        out.push_str("schema matches baseline\n");
    }
    out
}

/// Collapses a bench JSON document to its schema skeleton: digits,
/// numeric minus signs, and whitespace outside string literals are
/// dropped, so two documents compare equal iff they share keys, labels,
/// and shape — numbers (including their sign, so an overhead percent can
/// flip negative under timer noise) are ignored, which is exactly the CI
/// smoke contract.
fn bench_schema_skeleton(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut in_string = false;
    let mut escaped = false;
    let mut chars = json.chars().peekable();
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
            out.push(c);
        } else if c == '-' && chars.peek().is_some_and(char::is_ascii_digit) {
            // The sign of a number: dropped with the digits it signs.
        } else if !c.is_ascii_digit() && !c.is_whitespace() {
            out.push(c);
        }
    }
    out
}

/// The farm's [`JobRunner`]: routes job argv straight back through
/// [`dispatch`], so a served artifact is byte-identical to what the
/// batch CLI prints for the same arguments — by construction, not by
/// parallel maintenance of two render paths.
struct DispatchRunner;

impl JobRunner for DispatchRunner {
    fn run(&self, argv: &[String]) -> Result<JobOutput, String> {
        dispatch(argv).map(|out| JobOutput {
            document: out.text,
            failed: out.failed,
        })
    }
}

/// `simsym serve [--addr HOST:PORT] [--workers N] [--queue N]
/// [--state-dir DIR] [--default-deadline-ms N]` — runs the farm until a
/// client posts `/shutdown`, then prints the lifetime summary. The
/// banner (and the journal-recovery report) goes to stderr so stdout
/// stays a clean document channel.
fn serve(args: &[String]) -> Result<CmdOut, String> {
    let f = Flags::read(
        args,
        &[
            ("--addr", VALUE),
            ("--workers", VALUE),
            ("--queue", VALUE),
            ("--state-dir", VALUE),
            ("--default-deadline-ms", VALUE),
        ],
    )?;
    if let Some(extra) = f.rest().first() {
        return Err(format!("serve does not take {extra:?}"));
    }
    let mut config = ServeConfig::default();
    if let Some(addr) = f.value("--addr").map(str::to_owned) {
        config.addr = addr;
    }
    if let Some(w) = f.count("--workers")? {
        config.workers = w;
    }
    if let Some(q) = f.count("--queue")? {
        config.queue_capacity = q;
    }
    config.state_dir = f.value("--state-dir").map(str::to_owned);
    if let Some(d) = f.count("--default-deadline-ms")? {
        config.default_deadline_ms = Some(d as u64);
    }
    let workers = config.workers;
    let journaled = config.state_dir.is_some();
    let server = Server::bind(config, Arc::new(DispatchRunner))?;
    eprintln!(
        "simsym serve: listening on {} ({} worker{}); POST /shutdown to drain",
        server.local_addr(),
        workers,
        if workers == 1 { "" } else { "s" }
    );
    if journaled {
        let (requeued, artifacts) = server.recovery();
        eprintln!(
            "simsym serve: journal replayed: recovered {artifacts} finished artifact(s), requeued {requeued} unfinished job(s)"
        );
    }
    let summary = server.run()?;
    ok(format!(
        "{{\"schema\": \"simsym-serve/v1\", \"completed\": {}, \"cache_hits\": {}, \"rejected\": {}, \"retried\": {}, \"panicked\": {}, \"deadlines\": {}, \"cancelled\": {}, \"recovered\": {}}}\n",
        summary.completed,
        summary.cache_hits,
        summary.rejected,
        summary.retried,
        summary.panicked,
        summary.deadlines,
        summary.cancelled,
        summary.recovered
    ))
}

/// `simsym submit [--addr HOST:PORT] [--watch] [--deadline-ms N]
/// <job.json | - | {...}>` — posts one job spec, optionally streams its
/// NDJSON events, and prints the final document. `--deadline-ms` is
/// injected into the spec's `deadline_ms` field (an execution budget
/// that stays out of the job's cache key). Exits nonzero when the
/// job's run failed.
fn submit(args: &[String]) -> Result<CmdOut, String> {
    let f = Flags::read(
        args,
        &[
            ("--addr", VALUE),
            ("--deadline-ms", VALUE),
            ("--watch", Arg::Switch),
        ],
    )?;
    let addr = f
        .value("--addr")
        .map(str::to_owned)
        .unwrap_or_else(|| ServeConfig::default().addr);
    let source = match f.rest() {
        [] => return Err("submit needs a job spec: a file, '-' for stdin, or inline JSON".into()),
        [source] => source.clone(),
        [_, extra, ..] => return Err(format!("submit takes one job spec (extra: {extra:?})")),
    };
    let spec_text = if source == "-" {
        let mut buf = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
            .map_err(|e| format!("cannot read job spec from stdin: {e}"))?;
        buf
    } else if source.trim_start().starts_with('{') {
        source
    } else {
        std::fs::read_to_string(&source)
            .map_err(|e| format!("cannot read job spec {source:?}: {e}"))?
    };
    let spec_text = match f.count("--deadline-ms")? {
        Some(ms) => {
            let ms = i64::try_from(ms).map_err(|_| "--deadline-ms is out of range".to_owned())?;
            simsym::serve::spec::set_field(
                &spec_text,
                "deadline_ms",
                simsym::serve::spec::SpecValue::Int(ms),
            )?
        }
        None => spec_text,
    };
    let submitted = serve_client::submit_job(&addr, &spec_text)?;
    let mut text = format!(
        "{{\"schema\": \"simsym-serve/v1\", \"job\": {}, \"cache\": \"{}\"}}\n",
        submitted.job, submitted.cache
    );
    if f.has("--watch") {
        serve_client::watch_events(&addr, submitted.job, |line| {
            text.push_str(line);
            text.push('\n');
        })?;
    }
    let result = serve_client::fetch_result(&addr, submitted.job)?;
    text.push_str(&result.document);
    Ok(CmdOut {
        text,
        failed: result.failed,
    })
}

/// `simsym shutdown [--addr HOST:PORT]` — asks the farm to drain.
fn shutdown(args: &[String]) -> Result<CmdOut, String> {
    let f = Flags::read(args, &[("--addr", VALUE)])?;
    if let Some(extra) = f.rest().first() {
        return Err(format!("shutdown does not take {extra:?}"));
    }
    let addr = f
        .value("--addr")
        .map(str::to_owned)
        .unwrap_or_else(|| ServeConfig::default().addr);
    serve_client::shutdown(&addr).and_then(ok)
}

/// `simsym cancel [--addr HOST:PORT] <job-id>` — cancels a farm job:
/// dequeues it while queued, or raises its cooperative cancellation
/// token so the worker stops at the next sweep-job boundary.
fn cancel(args: &[String]) -> Result<CmdOut, String> {
    let f = Flags::read(args, &[("--addr", VALUE)])?;
    let addr = f
        .value("--addr")
        .map(str::to_owned)
        .unwrap_or_else(|| ServeConfig::default().addr);
    let [id] = f.rest() else {
        return Err("cancel takes exactly one job id".into());
    };
    let id: u64 = id
        .parse()
        .map_err(|_| format!("cancel needs a numeric job id (got {id:?})"))?;
    serve_client::cancel_job(&addr, id).and_then(ok)
}

/// Hidden `panic` command: the farm's panic-isolation test fixture (the
/// `{"kind": "panic"}` job spec routes here). It accepts the canonical
/// argv the spec produces and then panics on purpose, proving a worker
/// panic is caught, retried once, and reported — never fatal to the farm.
fn panic_fixture(args: &[String]) -> Result<CmdOut, String> {
    let f = Flags::read(args, &[("--seed", VALUE), ("--json", Arg::Switch)])?;
    if let Some(extra) = f.rest().first() {
        return Err(format!("panic does not take {extra:?}"));
    }
    let seed = f.value("--seed").unwrap_or("0");
    panic!("panic fixture: deliberate panic (seed {seed})");
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsym::vm::engine::trace::ScheduleTrace;

    fn call_full(args: &[&str]) -> Result<CmdOut, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&v)
    }

    fn call(args: &[&str]) -> Result<String, String> {
        call_full(args).map(|out| out.text)
    }

    #[test]
    fn list_runs() {
        assert!(call(&["list"]).unwrap().contains("figure1"));
    }

    /// FNV-1a 64 over the emitted trace JSON. A tiny, dependency-free
    /// content hash: the goldens below pin the *bytes* of every trace, not
    /// just their shape.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Byte-identity regression net for the Q-multiset representation:
    /// `analyze --trace` output (schedule, ops, per-step fingerprints) must
    /// stay byte-for-byte what the pre-interning `BTreeMap<ProcId, Value>`
    /// representation produced, across 20 seeds on ring and marked-ring.
    /// The hashes were captured from the old representation's output (the
    /// interned rewrite was verified byte-identical against it before
    /// these goldens were committed). Any observable drift — value
    /// ordering, peek expansion, fingerprinting, scheduling — fails here.
    #[test]
    fn trace_bytes_are_stable_across_20_seeds() {
        const GOLDEN: &[(&str, u64, u64)] = &[
            ("ring:8", 1, 0xa99b6bb609668503),
            ("ring:8", 2, 0xf01859141abd9b9a),
            ("ring:8", 3, 0x3129136d520a0db0),
            ("ring:8", 4, 0xb68e3911e22c8b88),
            ("ring:8", 5, 0x5ef5a0d230681dd6),
            ("ring:8", 6, 0x456d12fa9c866feb),
            ("ring:8", 7, 0x8847cb335b305b09),
            ("ring:8", 8, 0x709836498be9801f),
            ("ring:8", 9, 0x32dc53593bb4fa72),
            ("ring:8", 10, 0x129f65a6b835ed44),
            ("ring:8", 11, 0xb4e1521e6f431aec),
            ("ring:8", 12, 0xd39b302b5ce3f541),
            ("ring:8", 13, 0x4a4538524c38281e),
            ("ring:8", 14, 0x8b83227c5e38a6d7),
            ("ring:8", 15, 0x2158ad24ca62aee0),
            ("ring:8", 16, 0xf52f0c14ace2b21b),
            ("ring:8", 17, 0x721e78480c6240e6),
            ("ring:8", 18, 0x8d8ae58164ef9779),
            ("ring:8", 19, 0x6e83c42a72d7e67a),
            ("ring:8", 20, 0xa4ec88e54c314153),
            ("marked-ring:8", 1, 0x0de6055790e78f42),
            ("marked-ring:8", 2, 0x3a20739ce54339c6),
            ("marked-ring:8", 3, 0x5a7e5e32efeb5960),
            ("marked-ring:8", 4, 0x4a0ae38d4d5e30f5),
            ("marked-ring:8", 5, 0x37bdd75c8251d193),
            ("marked-ring:8", 6, 0x1345ffca0961d833),
            ("marked-ring:8", 7, 0x68e4067a9389475f),
            ("marked-ring:8", 8, 0x3bba6476bea74694),
            ("marked-ring:8", 9, 0xc436941a9fc9ea6a),
            ("marked-ring:8", 10, 0x72c51bca7a6eb013),
            ("marked-ring:8", 11, 0xffa1719cf9e49180),
            ("marked-ring:8", 12, 0x70bd2afb757a898b),
            ("marked-ring:8", 13, 0x27b9b46fa09e8bc5),
            ("marked-ring:8", 14, 0x414e7cbb74bf2b2b),
            ("marked-ring:8", 15, 0x98df42b89fa86c27),
            ("marked-ring:8", 16, 0x3331ee76d8d6fdbd),
            ("marked-ring:8", 17, 0xca09505106d57fee),
            ("marked-ring:8", 18, 0x0e2ff33d70a96791),
            ("marked-ring:8", 19, 0xbfebfb4a9beba0e8),
            ("marked-ring:8", 20, 0x2311996986e76bff),
        ];
        for &(system, seed, want) in GOLDEN {
            let seed = seed.to_string();
            let out = call(&[
                "analyze", system, "--trace", "--seed", &seed, "--steps", "400",
            ])
            .expect("trace runs");
            assert_eq!(
                fnv1a64(out.as_bytes()),
                want,
                "trace bytes drifted for {system} seed {seed}"
            );
        }
    }

    #[test]
    fn analyze_ring() {
        let out = call(&["analyze", "ring:5"]).unwrap();
        assert!(out.contains("5 processors"));
        assert!(out.contains("no selection"));
    }

    #[test]
    fn analyze_with_mark() {
        let out = call(&["analyze", "ring:4", "--mark", "p0"]).unwrap();
        assert!(out.contains("selectable"));
    }

    #[test]
    fn analyze_trace_emits_replayable_json() {
        let out = call(&["analyze", "ring:4", "--trace", "--seed", "7"]).unwrap();
        let trace = ScheduleTrace::from_json(out.trim()).expect("valid trace JSON");
        assert_eq!(trace.scheduler, "random_fair(seed=7)");
        assert_eq!(trace.kind, "fair");
        assert!(!trace.steps.is_empty());
        // Round-trip: re-encoding the parsed trace is byte-identical.
        assert_eq!(format!("{}\n", trace.to_json()), out);

        // Replay against a freshly built machine reaches the same final state.
        let (graph, init) = parse_system_args(&["ring:4".to_owned()]).unwrap();
        let labeling = hopcroft_similarity(&graph, &init, Model::Q);
        let prog = LabelLearner::new(&graph, &init, &labeling).unwrap();
        let mut m =
            Machine::new(Arc::new(graph), InstructionSet::Q, Arc::new(prog), &init).unwrap();
        replay(&mut m, &trace).expect("trace replays to identical final state");
        assert_eq!(m.fingerprint(), trace.final_fingerprint);
    }

    #[test]
    fn analyze_trace_is_deterministic_per_seed() {
        let a = call(&["analyze", "figure1", "--trace", "--seed", "3"]).unwrap();
        let b = call(&["analyze", "figure1", "--trace", "--seed", "3"]).unwrap();
        let c = call(&["analyze", "figure1", "--trace", "--seed", "4"]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn trace_flags_require_trace() {
        let err = call(&["analyze", "ring:4", "--seed", "3"]).unwrap_err();
        assert!(err.contains("--trace"));
    }

    #[test]
    fn elect_figure2() {
        let out = call(&["elect", "figure2"]).unwrap();
        assert!(out.contains("elected [p2]"));
    }

    #[test]
    fn elect_refuses_symmetric() {
        let err = call(&["elect", "ring:4"]).unwrap_err();
        assert!(err.contains("no selection algorithm"));
    }

    #[test]
    fn dine_greedy_deadlocks() {
        let out = call(&["dine", "5", "greedy", "5000"]).unwrap();
        assert!(out.contains("deadlock"));
    }

    #[test]
    fn dine_alternating_feeds_everyone() {
        let out = call(&["dine", "6", "alternating", "20000"]).unwrap();
        assert!(out.contains("meals"));
        assert!(!out.contains("deadlock"));
    }

    #[test]
    fn dine_rejects_odd_alternating() {
        let err = call(&["dine", "5", "alternating"]).unwrap_err();
        assert!(err.contains("even"));
    }

    #[test]
    fn dine_chandy_misra_on_prime_table() {
        let out = call(&["dine", "5", "chandy-misra", "20000"]).unwrap();
        assert!(out.contains("meals"));
        assert!(!out.contains("deadlock"));
        assert!(!out.contains("VIOLATION"));
    }

    #[test]
    fn dine_lehmann_rabin_on_prime_table() {
        let out = call(&["dine", "5", "lehmann-rabin", "20000"]).unwrap();
        assert!(out.contains("meals"));
        assert!(!out.contains("VIOLATION"));
    }

    #[test]
    fn dot_renders() {
        let out = call(&["dot", "figure1"]).unwrap();
        assert!(out.starts_with("graph system {"));
    }

    #[test]
    fn parse_errors_are_friendly() {
        assert!(call(&["analyze", "ring"]).is_err());
        assert!(call(&["analyze", "nonsense"]).is_err());
        assert!(call(&["analyze", "board:0x2"]).is_err());
        assert!(call(&["analyze", "ring:4", "--mark", "p9"]).is_err());
        assert!(call(&["bogus"]).is_err());
        assert!(call(&[]).is_err());
    }

    #[test]
    fn report_renders_markdown() {
        let out = call(&["report", "figure2"]).unwrap();
        assert!(out.contains("# System analysis"));
        assert!(out.contains("Q: selectable"));
    }

    #[test]
    fn spec_file_loads() {
        let dir = std::env::temp_dir().join("simsym-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig2.sysg");
        std::fs::write(
            &path,
            "names a b\nprocs p1 p2 p3\nvars v1 v2 v3\nedge p1 a v1\nedge p2 a v1\nedge p3 a v2\nedge p1 b v3\nedge p2 b v3\nedge p3 b v3\n",
        )
        .unwrap();
        let arg = format!("@{}", path.display());
        let out = call(&["analyze", &arg]).unwrap();
        assert!(out.contains("3 processors"));
        assert!(out.contains("Q: selectable"));
    }

    #[test]
    fn board_parses() {
        let g = systems::parse("board:3x2").unwrap();
        assert_eq!(g.processor_count(), 3);
        assert_eq!(g.variable_count(), 2);
    }

    #[test]
    fn lint_clean_system_passes() {
        let out = call_full(&["lint", "ring:5"]).unwrap();
        assert!(!out.failed, "{}", out.text);
        assert!(out.text.contains("0 error(s)"), "{}", out.text);
    }

    #[test]
    fn lint_detects_all_four_seeded_defect_classes() {
        // Race: unprotected shared writes under L.
        let racy = call_full(&["lint", "figure1", "--program", "racy", "--json"]).unwrap();
        assert!(racy.failed);
        assert!(racy.text.contains("\"code\":\"DYN-RACE\""), "{}", racy.text);
        assert!(racy.text.contains("\"witness\":["), "{}", racy.text);

        // Deadlock: fixed-order philosophers on the uniform table.
        let dead = call_full(&["lint", "table:5", "--program", "fixed-order", "--json"]).unwrap();
        assert!(dead.failed);
        assert!(
            dead.text.contains("\"code\":\"DYN-LOCK-CYCLE\""),
            "{}",
            dead.text
        );
        assert!(
            dead.text.contains("persistently waited"),
            "witness cycle: {}",
            dead.text
        );

        // ISA violation: lock attempts on an S machine.
        let isa = call_full(&["lint", "figure1", "--program", "isa-cheater", "--json"]).unwrap();
        assert!(isa.failed);
        assert!(isa.text.contains("\"code\":\"DYN-ISA-OP\""), "{}", isa.text);

        // Atomicity: two shared writes in one step.
        let atom = call_full(&["lint", "figure1", "--program", "greedy", "--json"]).unwrap();
        assert!(atom.failed);
        assert!(
            atom.text.contains("\"code\":\"DYN-ATOMICITY\""),
            "{}",
            atom.text
        );
    }

    #[test]
    fn lint_malformed_spec_reports_diagnostics_not_usage_errors() {
        let dir = std::env::temp_dir().join("simsym-lint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.sysg");
        std::fs::write(
            &path,
            "names a\nprocs p1 p2\nvars v1\nedge p1 a v1\nedge p1 a v2\nbogus line here\n",
        )
        .unwrap();
        let arg = format!("@{}", path.display());
        let out = call_full(&["lint", &arg, "--json"]).unwrap();
        assert!(out.failed);
        assert!(out.text.contains("SPEC-"), "{}", out.text);
        assert!(out.text.contains("\"witness\":[\"line "), "{}", out.text);
    }

    #[test]
    fn lint_dot_exports_lock_order_graph() {
        let out = call_full(&["lint", "table:5", "--program", "fixed-order", "--dot"]).unwrap();
        assert!(out.text.starts_with("digraph lockorder {"), "{}", out.text);
        assert!(out.text.contains(" -> "), "{}", out.text);
        // Errors were found, so the exit code still reflects them.
        assert!(out.failed);
    }

    #[test]
    fn lint_sweep_output_is_byte_identical_across_runs() {
        let args = &["lint", "ring:3", "--sweep", "--steps", "200", "--json"];
        let a = call_full(args).unwrap();
        let b = call_full(args).unwrap();
        assert_eq!(a.text, b.text);
        assert!(!a.failed, "{}", a.text);
        assert!(a.text.contains("\"runs\":["), "{}", a.text);
    }

    #[test]
    fn lint_rejects_unknown_fixture_and_flag_combos() {
        assert!(call(&["lint", "ring:3", "--program", "nope"])
            .unwrap_err()
            .contains("unknown fixture"));
        assert!(call(&["lint", "ring:3", "--sweep", "--dot"])
            .unwrap_err()
            .contains("mutually exclusive"));
    }

    #[test]
    fn faults_crash_sweep_is_clean_on_every_family() {
        for family in ["ring", "table", "alternating", "hypercube"] {
            let out = call_full(&[
                "faults", "--family", family, "--plan", "crash", "--sweep", "2", "--steps", "2000",
                "--json",
            ])
            .unwrap();
            assert!(!out.failed, "{family}: {}", out.text);
            assert!(out.text.contains("\"schema\": \"simsym-faults/v1\""));
            assert!(
                out.text.contains("\"uniqueness_violations\": 0"),
                "{family}: {}",
                out.text
            );
            assert!(
                out.text.contains("\"stability_violations\": 0"),
                "{family}: {}",
                out.text
            );
        }
    }

    #[test]
    fn faults_lossy_injects_channel_events() {
        let rows = faults_lossy(&FaultsOpts {
            family: "ring".into(),
            plan: "lossy".into(),
            seed: 0,
            sweep: 4,
            steps: Some(5_000),
            journal: false,
            json: false,
        })
        .unwrap();
        assert_eq!(rows.len(), 8, "two schedulers x four seeds");
        let injected: usize = rows
            .iter()
            .map(|r| r.dropped + r.duplicated + r.reordered)
            .sum();
        assert!(injected > 0, "lossy policy injected nothing");
        assert!(rows.iter().all(|r| r.crashes == 0 && r.recoveries == 0));
        // Uniqueness holds even under message loss: nobody double-selects.
        assert!(rows.iter().all(|r| r.selected.len() <= 1));
        assert!(rows.iter().all(|r| r.diagnostics.is_empty()));
    }

    #[test]
    fn faults_starve_still_elects_within_the_bounded_fair_window() {
        // The adversary stays inside the k-bounded-fair class, so the
        // marked leader must still be elected — Theorem 1's boundary,
        // probed from the inside.
        let rows = faults_starve(&FaultsOpts {
            family: "ring".into(),
            plan: "starve".into(),
            seed: 0,
            sweep: 3,
            steps: Some(20_000),
            journal: false,
            json: false,
        })
        .unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.selected, vec![ProcId::new(0)], "{}", r.scheduler);
            assert!(r.steps < 20_000, "election never completed");
            assert!(r.diagnostics.is_empty());
        }
    }

    #[test]
    fn faults_output_is_byte_identical_across_runs() {
        let args = &[
            "faults", "--family", "table", "--plan", "crash", "--seed", "5", "--sweep", "2",
            "--steps", "1000", "--json",
        ];
        let a = call(args).unwrap();
        let b = call(args).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn faults_rejects_bad_flags() {
        assert!(call(&["faults", "--plan", "crash"])
            .unwrap_err()
            .contains("--family"));
        assert!(call(&["faults", "--family", "ring"])
            .unwrap_err()
            .contains("--plan"));
        assert!(call(&["faults", "--family", "torus", "--plan", "crash"])
            .unwrap_err()
            .contains("unknown family"));
        assert!(call(&["faults", "--family", "ring", "--plan", "melt"])
            .unwrap_err()
            .contains("unknown fault plan"));
        assert!(
            call(&["faults", "--family", "ring", "--plan", "crash", "--sweep", "0"])
                .unwrap_err()
                .contains("at least one seed")
        );
    }

    #[test]
    fn faults_journal_crash_sweep_is_clean_on_every_family() {
        for family in ["ring", "table", "alternating", "hypercube"] {
            let rows = faults_crash(&FaultsOpts {
                family: family.into(),
                plan: "crash".into(),
                seed: 0,
                sweep: 2,
                steps: Some(2_000),
                journal: true,
                json: true,
            })
            .unwrap();
            // Not trivially clean: the leader crashed and rebooted from
            // its journal somewhere in the sweep.
            let replayed: usize = rows.iter().map(|r| r.replayed).sum();
            assert!(replayed > 0, "{family}: no journal replay was exercised");
            assert!(
                rows.iter()
                    .flat_map(|r| &r.diagnostics)
                    .all(|d| d.severity != check::Severity::Error),
                "{family}: journaled sweep is not clean"
            );
        }
    }

    #[test]
    fn faults_journal_flag_exits_clean_and_rejects_other_plans() {
        let out = call_full(&[
            "faults",
            "--family",
            "ring",
            "--plan",
            "crash",
            "--journal",
            "--sweep",
            "2",
            "--steps",
            "2000",
            "--json",
        ])
        .unwrap();
        assert!(!out.failed, "{}", out.text);
        assert!(
            out.text.contains("\"uniqueness_violations\": 0"),
            "{}",
            out.text
        );
        assert!(
            out.text.contains("\"stability_violations\": 0"),
            "{}",
            out.text
        );
        assert!(
            call(&["faults", "--family", "ring", "--plan", "lossy", "--journal"])
                .unwrap_err()
                .contains("--journal")
        );
    }

    #[test]
    fn soak_finds_shrinks_and_replays_a_stability_violation() {
        let dir = std::env::temp_dir().join("simsym-soak-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repro.json");
        let repro = path.to_str().unwrap().to_owned();
        let out = call_full(&[
            "soak",
            "--family",
            "ring",
            "--budget",
            "10",
            "--steps",
            "2000",
            "--json",
            "--repro-out",
            &repro,
        ])
        .unwrap();
        assert!(!out.failed, "{}", out.text);
        assert!(
            out.text.contains("\"violation_found\": true"),
            "{}",
            out.text
        );
        assert!(
            out.text.contains("\"violation\": \"DYN-RECOV-STAB\""),
            "{}",
            out.text
        );

        // The artifact is on disk, minimized to at most two crash events,
        // and replays to the identical verdict.
        let text = std::fs::read_to_string(&path).unwrap();
        let artifact = ReproArtifact::from_json(text.trim()).unwrap();
        assert!(artifact.plan.crashes.len() <= 2, "{text}");
        assert!(
            artifact.schedule.len() < 2_000,
            "schedule did not shrink: {text}"
        );
        let replayed = call_full(&["analyze", "--trace", &repro]).unwrap();
        assert!(!replayed.failed, "{}", replayed.text);
        assert!(
            replayed.text.contains("verdict DYN-RECOV-STAB reproduced"),
            "{}",
            replayed.text
        );

        // Tampering with the recorded verdict is caught as divergence.
        let tampered = dir.join("tampered.json");
        std::fs::write(&tampered, text.replace("DYN-RECOV-STAB", "DYN-FAULT-UNIQ")).unwrap();
        let diverged = call_full(&["analyze", "--trace", tampered.to_str().unwrap()]).unwrap();
        assert!(diverged.failed);
        assert!(
            diverged.text.contains("SOAK-REPLAY-DIVERGED"),
            "{}",
            diverged.text
        );
    }

    #[test]
    fn soak_output_is_byte_identical_across_runs() {
        let args = &[
            "soak", "--family", "ring", "--budget", "6", "--steps", "2000", "--json",
        ];
        assert_eq!(call(args).unwrap(), call(args).unwrap());
    }

    #[test]
    fn soak_with_journal_finds_nothing() {
        let out = call_full(&[
            "soak",
            "--family",
            "ring",
            "--journal",
            "--budget",
            "6",
            "--steps",
            "2000",
            "--json",
        ])
        .unwrap();
        assert!(!out.failed, "{}", out.text);
        assert!(
            out.text.contains("\"violation_found\": false"),
            "{}",
            out.text
        );
    }

    #[test]
    fn soak_flags_degenerate_single_processor_plans() {
        let out = call_full(&[
            "soak", "--family", "ring", "--procs", "1", "--budget", "5", "--json",
        ])
        .unwrap();
        assert!(!out.failed, "{}", out.text);
        assert!(out.text.contains("SOAK-DEGENERATE"), "{}", out.text);
        assert!(
            out.text.contains("\"violation_found\": false"),
            "{}",
            out.text
        );
        assert!(out.text.contains("\"runs\": 0"), "{}", out.text);
    }

    #[test]
    fn analyze_trace_surfaces_invalid_plans_as_diagnostics() {
        let dir = std::env::temp_dir().join("simsym-soak-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad-plan.json");
        // The recovery precedes its crash: FaultPlan::validate rejects it,
        // and the CLI must diagnose instead of panicking.
        std::fs::write(
            &path,
            "{\"schema\":\"simsym-repro/v1\",\"family\":\"ring\",\"procs\":5,\"seed\":0,\
             \"journal\":false,\"violation\":\"DYN-RECOV-STAB\",\"plan\":[{\"proc\":1,\
             \"at_step\":9,\"recovery\":{\"at_step\":3,\"mode\":\"reset\"}}],\"schedule\":[0,1]}",
        )
        .unwrap();
        let out = call_full(&["analyze", "--trace", path.to_str().unwrap()]).unwrap();
        assert!(out.failed);
        assert!(out.text.contains("SOAK-PLAN"), "{}", out.text);
    }

    #[test]
    fn soak_rejects_bad_flags() {
        assert!(call(&["soak"]).unwrap_err().contains("--family"));
        assert!(call(&["soak", "--family", "torus"])
            .unwrap_err()
            .contains("unknown family"));
        assert!(call(&["soak", "--family", "ring", "--budget", "0"])
            .unwrap_err()
            .contains("at least one run"));
        assert!(call(&["soak", "--family", "ring", "--frobnicate"])
            .unwrap_err()
            .contains("unknown soak flag"));
    }

    #[test]
    fn verify_certifies_a_clean_ring_and_reports_the_reduction() {
        let out = call_full(&[
            "verify", "--family", "ring", "--reduce", "both", "--depth", "24",
        ])
        .unwrap();
        assert!(!out.failed);
        assert!(out.text.contains("DYN-EXPLORE-CERTIFIED"), "{}", out.text);
        assert!(
            out.text.contains("modulo Aut(N) of order 4"),
            "{}",
            out.text
        );
        assert!(out.text.contains("reduction factor"), "{}", out.text);
    }

    #[test]
    fn verify_grab_regression_exits_nonzero_with_a_witness() {
        let out = call_full(&["verify", "--family", "ring", "--program", "grab"]).unwrap();
        assert!(out.failed);
        assert!(out.text.contains("DYN-EXPLORE-UNIQ"), "{}", out.text);
    }

    #[test]
    fn verify_json_carries_schema_runs_and_factor() {
        let out = call(&[
            "verify", "--family", "table", "--reduce", "quotient", "--json",
        ])
        .unwrap();
        assert!(out.contains("\"schema\": \"simsym-verify/v1\""));
        assert!(out.contains("\"reduce\": \"quotient\""));
        assert!(out.contains("\"reduce\": \"none\""));
        assert!(out.contains("\"reduction_factor_x100\""));
        assert!(out.contains("\"states_canonical\""));
        assert!(out.contains("\"peak_visited_bytes\""));
        // Nothing here exceeds GROUP_CAP, so every run reports an
        // uncapped, fully enumerated group.
        assert!(out.contains("\"group_capped\": 0"));
        assert!(!out.contains("\"group_capped\": 1"));
    }

    #[test]
    fn hypercube_parses_and_verifies_from_the_cli() {
        // The family was only reachable through the library before: no
        // CLI path spelled "hypercube". Every entry point takes it now.
        let g = systems::parse("hypercube:3").unwrap();
        assert_eq!(g.processor_count(), 8);
        assert_eq!(g.variable_count(), 12);
        assert!(call(&["analyze", "hypercube:3"])
            .unwrap()
            .contains("8 processors"));
        assert!(call(&["list"]).unwrap().contains("hypercube:D"));

        let out = call_full(&[
            "verify",
            "--family",
            "hypercube",
            "--reduce",
            "quotient",
            "--depth",
            "8",
            "--json",
        ])
        .unwrap();
        assert!(!out.failed, "{}", out.text);
        // Edge names are colors (dim0..dim2 must map to themselves), so
        // Aut is exactly the 2^3 XOR-translations, not the full 2^3·3!
        // hypercube group.
        assert!(out.text.contains("\"group_order\": 8"), "{}", out.text);
        assert!(out.text.contains("\"group_capped\": 0"), "{}", out.text);

        assert!(call(&["verify", "--family", "hypercube", "--procs", "6"])
            .unwrap_err()
            .contains("power-of-two"));
        assert!(call(&["analyze", "hypercube:0"])
            .unwrap_err()
            .contains("size >= 1"));
        assert!(call(&["analyze", "hypercube:27"])
            .unwrap_err()
            .contains("at most 26"));
    }

    #[test]
    fn verify_rejects_bad_flags() {
        assert!(call(&["verify", "--family", "ring", "--reduce", "bogus"])
            .unwrap_err()
            .contains("unknown reduction"));
        assert!(call(&["verify"]).unwrap_err().contains("needs --family"));
        assert!(call(&["verify", "--family", "nope"])
            .unwrap_err()
            .contains("unknown family"));
        assert!(call(&["verify", "--family", "alternating", "--procs", "5"])
            .unwrap_err()
            .contains("even"));
    }

    #[test]
    fn undersized_families_are_usage_errors_not_panics() {
        for (family, procs) in [
            ("ring", "0"),
            ("ring", "1"),
            ("table", "0"),
            ("table", "1"),
            ("alternating", "0"),
        ] {
            let err = call(&["verify", "--family", family, "--procs", procs]).unwrap_err();
            assert_eq!(
                err,
                format!("{family} needs at least 2 processors (got {procs})")
            );
        }
        // Served, the same size is a failed document carrying the usage
        // error, not a caught worker panic.
        let (addr, handle) = boot_farm(1, 8);
        let job = farm::submit_job(
            &addr,
            "{\"kind\":\"verify\",\"family\":\"ring\",\"procs\":1}",
        )
        .expect("submit");
        let result = farm::fetch_result(&addr, job.job).expect("result");
        assert!(result.failed);
        assert!(
            !result.document.contains("SERVE-JOB-PANIC"),
            "{}",
            result.document
        );
        assert!(
            result
                .document
                .contains("ring needs at least 2 processors (got 1)"),
            "{}",
            result.document
        );
        farm::shutdown(&addr).expect("shutdown");
        let summary = handle.join().expect("farm thread").expect("farm summary");
        assert!(summary.text.contains("completed 1"), "{}", summary.text);
    }

    #[test]
    fn repeated_flags_are_rejected_by_every_command() {
        for (args, flag) in [
            (
                &["verify", "--family", "ring", "--depth", "3", "--depth", "5"][..],
                "--depth",
            ),
            (
                &["analyze", "ring:4", "--trace", "--seed", "1", "--seed", "2"],
                "--seed",
            ),
            (
                &["analyze", "ring:4", "--mark", "p0", "--mark", "p1"],
                "--mark",
            ),
            (&["lint", "ring:3", "--json", "--json"], "--json"),
            (
                &[
                    "faults", "--family", "ring", "--plan", "crash", "--plan", "lossy",
                ],
                "--plan",
            ),
            (
                &["soak", "--family", "ring", "--budget", "2", "--budget", "4"],
                "--budget",
            ),
            (&["bench", "--quick", "--quick"], "--quick"),
            (&["serve", "--workers", "1", "--workers", "2"], "--workers"),
            (&["submit", "--watch", "--watch", "{}"], "--watch"),
        ] {
            let err = call(args).unwrap_err();
            assert_eq!(err, format!("{flag} given twice"), "{args:?}");
        }
    }

    #[test]
    fn bench_rejects_bad_flags() {
        assert!(call(&["bench", "--frobnicate"])
            .unwrap_err()
            .contains("unknown bench flag"));
        assert!(call(&["bench", "--against"])
            .unwrap_err()
            .contains("--against needs a file"));
    }

    /// Synthetic rows so the test exercises rendering, not timing.
    #[allow(clippy::type_complexity)]
    fn fake_rows() -> (
        Vec<ThroughputRow>,
        Vec<ScaleRow>,
        Vec<LabelingRow>,
        Vec<ExploreRow>,
        Vec<StaticLintRow>,
        Vec<StaticInterferenceRow>,
        OverheadRow,
    ) {
        let t = vec![ThroughputRow {
            family: "ring",
            n: 64,
            isa: "Q",
            steps: 2_000,
            nanos: 1_000_000,
        }];
        let sc = vec![ScaleRow {
            family: "scale-ring",
            n: 100_000,
            construct_nanos: 5_000_000,
            steps: 300_000,
            nanos: 100_000_000,
            bytes_per_processor: 140,
        }];
        let l = vec![
            LabelingRow {
                n: 64,
                algorithm: "naive",
                nanos: 500,
            },
            LabelingRow {
                n: 64,
                algorithm: "hopcroft",
                nanos: 100,
            },
        ];
        let e = vec![ExploreRow {
            family: "table",
            n: 4,
            reduce: "both",
            states_canonical: 250,
            states_seen: 900,
            nanos: 2_000,
        }];
        let s = vec![StaticLintRow {
            family: "ring",
            n: 64,
            nanos: 4_000,
        }];
        let i = vec![StaticInterferenceRow {
            family: "table",
            n: 4,
            interference: "static",
            states_canonical: 250,
            states_seen: 900,
            nanos: 2_000,
        }];
        let o = OverheadRow {
            steps: 2_000,
            plain_nanos: 1_000_000,
            faulted_nanos: 1_010_000,
            journaled_nanos: 1_111_000,
        };
        (t, sc, l, e, s, i, o)
    }

    #[test]
    fn bench_json_is_valid_and_schema_ignores_numbers() {
        let (t, sc, l, e, s, i, o) = fake_rows();
        let a = bench_render_json(&t, &sc, &l, &e, &s, &i, &o);
        assert!(a.contains("\"explore_reduction\""));
        assert!(a.contains("\"scale_tier\""));
        assert!(a.contains("\"bytes_per_processor\": 140"));
        assert!(a.contains("\"construct_nanos\": 5000000"));
        assert!(a.contains("\"static_lint\""));
        assert!(a.contains("\"verify_static_interference\""));
        assert!(a.contains("\"states_canonical\": 250"));
        assert!(a.contains("\"schema\": \"simsym-bench/v1\""));
        assert!(a.contains("\"steps_per_sec\": 2000000"));
        assert!(a.contains("\"faults_overhead\""));
        assert!(a.contains("\"overhead_percent\": 1"));
        assert!(a.contains("\"journal_overhead\""));
        // 1_111_000 vs 1_010_000 faulted: +10% for the journal.
        assert!(a.contains("\"journaled_nanos\": 1111000"));
        assert!(a.contains("\"overhead_percent\": 10"));
        // Same rows with different timings: schema skeleton is identical.
        let mut t2 = fake_rows().0;
        t2[0].nanos = 77;
        let b = bench_render_json(&t2, &sc, &l, &e, &s, &i, &o);
        assert_ne!(a, b);
        assert_eq!(bench_schema_skeleton(&a), bench_schema_skeleton(&b));
        // A renamed label is schema drift.
        let mut t3 = fake_rows().0;
        t3[0].family = "torus";
        let c = bench_render_json(&t3, &sc, &l, &e, &s, &i, &o);
        assert_ne!(bench_schema_skeleton(&a), bench_schema_skeleton(&c));
    }

    #[test]
    fn bench_overhead_percent_is_signed() {
        // A faster faulted run (timer noise) renders as a *negative*
        // percent — the old clamp-at-zero hid real regressions in the
        // baseline. The schema skeleton strips the numeric sign with the
        // digits, so the sign flip is not schema drift in CI.
        let o = OverheadRow {
            steps: 100,
            plain_nanos: 1_000,
            faulted_nanos: 900,
            journaled_nanos: 800,
        };
        assert_eq!(o.percent(), -10);
        assert_eq!(o.journal_percent(), -11);
        let (t, sc, l, e, s, i, positive) = fake_rows();
        let json = bench_render_json(&t, &sc, &l, &e, &s, &i, &o);
        assert!(json.contains("\"overhead_percent\": -10"), "{json}");
        assert!(json.contains("\"overhead_percent\": -11"), "{json}");
        // Negative and positive overheads share one schema skeleton: the
        // sign is part of the number, not of the shape.
        assert_eq!(
            bench_schema_skeleton(&json),
            bench_schema_skeleton(&bench_render_json(&t, &sc, &l, &e, &s, &i, &positive))
        );
        // The text rendering carries the sign too.
        let opts = BenchOpts {
            json: false,
            quick: true,
            against: None,
        };
        let text = bench_render_text(&t, &sc, &l, &e, &s, &i, &o, &opts);
        assert!(text.contains("(-10%)"), "{text}");
        assert!(text.contains("(-11% over faulted)"), "{text}");
    }

    #[test]
    fn bench_schema_skeleton_keeps_digits_inside_strings() {
        assert_eq!(
            bench_schema_skeleton("{\"v1 x\": 23, \"n\": 4}"),
            "{\"v1 x\":,\"n\":}"
        );
        assert_eq!(bench_schema_skeleton("\"esc\\\"2\" 9"), "\"esc\\\"2\"");
        // A numeric minus vanishes with its digits; a non-numeric minus
        // (and one inside a string) is structure and stays.
        assert_eq!(
            bench_schema_skeleton("{\"p\": -23, \"q\": 23}"),
            "{\"p\":,\"q\":}"
        );
        assert_eq!(bench_schema_skeleton("\"a-b\": x-y"), "\"a-b\":x-y");
    }

    // ---- the simulation farm ------------------------------------------

    use simsym::serve::client as farm;

    /// Boots a farm on an ephemeral port with the real [`DispatchRunner`].
    fn boot_farm(
        workers: usize,
        queue: usize,
    ) -> (String, std::thread::JoinHandle<Result<CmdOut, String>>) {
        let addr_flag = "127.0.0.1:0".to_owned();
        let server = Server::bind(
            simsym::serve::ServeConfig {
                addr: addr_flag,
                workers,
                queue_capacity: queue,
                ..Default::default()
            },
            Arc::new(DispatchRunner),
        )
        .expect("bind farm");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || {
            let summary = server.run()?;
            ok(format!(
                "completed {} cache_hits {} rejected {}",
                summary.completed, summary.cache_hits, summary.rejected
            ))
        });
        (addr, handle)
    }

    /// Submits every spec, then fetches every result in order.
    fn farm_results(addr: &str, specs: &[String]) -> Vec<farm::JobResult> {
        let submitted: Vec<_> = specs
            .iter()
            .map(|s| farm::submit_job(addr, s).expect("submit"))
            .collect();
        submitted
            .iter()
            .map(|s| farm::fetch_result(addr, s.job).expect("result"))
            .collect()
    }

    #[test]
    fn served_jobs_are_byte_identical_across_worker_counts_and_to_batch_output() {
        let specs: Vec<String> = vec![
            "{\"kind\": \"lint\", \"system\": \"ring:5\", \"seed\": 3}".to_owned(),
            "{\"kind\": \"sweep\", \"system\": \"marked-ring:5\", \"steps\": 400}".to_owned(),
            "{\"kind\": \"verify\", \"family\": \"hypercube\", \"procs\": 8, \"depth\": 6}"
                .to_owned(),
            "{\"kind\": \"faults\", \"family\": \"ring\", \"plan\": \"crash\", \"sweep\": 2}"
                .to_owned(),
        ];
        let (addr1, handle1) = boot_farm(1, 16);
        let one = farm_results(&addr1, &specs);
        farm::shutdown(&addr1).expect("shutdown");
        handle1.join().expect("farm thread").expect("farm summary");

        let (addr4, handle4) = boot_farm(4, 16);
        let four = farm_results(&addr4, &specs);
        farm::shutdown(&addr4).expect("shutdown");
        handle4.join().expect("farm thread").expect("farm summary");

        // Byte-identical regardless of worker count…
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.document, b.document);
            assert_eq!(a.failed, b.failed);
        }
        // …and identical to what the batch CLI prints for the same argv.
        let batch_argv: Vec<Vec<String>> = specs
            .iter()
            .map(|s| simsym::serve::spec::job_argv(s).expect("argv"))
            .collect();
        for (served, argv) in one.iter().zip(&batch_argv) {
            let batch = dispatch(argv).expect("batch dispatch");
            assert_eq!(served.document, batch.text);
            assert_eq!(served.failed, batch.failed);
        }
    }

    /// Counts runner invocations, so a cache hit that silently recomputes
    /// is caught.
    struct CountingRunner(std::sync::atomic::AtomicUsize);

    impl JobRunner for CountingRunner {
        fn run(&self, argv: &[String]) -> Result<JobOutput, String> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            dispatch(argv).map(|out| JobOutput {
                document: out.text,
                failed: out.failed,
            })
        }
    }

    #[test]
    fn resubmitting_a_job_hits_the_store_without_recomputation() {
        let runner = Arc::new(CountingRunner(std::sync::atomic::AtomicUsize::new(0)));
        let server = Server::bind(
            simsym::serve::ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                workers: 2,
                queue_capacity: 8,
                ..Default::default()
            },
            Arc::clone(&runner) as Arc<dyn JobRunner>,
        )
        .expect("bind farm");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());

        let spec = "{\"kind\": \"lint\", \"system\": \"ring:4\", \"static\": true}";
        let first = farm::submit_job(&addr, spec).expect("submit");
        assert_eq!(first.cache, "miss");
        let first_doc = farm::fetch_result(&addr, first.job).expect("result");

        let second = farm::submit_job(&addr, spec).expect("resubmit");
        assert_eq!(second.cache, "hit");
        let second_doc = farm::fetch_result(&addr, second.job).expect("cached result");
        assert_eq!(first_doc.document, second_doc.document);
        assert_eq!(
            runner.0.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "the cache hit must not re-run the job"
        );

        farm::shutdown(&addr).expect("shutdown");
        let summary = handle.join().expect("farm thread").expect("farm run");
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.cache_hits, 1);
    }

    #[test]
    fn the_farm_sustains_sixty_four_concurrent_jobs() {
        // 64 distinct static-lint jobs (varying system size over the
        // repertoire of families) through a queue of exactly that
        // capacity, on 2 workers. Every artifact must come back, every
        // fingerprint distinct, and the final summary must account for
        // all of them.
        let (addr, handle) = boot_farm(2, 64);
        let specs: Vec<String> = (0..64)
            .map(|i| {
                let family = ["ring", "line", "star", "table"][i % 4];
                format!(
                    "{{\"kind\": \"lint\", \"system\": \"{family}:{}\", \"static\": true}}",
                    3 + i / 4
                )
            })
            .collect();
        let results = farm_results(&addr, &specs);
        assert_eq!(results.len(), 64);
        for (spec, result) in specs.iter().zip(&results) {
            assert!(!result.document.is_empty(), "empty artifact for {spec}");
            assert!(result.document.contains("\"system\""), "{spec}");
        }
        farm::shutdown(&addr).expect("shutdown");
        let summary = handle.join().expect("farm thread").expect("farm summary");
        assert!(summary.text.contains("completed 64"), "{}", summary.text);
    }

    #[test]
    fn draining_rejects_new_work_but_finishes_the_queue() {
        let (addr, handle) = boot_farm(1, 8);
        let jobs: Vec<_> = (0..3)
            .map(|i| {
                farm::submit_job(
                    &addr,
                    &format!(
                        "{{\"kind\": \"lint\", \"system\": \"ring:{}\", \"static\": true}}",
                        3 + i
                    ),
                )
                .expect("submit")
            })
            .collect();
        // Open an event stream for the last job *before* asking for the
        // drain, so the farm cannot fully exit until we have watched the
        // job finish. The stream is open once its first event (the
        // replayed `queued`) arrives; only then is the drain requested.
        let watch_addr = addr.clone();
        let last = jobs[2].job;
        let (opened, stream_open) = std::sync::mpsc::channel();
        let watcher = std::thread::spawn(move || {
            let mut events = Vec::new();
            farm::watch_events(&watch_addr, last, |line| {
                if events.is_empty() {
                    let _ = opened.send(());
                }
                events.push(line.to_owned());
            })
            .expect("events");
            events
        });
        stream_open.recv().expect("event stream opened");
        let ack = farm::shutdown(&addr).expect("shutdown");
        assert!(ack.contains("draining"), "{ack}");
        // New work is turned away while the queue drains. The exact
        // refusal depends on timing — SERVE-DRAINING from a live farm, a
        // connection error from one that already exited — but it must
        // never be accepted.
        match farm::submit_job(&addr, "{\"kind\": \"lint\", \"system\": \"ring:9\"}") {
            Err(e) => {
                if e.contains("SERVE-") {
                    assert!(e.contains("SERVE-DRAINING"), "{e}");
                }
            }
            Ok(_) => panic!("draining farm accepted new work"),
        }
        // Every queued job still ran to completion.
        let events = watcher.join().expect("watcher");
        assert!(
            events.iter().any(|e| e.contains("\"event\": \"finished\"")),
            "{events:?}"
        );
        let summary = handle.join().expect("farm thread").expect("farm summary");
        assert!(summary.text.contains("completed 3"), "{}", summary.text);
    }

    #[test]
    fn submit_command_parses_inline_specs_and_flags() {
        let (addr, handle) = boot_farm(1, 8);
        let out = call_full(&[
            "submit",
            "--addr",
            &addr,
            "--watch",
            "{\"kind\": \"lint\", \"system\": \"ring:3\", \"static\": true}",
        ])
        .expect("submit");
        assert!(out.text.contains("\"cache\": \"miss\""), "{}", out.text);
        assert!(out.text.contains("\"event\": \"queued\""), "{}", out.text);
        assert!(out.text.contains("\"event\": \"finished\""), "{}", out.text);
        assert!(out.text.contains("\"system\":\"ring:3\""), "{}", out.text);
        assert!(!out.failed);

        // A bad spec surfaces the diagnostic code, not a panic.
        let err = call_full(&["submit", "--addr", &addr, "{\"kind\": \"melt\"}"]).unwrap_err();
        assert!(err.contains("SERVE-JOB-SPEC"), "{err}");

        let bye = call_full(&["shutdown", "--addr", &addr]).expect("shutdown");
        assert!(bye.text.contains("draining"), "{}", bye.text);
        handle.join().expect("farm thread").expect("farm summary");

        // Usage errors are caught client-side before any connection.
        let err = call_full(&["submit"]).unwrap_err();
        assert!(err.contains("job spec"), "{err}");
        let err = call_full(&["serve", "--workers", "0"]).unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn panic_fixture_job_is_isolated_and_the_farm_keeps_serving() {
        let (addr, handle) = boot_farm(2, 8);
        let fixture = farm::submit_job(&addr, "{\"kind\": \"panic\", \"seed\": 3}")
            .expect("submit panic fixture");
        let verdict = farm::fetch_result(&addr, fixture.job).expect("fixture verdict");
        assert!(verdict.failed);
        assert!(
            verdict.document.contains("SERVE-JOB-PANIC"),
            "{}",
            verdict.document
        );
        // The dispatcher survived two panics (run + bounded retry) and
        // ordinary work still flows.
        let ok = farm::submit_job(
            &addr,
            "{\"kind\": \"lint\", \"system\": \"ring:3\", \"static\": true}",
        )
        .expect("submit after panic");
        assert!(!farm::fetch_result(&addr, ok.job).expect("result").failed);
        farm::shutdown(&addr).expect("shutdown");
        handle.join().expect("farm thread").expect("farm summary");
    }

    #[test]
    fn deadline_ms_kills_a_long_soak_while_the_farm_answers_healthz() {
        let (addr, handle) = boot_farm(1, 8);
        // A soak sized to run for many seconds, against a 200ms budget:
        // the nested sweep observes the deadline at a job boundary.
        let submitted = farm::submit_job(
            &addr,
            "{\"kind\": \"soak\", \"family\": \"ring\", \"budget\": 400, \"deadline_ms\": 200}",
        )
        .expect("submit soak");
        let result = farm::fetch_result(&addr, submitted.job).expect("deadline verdict");
        assert!(result.failed);
        assert!(
            result.document.contains("SERVE-JOB-DEADLINE"),
            "{}",
            result.document
        );
        let health = farm::healthz(&addr).expect("healthz");
        assert!(health.contains("\"status\": \"ok\""), "{health}");
        assert!(health.contains("\"workers\": 1"), "{health}");
        farm::shutdown(&addr).expect("shutdown");
        handle.join().expect("farm thread").expect("farm summary");
    }

    #[test]
    fn cancel_command_stops_a_running_soak() {
        let (addr, handle) = boot_farm(1, 8);
        let submitted = farm::submit_job(
            &addr,
            "{\"kind\": \"soak\", \"family\": \"ring\", \"budget\": 400}",
        )
        .expect("submit soak");
        let ack =
            call_full(&["cancel", "--addr", &addr, &submitted.job.to_string()]).expect("cancel");
        assert!(ack.text.contains("\"cancelled\": 1"), "{}", ack.text);
        let result = farm::fetch_result(&addr, submitted.job).unwrap_err();
        assert!(result.contains("cancelled"), "{result}");
        farm::shutdown(&addr).expect("shutdown");
        handle.join().expect("farm thread").expect("farm summary");

        let err = call_full(&["cancel", "not-a-number"]).unwrap_err();
        assert!(err.contains("numeric job id"), "{err}");
    }

    #[test]
    fn submit_deadline_flag_injects_the_spec_field() {
        let (addr, handle) = boot_farm(1, 8);
        let out = call_full(&[
            "submit",
            "--addr",
            &addr,
            "--deadline-ms",
            "200",
            "{\"kind\": \"soak\", \"family\": \"ring\", \"budget\": 400}",
        ])
        .expect("submit returns the deadline verdict document");
        assert!(out.failed);
        assert!(out.text.contains("SERVE-JOB-DEADLINE"), "{}", out.text);
        farm::shutdown(&addr).expect("shutdown");
        handle.join().expect("farm thread").expect("farm summary");
    }
}
