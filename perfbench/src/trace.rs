//! The traced run: a workload's work rebuilt from the public calls the CLI
//! and the farm client make, with a span at each layer boundary, and the
//! per-layer figures derived from those spans.
//!
//! The named workload's own work runs at full size. Every per-layer metric
//! exists in every traced run, so the layers the workload does not use are
//! measured on a small instance (see [`plan`]); they are predicted not to
//! change with it. The farm's layers run at full size in the
//! verify-quotient run only.

use crate::farm::{self, Bins, FarmProc, FarmSize, JobRecord, Phase};
use crate::layers::{self, VerifySize, VerifyTrace};
use crate::report::Report;
use crate::spans::{self, Span, Tracer};
use crate::stats::{capped, median, per_call_ns};
use crate::stream::{JobStream, Kind};
use simsym_serve::{job_fingerprint, journal, spec, JobOutput, JobRunner, ServeConfig, Server};
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Largest share by which the per-layer self times may miss the traced
/// total: they match exactly unless sibling spans overlap.
pub const SELF_SUM_TOLERANCE: f64 = 0.01;

/// A runner for binding a farm without running jobs.
struct NoRunner;

impl JobRunner for NoRunner {
    fn run(&self, _argv: &[String]) -> Result<JobOutput, String> {
        Err("the bind timing runs no jobs".into())
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

struct FarmTrace {
    untraced: Phase,
    traced: Phase,
    replay_ms: f64,
    bind_ms: f64,
    spec_parse_us: f64,
    journal_sync_us: f64,
    artifact_write_us: f64,
    journal_sync_disk_us: f64,
    artifact_write_disk_us: f64,
    restart_s: f64,
    summary_ok: bool,
    job_spans: Vec<Span>,
}

/// Median microseconds of `JobJournal::append` + `sync` and of
/// `journal::write_artifact` in a fresh `dir`, with whatever `fsync` the
/// process links: the device's, or the shim's when it is preloaded.
pub fn sync_probe(dir: &Path) -> Result<(f64, f64), String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let spec = "{\"kind\": \"lint\", \"system\": \"ring:5\", \"seed\": 12345}";
    let (mut jj, _) = journal::JobJournal::open(dir)?;
    let journal_us = per_call_ns(5, 40, |i| {
        jj.append(&journal::record::submit(i as u64, i as u64, spec))
            .expect("journal append");
        jj.sync().expect("journal sync");
    }) / 1e3;
    let document =
        "{\"schema\": \"simsym-lint/v1\", \"system\": \"ring:5\", \"diagnostics\": []}\n";
    let artifact_us = per_call_ns(5, 40, |i| {
        journal::write_artifact(dir, 0x5eed_0000 + i as u64, document).expect("artifact write");
    }) / 1e3;
    Ok((journal_us, artifact_us))
}

/// [`sync_probe`] in a child process with the fsync shim preloaded, as the
/// farm runs.
fn sync_probe_shimmed(bins: &Bins, dir: &Path) -> Result<(f64, f64), String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(me)
        .arg("sync-probe")
        .arg(dir)
        .env("LD_PRELOAD", &bins.nosync)
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut it = text.split_whitespace().map(str::parse::<f64>);
    match (out.status.success(), it.next(), it.next()) {
        (true, Some(Ok(j)), Some(Ok(a))) => Ok((j, a)),
        _ => Err(format!(
            "sync probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// How much of each workload's work one traced run does.
struct Plan {
    verify: VerifySize,
    soak_runs: usize,
    farm: FarmSize,
}

/// The [`Plan`] of `workload`'s traced run: its own work at full size,
/// the rest small. The farm is a workload of the traced run only; its
/// full size rides with verify-quotient, whose own work is the shorter.
fn plan(workload: &str, seconds: f64) -> Result<Plan, String> {
    match workload {
        "verify-quotient" => Ok(Plan {
            verify: layers::VERIFY_FULL,
            soak_runs: layers::SOAK_SMALL_RUNS,
            farm: FarmSize {
                previous_jobs: 2000,
                restarts: 9,
                memory_mark_jobs: 1500,
                phase_s: (seconds / 5.0).max(2.0),
                windows: 10,
            },
        }),
        "soak-journal" => Ok(Plan {
            verify: layers::VERIFY_SMALL,
            soak_runs: layers::SOAK_RUNS,
            farm: FarmSize {
                previous_jobs: 200,
                restarts: 3,
                memory_mark_jobs: 300,
                phase_s: 1.0,
                windows: 2,
            },
        }),
        other => Err(format!("no traced run for workload {other:?}")),
    }
}

fn trace_farm(
    t: &mut Tracer,
    bins: &Bins,
    work: &Path,
    seed: u64,
    size: FarmSize,
) -> Result<FarmTrace, String> {
    let prev = t.span("bench.farm.previous_life", |_| {
        farm::previous_life(bins, &work.join("previous"), seed, size.previous_jobs)
    })?;
    let bytes = fs::read(prev.dir.join(journal::JOURNAL_FILE)).map_err(|e| e.to_string())?;
    let replay_ms = t.span("serve.replay", |_| {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let s = Instant::now();
                black_box(journal::replay(&bytes).ok().map(|r| r.jobs.len()));
                ms_since(s)
            })
            .collect();
        median(&samples)
    });
    let mut binds = Vec::new();
    for _ in 0..3 {
        let dir = work.join("bind");
        t.span("bench.farm.copy", |_| farm::copy_dir(&prev.dir, &dir))?;
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            state_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        };
        let ms = t.span("serve.bind", |_| {
            let s = Instant::now();
            let server = Server::bind(config, Arc::new(NoRunner));
            let ms = ms_since(s);
            server.map(|_| ms)
        })?;
        binds.push(ms);
    }

    let (running, restart_s) = t.span("serve.restart", |_| {
        farm::restart_timed(bins, &prev.dir, &work.join("life"), size.restarts)
    })?;
    let origin = t.origin();
    let (mut untraced, stream) = t.span("serve.phase.untraced", |_| {
        farm::run_phase(
            &running,
            seed,
            JobStream::new(seed, prev.pool.clone()),
            0,
            size.phase_s,
            false,
            size.memory_mark_jobs,
            origin,
        )
    });
    let mut traced = t.span("serve.phase.traced", |t| {
        let (phase, _) = farm::run_phase(
            &running,
            seed,
            stream,
            untraced.next_index,
            size.phase_s,
            true,
            0,
            origin,
        );
        charge_job_layers(t, &phase);
        phase
    });
    let (summary, _) = t.span("bench.farm.stop", |_| FarmProc::stop(running))?;
    let summary_ok = farm::summary_agrees(&summary, untraced.jobs.iter().chain(&traced.jobs));
    t.span("bench.farm.check", |_| {
        farm::check_documents(&bins.simsym, &prev.dir, &mut untraced.jobs);
        farm::check_documents(&bins.simsym, &prev.dir, &mut traced.jobs);
    });

    let specs: Vec<String> = {
        let mut s = JobStream::new(seed, prev.pool.clone());
        (0..2000).map(|_| s.next_job().spec).collect()
    };
    let spec_parse_us = t.span("serve.spec_parse", |_| {
        per_call_ns(5, specs.len(), |i| {
            let argv = spec::job_request(&specs[i])
                .expect("stream specs parse")
                .argv;
            black_box(job_fingerprint(&argv));
        }) / 1e3
    });
    let (journal_sync_us, artifact_write_us) = t.span("serve.sync_probe", |_| {
        sync_probe_shimmed(bins, &work.join("sync"))
    })?;
    let (journal_sync_disk_us, artifact_write_disk_us) = t.span("serve.sync_probe.disk", |_| {
        sync_probe(&work.join("sync-disk"))
    })?;

    let job_spans = job_spans(&traced);
    Ok(FarmTrace {
        untraced,
        traced,
        replay_ms,
        bind_ms: median(&binds),
        spec_parse_us,
        journal_sync_us,
        artifact_write_us,
        journal_sync_disk_us,
        artifact_write_disk_us,
        restart_s,
        summary_ok,
        job_spans,
    })
}

/// Charges the traced phase's client-observed time to the serve layer's
/// stages. Two clients overlap in time, so each stage is charged its share
/// of the phase's wall time rather than its summed time.
fn charge_job_layers(t: &mut Tracer, phase: &Phase) {
    let mut ack = 0u64;
    let mut queue = 0u64;
    let mut run = 0u64;
    let mut rest = 0u64;
    for j in &phase.jobs {
        let total = j.result_ns.saturating_sub(j.sent_ns);
        let a = j.ack_ns.saturating_sub(j.sent_ns);
        let (q, r) = match (j.started_ns, j.finished_ns) {
            (Some(s), Some(f)) => (s.saturating_sub(j.ack_ns), f.saturating_sub(s)),
            _ => (0, 0),
        };
        ack += a;
        queue += q;
        run += r;
        rest += total.saturating_sub(a + q + r);
    }
    let client_ns = (ack + queue + run + rest).max(1) as f64;
    let wall_ns = phase.seconds * 1e9;
    let scale = |ns: u64| (ns as f64 * wall_ns / client_ns) as u64;
    let n = phase.jobs.len() as u64;
    t.aggregate("serve.ack", n, scale(ack));
    t.aggregate("serve.queue_wait", n, scale(queue));
    t.aggregate("serve.run", n, scale(run));
    t.aggregate("serve.result", n, scale(rest));
}

/// One span tree per traced job, sharing the job's stream position as
/// trace id, on the tracer's clock.
fn job_spans(phase: &Phase) -> Vec<Span> {
    let mut out = Vec::new();
    for j in &phase.jobs {
        let root = out.len();
        let span = |name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64| Span {
            name: name.to_owned(),
            trace: j.index,
            parent,
            start_ns,
            end_ns,
            count: 1,
            aggregate: false,
        };
        out.push(span("serve.job", None, j.sent_ns, j.result_ns));
        out.push(span("serve.ack", Some(root), j.sent_ns, j.ack_ns));
        if let (Some(s), Some(f)) = (j.started_ns, j.finished_ns) {
            out.push(span("serve.queue_wait", Some(root), j.ack_ns, s));
            out.push(span("serve.run", Some(root), s, f));
        }
    }
    out
}

fn cli_startup_ms(bin: &Path) -> Result<f64, String> {
    let mut samples = Vec::new();
    for _ in 0..15 {
        let s = Instant::now();
        let status = Command::new(bin)
            .arg("list")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("simsym list exited with {status}"));
        }
        samples.push(ms_since(s));
    }
    Ok(median(&samples))
}

fn share(traced: f64, untraced: f64) -> f64 {
    traced / untraced.max(f64::MIN_POSITIVE) - 1.0
}

fn ms_values(jobs: &[&JobRecord], f: impl Fn(&JobRecord) -> Option<f64>) -> Vec<f64> {
    jobs.iter().filter_map(|j| f(j)).collect()
}

/// Runs `workload`'s traced run and reports every per-layer metric. The
/// spans go to `spans_out` as NDJSON.
pub fn run(
    workload: &str,
    bins: &Bins,
    work: &Path,
    seed: u64,
    seconds: f64,
    spans_out: &Path,
) -> Result<Report, String> {
    let plan = plan(workload, seconds)?;
    let mut tracer = Tracer::new();
    let (verify, soak, farm, calls, startup) = tracer.span("bench.trace", |t| {
        let verify = t.span("bench.workload.verify-quotient", |t| {
            layers::trace_verify(t, plan.verify)
        });
        let soak = t.span("bench.workload.soak-journal", |t| {
            layers::trace_soak(t, seed, plan.soak_runs)
        });
        let farm = t.span("bench.workload.farm-mixed", |t| {
            trace_farm(t, bins, work, seed, plan.farm)
        });
        let calls = t.span("bench.calls", layers::time_calls);
        let startup = t.span("cli.startup", |_| cli_startup_ms(&bins.simsym));
        (verify, soak, farm, calls, startup)
    });
    let farm = farm?;
    let startup = startup?;

    let tree = tracer.spans();
    let nesting = spans::nesting_errors(tree);
    let total_ns = tree[0].duration_ns() as f64;
    let layers = spans::layer_self_times(tree);
    let self_sum: u64 = layers.values().sum();
    let self_error = (self_sum as f64 - total_ns).abs() / total_ns;
    let mut ndjson = spans::to_ndjson(tree, 0);
    ndjson.push_str(&spans::to_ndjson(&farm.job_spans, tree.len()));
    if let Some(dir) = spans_out.parent() {
        fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    fs::write(spans_out, ndjson).map_err(|e| e.to_string())?;

    let VerifyTrace {
        quotient,
        identity,
        untraced_ns,
        correct: verify_ok,
    } = verify;
    let mut r = Report::default();
    r.put("graph.automorphism_us", calls.automorphism_ns / 1e3, "us");
    r.put(
        "core.selection_program_us",
        calls.selection_program_ns / 1e3,
        "us",
    );
    r.put("core.hopcroft_us", calls.hopcroft_ns / 1e3, "us");
    r.put("vm.explore.quotient_s", quotient.ns as f64 / 1e9, "s");
    r.put("vm.explore.identity_s", identity.ns as f64 / 1e9, "s");
    for (mode, s) in [("quotient", &quotient), ("identity", &identity)] {
        let arrivals = s.result.states_seen as f64;
        r.put(&format!("vm.explore.arrivals.{mode}"), arrivals, "count");
        r.put(
            &format!("vm.explore.states.{mode}"),
            s.result.states_visited as f64,
            "count",
        );
        r.put(
            &format!("vm.explore.self_ns_per_arrival.{mode}"),
            s.ns.saturating_sub(s.canon_ns) as f64 / arrivals.max(1.0),
            "ns",
        );
        r.put(
            &format!("vm.visited.peak_bytes.{mode}"),
            s.result.peak_visited_bytes as f64,
            "B",
        );
    }
    r.put(
        "vm.reduce.canonicalize_calls",
        quotient.canon_calls as f64,
        "count",
    );
    r.put(
        "vm.reduce.canonicalize_ns",
        quotient.canon_ns as f64 / (quotient.canon_calls.max(1)) as f64,
        "ns",
    );
    r.put(
        "vm.reduce.canonicalize_share",
        quotient.canon_ns as f64 / quotient.ns.max(1) as f64,
        "share",
    );
    r.put("vm.machine.step_undo_ns", calls.step_undo_ns, "ns");
    r.put("vm.engine.steps", soak.steps as f64, "count");
    r.put("vm.faults.step_ns", soak.faults_step_ns, "ns");
    r.put(
        "check.fault_tolerance.observe_ns",
        soak.checker_observe_ns,
        "ns",
    );
    r.put("vm.trace.record_ns", soak.recorder_ns, "ns");
    r.put("vm.schedule.next_ns", soak.sched_next_ns, "ns");
    r.put("vm.sweep.run_ms_p50", median(&soak.run_ms), "ms");
    r.put(
        "vm.sweep.run_ms_max",
        soak.run_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    r.put("vm.sweep.busy_share", soak.busy_share, "share");

    let untraced_ok: Vec<&JobRecord> = farm
        .untraced
        .jobs
        .iter()
        .filter(|j| j.error.is_none())
        .collect();
    let traced_ok: Vec<&JobRecord> = farm
        .traced
        .jobs
        .iter()
        .filter(|j| j.error.is_none())
        .collect();
    let hit = ms_values(&untraced_ok, |j| j.hit.then(|| j.result_ms()));
    let miss = ms_values(&untraced_ok, |j| (!j.hit).then(|| j.result_ms()));
    let all = ms_values(&untraced_ok, |j| Some(j.result_ms()));
    let queue = ms_values(&traced_ok, |j| {
        Some(j.started_ns?.saturating_sub(j.ack_ns) as f64 / 1e6)
    });
    let runs = ms_values(&traced_ok, |j| {
        Some(j.finished_ns?.saturating_sub(j.started_ns?) as f64 / 1e6)
    });
    let pct = |v: &[f64], p: u32| {
        if v.is_empty() {
            0.0
        } else {
            capped(v, p).value
        }
    };
    r.put("serve.hit_result_p50_ms", pct(&hit, 500), "ms");
    r.put("serve.miss_result_p50_ms", pct(&miss, 500), "ms");
    r.put("serve.result_p99_ms", pct(&all, 990), "ms");
    r.put("serve.queue_wait_p50_ms", pct(&queue, 500), "ms");
    r.put("serve.queue_wait_p90_ms", pct(&queue, 900), "ms");
    r.put("serve.run_p50_ms", pct(&runs, 500), "ms");
    // The farm's end-to-end figures, from the untraced phase: gated
    // nowhere, because run to run they swing by more than the bound a gate
    // could hold on a shared host (see README.md).
    let fig = farm::figures(&farm::windows(&farm.untraced, plan.farm.windows));
    let mark = farm.untraced.mark.unwrap_or_default();
    r.put("serve.restart_s", farm.restart_s, "s");
    r.put(
        "serve.jobs_per_s",
        fig.map_or(0.0, |f| f.jobs_per_s),
        "jobs/s",
    );
    r.put(
        "serve.result_p50_ms",
        fig.map_or(0.0, |f| f.result_p50_ms),
        "ms",
    );
    r.put(
        "serve.result_p90_ms",
        fig.map_or(0.0, |f| f.result_p90_ms),
        "ms",
    );
    r.put("serve.ack_p50_ms", fig.map_or(0.0, |f| f.ack_p50_ms), "ms");
    r.put("serve.peak_rss_mb", mark.peak_rss_mb, "MiB");
    r.put("serve.vm_size_mb", mark.vm_size_mb, "MiB");
    r.put("serve.spec_parse_us", farm.spec_parse_us, "us");
    r.put("serve.journal_sync_us", farm.journal_sync_us, "us");
    r.put("serve.artifact_write_us", farm.artifact_write_us, "us");
    r.put(
        "serve.journal_sync_disk_us",
        farm.journal_sync_disk_us,
        "us",
    );
    r.put(
        "serve.artifact_write_disk_us",
        farm.artifact_write_disk_us,
        "us",
    );
    r.put("serve.replay_ms", farm.replay_ms, "ms");
    r.put("serve.bind_ms", farm.bind_ms, "ms");
    let farm_jobs: Vec<&JobRecord> = farm.untraced.jobs.iter().chain(&farm.traced.jobs).collect();
    let farm_failed = farm_jobs.iter().filter(|j| j.error.is_some()).count();
    r.put("serve.jobs", farm_jobs.len() as f64, "count");
    r.put("serve.failed", farm_failed as f64, "count");
    r.put(
        "serve.cache_hits",
        farm_jobs.iter().filter(|j| j.hit).count() as f64,
        "count",
    );
    r.put("cli.startup_ms", startup, "ms");

    let rate = |p: &Phase| p.jobs.len() as f64 / p.seconds.max(1e-9);
    r.put(
        "trace.overhead_share.verify-quotient",
        share((quotient.ns + identity.ns) as f64, untraced_ns as f64),
        "share",
    );
    r.put(
        "trace.overhead_share.soak-journal",
        share(soak.wall_ns as f64, soak.untraced_ns as f64),
        "share",
    );
    r.put(
        "trace.overhead_share.farm-mixed",
        share(rate(&farm.untraced), rate(&farm.traced)),
        "share",
    );
    r.put("trace.self_sum_error_share", self_error, "share");
    r.put("trace.total_s", total_ns / 1e9, "s");
    for layer in ["graph", "core", "vm", "check", "serve", "cli", "bench"] {
        let ns = layers.get(layer).copied().unwrap_or(0);
        r.put(&format!("trace.self_s.{layer}"), ns as f64 / 1e9, "s");
    }
    r.put(
        "trace.spans",
        (tree.len() + farm.job_spans.len()) as f64,
        "count",
    );

    r.attempted = 2 + soak.runs + farm_jobs.len();
    r.failed = usize::from(!verify_ok) * 2 + if soak.correct { 0 } else { soak.runs } + farm_failed;
    let kinds_seen = Kind::ALL
        .iter()
        .all(|k| farm_jobs.iter().any(|j| j.kind == *k));
    r.note(&format!(
        "sizes: verify ring:{}, soak {} sweep runs, farm {} previous-life jobs, {} restarts, two {:.1}s phases",
        plan.verify.procs, plan.soak_runs, plan.farm.previous_jobs, plan.farm.restarts, plan.farm.phase_s
    ));
    r.correct = r.failed == 0
        && farm.summary_ok
        && farm.untraced.mark.is_some()
        && kinds_seen
        && nesting.is_empty()
        && self_error <= SELF_SUM_TOLERANCE;
    for e in nesting.iter().take(5) {
        r.note(&format!("nesting: {e}"));
    }
    r.note(&format!(
        "self times sum to {:.6}s of a {:.6}s traced total (tolerance {})",
        self_sum as f64 / 1e9,
        total_ns / 1e9,
        SELF_SUM_TOLERANCE
    ));
    r.note(&format!(
        "farm phases: untraced {} jobs in {:.2}s, traced {} jobs in {:.2}s; percentiles from {} hit, {} miss, {} queue samples",
        farm.untraced.jobs.len(),
        farm.untraced.seconds,
        farm.traced.jobs.len(),
        farm.traced.seconds,
        hit.len(),
        miss.len(),
        queue.len()
    ));
    Ok(r)
}
