//! The farm-mixed work of the traced run: a journaled `simsym serve`
//! restarted on the state of a previous life, driven by a closed loop of
//! two clients.
//!
//! Each client posts a job, waits for its result, then posts the next, so
//! a slower farm receives less load. The clients hold at most one
//! connection each.

use crate::stats::{capped, median, Capped};
use crate::stream::{JobStream, Kind, SplitMix64};
use simsym_serve::{client, job_fingerprint, journal, spec};
use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client threads, and so the most connections open at once.
pub const CLIENTS: usize = 2;
/// Farm worker threads.
pub const WORKERS: &str = "2";
/// Most connections one farm life accepts from the benchmark. The farm
/// keeps every connection handler's thread stack mapped until it shuts
/// down, two mappings each, so a life that accepted more would run into
/// the kernel's default limit of 65530 mappings (`vm.max_map_count`) on a
/// fast host, and the farm's acceptor would die. The cap leaves room for
/// the farm's own mappings and the few `/healthz` polls of its start. A
/// phase that reaches the cap ends early; its rates are taken over its
/// actual length.
pub const MAX_CONNECTIONS_PER_LIFE: usize = 28_000;

/// Connections one job opens: submit and result, plus the event stream
/// when the phase watches events.
pub fn connections_per_job(watch: bool) -> usize {
    if watch {
        3
    } else {
        2
    }
}

/// How much farm work a traced run does.
#[derive(Clone, Copy, Debug)]
pub struct FarmSize {
    /// Jobs the previous farm life finishes before it shuts down.
    pub previous_jobs: usize,
    /// Restarts timed for `serve.restart_s`; the last one serves the phases.
    pub restarts: usize,
    /// Completed jobs after which the farm's memory is read. The farm
    /// keeps one thread stack per connection it ever accepted, so its
    /// virtual size depends on how many jobs it has served; reading it at a
    /// fixed count makes the figure repeat.
    pub memory_mark_jobs: usize,
    /// Seconds of each of the two timed phases.
    pub phase_s: f64,
    /// Windows the untraced phase is cut into; its rate and latencies are
    /// medians over them, so a burst of load from outside the benchmark
    /// that spoils one window does not move the figure.
    pub windows: usize,
}

/// Sampled misses per job kind that are re-run through the batch CLI.
pub const CLI_SAMPLES_PER_KIND: usize = 3;

/// The programs a farm run needs.
pub struct Bins {
    /// The `simsym` binary under test.
    pub simsym: PathBuf,
    /// The fsync shim preloaded into the farm (`src/nosync.rs`).
    pub nosync: PathBuf,
}

/// A running farm process.
pub struct FarmProc {
    child: Child,
    /// Its bound address.
    pub addr: String,
    stderr: Option<JoinHandle<Vec<String>>>,
    spawned: Instant,
    /// Connections the benchmark has opened to this life, or reserved.
    connections: AtomicUsize,
}

impl FarmProc {
    /// The farm's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Spawns `simsym serve` on `state_dir` with the fsync shim preloaded
    /// and waits until `/healthz` answers. Returns the farm and the spawn →
    /// healthy time.
    pub fn start(bins: &Bins, state_dir: &Path) -> Result<(FarmProc, Duration), String> {
        let spawned = Instant::now();
        let mut child = Command::new(&bins.simsym)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                WORKERS,
                "--state-dir",
            ])
            .arg(state_dir)
            .env("LD_PRELOAD", &bins.nosync)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bins.simsym.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut first = String::new();
        let _ = stderr.read_line(&mut first);
        let Some(addr) = first
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_owned)
        else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("farm did not start: {}", first.trim()));
        };
        let drain = std::thread::spawn(move || stderr.lines().map_while(Result::ok).collect());
        let mut farm = FarmProc {
            child,
            addr,
            stderr: Some(drain),
            spawned,
            connections: AtomicUsize::new(0),
        };
        let deadline = spawned + Duration::from_secs(60);
        while client::healthz(&farm.addr).is_err() {
            if Instant::now() > deadline {
                farm.kill();
                return Err("farm never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        let ready = spawned.elapsed();
        let maps = fs::read_to_string(format!("/proc/{}/maps", farm.pid())).unwrap_or_default();
        let shim = bins
            .nosync
            .file_name()
            .map(|n| n.to_string_lossy().into_owned());
        if !shim.is_some_and(|n| maps.contains(&n)) {
            farm.kill();
            return Err("the fsync shim was not loaded into the farm".into());
        }
        Ok((farm, ready))
    }

    /// Reserves `n` connections of this life's [`MAX_CONNECTIONS_PER_LIFE`];
    /// false, and nothing reserved, when they would not fit.
    pub fn reserve_connections(&self, n: usize) -> bool {
        reserve(&self.connections, n, MAX_CONNECTIONS_PER_LIFE)
    }

    /// Drains the farm through `/shutdown` and waits for it to exit.
    /// Returns the shutdown summary document and the farm's whole wall time.
    pub fn stop(mut self) -> Result<(String, Duration), String> {
        let summary = client::shutdown(&self.addr);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let wall = self.spawned.elapsed();
        let mut out = String::new();
        if let Some(mut stdout) = self.child.stdout.take() {
            let _ = stdout.read_to_string(&mut out);
        }
        let log = self.stderr.take().map(|h| h.join().unwrap_or_default());
        let summary = summary?;
        if !status.success() {
            return Err(format!(
                "farm exited with {status}: {}",
                log.unwrap_or_default().join("\n")
            ));
        }
        Ok((if out.is_empty() { summary } else { out }, wall))
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FarmProc {
    fn drop(&mut self) {
        if self.stderr.is_some() {
            self.kill();
        }
    }
}

/// Adds `n` to `used` if the sum stays within `cap`.
fn reserve(used: &AtomicUsize, n: usize, cap: usize) -> bool {
    used.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| {
        (u + n <= cap).then_some(u + n)
    })
    .is_ok()
}

/// A `/proc/<pid>/status` size field (`VmSize`, `VmHWM`, ...) in MiB.
pub fn proc_status_mb(pid: u32, key: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(&format!("{key}:")))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Copies a farm state directory (journal plus artifact store).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    if to.exists() {
        fs::remove_dir_all(to).map_err(|e| format!("cannot clear {}: {e}", to.display()))?;
    }
    fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), &target).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// One job as the client saw it. Times are nanoseconds on the phase clock.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Position in the job stream.
    pub index: u64,
    /// What the stream drew.
    pub kind: Kind,
    /// The posted spec.
    pub spec: String,
    /// Whether the ack said `"cache": "hit"`.
    pub hit: bool,
    /// Why the job failed, if it did.
    pub error: Option<String>,
    /// Submit sent.
    pub sent_ns: u64,
    /// Ack received.
    pub ack_ns: u64,
    /// Result body received.
    pub result_ns: u64,
    /// `started` event received (traced phase, misses only).
    pub started_ns: Option<u64>,
    /// `finished` event received (traced phase only).
    pub finished_ns: Option<u64>,
    /// The result document, kept for hits and sampled misses.
    pub document: Option<String>,
}

impl JobRecord {
    fn ms(from: u64, to: u64) -> f64 {
        to.saturating_sub(from) as f64 / 1e6
    }

    /// Submit sent → result received.
    pub fn result_ms(&self) -> f64 {
        JobRecord::ms(self.sent_ns, self.result_ns)
    }

    /// Submit sent → ack received.
    pub fn ack_ms(&self) -> f64 {
        JobRecord::ms(self.sent_ns, self.ack_ns)
    }
}

/// Whether the miss at stream position `index` is re-run through the
/// batch CLI: a seed-chosen one in sixteen, capped per kind later.
fn sampled(seed: u64, index: u64) -> bool {
    SplitMix64::new(seed ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d))
        .next_u64()
        .is_multiple_of(16)
}

/// Memory read at [`FarmSize::memory_mark_jobs`] completed jobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryMark {
    /// `VmSize`, MiB.
    pub vm_size_mb: f64,
    /// `VmHWM`, MiB.
    pub peak_rss_mb: f64,
}

struct Loop<'a> {
    farm: &'a FarmProc,
    seed: u64,
    stream: Mutex<(u64, JobStream)>,
    completed: AtomicUsize,
    /// Completed jobs at which memory is read; 0 reads none.
    mark_jobs: usize,
    mark: Mutex<Option<MemoryMark>>,
    origin: Instant,
    /// Whether a resubmit must be a cache hit. In the previous life it
    /// may not be: its original can still be queued on the other client.
    resubmits_hit: bool,
}

impl Loop<'_> {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs jobs while `more` holds and the life's connection budget has
    /// room for another job.
    fn client(&self, more: &(dyn Fn(&Loop) -> bool + Sync), watch: bool) -> Vec<JobRecord> {
        let mut out = Vec::new();
        while more(self) && self.farm.reserve_connections(connections_per_job(watch)) {
            let (index, job) = {
                let mut s = self.stream.lock().expect("stream lock");
                let index = s.0;
                s.0 += 1;
                (index, s.1.next_job())
            };
            let mut rec = JobRecord {
                index,
                kind: job.kind,
                spec: job.spec,
                hit: false,
                error: None,
                sent_ns: self.now_ns(),
                ack_ns: 0,
                result_ns: 0,
                started_ns: None,
                finished_ns: None,
                document: None,
            };
            match self.run_job(&mut rec, watch) {
                Ok(()) => {}
                Err(e) => rec.error = Some(e),
            }
            if rec.result_ns == 0 {
                rec.result_ns = self.now_ns();
            }
            let done = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
            if done == self.mark_jobs {
                let pid = self.farm.pid();
                *self.mark.lock().expect("mark lock") = Some(MemoryMark {
                    vm_size_mb: proc_status_mb(pid, "VmSize").unwrap_or(0.0),
                    peak_rss_mb: proc_status_mb(pid, "VmHWM").unwrap_or(0.0),
                });
            }
            out.push(rec);
        }
        out
    }

    fn run_job(&self, rec: &mut JobRecord, watch: bool) -> Result<(), String> {
        let addr = &self.farm.addr;
        let submitted = client::submit_job(addr, &rec.spec)?;
        rec.ack_ns = self.now_ns();
        rec.hit = submitted.cache == "hit";
        if watch {
            client::watch_events(addr, submitted.job, |line| {
                if line.contains("\"event\": \"started\"") {
                    rec.started_ns = Some(self.now_ns());
                } else if line.contains("\"event\": \"finished\"") {
                    rec.finished_ns = Some(self.now_ns());
                }
            })?;
        }
        let result = client::fetch_result(addr, submitted.job)?;
        rec.result_ns = self.now_ns();
        if result.failed {
            return Err("the job's run reported failure".into());
        }
        if self.resubmits_hit && (rec.kind == Kind::Resubmit) != rec.hit {
            return Err(format!(
                "a {} job came back as a cache {}",
                rec.kind.label(),
                submitted.cache
            ));
        }
        if rec.hit || (rec.kind != Kind::Resubmit && sampled(self.seed, rec.index)) {
            rec.document = Some(result.document);
        }
        Ok(())
    }
}

/// A closed-loop phase against a running farm.
pub struct Phase {
    /// Every job, in completion order per client.
    pub jobs: Vec<JobRecord>,
    /// First submit → last result, seconds.
    pub seconds: f64,
    /// Memory at `mark_jobs` jobs, if the phase got that far.
    pub mark: Option<MemoryMark>,
    /// Next stream position.
    pub next_index: u64,
}

/// Runs [`CLIENTS`] closed-loop clients against `farm` for `seconds`, or
/// until the farm's life has used up its [`MAX_CONNECTIONS_PER_LIFE`],
/// drawing from `stream` starting at position `index`; `watch` streams
/// each job's events, and memory is read after `mark_jobs` jobs. Returns
/// the phase and the stream, to continue it.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    farm: &FarmProc,
    seed: u64,
    stream: JobStream,
    index: u64,
    seconds: f64,
    watch: bool,
    mark_jobs: usize,
    origin: Instant,
) -> (Phase, JobStream) {
    let shared = Loop {
        farm,
        seed,
        stream: Mutex::new((index, stream)),
        completed: AtomicUsize::new(0),
        mark_jobs,
        mark: Mutex::new(None),
        origin,
        resubmits_hit: true,
    };
    let start = shared.now_ns();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut jobs: Vec<JobRecord> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| shared.client(&|_| Instant::now() < deadline, watch)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    jobs.sort_by_key(|j| j.index);
    let end = jobs.iter().map(|j| j.result_ns).max().unwrap_or(start);
    let (next_index, stream) = shared.stream.into_inner().expect("stream lock");
    let phase = Phase {
        seconds: end.saturating_sub(start) as f64 / 1e9,
        mark: shared.mark.into_inner().expect("mark lock"),
        jobs,
        next_index,
    };
    (phase, stream)
}

/// The previous farm life, ready to restart on.
pub struct PreviousLife {
    /// Its state directory (never served from again; copies are).
    pub dir: PathBuf,
    /// The specs it finished: the resubmit pool of the timed stream.
    pub pool: Vec<String>,
}

/// Runs the previous farm life for `seed` in `dir`: `jobs` jobs.
pub fn previous_life(
    bins: &Bins,
    dir: &Path,
    seed: u64,
    jobs: usize,
) -> Result<PreviousLife, String> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let (farm, _) = FarmProc::start(bins, dir)?;
    let stream = JobStream::previous_life(seed);
    let target = jobs;
    let shared = Loop {
        farm: &farm,
        seed,
        stream: Mutex::new((0, stream)),
        completed: AtomicUsize::new(0),
        mark_jobs: 0,
        mark: Mutex::new(None),
        origin: Instant::now(),
        resubmits_hit: false,
    };
    let jobs: Vec<JobRecord> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| shared.client(&|l| l.completed.load(Ordering::Relaxed) < target, false))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    if let Some(bad) = jobs.iter().find(|j| j.error.is_some()) {
        return Err(format!(
            "previous life job {} failed: {}",
            bad.spec,
            bad.error.as_deref().unwrap_or("")
        ));
    }
    farm.stop()?;
    let mut pool: Vec<String> = jobs.into_iter().map(|j| j.spec).collect();
    pool.sort_unstable();
    pool.dedup();
    Ok(PreviousLife {
        dir: dir.to_owned(),
        pool,
    })
}

/// Checks the phase's documents: every hit byte-identical to the previous
/// life's stored artifact, and a seed-chosen sample of misses of each
/// kind byte-identical to the batch CLI's output for the same argv. Marks
/// failing jobs and returns how many CLI runs were compared.
pub fn check_documents(bin: &Path, previous: &Path, jobs: &mut [JobRecord]) -> usize {
    let mut per_kind = std::collections::BTreeMap::<Kind, usize>::new();
    let mut compared = 0;
    for job in jobs.iter_mut().filter(|j| j.error.is_none()) {
        let Some(doc) = job.document.take() else {
            continue;
        };
        let argv = match spec::job_argv(&job.spec) {
            Ok(argv) => argv,
            Err(e) => {
                job.error = Some(e);
                continue;
            }
        };
        let expected = if job.hit {
            journal::read_artifact(previous, job_fingerprint(&argv))
        } else {
            let n = per_kind.entry(job.kind).or_insert(0);
            if *n >= CLI_SAMPLES_PER_KIND {
                continue;
            }
            *n += 1;
            compared += 1;
            Command::new(bin)
                .args(&argv)
                .stderr(Stdio::null())
                .output()
                .ok()
                .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
        };
        if expected.as_deref() != Some(doc.as_str()) {
            job.error = Some(format!(
                "{} document differs from the {}",
                job.kind.label(),
                if job.hit {
                    "previous life's artifact"
                } else {
                    "batch CLI's output"
                }
            ));
        }
    }
    compared
}

/// Figures of one window of a phase, over the jobs that succeeded.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Jobs whose result arrived in the window, per second.
    pub jobs_per_s: f64,
    /// Result latency p50.
    pub result_p50: Capped,
    /// Result latency p90, capped to what the samples support.
    pub result_p90: Capped,
    /// Ack latency p50.
    pub ack_p50: Capped,
}

/// A phase's rate and latencies: each the median over its windows.
#[derive(Clone, Copy, Debug)]
pub struct Figures {
    /// Jobs completed per second.
    pub jobs_per_s: f64,
    /// Result latency p50, ms.
    pub result_p50_ms: f64,
    /// Result latency p90, ms.
    pub result_p90_ms: f64,
    /// Ack latency p50, ms.
    pub ack_p50_ms: f64,
}

/// [`Figures`] of `windows`, or `None` when no job succeeded.
pub fn figures(windows: &[Window]) -> Option<Figures> {
    if windows.is_empty() {
        return None;
    }
    let over = |f: fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    Some(Figures {
        jobs_per_s: over(|w| w.jobs_per_s),
        result_p50_ms: over(|w| w.result_p50.value),
        result_p90_ms: over(|w| w.result_p90.value),
        ack_p50_ms: over(|w| w.ack_p50.value),
    })
}

/// Cuts `phase` into `n` equal windows by result time.
pub fn windows(phase: &Phase, n: usize) -> Vec<Window> {
    let ok: Vec<&JobRecord> = phase.jobs.iter().filter(|j| j.error.is_none()).collect();
    let (Some(start), Some(end)) = (
        ok.iter().map(|j| j.sent_ns).min(),
        ok.iter().map(|j| j.result_ns).max(),
    ) else {
        return Vec::new();
    };
    let width = (end - start).max(1) as f64 / n as f64;
    let mut buckets: Vec<Vec<&JobRecord>> = vec![Vec::new(); n];
    for j in ok {
        let i = ((j.result_ns - start) as f64 / width) as usize;
        buckets[i.min(n - 1)].push(j);
    }
    buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| {
            let result: Vec<f64> = b.iter().map(|j| j.result_ms()).collect();
            let ack: Vec<f64> = b.iter().map(|j| j.ack_ms()).collect();
            Window {
                jobs_per_s: b.len() as f64 / (width / 1e9),
                result_p50: capped(&result, 500),
                result_p90: capped(&result, 900),
                ack_p50: capped(&ack, 500),
            }
        })
        .collect()
}

/// Restarts the farm `restarts` times on fresh copies of the previous
/// life's state, timing spawn → healthy each time; the last restart keeps
/// running. Returns it and the median restart time in seconds.
pub fn restart_timed(
    bins: &Bins,
    previous: &Path,
    life: &Path,
    restarts: usize,
) -> Result<(FarmProc, f64), String> {
    let restarts = restarts.max(1);
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..restarts {
        copy_dir(previous, life)?;
        let (farm, ready) = FarmProc::start(bins, life)?;
        times.push(ready.as_secs_f64());
        if rep + 1 < restarts {
            farm.stop()?;
        } else {
            last = Some(farm);
        }
    }
    Ok((last.expect("at least one restart"), median(&times)))
}

/// The `/shutdown` summary's count for `key`.
pub fn summary_count(summary: &str, key: &str) -> Option<u64> {
    match spec::flat_field(summary.trim(), key) {
        Some(spec::SpecValue::Int(n)) => u64::try_from(n).ok(),
        _ => None,
    }
}

/// Cross-checks the client's counts against the farm's summary: every
/// hit the client saw is a farm cache hit and every miss a completed run.
pub fn summary_agrees<'a>(summary: &str, jobs: impl IntoIterator<Item = &'a JobRecord>) -> bool {
    let answered: Vec<&JobRecord> = jobs.into_iter().filter(|j| j.ack_ns > 0).collect();
    let hits = answered.iter().filter(|j| j.hit).count() as u64;
    let misses = answered.len() as u64 - hits;
    summary_count(summary, "cache_hits") == Some(hits)
        && summary_count(summary, "completed") == Some(misses)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel's default `vm.max_map_count`.
    const DEFAULT_MAX_MAP_COUNT: usize = 65_530;

    #[test]
    fn a_full_life_stays_under_the_kernel_mapping_limit() {
        // Two mappings per accepted connection, plus a margin for the
        // farm's own libraries, heap and threads.
        const { assert!(2 * MAX_CONNECTIONS_PER_LIFE + 4_000 < DEFAULT_MAX_MAP_COUNT) };
    }

    #[test]
    fn reservations_never_pass_the_cap_whatever_the_mix() {
        let used = AtomicUsize::new(0);
        // An untraced phase (2 per job) followed by a traced one (3 per
        // job) on the same life, as the traced run does.
        let untraced = (0..)
            .take_while(|_| reserve(&used, connections_per_job(false), 100))
            .count();
        assert_eq!(untraced, 50);
        assert!(!reserve(&used, connections_per_job(true), 100));
        let used = AtomicUsize::new(0);
        let mut jobs = 0;
        for watch in [false, true].iter().cycle().take(1000) {
            if reserve(&used, connections_per_job(*watch), 101) {
                jobs += 1;
            }
        }
        assert!(used.load(Ordering::Relaxed) <= 101);
        assert_eq!(jobs, 40, "20 pairs of 2 + 3 connections fit in 101");
    }
}
