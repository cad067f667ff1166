//! The farm workload's job stream: deterministic per seed.
//!
//! Most jobs are short misses with fresh seeds, a fifth resubmit a spec
//! from a pool (the previous farm life's jobs, so they are cache hits),
//! and a few are `verify` runs of tens of milliseconds that hold a worker
//! while later jobs wait behind them. The verify share is kept low enough
//! that the jobs slowed by a verify (the verify and about one job of the
//! other client) stay well under a tenth of the stream, so p90 sits inside
//! the short-job population rather than on its edge.
//!
//! The stream is drawn in blocks of 100 that hold the mix exactly, each
//! block shuffled by the seed. A verify costs as much as a few dozen short
//! jobs, so a count that wandered with the seed would move throughput by
//! itself; within a block only the order does.

/// What a stream entry asks the farm for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `lint ring:5` with a fresh seed.
    LintRing,
    /// `lint table:5` with a fresh seed.
    LintTable,
    /// `faults --plan crash` on the ring with a fresh seed.
    Faults,
    /// A resubmitted spec from the pool.
    Resubmit,
    /// `verify` of ring:4 at a varied depth and state budget.
    Verify,
}

impl Kind {
    /// Every kind, in [`MIX`] order.
    pub const ALL: [Kind; 5] = [
        Kind::LintRing,
        Kind::LintTable,
        Kind::Faults,
        Kind::Resubmit,
        Kind::Verify,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Kind::LintRing => "lint-ring",
            Kind::LintTable => "lint-table",
            Kind::Faults => "faults",
            Kind::Resubmit => "resubmit",
            Kind::Verify => "verify",
        }
    }
}

/// The mix, in per-cent of the stream: each block of 100 jobs holds
/// exactly these counts.
pub const MIX: [(Kind, u32); 5] = [
    (Kind::LintRing, 32),
    (Kind::LintTable, 25),
    (Kind::Faults, 20),
    (Kind::Resubmit, 20),
    (Kind::Verify, 3),
];

/// One job of the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    /// What was drawn (a resubmit keeps this kind even though its spec is
    /// another kind's).
    pub kind: Kind,
    /// The flat JSON spec posted to `POST /jobs`.
    pub spec: String,
}

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator started from `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Salt that moves the previous farm life onto its own seed stream.
const PREVIOUS_LIFE_SALT: u64 = 0x7072_6576_6c69_6665;

/// A deterministic, endless job stream.
pub struct JobStream {
    rng: SplitMix64,
    pool: Vec<String>,
    grow_pool: bool,
    block: Vec<Kind>,
}

impl JobStream {
    /// The timed stream for `seed`: resubmits draw from `pool`, the specs
    /// the previous farm life finished.
    pub fn new(seed: u64, pool: Vec<String>) -> JobStream {
        JobStream {
            rng: SplitMix64::new(seed),
            pool,
            grow_pool: false,
            block: Vec::new(),
        }
    }

    /// The previous farm life's stream for `seed`: the same generator on
    /// another seed stream; its resubmits draw from its own earlier jobs.
    pub fn previous_life(seed: u64) -> JobStream {
        JobStream {
            rng: SplitMix64::new(seed ^ PREVIOUS_LIFE_SALT),
            pool: Vec::new(),
            grow_pool: true,
            block: Vec::new(),
        }
    }

    /// The next job.
    pub fn next_job(&mut self) -> Job {
        if self.block.is_empty() {
            for (kind, count) in MIX {
                self.block.extend((0..count).map(|_| kind));
            }
            // Fisher-Yates; jobs are taken from the end.
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        let kind = self.block.pop().expect("block refilled above");
        let fresh = self.rng.next_u64() >> 24;
        let spec = match kind {
            Kind::Resubmit if !self.pool.is_empty() => {
                let i = self.rng.below(self.pool.len() as u64) as usize;
                return Job {
                    kind,
                    spec: self.pool[i].clone(),
                };
            }
            Kind::LintRing | Kind::Resubmit => {
                format!("{{\"kind\": \"lint\", \"system\": \"ring:5\", \"seed\": {fresh}}}")
            }
            Kind::LintTable => {
                format!("{{\"kind\": \"lint\", \"system\": \"table:5\", \"seed\": {fresh}}}")
            }
            Kind::Faults => format!(
                "{{\"kind\": \"faults\", \"family\": \"ring\", \"plan\": \"crash\", \"seed\": {fresh}}}"
            ),
            Kind::Verify => {
                let depth = 12 + fresh % 29;
                let states = 200_000 + (fresh >> 8) % 800_000;
                format!(
                    "{{\"kind\": \"verify\", \"family\": \"ring\", \"procs\": 4, \"reduce\": \"none\", \"depth\": {depth}, \"states\": {states}}}"
                )
            }
        };
        if self.grow_pool {
            self.pool.push(spec.clone());
        }
        Job { kind, spec }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsym_serve::spec::job_request;

    fn take(stream: &mut JobStream, n: usize) -> Vec<Job> {
        (0..n).map(|_| stream.next_job()).collect()
    }

    #[test]
    fn the_stream_is_deterministic_per_seed() {
        let pool = vec!["{\"kind\": \"lint\", \"system\": \"ring:5\", \"seed\": 1}".to_owned()];
        let a = take(&mut JobStream::new(7, pool.clone()), 2000);
        let b = take(&mut JobStream::new(7, pool.clone()), 2000);
        let c = take(&mut JobStream::new(8, pool), 2000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let p = take(&mut JobStream::previous_life(7), 2000);
        assert_eq!(p, take(&mut JobStream::previous_life(7), 2000));
        assert_ne!(
            p.iter().map(|j| &j.spec).collect::<Vec<_>>(),
            a.iter().map(|j| &j.spec).collect::<Vec<_>>(),
            "the previous life runs on its own seed stream"
        );
    }

    #[test]
    fn the_stream_holds_its_stated_mix() {
        let pool = take(&mut JobStream::previous_life(3), 500)
            .into_iter()
            .map(|j| j.spec)
            .collect::<Vec<_>>();
        assert_eq!(MIX.iter().map(|(_, share)| share).sum::<u32>(), 100);
        let n = 40_000;
        let jobs = take(&mut JobStream::new(3, pool.clone()), n);
        // Every block of 100 holds the mix exactly.
        for block in jobs.chunks(100) {
            for (kind, share) in MIX {
                let seen = block.iter().filter(|j| j.kind == kind).count();
                assert_eq!(seen, share as usize, "{} in a block", kind.label());
            }
        }
        // The order within blocks still depends on the seed.
        let other = take(&mut JobStream::new(4, pool.clone()), 100);
        assert_ne!(
            jobs[..100].iter().map(|j| j.kind).collect::<Vec<_>>(),
            other.iter().map(|j| j.kind).collect::<Vec<_>>()
        );
        for j in &jobs {
            assert!(job_request(&j.spec).is_ok(), "{} does not parse", j.spec);
            if j.kind == Kind::Resubmit {
                assert!(pool.contains(&j.spec), "resubmits come from the pool");
            }
        }
        // Fresh specs do not repeat, so only resubmits can hit the cache.
        let mut fresh: Vec<&str> = jobs
            .iter()
            .filter(|j| j.kind != Kind::Resubmit)
            .map(|j| j.spec.as_str())
            .collect();
        fresh.sort_unstable();
        let before = fresh.len();
        fresh.dedup();
        assert_eq!(fresh.len(), before);
    }

    #[test]
    fn the_previous_life_resubmits_its_own_earlier_jobs() {
        let jobs = take(&mut JobStream::previous_life(11), 3000);
        for (i, j) in jobs.iter().enumerate() {
            if j.kind == Kind::Resubmit && i > 0 {
                assert!(jobs[..i].iter().any(|e| e.spec == j.spec));
            }
        }
    }
}
