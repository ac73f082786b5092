//! End-to-end and per-layer benchmark of the multicore-matmul stack.
//!
//! Three workloads, each driven from one process with at most two load
//! threads: a closed-loop GEMM size ladder ([`ladder`]), a closed-loop
//! out-of-core stream ([`ooc_stream`]) and an open-loop mixed load on an
//! in-process server ([`serve_mixed`]). An untraced run reports the
//! end-to-end metrics of [`report::END_TO_END`]; a traced run reports
//! the per-layer metrics of [`report::LAYERS`].

pub mod host;
pub mod ladder;
pub mod layers;
pub mod ooc_stream;
pub mod report;
pub mod serve_mixed;
pub mod stats;

/// How one workload run is configured.
pub struct RunCfg<'a> {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Scratch directory for files.
    pub work: &'a host::WorkDir,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// splitmix64: the benchmark's only source of randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Time `f` and return its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}
