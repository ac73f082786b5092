//! Model-driven admission and scheduling for the serve daemon.
//!
//! Every submitted job is priced *before* it runs, straight from the
//! paper's closed forms: predicted FLOPs (`2mnzq³`), the three-term
//! `T_data` ([`TData3`] — in-core jobs through [`TData3::in_core`],
//! out-of-core jobs with `M_F` from [`OocStaging::disk_blocks`]), and a
//! peak-resident-bytes footprint (the three operands for in-memory
//! shapes, the staged ring for `.tiled` jobs).
//!
//! The admission controller is the Tradeoff constraint lifted to the
//! server: jobs whose predicted footprint exceeds the whole RAM budget
//! are rejected at submission (the rejection carries the predicted
//! footprint); admitted jobs queue until their footprint fits in
//! `budget − in_use`, so the pool stays saturated with compatible jobs
//! without ever overcommitting RAM — first-fit over the FIFO queue, the
//! same greedy packing [`mmc_core::params::ooc_staging`] applies to one
//! job's panels.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

use crate::core::params::ooc_staging;
use crate::core::{formulas, OocStaging, ProblemSpec};
use crate::exec::{CancelToken, Tiling};
use crate::obs::DriftReport;
use crate::ooc::{default_sigma_f, RING_SLOTS};
use crate::sim::{strassen as sim_strassen, CostEnv, MachineConfig, TData3};
use serde::{Deserialize, Serialize};

/// An in-memory multiply: deterministic pseudo-random operands, so the
/// client (and the tests) can regenerate them bit-exactly.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemJobSpec {
    /// `C` block rows.
    pub m: u32,
    /// `C` block columns.
    pub n: u32,
    /// Inner block dimension.
    pub z: u32,
    /// Block side in elements.
    pub q: usize,
    /// Seed for `A = pseudo_random(m, z, q, seed_a)`.
    pub seed_a: u64,
    /// Seed for `B = pseudo_random(z, n, q, seed_b)`.
    pub seed_b: u64,
    /// Algorithm the job runs: `"classic"` (the block executor) or
    /// `"strassen"` (Winograd recursion over Morton blocks). Strassen
    /// jobs are admitted with the recursion workspace added to their
    /// footprint.
    #[serde(default = "classic_algo")]
    pub algo: String,
}

// Named to avoid the substring "default": the vendored derive locates
// the fallback path by splitting the attribute text on that keyword.
fn classic_algo() -> String {
    "classic".into()
}

/// An out-of-core multiply over `.tiled` files.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OocJobSpec {
    /// Path of the `A` tiled file.
    pub a: String,
    /// Path of the `B` tiled file.
    pub b: String,
    /// Path the tiled product is written to.
    pub out: String,
    /// Staging budget for this job, bytes.
    pub mem_budget_bytes: u64,
    /// Dedicated I/O threads for this job's prefetcher.
    pub io_threads: usize,
}

/// What a client asked the server to run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JobSpec {
    /// In-memory shapes.
    Mem(MemJobSpec),
    /// Out-of-core `.tiled` paths.
    Ooc(OocJobSpec),
}

impl JobSpec {
    /// `"mem"` or `"ooc"`, for reports and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Mem(_) => "mem",
            JobSpec::Ooc(_) => "ooc",
        }
    }
}

/// The up-front model price of a job — computed at submission, attached
/// to the admission decision and the completion report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobPrice {
    /// Predicted floating-point operations, `2·m·n·z·q³`.
    pub flops: f64,
    /// Predicted three-term `T_data` total, in the machine model's time
    /// units (`M_F/σ_F + M_S/σ_S + M_D/σ_D`).
    pub t_data: f64,
    /// Predicted peak resident bytes while the job runs — what the
    /// admission controller reserves out of the RAM budget.
    pub footprint_bytes: u64,
    /// The `(α, β)` staging the job's budget buys (out-of-core only).
    #[serde(default)]
    pub staging: Option<OocStaging>,
}

/// The tiling the server hands every in-memory job: the Tradeoff
/// parameters of the configured machine, falling back to Shared Opt and
/// then to a fixed 4-block tile. Exposed so tests can reproduce server
/// results through the direct APIs (any tiling gives a bit-identical
/// product for a fixed kernel variant, but sharing one keeps the span
/// traces comparable too).
pub fn default_tiling(machine: &MachineConfig) -> Tiling {
    Tiling::tradeoff(machine).or_else(|| Tiling::shared_opt(machine)).unwrap_or(Tiling {
        tile_m: 4,
        tile_n: 4,
        tile_k: 4,
    })
}

/// The in-core miss predictions `(M_S, M_D)` of the configured machine
/// for an `m×n×z` block product (Tradeoff, falling back to Shared Opt).
fn in_core_misses(m: u32, n: u32, z: u32, machine: &MachineConfig) -> (f64, f64) {
    let problem = ProblemSpec::new(m, n, z);
    formulas::tradeoff(&problem, machine)
        .or_else(|| formulas::shared_opt(&problem, machine))
        .map(|p| (p.ms, p.md))
        .unwrap_or((0.0, 0.0))
}

/// Price an in-memory job: all three operands resident; no disk leg in
/// `T_data`. Strassen jobs additionally reserve
/// the Morton copies of the padded operands plus the pooled recursion
/// workspace, and their `T_data`/FLOPs come from the recursion's closed
/// forms ([`sim_strassen`]) instead of the classic schedule predictions.
pub fn price_mem(spec: &MemJobSpec, machine: &MachineConfig) -> Result<JobPrice, String> {
    let MemJobSpec { m, n, z, q, .. } = *spec;
    if m == 0 || n == 0 || z == 0 || q == 0 {
        return Err(format!("job shape must be positive, got m={m} n={n} z={z} q={q}"));
    }
    let block_bytes = (q * q * 8) as u64;
    let operand_blocks = m as u64 * z as u64 + z as u64 * n as u64 + m as u64 * n as u64;
    let footprint_bytes = operand_blocks
        .checked_mul(block_bytes)
        .ok_or_else(|| format!("job footprint overflows: {operand_blocks} blocks of {q}x{q}"))?;
    if spec.algo == "strassen" {
        let base = m.max(n).max(z) as u64;
        let plan = sim_strassen::strassen_plan(base, crate::strassen::DEFAULT_CUTOFF as u64);
        // Three padded Morton copies plus the pooled recursion temps —
        // the workspace term the admission controller reserves on top
        // of the row-major operands.
        let s2 = plan.padded_side.saturating_mul(plan.padded_side);
        let extra_blocks = s2
            .checked_mul(3)
            .and_then(|b| b.checked_add(sim_strassen::workspace_blocks(&plan)))
            .unwrap_or(u64::MAX);
        let footprint_bytes = extra_blocks
            .checked_mul(block_bytes)
            .and_then(|b| b.checked_add(footprint_bytes))
            .ok_or_else(|| {
                format!("strassen workspace overflows: {extra_blocks} blocks of {q}x{q}")
            })?;
        let tiling = default_tiling(machine);
        let env = CostEnv::for_machine(
            machine,
            tiling.tile_m as u64,
            tiling.tile_k as u64,
            tiling.tile_n as u64,
        );
        let t_data =
            sim_strassen::strassen_traffic(&plan, &env).t_data(machine.sigma_s, machine.sigma_d);
        let flops = sim_strassen::flops(&plan, q as u64) as f64;
        return Ok(JobPrice { flops, t_data, footprint_bytes, staging: None });
    }
    let (ms, md) = in_core_misses(m, n, z, machine);
    let t_data = TData3::in_core(ms, md, machine).total();
    let flops = 2.0 * (q as f64).powi(3) * m as f64 * n as f64 * z as f64;
    Ok(JobPrice { flops, t_data, footprint_bytes, staging: None })
}

/// Price an out-of-core job from its shape and staging budget: the
/// resident footprint is the `(α, β)` ring the budget buys (`C` tile
/// plus both operand streams, [`OocStaging::resident_blocks`]);
/// `T_data`'s disk leg prices the staging predictor's traffic at the
/// machine's assumed disk bandwidth.
pub fn price_ooc(
    spec: &OocJobSpec,
    m: u32,
    n: u32,
    z: u32,
    q: usize,
    machine: &MachineConfig,
) -> Result<JobPrice, String> {
    let block_bytes = (q * q * 8) as u64;
    let budget_blocks = spec.mem_budget_bytes / block_bytes;
    let staging = ooc_staging(budget_blocks, RING_SLOTS, 0.1, 1.0).ok_or_else(|| {
        format!(
            "mem_budget of {} bytes is below the minimal out-of-core staging footprint \
             ({} blocks of {q}x{q})",
            spec.mem_budget_bytes,
            1 + 2 * RING_SLOTS as u64
        )
    })?;
    let footprint_bytes = staging.resident_blocks() * block_bytes;
    let (ms, md) = in_core_misses(m, n, z, machine);
    let t_data = TData3 {
        mf: staging.disk_blocks(m, n, z) as f64,
        ms,
        md,
        sigma_f: default_sigma_f(machine, 0.1),
        sigma_s: machine.sigma_s,
        sigma_d: machine.sigma_d,
    }
    .total();
    let flops = 2.0 * (q as f64).powi(3) * m as f64 * n as f64 * z as f64;
    Ok(JobPrice { flops, t_data, footprint_bytes, staging: Some(staging) })
}

/// The completion report of one served job, embedded in `status`/`wait`
/// responses — the model price it was admitted under next to what
/// actually happened, including the per-request span-trace job id and
/// the predicted-vs-measured drift.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobReport {
    /// Report schema version ([`crate::obs::SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Server-assigned job id.
    pub job_id: u64,
    /// `"mem"` or `"ooc"`.
    pub kind: String,
    /// The span-trace job this request recorded under.
    pub trace_job: u64,
    /// Wall-clock seconds from dispatch to completion.
    pub elapsed_seconds: f64,
    /// The up-front model price the job was admitted under.
    pub price: JobPrice,
    /// Measured peak resident bytes (out-of-core jobs report the
    /// pipeline's measurement; in-memory jobs their reserved footprint).
    pub peak_resident_bytes: u64,
    /// Whether the job stayed within its reserved footprint.
    pub within_budget: bool,
    /// FNV-1a checksum over the result's element bits (in-memory jobs)
    /// — bit-identity evidence without shipping the matrix.
    #[serde(default)]
    pub checksum: Option<u64>,
    /// Path of the written `.tiled` product (out-of-core jobs).
    #[serde(default)]
    pub out: Option<String>,
    /// Measured disk bandwidth (out-of-core jobs; `None` when no timed
    /// I/O — see [`crate::ooc::OocReport`]).
    #[serde(default)]
    pub sigma_f_blocks_per_s: Option<f64>,
    /// Predicted-vs-measured drift over the job's traced phases.
    #[serde(default)]
    pub drift: Option<DriftReport>,
}

/// Where a job is in its lifecycle.
#[derive(Clone, Debug)]
pub enum JobState {
    /// Admitted, waiting for its footprint to fit.
    Queued,
    /// Dispatched onto the worker pool.
    Running,
    /// Finished; the report is the terminal artifact.
    Done(Box<JobReport>),
    /// Cancelled (queued or mid-run).
    Cancelled,
    /// The job errored (bad file, shape mismatch, …).
    Failed(String),
}

impl JobState {
    /// Wire name of the state.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed(_) => "failed",
        }
    }

    /// Queued and running jobs are not terminal.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// One tracked job.
#[derive(Clone, Debug)]
pub struct JobEntry {
    /// What to run.
    pub spec: JobSpec,
    /// The model price it was admitted under.
    pub price: JobPrice,
    /// Cooperative cancellation handle (shared with the worker).
    pub token: CancelToken,
    /// Lifecycle state.
    pub state: JobState,
}

/// Aggregate serve counters, mirrored into the metrics registry.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct ServeCounts {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs refused at admission (footprint over budget, bad spec).
    pub rejected: u64,
    /// Jobs that completed with a report.
    pub completed: u64,
    /// Jobs cancelled before completing.
    pub cancelled: u64,
    /// Jobs that errored.
    pub failed: u64,
}

struct SchedState {
    next_id: u64,
    queue: VecDeque<u64>,
    jobs: HashMap<u64, JobEntry>,
    ram_in_use: u64,
    ram_peak: u64,
    running: usize,
    shutdown: bool,
    counts: ServeCounts,
}

/// A snapshot of the scheduler for the `stats` command.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServeStats {
    /// Configured RAM budget, bytes.
    pub ram_budget_bytes: u64,
    /// Footprint bytes currently reserved by running jobs.
    pub ram_in_use_bytes: u64,
    /// High-water mark of `ram_in_use_bytes`.
    pub ram_peak_bytes: u64,
    /// Jobs waiting for room.
    pub queued: usize,
    /// Jobs on the pool right now.
    pub running: usize,
    /// Aggregate lifecycle counters.
    pub counts: ServeCounts,
}

/// Why a submission was refused, with the evidence the client needs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Rejection {
    /// Human-readable reason.
    pub error: String,
    /// The predicted footprint that did not fit (when priced).
    #[serde(default)]
    pub predicted_footprint_bytes: Option<u64>,
    /// The budget it was measured against.
    pub ram_budget_bytes: u64,
}

/// The admission controller and job table. All synchronization lives
/// here; the server's dispatcher and connection threads share one
/// instance.
pub struct Scheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
    /// Total RAM budget for concurrently running jobs, bytes.
    pub ram_budget_bytes: u64,
    /// Maximum jobs on the pool at once.
    pub max_concurrent: usize,
    /// Machine model used for pricing.
    pub machine: MachineConfig,
    /// Drift band for per-job reports.
    pub band: f64,
}

impl Scheduler {
    /// A scheduler with an empty table.
    pub fn new(
        ram_budget_bytes: u64,
        max_concurrent: usize,
        machine: MachineConfig,
        band: f64,
    ) -> Scheduler {
        Scheduler {
            state: Mutex::new(SchedState {
                next_id: 1,
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                ram_in_use: 0,
                ram_peak: 0,
                running: 0,
                shutdown: false,
                counts: ServeCounts::default(),
            }),
            cv: Condvar::new(),
            ram_budget_bytes,
            max_concurrent: max_concurrent.max(1),
            machine,
            band,
        }
    }

    fn registry(&self) -> &'static crate::obs::Registry {
        crate::obs::global()
    }

    /// Count a submission refused before pricing even produced a
    /// footprint (unreadable tiled file, degenerate shape, …), so the
    /// rejection counters cover every refused request.
    pub fn note_rejected(&self) {
        let mut st = self.state.lock().unwrap();
        st.counts.rejected += 1;
        self.registry().counter("serve.jobs_rejected").add(1);
    }

    /// Admit or reject `spec` at its model price. Admitted jobs enter
    /// the FIFO queue and get an id; rejected jobs never enter the
    /// table, and the rejection carries the predicted footprint.
    pub fn submit(&self, spec: JobSpec, price: JobPrice) -> Result<(u64, JobPrice), Rejection> {
        let mut st = self.state.lock().unwrap();
        if st.shutdown {
            st.counts.rejected += 1;
            self.registry().counter("serve.jobs_rejected").add(1);
            return Err(Rejection {
                error: "server is shutting down".into(),
                predicted_footprint_bytes: Some(price.footprint_bytes),
                ram_budget_bytes: self.ram_budget_bytes,
            });
        }
        if price.footprint_bytes > self.ram_budget_bytes {
            st.counts.rejected += 1;
            self.registry().counter("serve.jobs_rejected").add(1);
            return Err(Rejection {
                error: format!(
                    "predicted footprint {} bytes exceeds the server RAM budget {} bytes",
                    price.footprint_bytes, self.ram_budget_bytes
                ),
                predicted_footprint_bytes: Some(price.footprint_bytes),
                ram_budget_bytes: self.ram_budget_bytes,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        st.jobs.insert(
            id,
            JobEntry {
                spec,
                price: price.clone(),
                token: CancelToken::new(),
                state: JobState::Queued,
            },
        );
        st.queue.push_back(id);
        st.counts.submitted += 1;
        self.registry().counter("serve.jobs_submitted").add(1);
        drop(st);
        self.cv.notify_all();
        Ok((id, price))
    }

    /// Dispatcher side: block until a queued job fits in the free
    /// budget and a pool slot is open, then reserve its footprint and
    /// return it. `None` once the scheduler is shut down and drained.
    pub fn next_runnable(&self) -> Option<(u64, JobSpec, JobPrice, CancelToken)> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.shutdown {
                return None;
            }
            if st.running < self.max_concurrent {
                let free = self.ram_budget_bytes - st.ram_in_use;
                // First-fit over the FIFO queue: skip jobs too big for
                // the current free budget so smaller compatible jobs
                // behind them keep the pool saturated.
                let slot = st.queue.iter().position(|id| st.jobs[id].price.footprint_bytes <= free);
                if let Some(pos) = slot {
                    let id = st.queue.remove(pos).unwrap();
                    let entry = st.jobs.get_mut(&id).unwrap();
                    entry.state = JobState::Running;
                    let (spec, price, token) =
                        (entry.spec.clone(), entry.price.clone(), entry.token.clone());
                    st.running += 1;
                    st.ram_in_use += price.footprint_bytes;
                    st.ram_peak = st.ram_peak.max(st.ram_in_use);
                    let reg = self.registry();
                    reg.gauge("serve.ram_in_use_bytes").set(st.ram_in_use as i64);
                    reg.gauge("serve.ram_peak_bytes").set(st.ram_peak as i64);
                    return Some((id, spec, price, token));
                }
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Worker side: record the terminal state of a dispatched job and
    /// release its footprint.
    pub fn finish(&self, id: u64, outcome: JobState) {
        debug_assert!(outcome.is_terminal());
        let mut st = self.state.lock().unwrap();
        let reg = self.registry();
        if let Some(entry) = st.jobs.get_mut(&id) {
            let footprint = entry.price.footprint_bytes;
            match &outcome {
                JobState::Done(_) => {
                    st.counts.completed += 1;
                    reg.counter("serve.jobs_completed").add(1);
                }
                JobState::Cancelled => {
                    st.counts.cancelled += 1;
                    reg.counter("serve.jobs_cancelled").add(1);
                }
                _ => {
                    st.counts.failed += 1;
                    reg.counter("serve.jobs_failed").add(1);
                }
            }
            let entry = st.jobs.get_mut(&id).unwrap();
            entry.state = outcome;
            st.ram_in_use -= footprint;
            st.running -= 1;
            reg.gauge("serve.ram_in_use_bytes").set(st.ram_in_use as i64);
        }
        drop(st);
        self.cv.notify_all();
    }

    /// The job's current state (cloned), or `None` for an unknown id.
    pub fn status(&self, id: u64) -> Option<(JobState, JobPrice)> {
        let st = self.state.lock().unwrap();
        st.jobs.get(&id).map(|e| (e.state.clone(), e.price.clone()))
    }

    /// Block until the job reaches a terminal state and return it.
    pub fn wait(&self, id: u64) -> Option<(JobState, JobPrice)> {
        let mut st = self.state.lock().unwrap();
        loop {
            match st.jobs.get(&id) {
                None => return None,
                Some(e) if e.state.is_terminal() => {
                    return Some((e.state.clone(), e.price.clone()))
                }
                Some(_) => st = self.cv.wait(st).unwrap(),
            }
        }
    }

    /// Cancel a job: a queued job leaves the queue immediately; a
    /// running job's token is tripped and the worker observes it at the
    /// next `k` step of a work unit or panel-stage boundary. Returns the state name
    /// after the request, or `None` for an unknown id.
    pub fn cancel(&self, id: u64) -> Option<&'static str> {
        let mut st = self.state.lock().unwrap();
        let entry = st.jobs.get(&id)?;
        match entry.state {
            JobState::Queued => {
                st.queue.retain(|&q| q != id);
                let entry = st.jobs.get_mut(&id).unwrap();
                entry.state = JobState::Cancelled;
                st.counts.cancelled += 1;
                self.registry().counter("serve.jobs_cancelled").add(1);
                drop(st);
                self.cv.notify_all();
                Some("cancelled")
            }
            JobState::Running => {
                entry.token.cancel();
                Some("cancelling")
            }
            ref terminal => Some(terminal.name()),
        }
    }

    /// Stop admitting, cancel everything queued, and trip the tokens of
    /// running jobs. The dispatcher drains once running jobs finish.
    pub fn shutdown(&self) {
        let mut st = self.state.lock().unwrap();
        st.shutdown = true;
        let queued: Vec<u64> = st.queue.drain(..).collect();
        for id in &queued {
            if let Some(e) = st.jobs.get_mut(id) {
                e.state = JobState::Cancelled;
                st.counts.cancelled += 1;
                self.registry().counter("serve.jobs_cancelled").add(1);
            }
        }
        for e in st.jobs.values() {
            if matches!(e.state, JobState::Running) {
                e.token.cancel();
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Has [`Scheduler::shutdown`] been called?
    pub fn is_shutdown(&self) -> bool {
        self.state.lock().unwrap().shutdown
    }

    /// Block until no job is running (used by the server's clean exit).
    pub fn drain(&self) {
        let mut st = self.state.lock().unwrap();
        while st.running > 0 {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Snapshot for the `stats` command.
    pub fn stats(&self) -> ServeStats {
        let st = self.state.lock().unwrap();
        ServeStats {
            ram_budget_bytes: self.ram_budget_bytes,
            ram_in_use_bytes: st.ram_in_use,
            ram_peak_bytes: st.ram_peak,
            queued: st.queue.len(),
            running: st.running,
            counts: st.counts,
        }
    }

    /// High-water mark of reserved footprint bytes — the budget
    /// evidence the integration tests assert on.
    pub fn ram_peak_bytes(&self) -> u64 {
        self.state.lock().unwrap().ram_peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_spec(m: u32, n: u32, z: u32, q: usize) -> MemJobSpec {
        MemJobSpec { m, n, z, q, seed_a: 1, seed_b: 2, algo: "classic".into() }
    }

    #[test]
    fn mem_price_counts_the_three_operands() {
        let machine = MachineConfig::quad_q32();
        let p = price_mem(&mem_spec(4, 5, 6, 8), &machine).unwrap();
        let operand_bytes = (4 * 6 + 6 * 5 + 4 * 5) as u64 * (8 * 8 * 8) as u64;
        assert_eq!(p.footprint_bytes, operand_bytes);
        assert_eq!(p.flops, 2.0 * 512.0 * 4.0 * 5.0 * 6.0);
        assert!(p.t_data.is_finite() && p.t_data > 0.0);
        assert!(p.staging.is_none());
        assert!(price_mem(&mem_spec(0, 1, 1, 4), &machine).is_err());
    }

    #[test]
    fn strassen_price_adds_workspace_and_sub_cubic_flops() {
        let machine = MachineConfig::quad_q32();
        let classic = price_mem(&mem_spec(16, 16, 16, 8), &machine).unwrap();
        let mut spec = mem_spec(16, 16, 16, 8);
        spec.algo = "strassen".into();
        let strassen = price_mem(&spec, &machine).unwrap();
        // Same operands, plus Morton copies and pooled recursion temps.
        assert!(
            strassen.footprint_bytes > classic.footprint_bytes,
            "strassen footprint {} must exceed classic {}",
            strassen.footprint_bytes,
            classic.footprint_bytes
        );
        let plan = sim_strassen::strassen_plan(16, crate::strassen::DEFAULT_CUTOFF as u64);
        assert!(plan.depth > 0, "16 blocks above the default cutoff must recurse");
        let extra = (3 * plan.padded_side * plan.padded_side
            + sim_strassen::workspace_blocks(&plan))
            * (8 * 8 * 8) as u64;
        assert_eq!(strassen.footprint_bytes, classic.footprint_bytes + extra);
        // 7^d leaf work beats 2q³mnz.
        assert!(strassen.flops < classic.flops);
        assert_eq!(strassen.flops, sim_strassen::flops(&plan, 8) as f64);
        assert!(strassen.t_data.is_finite() && strassen.t_data > 0.0);
    }

    #[test]
    fn algo_field_defaults_to_classic_on_the_wire() {
        let spec: MemJobSpec =
            serde_json::from_str(r#"{"m":2,"n":2,"z":2,"q":4,"seed_a":1,"seed_b":2}"#).unwrap();
        assert_eq!(spec.algo, "classic");
        let round: MemJobSpec =
            serde_json::from_str(&serde_json::to_string(&mem_spec(1, 2, 3, 4)).unwrap()).unwrap();
        assert_eq!(round, mem_spec(1, 2, 3, 4));
    }

    #[test]
    fn admission_rejects_over_budget_with_the_predicted_footprint() {
        let machine = MachineConfig::quad_q32();
        let sched = Scheduler::new(1 << 20, 2, machine.clone(), 1.0);
        let price = price_mem(&mem_spec(64, 64, 64, 32), &machine).unwrap();
        assert!(price.footprint_bytes > sched.ram_budget_bytes);
        let rej = sched.submit(JobSpec::Mem(mem_spec(64, 64, 64, 32)), price.clone()).unwrap_err();
        assert_eq!(rej.predicted_footprint_bytes, Some(price.footprint_bytes));
        assert_eq!(rej.ram_budget_bytes, 1 << 20);
        assert!(rej.error.contains("exceeds"));
        assert_eq!(sched.stats().counts.rejected, 1);
    }

    #[test]
    fn first_fit_packs_small_jobs_past_a_blocked_big_one() {
        let machine = MachineConfig::quad_q32();
        let sched = Scheduler::new(1000, 4, machine, 1.0);
        let price =
            |fp: u64| JobPrice { flops: 1.0, t_data: 1.0, footprint_bytes: fp, staging: None };
        let spec = JobSpec::Mem(mem_spec(1, 1, 1, 2));
        let (big, _) = sched.submit(spec.clone(), price(900)).unwrap();
        let (small, _) = sched.submit(spec.clone(), price(300)).unwrap();
        // Big job reserves 900 of 1000.
        let (id1, _, _, _) = sched.next_runnable().unwrap();
        assert_eq!(id1, big);
        // 100 free: the 300-byte job must wait…
        let (tiny, _) = sched.submit(spec.clone(), price(50)).unwrap();
        // …but the 50-byte job behind it fits now — first-fit skips the
        // blocked head of the queue.
        let (id2, _, _, _) = sched.next_runnable().unwrap();
        assert_eq!(id2, tiny);
        assert_eq!(sched.stats().ram_in_use_bytes, 950);
        sched.finish(big, JobState::Cancelled);
        let (id3, _, _, _) = sched.next_runnable().unwrap();
        assert_eq!(id3, small);
        assert_eq!(sched.ram_peak_bytes(), 950);
    }

    #[test]
    fn cancel_dequeues_queued_jobs_and_trips_running_tokens() {
        let machine = MachineConfig::quad_q32();
        let sched = Scheduler::new(1000, 4, machine, 1.0);
        let price = JobPrice { flops: 1.0, t_data: 1.0, footprint_bytes: 10, staging: None };
        let spec = JobSpec::Mem(mem_spec(1, 1, 1, 2));
        let (a, _) = sched.submit(spec.clone(), price.clone()).unwrap();
        let (b, _) = sched.submit(spec, price).unwrap();
        assert_eq!(sched.cancel(a), Some("cancelled"));
        assert!(matches!(sched.status(a).unwrap().0, JobState::Cancelled));
        let (id, _, _, token) = sched.next_runnable().unwrap();
        assert_eq!(id, b, "cancelled job never dispatches");
        assert_eq!(sched.cancel(b), Some("cancelling"));
        assert!(token.is_cancelled(), "running job's token tripped");
        sched.finish(b, JobState::Cancelled);
        assert!(sched.status(b).unwrap().0.is_terminal());
        assert_eq!(sched.cancel(999), None);
    }
}
