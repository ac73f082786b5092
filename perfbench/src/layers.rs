//! Per-layer measurement for the traced run: span and registry analysis
//! of the workload's own calls, plus timed direct calls into each
//! layer's public functions.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use multicore_matmul::exec::blocking::active_plan;
use multicore_matmul::exec::kernel::{self, pack};
use multicore_matmul::exec::{gemm_parallel, BlockMatrix, Tiling};
use multicore_matmul::obs::span::{SpanKind, SpanRecord};
use multicore_matmul::obs::{self};
use multicore_matmul::serve::{default_tiling, price_mem, price_ooc, serve_variant};
use multicore_matmul::serve::{MemJobSpec, OocJobSpec, ServeConfig};
use multicore_matmul::sim::MachineConfig;
use multicore_matmul::strassen::{strassen_multiply, StrassenOpts, DEFAULT_CUTOFF};
use rayon::prelude::*;

use crate::report::Outcome;
use crate::stats::{imbalance_parts, median, self_time, Interval};

/// Snapshot of the exec layer's registry counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecCounters {
    /// FLOPs the dispatched variant executed.
    pub flops: u64,
    /// Bytes written into pack arenas.
    pub pack_bytes: u64,
    /// `C` tiles completed.
    pub tiles: u64,
}

impl ExecCounters {
    /// Read the counters now.
    pub fn read() -> ExecCounters {
        let reg = obs::global();
        let v = kernel::variant().name();
        ExecCounters {
            flops: reg.counter(&format!("exec.flops.{v}")).get(),
            pack_bytes: reg.counter("exec.pack_bytes").get(),
            tiles: reg.counter(&format!("exec.tiles.{v}")).get(),
        }
    }

    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: ExecCounters) -> ExecCounters {
        ExecCounters {
            flops: self.flops - earlier.flops,
            pack_bytes: self.pack_bytes - earlier.pack_bytes,
            tiles: self.tiles - earlier.tiles,
        }
    }

    /// Add another delta.
    pub fn add(&mut self, d: ExecCounters) {
        self.flops += d.flops;
        self.pack_bytes += d.pack_bytes;
        self.tiles += d.tiles;
    }
}

/// What the exec layer's own spans say about a set of traced calls.
#[derive(Clone, Debug, Default)]
pub struct ExecTrace {
    /// Summed self time of `ic` spans (micro-kernel sweeps), ns.
    pub ic_self_ns: u64,
    /// Summed `pack_a` span time, ns.
    pub pack_a_ns: u64,
    /// Summed `pack_b` span time, ns.
    pub pack_b_ns: u64,
    /// Summed per-call busiest-worker tile time (imbalance numerator).
    pub imb_max: f64,
    /// Summed per-call mean worker tile time (imbalance denominator).
    pub imb_mean: f64,
    /// Registry deltas over the traced calls.
    pub counters: ExecCounters,
    /// Spans the registry says ran but the rings no longer hold.
    pub spans_lost: u64,
}

fn interval(s: &SpanRecord) -> Interval {
    Interval::from_dur(s.start_ns, s.dur_ns)
}

/// Summed self time of every `kind` span: its length minus the part its
/// nested spans on the same thread cover.
pub fn self_time_of(kind: SpanKind, spans: &[SpanRecord]) -> u64 {
    let mut by_thread: BTreeMap<Option<u32>, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        by_thread.entry(s.thread).or_default().push(s);
    }
    let mut total = 0;
    for list in by_thread.values_mut() {
        // Parents before the children that start with them.
        list.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        for (i, p) in list.iter().enumerate().filter(|(_, s)| s.kind == kind) {
            let outer = interval(p);
            let children: Vec<Interval> = list[i + 1..]
                .iter()
                .take_while(|c| c.start_ns < outer.end)
                .map(|c| interval(c))
                .filter(|c| c.end <= outer.end)
                .collect();
            total += self_time(outer, &children);
        }
    }
    total
}

impl ExecTrace {
    /// Fold in the spans of one traced call (or job) and its registry
    /// delta. `workers` is the thread count the call could use; pass
    /// `None` to skip the tile-imbalance sample (calls that are not one
    /// `gemm_parallel`).
    pub fn absorb(&mut self, spans: &[SpanRecord], delta: ExecCounters, workers: Option<usize>) {
        let mut busy: BTreeMap<Option<u32>, f64> = BTreeMap::new();
        let mut tiles = 0;
        for s in spans {
            match s.kind {
                SpanKind::Tile => {
                    *busy.entry(s.thread).or_default() += s.dur_ns as f64;
                    tiles += 1;
                }
                SpanKind::PackA => self.pack_a_ns += s.dur_ns,
                SpanKind::PackB => self.pack_b_ns += s.dur_ns,
                _ => {}
            }
        }
        self.ic_self_ns += self_time_of(SpanKind::LoopIc, spans);
        self.spans_lost += delta.tiles.saturating_sub(tiles);
        self.counters.add(delta);
        if let Some(w) = workers.filter(|_| tiles > 0) {
            let busy: Vec<f64> = busy.into_values().collect();
            let (max, mean) = imbalance_parts(&busy, w);
            self.imb_max += max;
            self.imb_mean += mean;
        }
    }

    /// Report the exec-kernel and tile metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.set("exec.ic.self_s", self.ic_self_ns as f64 / 1e9);
        out.set("exec.pack_a.busy_s", self.pack_a_ns as f64 / 1e9);
        out.set("exec.pack_b.busy_s", self.pack_b_ns as f64 / 1e9);
        out.set("exec.flops", self.counters.flops as f64);
        out.set("exec.pack_bytes", self.counters.pack_bytes as f64);
        let per_byte = if self.counters.pack_bytes > 0 {
            self.counters.flops as f64 / self.counters.pack_bytes as f64
        } else {
            0.0
        };
        out.set("exec.flop_per_pack_byte", per_byte);
        out.set("exec.tile.count", self.counters.tiles as f64);
        let imb = if self.imb_mean > 0.0 { self.imb_max / self.imb_mean } else { 0.0 };
        out.set("exec.tile.imbalance", imb);
    }
}

/// Run `f` in batches until `budget_s` has passed and return the median
/// seconds per call over the batches.
fn per_call_seconds(budget_s: f64, batch: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t0.elapsed().as_secs_f64() / batch as f64);
    }
    median(&samples)
}

/// The machine model the server prices and tiles jobs for.
pub fn served_machine() -> MachineConfig {
    ServeConfig::default().machine
}

/// The server's tiling. The ladder and the out-of-core reference use it
/// too, so a served n=1024 job and a ladder order-16 call run the same
/// schedule.
pub fn served_tiling() -> Tiling {
    default_tiling(&served_machine())
}

/// Timed direct calls into each layer's public functions, reported as
/// the probe half of the per-layer metrics.
pub fn probes(out: &mut Outcome, mem_specs: &[MemJobSpec], ooc_spec: &OocJobSpec, seed: u64) {
    const Q: usize = 64;
    let variant = kernel::variant();

    // exec::kernel — one L1/L2-resident q=64 block product.
    let a = BlockMatrix::pseudo_random(1, 1, Q, seed);
    let b = BlockMatrix::pseudo_random(1, 1, Q, seed ^ 1);
    let mut c = vec![0.0f64; Q * Q];
    let s = per_call_seconds(0.25, 64, || {
        kernel::block_fma_with(variant, &mut c, black_box(a.data()), black_box(b.data()), Q);
    });
    black_box(&c);
    out.set("exec.microkernel.gflops", 2.0 * (Q as f64).powi(3) / s / 1e9);

    // exec::kernel — packing one MC×KC A panel and one KC×NC B panel.
    let plan = active_plan::<f64>();
    let panel = BlockMatrix::pseudo_random(8, 8, Q, seed ^ 2);
    let kb = ((plan.kc / Q).max(1) as u32).min(8);
    let mb = ((plan.mc / Q).max(1) as u32).min(8);
    let nb = ((plan.nc / Q).max(1) as u32).min(8);
    let mut dst = Vec::new();
    let s = per_call_seconds(0.2, 16, || pack::pack_a_panel(&mut dst, &panel, 0, mb, 0, kb));
    let bytes = (mb * kb) as f64 * (Q * Q * 8) as f64;
    out.set("exec.pack_a.gbs", bytes / s / 1e9);
    let s = per_call_seconds(0.2, 16, || pack::pack_b_panel(&mut dst, &panel, 0, nb, 0, kb));
    let bytes = (nb * kb) as f64 * (Q * Q * 8) as f64;
    out.set("exec.pack_b.gbs", bytes / s / 1e9);

    // vendor/rayon — an empty parallel loop over one item per core.
    let items = vec![0u8; crate::host::nproc()];
    let s = per_call_seconds(0.15, 32, || {
        items.par_iter().for_each(|x| {
            black_box(x);
        })
    });
    out.set("rayon.dispatch_us", s * 1e6);

    // exec::runner — one and all threads at a ragged order.
    let order = 24;
    let a = BlockMatrix::pseudo_random(order, order, Q, seed ^ 3);
    let b = BlockMatrix::pseudo_random(order, order, Q, seed ^ 4);
    let tiling = served_tiling();
    let flops = 2.0 * ((order as usize * Q) as f64).powi(3);
    let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("1-thread pool");
    let t1 =
        per_call_seconds(0.0, 1, || drop(black_box(one.install(|| gemm_parallel(&a, &b, tiling)))));
    let t2 = per_call_seconds(0.0, 1, || drop(black_box(gemm_parallel(&a, &b, tiling))));
    let (g1, g2) = (flops / t1 / 1e9, flops / t2 / 1e9);
    out.set("exec.gemm.t1.gflops", g1);
    out.set("exec.gemm.t2.gflops", g2);
    out.set("exec.scaling_eff", g2 / (g1 * crate::host::nproc() as f64));

    // strassen — a direct call at the served n=1024 shape.
    let a = BlockMatrix::pseudo_random(16, 16, Q, seed ^ 5);
    let b = BlockMatrix::pseudo_random(16, 16, Q, seed ^ 6);
    let opts = StrassenOpts {
        cutoff: DEFAULT_CUTOFF,
        variant: serve_variant(),
        plan: active_plan::<f64>(),
        tiling: served_tiling(),
    };
    let s = per_call_seconds(0.0, 1, || drop(black_box(strassen_multiply(&a, &b, &opts))));
    out.set("strassen.multiply.gflops", 2.0 * 1024f64.powi(3) / s / 1e9);

    // serve — admission pricing of the served job mix.
    let m = served_machine();
    let calls = mem_specs.len() + 1;
    let s = per_call_seconds(0.05, 8, || {
        for spec in mem_specs {
            black_box(price_mem(spec, &m).ok());
        }
        black_box(price_ooc(ooc_spec, 8, 8, 8, Q, &m).ok());
    });
    out.set("serve.price_us", s / calls as f64 * 1e6);
}
