//! Resident memory at rest after out-of-core multiplies.
//!
//! A multiply stages its `A`/`B` panels and its `C` tile in large heap
//! buffers. Freed into glibc's heap, they can stay resident, by an
//! amount that depends on the allocator's history (the dynamic mmap
//! threshold and the small allocations made between multiplies). The
//! driver hands free heap pages back to the OS after every multiply, so
//! a loop of multiplies must stay at the resident size its first
//! multiply reached.
//!
//! The check runs without the libtest harness, on the process's main
//! thread, in a binary of its own: `malloc_trim` shrinks the top of the
//! main thread's heap, while a harness worker thread would allocate from
//! a per-thread arena whose top it leaves alone, and no other test may
//! share the process heap while it measures.

#[cfg(all(target_os = "linux", target_env = "gnu"))]
use multicore_matmul::ooc::{ooc_multiply, write_pseudo_random, OocOpts, OocReport};

/// `VmRSS` of this process in bytes.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn vm_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS line");
    let kib: u64 = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmRSS kB");
    kib * 1024
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn main() {
    let dir = std::env::temp_dir().join(format!("mmc-ooc-rss-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (a_path, b_path, c_path) = (dir.join("a.tiled"), dir.join("b.tiled"), dir.join("c.tiled"));
    let (order, q) = (32u32, 32usize);
    write_pseudo_random(&a_path, order, order, q, 1).unwrap();
    write_pseudo_random(&b_path, order, order, q, 2).unwrap();
    // A fifth of the three operands: 4.8 MiB of staging.
    let operand_bytes = (order as u64 * q as u64).pow(2) * 8;
    let budget = 3 * operand_bytes / 5;
    let opts = OocOpts::new(budget);
    let multiply = || {
        let report = ooc_multiply(&a_path, &b_path, &c_path, &opts).unwrap();
        assert!(report.within_budget, "peak {} > budget {}", report.peak_resident_bytes, budget);
        report
    };

    // The first multiply pays the one-time costs: the worker pool, the
    // first pages of the span log, code pages.
    let mut reports: Vec<OocReport> = vec![multiply()];
    let before = vm_rss_bytes();
    // Reports stay alive across the loop, as a caller that keeps them
    // would: their small allocations land between the staging buffers.
    for _ in 0..4 {
        reports.push(multiply());
    }
    let after = vm_rss_bytes();
    let _ = std::fs::remove_dir_all(&dir);

    let grown = after.saturating_sub(before);
    println!(
        "ooc_rss: resident {:.1} -> {:.1} MiB over {} multiplies after the first (budget {:.1} MiB)",
        mib(before),
        mib(after),
        reports.len() - 1,
        mib(budget),
    );
    assert!(
        grown < budget / 2,
        "resident memory grew by {:.1} MiB, more than half the {:.1} MiB staging budget",
        mib(grown),
        mib(budget),
    );
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn main() {
    println!("ooc_rss: skipped, the check needs glibc on Linux");
}
