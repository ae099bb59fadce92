//! What the run ran on: facts for the output header, the process's peak
//! memory, and two microkernels that measure the box instead of assuming it.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `cpu0`'s caches as `L<level> <type> <size>` strings, e.g. `L2 Unified
/// 2048K`, from `/sys/devices/system/cpu/cpu0/cache`. Empty where the kernel
/// does not say. A guest often reports the host's whole last-level cache, of
/// which it has a share only.
pub fn caches() -> Vec<String> {
    let mut out = Vec::new();
    for index in 0.. {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| {
            std::fs::read_to_string(format!("{dir}/{file}")).map(|s| s.trim().to_string())
        };
        match (read("level"), read("type"), read("size")) {
            (Ok(level), Ok(kind), Ok(size)) => out.push(format!("L{level} {kind} {size}")),
            _ => break,
        }
    }
    out
}

/// First line a command prints, or `unknown` (the driver's checkout is not a
/// git repository, for one).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc -V`.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"])
}

/// Short git revision of the checkout.
pub fn git_revision() -> String {
    first_line_of("git", &["rev-parse", "--short", "HEAD"])
}

/// Peak resident set of this process in MiB (`VmHWM`), so that work moved
/// into scratch buffers or caches shows.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Multiply-add rate of one core in GFLOP/s as this build compiles it (for
/// the baseline x86-64 target: SSE2, multiply and add unfused): 32 independent
/// accumulator chains that stay in vector registers, no memory traffic. Best
/// of five passes.
pub fn probe_fma_gflops() -> f64 {
    const LANES: usize = 32;
    const ITERS: usize = 2_000_000;
    let mut best = 0.0f64;
    for _ in 0..5 {
        let mut acc = [1.0f64; LANES];
        let (a, b) = (black_box(0.999_999_9f64), black_box(1e-9f64));
        let start = Instant::now();
        for _ in 0..ITERS {
            for x in &mut acc {
                *x = *x * a + b;
            }
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(acc);
        best = best.max((2 * LANES * ITERS) as f64 / secs / 1e9);
    }
    best
}

/// Sustained bandwidth of a STREAM-style triad `a[i] = b[i] + s * c[i]` in
/// GB/s (24 bytes per element, computed from the array sizes). The three
/// arrays together hold `words` doubles: the caller passes the size of the
/// workload's tensor, so this is the bandwidth of the cache level that tensor
/// lives in, not of DRAM. Each timing sweeps the arrays until about four
/// million elements have gone by; best of five timings.
pub fn probe_stream_gbs(words: usize) -> f64 {
    let len = (words / 3).max(1 << 10);
    let sweeps = ((1 << 22) / len).max(1);
    let b = vec![1.5f64; len];
    let c = vec![0.25f64; len];
    let mut a = vec![0.0f64; len];
    let s = black_box(3.0f64);
    let mut best = 0.0f64;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..sweeps {
            for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
                *a = b + s * c;
            }
            black_box(&mut a);
        }
        let secs = start.elapsed().as_secs_f64();
        best = best.max((24 * len * sweeps) as f64 / secs / 1e9);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_facts_are_readable() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mib() > 0.0);
        assert!(!rustc_version().is_empty());
    }

    #[test]
    fn probes_return_positive_rates() {
        assert!(probe_fma_gflops() > 0.0);
        assert!(probe_stream_gbs(1 << 16) > 0.0);
    }
}
