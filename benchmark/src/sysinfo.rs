//! Process-level measurements and host labels (Linux only, like the
//! socket path the benchmark drives).

use std::process::Command;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU seconds consumed by every thread of this process,
/// exited ones included. `/proc/self/stat` carries the same sum but in
/// 10 ms ticks, too coarse for a 50 ms repetition.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call, and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs `f`, returning its result with the wall and process-CPU seconds
/// it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = process_cpu_s();
    let wall0 = Instant::now();
    let result = f();
    let wall = wall0.elapsed().as_secs_f64();
    (result, wall, process_cpu_s() - cpu0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// `rustc --version`, or `unknown`.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// Short commit hash of the working directory, or `unknown` outside a git
/// checkout.
pub fn commit() -> String {
    first_line_of("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_rss_is_positive() {
        let (sum, wall, cpu) =
            timed(|| (0..20_000_000u64).fold(0u64, |a, b| a ^ b.wrapping_mul(3)));
        assert!(std::hint::black_box(sum) != 1);
        assert!(wall > 0.0 && cpu > 0.0, "wall {wall} cpu {cpu}");
        assert!(peak_rss_mb() > 0.0);
        assert!(host_parallelism() >= 1);
    }
}
