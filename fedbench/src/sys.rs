//! Process introspection (CPU time, peak memory) and run provenance.

use std::fs;
use std::path::Path;

/// CPU time consumed so far by every thread of this process, in
/// nanoseconds, from the scheduler's per-thread run-time accounting.
/// `None` where the kernel does not expose it.
pub fn process_cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    for task in fs::read_dir("/proc/self/task").ok()? {
        let stat = fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        total += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(total)
}

/// Peak resident set size of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Reset the peak-RSS mark so the next workload of a multi-workload run
/// reports its own peak. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Commit of the checkout the benchmark runs from, read from `.git`
/// without starting a process; `None` outside a git checkout.
pub fn git_rev() -> Option<String> {
    let git = Path::new(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// FNV-1a digest of a parameter vector's exact bit patterns: equal digests
/// mean bit-identical models.
pub fn digest(params: &[f32]) -> u64 {
    params
        .iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}
