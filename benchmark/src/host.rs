//! What the benchmark reports about the host rather than the program:
//! the fingerprint stamped into every output, the calibration spin, the
//! hypervisor's steal time, and the process's peak resident set.

use crate::json::Json;
use std::time::Instant;

/// `host.calib_ns`: one fixed dependent integer chain that fits in
/// registers, timed at the start and at the end of every child process
/// (best of three, so that one preemption does not read as a slow host). It
/// reports the host, not the program: no timing is scaled by it. A drift of
/// more than 10 % between the readings of one workload is flagged beside
/// that workload (`report::derive`).
pub fn calib_ns() -> f64 {
    (0..3).map(|_| spin_ns()).fold(f64::MAX, f64::min)
}

fn spin_ns() -> f64 {
    const ITERS: u64 = 4_000_000;
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(std::hint::black_box(i));
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as f64
}

/// `(steal, busy + steal)` jiffies of all vCPUs since boot, from the first
/// line of `/proc/stat`: steal is time a vCPU was runnable while the
/// hypervisor ran something else. `None` off Linux.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    // cpu user nice system idle iowait irq softirq steal ...
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    let &[user, nice, system, _idle, _iowait, irq, softirq, steal] = f.as_slice() else {
        return None;
    };
    Some((steal, user + nice + system + irq + softirq + steal))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in MB (10^6 bytes); `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// The git revision of the checkout the benchmark runs in, if it is one.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| head.clone(), |s| s.trim().to_string()),
        None => head,
    }
}

/// Everything a result must share with another before the two may be
/// compared.
pub fn fingerprint() -> Json {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("rustc", Json::str(env!("PVR_BENCH_RUSTC"))),
        ("profile", Json::str(env!("PVR_BENCH_PROFILE"))),
        ("git", Json::str(git_revision())),
        ("kernel", Json::str(kernel)),
    ])
}

/// The fingerprint fields that decide comparability. The git revision is
/// left out: comparing two revisions on one host is the point.
pub fn comparable(a: &Json, b: &Json) -> Result<(), String> {
    for key in ["nproc", "rustc", "profile", "kernel"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "host fingerprints differ in `{key}`: {:?} vs {:?}",
                a.get(key),
                b.get(key)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_compares_on_host_fields_only() {
        let a = fingerprint();
        let mut b = a.clone();
        if let Json::Obj(pairs) = &mut b {
            for (k, v) in pairs.iter_mut() {
                if k == "git" {
                    *v = Json::str("another revision");
                }
            }
        }
        assert!(comparable(&a, &b).is_ok());
        if let Json::Obj(pairs) = &mut b {
            pairs[0].1 = Json::Num(1e6);
        }
        assert!(comparable(&a, &b).unwrap_err().contains("nproc"));
    }

    #[test]
    fn host_readings_are_positive() {
        assert!(calib_ns() > 0.0);
        assert!(nproc() >= 1);
        assert!(cpu_jiffies().is_none_or(|(steal, wanted)| steal <= wanted));
        assert!(peak_rss_mb().is_none_or(|mb| mb > 0.0));
    }
}
