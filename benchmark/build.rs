//! Records the compiler and profile the benchmark was built with, for the
//! host fingerprint stamped into every output.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "?".into());
    println!("cargo:rustc-env=PVR_BENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=PVR_BENCH_PROFILE={} opt-level={} debug={}",
        var("PROFILE"),
        var("OPT_LEVEL"),
        var("DEBUG")
    );
    println!("cargo:rerun-if-changed=build.rs");
}
