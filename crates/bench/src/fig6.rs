//! Fig. 6 — user-level thread context-switch time per method.
//!
//! Two ULTs ping-pong via `yield`; the measured time per switch includes
//! scheduling (as in the paper: "control returns to the scheduler which
//! then context switches to the next ULT"). TLSglobals and PIEglobals
//! additionally install the rank's TLS pointer at each switch;
//! Swapglobals (measured on the legacy-`ld` toolchain where it still
//! works) installs the rank's GOT; PIP/FS/baseline do nothing extra.
//!
//! An OS-thread ablation row shows what the same ping-pong costs when
//! each "rank" is a parked pthread instead of a ULT — the motivation for
//! user-level threading in the first place.

use crate::render_table;
use pvr_apps::hello;
use pvr_privatize::{Method, Toolchain};
use pvr_rts::{MachineBuilder, RankCtx, Topology};
use pvr_ult::Backend;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct CtxSwitchRow {
    pub label: String,
    pub ns_per_switch: f64,
    pub switches: u64,
}

fn measure(method: Method, toolchain: Toolchain, backend: Backend, yields: usize) -> CtxSwitchRow {
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(move |ctx: RankCtx| {
        for _ in 0..yields {
            ctx.yield_now();
        }
    });
    let mut machine = MachineBuilder::new(hello::binary())
        .method(method)
        .toolchain(toolchain)
        .topology(Topology::smp(1))
        .vp_ratio(2)
        .ult_backend(backend)
        .build(body)
        .expect("machine builds");
    let t0 = Instant::now();
    let report = machine.run().expect("run succeeds");
    let elapsed = t0.elapsed();
    CtxSwitchRow {
        label: match backend {
            Backend::Asm => method.to_string(),
            Backend::Thread => format!("{method} (pthread ablation)"),
        },
        ns_per_switch: elapsed.as_nanos() as f64 / report.context_switches as f64,
        switches: report.context_switches,
    }
}

/// Run the experiment: the five evaluated methods, plus Swapglobals on a
/// legacy toolchain, plus the OS-thread ablation.
pub fn run(yields: usize) -> Vec<CtxSwitchRow> {
    let mut rows: Vec<CtxSwitchRow> = Method::EVALUATED
        .iter()
        .map(|&m| measure(m, Toolchain::bridges2(), Backend::Asm, yields))
        .collect();
    rows.push(measure(
        Method::Swapglobals,
        Toolchain::legacy_ld(),
        Backend::Asm,
        yields,
    ));
    rows.push(measure(
        Method::Unprivatized,
        Toolchain::bridges2(),
        Backend::Thread,
        yields.min(20_000), // pthread handoffs are slow; cap the runtime
    ));
    rows
}

pub fn report(yields: usize) -> String {
    let rows = run(yields);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.1} ns", r.ns_per_switch),
                r.switches.to_string(),
            ]
        })
        .collect();
    render_table(
        &format!("Fig. 6: ULT context switch time, averaged over {yields} switches (lower is better)"),
        &["method", "per switch", "switches"],
        &table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let _host = crate::host_alone();
        let rows = run(20_000);
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("row {label}"))
                .ns_per_switch
        };
        let baseline = get("baseline");
        let tls = get("tlsglobals");
        let pie = get("pieglobals");
        let pip = get("pipglobals");
        let fs = get("fsglobals");
        let pthread = get("baseline (pthread ablation)");
        // all ULT methods within tens of ns of each other (paper: 12 ns)
        for (name, v) in [("tls", tls), ("pie", pie), ("pip", pip), ("fs", fs)] {
            assert!(
                v < baseline * 3.0 + 100.0,
                "{name} switch time {v} vs baseline {baseline} out of family"
            );
        }
        // the ablation: pthread handoff is at least 5x a ULT switch
        assert!(
            pthread > baseline * 5.0,
            "pthread {pthread} should dwarf ULT {baseline}"
        );
    }
}
