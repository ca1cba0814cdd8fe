//! Machine configuration: the plain [`MachineConfig`] struct, its
//! validation, and the job-startup path ([`MachineConfig::build`]).
//!
//! [`MachineBuilder`] survives as a thin chained-setter wrapper over
//! `MachineConfig`, so existing call sites keep compiling; new code can
//! fill the struct directly and call [`MachineConfig::validate`] to get
//! every configuration check in one place before paying for startup.

use crate::barrier::BarrierAction;
use crate::checkpoint::Checkpoints;
use crate::command::{RankCtx, Slot};
use crate::driver::Driver;
use crate::guards::Guards;
use crate::lb::LoadBalancer;
use crate::location::LocationManager;
use crate::machine::{ClockMode, Machine};
use crate::rank::{RankState, RankStatus};
use crate::rescale::Geometry;
use crate::stats::{HardeningTallies, Tallies};
use crate::transport::TransportParams;
use crate::worker::Shared;
use crate::PeId;
use parking_lot::Mutex;
use pvr_des::{NetworkModel, SimDuration, Topology};
use pvr_isomalloc::{RankMemory, Region, RegionKind};
use pvr_privatize::methods::Options as MethodOptions;
use pvr_privatize::{
    create_privatizer, probe_method, Capability, Method, PrivatizeEnv, PrivatizeError, Privatizer,
    RunShape, Toolchain,
};
use pvr_progimage::{ProgramBinary, SharedFs};
use pvr_trace::{EventKind, ProbeVerdict, Tracer, NO_RANK};
use pvr_ult::{Backend, StackMem, Ult};
use std::fmt;
use std::sync::atomic::AtomicPtr;
use std::sync::Arc;
use std::time::Instant;

/// How many OS threads drive the PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// One thread drives every PE: the worker pool with no helper.
    Serial,
    /// A worker pool of `n` threads; clamped to the PE count at run time.
    Threads(usize),
    /// Read `PVR_THREADS` from the environment (absent/unparsable/0 means
    /// serial). Silently degrades to serial when the run needs it
    /// (guards, an unprivatized method, or a single PE).
    Auto,
}

/// Configuration-time rejections, split out of [`crate::RtsError`] so the
/// runtime error type carries only runtime failures.
#[derive(Debug)]
pub enum ConfigError {
    /// The configuration is internally inconsistent.
    Invalid { detail: String },
    /// Startup failed while instantiating privatizers/ranks with the
    /// configured method (strict mode surfaces the method's own error).
    Startup(PrivatizeError),
    /// Startup exhausted the method fallback chain: every candidate was
    /// probed infeasible or failed mid-startup.
    NoFeasibleMethod { detail: String },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Invalid { detail } => write!(f, "invalid configuration: {detail}"),
            ConfigError::Startup(e) => write!(f, "startup failed: {e}"),
            ConfigError::NoFeasibleMethod { detail } => {
                write!(f, "no feasible privatization method: {detail}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<PrivatizeError> for ConfigError {
    fn from(e: PrivatizeError) -> Self {
        ConfigError::Startup(e)
    }
}

/// Whether a startup error is a capacity/environment failure the
/// fallback chain may degrade past (vs. a bug that must surface).
fn degradable(e: &PrivatizeError) -> bool {
    matches!(
        e,
        PrivatizeError::Unsupported { .. }
            | PrivatizeError::Dl(pvr_progimage::DlError::NamespaceExhausted { .. })
            | PrivatizeError::Fs(pvr_progimage::FsError::NoSpace { .. })
    )
}

/// Privatizers and rank states produced by one startup attempt.
type BuiltJob = (Vec<Box<dyn Privatizer>>, Vec<RankState>);

/// Smallest rank stack [`MachineConfig::validate`] accepts: the deepest
/// lane call a rank makes must fit in half of it in a debug build (see
/// [`MachineBuilder::stack_size`]).
pub(crate) const MIN_STACK_SIZE: usize = 32 * 1024;

/// Whether startup gives each simulated OS process (one privatizer) its
/// own builder thread, so that their segment copies overlap: only with
/// more than one process, and only when every instantiate path is
/// process-local. Rank state is the same either way; wall-clock is not.
fn parallel_startup(privatizers: &[Box<dyn Privatizer>]) -> bool {
    #[cfg(test)]
    if tests::sequential_startup_forced() {
        return false;
    }
    privatizers.len() > 1 && privatizers.iter().all(|p| p.parallel_startup_safe())
}

/// Complete description of a job, as plain data. Every knob the old
/// 20-method builder chain set is a public field here; [`Self::validate`]
/// gathers all the configuration checks in one place.
pub struct MachineConfig {
    pub topology: Topology,
    pub method: Method,
    pub options: MethodOptions,
    pub binary: Arc<ProgramBinary>,
    pub toolchain: Toolchain,
    pub shared_fs: Option<Arc<Mutex<SharedFs>>>,
    /// Virtual ranks per PE (overdecomposition ratio); must be ≥ 1.
    pub vp_ratio: usize,
    pub clock: ClockMode,
    pub network: NetworkModel,
    pub balancer: Option<Box<dyn LoadBalancer>>,
    pub stack_size: usize,
    pub ult_backend: Backend,
    pub code_dedup_migration: bool,
    pub checkpoint_period: u32,
    /// Incremental checkpointing: after a full base capture, subsequent
    /// periodic checkpoints capture only pages/bytes dirtied since the
    /// previous capture, stored as a bounded delta chain on top of the
    /// base and streamed to the buddy asynchronously between barriers.
    /// Requires `checkpoint_period > 0`.
    pub ckpt_incremental: bool,
    /// Maximum delta-chain length before the next periodic checkpoint
    /// compacts the chain into a fresh full base; must be ≥ 1.
    pub ckpt_max_chain: u32,
    /// What the LB barriers do besides balancing: `(lb_step, action)`
    /// pairs, steps 1-based, in any order — [`BarrierAction`] says in
    /// which order a barrier applies its step's actions.
    pub barrier_script: Vec<(u32, BarrierAction)>,
    /// Start with this many active PEs (default: all). The build-time PE
    /// count stays the capacity; the rest sit deactivated until an
    /// elastic grow brings them up.
    pub active_pes: Option<usize>,
    /// Automatic rescale policy, consulted at every LB barrier.
    pub rescale_policy: Option<Box<dyn crate::rescale::RescalePolicy>>,
    pub retransmit_base: SimDuration,
    pub retransmit_max_attempts: u32,
    /// Cap on open nonblocking requests per rank (posted, not yet
    /// reaped by a wait/test). Exceeding it fails the run with
    /// [`crate::RtsError::RequestOverflow`] — a leak detector, not a
    /// flow-control valve. Must be ≥ 1.
    pub max_outstanding_reqs: usize,
    pub tracer: Option<Arc<Tracer>>,
    pub fallback: bool,
    pub fallback_chain: Vec<Method>,
    pub guards: bool,
    /// Worker-thread policy for [`Machine::run`].
    pub parallelism: Parallelism,
}

impl MachineConfig {
    pub fn new(binary: Arc<ProgramBinary>) -> MachineConfig {
        MachineConfig {
            topology: Topology::smp(1),
            method: Method::PieGlobals,
            options: MethodOptions::default(),
            binary,
            toolchain: Toolchain::default(),
            shared_fs: Some(Arc::new(Mutex::new(SharedFs::new()))),
            vp_ratio: 1,
            clock: ClockMode::RealTime,
            network: NetworkModel::infiniband(),
            balancer: None,
            stack_size: 128 * 1024,
            ult_backend: Backend::native(),
            code_dedup_migration: false,
            checkpoint_period: 0,
            ckpt_incremental: false,
            ckpt_max_chain: 8,
            barrier_script: Vec::new(),
            active_pes: None,
            rescale_policy: None,
            retransmit_base: SimDuration::from_micros(20),
            retransmit_max_attempts: 10,
            max_outstanding_reqs: 1024,
            tracer: None,
            fallback: false,
            fallback_chain: vec![Method::PipGlobals, Method::FsGlobals, Method::PieGlobals],
            guards: false,
            parallelism: Parallelism::Auto,
        }
    }

    /// Check the whole configuration for internal consistency. Every
    /// rejection [`Self::build`] can produce without actually starting
    /// ranks comes from here.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let invalid = |detail: String| Err(ConfigError::Invalid { detail });
        let n_pes = self.topology.total_pes();
        if self.vp_ratio == 0 {
            return invalid("vp_ratio: at least one virtual rank per PE is required".into());
        }
        if self.stack_size < MIN_STACK_SIZE {
            return invalid(format!(
                "stack_size: {} bytes is under the {MIN_STACK_SIZE}-byte floor of a rank stack",
                self.stack_size
            ));
        }
        if self.ckpt_incremental && self.checkpoint_period == 0 {
            return invalid(
                "ckpt_incremental requires checkpoint_period > 0 (there would be no \
                 periodic captures to take deltas at)"
                    .into(),
            );
        }
        if self.ckpt_max_chain == 0 {
            return invalid(
                "ckpt_max_chain: the delta chain must allow at least one delta before \
                 compaction (use ckpt_incremental = false for full checkpoints)"
                    .into(),
            );
        }
        for &(step, action) in &self.barrier_script {
            use BarrierAction::*;
            let defect = match action {
                _ if step == 0 => "LB steps are 1-based".into(),
                SoftFault | FailPe(_) | RestoreGeometry(_) if self.checkpoint_period == 0 => {
                    "it requires checkpoint_period > 0 (no checkpoint would be available to \
                     recover from)"
                        .into()
                }
                CorruptDelta { .. } if !self.ckpt_incremental => {
                    "it targets incremental delta captures and requires ckpt_incremental".into()
                }
                FailPe(pe) if pe >= n_pes => {
                    format!("PE {pe} out of range (job has {n_pes} PEs)")
                }
                FailPe(_) if n_pes < 2 => "surviving on fewer PEs needs at least 2 PEs".into(),
                RestoreGeometry(n) | Rescale(n) if n == 0 || n > n_pes => {
                    format!("target {n} out of range (capacity is {n_pes} PEs)")
                }
                _ => continue,
            };
            return invalid(format!("barrier_script: {action:?} at LB step {step}: {defect}"));
        }
        if let Some(a) = self.active_pes {
            if a == 0 || a > n_pes {
                return invalid(format!(
                    "active_pes: {a} out of range (the build-time capacity is {n_pes} PEs)"
                ));
            }
        }
        if let Some(plan) = self.network.fault_plan() {
            if let Err(e) = plan.validate() {
                return invalid(format!("network fault plan: {e}"));
            }
            if self.clock == ClockMode::RealTime {
                return invalid(
                    "a network fault plan requires ClockMode::Virtual (reliable delivery \
                     is event-driven)"
                        .into(),
                );
            }
            if self.retransmit_max_attempts == 0 {
                return invalid("retransmit_params: max_attempts must be >= 1".into());
            }
        }
        if self.max_outstanding_reqs == 0 {
            return invalid(
                "max_outstanding_reqs: at least one open nonblocking request per rank must \
                 be allowed (the cap is a leak detector, not a way to disable requests)"
                    .into(),
            );
        }
        if self.guards && self.method == Method::Unprivatized {
            return invalid(
                "guards: the stack/arena/segment guards assume privatized per-rank state; \
                 method `baseline` (Unprivatized) shares every global, so guard trips could \
                 never be attributed to a rank — pick a privatizing method or disable guards"
                    .into(),
            );
        }
        if self.tracer.is_some() && self.ult_backend == Backend::Thread {
            return invalid(
                "tracer: under ult_backend Backend::Thread rank bodies run on OS threads the \
                 trace scope does not reach, so the AMPI and privatizer hooks would record \
                 nothing and nothing would say so (DESIGN §5c) — use Backend::Asm or attach \
                 no tracer"
                    .into(),
            );
        }
        if self.fallback && self.fallback_chain.is_empty() {
            return invalid(
                "fallback_chain: the fallback chain must name at least one method".into(),
            );
        }
        match self.parallelism {
            Parallelism::Threads(0) => {
                return invalid(
                    "parallelism: Threads(0) is meaningless — use Serial or Threads(n >= 1)"
                        .into(),
                );
            }
            Parallelism::Threads(n) if n > 1 && self.guards => {
                return invalid(
                    "parallelism: the memory-safety guards audit cross-rank state and require \
                     serial execution — use Parallelism::Serial (or Auto, which degrades)"
                        .into(),
                );
            }
            Parallelism::Threads(n) if n > 1 && self.method == Method::Unprivatized => {
                return invalid(
                    "parallelism: method `baseline` (Unprivatized) shares every global across \
                     ranks, so concurrent PEs would race on them — use Parallelism::Serial"
                        .into(),
                );
            }
            _ => {}
        }
        Ok(())
    }

    /// Instantiate the job: one privatizer per OS process, then all
    /// ranks. This is the unit the startup experiment (Fig. 5) times.
    pub fn build(
        self,
        body: Arc<dyn Fn(RankCtx) + Send + Sync + 'static>,
    ) -> Result<Machine, ConfigError> {
        self.validate()?;
        let topo = self.topology;
        let n_pes = topo.total_pes();
        let n_ranks = n_pes * self.vp_ratio;

        let mk_env = || {
            PrivatizeEnv::new(self.binary.clone())
                .with_toolchain(self.toolchain)
                .with_pes(topo.pes_per_process)
                .with_shared_fs(self.shared_fs.clone())
                .with_concurrent_processes(topo.total_processes())
        };

        // Candidate methods, in trial order: the requested method, then
        // the fallback chain (strict mode: the requested method only).
        let mut candidates: Vec<Method> = vec![self.method];
        if self.fallback {
            for &m in &self.fallback_chain {
                if !candidates.contains(&m) {
                    candidates.push(m);
                }
            }
        }

        // Capability-probe pass (fallback mode): rate every candidate
        // before any rank exists. A *chain* entry the environment can
        // never run is a configuration error — the user named a method
        // that could not possibly back them up; a shape-dependent
        // ResourceLimited verdict is exactly what the chain is for.
        let mut hardening = HardeningTallies::default();
        let mut verdicts: Vec<Capability> = Vec::new();
        if self.fallback {
            for &m in &candidates {
                let cap = probe_method(
                    m,
                    &mk_env(),
                    RunShape {
                        ranks_per_process: topo.pes_per_process * self.vp_ratio,
                        total_ranks: n_ranks,
                    },
                );
                if m != self.method && cap.is_unsupported() {
                    return Err(ConfigError::Invalid {
                        detail: format!(
                            "fallback_chain: {m} can never start in this environment ({cap})"
                        ),
                    });
                }
                if let Some(t) = &self.tracer {
                    let verdict = match &cap {
                        Capability::Feasible => ProbeVerdict::Feasible,
                        Capability::ResourceLimited { .. } => ProbeVerdict::ResourceLimited,
                        Capability::Unsupported { .. } => ProbeVerdict::Unsupported,
                    };
                    t.record(
                        0,
                        NO_RANK,
                        0,
                        EventKind::MethodProbe {
                            method: m.name(),
                            verdict,
                        },
                    );
                }
                hardening.probes += 1;
                verdicts.push(cap);
            }
        }

        // Initial placement covers only the *active* PEs; the rest of
        // the capacity sits idle until an elastic grow brings it up.
        let n_active = self.active_pes.unwrap_or(n_pes);
        let location = LocationManager::new_block(n_ranks, n_active);
        // Scope the tracer over instantiation so privatizer startup work
        // (segment copies, GOT fixups) lands in the trace.
        let trace_scope = self
            .tracer
            .as_ref()
            .map(|t| pvr_trace::ThreadScope::install(t.clone()));

        // Per-rank instantiation body, shared by the sequential and the
        // parallel per-process startup. Captures only values that are
        // safe to share across the builder threads.
        let tracer_on = self.tracer.is_some();
        let guards = self.guards;
        let stack_size = self.stack_size;
        let virtual_mode = self.clock == ClockMode::Virtual;
        let ult_backend = self.ult_backend;
        let binary = self.binary.clone();
        let rank_body = body.clone();
        let build_rank = move |privatizer: &mut Box<dyn Privatizer>,
                               r: usize,
                               pe: usize|
              -> Result<RankState, PrivatizeError> {
            if tracer_on {
                pvr_trace::set_context(pe, r as u32, 0);
            }
            let mut mem = RankMemory::new();
            let instance = Arc::new(privatizer.instantiate_rank(r, &mut mem)?);
            if guards {
                mem.heap().set_guard(true);
            }

            // ULT stack inside rank memory → packed on migration.
            let stack_region = Region::new_zeroed(RegionKind::Stack, stack_size);
            let stack_ptr = stack_region.base_mut();
            mem.add_region(stack_region);
            let stack = unsafe { StackMem::from_raw(stack_ptr, stack_size) };

            let slot = Arc::new(Slot::default());
            let ctx = RankCtx {
                rank: r,
                n_ranks,
                slot: slot.clone(),
                instance: instance.clone(),
                virtual_mode,
                binary: binary.clone(),
            };
            let body = rank_body.clone();
            let mut ult = Ult::with_backend(ult_backend, stack, move || body(ctx));
            if guards {
                ult.install_stack_guard();
            }

            Ok(RankState {
                ult: Some(ult),
                memory: mem,
                instance,
                slot,
                status: RankStatus::Ready,
                matcher: Default::default(),
                load_since_lb: SimDuration::ZERO,
                total_load: SimDuration::ZERO,
                messages_sent: 0,
                messages_received: 0,
                migrations: 0,
                transport: Default::default(),
            })
        };

        // Try one candidate end-to-end: one privatizer per simulated OS
        // process, then every rank. On failure the locals drop right here
        // — never-started ULTs detach cleanly and FSglobals' Drop deletes
        // every binary copy it created — so a candidate that dies at rank
        // N leaves no residue for the next candidate.
        let attempt = |method: Method| -> Result<BuiltJob, PrivatizeError> {
            let mut privatizers: Vec<Box<dyn Privatizer>> = Vec::new();
            for _proc in 0..topo.total_processes() {
                privatizers.push(create_privatizer(method, mk_env(), self.options.clone())?);
            }
            let mut ranks: Vec<RankState> = Vec::with_capacity(n_ranks);
            if parallel_startup(&privatizers) {
                let rank_pes: Vec<usize> = (0..n_ranks).map(|r| location.lookup(r)).collect();
                let results: Vec<Result<Vec<(usize, RankState)>, PrivatizeError>> =
                    std::thread::scope(|s| {
                        let handles: Vec<_> = privatizers
                            .iter_mut()
                            .enumerate()
                            .map(|(proc, p)| {
                                let plan: Vec<(usize, usize)> = rank_pes
                                    .iter()
                                    .enumerate()
                                    .filter(|&(_, &pe)| topo.process_of_pe(pe) == proc)
                                    .map(|(r, &pe)| (r, pe))
                                    .collect();
                                let tracer = self.tracer.clone();
                                let build_rank = &build_rank;
                                s.spawn(move || {
                                    let _scope =
                                        tracer.map(pvr_trace::ThreadScope::install);
                                    let mut out = Vec::with_capacity(plan.len());
                                    for (r, pe) in plan {
                                        out.push((r, build_rank(p, r, pe)?));
                                    }
                                    Ok(out)
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("startup builder thread panicked"))
                            .collect()
                    });
                // Merge in process order; the first failing process (the
                // lowest-ranked failure under block placement) surfaces,
                // matching the sequential path's error.
                let mut pairs: Vec<(usize, RankState)> = Vec::with_capacity(n_ranks);
                for res in results {
                    pairs.extend(res?);
                }
                pairs.sort_by_key(|(r, _)| *r);
                ranks.extend(pairs.into_iter().map(|(_, state)| state));
            } else {
                for r in 0..n_ranks {
                    let pe = location.lookup(r);
                    let proc = topo.process_of_pe(pe);
                    ranks.push(build_rank(&mut privatizers[proc], r, pe)?);
                }
            }
            Ok((privatizers, ranks))
        };

        let mut built: Option<(Method, BuiltJob)> = None;
        let mut failures: Vec<String> = Vec::new();
        for (i, &cand) in candidates.iter().enumerate() {
            // Record a degradation hop (event + tally) from a failed
            // candidate to the next one in line.
            let note_fallback = |hardening: &mut HardeningTallies| {
                if i + 1 < candidates.len() {
                    if let Some(t) = &self.tracer {
                        t.record(
                            0,
                            NO_RANK,
                            0,
                            EventKind::MethodFallback {
                                from: cand.name(),
                                to: candidates[i + 1].name(),
                            },
                        );
                    }
                    hardening.fallbacks += 1;
                }
            };
            if let Some(cap) = verdicts.get(i) {
                if !cap.is_feasible() {
                    // Probe-predicted infeasibility: skip without paying
                    // for a doomed startup.
                    failures.push(format!("{cand}: {cap}"));
                    note_fallback(&mut hardening);
                    continue;
                }
            }
            match attempt(cand) {
                Ok(job) => {
                    built = Some((cand, job));
                    break;
                }
                Err(e) if self.fallback && degradable(&e) => {
                    // The probe passed but startup still failed (probes
                    // are conservative predictions). `attempt` already
                    // tore everything down; degrade.
                    failures.push(format!("{cand}: {e}"));
                    note_fallback(&mut hardening);
                }
                Err(e) => return Err(ConfigError::Startup(e)),
            }
        }
        drop(trace_scope);
        let Some((landed, (privatizers, ranks))) = built else {
            return Err(ConfigError::NoFeasibleMethod {
                detail: failures.join("; "),
            });
        };

        let moves_ranks = |&(_, action): &(u32, BarrierAction)| {
            use BarrierAction::*;
            matches!(action, FailPe(_) | RestoreGeometry(_) | Rescale(_))
        };
        let needs_rank_movement =
            self.rescale_policy.is_some() || self.barrier_script.iter().any(moves_ranks);
        if needs_rank_movement && !privatizers[0].supports_migration() {
            return Err(ConfigError::Invalid {
                detail: format!(
                    "PE failure injection and elastic rescaling move ranks between PEs, but \
                     {landed} does not support migration"
                ),
            });
        }

        let guards = self.guards.then(|| Guards::new(&privatizers, n_ranks));

        // Stable: a step's actions of one kind keep the order given.
        let mut barrier_script = self.barrier_script;
        barrier_script.sort_by_key(|&(step, action)| (step, action.order()));

        let reliable = self.network.fault_plan().map(|plan| TransportParams {
            plan: *plan,
            base_rto: self.retransmit_base,
            max_attempts: self.retransmit_max_attempts,
        });

        // Per-PE hierarchical-local-storage blocks (MPC HLS): resolved
        // once so the context-switch path pays a plain load.
        let hls = (0..n_pes)
            .map(|pe| {
                let proc = topo.process_of_pe(pe);
                let local = pe - topo.pes_of_process(proc).start;
                AtomicPtr::new(privatizers[proc].pe_block(local).unwrap_or(std::ptr::null_mut()))
            })
            .collect();

        Ok(Machine {
            driver: Driver::new(&location, n_pes, ranks, self.parallelism),
            shared: Shared {
                clock: self.clock,
                topology: topo,
                network: self.network,
                location,
                hls,
                geometry: Geometry::new(n_pes, n_active),
                tracer: self.tracer,
                reliable,
                privatizers,
                guards,
                epoch: Instant::now(),
                max_outstanding_reqs: self.max_outstanding_reqs,
            },
            balancer: self.balancer,
            tallies: Tallies {
                hardening,
                ..Default::default()
            },
            lb_steps: 0,
            migrations: Vec::new(),
            lb_history: Vec::new(),
            comm_bytes: std::collections::BTreeMap::new(),
            code_dedup_migration: self.code_dedup_migration,
            ckpt: Checkpoints {
                period: self.checkpoint_period,
                incremental: self.ckpt_incremental,
                max_chain: self.ckpt_max_chain,
                last: None,
            },
            barrier_script: barrier_script.into(),
            rescale_policy: self.rescale_policy,
            method_requested: self.method,
            binary: self.binary,
            migrate_buf: pvr_isomalloc::MigrationBuffer::default(),
        })
    }
}

/// Chained-setter facade over [`MachineConfig`]; every method forwards to
/// the corresponding field.
pub struct MachineBuilder {
    cfg: MachineConfig,
}

impl MachineBuilder {
    pub fn new(binary: Arc<ProgramBinary>) -> MachineBuilder {
        MachineBuilder {
            cfg: MachineConfig::new(binary),
        }
    }

    pub fn topology(mut self, t: Topology) -> Self {
        self.cfg.topology = t;
        self
    }

    pub fn method(mut self, m: Method) -> Self {
        self.cfg.method = m;
        self
    }

    pub fn toolchain(mut self, t: Toolchain) -> Self {
        self.cfg.toolchain = t;
        self
    }

    /// Virtual ranks per PE (overdecomposition ratio).
    pub fn vp_ratio(mut self, r: usize) -> Self {
        self.cfg.vp_ratio = r;
        self
    }

    pub fn clock(mut self, c: ClockMode) -> Self {
        self.cfg.clock = c;
        self
    }

    pub fn network(mut self, n: NetworkModel) -> Self {
        self.cfg.network = n;
        self
    }

    /// Mount (or unmount) a shared filesystem for this job.
    /// Kept for tests: fault hook (a capped or failing FS).
    pub fn shared_fs(mut self, fs: Option<Arc<Mutex<SharedFs>>>) -> Self {
        self.cfg.shared_fs = fs;
        self
    }

    pub fn balancer(mut self, b: Box<dyn LoadBalancer>) -> Self {
        self.cfg.balancer = Some(b);
        self
    }

    /// Bytes of ULT stack per rank (default 128 KiB, floor 32 KiB). It
    /// carries the rank's frames *and* the runtime's lane calls, which
    /// run on it. Their worst case below the calling frame (a reliable
    /// send to self, lossy plan, tracing on) is 2.6 KiB optimised and
    /// 8.0 KiB in a debug build: a sixteenth of the smallest stack any
    /// test or benchmark configures (128 KiB). Measured at the floor by
    /// `deepest_handler_fits_the_smallest_stack`.
    pub fn stack_size(mut self, s: usize) -> Self {
        self.cfg.stack_size = s;
        self
    }

    pub fn ult_backend(mut self, b: Backend) -> Self {
        self.cfg.ult_backend = b;
        self
    }

    /// The paper's future-work migration optimization: skip the rank's
    /// code-segment copies when migrating (they are bitwise identical
    /// across ranks and can be re-duplicated from the local image).
    pub fn code_dedup_migration(mut self, on: bool) -> Self {
        self.cfg.code_dedup_migration = on;
        self
    }

    /// Take a coordinated checkpoint of every rank's memory at every
    /// `n`-th load-balancing sync point (0 = off). This is the
    /// checkpoint/restart fault-tolerance scheme Isomalloc migratability
    /// enables (§2.1): rank memory is packed exactly like a migration.
    pub fn checkpoint_period(mut self, n: u32) -> Self {
        self.cfg.checkpoint_period = n;
        self
    }

    /// Incremental checkpointing: the first periodic capture (and any
    /// capture after a layout change or a full delta chain) packs the
    /// complete rank image as before; every other periodic capture packs
    /// only the pages/bytes dirtied since the previous capture, appends
    /// them to a bounded delta chain, and streams the sealed delta to the
    /// buddy PE asynchronously between barriers. Restore reconstructs
    /// base + deltas byte-identically. Requires `checkpoint_period > 0`.
    pub fn ckpt_incremental(mut self, on: bool) -> Self {
        self.cfg.ckpt_incremental = on;
        self
    }

    /// Maximum delta-chain length before the next periodic checkpoint
    /// compacts the chain into a fresh full base (default 8; must be ≥ 1).
    /// Kept for tests: input language.
    pub fn ckpt_max_chain(mut self, n: u32) -> Self {
        self.cfg.ckpt_max_chain = n;
        self
    }

    /// Script [`BarrierAction::CorruptDelta`] (byte index `at`) at LB
    /// step `k`. Kept for tests: fault hook.
    pub fn corrupt_ckpt_delta_at(mut self, k: u32, at: usize) -> Self {
        self.cfg.barrier_script.push((k, BarrierAction::CorruptDelta { byte: at }));
        self
    }

    /// Script [`BarrierAction::SoftFault`] at LB step `k`.
    pub fn inject_fault_at_lb_step(mut self, k: u32) -> Self {
        self.cfg.barrier_script.push((k, BarrierAction::SoftFault));
        self
    }

    /// Script [`BarrierAction::FailPe`] of PE `pe` at LB step `k`. Call
    /// repeatedly to schedule cascading failures (including several at
    /// one step).
    pub fn inject_pe_failure_at_lb_step(mut self, k: u32, pe: PeId) -> Self {
        self.cfg.barrier_script.push((k, BarrierAction::FailPe(pe)));
        self
    }

    /// Start the run with only `n` of the build-time PEs active; the
    /// rest sit deactivated until an elastic grow
    /// ([`Machine::rescale`](crate::Machine::rescale), a scheduled
    /// [`Self::rescale_at_lb_step`], or a [`Self::rescale_policy`])
    /// brings them up.
    pub fn active_pes(mut self, n: usize) -> Self {
        self.cfg.active_pes = Some(n);
        self
    }

    /// Script [`BarrierAction::Rescale`] to `n` PEs at LB step `k`. Kept for tests: input language.
    pub fn rescale_at_lb_step(mut self, k: u32, n: usize) -> Self {
        self.cfg.barrier_script.push((k, BarrierAction::Rescale(n)));
        self
    }

    /// Automatic elastic rescaling: consult `p` at every LB barrier with
    /// the observed per-active-PE window loads. Kept for tests: input language.
    pub fn rescale_policy(mut self, p: Box<dyn crate::rescale::RescalePolicy>) -> Self {
        self.cfg.rescale_policy = Some(p);
        self
    }

    /// Script [`BarrierAction::RestoreGeometry`] onto `n` PEs at LB
    /// step `k`. Kept for tests: fault hook.
    pub fn restore_geometry_at_lb_step(mut self, k: u32, n: usize) -> Self {
        self.cfg.barrier_script.push((k, BarrierAction::RestoreGeometry(n)));
        self
    }

    /// Tune the reliable-delivery layer (active when the network model
    /// carries a fault plan): `base_timeout` is added to the modeled
    /// round-trip estimate for the first retransmit timer (doubling each
    /// attempt), and `max_attempts` bounds total transmissions per
    /// message before the run fails with [`crate::RtsError::DeliveryFailed`].
    /// Kept for tests: fault hook.
    pub fn retransmit_params(mut self, base_timeout: SimDuration, max_attempts: u32) -> Self {
        self.cfg.retransmit_base = base_timeout;
        self.cfg.retransmit_max_attempts = max_attempts;
        self
    }

    /// Cap on open nonblocking requests per rank before the run fails
    /// with [`crate::RtsError::RequestOverflow`] (default 1024; ≥ 1).
    /// Kept for tests: input language.
    pub fn max_outstanding_reqs(mut self, n: usize) -> Self {
        self.cfg.max_outstanding_reqs = n;
        self
    }

    /// Attach an event recorder (see `pvr-trace`). The tracer still has
    /// to be enabled to record; with no tracer attached — the default —
    /// every instrumentation hook reduces to a branch on `None`.
    pub fn tracer(mut self, t: Arc<Tracer>) -> Self {
        self.cfg.tracer = Some(t);
        self
    }

    /// Enable graceful degradation: before any rank is created, every
    /// candidate method (the requested one, then the fallback chain) is
    /// capability-probed against the environment and run shape, and an
    /// infeasible method degrades to the next feasible one. Probes are
    /// conservative predictions, so a candidate that passes its probe but
    /// fails *mid-startup* (rank N's `dlmopen` or FS copy fails) also
    /// degrades: already-created ranks are torn down, partially-copied
    /// FS binaries deleted, and the next candidate is tried.
    ///
    /// Off by default: a strict build surfaces the method's own error
    /// (`NamespaceExhausted`, `NoSpace`, ...) exactly as configured.
    /// Kept for tests: input language.
    pub fn fallback(mut self, on: bool) -> Self {
        self.cfg.fallback = on;
        self
    }

    /// Enable the memory-safety guards: canary red zones on every ULT
    /// stack (checked at context switches), Isomalloc arena poisoning
    /// with double-free/use-after-free detection, and a segment-integrity
    /// audit that detects cross-rank global bleed. Guard trips end the
    /// run with clean, rank-attributed errors instead of undefined
    /// behavior. Off by default (zero overhead). Forces serial execution.
    pub fn guards(mut self, on: bool) -> Self {
        self.cfg.guards = on;
        self
    }

    /// Worker-thread policy for [`Machine::run`]; defaults to
    /// [`Parallelism::Auto`].
    pub fn parallelism(mut self, p: Parallelism) -> Self {
        self.cfg.parallelism = p;
        self
    }

    /// Instantiate the job (forwards to [`MachineConfig::build`]).
    pub fn build(
        self,
        body: Arc<dyn Fn(RankCtx) + Send + Sync + 'static>,
    ) -> Result<Machine, ConfigError> {
        self.cfg.build(body)
    }
}

#[cfg(test)]
/// Machine-level startup and fallback tests. Written beside what
/// they test, they expand inside `machine::tests`, whose helpers they
/// share and under whose path the suite lists them.
macro_rules! startup_tests {
    () => {
        #[test]
        fn startup_reports_costs() {
            let m = builder()
                .method(Method::FsGlobals)
                .vp_ratio(4)
                .build(Arc::new(|_ctx: RankCtx| {}))
                .unwrap();
            assert!(m.simulated_startup_cost() > Duration::ZERO);
            assert!(m.per_rank_copied_bytes() > 0);
        }

        #[test]
        fn pip_namespace_exhaustion_at_build_time() {
            // 16 VPs on one PE needs 16 namespaces: stock glibc caps at 12.
            let err = builder()
                .method(Method::PipGlobals)
                .vp_ratio(16)
                .build(Arc::new(|_ctx: RankCtx| {}));
            match err {
                Err(ConfigError::Startup(PrivatizeError::Dl(
                    pvr_progimage::DlError::NamespaceExhausted { .. },
                ))) => {}
                other => panic!("expected namespace exhaustion, got {:?}", other.map(|_| ())),
            }
        }

        #[test]
        fn fallback_degrades_pip_to_fs_and_matches_direct_run() {
            // The acceptance scenario: PIPglobals requested with 16 ranks per
            // process on stock glibc (12-namespace budget). With the fallback
            // chain on, the probe rates PIPglobals resource-limited, degrades
            // to FSglobals, and the run completes with results bit-identical
            // to a direct FSglobals run.
            let body_for = |sink: Arc<Mutex<Vec<(usize, u64)>>>| -> Arc<dyn Fn(RankCtx) + Send + Sync> {
                Arc::new(move |ctx: RankCtx| {
                    let me = ctx.rank();
                    let acc = ctx.instance().access("my_rank");
                    acc.write_u64(me as u64 * 3 + 1);
                    ctx.yield_now();
                    sink.lock().push((me, acc.read_u64()));
                })
            };
            let run = |fallback: bool, method: Method| {
                let out: Arc<Mutex<Vec<(usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
                let t = Tracer::new(1);
                t.enable();
                let mut b = builder().method(method).vp_ratio(16).tracer(t.clone());
                if fallback {
                    b = b.fallback(true);
                }
                let mut m = b.build(body_for(out.clone())).unwrap();
                let report = m.run().unwrap();
                assert_reconciled(&report, &t);
                let landed = m.method();
                let mut v = out.lock().clone();
                v.sort();
                (landed, report, v)
            };
            let (landed, report, results) = run(true, Method::PipGlobals);
            assert_eq!(landed, Method::FsGlobals);
            assert_eq!(report.method_requested, Method::PipGlobals);
            assert_eq!(report.method_landed, Method::FsGlobals);
            assert_eq!(report.hardening.probes, 3, "pip, fs, pie each probed");
            assert_eq!(report.hardening.fallbacks, 1);
            assert_eq!(results.len(), 16);
            let (direct_landed, direct_report, direct_results) = run(false, Method::FsGlobals);
            assert_eq!(direct_landed, Method::FsGlobals);
            assert!(direct_report.hardening.is_clean(), "strict mode probes nothing");
            assert_eq!(
                results, direct_results,
                "degraded run must be bit-identical to the direct FSglobals run"
            );
        }

        #[test]
        fn midstartup_fs_failure_degrades_and_cleans_up() {
            // The probe passes (unbounded FS) but the injected write budget
            // runs dry at rank 2's copy: mid-startup degradation tears the
            // FSglobals attempt down (no leaked copies), skips the
            // probe-infeasible PIPglobals, and lands on PIEglobals.
            let fs = Arc::new(Mutex::new(SharedFs::new()));
            fs.lock().fail_writes_after(3); // deploy + 2 rank copies, then NoSpace
            let t = Tracer::new(1);
            t.enable();
            let mut m = builder()
                .method(Method::FsGlobals)
                .shared_fs(Some(fs.clone()))
                .vp_ratio(16)
                .fallback(true)
                .tracer(t.clone())
                .build(Arc::new(|_ctx: RankCtx| {}))
                .unwrap();
            assert_eq!(m.method(), Method::PieGlobals);
            assert_eq!(fs.lock().file_count(), 0, "failed attempt must delete its copies");
            assert_eq!(fs.lock().bytes_used(), 0);
            let report = m.run().unwrap();
            assert_eq!(report.method_requested, Method::FsGlobals);
            let h = m.hardening_stats();
            assert_eq!(h.probes, 3);
            assert_eq!(h.fallbacks, 2, "fs (mid-startup) -> pip (probe) -> pie");
            assert_eq!(report.hardening, h);
            assert_reconciled(&report, &t);
        }

        #[test]
        fn fallback_exhaustion_reports_every_failure() {
            // FS capped so FSglobals can't fit, 16 ranks so PIPglobals can't
            // either, and a chain without PIEglobals: nothing lands.
            let mut cfg = MachineConfig::new(test_binary());
            cfg.method = Method::PipGlobals;
            cfg.shared_fs = Some(Arc::new(Mutex::new(SharedFs::with_capacity(1024))));
            cfg.vp_ratio = 16;
            (cfg.fallback, cfg.fallback_chain) = (true, vec![Method::FsGlobals]);
            match cfg.build(Arc::new(|_ctx: RankCtx| {})) {
                Err(ConfigError::NoFeasibleMethod { detail }) => {
                    assert!(detail.contains("pipglobals"), "{detail}");
                    assert!(detail.contains("fsglobals"), "{detail}");
                }
                other => panic!("expected NoFeasibleMethod, got {:?}", other.map(|_| ())),
            }
        }

        #[test]
        fn fallback_chain_rejects_env_unsupported_entry() {
            // Swapglobals can never run under the default (bridges2)
            // toolchain: naming it as a backup is a configuration error.
            let mut cfg = MachineConfig::new(test_binary());
            (cfg.fallback, cfg.fallback_chain) = (true, vec![Method::Swapglobals]);
            match cfg.build(Arc::new(|_ctx: RankCtx| {})) {
                Err(ConfigError::Invalid { detail }) => {
                    assert!(detail.contains("fallback_chain"), "{detail}");
                    assert!(detail.contains("swapglobals"), "{detail}");
                }
                other => panic!("expected Invalid error, got {:?}", other.map(|_| ())),
            }
        }

        #[test]
        fn tracer_under_the_thread_backend_rejected() {
            let mut cfg = MachineConfig::new(test_binary());
            cfg.ult_backend = pvr_ult::Backend::Thread;
            cfg.tracer = Some(Tracer::new(1));
            match cfg.build(Arc::new(|_ctx: RankCtx| {})) {
                Err(ConfigError::Invalid { detail }) => {
                    assert!(detail.contains("Backend::Thread") && detail.contains("§5c"), "{detail}")
                }
                other => panic!("expected Invalid error, got {:?}", other.map(|_| ())),
            }
        }

        #[test]
        fn empty_fallback_chain_rejected() {
            let mut cfg = MachineConfig::new(test_binary());
            (cfg.fallback, cfg.fallback_chain) = (true, vec![]);
            match cfg.build(Arc::new(|_ctx: RankCtx| {})) {
                Err(ConfigError::Invalid { detail }) => {
                    assert!(detail.contains("fallback_chain"), "{detail}")
                }
                other => panic!("expected Invalid error, got {:?}", other.map(|_| ())),
            }
        }
    };
}
#[cfg(test)]
pub(crate) use startup_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::MatchSpec;
    use bytes::Bytes;
    use pvr_progimage::{link, ImageSpec};
    use pvr_trace::TraceCounts;
    use std::cell::Cell;

    thread_local! {
        static SEQUENTIAL_STARTUP: Cell<bool> = const { Cell::new(false) };
    }

    /// Read by `parallel_startup`, on the thread that calls `build` —
    /// the test's own.
    pub(super) fn sequential_startup_forced() -> bool {
        SEQUENTIAL_STARTUP.with(|f| f.get())
    }

    type Residuals = Vec<(usize, Vec<f64>)>;

    /// Jacobi relaxation of a ring cut into one 16-cell strip per rank:
    /// four halo-exchanging sweeps, then a migrating barrier, three
    /// times. The grid is on the rank heap and the sweep counter (the halo
    /// tag) in a privatized global: the run reads what startup built.
    fn jacobi(ctx: &RankCtx) -> Vec<f64> {
        const CELLS: usize = 16;
        let (me, n) = (ctx.rank(), ctx.n_ranks());
        let (left, right) = ((me + n - 1) % n, (me + 1) % n);
        let sweeps = ctx.instance().access("sweeps");
        let u = ctx.heap_alloc_f64s(CELLS + 2);
        for (i, c) in u.iter_mut().enumerate() {
            *c = ((me * CELLS + i) % 7) as f64;
        }
        let halo = |from: usize, tag: u64| {
            let spec = MatchSpec {
                src: Some(from),
                tag_mask: u64::MAX,
                tag_value: tag,
            };
            f64::from_le_bytes(ctx.recv_match(spec).payload[..].try_into().unwrap())
        };
        let mut history = Vec::new();
        for _round in 0..3 {
            let mut residual = 0.0;
            for _sweep in 0..4 {
                let tag = sweeps.read_u64();
                ctx.send(left, tag, Bytes::copy_from_slice(&u[1].to_le_bytes()));
                ctx.send(right, tag, Bytes::copy_from_slice(&u[CELLS].to_le_bytes()));
                u[0] = halo(left, tag);
                u[CELLS + 1] = halo(right, tag);
                let old = u.to_vec();
                for i in 1..=CELLS {
                    u[i] = 0.5 * (old[i - 1] + old[i + 1]);
                }
                residual = u.iter().zip(&old).map(|(a, b)| (a - b) * (a - b)).sum();
                ctx.compute(SimDuration::from_micros(5 + me as u64));
                sweeps.write_u64(tag + 1);
            }
            history.push(residual);
            ctx.at_sync();
        }
        history
    }

    fn run_jacobi(method: Method, sequential: bool) -> (u64, Residuals, TraceCounts) {
        let out: Arc<Mutex<Residuals>> = Arc::default();
        let sink = out.clone();
        let tracer = Tracer::new(3);
        tracer.enable();
        SEQUENTIAL_STARTUP.with(|f| f.set(sequential));
        let binary = link(ImageSpec::builder("jacobi").global("sweeps", 8).build());
        let built = MachineBuilder::new(binary)
            .method(method)
            .clock(ClockMode::Virtual)
            .topology(Topology::non_smp(3))
            .vp_ratio(2)
            .balancer(Box::new(crate::lb::RotateLb))
            .tracer(tracer.clone())
            .build(Arc::new(move |ctx: RankCtx| {
                let history = jacobi(&ctx); // no lock held across the rank's blocking calls
                sink.lock().push((ctx.rank(), history));
            }));
        SEQUENTIAL_STARTUP.with(|f| f.set(false));
        let report = built.unwrap().run().unwrap();
        let mut residuals = out.lock().clone();
        residuals.sort_by_key(|r| r.0);
        (report.sim_digest(), residuals, tracer.counts())
    }

    #[test]
    fn parallel_startup_matches_sequential_startup() {
        for method in [Method::PieGlobals, Method::TlsGlobals] {
            let parallel = run_jacobi(method, false);
            assert!(
                parallel.1.len() == 6 && parallel.2.migrations > 0,
                "{method}: {parallel:?}"
            );
            assert_eq!(parallel, run_jacobi(method, true), "{method}");
        }
    }
}

