//! `c3ctl` — the privileged userspace control plane for Concord.
//!
//! The paper's model is "a privileged userspace process \[that\] modif\[ies\]
//! kernel locks on the fly"; this tool is that process. It hosts a demo
//! registry of named locks, loads policies from `.c` (restricted C) or
//! `.s` (assembly) files, attaches and reverts them while worker threads
//! hammer the locks, and drives the dynamic profiler.
//!
//!     cargo run --release -p concord --bin c3ctl            # interactive
//!     cargo run --release -p concord --bin c3ctl script.c3  # scripted
//!
//! Commands:
//!
//! ```text
//! locks                          list registered locks
//! load <name> <hook> <file>     compile + verify + store a policy
//! policy compile <hook> <src> <out>  compile + verify + seal a wire artifact
//! policy load <name> <hook> <file>   open + re-verify a wire artifact
//! loadsrc <name> <hook> <c-src> one-line C policy, e.g. `return 1;`
//! attach <lock> <policy>        livepatch a loaded policy into a lock
//! detach                        revert the most recent patch
//! patches                       list live patches (bottom → top)
//! profile <lock> [<lock>…]      start profiling the given locks
//! report                        print the profiler report
//! unprofile                     stop profiling
//! hammer <lock> <threads> <n> [hold_us]  acquire/release n times on each
//!                               thread, optionally spinning hold_us µs
//!                               inside the critical section to force
//!                               queueing (and so contended-wait traces)
//! stats <lock>                  shuffle/park statistics
//! store                         list pinned objects
//! trace [on|off|tail [n]|json|save <file>]  arm/disarm/inspect/save the plane
//!   trace tail [n] [--since <ns>] [--lock <name|id>] [--event <kind>]
//! metrics                       dump the metrics registry (Prometheus text)
//! top                           rank locks by trace-plane slow-path activity
//! analyze [<trace-file>]        contention analysis (live drain or saved file)
//! analyze on|off|step           arm/disarm/advance the continuous analyzer
//! blame                         per-(lock, tenant, policy) caused/suffered wait
//! chains                        blocking chains ranked by blocked nanoseconds
//! flame [<out-file>]            flamegraph collapsed stacks for the chains
//! rollout start <policy> <lock>… staged delivery: canary → 50% → full
//! rollout promote               apply + judge the next wave
//! rollout status                where the rollout stands
//! rollout abort [reason…]       roll every applied wave back
//! rollout recover               converge after a crashed controller
//! explore run <fixture> <strategy> [n] [seed]    schedule exploration
//! explore shrink <fixture> <strategy> <out> [n] [seed]  write minimal repro
//! explore replay <file>         replay a repro artifact, verify pinning
//! fleet start [hosts]           open a fleet session: CAS store + N hosts
//! fleet publish <policy> <tenant>… [expect <head>]  seal + publish a version
//! fleet status                  store head, per-host versions, lag
//! fleet hosts                   per-host serving state and dedupe counts
//! fleet reconcile               anti-entropy: push the head to laggards
//! help | quit
//! ```
//!
//! Every command reports a typed [`CtlError`]. Interactive mode prints
//! it and carries on; scripted mode prints it, runs the rest of the
//! script, and exits 1 if any line failed, so a script can gate on it.
//!
//! Setting `C3_TRACE=1` in the environment arms the trace plane at
//! startup, so every lock transition, hook span and policy-emitted event
//! is captured from the first acquisition.

use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, Write};
use std::sync::Arc;

use cbpf::store::VerifiedProgram;
use concord::fleet::{Delta, DeliverOutcome, HostState, PolicyStore, StoreError};
use concord::hookctx;
use concord::profiler::Profiler;
use concord::rollout::{
    BreakerMap, ChaosInjector, HealthConfig, MetricsHealth, RealTarget, RecoverOutcome, Rollout,
    RolloutLog, RolloutOutcome, RolloutPlan, WaveOutcome,
};
use concord::{
    explore, BreakerConfig, Concord, ConcordError, ExploreConfig, ExploreError, Fixture,
    LoadedPolicy, PolicySpec, Repro, RolloutError, StrategySpec,
};
use locks::hooks::HookKind;
use locks::{Bravo, NeutralRwLock, RawLock, ShflLock, ShflMutex};

/// Why a command failed. Any failure flips the scripted-mode exit code.
#[derive(Debug)]
enum CtlError {
    Usage(&'static str),
    UnknownCommand(String),
    UnknownLock(String),
    UnknownPolicy(String),
    UnknownHook(String),
    Rollout(RolloutError),
    Explore(ExploreError),
    /// A wire artifact failed to open (tamper, context drift, or
    /// re-verification failure on this host).
    Wire(cbpf::WireError),
    /// A compile, verify, attach or detach failure inside Concord.
    Concord(ConcordError),
    /// A malformed argument (a count that does not parse, an unknown
    /// trace subcommand or event kind).
    BadArg(String),
    /// The command does not apply to this lock or session state (nothing
    /// to detach, a profiling session already running, …).
    Refused(String),
    /// A trace failed to parse or the analysis surface was misused
    /// (e.g. `blame` before any `analyze`).
    Analyze(String),
    /// The fleet control plane refused an operation: a stale
    /// conditional publish (CAS head moved), a missing session, or a
    /// store-level failure surfaced to the operator.
    Fleet(String),
    Io(String),
}

impl fmt::Display for CtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtlError::Usage(u) => write!(f, "usage: {u}"),
            CtlError::UnknownCommand(c) => write!(f, "unknown command `{c}` (try `help`)"),
            CtlError::UnknownLock(l) => write!(f, "unknown lock `{l}`"),
            CtlError::UnknownPolicy(p) => {
                write!(f, "no loaded policy `{p}` (use `load` first)")
            }
            CtlError::UnknownHook(h) => write!(f, "unknown hook `{h}`"),
            CtlError::Rollout(e) => write!(f, "{e}"),
            CtlError::Explore(e) => write!(f, "{e}"),
            CtlError::Wire(e) => write!(f, "wire artifact rejected: {e}"),
            CtlError::Fleet(e) => write!(f, "fleet: {e}"),
            CtlError::Concord(e) => write!(f, "{e}"),
            CtlError::Analyze(e) | CtlError::BadArg(e) | CtlError::Refused(e) | CtlError::Io(e) => {
                write!(f, "{e}")
            }
        }
    }
}

impl From<RolloutError> for CtlError {
    fn from(e: RolloutError) -> Self {
        CtlError::Rollout(e)
    }
}

impl From<ExploreError> for CtlError {
    fn from(e: ExploreError) -> Self {
        CtlError::Explore(e)
    }
}

impl From<ConcordError> for CtlError {
    fn from(e: ConcordError) -> Self {
        CtlError::Concord(e)
    }
}

impl From<StoreError> for CtlError {
    fn from(e: StoreError) -> Self {
        CtlError::Fleet(e.to_string())
    }
}

/// One in-flight (or finished) rollout, kept across commands so
/// `promote`/`status`/`abort`/`recover` act on the same intent log.
struct CtlRollout {
    log: RolloutLog,
    policy: String,
    breakers: BreakerMap,
}

/// One fleet session: the CAS-versioned policy store plus a handful of
/// lock hosts fed synchronously from the CLI (the simulated lossy
/// transport lives in `concord::fleet::world` and the chaos gate; here
/// the operator *is* the network, so `reconcile` is the delivery path).
struct CtlFleet {
    store: Arc<PolicyStore>,
    hosts: Vec<HostState>,
    /// Policy name → numeric policy id, stable within the session so
    /// repeated publishes of the same policy reuse one id.
    policy_ids: HashMap<String, u64>,
    next_policy_id: u64,
}

struct Ctl {
    concord: Concord,
    shfl: HashMap<String, Arc<ShflLock>>,
    mutexes: HashMap<String, Arc<ShflMutex>>,
    loaded: HashMap<String, LoadedPolicy>,
    patches: Vec<concord::AttachHandle>,
    profiler: Option<Profiler>,
    rollout: Option<CtlRollout>,
    fleet: Option<CtlFleet>,
    /// Result of the most recent `analyze`, backing the `blame`,
    /// `chains` and `flame` views.
    last_report: Option<telemetry::Report>,
    next_generation: u64,
    /// A command failed; scripted mode exits nonzero.
    failed: bool,
}

fn hook_by_name(s: &str) -> Option<HookKind> {
    HookKind::ALL.into_iter().find(|k| k.name() == s)
}

impl Ctl {
    fn new() -> Self {
        let concord = Concord::new();
        let mut shfl = HashMap::new();
        let mut mutexes = HashMap::new();
        // A demo "kernel": a few named locks, as a registry would hold.
        for name in ["mmap_sem", "dcache", "inode_a", "inode_b"] {
            let l = Arc::new(ShflLock::new());
            concord.registry().register_shfl(name, Arc::clone(&l));
            shfl.insert(name.to_string(), l);
        }
        let m = Arc::new(ShflMutex::new());
        concord
            .registry()
            .register_shfl_mutex("journal", Arc::clone(&m));
        mutexes.insert("journal".to_string(), m);
        concord
            .registry()
            .register_bravo("file_table", Arc::new(Bravo::new(NeutralRwLock::new())));
        Ctl {
            concord,
            shfl,
            mutexes,
            loaded: HashMap::new(),
            patches: Vec::new(),
            profiler: None,
            rollout: None,
            fleet: None,
            last_report: None,
            next_generation: 0,
            failed: false,
        }
    }

    fn run_line(&mut self, line: &str) -> bool {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return true;
        }
        let mut parts = line.splitn(4, char::is_whitespace);
        let cmd = parts.next().unwrap_or("");
        let rest: Vec<&str> = line.split_whitespace().skip(1).collect();
        let result = match cmd {
            "quit" | "exit" => return false,
            "help" => {
                println!("commands: locks load loadsrc policy attach detach patches profile report unprofile hammer stats store quarantines rollout explore fleet trace metrics top analyze blame chains flame quit");
                Ok(())
            }
            "locks" => {
                for name in self.concord.registry().names() {
                    // A lock listed a moment ago may have been dropped by a
                    // concurrent unregister; skip instead of crashing.
                    if let Some(h) = self.concord.registry().get(&name) {
                        println!("  {name:<12} kind={} id={}", h.kind(), h.id());
                    }
                }
                Ok(())
            }
            "load" => self.cmd_load(parts.next(), parts.next(), parts.next()),
            "loadsrc" => self.cmd_loadsrc(parts.next(), parts.next(), parts.next()),
            "attach" => self.cmd_attach(parts.next(), parts.next()),
            "detach" => self.cmd_detach(),
            "patches" => {
                for p in self.concord.live_patches() {
                    println!("  {p}");
                }
                Ok(())
            }
            "profile" => self.cmd_profile(&rest),
            "report" => {
                match &self.profiler {
                    Some(p) => {
                        print!("{}", p.report());
                        // If a contention analysis has run, join the two
                        // views for the profiled locks.
                        if let Some(r) = &self.last_report {
                            print!("{}", p.contention_report(r));
                        }
                    }
                    None => println!("  (no profiling session)"),
                }
                Ok(())
            }
            "unprofile" => match self.profiler.take() {
                Some(mut p) => match p.detach(&self.concord) {
                    Ok(_) => {
                        println!("  profiler detached");
                        Ok(())
                    }
                    Err(e) => {
                        // Keep the session so a later retry can finish.
                        self.profiler = Some(p);
                        Err(e.into())
                    }
                },
                None => {
                    println!("  (no profiling session)");
                    Ok(())
                }
            },
            "quarantines" => self.cmd_quarantines(parts.next()),
            "rollout" => self.cmd_rollout(&rest),
            "explore" => self.cmd_explore(&rest),
            "fleet" => self.cmd_fleet(&rest),
            "policy" => self.cmd_policy(&rest),
            "hammer" => self.cmd_hammer(&rest),
            "stats" => self.cmd_stats(parts.next()),
            "trace" => self.cmd_trace(&rest),
            "analyze" => self.cmd_analyze(&rest),
            "blame" => self.cmd_blame(),
            "chains" => self.cmd_chains(),
            "flame" => self.cmd_flame(parts.next()),
            "metrics" => {
                // Refresh the plane gauges so the dump always carries the
                // trace-plane state alongside the control-plane counters.
                let m = telemetry::metrics();
                m.gauge("c3_trace_armed").set(i64::from(telemetry::armed()));
                telemetry::sync_dropped_counter();
                print!("{}", m.render_prometheus());
                Ok(())
            }
            "top" => self.cmd_top(),
            "store" => {
                for p in self.concord.store().list_programs("") {
                    println!("  prog {p}");
                }
                for m in self.concord.store().list_maps("") {
                    println!("  map  {m}");
                }
                Ok(())
            }
            other => Err(CtlError::UnknownCommand(other.to_string())),
        };
        if let Err(e) = result {
            println!("error: {e}");
            self.failed = true;
        }
        true
    }

    fn cmd_quarantines(&mut self, lock: Option<&str>) -> Result<(), CtlError> {
        let records = match lock {
            Some(l) => {
                if self.concord.registry().get(l).is_none() {
                    return Err(CtlError::UnknownLock(l.to_string()));
                }
                self.concord.registry().quarantines(l)
            }
            None => self.concord.registry().all_quarantines(),
        };
        if records.is_empty() {
            println!("  (no quarantined policies)");
        }
        for r in records {
            println!(
                "  {}/{} policy={} at={}ns: {}",
                r.lock,
                r.hook.name(),
                r.policy,
                r.at_ns,
                r.reason
            );
        }
        Ok(())
    }

    /// Builds the (log, target, health) triple for the session's
    /// in-flight rollout.
    fn rollout_world(&self) -> Result<(RolloutLog, RealTarget<'_>, MetricsHealth), CtlError> {
        let ro = self.rollout.as_ref().ok_or_else(|| {
            CtlError::Rollout(RolloutError::BadState(
                "no rollout in this session (use `rollout start`)".into(),
            ))
        })?;
        let loaded = self
            .loaded
            .get(&ro.policy)
            .ok_or_else(|| CtlError::UnknownPolicy(ro.policy.clone()))?
            .clone();
        let target = RealTarget::new(&self.concord, loaded, BreakerConfig::default())
            .with_breakers(Arc::clone(&ro.breakers));
        let health = MetricsHealth::new(HealthConfig::default(), Arc::clone(&ro.breakers));
        Ok((ro.log.clone(), target, health))
    }

    fn cmd_rollout(&mut self, rest: &[&str]) -> Result<(), CtlError> {
        const USAGE: &str =
            "rollout start <policy> <lock> [<lock>…] | promote | status | abort [reason…] | recover";
        match rest.first().copied() {
            Some("start") => {
                let policy_name = rest.get(1).copied().ok_or(CtlError::Usage(USAGE))?;
                let locks: Vec<String> = rest[2..].iter().map(|s| s.to_string()).collect();
                if locks.is_empty() {
                    return Err(CtlError::Usage(USAGE));
                }
                for l in &locks {
                    if self.concord.registry().get(l).is_none() {
                        return Err(CtlError::UnknownLock(l.clone()));
                    }
                }
                let loaded = self
                    .loaded
                    .get(policy_name)
                    .ok_or_else(|| CtlError::UnknownPolicy(policy_name.to_string()))?
                    .clone();
                self.next_generation += 1;
                let generation = self.next_generation;
                let plan =
                    RolloutPlan::staged(generation, policy_name, loaded.hook, &locks, &[50]);
                let sizes: Vec<usize> = plan.waves.iter().map(Vec::len).collect();
                println!(
                    "  rollout gen={generation} policy={policy_name} hook={} wave sizes {sizes:?}",
                    loaded.hook.name()
                );
                let log = RolloutLog::new();
                let outcome = {
                    let target = RealTarget::new(&self.concord, loaded, BreakerConfig::default());
                    let breakers = target.breakers();
                    let mut health =
                        MetricsHealth::new(HealthConfig::default(), target.breakers());
                    let outcome =
                        Rollout::start(plan, &log, &target, &mut health, &ChaosInjector::inert());
                    self.rollout = Some(CtlRollout {
                        log: log.clone(),
                        policy: policy_name.to_string(),
                        breakers,
                    });
                    outcome?
                };
                print_wave_outcome(&outcome);
                Ok(())
            }
            Some("promote") => {
                let (log, target, mut health) = self.rollout_world()?;
                let outcome =
                    Rollout::promote(&log, &target, &mut health, &ChaosInjector::inert())?;
                print_wave_outcome(&outcome);
                Ok(())
            }
            Some("status") => {
                match &self.rollout {
                    Some(ro) => println!("  {}", Rollout::status(&ro.log)),
                    None => println!("  no rollout in this session"),
                }
                Ok(())
            }
            Some("abort") => {
                let reason = if rest.len() > 1 {
                    rest[1..].join(" ")
                } else {
                    "operator abort".to_string()
                };
                let (log, target, _health) = self.rollout_world()?;
                let outcome = Rollout::abort(&reason, &log, &target, &ChaosInjector::inert())?;
                match outcome {
                    RolloutOutcome::Aborted(r) => println!("  rollout aborted: {r}"),
                    RolloutOutcome::Committed => println!("  rollout committed"),
                }
                Ok(())
            }
            Some("recover") => {
                let (log, target, _health) = self.rollout_world()?;
                let outcome = Rollout::recover(&log, &target, &ChaosInjector::inert())?;
                match outcome {
                    RecoverOutcome::NoRollout => println!("  nothing to recover"),
                    RecoverOutcome::AlreadyTerminal(RolloutOutcome::Committed) => {
                        println!("  rollout already committed")
                    }
                    RecoverOutcome::AlreadyTerminal(RolloutOutcome::Aborted(r)) => {
                        println!("  rollout already aborted: {r}")
                    }
                    RecoverOutcome::RolledForward => {
                        println!("  recovered: rolled forward to committed")
                    }
                    RecoverOutcome::RolledBack => {
                        println!("  recovered: rolled back to pre-rollout state")
                    }
                }
                Ok(())
            }
            _ => Err(CtlError::Usage(USAGE)),
        }
    }

    /// `explore run|shrink|replay` — the schedule-exploration surface.
    fn cmd_explore(&mut self, rest: &[&str]) -> Result<(), CtlError> {
        const USAGE: &str = "explore run <fixture> <strategy> [schedules] [seed] | \
             explore shrink <fixture> <strategy> <out-file> [schedules] [seed] | \
             explore replay <file>";
        let parse_campaign = |fixture: &str,
                              strategy: &str,
                              schedules: Option<&&str>,
                              seed: Option<&&str>|
         -> Result<(Fixture, StrategySpec, ExploreConfig), CtlError> {
            let fixture = Fixture::from_name(fixture)
                .ok_or_else(|| ExploreError::UnknownFixture(fixture.to_string()))?;
            let spec = StrategySpec::from_name(strategy)
                .ok_or_else(|| ExploreError::UnknownStrategy(strategy.to_string()))?;
            let mut cfg = ExploreConfig::default();
            if let Some(n) = schedules {
                cfg.schedules = n.parse().map_err(|_| CtlError::Usage(USAGE))?;
            }
            if let Some(s) = seed {
                cfg.base_seed = s.parse().map_err(|_| CtlError::Usage(USAGE))?;
            }
            Ok((fixture, spec, cfg))
        };
        match rest {
            ["run", fixture, strategy, tail @ ..] if tail.len() <= 2 => {
                let (fixture, spec, cfg) =
                    parse_campaign(fixture, strategy, tail.first(), tail.get(1))?;
                let report = explore(fixture, &spec, &cfg)?;
                match (&report.violation, &report.repro) {
                    (Some(v), Some(r)) => {
                        println!(
                            "  {}: {} at schedule {} ({} schedule(s) run)",
                            report.fixture,
                            v,
                            report.first_bug_schedule.unwrap_or(0),
                            report.schedules_run
                        );
                        println!(
                            "  shrunk to {} injection(s), trace {:#x} — use `explore shrink` \
                             to save the artifact",
                            r.injections.len(),
                            r.trace_hash
                        );
                    }
                    _ => println!(
                        "  {}: no violation in {} schedules under {}",
                        report.fixture, report.schedules_run, report.strategy
                    ),
                }
                Ok(())
            }
            ["shrink", fixture, strategy, out, tail @ ..] if tail.len() <= 2 => {
                let (fixture, spec, cfg) =
                    parse_campaign(fixture, strategy, tail.first(), tail.get(1))?;
                let report = explore(fixture, &spec, &cfg)?;
                let Some(repro) = report.repro else {
                    return Err(CtlError::Io(format!(
                        "no violation in {} schedules — nothing to shrink",
                        report.schedules_run
                    )));
                };
                std::fs::write(out, repro.to_text())
                    .map_err(|e| CtlError::Io(format!("write {out}: {e}")))?;
                println!(
                    "  wrote {out}: {} {} seed {} with {} injection(s), trace {:#x}",
                    repro.fixture,
                    repro.violation,
                    repro.seed,
                    repro.injections.len(),
                    repro.trace_hash
                );
                Ok(())
            }
            ["replay", file] => {
                let text = std::fs::read_to_string(file)
                    .map_err(|e| CtlError::Io(format!("read {file}: {e}")))?;
                let repro = Repro::from_text(&text)?;
                let out = repro.replay()?;
                println!(
                    "  replayed {}: {} reproduced, trace {:#x} (pinned), {} point(s) visited",
                    repro.fixture, repro.violation, out.trace_hash, out.points
                );
                Ok(())
            }
            _ => Err(CtlError::Usage(USAGE)),
        }
    }

    /// `fleet start|publish|status|hosts|reconcile` — the fleet control
    /// plane, driven synchronously from the CLI.
    ///
    /// `publish` seals the named loaded policy into a wire artifact and
    /// commits a new store version binding the listed tenants to it.
    /// With `expect <head>` the publish is *conditional*: if the CAS
    /// head has moved past the operator's expectation, the store
    /// refuses with a typed stale-head error and the scripted exit goes
    /// nonzero — the fleet analogue of a failed compare-and-swap, and
    /// what CI gates on. Without `expect`, the store retry-merges.
    fn cmd_fleet(&mut self, rest: &[&str]) -> Result<(), CtlError> {
        const USAGE: &str = "fleet start [hosts] | \
             fleet publish <policy> <tenant> [<tenant>…] [expect <head>] | \
             fleet status | fleet hosts | fleet reconcile";
        match rest.first().copied() {
            Some("start") => {
                let hosts: usize = match rest.get(1) {
                    Some(n) => n.parse().map_err(|_| CtlError::Usage(USAGE))?,
                    None => 4,
                };
                if hosts == 0 || hosts > 1024 {
                    return Err(CtlError::Fleet(format!(
                        "host count {hosts} out of range 1..=1024"
                    )));
                }
                let store = Arc::new(PolicyStore::new(1024));
                let genesis = store.snapshot(0).expect("genesis snapshot");
                let hosts: Vec<HostState> = (0..hosts)
                    .map(|i| HostState::new(i, Arc::clone(&genesis)))
                    .collect();
                println!(
                    "  fleet session: {} host(s), store head {} ({} index shard(s))",
                    hosts.len(),
                    store.head(),
                    store.index().shard_count()
                );
                self.fleet = Some(CtlFleet {
                    store,
                    hosts,
                    policy_ids: HashMap::new(),
                    next_policy_id: 1000,
                });
                Ok(())
            }
            Some("publish") => {
                let policy_name = rest.get(1).copied().ok_or(CtlError::Usage(USAGE))?;
                // Split the tail at an optional `expect <head>` suffix.
                let tail = &rest[2..];
                let (tenant_words, expect) = match tail.iter().position(|w| *w == "expect") {
                    Some(i) => {
                        let head: u64 = tail
                            .get(i + 1)
                            .ok_or(CtlError::Usage(USAGE))?
                            .parse()
                            .map_err(|_| CtlError::Usage(USAGE))?;
                        (&tail[..i], Some(head))
                    }
                    None => (tail, None),
                };
                if tenant_words.is_empty() {
                    return Err(CtlError::Usage(USAGE));
                }
                let tenants: Vec<u64> = tenant_words
                    .iter()
                    .map(|t| t.parse().map_err(|_| CtlError::Usage(USAGE)))
                    .collect::<Result<_, _>>()?;
                let loaded = self
                    .loaded
                    .get(policy_name)
                    .ok_or_else(|| CtlError::UnknownPolicy(policy_name.to_string()))?
                    .clone();
                // Seal on the way in: hosts re-verify from the wire, so
                // the store only ever distributes sealed artifacts.
                let artifact = Arc::new(cbpf::wire::seal(
                    &loaded.prog,
                    &hookctx::rules_for(loaded.hook),
                ));
                let fleet = self
                    .fleet
                    .as_mut()
                    .ok_or_else(|| CtlError::Fleet("no fleet session (use `fleet start`)".into()))?;
                let policy_id = match fleet.policy_ids.get(policy_name) {
                    Some(id) => *id,
                    None => {
                        let id = fleet.next_policy_id;
                        fleet.next_policy_id += 1;
                        fleet.policy_ids.insert(policy_name.to_string(), id);
                        id
                    }
                };
                let delta = Delta::bind_all(&tenants, policy_id, artifact);
                let version = match expect {
                    Some(head) => fleet.store.try_publish(head, &delta)?,
                    None => fleet.store.publish(&delta)?,
                };
                println!(
                    "  published v{version}: policy {policy_name} (id {policy_id}) → {} tenant(s){}",
                    tenants.len(),
                    match expect {
                        Some(h) => format!(" [conditional on head {h}]"),
                        None => String::new(),
                    }
                );
                Ok(())
            }
            Some("status") => {
                let fleet = self
                    .fleet
                    .as_ref()
                    .ok_or_else(|| CtlError::Fleet("no fleet session (use `fleet start`)".into()))?;
                let head = fleet.store.head();
                let min = fleet.hosts.iter().map(|h| h.served.version).min().unwrap_or(0);
                println!(
                    "  head v{head}  publishes {}  cas-conflicts {}  lag {} version(s)",
                    fleet.store.publishes(),
                    fleet.store.conflicts(),
                    head - min
                );
                let behind = fleet
                    .hosts
                    .iter()
                    .filter(|h| h.served.version < head)
                    .count();
                println!(
                    "  {} host(s), {} behind head{}",
                    fleet.hosts.len(),
                    behind,
                    if behind > 0 { " (run `fleet reconcile`)" } else { "" }
                );
                Ok(())
            }
            Some("hosts") => {
                let fleet = self
                    .fleet
                    .as_ref()
                    .ok_or_else(|| CtlError::Fleet("no fleet session (use `fleet start`)".into()))?;
                let head = fleet.store.head();
                for h in &fleet.hosts {
                    println!(
                        "  host{:<3} serving v{:<4} {:<8} applies {:<4} dedup-drops {}",
                        h.id,
                        h.served.version,
                        if h.served.version == head { "current" } else { "behind" },
                        h.apply_log.len(),
                        h.dedup_drops
                    );
                }
                Ok(())
            }
            Some("reconcile") => {
                let fleet = self
                    .fleet
                    .as_mut()
                    .ok_or_else(|| CtlError::Fleet("no fleet session (use `fleet start`)".into()))?;
                let head = fleet.store.head();
                let snap = fleet.store.head_snapshot();
                let mut applied = 0usize;
                let mut dups = 0usize;
                for h in fleet.hosts.iter_mut() {
                    match h.deliver(head, &snap) {
                        DeliverOutcome::Applied => applied += 1,
                        DeliverOutcome::Duplicate => dups += 1,
                    }
                }
                println!(
                    "  reconciled to v{head}: {applied} host(s) applied, {dups} already current"
                );
                Ok(())
            }
            _ => Err(CtlError::Usage(USAGE)),
        }
    }

    /// `policy compile|load` — the compiled-policy wire-format surface.
    ///
    /// `compile` is the host side: source → verify → seal to an
    /// artifact. `load` is the runtime side: open re-checks checksum,
    /// version and verification digest, then re-runs the verifier on
    /// this host's layout and rules before anything is pinned — a
    /// tampered or cross-hook artifact dies with a typed error and a
    /// nonzero scripted exit.
    fn cmd_policy(&mut self, rest: &[&str]) -> Result<(), CtlError> {
        const USAGE: &str = "policy compile <hook> <src.c|src.s> <out> | \
             policy load <name> <hook> <artifact>";
        match rest {
            ["compile", hook, src, out] => {
                let kind = hook_by_name(hook)
                    .ok_or_else(|| CtlError::UnknownHook((*hook).to_string()))?;
                let text = std::fs::read_to_string(src)
                    .map_err(|e| CtlError::Io(format!("read {src}: {e}")))?;
                let name = std::path::Path::new(src)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("policy");
                let layout = hookctx::layout_for(kind);
                let program = if src.ends_with(".c") {
                    cbpf::dsl::compile(name, &text, layout)
                        .map_err(|e| CtlError::Concord(ConcordError::Asm(e)))?
                } else {
                    cbpf::asm::assemble_named(name, &text, &[])
                        .map_err(|e| CtlError::Concord(ConcordError::Asm(e)))?
                };
                let rules = hookctx::rules_for(kind);
                let verified = VerifiedProgram::new(program, layout, &rules)
                    .map_err(|e| CtlError::Concord(ConcordError::Verify(e)))?;
                let bytes = verified.seal();
                std::fs::write(out, &bytes)
                    .map_err(|e| CtlError::Io(format!("write {out}: {e}")))?;
                println!(
                    "  compiled {src} for {}: sealed {} bytes to {out}",
                    kind.name(),
                    bytes.len()
                );
                Ok(())
            }
            ["load", name, hook, file] => {
                let kind = hook_by_name(hook)
                    .ok_or_else(|| CtlError::UnknownHook((*hook).to_string()))?;
                let bytes = std::fs::read(file)
                    .map_err(|e| CtlError::Io(format!("read {file}: {e}")))?;
                let opened =
                    cbpf::wire::open(&bytes, hookctx::layout_for(kind), &hookctx::rules_for(kind))
                        .map_err(CtlError::Wire)?;
                // Hand the re-verified program to the normal load path so
                // pinning and map registration behave exactly like `load`.
                let p = opened.program();
                let spec = PolicySpec::from_program(
                    name,
                    kind,
                    cbpf::Program::new(p.name().to_string(), p.insns().to_vec(), p.maps().to_vec()),
                );
                let loaded = self.concord.load(spec)?;
                println!(
                    "  opened {file}: verified and pinned policies/{name}/{}",
                    kind.name()
                );
                self.loaded.insert(name.to_string(), loaded);
                Ok(())
            }
            _ => Err(CtlError::Usage(USAGE)),
        }
    }

    fn cmd_load(
        &mut self,
        name: Option<&str>,
        hook: Option<&str>,
        file: Option<&str>,
    ) -> Result<(), CtlError> {
        let (name, hook, file) = match (name, hook, file) {
            (Some(n), Some(h), Some(f)) => (n, h, f),
            _ => return Err(CtlError::Usage("load <name> <hook> <file.c|file.s>")),
        };
        let hook = hook_by_name(hook).ok_or_else(|| CtlError::UnknownHook(hook.to_string()))?;
        let src =
            std::fs::read_to_string(file).map_err(|e| CtlError::Io(format!("{file}: {e}")))?;
        let spec = if file.ends_with(".c") {
            PolicySpec::from_c(name, hook, &src)
        } else {
            PolicySpec::from_asm(name, hook, &src)
        };
        let loaded = self.concord.load(spec)?;
        println!("  verified and pinned policies/{name}/{}", hook.name());
        self.loaded.insert(name.to_string(), loaded);
        Ok(())
    }

    fn cmd_loadsrc(
        &mut self,
        name: Option<&str>,
        hook: Option<&str>,
        src: Option<&str>,
    ) -> Result<(), CtlError> {
        let (name, hook, src) = match (name, hook, src) {
            (Some(n), Some(h), Some(s)) => (n, h, s),
            _ => return Err(CtlError::Usage("loadsrc <name> <hook> <c source…>")),
        };
        let hook = hook_by_name(hook).ok_or_else(|| CtlError::UnknownHook(hook.to_string()))?;
        let loaded = self.concord.load(PolicySpec::from_c(name, hook, src))?;
        println!("  verified and pinned policies/{name}/{}", hook.name());
        self.loaded.insert(name.to_string(), loaded);
        Ok(())
    }

    fn cmd_attach(&mut self, lock: Option<&str>, policy: Option<&str>) -> Result<(), CtlError> {
        let (lock, policy) = match (lock, policy) {
            (Some(l), Some(p)) => (l, p),
            _ => return Err(CtlError::Usage("attach <lock> <policy>")),
        };
        let loaded = self
            .loaded
            .get(policy)
            .ok_or_else(|| CtlError::UnknownPolicy(policy.to_string()))?;
        let h = self.concord.attach(lock, loaded)?;
        println!("  patched {lock}/{}", h.hook.name());
        self.patches.push(h);
        Ok(())
    }

    fn cmd_detach(&mut self) -> Result<(), CtlError> {
        let h = self
            .patches
            .pop()
            .ok_or_else(|| CtlError::Refused("no live patches".into()))?;
        let label = format!("{}/{}", h.lock, h.hook.name());
        self.concord.detach(h)?;
        println!("  reverted {label}");
        Ok(())
    }

    fn cmd_profile(&mut self, names: &[&str]) -> Result<(), CtlError> {
        if names.is_empty() {
            return Err(CtlError::Usage("profile <lock> [<lock>…]"));
        }
        if self.profiler.is_some() {
            return Err(CtlError::Refused(
                "a profiling session is already running (use `unprofile`)".into(),
            ));
        }
        let p = Profiler::attach(&self.concord, names)?;
        println!("  profiling {}", names.join(", "));
        self.profiler = Some(p);
        Ok(())
    }

    fn cmd_hammer(&mut self, args: &[&str]) -> Result<(), CtlError> {
        const USAGE: &str = "hammer <lock> <threads> <iters> [hold_us]";
        let count = |s: &str| {
            s.parse::<u64>()
                .map_err(|e| CtlError::BadArg(e.to_string()))
        };
        let (name, threads, iters, hold_us) = match args {
            [l, t, n] => (*l, count(t)?, count(n)?, 0),
            [l, t, n, h] => (*l, count(t)?, count(n)?, count(h)?),
            _ => return Err(CtlError::Usage(USAGE)),
        };
        let lock: Arc<dyn RawLock> = if let Some(l) = self.shfl.get(name) {
            Arc::clone(l) as _
        } else if let Some(l) = self.mutexes.get(name) {
            Arc::clone(l) as _
        } else {
            return Err(CtlError::Refused(format!(
                "`{name}` is not a hammerable lock"
            )));
        };
        let start = std::time::Instant::now();
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    locks::topo::pin_thread(((t * 10) % 80) as u32);
                    for _ in 0..iters {
                        lock.acquire();
                        // Spinning (rather than sleeping) inside the critical
                        // section keeps the holder on-CPU, so waiters reliably
                        // hit the contended slow path even on one core — the
                        // analyzer smoke depends on that.
                        if hold_us > 0 {
                            let end = std::time::Instant::now()
                                + std::time::Duration::from_micros(hold_us);
                            while std::time::Instant::now() < end {
                                std::hint::spin_loop();
                            }
                        }
                        lock.release();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join()
                .map_err(|_| CtlError::Refused("worker thread panicked".into()))?;
        }
        println!(
            "  {} acquisitions in {:?}",
            threads * iters,
            start.elapsed()
        );
        Ok(())
    }

    /// Resolve a `--lock` filter operand: a registered lock name, or a
    /// literal numeric id for locks outside the demo registry.
    fn lock_id_of(&self, s: &str) -> Result<u64, CtlError> {
        if let Some(h) = self.concord.registry().get(s) {
            return Ok(h.id());
        }
        s.parse::<u64>()
            .map_err(|_| CtlError::UnknownLock(s.to_string()))
    }

    fn cmd_trace(&mut self, rest: &[&str]) -> Result<(), CtlError> {
        let bad = CtlError::BadArg;
        match rest.first().copied() {
            Some("on") => {
                telemetry::set_armed(true);
                println!("  trace plane armed");
                Ok(())
            }
            Some("off") => {
                telemetry::set_armed(false);
                println!("  trace plane disarmed");
                Ok(())
            }
            Some("tail") => {
                let mut n = 32usize;
                let mut filter = telemetry::EventFilter::default();
                let mut it = rest[1..].iter();
                while let Some(tok) = it.next() {
                    match *tok {
                        "--since" => {
                            let v = it.next().ok_or_else(|| bad("--since needs <ns>".into()))?;
                            filter.since_ns =
                                Some(v.parse().map_err(|e| bad(format!("--since: {e}")))?);
                        }
                        "--lock" => {
                            let v = it
                                .next()
                                .ok_or_else(|| bad("--lock needs <name|id>".into()))?;
                            filter.lock = Some(self.lock_id_of(v)?);
                        }
                        "--event" => {
                            let v = it
                                .next()
                                .ok_or_else(|| bad("--event needs <kind>".into()))?;
                            filter.kind = Some(
                                telemetry::EventKind::from_name(v)
                                    .ok_or_else(|| bad(format!("unknown event kind `{v}`")))?,
                            );
                        }
                        tok => {
                            n = tok.parse().map_err(|_| {
                                bad(format!(
                                    "unexpected `{tok}` (want a count or --since/--lock/--event)"
                                ))
                            })?;
                        }
                    }
                }
                let events: Vec<_> = telemetry::snapshot_last(usize::MAX)
                    .into_iter()
                    .filter(|ev| filter.admits(ev))
                    .collect();
                if events.is_empty() {
                    println!("  (no matching trace events — arm with `trace on` and drive load)");
                }
                let skip = events.len().saturating_sub(n);
                for ev in &events[skip..] {
                    println!("  {}", ev.render());
                }
                Ok(())
            }
            Some("json") => {
                // Drain (consume) into chrome://tracing format.
                let events = telemetry::drain();
                println!("{}", telemetry::export::to_chrome_json(&events));
                Ok(())
            }
            Some("save") => {
                let file = rest.get(1).ok_or(CtlError::Usage("trace save <file>"))?;
                // Drain (consume) into the flat binary record format that
                // `analyze <file>` reads back.
                let events = telemetry::drain();
                let mut bytes = Vec::with_capacity(events.len() * telemetry::EVENT_BYTES);
                for ev in &events {
                    bytes.extend_from_slice(&ev.to_bytes());
                }
                std::fs::write(file, &bytes)
                    .map_err(|e| CtlError::Io(format!("write {file}: {e}")))?;
                println!("  saved {} event(s) to {file}", events.len());
                Ok(())
            }
            None | Some("status") => {
                println!(
                    "  armed={} dropped={}",
                    telemetry::armed(),
                    telemetry::dropped()
                );
                println!(
                    "  dropped events (ring overwrite): {} — mirrored to c3_trace_dropped_total; \
                     analysis of a lossy trace reports lower-bound attribution",
                    telemetry::dropped()
                );
                println!(
                    "  continuous analyzer: armed={} windows={}",
                    telemetry::analyze::continuous_armed(),
                    telemetry::analyze::continuous().windows()
                );
                Ok(())
            }
            Some(other) => Err(bad(format!(
                "unknown trace subcommand `{other}` (on|off|tail [n]|json|save <file>|status)"
            ))),
        }
    }

    /// Shared analysis configuration: every registered lock's id→name
    /// mapping, so reports and patch-label policy attribution use the
    /// same names the operator typed.
    fn analyze_cfg(&self) -> telemetry::AnalyzeConfig {
        let mut cfg = telemetry::AnalyzeConfig::default();
        for name in self.concord.registry().names() {
            if let Some(h) = self.concord.registry().get(&name) {
                cfg.lock_names.insert(h.id(), name);
            }
        }
        cfg
    }

    /// `analyze [<file>] | on | off | step` — the contention-analysis
    /// surface. A typed command: a truncated or corrupt trace file makes
    /// scripted mode exit nonzero.
    fn cmd_analyze(&mut self, rest: &[&str]) -> Result<(), CtlError> {
        const USAGE: &str = "analyze [<trace-file>] | analyze on|off|step";
        match rest {
            ["on"] => {
                telemetry::analyze::continuous().configure(self.analyze_cfg());
                telemetry::analyze::set_continuous_armed(true);
                println!("  continuous analyzer armed (advance windows with `analyze step`)");
                Ok(())
            }
            ["off"] => {
                telemetry::analyze::set_continuous_armed(false);
                println!("  continuous analyzer disarmed");
                Ok(())
            }
            ["step"] => {
                match telemetry::analyze::continuous().step() {
                    Some(r) => {
                        println!(
                            "  window {}: {} events, {} locks, wait={}ns, attribution={}",
                            telemetry::analyze::continuous().windows(),
                            r.events,
                            r.locks.len(),
                            r.total_wait_ns(),
                            if r.exact() { "exact" } else { "lower-bound" },
                        );
                        self.last_report = Some(r);
                    }
                    None => println!("  continuous analyzer is disarmed (use `analyze on`)"),
                }
                Ok(())
            }
            [] => {
                // Live mode: drain (consume) the plane and analyze it.
                let events = telemetry::drain();
                let report = telemetry::analyze::analyze(&events, self.analyze_cfg());
                print!("{}", report.render());
                self.last_report = Some(report);
                Ok(())
            }
            [file] => {
                let bytes = std::fs::read(file)
                    .map_err(|e| CtlError::Io(format!("read {file}: {e}")))?;
                let events = telemetry::analyze::read_trace(&bytes)
                    .map_err(|e| CtlError::Analyze(format!("{file}: {e}")))?;
                let report = telemetry::analyze::analyze(&events, self.analyze_cfg());
                print!("{}", report.render());
                self.last_report = Some(report);
                Ok(())
            }
            _ => Err(CtlError::Usage(USAGE)),
        }
    }

    fn last_report(&self) -> Result<&telemetry::Report, CtlError> {
        self.last_report
            .as_ref()
            .ok_or_else(|| CtlError::Analyze("no analysis yet (run `analyze` first)".into()))
    }

    /// Blame view over the last analysis: caused/suffered wait per
    /// (lock, tenant, policy), ranked by caused nanoseconds.
    fn cmd_blame(&mut self) -> Result<(), CtlError> {
        let r = self.last_report()?;
        let mut any = false;
        for l in r.locks.values() {
            // One ranked table per lock; keys are the union of both sides.
            let mut keys: Vec<&(u64, String)> =
                l.caused.keys().chain(l.suffered.keys()).collect();
            keys.sort();
            keys.dedup();
            let mut rows: Vec<(&(u64, String), u64, u64)> = keys
                .into_iter()
                .map(|k| {
                    (
                        k,
                        l.caused.get(k).copied().unwrap_or(0),
                        l.suffered.get(k).copied().unwrap_or(0),
                    )
                })
                .collect();
            rows.sort_by(|a, b| (b.1, b.2).cmp(&(a.1, a.2)).then_with(|| a.0.cmp(b.0)));
            if rows.is_empty() {
                continue;
            }
            any = true;
            println!(
                "  {:<12} wait={}ns ({} completed waits)",
                l.name, l.wait_ns, l.completed_waits
            );
            for ((tenant, policy), caused, suffered) in rows {
                let tenant = if *tenant == telemetry::analyze::HANDOFF_TENANT {
                    "handoff".to_string()
                } else {
                    format!("{tenant}")
                };
                println!(
                    "    tenant={tenant:<8} policy={policy:<24} caused={caused}ns suffered={suffered}ns"
                );
            }
        }
        if !any {
            println!("  (no completed waits in the last analysis)");
        }
        Ok(())
    }

    /// Blocking-chain view over the last analysis, ranked by blocked ns.
    fn cmd_chains(&mut self) -> Result<(), CtlError> {
        let r = self.last_report()?;
        if r.chains.is_empty() {
            println!("  (no blocking chains in the last analysis)");
            return Ok(());
        }
        println!("  max chain depth: {}", r.max_chain_depth);
        let mut rows: Vec<(&String, &u64)> = r.chains.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        for (stack, ns) in rows.into_iter().take(30) {
            println!("  {ns:>12}ns {stack}");
        }
        Ok(())
    }

    /// Flamegraph collapsed-stack export of the last analysis' blocking
    /// chains (stdout, or a file for `flamegraph.pl` / inferno).
    fn cmd_flame(&mut self, out: Option<&str>) -> Result<(), CtlError> {
        let r = self.last_report()?;
        let text = telemetry::export::to_flamegraph(r);
        match out {
            Some(file) => {
                std::fs::write(file, &text)
                    .map_err(|e| CtlError::Io(format!("write {file}: {e}")))?;
                println!(
                    "  wrote {} collapsed stack(s) to {file} (feed to flamegraph.pl)",
                    text.lines().count()
                );
            }
            None => print!("{text}"),
        }
        Ok(())
    }

    /// Ranks locks by slow-path activity currently resident in the trace
    /// rings — the trace-plane analogue of `lockstat -top`.
    fn cmd_top(&mut self) -> Result<(), CtlError> {
        let events = telemetry::snapshot_last(usize::MAX);
        if events.is_empty() {
            println!("  (no trace events — arm with `trace on` and drive load)");
            return Ok(());
        }
        // (acquires, contended, hook spans) per lock id.
        let mut by_lock: HashMap<u64, (u64, u64, u64)> = HashMap::new();
        for ev in &events {
            let row = by_lock.entry(ev.a).or_default();
            match ev.kind {
                telemetry::EventKind::LockAcquire => row.0 += 1,
                telemetry::EventKind::LockContended => row.1 += 1,
                telemetry::EventKind::HookSpan => row.2 += 1,
                _ => {}
            }
        }
        let mut names: HashMap<u64, String> = HashMap::new();
        for name in self.concord.registry().names() {
            if let Some(h) = self.concord.registry().get(&name) {
                names.insert(h.id(), name);
            }
        }
        let mut rows: Vec<_> = by_lock.into_iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse((r.1 .1, r.1 .0)));
        println!(
            "  {:<16} {:>10} {:>10} {:>10}",
            "lock", "acquires", "contended", "hook-spans"
        );
        for (id, (acq, cont, spans)) in rows {
            let name = names
                .get(&id)
                .cloned()
                .unwrap_or_else(|| format!("#{id:x}"));
            println!("  {name:<16} {acq:>10} {cont:>10} {spans:>10}");
        }
        Ok(())
    }

    fn cmd_stats(&mut self, lock: Option<&str>) -> Result<(), CtlError> {
        let name = lock.ok_or(CtlError::Usage("stats <lock>"))?;
        if let Some(l) = self.shfl.get(name) {
            println!("  shuffle phases: {}", l.shuffle_count());
        } else if let Some(l) = self.mutexes.get(name) {
            println!("  parks: {}", l.park_count());
        } else {
            return Err(CtlError::Refused(format!("no stats for `{name}`")));
        }
        Ok(())
    }
}

/// Renders a stepwise rollout outcome.
fn print_wave_outcome(out: &WaveOutcome) {
    match out {
        WaveOutcome::WaveHealthy { wave, remaining } => println!(
            "  wave {wave} healthy ({remaining} remaining; `rollout promote` to continue)"
        ),
        WaveOutcome::Committed => println!("  rollout committed"),
        WaveOutcome::Aborted(reason) => println!("  rollout aborted: {reason}"),
    }
}

fn main() {
    telemetry::arm_from_env();
    let mut ctl = Ctl::new();
    let args: Vec<String> = std::env::args().collect();
    if let Some(script) = args.get(1) {
        let content = std::fs::read_to_string(script).unwrap_or_else(|e| {
            eprintln!("{script}: {e}");
            std::process::exit(1);
        });
        for line in content.lines() {
            println!("c3> {line}");
            if !ctl.run_line(line) {
                break;
            }
        }
        std::process::exit(i32::from(ctl.failed));
    }
    println!("c3ctl — Concord control plane (type `help`)");
    let stdin = std::io::stdin();
    loop {
        print!("c3> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            return;
        }
        if !ctl.run_line(&line) {
            return;
        }
    }
}
