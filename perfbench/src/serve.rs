//! `serve-warm` and `serve-churn`: an open loop of independent devices
//! arriving at fixed absolute rates into one `AuthService` shard of the
//! synthetic `bench::fleet` population, plus a saturated drain of a
//! stated backlog through `bench::fleet::serve_fleet`.
//!
//! The generator and the service share one thread: each loop iteration
//! submits every operation whose due time has passed, runs one tick, and
//! drains decided verdicts. A session's latency runs from its due time to
//! the drain that returned its verdict, so a slow tick delays every
//! session due behind it. Arrivals are Poisson at the stated rate.

use crate::report::{Metrics, Outcome};
use crate::stats::{self, Rung};
use crate::trace::{self, TracedChannel, TracedResponder};
use crate::Scale;
use puf_bench::fleet::{self, DeviceTwin, FleetClient, FleetConfig};
use puf_core::XorPuf;
use puf_protocol::{
    service_lane, shard_of, AuthService, ChallengeUniverse, FaultyChannel, PoolSource,
    ProtocolError, Server, ServiceConfig, SessionManager, SessionOutcome, SessionReport,
    SessionVerdict,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Which serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Every active chip warmed during set-up; the working set fits the
    /// warm-plane cache.
    Warm,
    /// Sessions walk a fleet far larger than any warm set, so nearly
    /// every one hits a chip that was never warmed; a share of the
    /// operations re-enroll idle chips, evicting their warm planes.
    Churn,
}

/// Uids of the set-up warm-up sessions start here (operation uids are
/// `phase << 32 | index`, far below).
const WARMUP_UID: u64 = 1 << 56;
/// Lane salts for the workload's own streams.
const OPS_LANE: u64 = 0x0B5E_0001;
const ORACLE_LANE: u64 = 0x0B5E_0002;
/// In-flight samples per latency window for the backlog test.
const BACKLOG_SAMPLES: usize = 16;

/// The stated shape of one serving workload.
#[derive(Clone, Debug)]
pub struct Spec {
    kind: Kind,
    /// Open-loop population; its shard 0 is the served shard.
    open: FleetConfig,
    /// The saturated-drain backlog (all shards).
    drain: FleetConfig,
    nominal_rate: f64,
    nominal_sessions: usize,
    ladder: Vec<f64>,
    rung_sessions: usize,
    p99_limit_us: f64,
    reenroll_share: f64,
    /// Repetitions run at least, and the seconds further repetitions may
    /// fill.
    min_reps: usize,
    budget_s: f64,
    oracle_chips: usize,
}

impl Spec {
    /// The workload at `scale` for `seed`; it repeats until `seconds`
    /// are spent.
    pub fn new(kind: Kind, scale: Scale, seed: u64, seconds: f64) -> Self {
        let smoke = FleetConfig::smoke(seed);
        let tiny = scale == Scale::Tiny;
        let (nominal_rate, ladder, p99_limit_us, reenroll_share) = match kind {
            Kind::Warm => (10_000.0, ladder(23e3, 18), 1_000.0, 0.0),
            Kind::Churn => (4_000.0, ladder(12e3, 13), 2_000.0, 0.05),
        };
        // Each repetition serves the nominal phase for two seconds and
        // three latency windows of sessions per rung; a repetition takes
        // about 4 s, and the run repeats for its stated seconds. The
        // nominal rates keep the shard lightly loaded (about a tenth busy),
        // so the latency figures measure the session path rather than
        // queueing behind other sessions, which magnifies every slow
        // stretch of a shared host.
        let nominal_secs = if tiny { 0.15 } else { 2.0 };
        let nominal_sessions = (nominal_rate * nominal_secs) as usize;
        let rung_sessions = (3.0 * stats::WINDOW as f64 / (1.0 - reenroll_share)) as usize + 100;
        let ladder_sessions = ladder.len() * rung_sessions;
        // Shard 0 holds about 1/8 of the open population. Churn sizes it
        // to hold every session of a repetition on a distinct chip.
        let open_chips = match (kind, tiny) {
            (Kind::Warm, false) => 40_000,
            (Kind::Warm, true) => 800,
            (Kind::Churn, _) => ((nominal_sessions + ladder_sessions) as u32 + 1_000) * 8,
        };
        let (drain_active, per_chip) = match (kind, tiny) {
            (Kind::Warm, false) => (4_000, 16),
            (Kind::Churn, false) => (20_000, 3),
            (_, true) => (200, 2),
        };
        Self {
            kind,
            open: FleetConfig {
                enrolled_chips: open_chips,
                active_chips: open_chips,
                ..smoke
            },
            drain: FleetConfig {
                enrolled_chips: drain_active,
                active_chips: drain_active,
                sessions_per_chip: per_chip,
                ..smoke
            },
            nominal_rate,
            nominal_sessions,
            ladder: if tiny { vec![5e3, 1e9] } else { ladder },
            rung_sessions,
            p99_limit_us,
            reenroll_share,
            min_reps: if tiny { 1 } else { 3 },
            budget_s: if tiny { 0.0 } else { seconds },
            oracle_chips: if tiny { 8 } else { 48 },
        }
    }
}

/// `rungs` absolute rates from `first`, 15% apart: close enough that the
/// interpolated maximum moves smoothly, few enough to climb in a second,
/// and reaching past what the host sustains in its fastest stretches.
/// The nominal rate precedes them as the ladder's first rung.
fn ladder(first: f64, rungs: i32) -> Vec<f64> {
    (0..rungs).map(|k| first * 1.15f64.powi(k)).collect()
}

/// One operation of the open loop.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// An authentication session of `chip`.
    Auth { chip: u32, uid: u64 },
    /// A re-enrollment write on an idle, previously served chip, picked
    /// at apply time from `pick`.
    Reenroll { pick: u64 },
}

#[derive(Clone, Copy, Debug)]
struct Timed {
    due_ns: u64,
    op: Op,
}

/// Generates one phase's operations: Poisson arrivals at `rate`, chips
/// from `next_chip`.
fn gen_phase(
    seed: u64,
    phase: u64,
    rate: f64,
    count: usize,
    reenroll_share: f64,
    mut next_chip: impl FnMut(&mut StdRng) -> u32,
) -> Vec<Timed> {
    let mut rng = StdRng::seed_from_u64(service_lane(seed ^ OPS_LANE, phase));
    let mut t = 0.0f64;
    (0..count)
        .map(|i| {
            t += -(1.0 - rng.gen::<f64>()).ln() / rate;
            let op = if rng.gen::<f64>() < reenroll_share {
                Op::Reenroll { pick: rng.gen() }
            } else {
                Op::Auth {
                    chip: next_chip(&mut rng),
                    uid: (phase << 32) | i as u64,
                }
            };
            Timed {
                due_ns: (t * 1e9) as u64,
                op,
            }
        })
        .collect()
}

/// Every phase of one repetition: the nominal phase, then one per rung.
fn gen_all(spec: &Spec, open_ids: &[u32]) -> Vec<Vec<Timed>> {
    let seed = spec.open.seed;
    let perm = shuffled(service_lane(seed ^ OPS_LANE, u64::MAX), open_ids);
    let mut cursor = 0usize;
    let kind = spec.kind;
    let mut pick = |rng: &mut StdRng| match kind {
        Kind::Warm => open_ids[rng.gen_range(0..open_ids.len())],
        Kind::Churn => {
            let chip = perm[cursor % perm.len()];
            cursor += 1;
            chip
        }
    };
    let mut phases = vec![gen_phase(
        seed,
        0,
        spec.nominal_rate,
        spec.nominal_sessions,
        spec.reenroll_share,
        &mut pick,
    )];
    for (r, &rate) in spec.ladder.iter().enumerate() {
        phases.push(gen_phase(
            seed,
            r as u64 + 1,
            rate,
            spec.rung_sessions,
            spec.reenroll_share,
            &mut pick,
        ));
    }
    phases
}

/// A session's verdict, classified. Protocol rejections (noisy genuine
/// devices, impostors, lockouts) are verdicts; an operation *fails* only
/// on an unexpected error or a granted impostor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Census {
    /// Genuine sessions decided.
    pub genuine: u64,
    /// Impostor sessions decided.
    pub impostor: u64,
    /// Clean accepts.
    pub accepted: u64,
    /// Degraded accepts.
    pub degraded: u64,
    /// Rejections.
    pub rejected: u64,
    /// Sessions that locked their chip out.
    pub locked_out: u64,
    /// Sessions refused because the chip was locked out.
    pub lockout_refused: u64,
    /// Genuine sessions denied.
    pub genuine_denied: u64,
    /// Impostor sessions granted access (operation failures).
    pub impostor_granted: u64,
    /// Unexpected errors (operation failures).
    pub errors: u64,
    /// Attempts summed over reports.
    pub attempts: u64,
    /// Sessions that needed more than one attempt.
    pub retried: u64,
}

impl Census {
    /// Classifies one result; returns whether the operation failed.
    pub fn record(
        &mut self,
        impostor: bool,
        result: &Result<SessionReport, ProtocolError>,
    ) -> bool {
        if impostor {
            self.impostor += 1;
        } else {
            self.genuine += 1;
        }
        let granted = match result {
            Ok(report) => {
                self.attempts += u64::from(report.attempts);
                self.retried += u64::from(report.attempts > 1);
                match report.outcome {
                    SessionOutcome::Accepted => self.accepted += 1,
                    SessionOutcome::Degraded => self.degraded += 1,
                    SessionOutcome::Rejected => self.rejected += 1,
                    SessionOutcome::LockedOut => self.locked_out += 1,
                }
                report.outcome.grants_access()
            }
            Err(ProtocolError::ChipLockedOut { .. }) => {
                self.lockout_refused += 1;
                false
            }
            Err(_) => {
                self.errors += 1;
                return true;
            }
        };
        if impostor && granted {
            self.impostor_granted += 1;
            return true;
        }
        if !impostor && !granted {
            self.genuine_denied += 1;
        }
        false
    }

    /// Sessions decided.
    pub fn decided(&self) -> u64 {
        self.genuine + self.impostor
    }

    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.impostor_granted + self.errors
    }

    /// Adds the census to `m` under `session.*`.
    pub fn put(&self, m: &mut Metrics) {
        let d = self.decided().max(1) as f64;
        let with_report = (self.decided() - self.lockout_refused - self.errors).max(1) as f64;
        m.put(
            "session.attempts_per_auth",
            self.attempts as f64 / with_report,
            "count",
        );
        m.put(
            "session.retry_frac",
            self.retried as f64 / with_report,
            "ratio",
        );
        m.put(
            "session.frr",
            self.genuine_denied as f64 / self.genuine.max(1) as f64,
            "ratio",
        );
        m.put(
            "session.far",
            self.impostor_granted as f64 / self.impostor.max(1) as f64,
            "ratio",
        );
        m.put("session.accepted_frac", self.accepted as f64 / d, "ratio");
        m.put("session.rejected_frac", self.rejected as f64 / d, "ratio");
        m.put(
            "session.lockout_frac",
            (self.locked_out + self.lockout_refused) as f64 / d,
            "ratio",
        );
        m.put("session.degraded_frac", self.degraded as f64 / d, "ratio");
    }
}

type Client = TracedResponder<FleetClient>;
type Chan = TracedChannel<FaultyChannel>;
type OpenService = AuthService<Client, Chan>;

/// A logged per-chip operation, for the sequential replay.
#[derive(Clone, Debug)]
enum Logged {
    Auth {
        uid: u64,
        result: Option<Result<SessionReport, ProtocolError>>,
    },
    Reenroll,
}

/// What one phase of the open loop measured.
#[derive(Debug, Default)]
struct Phase {
    latencies_us: Vec<f64>,
    lateness_us: Vec<f64>,
    backlog: Vec<usize>,
}

/// The open-loop state of one repetition.
struct OpenLoop<'a> {
    spec: &'a Spec,
    twins: BTreeMap<u32, DeviceTwin>,
    svc: OpenService,
    /// Per session id: (due ns, impostor, uid).
    sessions: Vec<(u64, bool, u64)>,
    in_flight: BTreeMap<u32, u32>,
    /// Sessions submitted and not yet decided.
    outstanding: usize,
    served: Vec<u32>,
    log: BTreeMap<u32, Vec<Logged>>,
    census: Census,
    failed: u64,
    backlog_max: usize,
    reenrolls: u64,
    warm_tick_ns: u64,
    warm_chips: u64,
    /// Loop time spent waiting for the next arrival with nothing in
    /// flight, and total loop time.
    idle_ns: u64,
    loop_ns: u64,
}

impl OpenLoop<'_> {
    fn submit(&mut self, chip: u32, uid: u64, due_ns: u64) {
        let cfg = &self.spec.open;
        let twin = &self.twins[&chip];
        let client = TracedResponder {
            inner: fleet::session_client(cfg, twin, uid),
            session: uid,
            name: "faults.respond",
        };
        let channel = TracedChannel {
            inner: fleet::session_channel(cfg, uid),
            session: uid,
        };
        let rng = fleet::session_rng(cfg, uid);
        let svc = &mut self.svc;
        let id = trace::span("service.submit", uid, 1, || {
            svc.submit(chip, client, channel, rng, 0)
        });
        debug_assert_eq!(id as usize, self.sessions.len());
        self.sessions
            .push((due_ns, fleet::is_impostor(cfg, uid), uid));
        *self.in_flight.entry(chip).or_default() += 1;
        self.outstanding += 1;
        if let Some(ops) = self.log.get_mut(&chip) {
            ops.push(Logged::Auth { uid, result: None });
        }
    }

    fn apply(&mut self, t: &Timed) {
        match t.op {
            Op::Auth { chip, uid } => {
                if self.served.last() != Some(&chip) {
                    self.served.push(chip);
                }
                self.submit(chip, uid, t.due_ns);
            }
            Op::Reenroll { pick } => {
                if self.served.is_empty() {
                    return;
                }
                let n = self.served.len();
                let start = (pick % n as u64) as usize;
                let Some(chip) = (0..n)
                    .map(|k| self.served[(start + k) % n])
                    .find(|c| self.in_flight.get(c).copied().unwrap_or(0) == 0)
                else {
                    return;
                };
                let record = fleet::stored_record(&self.spec.open, chip);
                let svc = &mut self.svc;
                let ok = trace::span("service.reenroll", 0, 1, || svc.reenroll_stored(record));
                if ok.is_err() {
                    self.failed += 1;
                }
                self.reenrolls += 1;
                if let Some(ops) = self.log.get_mut(&chip) {
                    ops.push(Logged::Reenroll);
                }
            }
        }
    }

    fn on_verdict(&mut self, v: SessionVerdict, now_ns: u64, phase: &mut Phase) {
        let (due_ns, impostor, uid) = self.sessions[v.session_id as usize];
        let failed = self.census.record(impostor, &v.result);
        self.failed += u64::from(failed);
        let latency = if failed {
            f64::INFINITY
        } else {
            now_ns.saturating_sub(due_ns) as f64 / 1e3
        };
        phase.latencies_us.push(latency);
        if let Some(n) = self.in_flight.get_mut(&v.chip_id) {
            *n -= 1;
        }
        self.outstanding -= 1;
        if let Some(ops) = self.log.get_mut(&v.chip_id) {
            if let Some(Logged::Auth { result, .. }) = ops
                .iter_mut()
                .find(|o| matches!(o, Logged::Auth { uid: u, result: None } if *u == uid))
            {
                *result = Some(v.result);
            }
        }
    }

    fn tick(&mut self) {
        let svc = &mut self.svc;
        if !trace::enabled() {
            svc.tick();
            return;
        }
        let (batches, chips) = (svc.stats().warm_batches, svc.stats().warm_chips);
        let t0 = trace::now_ns();
        trace::span("service.tick", 0, 0, || svc.tick());
        if svc.stats().warm_batches > batches {
            self.warm_tick_ns += trace::now_ns() - t0;
            self.warm_chips += svc.stats().warm_chips - chips;
        }
    }

    /// Runs one phase: arrivals on schedule, ticks back to back, until
    /// every arrival has been applied and the shard is idle.
    fn run(&mut self, ops: &[Timed]) -> Phase {
        let mut phase = Phase::default();
        let window_ns = ops.last().map_or(0, |t| t.due_ns).max(1);
        let samples = BACKLOG_SAMPLES * (ops.len() / stats::WINDOW).max(1);
        let origin = Instant::now();
        let since = |o: Instant| o.elapsed().as_nanos() as u64;
        let mut next = 0usize;
        let mut idle_since: Option<u64> = None;
        loop {
            let now = since(origin);
            while next < ops.len() && ops[next].due_ns <= now {
                phase
                    .lateness_us
                    .push(now.saturating_sub(ops[next].due_ns) as f64 / 1e3);
                self.apply(&ops[next]);
                next += 1;
            }
            while phase.backlog.len() < samples
                && now >= window_ns * phase.backlog.len() as u64 / samples as u64
            {
                phase.backlog.push(self.outstanding);
            }
            self.backlog_max = self.backlog_max.max(self.outstanding);
            if self.svc.is_idle() {
                if next == ops.len() {
                    break;
                }
                idle_since.get_or_insert(now);
                std::hint::spin_loop();
                continue;
            }
            if let Some(t) = idle_since.take() {
                self.idle_ns += now - t;
            }
            self.tick();
            let svc = &mut self.svc;
            let verdicts = trace::span("service.drain", 0, 0, || svc.drain_verdicts());
            if !verdicts.is_empty() {
                let now = since(origin);
                for v in verdicts {
                    self.on_verdict(v, now, &mut phase);
                }
            }
        }
        self.loop_ns += since(origin);
        phase
    }
}

/// Builds the served shard: enrolls shard 0 of the open population.
fn build_open(spec: &Spec, universe: &Arc<ChallengeUniverse>) -> (OpenService, Vec<u32>) {
    let cfg = &spec.open;
    let mut svc = OpenService::new(
        ServiceConfig {
            policy: cfg.policy,
            flush_rows: cfg.flush_rows,
            flush_ticks: cfg.flush_ticks,
        },
        Arc::clone(universe),
    )
    .expect("open-loop service config");
    let ids: Vec<u32> = (0..cfg.enrolled_chips)
        .filter(|&id| shard_of(cfg.seed, id, cfg.shards) == 0)
        .collect();
    for &id in &ids {
        svc.enroll_stored(fleet::stored_record(cfg, id))
            .expect("fleet records match the universe");
    }
    (svc, ids)
}

/// Replays one chip's logged operations through a sequential
/// `SessionManager` + `PoolSource` and returns the uids whose reports
/// differ from the logged ones.
fn replay_chip(
    cfg: &FleetConfig,
    universe: &Arc<ChallengeUniverse>,
    twin: &DeviceTwin,
    chip: u32,
    ops: &[Logged],
) -> Vec<u64> {
    let mut manager = SessionManager::new(Server::new(), cfg.policy).expect("fleet policy");
    manager.register_chip(fleet::enrolled_record(cfg, chip));
    let mut source = PoolSource::new(Arc::clone(universe));
    let stored = fleet::stored_record(cfg, chip);
    source.register(&stored).expect("fleet records rebuild");
    let mut diverged = Vec::new();
    for op in ops {
        match op {
            Logged::Auth { uid, result } => {
                let mut client = fleet::session_client(cfg, twin, *uid);
                let mut channel = fleet::session_channel(cfg, *uid);
                let mut rng = fleet::session_rng(cfg, *uid);
                let replay = manager.authenticate_with_source(
                    chip,
                    &mut client,
                    &mut channel,
                    &mut source,
                    &mut rng,
                );
                if let Some(batched) = result {
                    if *batched != replay {
                        diverged.push(*uid);
                    }
                }
            }
            Logged::Reenroll => {
                source.register(&stored).expect("fleet records rebuild");
                if manager
                    .reenroll_chip(fleet::enrolled_record(cfg, chip))
                    .is_err()
                {
                    diverged.push(u64::MAX);
                }
            }
        }
    }
    diverged
}

/// A seeded Fisher–Yates shuffle of `chips`.
fn shuffled(lane: u64, chips: &[u32]) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(lane);
    let mut v = chips.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// Seeded sample of up to `k` chips from `chips`.
fn sample_chips(seed: u64, chips: &[u32], k: usize) -> Vec<u32> {
    let mut v = shuffled(service_lane(seed ^ ORACLE_LANE, 0), chips);
    v.truncate(k);
    v
}

/// Nanoseconds per member-row of `xor_response_packed_many` over the
/// universe, on the shifted models of up to 256 of `chips`.
fn packed_kernel_ns(cfg: &FleetConfig, universe: &ChallengeUniverse, chips: &[u32]) -> f64 {
    let models: Vec<_> = chips
        .iter()
        .take(256)
        .filter_map(|&c| fleet::stored_record(cfg, c).shifted_models().ok())
        .collect();
    let mut refs: Vec<&XorPuf> = Vec::new();
    for m in &models {
        refs.extend(m.up_members());
        refs.extend(m.lo_members());
    }
    let members: usize = refs.iter().map(|x| x.members().len()).sum();
    let rows = members * universe.len();
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let planes = trace::span("bitslice.xor_response_packed_many", 0, rows as u64, || {
                puf_core::bitslice::xor_response_packed_many(&refs, universe.features())
            });
            std::hint::black_box(planes);
            t.elapsed().as_nanos() as f64 / rows.max(1) as f64
        })
        .collect();
    stats::median(&times)
}

/// What one repetition measured.
#[derive(Default)]
struct Rep {
    setup_s: f64,
    /// Nominal-phase latencies in verdict order.
    latencies_us: Vec<f64>,
    lateness_us: Vec<f64>,
    /// Per rung (nominal rate first, then the ladder): window verdicts.
    windows: Vec<Vec<(f64, bool)>>,
    drain_s: f64,
}

/// Runs a serving workload: repetitions of set-up, the nominal phase,
/// the rate ladder and the saturated drain, at least `min_reps` and then
/// as many as fit the run's seconds. With `traced`, one more repetition
/// records spans and counters and the others serve as its untraced
/// reference.
pub fn run(kind: Kind, scale: Scale, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let spec = Spec::new(kind, scale, seed, seconds);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let universe = fleet::build_universe(&spec.open);
    let mut out = Outcome::default();
    let mut census = Census::default();
    let mut reps = Vec::new();
    let start = Instant::now();
    // A tiny traced run is its single traced repetition.
    let reference = spec.min_reps - usize::from(traced && spec.min_reps == 1);
    let next_fits = |done: usize| {
        done > 0 && start.elapsed().as_secs_f64() * (done + 1) as f64 / done as f64 <= spec.budget_s
    };
    while reps.len() < reference || next_fits(reps.len()) {
        let rep = reps.len();
        reps.push(run_rep(
            &spec,
            &universe,
            workers,
            rep,
            false,
            &mut out,
            &mut census,
        ));
    }
    let traced_rep = if traced {
        crate::start_tracing();
        let lo = trace::now_ns();
        let r = run_rep(
            &spec,
            &universe,
            workers,
            reps.len(),
            true,
            &mut out,
            &mut census,
        );
        crate::stop_tracing();
        span_layers(&mut out.layers, lo, trace::now_ns());
        // With no untraced repetition the traced one is the reference.
        if reps.is_empty() {
            reps.push(r);
            None
        } else {
            Some(r)
        }
    } else {
        None
    };
    let med = |f: fn(&Rep) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    // Latency figures are medians over repetitions: the host's speed
    // wanders on a scale of seconds, and each repetition samples it anew.
    let rep_lat: Vec<stats::Latency> = reps
        .iter()
        .map(|r| stats::latency(&r.latencies_us))
        .collect();
    let (p50, p90) = (
        stats::median(&rep_lat.iter().map(|l| l.p50).collect::<Vec<_>>()),
        stats::median(&rep_lat.iter().map(|l| l.p90).collect::<Vec<_>>()),
    );
    let pooled: Vec<f64> = reps.iter().flat_map(|r| r.latencies_us.clone()).collect();
    let lat = stats::latency(&pooled);
    let sessions = spec.drain.total_sessions() as f64;
    // Each rung is judged over its windows from every repetition.
    let rates: Vec<f64> = std::iter::once(spec.nominal_rate)
        .chain(spec.ladder.iter().copied())
        .collect();
    let rungs: Vec<Rung> = rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let windows: Vec<(f64, bool)> = reps
                .iter()
                .filter_map(|r| r.windows.get(i))
                .flatten()
                .copied()
                .collect();
            (rate, windows)
        })
        .take_while(|(_, windows)| !windows.is_empty())
        .map(|(rate, windows)| stats::rung(rate, &windows))
        .collect();
    let max_rate = stats::max_rate(&rungs, spec.p99_limit_us);
    let e = &mut out.end_to_end;
    e.put("setup_s", med(|r| r.setup_s), "s");
    e.put("work_s", med(|r| r.drain_s), "s");
    e.put("p50_us", p50, "us");
    e.put("p90_us", p90, "us");
    e.put("peak_rss_mb", stats::peak_rss_mb(), "MB");

    let lateness: Vec<f64> = reps.iter().flat_map(|r| r.lateness_us.clone()).collect();
    let late_p99 = stats::latency(&lateness).p99;
    let samples = pooled.len() as f64;
    let d = &mut out.detail;
    d.put("auth_p50_us", p50, "us");
    d.put("auth_p90_us", p90, "us");
    d.put("auth_p99_us", lat.p99, "us");
    d.put(
        "auth_p99_whole_us",
        stats::percentile(&stats::sorted(pooled.clone()), 0.99).unwrap_or(f64::INFINITY),
        "us",
    );
    d.put("auth_samples", samples, "count");
    d.put("repetitions", reps.len() as f64, "count");
    d.put("nominal_rate", spec.nominal_rate, "1/s");
    d.put("auth_max_rate", max_rate, "1/s");
    d.put("p99_limit_us", spec.p99_limit_us, "us");
    d.put("auths_per_s", sessions / med(|r| r.drain_s), "1/s");
    d.put("drain_sessions", sessions, "count");
    d.put("workers", workers as f64, "count");
    d.put("gen.late_p99_us", late_p99, "us");
    // The generator submits between ticks; lateness beyond a tenth of the
    // latency limit means the loop could not keep the schedule, and the
    // latency figures then describe the generator as much as the service.
    // A tiny run has too few samples for a p99 and judges nothing.
    let behind = late_p99.is_finite() && late_p99 > spec.p99_limit_us / 10.0;
    d.put("gen.fell_behind", f64::from(u8::from(behind)), "count");
    if behind {
        eprintln!("perfbench: generator fell behind: lateness p99 {late_p99:.1} us");
    }
    census.put(d);

    if traced {
        let one = one_worker_drain_s(&spec, &universe, workers);
        let l = &mut out.layers;
        l.put("gen.late_p99_us", late_p99, "us");
        l.put("gen.samples", samples, "count");
        l.put("par.speedup_serve", one / med(|r| r.drain_s), "ratio");
        // With one repetition there is no untraced reference.
        if let Some(t) = traced_rep {
            l.put(
                "trace.overhead_frac",
                stats::latency(&t.latencies_us).p50 / p50 - 1.0,
                "ratio",
            );
        }
    }
    out
}

/// One repetition: set-up, nominal phase, ladder, oracle (first
/// repetition only) and drain.
fn run_rep(
    spec: &Spec,
    universe: &Arc<ChallengeUniverse>,
    workers: usize,
    rep: usize,
    traced: bool,
    out: &mut Outcome,
    census: &mut Census,
) -> Rep {
    let kind = spec.kind;
    let seed = spec.open.seed;

    // ---- set-up: stores, device twins, pre-warm ----
    let t0 = Instant::now();
    let (svc, open_ids) = trace::span("setup.open_shard", 0, 0, || build_open(spec, universe));
    let phases = gen_all(spec, &open_ids);
    let mut device_chips: Vec<u32> = phases
        .iter()
        .flatten()
        .filter_map(|t| match t.op {
            Op::Auth { chip, .. } => Some(chip),
            Op::Reenroll { .. } => None,
        })
        .collect();
    if kind == Kind::Warm {
        device_chips.extend(&open_ids);
    }
    device_chips.sort_unstable();
    device_chips.dedup();
    // The oracle replays a seeded sample of the chips the stream touches;
    // only their operations are logged.
    let log = sample_chips(seed, &device_chips, spec.oracle_chips)
        .into_iter()
        .map(|c| (c, Vec::new()))
        .collect();
    let twins = trace::span("setup.twins", 0, device_chips.len() as u64, || {
        fleet::build_twins(&spec.open, universe, &device_chips)
    });
    let mut open = OpenLoop {
        spec,
        twins,
        svc,
        sessions: Vec::new(),
        in_flight: BTreeMap::new(),
        outstanding: 0,
        served: Vec::new(),
        log,
        census: Census::default(),
        failed: 0,
        backlog_max: 0,
        reenrolls: 0,
        warm_tick_ns: 0,
        warm_chips: 0,
        idle_ns: 0,
        loop_ns: 0,
    };
    if kind == Kind::Warm {
        trace::span("setup.prewarm", 0, open_ids.len() as u64, || {
            for &chip in &open_ids {
                open.submit(chip, WARMUP_UID + u64::from(chip), 0);
            }
            open.run(&[]);
        });
    }
    let drain_ids: Vec<u32> = (0..spec.drain.active_chips).collect();
    let mut drain = trace::span("setup.drain_fleet", 0, 0, || {
        fleet::build_fleet(&spec.drain, universe, workers)
    });
    let drain_twins = (kind == Kind::Warm).then(|| {
        let twins = fleet::build_twins(&spec.drain, universe, &drain_ids);
        prewarm_fleet(&spec.drain, &mut drain, &twins);
        twins
    });
    let setup_s = t0.elapsed().as_secs_f64();
    // Warm-up sessions are set-up, not served load.
    let warmups = open.census;
    open.census = Census::default();
    let (stats0, warm0) = (*open.svc.stats(), (open.warm_tick_ns, open.warm_chips));

    // ---- nominal rate ----
    let nominal = open.run(&phases[0]);
    let mut r = Rep {
        setup_s,
        latencies_us: nominal.latencies_us,
        lateness_us: nominal.lateness_us.clone(),
        ..Rep::default()
    };

    // ---- ladder of absolute rates, the nominal phase as its first rung ----
    r.windows = vec![stats::window_verdicts(&r.latencies_us, &nominal.backlog)];
    for phase_ops in &phases[1..] {
        let phase = open.run(phase_ops);
        r.windows
            .push(stats::window_verdicts(&phase.latencies_us, &phase.backlog));
        // Climb until two rungs in a row fail: `stats::max_rate` smooths
        // each rung with its neighbours.
        let failed_twice = r
            .windows
            .iter()
            .rev()
            .take(2)
            .filter(|w| !stats::rung(0.0, w).passes(spec.p99_limit_us))
            .count()
            == 2;
        if failed_twice {
            break;
        }
    }

    // ---- correctness: every session decided; sampled chips replay ----
    let undecided = open.sessions.len() as u64 - open.census.decided() - warmups.decided();
    out.check(undecided == 0, || {
        format!("{undecided} sessions never decided")
    });
    if rep == 0 {
        let mut replayed = 0usize;
        for (&chip, ops) in &open.log {
            replayed += ops.len();
            let diverged = trace::span("oracle.replay", 0, ops.len() as u64, || {
                replay_chip(&spec.open, universe, &open.twins[&chip], chip, ops)
            });
            out.check(diverged.is_empty(), || {
                format!("chip {chip}: sessions {diverged:?} differ from the sequential replay")
            });
        }
        out.detail
            .put("oracle.replayed_ops", replayed as f64, "count");
    }

    // ---- saturated drain of the stated backlog ----
    let t = Instant::now();
    let run = trace::span("drain.serve_fleet", 0, spec.drain.total_sessions(), || {
        fleet::serve_fleet(&spec.drain, drain, workers)
    });
    r.drain_s = t.elapsed().as_secs_f64();
    let reports = run.reports();
    out.check(reports.len() as u64 == spec.drain.total_sessions(), || {
        format!(
            "drain decided {} of {} sessions",
            reports.len(),
            spec.drain.total_sessions()
        )
    });
    let mut drain_census = Census::default();
    for (&uid, result) in &reports {
        out.failed += u64::from(drain_census.record(fleet::is_impostor(&spec.drain, uid), result));
    }
    out.attempted += drain_census.decided();
    if rep == 0 {
        let sample = sample_chips(seed ^ 1, &drain_ids, spec.oracle_chips);
        let built;
        let device = match &drain_twins {
            Some(t) => t,
            None => {
                built = fleet::build_twins(&spec.drain, universe, &sample);
                &built
            }
        };
        for &chip in &sample {
            let warmup = (kind == Kind::Warm).then_some(Logged::Auth {
                uid: WARMUP_UID + u64::from(chip),
                result: None,
            });
            let ops: Vec<Logged> = warmup
                .into_iter()
                .chain((0..spec.drain.sessions_per_chip).map(|k| {
                    let uid = spec.drain.session_uid(chip, k);
                    Logged::Auth {
                        uid,
                        result: Some(reports[&uid].clone()),
                    }
                }))
                .collect();
            let diverged = trace::span("oracle.replay", 0, ops.len() as u64, || {
                replay_chip(&spec.drain, universe, &device[&chip], chip, &ops)
            });
            out.check(diverged.is_empty(), || {
                format!(
                    "drain chip {chip}: sessions {diverged:?} differ from the sequential replay"
                )
            });
        }
    }

    out.attempted += open.census.decided() + open.reenrolls;
    out.failed += open.failed;
    *census = add_census(*census, open.census);
    if traced {
        let s = open.svc.stats();
        let decided = open.census.decided().max(1) as f64;
        let l = &mut out.layers;
        l.put("service.decided", decided, "count");
        l.put(
            "service.ticks_per_auth",
            (s.ticks - stats0.ticks) as f64 / decided,
            "count",
        );
        l.put(
            "service.aged_flush_frac",
            (s.aged_flushes - stats0.aged_flushes) as f64
                / (s.flushes - stats0.flushes).max(1) as f64,
            "ratio",
        );
        l.put("service.backlog_max", open.backlog_max as f64, "count");
        l.put(
            "service.warm_chips_per_auth",
            (s.warm_chips - stats0.warm_chips) as f64 / decided,
            "ratio",
        );
        // On serve-warm the serving phases warm nothing; the figure then
        // comes from the set-up pre-warm, which is where that cost went.
        let (ns, chips) = if open.warm_chips > warm0.1 {
            (open.warm_tick_ns - warm0.0, open.warm_chips - warm0.1)
        } else {
            warm0
        };
        if chips > 0 {
            l.put("service.warm_ns_per_chip", ns as f64 / chips as f64, "ns");
        }
        l.put(
            "bitslice.packed_ns_per_member_row",
            packed_kernel_ns(&spec.open, universe, &open.served),
            "ns",
        );
        l.put("service.reenrolls", open.reenrolls as f64, "count");
        open.census.put(l);
        l.put(
            "gen.idle_frac",
            open.idle_ns as f64 / open.loop_ns.max(1) as f64,
            "ratio",
        );
    }
    r
}

fn add_census(a: Census, b: Census) -> Census {
    Census {
        genuine: a.genuine + b.genuine,
        impostor: a.impostor + b.impostor,
        accepted: a.accepted + b.accepted,
        degraded: a.degraded + b.degraded,
        rejected: a.rejected + b.rejected,
        locked_out: a.locked_out + b.locked_out,
        lockout_refused: a.lockout_refused + b.lockout_refused,
        genuine_denied: a.genuine_denied + b.genuine_denied,
        impostor_granted: a.impostor_granted + b.impostor_granted,
        errors: a.errors + b.errors,
        attempts: a.attempts + b.attempts,
        retried: a.retried + b.retried,
    }
}

/// Wall time of the saturated drain on one worker.
fn one_worker_drain_s(spec: &Spec, universe: &Arc<ChallengeUniverse>, workers: usize) -> f64 {
    let mut fleet_one = fleet::build_fleet(&spec.drain, universe, workers);
    if spec.kind == Kind::Warm {
        let ids: Vec<u32> = (0..spec.drain.active_chips).collect();
        let twins = fleet::build_twins(&spec.drain, universe, &ids);
        prewarm_fleet(&spec.drain, &mut fleet_one, &twins);
    }
    let t = Instant::now();
    std::hint::black_box(fleet::serve_fleet(&spec.drain, fleet_one, 1));
    t.elapsed().as_secs_f64()
}

/// Warms every active chip of the drain fleet with one session each.
fn prewarm_fleet(
    cfg: &FleetConfig,
    services: &mut [fleet::FleetService],
    twins: &BTreeMap<u32, DeviceTwin>,
) {
    for (&chip, twin) in twins {
        let shard = shard_of(cfg.seed, chip, cfg.shards);
        let uid = WARMUP_UID + u64::from(chip);
        services[shard].submit(
            chip,
            fleet::session_client(cfg, twin, uid),
            fleet::session_channel(cfg, uid),
            fleet::session_rng(cfg, uid),
            0,
        );
    }
    for svc in services.iter_mut() {
        assert!(svc.run_until_idle(1 << 24), "pre-warm drains");
        svc.drain_verdicts();
    }
}

/// Per-layer figures from the recorded spans and the program's counters.
fn span_layers(layers: &mut Metrics, lo: u64, hi: u64) {
    let spans = trace::take();
    let t = trace::totals(&spans);
    let get = |n: &str| t.get(n).copied().unwrap_or_default();
    let decided = layers.get("service.decided").unwrap_or(1.0).max(1.0);
    let (tick, respond, transmit) = (
        get("service.tick"),
        get("faults.respond"),
        get("faults.transmit"),
    );
    layers.put(
        "service.tick_self_ns_per_auth",
        tick.self_ns as f64 / decided,
        "ns",
    );
    let submit = get("service.submit");
    layers.put(
        "service.submit_ns",
        submit.total_ns as f64 / submit.count.max(1) as f64,
        "ns",
    );
    let drain = get("service.drain");
    layers.put(
        "service.drain_ns",
        drain.total_ns as f64 / drain.count.max(1) as f64,
        "ns",
    );
    layers.put(
        "faults.respond_ns_per_challenge",
        respond.total_ns as f64 / respond.units.max(1) as f64,
        "ns",
    );
    layers.put(
        "faults.transmit_ns",
        transmit.total_ns as f64 / transmit.count.max(1) as f64,
        "ns",
    );
    layers.put(
        "faults.delivered_frac",
        transmit.units as f64 / transmit.count.max(1) as f64,
        "ratio",
    );
    let reg = puf_telemetry::registry();
    let c = |n: &str| reg.counter(n).get() as f64;
    layers.put(
        "service.rows_per_flush",
        c("protocol.service.flush_rows") / c("protocol.service.flushes").max(1.0),
        "count",
    );
    layers.put(
        "session.select_draws_per_challenge",
        c("protocol.service.pool_attempted") / c("protocol.service.pool_accepted").max(1.0),
        "count",
    );
    layers.put(
        "trace.coverage",
        trace::root_coverage(&spans, lo, hi),
        "ratio",
    );
}
