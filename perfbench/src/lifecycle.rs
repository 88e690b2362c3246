//! `lifecycle`: paper-geometry silicon chips aged epoch by epoch through
//! a decade of service and walked through the nine V/T corners of
//! `Condition::paper_grid()`. Sessions run one at a time through
//! `SessionManager::authenticate_with_source` over a `PoolSource`, with
//! the chip itself (`ChipResponder`) answering behind a lossy channel.
//! Every control-plane event is journaled in a `DurableLog` that also
//! holds a store of synthetic fleet records; stale chips are re-enrolled
//! from aged silicon with `enroll` (paper configuration); and every epoch
//! ends in a crash whose disk fault rotates through none and the four
//! `DiskFaultKind`s, recovered with `recover` and
//! `restore_session_manager`.

use crate::report::Outcome;
use crate::stats;
use crate::trace::{self, TracedChannel, TracedResponder};
use crate::Scale;
use puf_bench::fleet::{self, FleetConfig};
use puf_core::Condition;
use puf_protocol::durable::{recover, DurableEvent, DurableLog};
use puf_protocol::enrollment::{enroll, EnrolledChip, EnrollmentConfig};
use puf_protocol::faults::{DiskCorruption, DiskFaultKind};
use puf_protocol::{
    service_lane, ChallengeSource, ChallengeUniverse, ChannelFaultPlan, ChipResponder,
    ExclusionSet, FaultPlan, PoolSource, ProtocolError, SelectedChallenge, Server, SessionManager,
    SessionOutcome, SessionPolicy, StoredChip,
};
use puf_silicon::{Chip, ChipConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Simulated hours per service year.
const HOURS_PER_YEAR: f64 = 8_766.0;
/// Service years the epochs span.
const YEARS: f64 = 10.0;
/// Silicon chip ids start here, above the synthetic records' ids.
const SILICON_BASE: u32 = 1 << 24;
/// Lane salts.
const FAB_LANE: u64 = 0x11FE_0001;
const UNIVERSE_LANE: u64 = 0x11FE_0002;
const ENROLL_LANE: u64 = 0x11FE_0003;
const SESSION_LANE: u64 = 0x11FE_0004;
const CRASH_LANE: u64 = 0x11FE_0005;

/// The stated lifecycle.
#[derive(Clone, Debug)]
pub struct Spec {
    chips: usize,
    xor_n: usize,
    epochs: usize,
    sessions_per_epoch: usize,
    universe: usize,
    rounds: usize,
    synthetic_records: u32,
    compact_every: u64,
    reenroll_every: usize,
    enrollment: EnrollmentConfig,
    chip_config: ChipConfig,
    /// Repetitions run at least, and the seconds further repetitions may
    /// fill.
    min_reps: usize,
    budget_s: f64,
}

impl Spec {
    /// The workload at `scale`; the whole lifecycle (about 2 s with its
    /// set-up) repeats until `seconds` are spent.
    pub fn new(scale: Scale, seconds: f64) -> Self {
        match scale {
            Scale::Full => Self {
                chips: 6,
                xor_n: 4,
                epochs: 10,
                sessions_per_epoch: 32,
                universe: 2_048,
                rounds: 16,
                synthetic_records: 4_096,
                compact_every: 512,
                reenroll_every: 4,
                enrollment: EnrollmentConfig::paper_default(4),
                chip_config: ChipConfig::paper_default(),
                min_reps: 3,
                budget_s: seconds,
            },
            Scale::Tiny => Self {
                chips: 2,
                xor_n: 2,
                epochs: 5,
                sessions_per_epoch: 8,
                universe: 512,
                rounds: 8,
                synthetic_records: 64,
                compact_every: 16,
                reenroll_every: 2,
                enrollment: EnrollmentConfig::small(2),
                chip_config: ChipConfig::paper_default(),
                min_reps: 1,
                budget_s: 0.0,
            },
        }
    }

    fn policy(&self) -> SessionPolicy {
        SessionPolicy::degraded(self.rounds, 0.25)
    }

    fn channel(&self) -> ChannelFaultPlan {
        ChannelFaultPlan {
            drop_rate: 0.01,
            straggle_rate: 0.005,
            duplicate_rate: 0.005,
            reorder_rate: 0.005,
            corrupt_rate: 0.002,
        }
    }
}

/// A [`PoolSource`] in `session.select` spans that remembers what it
/// issued, for the pool-consumption journal.
struct JournalSource {
    inner: PoolSource,
    issued: Vec<u128>,
}

impl ChallengeSource for JournalSource {
    fn select<R: Rng + ?Sized>(
        &mut self,
        server: &Server,
        chip_id: u32,
        count: usize,
        max_attempts: usize,
        exclude: &ExclusionSet,
        rng: &mut R,
    ) -> Result<Vec<SelectedChallenge>, ProtocolError> {
        let inner = &mut self.inner;
        let selected = trace::span("session.select", u64::from(chip_id), count as u64, || {
            inner.select(server, chip_id, count, max_attempts, exclude, rng)
        })?;
        self.issued
            .extend(selected.iter().map(|s| s.challenge.bits()));
        Ok(selected)
    }
}

/// The journal plus its byte accounting.
struct Journal {
    log: DurableLog,
    wal_bytes: u64,
    snapshot_bytes: u64,
    compactions: u64,
    appends: u64,
    since_compact: u64,
    compact_every: u64,
}

impl Journal {
    fn new(compact_every: u64) -> Self {
        Self::adopt(DurableLog::new(u64::MAX), compact_every)
    }

    /// Wraps a recovered log; compaction stays under the journal's
    /// control so it shows as its own span.
    fn adopt(mut log: DurableLog, compact_every: u64) -> Self {
        log.set_snapshot_every(u64::MAX);
        Self {
            log,
            wal_bytes: 0,
            snapshot_bytes: 0,
            compactions: 0,
            appends: 0,
            since_compact: 0,
            compact_every,
        }
    }

    fn append(&mut self, event: &DurableEvent) {
        let before = self.log.wal_bytes().len();
        let log = &mut self.log;
        trace::span("durable.append", 0, 1, || log.append(event));
        self.wal_bytes += (self.log.wal_bytes().len() - before) as u64;
        self.appends += 1;
        self.since_compact += 1;
        if self.since_compact >= self.compact_every {
            self.compact();
        }
    }

    fn compact(&mut self) {
        let log = &mut self.log;
        trace::span("durable.compact", 0, 1, || log.compact());
        self.snapshot_bytes += self.log.snapshot_bytes().len() as u64;
        self.compactions += 1;
        self.since_compact = 0;
    }

    /// Moves the byte accounting of `other` into this journal.
    fn absorb(&mut self, other: &Journal) {
        self.wal_bytes += other.wal_bytes;
        self.snapshot_bytes += other.snapshot_bytes;
        self.compactions += other.compactions;
        self.appends += other.appends;
    }
}

/// One lifecycle's own state.
struct Life<'a> {
    spec: &'a Spec,
    seed: u64,
    chips: Vec<Chip>,
    universe: Arc<ChallengeUniverse>,
    journal: Journal,
    manager: SessionManager,
    source: JournalSource,
}

impl Life<'_> {
    fn measure(&self, chip: &Chip, epoch: u64) -> EnrolledChip {
        let mut rng = StdRng::seed_from_u64(service_lane(
            self.seed ^ ENROLL_LANE,
            (u64::from(chip.id()) << 16) | epoch,
        ));
        trace::span("enrollment.enroll", u64::from(chip.id()), 1, || {
            enroll(chip, &self.spec.enrollment, &mut rng)
        })
        .expect("lifecycle chips keep their fuses")
    }

    fn register_source(&mut self, record: &EnrolledChip) {
        let stored = StoredChip::from_enrolled(record).expect("enrolled records compact");
        self.source
            .inner
            .register(&stored)
            .expect("compact records rebuild");
    }

    /// Enrolls silicon chip `k` from its current (aged) state: the first
    /// time, after its record was lost in a crash, or on re-enrollment.
    fn enroll_chip(&mut self, k: usize, epoch: u64, reenroll: bool) {
        let record = self.measure(&self.chips[k], epoch);
        self.register_source(&record);
        if reenroll {
            self.manager
                .reenroll_chip(record.clone())
                .expect("re-enrolling a registered chip");
            self.journal.append(&DurableEvent::Reenroll(record));
        } else {
            self.manager.register_chip(record.clone());
            self.journal.append(&DurableEvent::Enroll(record));
        }
    }
}

/// What one lifecycle repetition measured.
#[derive(Default)]
struct Rep {
    setup_s: f64,
    wall_s: f64,
    session_us: Vec<f64>,
    recover_s: Vec<f64>,
    restore_s: Vec<f64>,
    bytes_dropped: u64,
    events_applied: u64,
    readmitted: u64,
    reenrolls: u64,
    sessions: u64,
    accepted: u64,
    degraded: u64,
    denied: u64,
    wal_bytes: u64,
    snapshot_bytes: u64,
    compactions: u64,
    appends: u64,
}

fn fabricate(spec: &Spec, seed: u64) -> Vec<Chip> {
    let mut rng = StdRng::seed_from_u64(service_lane(seed ^ FAB_LANE, 0));
    (0..spec.chips)
        .map(|k| Chip::fabricate(SILICON_BASE + k as u32, &spec.chip_config, &mut rng))
        .collect()
}

/// Set-up: fabricate, enroll every chip, fill the store with the
/// synthetic fleet records.
fn setup<'a>(spec: &'a Spec, seed: u64, fleet_cfg: &FleetConfig) -> Life<'a> {
    let chips = fabricate(spec, seed);
    let mut rng = StdRng::seed_from_u64(service_lane(seed ^ UNIVERSE_LANE, 0));
    let universe = Arc::new(
        ChallengeUniverse::generate(spec.chip_config.stages, spec.universe, &mut rng)
            .expect("lifecycle universe"),
    );
    let mut life = Life {
        spec,
        seed,
        chips,
        source: JournalSource {
            inner: PoolSource::new(Arc::clone(&universe)),
            issued: Vec::new(),
        },
        universe,
        journal: Journal::new(spec.compact_every),
        manager: SessionManager::new(Server::new(), spec.policy()).expect("lifecycle policy"),
    };
    for id in 0..spec.synthetic_records {
        life.journal
            .append(&DurableEvent::Enroll(fleet::enrolled_record(fleet_cfg, id)));
    }
    for k in 0..spec.chips {
        life.enroll_chip(k, 0, false);
    }
    life
}

fn run_rep(spec: &Spec, seed: u64, out: &mut Outcome) -> Rep {
    let fleet_cfg = FleetConfig::smoke(seed);
    let t0 = Instant::now();
    let mut life = setup(spec, seed, &fleet_cfg);
    let mut r = Rep {
        setup_s: t0.elapsed().as_secs_f64(),
        ..Rep::default()
    };
    let corners = Condition::paper_grid();
    // Bit rot is aimed once at each medium, so every seed loses its
    // snapshot equally often and re-admits the same number of chips.
    let faults = [
        Crash::Clean,
        Crash::Fault(DiskFaultKind::TornFinalRecord, Medium::Both),
        Crash::Fault(DiskFaultKind::BitRot, Medium::Wal),
        Crash::Fault(DiskFaultKind::BitRot, Medium::Snapshot),
        Crash::Fault(DiskFaultKind::DuplicatedTail, Medium::Both),
        Crash::Fault(DiskFaultKind::TruncatedSnapshot, Medium::Both),
    ];
    let plan = spec.channel();
    let t0 = Instant::now();
    for epoch in 0..spec.epochs {
        let hours = (epoch + 1) as f64 * YEARS * HOURS_PER_YEAR / spec.epochs as f64;
        let corner = corners[epoch % corners.len()];
        for chip in &mut life.chips {
            chip.set_age(hours);
        }
        for k in 0..spec.chips {
            let chip_id = life.chips[k].id();
            if life.manager.is_locked_out(chip_id) {
                life.manager.reinstate(chip_id);
                life.journal.append(&DurableEvent::Reinstate { chip_id });
            }
            for s in 0..spec.sessions_per_epoch {
                let uid = service_lane(
                    seed ^ SESSION_LANE,
                    (u64::from(chip_id) << 32) | (epoch * spec.sessions_per_epoch + s) as u64,
                );
                let mut responder = TracedResponder {
                    inner: ChipResponder::new(&life.chips[k], spec.xor_n, corner, uid),
                    session: uid,
                    name: "chip.respond",
                };
                let mut channel = TracedChannel {
                    inner: FaultPlan::none(uid ^ 1).with_channel(plan).channel_faults(),
                    session: uid,
                };
                let mut rng = StdRng::seed_from_u64(uid ^ 2);
                let (manager, source) = (&mut life.manager, &mut life.source);
                let t = Instant::now();
                let result = trace::span("session.authenticate", uid, 1, || {
                    manager.authenticate_with_source(
                        chip_id,
                        &mut responder,
                        &mut channel,
                        source,
                        &mut rng,
                    )
                });
                r.session_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                r.sessions += 1;
                match &result {
                    Ok(report) => match report.outcome {
                        SessionOutcome::Accepted => r.accepted += 1,
                        SessionOutcome::Degraded => r.degraded += 1,
                        SessionOutcome::Rejected => r.denied += 1,
                        SessionOutcome::LockedOut => {
                            r.denied += 1;
                            life.journal.append(&DurableEvent::Lockout { chip_id });
                        }
                    },
                    Err(ProtocolError::ChipLockedOut { .. }) => r.denied += 1,
                    Err(e) => {
                        out.failed += 1;
                        out.check(false, || format!("chip {chip_id}: session error {e}"));
                    }
                }
                let bits = std::mem::take(&mut life.source.issued);
                if !bits.is_empty() {
                    life.journal
                        .append(&DurableEvent::PoolConsume { chip_id, bits });
                }
                if let Some(state) = life.manager.state(chip_id).copied() {
                    life.journal
                        .append(&DurableEvent::StateSync { chip_id, state });
                }
            }
            let stale = life
                .manager
                .state(chip_id)
                .is_some_and(|s| s.needs_reenrollment);
            if stale || (epoch + 1) % spec.reenroll_every == 0 {
                life.enroll_chip(k, epoch as u64 + 1, true);
                r.reenrolls += 1;
            }
        }
        crash(
            &mut life,
            &mut r,
            epoch,
            faults[epoch % faults.len()],
            &fleet_cfg,
            out,
        );
    }
    r.wall_s = t0.elapsed().as_secs_f64();
    let j = &life.journal;
    r.wal_bytes += j.wal_bytes;
    r.snapshot_bytes += j.snapshot_bytes;
    r.compactions += j.compactions;
    r.appends += j.appends;
    r
}

/// Which stored buffers a disk fault may damage.
#[derive(Clone, Copy, Debug)]
enum Medium {
    Both,
    Wal,
    Snapshot,
}

/// One epoch-end crash.
#[derive(Clone, Copy, Debug)]
enum Crash {
    Clean,
    Fault(DiskFaultKind, Medium),
}

/// Crashes the store, recovers, restores the session manager, and
/// re-admits whatever the salvage lost.
fn crash(
    life: &mut Life<'_>,
    r: &mut Rep,
    epoch: usize,
    fault: Crash,
    fleet_cfg: &FleetConfig,
    out: &mut Outcome,
) {
    let spec = life.spec;
    let mut snapshot = life.journal.log.snapshot_bytes().to_vec();
    let mut wal = life.journal.log.wal_bytes().to_vec();
    let corruption = match fault {
        Crash::Clean => DiskCorruption::None,
        Crash::Fault(kind, medium) => {
            let mut injector = FaultPlan::none(service_lane(life.seed ^ CRASH_LANE, epoch as u64))
                .disk_faults(kind);
            // The injector damages whichever buffer it is given; an empty
            // stand-in keeps it off the other one.
            match medium {
                Medium::Both => injector.corrupt(&mut snapshot, &mut wal),
                Medium::Wal => injector.corrupt(&mut Vec::new(), &mut wal),
                Medium::Snapshot => injector.corrupt(&mut snapshot, &mut Vec::new()),
            }
        }
    };
    let t = Instant::now();
    let (recovered, report) = trace::span("durable.recover", 0, wal.len() as u64, || {
        recover(&snapshot, &wal)
    });
    let recover_done = Instant::now();
    let manager = trace::span("durable.restore_session_manager", 0, 1, || {
        recovered.state().restore_session_manager(spec.policy())
    })
    .expect("the lifecycle policy is valid");
    r.recover_s.push(t.elapsed().as_secs_f64());
    r.restore_s.push(recover_done.elapsed().as_secs_f64());
    r.events_applied += report.events_applied;
    r.bytes_dropped += report.wal_bytes_dropped as u64;

    out.check(
        report.wal_bytes_salvaged + report.wal_bytes_dropped == wal.len(),
        || format!("epoch {epoch}: recovery left WAL bytes unaccounted: {report:?}"),
    );
    match corruption {
        DiskCorruption::None => out.check(
            report.is_clean() && recovered.state() == life.journal.log.state(),
            || format!("epoch {epoch}: fault-free crash did not recover bit-identically"),
        ),
        DiskCorruption::TruncatedSnapshot { .. }
        | DiskCorruption::BitRot {
            in_snapshot: true, ..
        } => out.check(!report.snapshot_recovered, || {
            format!("epoch {epoch}: a damaged snapshot was accepted")
        }),
        _ => out.check(report.snapshot_recovered, || {
            format!("epoch {epoch}: an intact snapshot was rejected")
        }),
    }

    let mut journal = Journal::adopt(recovered, spec.compact_every);
    journal.absorb(&life.journal);
    life.journal = journal;
    life.manager = manager;
    life.source.inner = PoolSource::new(Arc::clone(&life.universe));
    life.source.issued.clear();
    let silicon: Vec<EnrolledChip> = life
        .journal
        .log
        .state()
        .records()
        .filter(|r| r.chip_id >= SILICON_BASE)
        .cloned()
        .collect();
    for record in &silicon {
        life.register_source(record);
    }
    for k in 0..spec.chips {
        if life.manager.server().record(life.chips[k].id()).is_none() {
            life.enroll_chip(k, epoch as u64 + 1, false);
            r.readmitted += 1;
        }
    }
    for id in 0..spec.synthetic_records {
        if life.journal.log.state().record(id).is_none() {
            life.journal
                .append(&DurableEvent::Enroll(fleet::enrolled_record(fleet_cfg, id)));
        }
    }
}

/// Runs the lifecycle workload.
pub fn run(scale: Scale, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let spec = Spec::new(scale, seconds);
    let mut out = Outcome::default();
    let mut reps = Vec::new();
    let mut lo = 0;
    let started = Instant::now();
    // Untraced repetitions until the run's seconds are spent, then one
    // traced repetition when tracing.
    for rep in 0.. {
        let untraced = rep < spec.min_reps
            || started.elapsed().as_secs_f64() * (rep + 1) as f64 / rep as f64 <= spec.budget_s;
        let traced_rep = traced && !untraced;
        if !untraced && !traced_rep {
            break;
        }
        if traced_rep {
            crate::start_tracing();
            lo = trace::now_ns();
        }
        let r = run_rep(&spec, seed, &mut out);
        out.attempted += r.sessions + r.reenrolls + spec.epochs as u64;
        reps.push(r);
        if traced_rep {
            break;
        }
    }
    let hi = trace::now_ns();
    crate::stop_tracing();
    let traced_rep = reps.pop_if(|_| traced);
    let first = &reps[0];
    for (i, r) in reps.iter().enumerate().skip(1) {
        out.check(
            (r.accepted, r.degraded, r.denied, r.reenrolls, r.readmitted)
                == (
                    first.accepted,
                    first.degraded,
                    first.denied,
                    first.reenrolls,
                    first.readmitted,
                ),
            || format!("repetition {i} outcomes differ from repetition 0"),
        );
    }
    let med = |f: fn(&Rep) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    let session_us: Vec<f64> = reps.iter().flat_map(|r| r.session_us.clone()).collect();
    let lat = stats::latency(&session_us);
    let recover_s = stats::median(
        &reps
            .iter()
            .flat_map(|r| r.recover_s.clone())
            .collect::<Vec<_>>(),
    );
    let session_s: f64 = session_us.iter().sum::<f64>() / 1e6;
    let sessions: u64 = reps.iter().map(|r| r.sessions).sum();

    let e = &mut out.end_to_end;
    e.put("setup_s", med(|r| r.setup_s), "s");
    e.put("work_s", med(|r| r.wall_s), "s");
    e.put("p50_us", lat.p50, "us");
    e.put("p90_us", lat.p90, "us");
    e.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    let d = &mut out.detail;
    d.put("lifecycle_s", med(|r| r.wall_s), "s");
    d.put("sessions_per_s", sessions as f64 / session_s, "1/s");
    d.put("recover_s", recover_s, "s");
    d.put("epochs", spec.epochs as f64, "count");
    d.put("years", YEARS, "count");
    d.put("sessions", first.sessions as f64, "count");
    d.put("session_p99_us", lat.p99, "us");
    d.put("session_samples", lat.samples as f64, "count");
    d.put(
        "frr",
        first.denied as f64 / first.sessions.max(1) as f64,
        "ratio",
    );
    d.put(
        "degraded_frac",
        first.degraded as f64 / first.sessions.max(1) as f64,
        "ratio",
    );
    d.put("reenrolls", first.reenrolls as f64, "count");
    d.put("readmitted", first.readmitted as f64, "count");
    d.put("crashes", spec.epochs as f64, "count");

    if let Some(t) = traced_rep {
        let spans = trace::take();
        let tot = trace::totals(&spans);
        let get = |n: &str| tot.get(n).copied().unwrap_or_default();
        let mean_ns = |n: &str| get(n).total_ns as f64 / get(n).count.max(1) as f64;
        let l = &mut out.layers;
        l.put(
            "session.authenticate_us",
            mean_ns("session.authenticate") / 1e3,
            "us",
        );
        let respond = get("chip.respond");
        l.put(
            "chip.respond_ns_per_challenge",
            respond.total_ns as f64 / respond.units.max(1) as f64,
            "ns",
        );
        let select = get("session.select");
        l.put(
            "session.select_ns_per_challenge",
            select.total_ns as f64 / select.units.max(1) as f64,
            "ns",
        );
        l.put(
            "enrollment.ms_per_chip",
            mean_ns("enrollment.enroll") / 1e6,
            "ms",
        );
        l.put(
            "durable.append_ns_per_event",
            mean_ns("durable.append"),
            "ns",
        );
        l.put("durable.compact_s", mean_ns("durable.compact") / 1e9, "s");
        l.put(
            "durable.snapshot_bytes",
            t.snapshot_bytes as f64 / t.compactions.max(1) as f64,
            "bytes",
        );
        l.put(
            "durable.bytes_written_per_user_byte",
            (t.wal_bytes + t.snapshot_bytes) as f64 / t.wal_bytes.max(1) as f64,
            "ratio",
        );
        l.put("durable.recover_s", mean_ns("durable.recover") / 1e9, "s");
        l.put(
            "durable.restore_s",
            mean_ns("durable.restore_session_manager") / 1e9,
            "s",
        );
        l.put("durable.bytes_dropped", t.bytes_dropped as f64, "bytes");
        l.put("durable.events_applied", t.events_applied as f64, "count");
        l.put("durable.appends", t.appends as f64, "count");
        l.put(
            "session.frr",
            t.denied as f64 / t.sessions.max(1) as f64,
            "ratio",
        );
        l.put(
            "trace.overhead_frac",
            t.wall_s / med(|r| r.wall_s) - 1.0,
            "ratio",
        );
        l.put(
            "trace.coverage",
            trace::root_coverage(&spans, lo, hi),
            "ratio",
        );
    }
    out
}
