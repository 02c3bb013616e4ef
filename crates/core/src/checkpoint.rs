//! Versioned whole-run checkpoints: everything a round depends on, in one
//! magic-tagged, CRC-checked binary blob.
//!
//! The format follows the `FEDMIGR1` conventions of
//! `fedmigr_nn::checkpoint` (little-endian, length-prefixed, CRC-32
//! trailer) but carries a *run*, not a model, under its own magic:
//!
//! ```text
//! [8]  magic  b"FEDMIGRR"
//! [4]  u32    format version (RUN_STATE_VERSION)
//! [..] stamp  identifying run configuration (scheme/seed/epochs/clients/
//!             num_params/codec/transport/agg_interval) — validated against
//!             the resuming run's configuration before any state is decoded
//! [..] state  the RunState payload
//! [4]  u32    CRC-32 (IEEE) over everything above
//! ```
//!
//! Determinism contract: restoring a [`RunState`] and replaying rounds
//! `epoch+1..` must be *byte-identical* to never having stopped. That is
//! only possible because every source of run randomness is explicit state
//! (the shared `StdRng`, each client's private RNG, the DDPG agent's RNG
//! and OU process, the compressor's rounding counter) and every hash-based
//! process (faults, attacks) is a pure function of `(seed, epoch)`. The
//! chaos harness in `tests/chaos_resume.rs` enforces the contract.

use std::io;
use std::path::Path;

use fedmigr_compress::{CompressionStats, CompressorState};
use fedmigr_drl::{AgentState, OuState, ReplayState, Transition, UpdateStats};
use fedmigr_fleet::DormantState;
use fedmigr_net::{MeterState, TrafficBreakdown, TransportAccumState, TransportStats};
use fedmigr_nn::checkpoint::crc32;

use crate::client::ClientState;
use crate::metrics::{EpochRecord, FaultStats, PhaseBreakdown, RecoveryStats, RobustStats};
use crate::migration::QuarantineState;

/// Magic tag opening every run checkpoint (distinct from the model
/// checkpoint's `FEDMIGR1`).
pub const RUN_STATE_MAGIC: &[u8; 8] = b"FEDMIGRR";

/// Current run-checkpoint format version. Version 2 added the stamp's
/// `mode` field (dense vs fleet) and the fleet payload layout; version 3
/// moved the state both runners carry into one shared [`LedgerState`]
/// prefix, ahead of each mode's own fields.
pub const RUN_STATE_VERSION: u32 = 3;

/// Identifying configuration a checkpoint is only valid for. Stamped into
/// every checkpoint and validated field by field on load: resuming a run
/// under a different scheme, seed, architecture, codec or transport is an
/// error, not a silent divergence.
#[derive(Clone, Debug, PartialEq)]
pub struct RunStamp {
    /// Scheme name.
    pub scheme: String,
    /// Run seed.
    pub seed: u64,
    /// Configured epoch budget.
    pub epochs: u64,
    /// Number of clients `K`.
    pub clients: u64,
    /// Scalar parameter count of the model architecture.
    pub num_params: u64,
    /// Wire-codec name.
    pub codec: String,
    /// Transport name.
    pub transport: String,
    /// Aggregation interval.
    pub agg_interval: u64,
    /// Runner mode: `"dense"` (every client materialized, [`RunState`]
    /// payload) or `"fleet"` (stub pool, [`FleetRunState`] payload). Checked
    /// *before* the payload is decoded, so loading a fleet snapshot into a
    /// dense run (or vice versa) fails with a clear mismatch error instead
    /// of a garbled-state panic later.
    pub mode: String,
}

/// An upload that completed after its round's deadline, buffered until an
/// aggregation folds it with a staleness discount (or ages it out). Lives
/// in the dense runner's staleness buffer and in its checkpoints as is.
#[derive(Clone, Debug, PartialEq)]
pub struct LateUpload {
    /// The uploading client.
    pub client: usize,
    /// The decoded payload the wire delivered (codec applied).
    pub params: Vec<f32>,
    /// Value of the aggregation counter when the upload was buffered;
    /// staleness age is measured against it in aggregation rounds.
    pub seq: usize,
}

/// The DDPG agent plus the runner's reward-pending decision queue.
#[derive(Clone, Debug, PartialEq)]
pub struct AgentSnapshot {
    /// Full agent state (networks, replay, RNG, OU noise).
    pub agent: AgentState,
    /// Decisions awaiting their reward: `(state, action, decider)`.
    pub pending: Vec<(Vec<f32>, usize, usize)>,
}

/// The state both runners carry from round to round — the run ledger's
/// share of every checkpoint, encoded once ahead of the mode's own fields.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerState {
    /// Last completed epoch; resume continues at `epoch + 1`.
    pub epoch: usize,
    /// Server-held global model parameters.
    pub global: Vec<f32>,
    /// The shared runner RNG's raw stream position.
    pub rng: [u64; 4],
    /// Resource-meter consumption.
    pub meter: MeterState,
    /// Virtual clock time in seconds.
    pub clock_now: f64,
    /// Per-phase attribution of the virtual clock.
    pub phase: PhaseBreakdown,
    /// DDPG agent state (`None` for non-DRL schemes).
    pub agent: Option<AgentSnapshot>,
    /// Per-epoch records produced so far.
    pub records: Vec<EpochRecord>,
    /// Intra-LAN migrations executed.
    pub migrations_local: usize,
    /// Cross-LAN migrations executed.
    pub migrations_global: usize,
    /// Previous round's mean training loss.
    pub prev_loss: Option<f32>,
    /// Previous round's (compute, bandwidth) budget usage fractions.
    pub last_epoch_usage: (f64, f64),
    /// Most recent DRL step reward.
    pub last_step_reward: f64,
    /// Recovery accounting carried across resumes.
    pub recovery: RecoveryStats,
}

/// Everything a dense round depends on, captured after a completed epoch:
/// the ledger's share plus every materialized client and the dense
/// runner's transport, defense, diagnostics and codec state.
#[derive(Clone, Debug, PartialEq)]
pub struct RunState {
    /// The state both runners carry.
    pub ledger: LedgerState,
    /// Per-client mutable state (model, RNG, shuffled indices, counters).
    pub clients: Vec<ClientState>,
    /// Fault accounting so far.
    pub fault_stats: FaultStats,
    /// Per-client downtime EMAs.
    pub flaky: Vec<f64>,
    /// Flow-transport accumulator state.
    pub taccum: TransportAccumState,
    /// Buffered late uploads awaiting a future aggregation.
    pub late_buf: Vec<LateUpload>,
    /// Completed-aggregation counter.
    pub agg_seq: usize,
    /// Migration-quarantine state (`None` without an active adversary).
    pub quarantine: Option<QuarantineState>,
    /// Byzantine-defense accounting so far.
    pub robust_total: RobustStats,
    /// Per-client model-mixture estimates.
    pub mix: Vec<Vec<f64>>,
    /// Diagnostic training-history mixture twin.
    pub train_mix: Vec<Vec<f64>>,
    /// Wire-compressor state (error-feedback residuals, rounding counter).
    pub compressor: CompressorState,
    /// `K x K` migration-count matrix.
    pub link_migrations: Vec<u32>,
    /// Clients the watchdog excluded after implicating them in a
    /// divergence (empty in normal runs; excluded clients sit rounds out).
    pub excluded: Vec<bool>,
}

impl RunState {
    /// Encodes the state under `stamp` into the checkpoint wire format.
    pub fn to_bytes(&self, stamp: &RunStamp) -> Vec<u8> {
        encode(stamp, &self.ledger, |e| put_dense(e, self))
    }

    /// Decodes a checkpoint, validating the magic, version, CRC and every
    /// stamp field against `expect` before touching the payload. Any
    /// corruption or mismatch yields [`io::ErrorKind::InvalidData`].
    pub fn from_bytes(bytes: &[u8], expect: &RunStamp) -> io::Result<RunState> {
        decode(bytes, expect, take_dense)
    }
}

/// Everything a *fleet* round depends on, captured after a completed round.
/// Deliberately small: the fleet's per-client state lives in the dormant
/// stubs (one [`DormantState`] each — RNG stream, migration counter,
/// participation count), so a K = 100,000 checkpoint is a few megabytes,
/// not a dense `K × num_params` dump. Shares the dense checkpoint's
/// container and ledger prefix under `mode = "fleet"`.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetRunState {
    /// The state both runners carry.
    pub ledger: LedgerState,
    /// Per-client dormant state, in id order (length `K`).
    pub dormant: Vec<DormantState>,
}

impl FleetRunState {
    /// Encodes the state under `stamp` (which must carry `mode = "fleet"`)
    /// into the checkpoint wire format.
    pub fn to_bytes(&self, stamp: &RunStamp) -> Vec<u8> {
        encode(stamp, &self.ledger, |e| put_fleet(e, &self.dormant))
    }

    /// Decodes a fleet checkpoint, validating magic, version, CRC and the
    /// stamp (mode first) against `expect` before touching the payload.
    pub fn from_bytes(bytes: &[u8], expect: &RunStamp) -> io::Result<FleetRunState> {
        decode(bytes, expect, |d, ledger| Ok(FleetRunState { ledger, dormant: take_fleet(d)? }))
    }
}

/// Writes an encoded checkpoint for `epoch` into `dir` as
/// `ckpt_round_<epoch>.fmrs` plus the `latest.fmrs` alias. Each file is
/// written atomically (temp file, then rename): a crash mid-write never
/// leaves a torn checkpoint where a good one stood.
pub(crate) fn persist(dir: &Path, epoch: usize, bytes: &[u8]) -> io::Result<()> {
    let write = |path: &Path| -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)
    };
    std::fs::create_dir_all(dir)?;
    write(&dir.join(format!("ckpt_round_{epoch}.fmrs")))?;
    write(&dir.join("latest.fmrs"))
}

/// The container around every payload: magic, version, stamp, the ledger
/// prefix, the mode's fields (`put_mode`), CRC.
fn encode(stamp: &RunStamp, ledger: &LedgerState, put_mode: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc { buf: Vec::with_capacity(4096) };
    e.buf.extend_from_slice(RUN_STATE_MAGIC);
    e.u32(RUN_STATE_VERSION);
    put_stamp(&mut e, stamp);
    put_ledger(&mut e, ledger);
    put_mode(&mut e);
    let crc = crc32(&e.buf);
    e.u32(crc);
    e.buf
}

/// Opens the container, checks the stamp against `expect`, decodes the
/// ledger prefix and hands it to `take_mode` for the mode's fields.
fn decode<T>(
    bytes: &[u8],
    expect: &RunStamp,
    take_mode: impl FnOnce(&mut Dec, LedgerState) -> io::Result<T>,
) -> io::Result<T> {
    let mut d = open_container(bytes)?;
    check_stamp(&take_stamp(&mut d)?, expect)?;
    let ledger = take_ledger(&mut d)?;
    let state = take_mode(&mut d, ledger)?;
    if d.pos != d.b.len() {
        return Err(bad("trailing bytes after run checkpoint payload"));
    }
    Ok(state)
}

/// Validates magic, version and CRC, returning a decoder positioned at the
/// stamp. Shared by the dense and fleet payloads.
fn open_container(bytes: &[u8]) -> io::Result<Dec<'_>> {
    if bytes.len() < RUN_STATE_MAGIC.len() + 8 {
        return Err(bad("run checkpoint too short"));
    }
    if &bytes[..8] != RUN_STATE_MAGIC {
        return Err(bad("not a fedmigr run checkpoint (bad magic)"));
    }
    let body_len = bytes.len() - 4;
    let stored = u32::from_le_bytes(bytes[body_len..].try_into().unwrap());
    if crc32(&bytes[..body_len]) != stored {
        return Err(bad("run checkpoint checksum mismatch"));
    }
    let mut d = Dec { b: &bytes[8..body_len], pos: 0 };
    let version = d.u32()?;
    if version != RUN_STATE_VERSION {
        return Err(bad(&format!(
            "unsupported run checkpoint version {version} (expected {RUN_STATE_VERSION})"
        )));
    }
    Ok(d)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

// ---------------------------------------------------------------------------
// Encoder / decoder primitives (little-endian, length-prefixed).

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn us(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn str(&mut self, s: &str) {
        self.us(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn f32s(&mut self, xs: &[f32]) {
        self.us(xs.len());
        for &x in xs {
            self.f32(x);
        }
    }
    fn f64s(&mut self, xs: &[f64]) {
        self.us(xs.len());
        for &x in xs {
            self.f64(x);
        }
    }
    fn u64s(&mut self, xs: &[u64]) {
        self.us(xs.len());
        for &x in xs {
            self.u64(x);
        }
    }
    fn rng(&mut self, s: &[u64; 4]) {
        for &w in s {
            self.u64(w);
        }
    }
}

struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.b.len() - self.pos < n {
            return Err(bad("run checkpoint truncated"));
        }
        let out = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn us(&mut self) -> io::Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| bad("count overflows usize"))
    }
    /// A length prefix for elements of `elem` bytes each; rejected when the
    /// declared payload exceeds the remaining buffer (a corrupt length must
    /// not trigger a huge allocation).
    fn len(&mut self, elem: usize) -> io::Result<usize> {
        let n = self.us()?;
        if n.saturating_mul(elem.max(1)) > self.b.len() - self.pos {
            return Err(bad("length prefix exceeds checkpoint size"));
        }
        Ok(n)
    }
    fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn bool(&mut self) -> io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(bad("invalid bool byte")),
        }
    }
    fn str(&mut self) -> io::Result<String> {
        let n = self.len(1)?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| bad("invalid utf-8 string"))
    }
    fn f32s(&mut self) -> io::Result<Vec<f32>> {
        let n = self.len(4)?;
        (0..n).map(|_| self.f32()).collect()
    }
    fn f64s(&mut self) -> io::Result<Vec<f64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
    fn u64s(&mut self) -> io::Result<Vec<u64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }
    fn rng(&mut self) -> io::Result<[u64; 4]> {
        Ok([self.u64()?, self.u64()?, self.u64()?, self.u64()?])
    }
}

// ---------------------------------------------------------------------------
// Stamp.

fn put_stamp(e: &mut Enc, s: &RunStamp) {
    e.str(&s.scheme);
    e.u64(s.seed);
    e.u64(s.epochs);
    e.u64(s.clients);
    e.u64(s.num_params);
    e.str(&s.codec);
    e.str(&s.transport);
    e.u64(s.agg_interval);
    e.str(&s.mode);
}

fn take_stamp(d: &mut Dec) -> io::Result<RunStamp> {
    Ok(RunStamp {
        scheme: d.str()?,
        seed: d.u64()?,
        epochs: d.u64()?,
        clients: d.u64()?,
        num_params: d.u64()?,
        codec: d.str()?,
        transport: d.str()?,
        agg_interval: d.u64()?,
        mode: d.str()?,
    })
}

fn check_stamp(found: &RunStamp, expect: &RunStamp) -> io::Result<()> {
    macro_rules! field {
        ($name:ident) => {
            if found.$name != expect.$name {
                return Err(bad(&format!(
                    "run checkpoint {} mismatch: checkpoint has {:?}, run configured {:?}",
                    stringify!($name),
                    found.$name,
                    expect.$name
                )));
            }
        };
    }
    // Mode first: a fleet snapshot offered to a dense run (or vice versa)
    // should always fail with the mode message, whatever else differs.
    field!(mode);
    field!(scheme);
    field!(seed);
    field!(epochs);
    field!(clients);
    field!(num_params);
    field!(codec);
    field!(transport);
    field!(agg_interval);
    Ok(())
}

// ---------------------------------------------------------------------------
// Payload.

fn put_ledger(e: &mut Enc, s: &LedgerState) {
    e.us(s.epoch);
    e.f32s(&s.global);
    e.rng(&s.rng);
    put_meter(e, &s.meter);
    e.f64(s.clock_now);
    put_phase(e, &s.phase);
    match &s.agent {
        None => e.bool(false),
        Some(a) => {
            e.bool(true);
            put_agent(e, &a.agent);
            e.us(a.pending.len());
            for (state, action, who) in &a.pending {
                e.f32s(state);
                e.us(*action);
                e.us(*who);
            }
        }
    }
    e.us(s.records.len());
    for r in &s.records {
        put_record(e, r);
    }
    e.us(s.migrations_local);
    e.us(s.migrations_global);
    match s.prev_loss {
        None => e.bool(false),
        Some(l) => {
            e.bool(true);
            e.f32(l);
        }
    }
    e.f64(s.last_epoch_usage.0);
    e.f64(s.last_epoch_usage.1);
    e.f64(s.last_step_reward);
    put_recovery(e, &s.recovery);
}

fn take_ledger(d: &mut Dec) -> io::Result<LedgerState> {
    let epoch = d.us()?;
    let global = d.f32s()?;
    let rng = d.rng()?;
    let meter = take_meter(d)?;
    let clock_now = d.f64()?;
    let phase = take_phase(d)?;
    let agent = if d.bool()? {
        let agent = take_agent(d)?;
        let n_pending = d.len(1)?;
        let mut pending = Vec::with_capacity(n_pending);
        for _ in 0..n_pending {
            pending.push((d.f32s()?, d.us()?, d.us()?));
        }
        Some(AgentSnapshot { agent, pending })
    } else {
        None
    };
    let n_records = d.len(1)?;
    let mut records = Vec::with_capacity(n_records);
    for _ in 0..n_records {
        records.push(take_record(d)?);
    }
    Ok(LedgerState {
        epoch,
        global,
        rng,
        meter,
        clock_now,
        phase,
        agent,
        records,
        migrations_local: d.us()?,
        migrations_global: d.us()?,
        prev_loss: if d.bool()? { Some(d.f32()?) } else { None },
        last_epoch_usage: (d.f64()?, d.f64()?),
        last_step_reward: d.f64()?,
        recovery: take_recovery(d)?,
    })
}

fn put_dense(e: &mut Enc, s: &RunState) {
    e.us(s.clients.len());
    for c in &s.clients {
        e.f32s(&c.params);
        e.rng(&c.rng);
        e.us(c.indices.len());
        for &i in &c.indices {
            e.us(i);
        }
        e.us(c.migrations_received);
    }
    put_fault(e, &s.fault_stats);
    e.f64s(&s.flaky);
    put_taccum(e, &s.taccum);
    e.us(s.late_buf.len());
    for lu in &s.late_buf {
        e.us(lu.client);
        e.f32s(&lu.params);
        e.us(lu.seq);
    }
    e.us(s.agg_seq);
    match &s.quarantine {
        None => e.bool(false),
        Some(q) => {
            e.bool(true);
            e.f64s(&q.norms);
            e.f64s(&q.suspicion);
            e.us(q.rejected);
        }
    }
    put_robust(e, &s.robust_total);
    put_mat(e, &s.mix);
    put_mat(e, &s.train_mix);
    put_compressor(e, &s.compressor);
    e.us(s.link_migrations.len());
    for &m in &s.link_migrations {
        e.u32(m);
    }
    e.us(s.excluded.len());
    for &x in &s.excluded {
        e.bool(x);
    }
}

fn take_dense(d: &mut Dec, ledger: LedgerState) -> io::Result<RunState> {
    let n_clients = d.len(1)?;
    let mut clients = Vec::with_capacity(n_clients);
    for _ in 0..n_clients {
        let params = d.f32s()?;
        let rng = d.rng()?;
        let n_idx = d.len(8)?;
        let indices = (0..n_idx).map(|_| d.us()).collect::<io::Result<Vec<usize>>>()?;
        let migrations_received = d.us()?;
        clients.push(ClientState { params, rng, indices, migrations_received });
    }
    let fault_stats = take_fault(d)?;
    let flaky = d.f64s()?;
    let taccum = take_taccum(d)?;
    let n_late = d.len(1)?;
    let mut late_buf = Vec::with_capacity(n_late);
    for _ in 0..n_late {
        late_buf.push(LateUpload { client: d.us()?, params: d.f32s()?, seq: d.us()? });
    }
    let agg_seq = d.us()?;
    let quarantine = if d.bool()? {
        Some(QuarantineState { norms: d.f64s()?, suspicion: d.f64s()?, rejected: d.us()? })
    } else {
        None
    };
    let robust_total = take_robust(d)?;
    let mix = take_mat(d)?;
    let train_mix = take_mat(d)?;
    let compressor = take_compressor(d)?;
    let n_links = d.len(4)?;
    let link_migrations = (0..n_links).map(|_| d.u32()).collect::<io::Result<Vec<u32>>>()?;
    let n_excl = d.len(1)?;
    let excluded = (0..n_excl).map(|_| d.bool()).collect::<io::Result<Vec<bool>>>()?;
    Ok(RunState {
        ledger,
        clients,
        fault_stats,
        flaky,
        taccum,
        late_buf,
        agg_seq,
        quarantine,
        robust_total,
        mix,
        train_mix,
        compressor,
        link_migrations,
        excluded,
    })
}

fn put_fleet(e: &mut Enc, dormant: &[DormantState]) {
    e.us(dormant.len());
    for d in dormant {
        match &d.rng {
            None => e.bool(false),
            Some(r) => {
                e.bool(true);
                e.rng(r);
            }
        }
        e.u64(d.migrations_received);
        e.u64(d.participations);
    }
}

fn take_fleet(d: &mut Dec) -> io::Result<Vec<DormantState>> {
    let n_dormant = d.len(1)?;
    let mut dormant = Vec::with_capacity(n_dormant);
    for _ in 0..n_dormant {
        let rng = if d.bool()? { Some(d.rng()?) } else { None };
        dormant.push(DormantState { rng, migrations_received: d.u64()?, participations: d.u64()? });
    }
    Ok(dormant)
}

fn put_mat(e: &mut Enc, m: &[Vec<f64>]) {
    e.us(m.len());
    for row in m {
        e.f64s(row);
    }
}

fn take_mat(d: &mut Dec) -> io::Result<Vec<Vec<f64>>> {
    let n = d.len(8)?;
    (0..n).map(|_| d.f64s()).collect()
}

fn put_meter(e: &mut Enc, m: &MeterState) {
    put_traffic(e, &m.traffic);
    e.u64(m.overhead);
    e.f64(m.transfer_seconds);
    e.f64(m.compute_cost);
}

fn take_meter(d: &mut Dec) -> io::Result<MeterState> {
    Ok(MeterState {
        traffic: take_traffic(d)?,
        overhead: d.u64()?,
        transfer_seconds: d.f64()?,
        compute_cost: d.f64()?,
    })
}

fn put_traffic(e: &mut Enc, t: &TrafficBreakdown) {
    e.u64(t.c2s);
    e.u64(t.c2c_local);
    e.u64(t.c2c_global);
}

fn take_traffic(d: &mut Dec) -> io::Result<TrafficBreakdown> {
    Ok(TrafficBreakdown { c2s: d.u64()?, c2c_local: d.u64()?, c2c_global: d.u64()? })
}

fn put_phase(e: &mut Enc, p: &PhaseBreakdown) {
    e.f64(p.train_s);
    e.f64(p.c2s_s);
    e.f64(p.migration_s);
    e.f64(p.backoff_s);
}

fn take_phase(d: &mut Dec) -> io::Result<PhaseBreakdown> {
    Ok(PhaseBreakdown {
        train_s: d.f64()?,
        c2s_s: d.f64()?,
        migration_s: d.f64()?,
        backoff_s: d.f64()?,
    })
}

fn put_fault(e: &mut Enc, f: &FaultStats) {
    e.us(f.client_drops);
    e.us(f.stale_client_epochs);
    e.us(f.transfer_retries);
    e.us(f.rerouted_migrations);
    e.us(f.cancelled_migrations);
    e.u64(f.wasted_bytes);
    e.us(f.client_panics);
}

fn take_fault(d: &mut Dec) -> io::Result<FaultStats> {
    Ok(FaultStats {
        client_drops: d.us()?,
        stale_client_epochs: d.us()?,
        transfer_retries: d.us()?,
        rerouted_migrations: d.us()?,
        cancelled_migrations: d.us()?,
        wasted_bytes: d.u64()?,
        client_panics: d.us()?,
    })
}

fn put_robust(e: &mut Enc, r: &RobustStats) {
    e.us(r.rejected_migrations);
    e.us(r.trimmed_clients);
    e.us(r.clipped_norms);
    e.us(r.nan_uploads);
    e.u64(r.nan_batches);
}

fn take_robust(d: &mut Dec) -> io::Result<RobustStats> {
    Ok(RobustStats {
        rejected_migrations: d.us()?,
        trimmed_clients: d.us()?,
        clipped_norms: d.us()?,
        nan_uploads: d.us()?,
        nan_batches: d.u64()?,
    })
}

fn put_recovery(e: &mut Enc, r: &RecoveryStats) {
    e.us(r.checkpoints_written);
    e.u64(r.checkpoint_bytes);
    e.us(r.checkpoints_loaded);
    e.us(r.rollbacks);
    e.us(r.rounds_replayed);
}

fn take_recovery(d: &mut Dec) -> io::Result<RecoveryStats> {
    Ok(RecoveryStats {
        checkpoints_written: d.us()?,
        checkpoint_bytes: d.u64()?,
        checkpoints_loaded: d.us()?,
        rollbacks: d.us()?,
        rounds_replayed: d.us()?,
    })
}

fn put_taccum(e: &mut Enc, t: &TransportAccumState) {
    put_transport_stats(e, &t.stats);
    e.f64s(&t.queue_delays);
    e.f64s(&t.utils);
}

fn take_taccum(d: &mut Dec) -> io::Result<TransportAccumState> {
    Ok(TransportAccumState {
        stats: take_transport_stats(d)?,
        queue_delays: d.f64s()?,
        utils: d.f64s()?,
    })
}

fn put_transport_stats(e: &mut Enc, t: &TransportStats) {
    e.u64(t.flows);
    e.u64(t.failed_flows);
    e.u64(t.retransmits);
    e.u64(t.timeouts);
    e.u64(t.retransmit_bytes);
    e.f64(t.queue_delay_p50);
    e.f64(t.queue_delay_p99);
    e.f64(t.mean_link_utilization);
    e.u64(t.late_uploads);
    e.u64(t.stale_updates_folded);
    e.u64(t.stale_updates_dropped);
}

fn take_transport_stats(d: &mut Dec) -> io::Result<TransportStats> {
    Ok(TransportStats {
        flows: d.u64()?,
        failed_flows: d.u64()?,
        retransmits: d.u64()?,
        timeouts: d.u64()?,
        retransmit_bytes: d.u64()?,
        queue_delay_p50: d.f64()?,
        queue_delay_p99: d.f64()?,
        mean_link_utilization: d.f64()?,
        late_uploads: d.u64()?,
        stale_updates_folded: d.u64()?,
        stale_updates_dropped: d.u64()?,
    })
}

fn put_compressor(e: &mut Enc, c: &CompressorState) {
    put_opt_lanes(e, &c.feedback);
    put_opt_lanes(e, &c.down_feedback);
    e.u64(c.seq);
    put_compression_stats(e, &c.stats);
}

fn take_compressor(d: &mut Dec) -> io::Result<CompressorState> {
    Ok(CompressorState {
        feedback: take_opt_lanes(d)?,
        down_feedback: take_opt_lanes(d)?,
        seq: d.u64()?,
        stats: take_compression_stats(d)?,
    })
}

fn put_opt_lanes(e: &mut Enc, lanes: &Option<Vec<Vec<f32>>>) {
    match lanes {
        None => e.bool(false),
        Some(ls) => {
            e.bool(true);
            e.us(ls.len());
            for l in ls {
                e.f32s(l);
            }
        }
    }
}

fn take_opt_lanes(d: &mut Dec) -> io::Result<Option<Vec<Vec<f32>>>> {
    if !d.bool()? {
        return Ok(None);
    }
    let n = d.len(8)?;
    Ok(Some((0..n).map(|_| d.f32s()).collect::<io::Result<Vec<Vec<f32>>>>()?))
}

fn put_compression_stats(e: &mut Enc, s: &CompressionStats) {
    e.u64(s.encodes);
    e.u64(s.uncompressed_bytes);
    e.u64(s.compressed_bytes);
    e.f64(s.sum_sq_error);
    e.u64(s.coords);
    e.f64(s.residual_norm_sum);
    e.u64(s.ef_transmits);
}

fn take_compression_stats(d: &mut Dec) -> io::Result<CompressionStats> {
    Ok(CompressionStats {
        encodes: d.u64()?,
        uncompressed_bytes: d.u64()?,
        compressed_bytes: d.u64()?,
        sum_sq_error: d.f64()?,
        coords: d.u64()?,
        residual_norm_sum: d.f64()?,
        ef_transmits: d.u64()?,
    })
}

fn put_agent(e: &mut Enc, a: &AgentState) {
    e.f32s(&a.actor);
    e.f32s(&a.critic);
    e.f32s(&a.actor_target);
    e.f32s(&a.critic_target);
    put_replay(e, &a.replay);
    e.rng(&a.rng);
    match &a.ou {
        None => e.bool(false),
        Some(ou) => {
            e.bool(true);
            e.f32s(&ou.state);
            e.rng(&ou.rng);
        }
    }
    e.f64(a.rho);
    e.u64(a.updates);
    match &a.last_stats {
        None => e.bool(false),
        Some(u) => {
            e.bool(true);
            e.f64(u.mean_q);
            e.f64(u.mean_abs_td);
            e.f64(u.max_abs_td);
            e.f64(u.critic_grad_norm);
            e.f64(u.actor_grad_norm);
        }
    }
}

fn take_agent(d: &mut Dec) -> io::Result<AgentState> {
    let actor = d.f32s()?;
    let critic = d.f32s()?;
    let actor_target = d.f32s()?;
    let critic_target = d.f32s()?;
    let replay = take_replay(d)?;
    let rng = d.rng()?;
    let ou = if d.bool()? { Some(OuState { state: d.f32s()?, rng: d.rng()? }) } else { None };
    let rho = d.f64()?;
    let updates = d.u64()?;
    let last_stats = if d.bool()? {
        Some(UpdateStats {
            mean_q: d.f64()?,
            mean_abs_td: d.f64()?,
            max_abs_td: d.f64()?,
            critic_grad_norm: d.f64()?,
            actor_grad_norm: d.f64()?,
        })
    } else {
        None
    };
    Ok(AgentState {
        actor,
        critic,
        actor_target,
        critic_target,
        replay,
        rng,
        ou,
        rho,
        updates,
        last_stats,
    })
}

fn put_replay(e: &mut Enc, r: &ReplayState) {
    e.us(r.items.len());
    for t in &r.items {
        e.f32s(&t.state);
        e.us(t.action);
        e.f32(t.reward);
        e.f32s(&t.next_state);
        e.bool(t.done);
    }
    e.f64s(&r.weights);
    e.us(r.next_slot);
    e.f64(r.max_priority);
    e.u64(r.pushes);
    e.u64s(&r.inserted_at);
}

fn take_replay(d: &mut Dec) -> io::Result<ReplayState> {
    let n = d.len(1)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(Transition {
            state: d.f32s()?,
            action: d.us()?,
            reward: d.f32()?,
            next_state: d.f32s()?,
            done: d.bool()?,
        });
    }
    Ok(ReplayState {
        items,
        weights: d.f64s()?,
        next_slot: d.us()?,
        max_priority: d.f64()?,
        pushes: d.u64()?,
        inserted_at: d.u64s()?,
    })
}

fn put_record(e: &mut Enc, r: &EpochRecord) {
    e.us(r.epoch);
    e.f32(r.train_loss);
    match r.test_accuracy {
        None => e.bool(false),
        Some(a) => {
            e.bool(true);
            e.f64(a);
        }
    }
    put_traffic(e, &r.traffic);
    e.f64(r.sim_time);
    e.us(r.dropped_clients);
    e.us(r.stale_clients);
    e.us(r.rejected_migrations);
    e.u64(r.bytes_saved);
    put_phase(e, &r.phase);
    e.u64(r.retransmits);
    e.u64(r.late_uploads);
}

fn take_record(d: &mut Dec) -> io::Result<EpochRecord> {
    let epoch = d.us()?;
    let train_loss = d.f32()?;
    let test_accuracy = if d.bool()? { Some(d.f64()?) } else { None };
    Ok(EpochRecord {
        epoch,
        train_loss,
        test_accuracy,
        traffic: take_traffic(d)?,
        sim_time: d.f64()?,
        dropped_clients: d.us()?,
        stale_clients: d.us()?,
        rejected_migrations: d.us()?,
        bytes_saved: d.u64()?,
        phase: take_phase(d)?,
        retransmits: d.u64()?,
        late_uploads: d.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp() -> RunStamp {
        RunStamp {
            scheme: "FedMigr".into(),
            seed: 7,
            epochs: 40,
            clients: 2,
            num_params: 3,
            codec: "identity".into(),
            transport: "lockstep".into(),
            agg_interval: 10,
            mode: "dense".into(),
        }
    }

    fn sample_record(epoch: usize) -> EpochRecord {
        EpochRecord {
            epoch,
            train_loss: 1.25,
            test_accuracy: Some(0.5),
            traffic: TrafficBreakdown { c2s: 100, c2c_local: 50, c2c_global: 25 },
            sim_time: 12.5,
            dropped_clients: 1,
            stale_clients: 0,
            rejected_migrations: 2,
            bytes_saved: 0,
            phase: PhaseBreakdown { train_s: 6.0, c2s_s: 4.0, migration_s: 2.0, backoff_s: 0.5 },
            retransmits: 3,
            late_uploads: 1,
        }
    }

    fn sample_agent() -> AgentSnapshot {
        AgentSnapshot {
            agent: AgentState {
                actor: vec![0.1, 0.2],
                critic: vec![0.3],
                actor_target: vec![0.1, 0.2],
                critic_target: vec![0.3],
                replay: ReplayState {
                    items: vec![Transition {
                        state: vec![1.0, 0.0],
                        action: 1,
                        reward: -0.5,
                        next_state: vec![0.0, 1.0],
                        done: false,
                    }],
                    weights: vec![1.0],
                    next_slot: 1,
                    max_priority: 1.0,
                    pushes: 1,
                    inserted_at: vec![0],
                },
                rng: [13, 14, 15, 16],
                ou: Some(OuState { state: vec![0.05, -0.05], rng: [17, 18, 19, 20] }),
                rho: 0.35,
                updates: 11,
                last_stats: Some(UpdateStats {
                    mean_q: 0.2,
                    mean_abs_td: 0.1,
                    max_abs_td: 0.4,
                    critic_grad_norm: 1.1,
                    actor_grad_norm: 0.9,
                }),
            },
            pending: vec![(vec![1.0, 2.0], 0, 1)],
        }
    }

    fn sample_ledger(epoch: usize, agent: Option<AgentSnapshot>) -> LedgerState {
        LedgerState {
            epoch,
            global: vec![0.5, -1.25, 3.0],
            rng: [9, 10, 11, 12],
            meter: MeterState {
                traffic: TrafficBreakdown { c2s: 100, c2c_local: 50, c2c_global: 25 },
                overhead: 8,
                transfer_seconds: 1.5,
                compute_cost: 240.0,
            },
            clock_now: 12.5,
            phase: PhaseBreakdown { train_s: 6.0, c2s_s: 4.0, migration_s: 2.0, backoff_s: 0.5 },
            agent,
            records: vec![sample_record(epoch)],
            migrations_local: 2,
            migrations_global: 1,
            prev_loss: Some(1.25),
            last_epoch_usage: (0.1, 0.2),
            last_step_reward: -0.75,
            recovery: RecoveryStats {
                checkpoints_written: 2,
                checkpoint_bytes: 4096,
                checkpoints_loaded: 1,
                rollbacks: 0,
                rounds_replayed: 0,
            },
        }
    }

    fn sample_state() -> RunState {
        RunState {
            ledger: sample_ledger(6, Some(sample_agent())),
            clients: vec![
                ClientState {
                    params: vec![0.5, -1.0, 2.0],
                    rng: [1, 2, 3, 4],
                    indices: vec![4, 0, 2],
                    migrations_received: 1,
                },
                ClientState {
                    params: vec![-0.5, 1.0, -2.0],
                    rng: [5, 6, 7, 8],
                    indices: vec![1, 3],
                    migrations_received: 0,
                },
            ],
            fault_stats: FaultStats { client_drops: 2, client_panics: 1, ..Default::default() },
            flaky: vec![0.1, 0.0],
            taccum: TransportAccumState {
                stats: TransportStats { flows: 12, retransmits: 3, ..Default::default() },
                queue_delays: vec![0.1, 0.4],
                utils: vec![0.8],
            },
            late_buf: vec![LateUpload { client: 1, params: vec![1.0, 2.0, 3.0], seq: 2 }],
            agg_seq: 3,
            quarantine: Some(QuarantineState {
                norms: vec![1.0, 1.5],
                suspicion: vec![0.0, 0.6],
                rejected: 2,
            }),
            robust_total: RobustStats { nan_uploads: 4, ..Default::default() },
            mix: vec![vec![0.25, 0.75], vec![0.5, 0.5]],
            train_mix: vec![vec![0.3, 0.7], vec![0.6, 0.4]],
            compressor: CompressorState {
                feedback: Some(vec![vec![0.1, 0.2, 0.3], vec![0.0; 3]]),
                down_feedback: None,
                seq: 19,
                stats: CompressionStats { encodes: 19, coords: 57, ..Default::default() },
            },
            link_migrations: vec![0, 1, 2, 0],
            excluded: vec![false, true],
        }
    }

    #[test]
    fn state_round_trips_bit_for_bit() {
        let s = sample_state();
        let bytes = s.to_bytes(&stamp());
        let back = RunState::from_bytes(&bytes, &stamp()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn every_stamp_field_is_validated() {
        let s = sample_state();
        let bytes = s.to_bytes(&stamp());
        type Mutation = Box<dyn Fn(&mut RunStamp)>;
        let mutations: Vec<(&str, Mutation)> = vec![
            ("scheme", Box::new(|st| st.scheme = "FedAvg".into())),
            ("seed", Box::new(|st| st.seed = 8)),
            ("epochs", Box::new(|st| st.epochs = 41)),
            ("clients", Box::new(|st| st.clients = 3)),
            ("num_params", Box::new(|st| st.num_params = 4)),
            ("codec", Box::new(|st| st.codec = "int8+ef".into())),
            ("transport", Box::new(|st| st.transport = "flow".into())),
            ("agg_interval", Box::new(|st| st.agg_interval = 5)),
            ("mode", Box::new(|st| st.mode = "fleet".into())),
        ];
        for (name, mutate) in mutations {
            let mut wrong = stamp();
            mutate(&mut wrong);
            let err = RunState::from_bytes(&bytes, &wrong).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}");
            assert!(err.to_string().contains(name), "{name}: {err}");
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let s = sample_state();
        let bytes = s.to_bytes(&stamp());
        for pos in (0..bytes.len()).step_by(97) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            let err = RunState::from_bytes(&corrupt, &stamp()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "byte {pos}");
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let s = sample_state();
        let bytes = s.to_bytes(&stamp());
        for keep in [0, 7, 8, 12, bytes.len() / 2, bytes.len() - 1] {
            let err = RunState::from_bytes(&bytes[..keep], &stamp()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "len {keep}");
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let s = sample_state();
        let mut bytes = s.to_bytes(&stamp());
        let mut wrong_magic = bytes.clone();
        wrong_magic[..8].copy_from_slice(b"FEDMIGR1");
        assert!(RunState::from_bytes(&wrong_magic, &stamp())
            .unwrap_err()
            .to_string()
            .contains("magic"));
        // A future version must be rejected even with a valid CRC.
        bytes[8..12].copy_from_slice(&(RUN_STATE_VERSION + 1).to_le_bytes());
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        assert!(RunState::from_bytes(&bytes, &stamp())
            .unwrap_err()
            .to_string()
            .contains("version"));
    }

    fn fleet_stamp() -> RunStamp {
        RunStamp { mode: "fleet".into(), clients: 4, ..stamp() }
    }

    fn sample_fleet_state() -> FleetRunState {
        FleetRunState {
            ledger: sample_ledger(3, None),
            dormant: vec![
                DormantState { rng: Some([1, 2, 3, 4]), migrations_received: 2, participations: 3 },
                DormantState::default(),
                DormantState { rng: None, migrations_received: 0, participations: 1 },
                DormantState { rng: Some([9, 8, 7, 6]), migrations_received: 1, participations: 1 },
            ],
        }
    }

    #[test]
    fn fleet_state_round_trips_bit_for_bit() {
        let s = sample_fleet_state();
        let bytes = s.to_bytes(&fleet_stamp());
        let back = FleetRunState::from_bytes(&bytes, &fleet_stamp()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn fleet_snapshot_into_dense_run_fails_on_mode() {
        // The cross-mode guard: a fleet checkpoint offered to a dense run
        // (and vice versa) dies on the stamp's mode field with a clear
        // InvalidData message, never a payload-decode panic — even when
        // every other stamp field matches.
        let fleet_bytes = sample_fleet_state().to_bytes(&fleet_stamp());
        let dense_expect = RunStamp { mode: "dense".into(), ..fleet_stamp() };
        let err = RunState::from_bytes(&fleet_bytes, &dense_expect).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("mode mismatch"), "{err}");

        let dense_bytes = sample_state().to_bytes(&stamp());
        let fleet_expect = RunStamp { mode: "fleet".into(), ..stamp() };
        let err = FleetRunState::from_bytes(&dense_bytes, &fleet_expect).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("mode mismatch"), "{err}");
    }

    #[test]
    fn persist_writes_round_file_and_latest_alias() {
        let dir = std::env::temp_dir().join(format!("fedmigr_ckpt_test_{}", std::process::id()));
        let bytes = sample_state().to_bytes(&stamp());
        persist(&dir, 6, &bytes).unwrap();
        for name in ["ckpt_round_6.fmrs", "latest.fmrs"] {
            let on_disk = std::fs::read(dir.join(name)).unwrap();
            assert_eq!(RunState::from_bytes(&on_disk, &stamp()).unwrap(), sample_state(), "{name}");
        }
        assert!(!dir.join("latest.tmp").exists(), "the temp file is renamed away");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
