//! The run ledger: the state a round carries that both runners share, and
//! the bookkeeping both used to copy.
//!
//! [`crate::Experiment`] (dense) and [`crate::FleetExperiment`] (fleet) run
//! the same round — local update, DRL decision, migration or aggregation,
//! reward settlement — over very different client representations. What
//! they have in common lives here, once: the global model, the shared RNG,
//! the resource meter, the phased virtual clock, the DDPG context with its
//! reward-pending decisions, the per-epoch records and the migration and
//! reward counters. The ledger also owns what used to be duplicated around
//! that state: the checkpoint stamp, capture/restore of the shared
//! [`LedgerState`] checkpoint prefix, resume loading, the atomic checkpoint
//! write, reward settlement and the terminal flush, agent learning,
//! budget-usage fractions, the stop checks, the kill switch and building
//! [`RunMetrics`]. Each runner keeps only its mode-specific state beside it.

use std::io;

use fedmigr_drl::{AgentConfig, DdpgAgent, Transition};
use fedmigr_net::ResourceMeter;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checkpoint::{persist, AgentSnapshot, LedgerState, RunStamp};
use crate::metrics::{EpochRecord, RecoveryStats, RunMetrics};
use crate::reward::{step_reward, terminal_reward, RewardConfig};
use crate::runner::{PhasedClock, RunConfig};
use crate::scheme::{FedMigrConfig, Scheme};

/// The FedMigr DRL coupling: the agent plus the scheme knobs that steer it
/// and the decisions still waiting for their reward. The dense runner's
/// agent picks destination clients, the fleet's destination LANs; the
/// bookkeeping is the same.
pub(crate) struct AgentCtx {
    pub(crate) agent: DdpgAgent,
    pub(crate) fc: FedMigrConfig,
    reward: RewardConfig,
    warmup_epochs: usize,
    /// Decisions awaiting their reward: `(state, action, decider)`, where
    /// the decider indexes the next round's states.
    pending: Vec<(Vec<f32>, usize, usize)>,
}

impl AgentCtx {
    /// The agent for `cfg`'s scheme over `state_dim`-feature states and
    /// `actions` destinations; `None` unless the scheme is FedMigr.
    pub(crate) fn new(cfg: &RunConfig, state_dim: usize, actions: usize) -> Option<Self> {
        let Scheme::FedMigr(fc) = &cfg.scheme else { return None };
        let mut ac = AgentConfig::new(state_dim, actions, fc.agent_seed);
        ac.rho = fc.rho;
        ac.noise_std = 0.15;
        ac.xi = fc.replay_xi;
        Some(Self {
            agent: DdpgAgent::new(ac),
            fc: fc.clone(),
            reward: RewardConfig { upsilon: fc.upsilon, terminal_bonus: fc.terminal_bonus },
            warmup_epochs: (fc.oracle_warmup_frac * cfg.epochs as f64) as usize,
            pending: Vec::new(),
        })
    }

    /// Sets the round's exploration rate: decisions come purely from the
    /// oracle during warm-up.
    pub(crate) fn begin_decisions(&mut self, epoch: usize) {
        self.agent.set_rho(if epoch <= self.warmup_epochs { 1.0 } else { self.fc.rho });
    }

    /// Queues the executed `action` of `decider` for next round's reward;
    /// during warm-up the actor also imitates it (the paper's offline
    /// pre-training, folded into the run).
    pub(crate) fn decide(&mut self, epoch: usize, state: &[f32], action: usize, decider: usize) {
        if epoch <= self.warmup_epochs {
            self.agent.imitate(state, action);
        }
        self.pending.push((state.to_vec(), action, decider));
    }
}

/// The state both runners carry across rounds plus the run-level flags
/// and recovery accounting (see the module docs).
pub(crate) struct RunLedger<'a> {
    cfg: &'a RunConfig,
    /// Identifies the checkpoints this run writes and accepts.
    pub(crate) stamp: RunStamp,
    /// Log target of the owning runner.
    target: &'static str,
    pub(crate) global: Vec<f32>,
    pub(crate) rng: StdRng,
    pub(crate) meter: ResourceMeter,
    pub(crate) clock: PhasedClock,
    pub(crate) agent: Option<AgentCtx>,
    pub(crate) records: Vec<EpochRecord>,
    pub(crate) migrations_local: usize,
    pub(crate) migrations_global: usize,
    pub(crate) prev_loss: Option<f32>,
    last_epoch_usage: (f64, f64),
    last_step_reward: f64,
    pub(crate) recovery: RecoveryStats,
    pub(crate) budget_exhausted: bool,
    pub(crate) target_reached: bool,
    /// Set when the kill switch fired: the run stops as if it crashed.
    pub(crate) killed: bool,
    /// Meter readings (bytes, compute) at the start of the current round.
    round_base: (u64, f64),
}

impl<'a> RunLedger<'a> {
    /// A fresh ledger for `cfg` in `mode` (`"dense"`/`"fleet"`, logging as
    /// `target`) over `clients` clients, starting from the global model
    /// `global`.
    pub(crate) fn new(
        cfg: &'a RunConfig,
        (mode, target): (&str, &'static str),
        clients: usize,
        global: Vec<f32>,
        agent: Option<AgentCtx>,
    ) -> Self {
        let stamp = RunStamp {
            scheme: cfg.scheme.name(),
            seed: cfg.seed,
            epochs: cfg.epochs as u64,
            clients: clients as u64,
            num_params: global.len() as u64,
            codec: cfg.codec.name(),
            transport: cfg.transport.name().into(),
            agg_interval: cfg.agg_interval as u64,
            mode: mode.into(),
        };
        Self {
            cfg,
            stamp,
            target,
            global,
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x5851_F42D).wrapping_add(3)),
            meter: ResourceMeter::new(cfg.budget),
            clock: PhasedClock::new(),
            agent,
            records: Vec::with_capacity(cfg.epochs),
            migrations_local: 0,
            migrations_global: 0,
            prev_loss: None,
            last_epoch_usage: (0.0, 0.0),
            last_step_reward: -1.0,
            recovery: RecoveryStats::default(),
            budget_exhausted: false,
            target_reached: false,
            killed: false,
            round_base: (0, 0.0),
        }
    }

    /// The shared checkpoint prefix after epoch `epoch` completed.
    pub(crate) fn capture(&mut self, epoch: usize) -> LedgerState {
        LedgerState {
            epoch,
            global: self.global.clone(),
            rng: self.rng.state(),
            meter: self.meter.export_state(),
            clock_now: self.clock.now(),
            phase: self.clock.phase(),
            agent: self.agent.as_mut().map(|ctx| AgentSnapshot {
                agent: ctx.agent.export_state(),
                pending: ctx.pending.clone(),
            }),
            records: self.records.clone(),
            migrations_local: self.migrations_local,
            migrations_global: self.migrations_global,
            prev_loss: self.prev_loss,
            last_epoch_usage: self.last_epoch_usage,
            last_step_reward: self.last_step_reward,
            recovery: self.recovery,
        }
    }

    /// Loads a checkpoint's shared prefix, counting the load; returns the
    /// checkpoint's epoch.
    pub(crate) fn restore(&mut self, s: LedgerState) -> usize {
        assert_eq!(
            self.agent.is_some(),
            s.agent.is_some(),
            "scheme mismatch between checkpoint and run"
        );
        if let (Some(ctx), Some(snap)) = (self.agent.as_mut(), s.agent) {
            ctx.agent.import_state(snap.agent);
            ctx.pending = snap.pending;
        }
        self.global = s.global;
        self.rng = StdRng::from_state(s.rng);
        self.meter.import_state(s.meter);
        self.clock = PhasedClock::at(s.clock_now, s.phase);
        self.records = s.records;
        self.migrations_local = s.migrations_local;
        self.migrations_global = s.migrations_global;
        self.prev_loss = s.prev_loss;
        self.last_epoch_usage = s.last_epoch_usage;
        self.last_step_reward = s.last_step_reward;
        self.recovery = s.recovery;
        self.recovery.checkpoints_loaded += 1;
        s.epoch
    }

    /// Reads and decodes the `resume` checkpoint, if one is configured,
    /// returning it with its raw bytes. Panics naming the path when the
    /// file is unreadable or does not match this run's stamp.
    pub(crate) fn load_resume<S>(
        &self,
        decode: fn(&[u8], &RunStamp) -> io::Result<S>,
    ) -> Option<(S, Vec<u8>)> {
        let path = self.cfg.resume.as_deref()?;
        let bytes =
            std::fs::read(path).unwrap_or_else(|e| panic!("cannot read checkpoint {path}: {e}"));
        let state = decode(&bytes, &self.stamp)
            .unwrap_or_else(|e| panic!("cannot resume from {path}: {e}"));
        Some((state, bytes))
    }

    /// Logs a completed resume.
    pub(crate) fn log_resumed(&self, ck_epoch: usize) {
        let path = self.cfg.resume.as_deref().unwrap_or_default();
        fedmigr_telemetry::info!(
            self.target,
            "resumed from {path}: epoch {ck_epoch} restored, continuing at {}",
            ck_epoch + 1
        );
    }

    /// Counts an encoded checkpoint of `epoch` and, with a checkpoint
    /// directory configured, persists it (a failed write is logged, never
    /// fatal: the run itself is unaffected).
    pub(crate) fn write_checkpoint(&mut self, epoch: usize, bytes: &[u8]) {
        self.recovery.checkpoints_written += 1;
        self.recovery.checkpoint_bytes += bytes.len() as u64;
        if let Some(dir) = self.cfg.checkpoint_dir.as_deref() {
            if let Err(e) = persist(std::path::Path::new(dir), epoch, bytes) {
                fedmigr_telemetry::error!(
                    self.target,
                    "checkpoint write failed at epoch {epoch} in {dir}: {e}"
                );
            }
        }
    }

    /// Opens a round: remembers the meter readings its usage is measured
    /// against.
    pub(crate) fn begin_round(&mut self) {
        self.round_base = (self.meter.traffic().total(), self.meter.compute_cost());
    }

    /// Settles the previous round's pending decisions with this round's
    /// step reward (Eq. 17), observed against the fresh `states`.
    pub(crate) fn settle_rewards(&mut self, mean_loss: f32, states: Option<&[Vec<f32>]>) {
        let (Some(ctx), Some(states)) = (self.agent.as_mut(), states) else { return };
        let (cu, bu) = if ctx.fc.resource_reward { self.last_epoch_usage } else { (0.0, 0.0) };
        let reward = step_reward(
            &ctx.reward,
            self.prev_loss.map(|p| (mean_loss - p) as f64).unwrap_or(0.0),
            self.prev_loss.unwrap_or(mean_loss) as f64,
            cu,
            bu,
        );
        self.last_step_reward = reward;
        for (state, action, decider) in ctx.pending.drain(..) {
            ctx.agent.observe(Transition {
                state,
                action,
                reward: reward as f32,
                next_state: states[decider].clone(),
                done: false,
            });
        }
    }

    /// The agent's per-epoch learning updates.
    pub(crate) fn learn(&mut self) {
        if let Some(ctx) = self.agent.as_mut() {
            for _ in 0..ctx.fc.updates_per_epoch {
                ctx.agent.update();
            }
        }
    }

    /// A record of `epoch` with the ledger's traffic, virtual time and
    /// phase attribution filled in and every per-round count zero.
    pub(crate) fn record(&self, epoch: usize, train_loss: f32, acc: Option<f64>) -> EpochRecord {
        EpochRecord {
            epoch,
            train_loss,
            test_accuracy: acc,
            traffic: self.meter.traffic(),
            sim_time: self.clock.now(),
            dropped_clients: 0,
            stale_clients: 0,
            rejected_migrations: 0,
            bytes_saved: 0,
            phase: self.clock.phase(),
            retransmits: 0,
            late_uploads: 0,
        }
    }

    /// Closes a completed round: appends its record, remembers its loss
    /// for the next reward, and measures the round's share of each budget.
    pub(crate) fn end_round(&mut self, record: EpochRecord) {
        self.prev_loss = Some(record.train_loss);
        self.records.push(record);
        let budget = self.cfg.budget;
        let frac = |used: f64, cap: f64| if cap.is_finite() { used / cap } else { 0.0 };
        self.last_epoch_usage = (
            frac(self.meter.compute_cost() - self.round_base.1, budget.compute),
            frac((self.meter.traffic().total() - self.round_base.0) as f64, budget.bandwidth),
        );
    }

    /// Whether the run stops after a round that measured `accuracy`: the
    /// target accuracy was reached, or a resource budget ran out.
    pub(crate) fn should_stop(&mut self, accuracy: Option<f64>) -> bool {
        if let (Some(target), Some(acc)) = (self.cfg.target_accuracy, accuracy) {
            if acc >= target {
                self.target_reached = true;
                return true;
            }
        }
        self.budget_exhausted |= self.meter.exhausted();
        self.budget_exhausted
    }

    /// The simulated crash: whether the run must abort after `epoch`.
    pub(crate) fn kill_switch(&mut self, epoch: usize) -> bool {
        self.killed = self.cfg.kill_at == Some(epoch);
        if self.killed {
            fedmigr_telemetry::warn!(
                self.target,
                "kill switch: aborting after epoch {epoch} (simulated crash)"
            );
        }
        self.killed
    }

    /// Ends the run: the terminal transition flush (Eq. 18) and the
    /// recovery gauges, then the metrics with every mode-specific field
    /// at its default. A killed run crashed: no terminal credit — exactly
    /// the state a real crash would leave behind for resume to pick up.
    pub(crate) fn finish(mut self) -> RunMetrics {
        if let Some(ctx) = self.agent.as_mut().filter(|_| !self.killed) {
            let terminal =
                terminal_reward(&ctx.reward, self.last_step_reward, !self.budget_exhausted);
            for (state, action, _) in ctx.pending.drain(..) {
                let next_state = state.clone();
                ctx.agent.observe(Transition {
                    state,
                    action,
                    reward: terminal as f32,
                    next_state,
                    done: true,
                });
            }
        }
        let rec = self.recovery;
        if rec.any() {
            let reg = fedmigr_telemetry::global().registry();
            reg.gauge("fedmigr_recovery_checkpoints_written", &[])
                .set(rec.checkpoints_written as f64);
            reg.gauge("fedmigr_recovery_checkpoint_bytes", &[]).set(rec.checkpoint_bytes as f64);
            reg.gauge("fedmigr_recovery_checkpoints_loaded", &[])
                .set(rec.checkpoints_loaded as f64);
            reg.gauge("fedmigr_recovery_rollbacks", &[]).set(rec.rollbacks as f64);
            reg.gauge("fedmigr_recovery_rounds_replayed", &[]).set(rec.rounds_replayed as f64);
        }
        RunMetrics {
            scheme: self.stamp.scheme,
            records: self.records,
            migrations_local: self.migrations_local,
            migrations_global: self.migrations_global,
            link_migrations: Vec::new(),
            budget_exhausted: self.budget_exhausted,
            target_reached: self.target_reached,
            fault: Default::default(),
            robust: Default::default(),
            codec: self.stamp.codec,
            compression: Default::default(),
            transport: self.stamp.transport,
            transport_stats: Default::default(),
            recovery: self.recovery,
        }
    }
}
