use std::sync::Arc;

use fedmigr_compress::{CodecConfig, Compressor};
use fedmigr_data::distribution::{l1_distance, normalized_emd};
use fedmigr_data::Dataset;
use fedmigr_diag::{
    DiagConfig, DriftSnapshot, DrlSnapshot, EdgeOutcome, EmdSnapshot, FlightHeader, FlightRecorder,
    FlightSummary, GraphSnapshot, MigrationEdge, RoundRecord, FLIGHT_VERSION,
};
use fedmigr_drl::qp::FlmmRelaxation;
use fedmigr_drl::MigrationState;
use fedmigr_net::{
    simulate_c2s_traced, simulate_migrations_traced, transfer_time, transfer_time_with_latency,
    try_transfer_time_with_latency, upload_deadline, AttackConfig, AttackModel, ClientCompute,
    FaultConfig, FaultModel, FlowConfig, ResourceBudget, ResourceMeter, SimClock, Topology,
    TransportAccum, TransportConfig,
};
use fedmigr_nn::Model;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use fedmigr_telemetry::{span, warn};

use crate::aggregate::{Aggregator, StalenessPolicy};
use crate::checkpoint::{LateUpload, RunState};
use crate::client::FlClient;
use crate::ledger::{AgentCtx, RunLedger};
use crate::metrics::{EpochRecord, FaultStats, PhaseBreakdown, RobustStats, RunMetrics};
use crate::migration::{MigrationPlan, Quarantine, QuarantineConfig};
use crate::privacy::DpConfig;
use crate::scheme::{FedMigrConfig, MigrationStrategy, Scheme};
use crate::timeline_capture::TimelineCapture;

/// Configuration of one federated-learning run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The scheme to execute.
    pub scheme: Scheme,
    /// Maximum number of training epochs (one local epoch on every client
    /// per training epoch; the paper's τ = 1).
    pub epochs: usize,
    /// Global-aggregation interval in epochs for the migration-based
    /// schemes and FedSwap (the paper's `M + 1 = 50`). FedAvg/FedProx
    /// aggregate every epoch regardless.
    pub agg_interval: usize,
    /// Mini-batch size `b`.
    pub batch_size: usize,
    /// Optional cap on mini-batches per local epoch (speeds up large
    /// parameter sweeps; `None` = full local pass).
    pub max_batches_per_epoch: Option<usize>,
    /// SGD learning rate η.
    pub lr: f32,
    /// Evaluate the (shadow-)aggregated global model every this many epochs.
    pub eval_interval: usize,
    /// Computation/bandwidth budgets `B_c`, `B_b` (Eq. 16).
    pub budget: ResourceBudget,
    /// Stop as soon as an evaluation reaches this accuracy.
    pub target_accuracy: Option<f64>,
    /// Local differential privacy applied to every transmitted model.
    pub dp: Option<DpConfig>,
    /// Fraction α of clients participating each epoch (the FedAvg client
    /// sampling parameter; the paper's experiments use α = 1). Sampled
    /// uniformly without replacement every epoch; non-participants neither
    /// train nor communicate.
    pub participation: f64,
    /// Fault injection: client crashes/rejoins, stragglers, link outages
    /// and degradation. The default ([`FaultConfig::none`]) disables every
    /// fault process and is provably zero-cost (no extra randomness is
    /// consumed and no behaviour changes).
    pub fault: FaultConfig,
    /// Byzantine adversary: a seeded fraction of clients corrupts every
    /// model they transmit (uploads *and* migrations). The default
    /// ([`AttackConfig::none`]) marks nobody Byzantine and is provably
    /// zero-cost — corruption is hash-based and never consumes the run's
    /// RNG stream.
    pub attack: AttackConfig,
    /// Server-side aggregation rule. [`Aggregator::FedAvg`] (the default)
    /// is bit-identical to the pre-defense sample-weighted mean; the robust
    /// rules bound the influence of Byzantine uploads.
    pub aggregator: Aggregator,
    /// Wire codec applied to every model transfer (uploads, downloads, C2C
    /// migrations and their fallback paths). The default
    /// ([`CodecConfig::Identity`]) is byte-identical to uncompressed
    /// transfers; lossy codecs shrink every byte charge and genuinely
    /// distort the delivered models (receivers decode what the wire
    /// carried).
    pub codec: CodecConfig,
    /// How communication rounds are priced. [`TransportConfig::Lockstep`]
    /// (the default) keeps the nominal `bytes / bandwidth` accounting and
    /// stays byte-identical to the seeded baselines;
    /// [`TransportConfig::Flow`] simulates every phase's transfers as
    /// concurrent flows contending for link capacity, with
    /// timeout/retransmission state machines, per-round upload deadlines
    /// and staleness-tolerant degraded aggregation.
    pub transport: TransportConfig,
    /// How late uploads are folded into later aggregations under the flow
    /// transport. Irrelevant under lockstep (no upload is ever late).
    pub stale: StalenessPolicy,
    /// Seed for client batch order, migration randomness and DP noise.
    pub seed: u64,
    /// Learning-dynamics diagnostics (EMD/drift/DRL introspection gauges
    /// and the flight recorder). Strictly observation-only: the default
    /// ([`DiagConfig::default`]) does no work, and enabling it never
    /// consumes the run's RNG stream or touches the virtual clock, so
    /// `RunMetrics` stays byte-identical either way.
    pub diag: DiagConfig,
    /// Capture a whole-run checkpoint every this many completed epochs
    /// (`None` disables the cadence). Capturing consumes no randomness and
    /// never touches the virtual clock, so a checkpointed run stays
    /// byte-identical to an unchekpointed one.
    pub checkpoint_every: Option<usize>,
    /// Directory to persist checkpoints into (`ckpt_round_<N>.fmrs` plus a
    /// `latest.fmrs` alias). `None` keeps snapshots in memory only — still
    /// enough for the divergence watchdog to roll back within the process.
    pub checkpoint_dir: Option<String>,
    /// Resume from a checkpoint file written by a previous (killed) run of
    /// the *same* configuration. The checkpoint's stamp (scheme, seed,
    /// epochs, clients, architecture, codec, transport, aggregation
    /// interval) is validated before any state is restored; training
    /// continues at the checkpoint's epoch + 1, byte-identical to a run
    /// that was never interrupted.
    pub resume: Option<String>,
    /// Simulate a crash: stop abruptly after this epoch's bookkeeping (no
    /// terminal DRL flush, no flight-recording summary). The chaos harness
    /// uses this to exercise kill-and-resume; `None` for real runs.
    pub kill_at: Option<usize>,
    /// Divergence watchdog: roll back to the last good checkpoint when the
    /// global model goes non-finite or the round loss spikes beyond a
    /// factor of its trailing window, excluding and quarantining the
    /// implicated upload sources on retry.
    pub watchdog: WatchdogConfig,
    /// Fleet mode: lazy sharded client state for populations far beyond
    /// what the dense runner can hold ([`crate::FleetExperiment`]). `None`
    /// (the default) keeps the dense path byte-identical to the seeded
    /// baselines; `Some` is only meaningful to [`crate::FleetExperiment`] —
    /// the dense [`Experiment::run`] rejects it.
    pub fleet: Option<crate::fleet::FleetOptions>,
}

/// Configuration of the divergence watchdog (see `DESIGN.md` §11). The
/// default is disabled and provably zero-cost: no snapshots are taken, no
/// upload is screened, and the run stays byte-identical to the seed.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Master switch.
    pub enabled: bool,
    /// Declare divergence when the round's mean training loss exceeds
    /// `spike_factor` times the mean over the trailing window.
    pub spike_factor: f64,
    /// Trailing-window length (completed rounds) for the loss baseline.
    pub window: usize,
    /// Retry budget: after this many rollbacks the watchdog gives up and
    /// lets the run continue (never an infinite replay loop).
    pub max_rollbacks: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self { enabled: false, spike_factor: 4.0, window: 5, max_rollbacks: 3 }
    }
}

impl RunConfig {
    /// A configuration with evaluation-scale defaults.
    pub fn new(scheme: Scheme, epochs: usize) -> Self {
        Self {
            scheme,
            epochs,
            agg_interval: 10,
            batch_size: 32,
            max_batches_per_epoch: None,
            lr: 0.05,
            eval_interval: 10,
            budget: ResourceBudget::unlimited(),
            target_accuracy: None,
            dp: None,
            participation: 1.0,
            fault: FaultConfig::none(),
            attack: AttackConfig::none(),
            aggregator: Aggregator::FedAvg,
            codec: CodecConfig::Identity,
            transport: TransportConfig::Lockstep,
            stale: StalenessPolicy::standard(),
            seed: 7,
            diag: DiagConfig::default(),
            checkpoint_every: None,
            checkpoint_dir: None,
            resume: None,
            kill_at: None,
            watchdog: WatchdogConfig::default(),
            fleet: None,
        }
    }

    /// Checks that every option is supported by the runner this
    /// configuration selects: the dense [`Experiment`] when `fleet` is
    /// `None`, the [`crate::FleetExperiment`] otherwise. Both runners panic
    /// with this message on an invalid configuration; front ends call it
    /// first to report the problem without building anything.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let check = |ok: bool, msg: String| if ok { Ok(()) } else { Err(ConfigError(msg)) };
        check(
            self.epochs > 0 && self.agg_interval > 0 && self.eval_interval > 0,
            "epochs, agg_interval and eval_interval must be positive".into(),
        )?;
        check(
            self.participation > 0.0 && self.participation <= 1.0,
            "participation must be in (0, 1]".into(),
        )?;
        let Some(opts) = self.fleet else {
            return check(
                self.participation >= 1.0 || !matches!(self.scheme, Scheme::Fixed(_)),
                "fixed migration strategies require full participation".into(),
            );
        };
        let scheme = self.scheme.name();
        for (ok, msg) in [
            (opts.sample_frac > 0.0 && opts.sample_frac <= 1.0, "sample_frac must be in (0, 1]"),
            (opts.top_m > 0, "top_m must be positive"),
            (
                matches!(self.scheme, Scheme::FedAvg | Scheme::FedMigr(_)),
                &format!("mode supports FedAvg and FedMigr, not {scheme}"),
            ),
            (
                matches!(self.codec, CodecConfig::Identity),
                "mode requires the identity codec (per-client error-feedback residuals would \
                 scale memory with K)",
            ),
            (self.transport.name() == "lockstep", "mode requires the lockstep transport"),
            (self.fault.is_none(), "mode does not support fault injection"),
            (self.attack.is_none(), "mode does not support Byzantine attacks"),
            (self.dp.is_none(), "mode does not support differential privacy"),
            (matches!(self.aggregator, Aggregator::FedAvg), "mode requires the FedAvg aggregator"),
            (!self.watchdog.enabled, "mode does not support the divergence watchdog"),
            (
                self.participation >= 1.0,
                "mode samples via fleet.sample_frac; leave participation at 1.0",
            ),
            (
                matches!(self.scheme, Scheme::FedAvg)
                    || self.checkpoint_every.is_none_or(|n| n.is_multiple_of(self.agg_interval)),
                "checkpoints land on aggregation boundaries: checkpoint_every must be a \
                 multiple of agg_interval",
            ),
        ] {
            check(ok, format!("fleet {msg}"))?;
        }
        Ok(())
    }
}

/// A [`RunConfig`] the selected runner cannot execute; the message names
/// the offending option.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

/// A reusable experiment: datasets, partition, topology, devices and the
/// model architecture. `run` executes one scheme over this environment.
pub struct Experiment {
    train: Arc<Dataset>,
    test: Arc<Dataset>,
    partitions: Vec<Vec<usize>>,
    topology: Topology,
    compute: ClientCompute,
    template: Model,
}

impl Experiment {
    /// Builds an experiment.
    ///
    /// # Panics
    /// Panics if the partition count disagrees with the topology or device
    /// list, or any client has no data.
    pub fn new(
        train: Dataset,
        test: Dataset,
        partitions: Vec<Vec<usize>>,
        topology: Topology,
        compute: ClientCompute,
        template: Model,
    ) -> Self {
        assert_eq!(partitions.len(), topology.num_clients(), "partition/topology mismatch");
        assert_eq!(partitions.len(), compute.len(), "partition/device mismatch");
        assert!(partitions.iter().all(|p| !p.is_empty()), "every client needs data");
        Self {
            train: Arc::new(train),
            test: Arc::new(test),
            partitions,
            topology,
            compute,
            template,
        }
    }

    /// Number of clients `K`.
    pub fn num_clients(&self) -> usize {
        self.partitions.len()
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Executes `cfg` and returns the collected metrics.
    ///
    /// # Panics
    /// Panics with the [`RunConfig::validate`] message on an invalid
    /// configuration, and on a fleet configuration (build a
    /// [`crate::FleetExperiment`] for those).
    pub fn run(&self, cfg: &RunConfig) -> RunMetrics {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        assert!(
            cfg.fleet.is_none(),
            "fleet mode needs the sharded runner: build a FleetExperiment instead of a dense \
             Experiment"
        );
        let k = self.num_clients();
        fedmigr_telemetry::debug!(
            "core::runner",
            "run start: scheme={} clients={k} epochs={} agg={} seed={}",
            cfg.scheme.name(),
            cfg.epochs,
            cfg.agg_interval,
            cfg.seed
        );
        let mut template = self.template.clone();
        // One compressor per run: a residual lane per client for egress
        // transfers, seeded from the run seed (stochastic rounding never
        // consumes the shared RNG stream). Every transfer carries one full
        // model, so its wire cost is this single constant — the codec's
        // exact encoded size; under the identity codec it equals the
        // uncompressed `8 + 4n` seed format, byte for byte.
        let mut compressor = Compressor::new(&cfg.codec, k, cfg.seed);
        let model_bytes = compressor.encoded_size(template.num_params());
        let uncompressed_bytes = template.wire_bytes();
        let saved_per_transfer = uncompressed_bytes.saturating_sub(model_bytes);
        let featurizer = MigrationState::new(k);
        let agent = AgentCtx::new(cfg, featurizer.dim(), k);
        let mut ledger =
            RunLedger::new(cfg, ("dense", "core::runner"), k, template.params(), agent);

        let mut clients: Vec<FlClient> = self
            .partitions
            .iter()
            .enumerate()
            .map(|(i, part)| {
                FlClient::new(
                    i,
                    Arc::clone(&self.train),
                    part.clone(),
                    self.template.clone(),
                    cfg.lr,
                    cfg.seed.wrapping_add(1),
                )
            })
            .collect();
        // Initial distribution is one server-side encode fanned out to all
        // K clients; each installs what the wire actually carried.
        let initial = compressor.broadcast(&ledger.global);
        for c in &mut clients {
            c.set_params(&initial, false);
        }
        let total_n: f64 = clients.iter().map(|c| c.num_samples() as f64).sum();

        let fault = FaultModel::new(cfg.fault.clone(), k);
        // Flow-transport state. `flow_cfg == None` keeps every code path
        // below on the lockstep accounting, byte-identical to the seeded
        // baselines.
        let flow_cfg = cfg.transport.flow_config();

        let attack = AttackModel::new(cfg.attack.clone(), k);
        if attack.flips_labels() {
            let num_classes = clients[0].label_dist().len();
            let map = fedmigr_data::flip_label_map(num_classes);
            for (i, c) in clients.iter_mut().enumerate() {
                if attack.is_byzantine(i) {
                    c.set_label_map(map.clone());
                }
            }
        }

        let dists: Vec<Vec<f64>> = clients.iter().map(|c| c.label_dist().to_vec()).collect();
        let population: Vec<f64> = {
            let mut p = vec![0.0f64; dists[0].len()];
            for (q, c) in dists.iter().zip(&clients) {
                let w = c.num_samples() as f64 / total_n;
                for (pi, qi) in p.iter_mut().zip(q) {
                    *pi += w * qi;
                }
            }
            p
        };
        // The distance matrix D_t the DRL state and oracle use is
        // `d_t[i][j] = ||mix_i - q_j||_1` over the model mixtures (see
        // `DenseState::mix`) — "the differences of data distributions
        // among the clients after t epochs" (Sec. III-C): migrating a model
        // towards data it has not seen recently is what shrinks its
        // divergence (Eq. 13).
        const MIX_ALPHA: f64 = 0.3;
        let distance_matrix = |mix: &[Vec<f64>]| -> Vec<Vec<f64>> {
            mix.iter().map(|m| dists.iter().map(|q| l1_distance(m, q)).collect()).collect()
        };
        let mut dense = DenseState {
            clients,
            compressor,
            fault_stats: FaultStats::default(),
            flaky: vec![0.0; k],
            taccum: TransportAccum::new(),
            late_buf: Vec::new(),
            agg_seq: 0,
            // The migration quarantine exists only under an active
            // adversary: a benign run must stay byte-identical to the
            // pre-defense path, and screening benign migrations risks false
            // positives for nothing.
            quarantine: attack.enabled().then(|| Quarantine::new(QuarantineConfig::default(), k)),
            robust_total: RobustStats::default(),
            mix: dists.clone(),
            train_mix: dists.clone(),
            link_migrations: vec![0; k * k],
            excluded: vec![false; k],
        };

        // Round-timeline capture (`--timeline-out`): observation-only and
        // inert without a path. A resumed run restarts the timeline file
        // from scratch; unlike the flight recording there is nothing to
        // splice — the file stands alone and the validator only needs the
        // header plus monotone rounds from wherever it begins.
        let mut tcap = TimelineCapture::new(
            cfg.diag.timeline_out.as_deref(),
            "dense",
            &cfg.scheme.name(),
            cfg.transport.name(),
            k,
            cfg.seed,
            false,
        );

        // Initial model distribution: server -> K clients over the WAN.
        // On the timeline this is "round 0": the seed broadcast.
        tcap.round_start(0, ledger.clock.now());
        if let Some(fc) = flow_cfg {
            // K concurrent downloads contend for the WAN. Every client was
            // already seeded with the initial parameters above; a failed
            // download only changes the round's cost accounting.
            let everyone = vec![true; k];
            self.flow_download_phase(
                fc,
                &fault,
                0,
                &everyone,
                model_bytes,
                &mut ledger.meter,
                &mut ledger.clock,
                &mut dense.taccum,
                &mut tcap,
            );
        } else {
            ledger.meter.record_c2s(k as u64 * model_bytes);
            let t0 = ledger.clock.now();
            let adv = k as f64
                * transfer_time_with_latency(
                    model_bytes,
                    self.topology.c2s_bandwidth(0),
                    self.topology.c2s_latency(),
                );
            ledger.clock.advance(VPhase::C2s, adv);
            if tcap.active() {
                for i in 0..k {
                    tcap.upload(i, t0, adv, adv, false);
                }
            }
        }
        tcap.round_end(ledger.clock.now());

        // Learning-dynamics diagnostics (observation-only: nothing below
        // may consume `rng` or advance `clock`). The wall-time histogram
        // family is cumulative per process, so the hotspot log at run end
        // diffs against this run-start snapshot.
        let diag_on = cfg.diag.active();
        let phase_wall_baseline = phase_seconds_snapshot();

        // --- Crash-safety machinery (DESIGN.md §11) -----------------------
        // All of it is provably zero-cost when disabled: capturing a
        // snapshot consumes no randomness and never touches the clock, the
        // exclusion mask starts all-false, and NaN-source tracking only
        // runs under the watchdog.
        let watchdog_on = cfg.watchdog.enabled;
        // Which clients transmitted a non-finite payload since the last
        // good snapshot — the sources a rollback implicates.
        let mut nan_sources = vec![false; k];
        let mut last_good: Option<(usize, Vec<u8>)> = None;
        let mut start_epoch = 1usize;
        if let Some((state, bytes)) = ledger.load_resume(RunState::from_bytes) {
            let ck_epoch = dense.restore(&mut ledger, state);
            ledger.log_resumed(ck_epoch);
            last_good = Some((ck_epoch, bytes));
            start_epoch = ck_epoch + 1;
        } else if watchdog_on {
            // The watchdog always has somewhere to roll back to: a pristine
            // epoch-0 snapshot covers divergence in the very first round.
            last_good = Some((0, dense.snapshot(&mut ledger, 0)));
        }

        let mut flight = match cfg.diag.flight_out.as_deref() {
            Some(path) if start_epoch > 1 => {
                // Resuming: keep the recording's header and the rounds the
                // checkpoint covers, byte for byte, and append from there.
                match FlightRecorder::resume(path, start_epoch - 1) {
                    Ok(rec) => Some(rec),
                    Err(e) => {
                        fedmigr_telemetry::error!(
                            "core::diag",
                            "cannot resume flight recording {path}: {e}; recording disabled"
                        );
                        None
                    }
                }
            }
            Some(path) => match FlightRecorder::create(path) {
                Ok(mut rec) => {
                    let header = FlightHeader {
                        version: FLIGHT_VERSION,
                        scheme: cfg.scheme.name(),
                        clients: k,
                        epochs: cfg.epochs,
                        seed: cfg.seed,
                        agg_interval: cfg.agg_interval,
                        codec: cfg.codec.name(),
                    };
                    match rec.header(&header) {
                        Ok(()) => Some(rec),
                        Err(e) => {
                            fedmigr_telemetry::error!(
                                "core::diag",
                                "flight header write failed for {path}: {e}; recording disabled"
                            );
                            None
                        }
                    }
                }
                Err(e) => {
                    fedmigr_telemetry::error!(
                        "core::diag",
                        "cannot open flight recording {path}: {e}; recording disabled"
                    );
                    None
                }
            },
            None => None,
        };

        // A round's record with the dense runner's transport counters and
        // the codec's saving filled in. Every meter charge is a whole number
        // of model transfers, so the cumulative wire-level saving is exact.
        let dense_record =
            |ledger: &RunLedger, taccum: &TransportAccum, epoch, loss, acc| EpochRecord {
                bytes_saved: (ledger.meter.traffic().total() / model_bytes) * saved_per_transfer,
                retransmits: taccum.retransmits(),
                late_uploads: taccum.late_uploads(),
                ..ledger.record(epoch, loss, acc)
            };
        let mut epoch = start_epoch;
        // Attributes kernel FLOP/byte/time deltas to the phase that just
        // closed; cheap no-op when accounting is off.
        let mut kphases = crate::kernels::KernelPhases::new();
        'run: while epoch <= cfg.epochs {
            // The labeled block is the round body; the shared epilogue
            // below it (snapshot capture, kill switch, epoch increment)
            // runs on every path that completes the round.
            'round: {
                let _round = fedmigr_telemetry::global().span_labeled(
                    "core::runner",
                    "round",
                    vec![
                        ("epoch".to_string(), epoch.to_string()),
                        ("scheme".to_string(), cfg.scheme.name()),
                    ],
                );
                tcap.round_start(epoch, ledger.clock.now());
                ledger.begin_round();
                let mut robust_epoch = RobustStats::default();
                // Diagnostics accumulators: the round's migration edge list and
                // executed source map (identity on non-migration rounds).
                let mut round_edges: Vec<MigrationEdge> = Vec::new();
                let mut round_src_of: Vec<usize> = (0..k).collect();

                // Sample the participating clients for this epoch (α K of K),
                // then intersect with the fault schedule: crashed clients
                // neither train nor communicate until they rejoin.
                let mut active: Vec<bool> = if cfg.participation >= 1.0 {
                    vec![true; k]
                } else {
                    let n_active = ((cfg.participation * k as f64).ceil() as usize).clamp(1, k);
                    let mut order: Vec<usize> = (0..k).collect();
                    order.shuffle(&mut ledger.rng);
                    let mut mask = vec![false; k];
                    for &i in order.iter().take(n_active) {
                        mask[i] = true;
                    }
                    mask
                };
                let alive: Vec<bool> = (0..k).map(|i| fault.is_alive(i, epoch)).collect();
                for (a, &up) in active.iter_mut().zip(&alive) {
                    *a = *a && up;
                }
                // Clients the watchdog implicated in a divergence sit rounds
                // out. All-false in normal runs: a no-op, bit for bit.
                for (a, &ex) in active.iter_mut().zip(&dense.excluded) {
                    *a = *a && !ex;
                }
                let dropped = alive.iter().filter(|&&up| !up).count();
                dense.fault_stats.client_drops += dropped;
                for (f, &up) in dense.flaky.iter_mut().zip(&alive) {
                    *f = 0.9 * *f + if up { 0.0 } else { 0.1 };
                }
                if active.iter().all(|&a| !a) {
                    // The entire population is down (or sampled out): the round
                    // is a no-op, but the run survives it.
                    let loss = ledger.prev_loss.unwrap_or(0.0);
                    let r = dense_record(&ledger, &dense.taccum, epoch, loss, None);
                    ledger.records.push(EpochRecord { dropped_clients: dropped, ..r });
                    tcap.round_end(ledger.clock.now());
                    break 'round;
                }

                // (1) Local updating (Eq. 6), clients in parallel.
                let train_span = span!("core::runner", "local_train");
                let prox = match cfg.scheme {
                    Scheme::FedProx { mu } => Some((ledger.global.clone(), mu)),
                    _ => None,
                };
                let (losses, panicked) =
                    train_all(&mut dense.clients, cfg, prox.as_ref(), &active, &fault, epoch);
                for (i, &p) in panicked.iter().enumerate() {
                    if p {
                        // A panicking client is a crashed client for this
                        // round: no loss, no upload, no mix update. The run
                        // survives it.
                        active[i] = false;
                        dense.fault_stats.client_panics += 1;
                    }
                }
                robust_epoch.nan_batches +=
                    dense.clients.iter_mut().map(|c| c.take_non_finite_batches()).sum::<u64>();
                for (i, (m, q)) in dense.mix.iter_mut().zip(&dists).enumerate() {
                    if !active[i] {
                        continue;
                    }
                    for (mi, qi) in m.iter_mut().zip(q) {
                        *mi = (1.0 - MIX_ALPHA) * *mi + MIX_ALPHA * qi;
                    }
                }
                if diag_on {
                    for (i, (m, q)) in dense.train_mix.iter_mut().zip(&dists).enumerate() {
                        if !active[i] {
                            continue;
                        }
                        for (mi, qi) in m.iter_mut().zip(q) {
                            *mi = (1.0 - MIX_ALPHA) * *mi + MIX_ALPHA * qi;
                        }
                    }
                }
                let dmat = distance_matrix(&dense.mix);
                let mut times = Vec::with_capacity(k);
                let mut per_client_time = vec![0.0f64; k];
                for (i, c) in dense.clients.iter().enumerate() {
                    if !active[i] {
                        continue;
                    }
                    let samples = effective_samples(c.num_samples(), cfg);
                    ledger.meter.record_compute(self.compute.epoch_cost(i, samples));
                    let t = self.compute.epoch_time_slowed(i, samples, fault.slowdown(i, epoch));
                    per_client_time[i] = t;
                    times.push(t);
                }
                // Straggler deadline: the server waits at most a configured
                // multiple of the *median* round time; later arrivals trained
                // (and burned compute) but miss this round's communication.
                let mut arrived = active.clone();
                let mut stale = 0usize;
                let round_time = times.iter().fold(0.0f64, |a, &b| a.max(b));
                let train_t0 = ledger.clock.now();
                let train_adv = match fault.deadline(median(&times)) {
                    Some(deadline) => {
                        for i in 0..k {
                            if active[i] && per_client_time[i] > deadline {
                                arrived[i] = false;
                                stale += 1;
                            }
                        }
                        round_time.min(deadline)
                    }
                    None => round_time,
                };
                ledger.clock.advance(VPhase::Train, train_adv);
                if tcap.active() {
                    for i in (0..k).filter(|&i| active[i]) {
                        tcap.train(
                            i,
                            train_t0,
                            train_t0 + per_client_time[i],
                            train_t0 + train_adv,
                        );
                    }
                }
                let active_n: f32 = dense
                    .clients
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| active[i])
                    .map(|(_, c)| c.num_samples() as f32)
                    .sum();
                let mean_loss = dense
                    .clients
                    .iter()
                    .zip(&losses)
                    .filter_map(|(c, l)| l.map(|l| l * (c.num_samples() as f32 / active_n)))
                    .sum::<f32>();
                let _ = total_n;
                drop(train_span);
                kphases.credit("local_train");

                // (2) Build decision states and settle last epoch's transitions.
                let decision_span = span!("core::runner", "decision");
                let suspicion: Vec<f64> = match &dense.quarantine {
                    Some(q) => q.suspicion().to_vec(),
                    None => vec![0.0; k],
                };
                let states: Option<Vec<Vec<f32>>> = ledger.agent.as_ref().map(|_| {
                    (0..k)
                        .map(|i| {
                            featurizer.build_with_health(
                                epoch as f64 / cfg.epochs as f64,
                                mean_loss as f64,
                                ledger
                                    .prev_loss
                                    .map(|p| ((mean_loss - p) / p.max(1e-6)) as f64)
                                    .unwrap_or(0.0),
                                ledger.meter.bandwidth_remaining_frac(),
                                ledger.meter.compute_remaining_frac(),
                                &dmat[i],
                                &alive,
                                &suspicion,
                            )
                        })
                        .collect()
                });
                ledger.settle_rewards(mean_loss, states.as_deref());
                drop(decision_span);
                kphases.credit("decision");

                // (3) Communication: aggregation, server-side swap, or C2C
                //     migration, depending on the scheme and epoch.
                let comm_span = span!("core::runner", "communicate");
                let is_agg = match cfg.scheme {
                    Scheme::FedAvg | Scheme::FedProx { .. } => true,
                    Scheme::FedAsync { .. } => false,
                    _ => epoch.is_multiple_of(cfg.agg_interval),
                };
                if let Scheme::FedAsync { beta } = cfg.scheme {
                    // One participating client uploads; the server mixes its
                    // model into the global model and sends the result back.
                    let candidates: Vec<usize> = (0..k).filter(|&i| arrived[i]).collect();
                    let uploader = candidates.first().map(|_| candidates[epoch % candidates.len()]);
                    let synced = match uploader {
                        Some(u) => {
                            let mut only = vec![false; k];
                            only[u] = true;
                            let reach = c2s_reachable(
                                &fault,
                                &only,
                                epoch,
                                model_bytes,
                                &mut ledger.clock,
                                &mut dense.fault_stats,
                            );
                            match (flow_cfg, reach[u]) {
                                (Some(fc), true) => {
                                    // A lone flow can still strike out on a
                                    // flapped or collapsed access link; it can
                                    // never be late (the deadline is a multiple
                                    // of its own finish time).
                                    let up = self.flow_upload_phase(
                                        fc,
                                        &fault,
                                        epoch,
                                        &reach,
                                        model_bytes,
                                        &mut ledger.meter,
                                        &mut ledger.clock,
                                        &mut dense.taccum,
                                        &mut dense.fault_stats,
                                        &mut tcap,
                                    );
                                    up.on_time[u]
                                }
                                (_, reached) => reached,
                            }
                        }
                        None => false,
                    };
                    if let (Some(uploader), true) = (uploader, synced) {
                        if flow_cfg.is_none() {
                            ledger.meter.record_c2s(2 * model_bytes);
                            let t0 = ledger.clock.now();
                            let adv = 2.0
                                * transfer_time_with_latency(
                                    model_bytes,
                                    self.topology.c2s_bandwidth(epoch),
                                    self.topology.c2s_latency(),
                                );
                            ledger.clock.advance(VPhase::C2s, adv);
                            tcap.upload(uploader, t0, adv, adv, false);
                        }
                        let mut upload = dense.clients[uploader].params();
                        if let Some(dp) = &cfg.dp {
                            dp.apply(&mut upload, &mut ledger.rng);
                        }
                        attack.corrupt_upload(uploader, epoch, &mut upload);
                        if watchdog_on && !fedmigr_tensor::all_finite(&upload) {
                            nan_sources[uploader] = true;
                        }
                        // The server sees what the wire carried: codec distortion
                        // (and preserved NaN corruption) lands on the decoded
                        // payload, with the uploader's error-feedback residual
                        // applied on egress.
                        let upload = dense.compressor.transmit(uploader, &upload);
                        // FedAsync has no multi-upload round to robustify, but
                        // a non-finite upload is still screened out whenever a
                        // robust aggregator is configured.
                        let usable = cfg.aggregator == Aggregator::FedAvg
                            || fedmigr_tensor::all_finite(&upload);
                        if !usable {
                            robust_epoch.nan_uploads += 1;
                            robust_epoch.trimmed_clients += 1;
                        }
                        if usable {
                            for (g, u) in ledger.global.iter_mut().zip(&upload) {
                                *g = (1.0 - beta) * *g + beta * u;
                            }
                        }
                        let down = dense.compressor.transmit_down(uploader, &ledger.global);
                        let delivered = match flow_cfg {
                            Some(fc) => {
                                let mut rx = vec![false; k];
                                rx[uploader] = true;
                                self.flow_download_phase(
                                    fc,
                                    &fault,
                                    epoch,
                                    &rx,
                                    model_bytes,
                                    &mut ledger.meter,
                                    &mut ledger.clock,
                                    &mut dense.taccum,
                                    &mut tcap,
                                )[uploader]
                            }
                            None => true,
                        };
                        if delivered {
                            dense.clients[uploader].set_params(&down, false);
                            dense.mix[uploader].clone_from(&population);
                        }
                    } else if uploader.is_some() {
                        // The uploader never reached the server this epoch.
                        stale += 1;
                    }
                } else if cfg.scheme.uploads_every_epoch() {
                    // Participating models go to the server (uploads +
                    // downloads) — those that can reach it; WAN outages retry
                    // with backoff and drop out of the round if they never get
                    // through.
                    let synced = c2s_reachable(
                        &fault,
                        &arrived,
                        epoch,
                        model_bytes,
                        &mut ledger.clock,
                        &mut dense.fault_stats,
                    );
                    stale += arrived.iter().zip(&synced).filter(|&(&a, &s)| a && !s).count();
                    let n_synced = synced.iter().filter(|&&s| s).count() as u64;
                    // Which uploads made the round, and at what cost, depends
                    // on the transport: lockstep prices every synced transfer
                    // serially at nominal bandwidth; the flow transport races
                    // concurrent uploads against a per-round deadline.
                    let mut on_time = synced.clone();
                    let mut late = vec![false; k];
                    if let Some(fc) = flow_cfg {
                        let up = self.flow_upload_phase(
                            fc,
                            &fault,
                            epoch,
                            &synced,
                            model_bytes,
                            &mut ledger.meter,
                            &mut ledger.clock,
                            &mut dense.taccum,
                            &mut dense.fault_stats,
                            &mut tcap,
                        );
                        stale += up.failed;
                        on_time = up.on_time;
                        late = up.late;
                    } else {
                        ledger.meter.record_c2s(2 * n_synced * model_bytes);
                        let t0 = ledger.clock.now();
                        let adv = 2.0
                            * n_synced as f64
                            * transfer_time_with_latency(
                                model_bytes,
                                self.topology.c2s_bandwidth(epoch),
                                self.topology.c2s_latency(),
                            );
                        ledger.clock.advance(VPhase::C2s, adv);
                        if tcap.active() {
                            // Lockstep serializes the transfers: one coarse
                            // upload interval per synced client spanning the
                            // whole window.
                            for i in (0..k).filter(|&i| synced[i]) {
                                tcap.upload(i, t0, adv, adv, false);
                            }
                        }
                    }
                    let mut uploads =
                        collect_params(&mut dense.clients, cfg, &attack, epoch, &mut ledger.rng);
                    if watchdog_on {
                        for (n, up) in nan_sources.iter_mut().zip(&uploads) {
                            *n |= !fedmigr_tensor::all_finite(up);
                        }
                    }
                    // Only the clients whose bytes actually crossed the wire see
                    // the codec (error-feedback on client egress). A late upload
                    // bound for a future aggregation was genuinely transmitted.
                    // Lanes are per-client and therefore distinct, so the batch
                    // encode parallelizes while staying byte-identical to the
                    // serial per-client loop.
                    let sel: Vec<usize> =
                        (0..k).filter(|&i| on_time[i] || (late[i] && is_agg)).collect();
                    let items: Vec<(usize, Vec<f32>)> =
                        sel.iter().map(|&i| (i, std::mem::take(&mut uploads[i]))).collect();
                    for (&i, dec) in sel.iter().zip(dense.compressor.transmit_batch(items)) {
                        uploads[i] = dec;
                    }
                    for i in (0..k).filter(|&i| late[i] && is_agg) {
                        dense.late_buf.push(LateUpload {
                            client: i,
                            params: uploads[i].clone(),
                            seq: dense.agg_seq,
                        });
                    }
                    if is_agg {
                        if let Some(fc) = flow_cfg {
                            // Degraded aggregation: fold what arrived on time
                            // plus discounted stale uploads from earlier rounds.
                            // A round with zero on-time uploads can still make
                            // progress from the stale buffer alone.
                            let n_eff = on_time.iter().filter(|&&s| s).count();
                            if n_eff > 0 || !dense.late_buf.is_empty() {
                                let _agg = span!("core::runner", "aggregate");
                                if let Some(g) = aggregate_with_late(
                                    &dense.clients,
                                    &uploads,
                                    &on_time,
                                    &cfg.aggregator,
                                    &ledger.global,
                                    &mut robust_epoch,
                                    &mut dense.late_buf,
                                    dense.agg_seq,
                                    &cfg.stale,
                                    &mut dense.taccum,
                                ) {
                                    ledger.global = g;
                                    dense.agg_seq += 1;
                                    let delivered = self.flow_download_phase(
                                        fc,
                                        &fault,
                                        epoch,
                                        &on_time,
                                        model_bytes,
                                        &mut ledger.meter,
                                        &mut ledger.clock,
                                        &mut dense.taccum,
                                        &mut tcap,
                                    );
                                    if delivered.iter().any(|&d| d) {
                                        let down = dense.compressor.broadcast(&ledger.global);
                                        for (i, c) in dense.clients.iter_mut().enumerate() {
                                            if delivered[i] {
                                                c.set_params(&down, false);
                                                dense.mix[i].clone_from(&population);
                                            }
                                        }
                                    }
                                }
                            }
                        } else if n_synced > 0 {
                            let _agg = span!("core::runner", "aggregate");
                            ledger.global = aggregate_active(
                                &dense.clients,
                                &uploads,
                                &synced,
                                &cfg.aggregator,
                                &ledger.global,
                                &mut robust_epoch,
                            );
                            // One aggregated payload fans out to every synced
                            // client: a single server-side encode.
                            let down = dense.compressor.broadcast(&ledger.global);
                            for (i, c) in dense.clients.iter_mut().enumerate() {
                                if synced[i] {
                                    c.set_params(&down, false);
                                    dense.mix[i].clone_from(&population);
                                }
                            }
                        }
                    } else {
                        // FedSwap: the server swaps models "between any two of
                        // all clients" — a few random disjoint pairs per round,
                        // so mixing is slower than a full migration permutation.
                        // Unsynced clients never uploaded: the plan leaves them
                        // fixed and they re-install their local copy wire-free,
                        // while each synced client's (possibly swapped) model
                        // comes back down through the codec as a distinct
                        // server-egress payload. Under the flow transport a
                        // late upload simply sits the swap out.
                        let plan = swap_pairs_plan(&on_time, k.div_ceil(4), &mut ledger.rng);
                        uploads = plan.apply(&uploads);
                        dense.mix = plan.apply(&dense.mix);
                        if diag_on {
                            dense.train_mix = plan.apply(&dense.train_mix);
                        }
                        if let Some(fc) = flow_cfg {
                            // Price the return leg at flow cost (contention,
                            // retransmits). Delivery itself stays unconditional
                            // for this baseline: partial swap delivery is not
                            // modelled.
                            self.flow_download_phase(
                                fc,
                                &fault,
                                epoch,
                                &on_time,
                                model_bytes,
                                &mut ledger.meter,
                                &mut ledger.clock,
                                &mut dense.taccum,
                                &mut tcap,
                            );
                        }
                        for (i, c) in dense.clients.iter_mut().enumerate() {
                            let p = if on_time[i] {
                                dense.compressor.transmit_down(i, &uploads[i])
                            } else {
                                uploads[i].clone()
                            };
                            c.set_params(&p, plan.dest(i) != i);
                        }
                    }
                } else if is_agg {
                    let synced = c2s_reachable(
                        &fault,
                        &arrived,
                        epoch,
                        model_bytes,
                        &mut ledger.clock,
                        &mut dense.fault_stats,
                    );
                    stale += arrived.iter().zip(&synced).filter(|&(&a, &s)| a && !s).count();
                    let n_synced = synced.iter().filter(|&&s| s).count() as u64;
                    let mut on_time = synced.clone();
                    let mut late = vec![false; k];
                    if let Some(fc) = flow_cfg {
                        let up = self.flow_upload_phase(
                            fc,
                            &fault,
                            epoch,
                            &synced,
                            model_bytes,
                            &mut ledger.meter,
                            &mut ledger.clock,
                            &mut dense.taccum,
                            &mut dense.fault_stats,
                            &mut tcap,
                        );
                        stale += up.failed;
                        on_time = up.on_time;
                        late = up.late;
                    } else {
                        ledger.meter.record_c2s(2 * n_synced * model_bytes);
                        let t0 = ledger.clock.now();
                        let adv = 2.0
                            * n_synced as f64
                            * transfer_time_with_latency(
                                model_bytes,
                                self.topology.c2s_bandwidth(epoch),
                                self.topology.c2s_latency(),
                            );
                        ledger.clock.advance(VPhase::C2s, adv);
                        if tcap.active() {
                            // Lockstep serializes the transfers: one coarse
                            // upload interval per synced client spanning the
                            // whole window.
                            for i in (0..k).filter(|&i| synced[i]) {
                                tcap.upload(i, t0, adv, adv, false);
                            }
                        }
                    }
                    let mut uploads =
                        collect_params(&mut dense.clients, cfg, &attack, epoch, &mut ledger.rng);
                    if watchdog_on {
                        for (n, up) in nan_sources.iter_mut().zip(&uploads) {
                            *n |= !fedmigr_tensor::all_finite(up);
                        }
                    }
                    let sel: Vec<usize> = (0..k).filter(|&i| on_time[i] || late[i]).collect();
                    let items: Vec<(usize, Vec<f32>)> =
                        sel.iter().map(|&i| (i, std::mem::take(&mut uploads[i]))).collect();
                    for (&i, dec) in sel.iter().zip(dense.compressor.transmit_batch(items)) {
                        uploads[i] = dec;
                    }
                    for i in (0..k).filter(|&i| late[i]) {
                        dense.late_buf.push(LateUpload {
                            client: i,
                            params: uploads[i].clone(),
                            seq: dense.agg_seq,
                        });
                    }
                    if let Some(fc) = flow_cfg {
                        let n_eff = on_time.iter().filter(|&&s| s).count();
                        if n_eff > 0 || !dense.late_buf.is_empty() {
                            let _agg = span!("core::runner", "aggregate");
                            if let Some(g) = aggregate_with_late(
                                &dense.clients,
                                &uploads,
                                &on_time,
                                &cfg.aggregator,
                                &ledger.global,
                                &mut robust_epoch,
                                &mut dense.late_buf,
                                dense.agg_seq,
                                &cfg.stale,
                                &mut dense.taccum,
                            ) {
                                ledger.global = g;
                                dense.agg_seq += 1;
                                let delivered = self.flow_download_phase(
                                    fc,
                                    &fault,
                                    epoch,
                                    &on_time,
                                    model_bytes,
                                    &mut ledger.meter,
                                    &mut ledger.clock,
                                    &mut dense.taccum,
                                    &mut tcap,
                                );
                                if delivered.iter().any(|&d| d) {
                                    let down = dense.compressor.broadcast(&ledger.global);
                                    for (i, c) in dense.clients.iter_mut().enumerate() {
                                        if delivered[i] {
                                            c.set_params(&down, false);
                                            dense.mix[i].clone_from(&population);
                                        }
                                    }
                                }
                            }
                        }
                    } else if n_synced > 0 {
                        let _agg = span!("core::runner", "aggregate");
                        ledger.global = aggregate_active(
                            &dense.clients,
                            &uploads,
                            &synced,
                            &cfg.aggregator,
                            &ledger.global,
                            &mut robust_epoch,
                        );
                        let down = dense.compressor.broadcast(&ledger.global);
                        for (i, c) in dense.clients.iter_mut().enumerate() {
                            if synced[i] {
                                c.set_params(&down, false);
                                dense.mix[i].clone_from(&population);
                            }
                        }
                    }
                } else {
                    // C2C migration epoch. Every planner is masked to the
                    // clients that are live *and* made this round's deadline,
                    // so plans never target a dead destination.
                    let plan_span = span!("core::runner", "migration_plan");
                    let plan = match (&cfg.scheme, states.as_ref()) {
                        (Scheme::RandMigr, _) | (Scheme::Fixed(MigrationStrategy::Random), _) => {
                            MigrationPlan::random_subset(k, &arrived, &mut ledger.rng)
                        }
                        (Scheme::Fixed(MigrationStrategy::WithinLan), _) => {
                            MigrationPlan::within_lan_masked(
                                &self.topology,
                                &arrived,
                                &mut ledger.rng,
                            )
                        }
                        (Scheme::Fixed(MigrationStrategy::CrossLan), _) => {
                            MigrationPlan::cross_lan_masked(
                                &self.topology,
                                &arrived,
                                &mut ledger.rng,
                            )
                        }
                        (Scheme::FedMigr(_), Some(states)) => {
                            let ctx = ledger.agent.as_mut().expect("FedMigr context");
                            ctx.begin_decisions(epoch);
                            let (oracle, objective) = self.solve_oracle(
                                &dmat,
                                model_bytes,
                                epoch,
                                &ctx.fc,
                                &dense.flaky,
                                &suspicion,
                            );
                            let desired: Vec<usize> = (0..k)
                                .map(|i| ctx.agent.select_action(&states[i], Some(&oracle[i])))
                                .collect();
                            // Blend the relaxed-FLMM objective with the agent's
                            // per-client desires, then recover a permutation by
                            // globally greedy matching over the active clients.
                            let mut scores = objective;
                            for (i, &j) in desired.iter().enumerate() {
                                scores[i][j] += 0.25;
                            }
                            let plan = MigrationPlan::greedy_assignment_masked(&scores, &arrived);
                            for (i, state) in states.iter().enumerate() {
                                ctx.decide(epoch, state, plan.dest(i), i);
                            }
                            plan
                        }
                        _ => unreachable!("scheme/state combination"),
                    };
                    drop(plan_span);
                    let transfer_span = span!("core::runner", "migration_transfer");
                    let params =
                        collect_params(&mut dense.clients, cfg, &attack, epoch, &mut ledger.rng);
                    if watchdog_on {
                        for (n, p) in nan_sources.iter_mut().zip(&params) {
                            *n |= !fedmigr_tensor::all_finite(p);
                        }
                    }
                    // `src_of[j]` is the client whose model client `j` hosts
                    // after this round. A failed delivery leaves `j` on its own
                    // retained copy instead of breaking the permutation.
                    // `delivered_payload[j]` is what the wire actually handed
                    // `j` — the decoded (possibly lossy) model.
                    let mut src_of: Vec<usize> = (0..k).collect();
                    let mut delivered_payload: Vec<Option<Vec<f32>>> = vec![None; k];
                    let mut move_times = Vec::new();
                    // Under the flow transport the whole migration wave runs as
                    // one simulation: moves contend for their pair links and the
                    // inter-LAN backbone, and a flow that strikes out falls back
                    // onto the retry/relay/C2S-bounce chain below.
                    let mig_t0 = ledger.clock.now();
                    let wave = flow_cfg.map(|fc| {
                        let mv: Vec<(usize, usize)> = plan.moves().collect();
                        let sim = simulate_migrations_traced(
                            &self.topology,
                            &fault,
                            epoch,
                            fc,
                            &mv,
                            model_bytes,
                            tcap.active(),
                        );
                        dense.taccum.absorb(&sim);
                        ledger.meter.record_transfer_seconds(sim.makespan);
                        sim
                    });
                    for (m, (i, j)) in plan.moves().enumerate() {
                        let (outcome, time) = match wave.as_ref().map(|w| &w.outcomes[m]) {
                            Some(o) if o.completed => {
                                ledger.meter.record_c2c(model_bytes, self.topology.same_lan(i, j));
                                ledger.meter.record_overhead(o.retransmit_bytes);
                                observe_link_time("direct", o.finish);
                                (EdgeOutcome::Direct, o.finish)
                            }
                            Some(o) => {
                                // The flow burned its wire bytes and struck out;
                                // resolve through the fallback chain with the
                                // elapsed flow time charged on top.
                                ledger.meter.record_overhead(o.wire_bytes);
                                dense.fault_stats.wasted_bytes += model_bytes;
                                let (out, t) = self.deliver_fallback(
                                    &fault,
                                    &alive,
                                    i,
                                    j,
                                    epoch,
                                    model_bytes,
                                    &mut ledger.meter,
                                    &mut dense.fault_stats,
                                );
                                (out, o.finish + t)
                            }
                            None => self.deliver(
                                &fault,
                                &alive,
                                i,
                                j,
                                epoch,
                                model_bytes,
                                &mut ledger.meter,
                                &mut dense.fault_stats,
                            ),
                        };
                        move_times.push(time);
                        tcap.migrate(i, mig_t0, time);
                        round_edges.push(MigrationEdge {
                            src: i,
                            dst: j,
                            bytes: model_bytes,
                            time_s: time,
                            outcome,
                        });
                        if outcome.delivered() {
                            // Encode only transfers that completed: a cancelled
                            // migration must not consume the sender's
                            // error-feedback residual. The receiver screens the
                            // *decoded* payload before adoption. A rejected
                            // model was still transmitted (the bytes are
                            // burned) but `j` keeps its own copy and the
                            // source's suspicion rises.
                            let payload = dense.compressor.transmit(i, &params[i]);
                            if let Some(q) = dense.quarantine.as_mut() {
                                let _screen = span!("core::runner", "quarantine_screen");
                                if !q.screen(i, &payload, &params[j]) {
                                    robust_epoch.rejected_migrations += 1;
                                    continue;
                                }
                            }
                            src_of[j] = i;
                            delivered_payload[j] = Some(payload);
                            dense.link_migrations[i * k + j] += 1;
                            if self.topology.same_lan(i, j) {
                                ledger.migrations_local += 1;
                            } else {
                                ledger.migrations_global += 1;
                            }
                        }
                    }
                    if diag_on {
                        // Attribute virtual-dataset EMD deltas to individual
                        // migrations: slot `j` is about to adopt slot
                        // `src_of[j]`'s mixture.
                        for (j, &s) in src_of.iter().enumerate() {
                            if s == j {
                                continue;
                            }
                            let before = normalized_emd(&dense.mix[j], &population);
                            let after = normalized_emd(&dense.mix[s], &population);
                            fedmigr_telemetry::debug!(
                            "core::diag",
                            "migration {s}->{j}: virtual-dataset EMD {before:.4} -> {after:.4} ({:+.4})",
                            after - before
                        );
                        }
                    }
                    ledger.clock.advance_parallel(VPhase::Migration, move_times);
                    if let Some(pt) = wave.as_ref().and_then(|w| w.trace.as_ref()) {
                        // The wave's flow events all sit inside the charged
                        // parallel window (every move's charged time is at
                        // least its own flow's finish).
                        tcap.phase_trace("migration", mig_t0, ledger.clock.now(), pt);
                    }
                    dense.mix = src_of.iter().map(|&s| dense.mix[s].clone()).collect();
                    if diag_on {
                        dense.train_mix =
                            src_of.iter().map(|&s| dense.train_mix[s].clone()).collect();
                    }
                    round_src_of.clone_from(&src_of);
                    for (j, c) in dense.clients.iter_mut().enumerate() {
                        match delivered_payload[j].take() {
                            Some(p) => {
                                let migrated = p != params[j];
                                c.set_params(&p, migrated);
                            }
                            // No accepted migration: re-install the retained
                            // local copy (the pre-codec behaviour, wire-free).
                            None => c.set_params(&params[j], false),
                        }
                    }
                    drop(transfer_span);
                }
                drop(comm_span);
                kphases.credit("communicate");

                // (4) Evaluation of the (shadow-)aggregated global model.
                let eval_span = span!("core::runner", "evaluate");
                let eval_due = epoch.is_multiple_of(cfg.eval_interval) || epoch == cfg.epochs;
                let accuracy = if eval_due {
                    let shadow = if cfg.scheme.is_async() {
                        // FedAsync's global model lives on the server.
                        ledger.global.clone()
                    } else {
                        // What clients would *transmit* if the server aggregated
                        // now — Byzantine clients corrupt these shadow uploads
                        // exactly like real ones, and the codec previews its
                        // distortion (without touching residuals, counters or
                        // stats: these transfers are hypothetical), so the
                        // measured accuracy reflects both the aggregation
                        // rule's defense and the wire's lossiness.
                        let uploads: Vec<Vec<f32>> = dense
                            .clients
                            .iter_mut()
                            .enumerate()
                            .map(|(i, c)| {
                                let mut p = c.params();
                                attack.corrupt_upload(i, epoch, &mut p);
                                dense.compressor.preview(i, &p)
                            })
                            .collect();
                        // Hypothetical full participation — except sources the
                        // watchdog has permanently excluded, which are out of
                        // the run for good and must not poison the measurement.
                        let include: Vec<bool> = dense.excluded.iter().map(|&e| !e).collect();
                        aggregate_active(
                            &dense.clients,
                            &uploads,
                            &include,
                            &cfg.aggregator,
                            &ledger.global,
                            &mut robust_epoch,
                        )
                    };
                    Some(evaluate(&mut template, &self.test, &shadow))
                } else {
                    None
                };
                drop(eval_span);
                kphases.credit("evaluate");

                // (5) Agent learning.
                if ledger.agent.is_some() {
                    let _learn = span!("core::runner", "agent_update");
                    ledger.learn();
                }

                // (6) Bookkeeping and stopping conditions.
                kphases.credit("agent_update");
                let book_span = span!("core::runner", "bookkeeping");
                dense.fault_stats.stale_client_epochs += stale;
                if let Some(q) = dense.quarantine.as_mut() {
                    q.end_epoch();
                }
                // Divergence watchdog: a non-finite global model or loss, or a
                // loss spike beyond `spike_factor` times the trailing-window
                // baseline, rolls the run back to the last good checkpoint and
                // retries with the implicated sources excluded and quarantined.
                if watchdog_on {
                    let window = cfg.watchdog.window.max(1);
                    let recent: Vec<f32> = ledger
                        .records
                        .iter()
                        .rev()
                        .take(window)
                        .map(|r| r.train_loss)
                        .filter(|l| l.is_finite())
                        .collect();
                    let baseline = (!recent.is_empty())
                        .then(|| recent.iter().sum::<f32>() / recent.len() as f32);
                    let spiked = matches!(baseline, Some(b) if b > 0.0
                    && (mean_loss as f64) > cfg.watchdog.spike_factor * b as f64);
                    let diverged = !mean_loss.is_finite()
                        || spiked
                        || !fedmigr_tensor::all_finite(&ledger.global);
                    if diverged {
                        match last_good.take() {
                            Some((ck_epoch, bytes))
                                if ledger.recovery.rollbacks < cfg.watchdog.max_rollbacks =>
                            {
                                let implicated: Vec<usize> =
                                    (0..k).filter(|&i| nan_sources[i]).collect();
                                fedmigr_telemetry::error!(
                                    "core::runner",
                                    "watchdog: divergence at epoch {epoch} (loss {mean_loss}, \
                                 global finite: {}); rolling back to epoch {ck_epoch}, \
                                 implicated sources {implicated:?}",
                                    fedmigr_tensor::all_finite(&ledger.global)
                                );
                                let mut state = RunState::from_bytes(&bytes, &ledger.stamp)
                                    .expect("in-memory checkpoint decodes");
                                // Recovery accounting and exclusions survive
                                // the rollback; everything else rewinds.
                                state.ledger.recovery = ledger.recovery;
                                state.excluded = dense.excluded.clone();
                                dense.restore(&mut ledger, state);
                                for &i in &implicated {
                                    dense.excluded[i] = true;
                                    if let Some(q) = dense.quarantine.as_mut() {
                                        q.escalate(i);
                                    }
                                }
                                ledger.recovery.rollbacks += 1;
                                ledger.recovery.rounds_replayed += epoch - ck_epoch;
                                nan_sources.iter_mut().for_each(|n| *n = false);
                                // Replayed rounds rewrite history: truncate the
                                // flight recording back to the checkpoint.
                                if flight.is_some() {
                                    if let Some(path) = cfg.diag.flight_out.as_deref() {
                                        drop(flight.take()); // flush + close first
                                        flight = FlightRecorder::resume(path, ck_epoch).ok();
                                    }
                                }
                                // The timeline is append-only: a rollback
                                // marker notes the rewind (and resets the
                                // validator's time watermark) instead of
                                // truncating.
                                tcap.rollback(ck_epoch);
                                last_good = Some((ck_epoch, bytes));
                                epoch = ck_epoch + 1;
                                continue 'run;
                            }
                            other => {
                                last_good = other;
                                fedmigr_telemetry::error!(
                                    "core::runner",
                                    "watchdog: divergence at epoch {epoch} but no rollback \
                                 available (budget {}/{} used); continuing",
                                    ledger.recovery.rollbacks,
                                    cfg.watchdog.max_rollbacks
                                );
                            }
                        }
                    }
                }
                let r = dense_record(&ledger, &dense.taccum, epoch, mean_loss, accuracy);
                ledger.end_round(EpochRecord {
                    dropped_clients: dropped,
                    stale_clients: stale,
                    rejected_migrations: robust_epoch.rejected_migrations,
                    ..r
                });
                tcap.round_end(ledger.clock.now());
                dense.robust_total.absorb(&robust_epoch);

                if diag_on {
                    let _diag = span!("core::runner", "diagnostics");
                    let emd = EmdSnapshot::measure(&dense.mix, &population);
                    let train_emd = EmdSnapshot::measure(&dense.train_mix, &population);
                    // Read parameters directly: `collect_params` applies DP
                    // noise and consumes the shared RNG stream, which would
                    // break the diagnostics-off/on byte-identity contract.
                    let params_now: Vec<Vec<f32>> =
                        dense.clients.iter_mut().map(|c| c.params()).collect();
                    let weights: Vec<f64> =
                        dense.clients.iter().map(|c| c.num_samples() as f64).collect();
                    let drift = DriftSnapshot::measure(&params_now, &ledger.global, &weights);
                    let drl = match (ledger.agent.as_mut(), states.as_ref()) {
                        (Some(ctx), Some(states)) => {
                            // Forward-only policy probes: RNG-free by design.
                            let probs: Vec<Vec<f32>> =
                                states.iter().map(|s| ctx.agent.action_probs(s)).collect();
                            Some(DrlSnapshot::collect(
                                &probs,
                                ctx.agent.last_update_stats(),
                                ctx.agent.replay_health(),
                            ))
                        }
                        _ => None,
                    };
                    let graph = GraphSnapshot::measure(&round_edges, &round_src_of);
                    let reg = fedmigr_telemetry::global().registry();
                    reg.gauge("fedmigr_diag_emd_mean", &[]).set(emd.mean);
                    reg.gauge("fedmigr_diag_emd_max", &[]).set(emd.max);
                    reg.gauge("fedmigr_diag_train_emd_mean", &[]).set(train_emd.mean);
                    reg.gauge("fedmigr_diag_train_emd_max", &[]).set(train_emd.max);
                    reg.gauge("fedmigr_diag_drift_mean_dist", &[]).set(drift.mean_dist);
                    reg.gauge("fedmigr_diag_drift_mean_cosine", &[]).set(drift.mean_cosine);
                    reg.gauge("fedmigr_diag_drift_mean_divergence", &[]).set(drift.mean_divergence);
                    if let Some(d) = &drl {
                        reg.gauge("fedmigr_diag_policy_entropy", &[]).set(d.mean_entropy);
                        reg.gauge("fedmigr_diag_policy_saturation", &[]).set(d.mean_saturation);
                        reg.gauge("fedmigr_diag_critic_mean_q", &[]).set(d.mean_q);
                        reg.gauge("fedmigr_diag_td_error_mean_abs", &[]).set(d.mean_abs_td);
                    }
                    let mut flight_failed = false;
                    if let Some(rec) = flight.as_mut() {
                        let traffic = ledger.meter.traffic();
                        let phase = ledger.clock.phase();
                        let row = RoundRecord {
                            epoch,
                            train_loss: mean_loss as f64,
                            test_accuracy: accuracy,
                            sim_time: ledger.clock.now(),
                            c2s_bytes: traffic.c2s,
                            c2c_local_bytes: traffic.c2c_local,
                            c2c_global_bytes: traffic.c2c_global,
                            phase_train_s: phase.train_s,
                            phase_c2s_s: phase.c2s_s,
                            phase_migration_s: phase.migration_s,
                            phase_backoff_s: phase.backoff_s,
                            emd,
                            train_emd,
                            drift: Some(drift),
                            drl,
                            graph,
                            migrations: std::mem::take(&mut round_edges),
                        };
                        if let Err(e) = rec.round(&row) {
                            fedmigr_telemetry::error!(
                                "core::diag",
                                "flight round write failed: {e}; recording stopped"
                            );
                            flight_failed = true;
                        }
                    }
                    if flight_failed {
                        flight = None;
                    }
                }
                drop(book_span);
                kphases.credit("bookkeeping");
                if ledger.should_stop(accuracy) {
                    break 'run;
                }
            } // end of 'round

            // --- Round epilogue: snapshot cadence and the kill switch ----
            let snap_every = cfg.checkpoint_every.unwrap_or(1);
            if (cfg.checkpoint_every.is_some() || watchdog_on) && epoch.is_multiple_of(snap_every) {
                let bytes = dense.snapshot(&mut ledger, epoch);
                ledger.write_checkpoint(epoch, &bytes);
                last_good = Some((epoch, bytes));
                nan_sources.iter_mut().for_each(|n| *n = false);
            }
            if ledger.kill_switch(epoch) {
                break;
            }
            epoch += 1;
        }

        // A killed run crashed: no flight summary and no timeline finish —
        // exactly the state a real crash would leave behind for `--resume`
        // to pick up.
        if let Some(rec) = flight.as_mut().filter(|_| !ledger.killed) {
            let records = &ledger.records;
            let summary = FlightSummary {
                epochs_run: records.len(),
                final_accuracy: records.iter().rev().find_map(|r| r.test_accuracy).unwrap_or(0.0),
                best_accuracy: records.iter().filter_map(|r| r.test_accuracy).fold(0.0, f64::max),
                total_bytes: records.last().map(|r| r.traffic.total()).unwrap_or(0),
                sim_time: records.last().map(|r| r.sim_time).unwrap_or(0.0),
                migrations_local: ledger.migrations_local,
                migrations_global: ledger.migrations_global,
                final_emd_mean: EmdSnapshot::measure(&dense.mix, &population).mean,
                target_reached: ledger.target_reached,
                budget_exhausted: ledger.budget_exhausted,
            };
            if let Err(e) = rec.finish(&summary) {
                fedmigr_telemetry::error!("core::diag", "flight summary write failed: {e}");
            }
        }
        if !ledger.killed {
            tcap.finish(ledger.records.len());
        }
        log_phase_hotspot(
            &phase_wall_baseline,
            ledger.records.last().map(|r| r.phase).unwrap_or_default(),
        );
        RunMetrics {
            link_migrations: dense.link_migrations,
            fault: dense.fault_stats,
            robust: dense.robust_total,
            compression: dense.compressor.stats(),
            transport_stats: dense.taccum.finish(),
            ..ledger.finish()
        }
    }

    /// Solves the relaxed FLMM oracle for the current epoch: benefit is the
    /// pairwise distribution difference minus a flakiness penalty on the
    /// destination and a suspicion penalty on migrating *sources*, cost the
    /// normalized link price. With no observed downtime (`flaky` all zero)
    /// and no quarantine rejections (`susp` all zero) both penalties vanish
    /// entirely, leaving the seed objective bit-identical.
    /// Returns `(relaxed solution rows, raw objective matrix)`.
    fn solve_oracle(
        &self,
        dmat: &[Vec<f64>],
        model_bytes: u64,
        epoch: usize,
        fc: &FedMigrConfig,
        flaky: &[f64],
        susp: &[f64],
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let (lambda, liveness_penalty) = (fc.lambda, fc.liveness_penalty);
        let k = dmat.len();
        let mut cost = vec![vec![0.0f64; k]; k];
        let mut max_cost = 0.0f64;
        for (i, row) in cost.iter_mut().enumerate() {
            for (j, c) in row.iter_mut().enumerate() {
                if i != j {
                    *c = transfer_time(model_bytes, self.topology.c2c_bandwidth(i, j, epoch));
                    max_cost = max_cost.max(*c);
                }
            }
        }
        if max_cost > 0.0 {
            for row in cost.iter_mut() {
                for c in row.iter_mut() {
                    *c /= max_cost;
                }
            }
        }
        let benefit: Vec<Vec<f64>> = dmat
            .iter()
            .enumerate()
            .map(|(i, row)| {
                row.iter()
                    .zip(flaky)
                    .enumerate()
                    .map(|(j, (&d, &f))| {
                        let keep_home = if i != j { fc.suspicion_penalty * susp[i] } else { 0.0 };
                        d - liveness_penalty * f - keep_home
                    })
                    .collect()
            })
            .collect();
        let mut objective = vec![vec![0.0f64; k]; k];
        for i in 0..k {
            for j in 0..k {
                objective[i][j] = benefit[i][j] - lambda * cost[i][j];
            }
        }
        let relax = FlmmRelaxation { benefit, cost, lambda, entropy: 0.05 };
        (relax.solve(40, 0.4), objective)
    }

    /// Delivers one planned migration `i -> j` under the fault model,
    /// charging bytes to `meter` and returning `(outcome, seconds)` — the
    /// outcome names the path the transfer ended on and implies whether it
    /// delivered ([`EdgeOutcome::delivered`]). The policy is: direct C2C
    /// with bounded exponential-backoff retries, then relay through the
    /// best live peer in the destination's LAN, then a C2S round-trip
    /// through the server, and finally cancellation (the model stays where
    /// it is for one epoch).
    #[allow(clippy::too_many_arguments)]
    fn deliver(
        &self,
        fault: &FaultModel,
        alive: &[bool],
        i: usize,
        j: usize,
        epoch: usize,
        model_bytes: u64,
        meter: &mut ResourceMeter,
        stats: &mut FaultStats,
    ) -> (EdgeOutcome, f64) {
        // A downed link presents as zero effective bandwidth, which the
        // `try_` transfer API maps to `None` instead of a panic.
        let eff = |a: usize, b: usize| -> f64 {
            if fault.link_up(a, b, epoch) {
                self.topology.c2c_bandwidth(a, b, epoch) * fault.link_quality(a, b, epoch)
            } else {
                0.0
            }
        };
        let latency = self.topology.c2c_latency(i, j);
        // (a) Direct transfer over the planned link.
        if let Some(t) = try_transfer_time_with_latency(model_bytes, eff(i, j), latency) {
            meter.record_c2c(model_bytes, self.topology.same_lan(i, j));
            observe_link_time("direct", t);
            return (EdgeOutcome::Direct, t);
        }
        stats.wasted_bytes += model_bytes;
        self.deliver_fallback(fault, alive, i, j, epoch, model_bytes, meter, stats)
    }

    /// The fallback chain after a failed direct migration attempt (steps
    /// (b)–(e) of [`Experiment::deliver`]): bounded retries, relay, C2S
    /// bounce, cancellation. Shared by the lockstep path and the flow
    /// transport (where a struck-out flow lands here directly).
    #[allow(clippy::too_many_arguments)]
    fn deliver_fallback(
        &self,
        fault: &FaultModel,
        alive: &[bool],
        i: usize,
        j: usize,
        epoch: usize,
        model_bytes: u64,
        meter: &mut ResourceMeter,
        stats: &mut FaultStats,
    ) -> (EdgeOutcome, f64) {
        let eff = |a: usize, b: usize| -> f64 {
            if fault.link_up(a, b, epoch) {
                self.topology.c2c_bandwidth(a, b, epoch) * fault.link_quality(a, b, epoch)
            } else {
                0.0
            }
        };
        let latency = self.topology.c2c_latency(i, j);
        // (b) Bounded retries with exponential backoff on the same link.
        let policy = fault.retry();
        let mut elapsed = 0.0;
        for attempt in 1..=policy.max_retries {
            stats.transfer_retries += 1;
            count_net("fedmigr_net_transfer_retries_total", &[]);
            elapsed += policy.backoff(attempt);
            if fault.retry_succeeds(i, j, epoch, attempt) {
                meter.record_c2c(model_bytes, self.topology.same_lan(i, j));
                let bw = self.topology.c2c_bandwidth(i, j, epoch) * fault.link_quality(i, j, epoch);
                let t = elapsed + transfer_time_with_latency(model_bytes, bw, latency);
                observe_link_time("direct_retry", t);
                return (EdgeOutcome::DirectRetry, t);
            }
            stats.wasted_bytes += model_bytes;
        }
        // (c) Relay through the live same-LAN peer of `j` with the best
        // bottleneck bandwidth on the two-hop path.
        let relay = (0..self.num_clients())
            .filter(|&r| r != i && r != j && alive[r] && self.topology.same_lan(r, j))
            .filter(|&r| eff(i, r) > 0.0 && eff(r, j) > 0.0)
            .max_by(|&a, &b| eff(i, a).min(eff(a, j)).total_cmp(&eff(i, b).min(eff(b, j))));
        if let Some(r) = relay {
            meter.record_c2c(model_bytes, self.topology.same_lan(i, r));
            meter.record_c2c(model_bytes, true);
            stats.rerouted_migrations += 1;
            count_net("fedmigr_net_fallback_total", &[("kind", "relay")]);
            let t =
                transfer_time_with_latency(model_bytes, eff(i, r), self.topology.c2c_latency(i, r))
                    + transfer_time_with_latency(
                        model_bytes,
                        eff(r, j),
                        self.topology.c2c_latency(r, j),
                    );
            observe_link_time("relay", elapsed + t);
            return (EdgeOutcome::Relay, elapsed + t);
        }
        // (d) Last resort: bounce the model off the server over the WAN.
        if fault.c2s_up(i, epoch) && fault.c2s_up(j, epoch) {
            meter.record_c2s(2 * model_bytes);
            stats.rerouted_migrations += 1;
            count_net("fedmigr_net_fallback_total", &[("kind", "c2s_bounce")]);
            let t = 2.0
                * transfer_time_with_latency(
                    model_bytes,
                    self.topology.c2s_bandwidth(epoch),
                    self.topology.c2s_latency(),
                );
            observe_link_time("c2s_bounce", elapsed + t);
            return (EdgeOutcome::C2sBounce, elapsed + t);
        }
        // (e) Give up; the destination keeps its local copy this epoch.
        stats.cancelled_migrations += 1;
        count_net("fedmigr_net_fallback_total", &[("kind", "cancel")]);
        (EdgeOutcome::Cancelled, elapsed)
    }

    /// Runs one upload phase under the flow transport: the `synced` clients
    /// race concurrent flows against a per-round deadline (a multiple of
    /// the median completed finish time). Completed flows pay their payload
    /// plus retransmission overhead; a flow past the deadline is late (its
    /// upload may still be folded into a later aggregation); a struck-out
    /// flow wastes its wire bytes. The round advances by the earlier of the
    /// deadline and the last settled flow.
    #[allow(clippy::too_many_arguments)]
    fn flow_upload_phase(
        &self,
        fc: &FlowConfig,
        fault: &FaultModel,
        epoch: usize,
        synced: &[bool],
        model_bytes: u64,
        meter: &mut ResourceMeter,
        clock: &mut PhasedClock,
        taccum: &mut TransportAccum,
        stats: &mut FaultStats,
        tcap: &mut TimelineCapture,
    ) -> FlowUploadOutcome {
        let k = synced.len();
        let mut out =
            FlowUploadOutcome { on_time: vec![false; k], late: vec![false; k], failed: 0 };
        let uploaders: Vec<usize> = (0..k).filter(|&i| synced[i]).collect();
        if uploaders.is_empty() {
            return out;
        }
        let t0 = clock.now();
        let sim = simulate_c2s_traced(
            &self.topology,
            fault,
            epoch,
            fc,
            &uploaders,
            model_bytes,
            tcap.active(),
        );
        taccum.absorb(&sim);
        let deadline = upload_deadline(&sim.outcomes, fc.deadline_factor);
        let dur = sim.makespan.min(deadline);
        for (o, &c) in sim.outcomes.iter().zip(&uploaders) {
            if o.completed {
                meter.record_c2s(model_bytes);
                meter.record_overhead(o.retransmit_bytes);
                if o.finish <= deadline {
                    out.on_time[c] = true;
                } else {
                    out.late[c] = true;
                    taccum.note_late_upload();
                }
            } else {
                meter.record_overhead(o.wire_bytes);
                stats.wasted_bytes += model_bytes;
                out.failed += 1;
            }
            tcap.upload(c, t0, o.finish, dur, o.completed && o.finish > deadline);
        }
        meter.record_transfer_seconds(dur);
        clock.advance(VPhase::C2s, dur);
        if let Some(pt) = &sim.trace {
            tcap.phase_trace("upload", t0, t0 + dur, pt);
        }
        out
    }

    /// Runs one download phase under the flow transport (broadcast fan-out
    /// or a single FedAsync return leg) and returns which receivers the
    /// payload actually reached. Failed downloads waste their wire bytes;
    /// the receiver keeps its current model.
    #[allow(clippy::too_many_arguments)]
    fn flow_download_phase(
        &self,
        fc: &FlowConfig,
        fault: &FaultModel,
        epoch: usize,
        receivers: &[bool],
        model_bytes: u64,
        meter: &mut ResourceMeter,
        clock: &mut PhasedClock,
        taccum: &mut TransportAccum,
        tcap: &mut TimelineCapture,
    ) -> Vec<bool> {
        let k = receivers.len();
        let mut delivered = vec![false; k];
        let rx: Vec<usize> = (0..k).filter(|&i| receivers[i]).collect();
        if rx.is_empty() {
            return delivered;
        }
        let t0 = clock.now();
        let sim =
            simulate_c2s_traced(&self.topology, fault, epoch, fc, &rx, model_bytes, tcap.active());
        taccum.absorb(&sim);
        for (o, &c) in sim.outcomes.iter().zip(&rx) {
            if o.completed {
                meter.record_c2s(model_bytes);
                meter.record_overhead(o.retransmit_bytes);
                delivered[c] = true;
            } else {
                meter.record_overhead(o.wire_bytes);
            }
            tcap.upload(c, t0, o.finish, sim.makespan, false);
        }
        meter.record_transfer_seconds(sim.makespan);
        clock.advance(VPhase::C2s, sim.makespan);
        if let Some(pt) = &sim.trace {
            tcap.phase_trace("download", t0, t0 + sim.makespan, pt);
        }
        delivered
    }
}

/// Test accuracy of `params` loaded into `template`, evaluated in batches
/// over the server-held `test` split. Shared by both runners.
pub(crate) fn evaluate(template: &mut Model, test: &Dataset, params: &[f32]) -> f64 {
    template.set_params(params);
    let indices: Vec<usize> = (0..test.len()).collect();
    let mut correct_weighted = 0.0f64;
    for chunk in indices.chunks(64) {
        let (x, labels) = test.batch(chunk);
        let (_, acc) = template.evaluate(&x, &labels);
        correct_weighted += acc * chunk.len() as f64;
    }
    correct_weighted / indices.len() as f64
}

/// What the dense runner carries across rounds beside the [`RunLedger`]:
/// the materialized clients and the codec, fault, transport, defense and
/// model-mixture state a dense checkpoint adds to the ledger's share.
struct DenseState {
    clients: Vec<FlClient>,
    compressor: Compressor,
    fault_stats: FaultStats,
    /// Exponential moving average of each client's observed downtime; the
    /// FedMigr oracle penalizes flaky destinations with it. Stays
    /// identically zero without fault injection.
    flaky: Vec<f64>,
    taccum: TransportAccum,
    /// Uploads that completed after their round's deadline, held until an
    /// aggregation folds (or ages) them.
    late_buf: Vec<LateUpload>,
    /// Completed aggregations, so a buffered upload's staleness is
    /// measured in aggregation rounds.
    agg_seq: usize,
    quarantine: Option<Quarantine>,
    robust_total: RobustStats,
    /// The *model mixture*: an exponentially decayed estimate of the label
    /// distribution each model has recently trained on. Migration permutes
    /// it; aggregation resets it to the population (the global model
    /// reflects everyone's data).
    mix: Vec<Vec<f64>>,
    /// Diagnostic twin of `mix` that aggregation never resets: the label
    /// distribution of the data that actually generated each model
    /// replica's gradients, routed through migrations and swaps only.
    /// FedAvg keeps each replica pinned to its host's shard; migration is
    /// what drives this EMD down.
    train_mix: Vec<Vec<f64>>,
    link_migrations: Vec<u32>,
    /// Clients the watchdog excluded after implicating them in a divergence.
    excluded: Vec<bool>,
}

impl DenseState {
    /// The whole run after `epoch` — the ledger's share plus this state —
    /// encoded as a checkpoint.
    fn snapshot(&mut self, ledger: &mut RunLedger, epoch: usize) -> Vec<u8> {
        RunState {
            ledger: ledger.capture(epoch),
            clients: self.clients.iter_mut().map(|c| c.export_state()).collect(),
            fault_stats: self.fault_stats,
            flaky: self.flaky.clone(),
            taccum: self.taccum.export_state(),
            late_buf: self.late_buf.clone(),
            agg_seq: self.agg_seq,
            quarantine: self.quarantine.as_ref().map(|q| q.export_state()),
            robust_total: self.robust_total,
            mix: self.mix.clone(),
            train_mix: self.train_mix.clone(),
            compressor: self.compressor.export_state(),
            link_migrations: self.link_migrations.clone(),
            excluded: self.excluded.clone(),
        }
        .to_bytes(&ledger.stamp)
    }

    /// Restores a decoded checkpoint into `ledger` and this state; returns
    /// the checkpoint's epoch.
    fn restore(&mut self, ledger: &mut RunLedger, s: RunState) -> usize {
        assert_eq!(s.clients.len(), self.clients.len(), "checkpoint client count");
        for (c, cs) in self.clients.iter_mut().zip(s.clients) {
            c.import_state(cs);
        }
        assert_eq!(
            self.quarantine.is_some(),
            s.quarantine.is_some(),
            "attack configuration mismatch between checkpoint and run"
        );
        if let (Some(q), Some(qs)) = (self.quarantine.as_mut(), s.quarantine) {
            q.import_state(qs);
        }
        self.compressor.import_state(s.compressor);
        self.taccum.import_state(s.taccum);
        self.fault_stats = s.fault_stats;
        self.flaky = s.flaky;
        self.late_buf = s.late_buf;
        self.agg_seq = s.agg_seq;
        self.robust_total = s.robust_total;
        self.mix = s.mix;
        self.train_mix = s.train_mix;
        self.link_migrations = s.link_migrations;
        self.excluded = s.excluded;
        ledger.restore(s.ledger)
    }
}

/// Which runner phase a virtual-clock advance belongs to.
#[derive(Clone, Copy, Debug)]
pub(crate) enum VPhase {
    /// Straggler-limited local training.
    Train,
    /// Client↔server transfers (distribution, uploads, downloads).
    C2s,
    /// Client-to-client model movement.
    Migration,
    /// Waiting out server-link outages.
    Backoff,
}

/// The simulation clock plus a deterministic per-phase attribution of every
/// advance. The attribution is part of the run result (`EpochRecord::phase`),
/// so it must not depend on telemetry being enabled — it never is: this is
/// plain arithmetic on the virtual clock.
pub(crate) struct PhasedClock {
    clock: SimClock,
    phase: PhaseBreakdown,
}

impl PhasedClock {
    pub(crate) fn new() -> Self {
        Self { clock: SimClock::new(), phase: PhaseBreakdown::default() }
    }

    /// A clock resumed from checkpointed time and phase attribution.
    pub(crate) fn at(now: f64, phase: PhaseBreakdown) -> Self {
        Self { clock: SimClock::at(now), phase }
    }

    pub(crate) fn now(&self) -> f64 {
        self.clock.now()
    }

    pub(crate) fn phase(&self) -> PhaseBreakdown {
        self.phase
    }

    fn bucket(&mut self, phase: VPhase) -> &mut f64 {
        match phase {
            VPhase::Train => &mut self.phase.train_s,
            VPhase::C2s => &mut self.phase.c2s_s,
            VPhase::Migration => &mut self.phase.migration_s,
            VPhase::Backoff => &mut self.phase.backoff_s,
        }
    }

    pub(crate) fn advance(&mut self, phase: VPhase, seconds: f64) {
        self.clock.advance(seconds);
        *self.bucket(phase) += seconds;
    }

    /// Advances by the *maximum* of `times` (parallel transfers), charging
    /// the elapsed delta to `phase`.
    pub(crate) fn advance_parallel(&mut self, phase: VPhase, times: Vec<f64>) {
        let before = self.clock.now();
        self.clock.advance_parallel(times);
        *self.bucket(phase) += self.clock.now() - before;
    }
}

/// Wall-clock seconds accumulated per runner span phase, read from the
/// cumulative `fedmigr_phase_seconds` histogram family (the family is
/// per-process, so callers diff two snapshots to isolate one run).
fn phase_seconds_snapshot() -> std::collections::BTreeMap<String, f64> {
    fedmigr_telemetry::global()
        .registry()
        .histogram_family(fedmigr_telemetry::PHASE_SECONDS)
        .into_iter()
        .filter_map(|(labels, snap)| {
            let target = labels.iter().find(|(key, _)| key == "target")?;
            if target.1 != "core::runner" {
                return None;
            }
            let phase = labels.iter().find(|(key, _)| key == "phase")?;
            Some((phase.1.clone(), snap.sum))
        })
        .collect()
}

/// One-line hotspot log at run end: names the runner span that dominated
/// this run's instrumented wall time (delta against the run-start snapshot
/// of `fedmigr_phase_seconds`) and the phase that dominated virtual time.
/// The enclosing `round` span is excluded — it envelops every other phase.
fn log_phase_hotspot(baseline: &std::collections::BTreeMap<String, f64>, sim: PhaseBreakdown) {
    let deltas: Vec<(String, f64)> = phase_seconds_snapshot()
        .into_iter()
        .filter(|(phase, _)| phase != "round")
        .map(|(phase, sum)| {
            let before = baseline.get(&phase).copied().unwrap_or(0.0);
            (phase, (sum - before).max(0.0))
        })
        .filter(|&(_, d)| d > 0.0)
        .collect();
    let wall_total: f64 = deltas.iter().map(|(_, d)| d).sum();
    let Some((hot, hot_s)) = deltas.into_iter().max_by(|a, b| a.1.total_cmp(&b.1)) else {
        return;
    };
    let sim_total = sim.total();
    let sim_part = [
        ("train", sim.train_s),
        ("c2s", sim.c2s_s),
        ("migration", sim.migration_s),
        ("backoff", sim.backoff_s),
    ]
    .into_iter()
    .max_by(|a, b| a.1.total_cmp(&b.1))
    .filter(|_| sim_total > 0.0)
    .map(|(name, s)| format!("; sim time dominated by {name} ({:.0}%)", 100.0 * s / sim_total))
    .unwrap_or_default();
    fedmigr_telemetry::info!(
        "core::runner",
        "phase_hotspot: {hot} took {:.0}% of instrumented wall time ({hot_s:.3}s){sim_part}",
        100.0 * hot_s / wall_total
    );
}

/// Bumps a telemetry counter in the net metric families (side-channel only:
/// never feeds back into the run).
fn count_net(name: &str, labels: &[(&str, &str)]) {
    fedmigr_telemetry::global().registry().counter(name, labels).inc();
}

/// Records one migration delivery's virtual duration per resolution path.
fn observe_link_time(path: &'static str, seconds: f64) {
    fedmigr_telemetry::global()
        .registry()
        .histogram("fedmigr_link_transfer_seconds", &[("path", path)])
        .observe(seconds);
}

/// FedSwap's per-round action: swap the models of `pairs` random disjoint
/// pairs among the participating clients.
fn swap_pairs_plan(active: &[bool], pairs: usize, rng: &mut StdRng) -> MigrationPlan {
    let k = active.len();
    let mut order: Vec<usize> = (0..k).filter(|&i| active[i]).collect();
    if order.len() < 2 {
        return MigrationPlan::identity(k);
    }
    order.shuffle(rng);
    let mut dest: Vec<usize> = (0..k).collect();
    for pair in order.chunks(2).take(pairs.max(1)) {
        if let [a, b] = *pair {
            dest.swap(a, b);
        }
    }
    MigrationPlan::new(dest)
}

/// Determines which of the `arrived` clients can reach the server this
/// epoch: WAN outages retry with exponential backoff (charged serially to
/// the clock — the WAN is the shared bottleneck) and give up after the
/// policy's retry budget. Transparent when fault injection is off.
fn c2s_reachable(
    fault: &FaultModel,
    arrived: &[bool],
    epoch: usize,
    model_bytes: u64,
    clock: &mut PhasedClock,
    stats: &mut FaultStats,
) -> Vec<bool> {
    if !fault.enabled() {
        return arrived.to_vec();
    }
    let policy = fault.retry();
    let mut synced = vec![false; arrived.len()];
    let mut backoff_total = 0.0f64;
    for i in (0..arrived.len()).filter(|&i| arrived[i]) {
        if fault.c2s_up(i, epoch) {
            synced[i] = true;
            continue;
        }
        stats.wasted_bytes += model_bytes;
        for attempt in 1..=policy.max_retries {
            stats.transfer_retries += 1;
            count_net("fedmigr_net_transfer_retries_total", &[]);
            backoff_total += policy.backoff(attempt);
            if fault.retry_succeeds(i, usize::MAX, epoch, attempt) {
                synced[i] = true;
                break;
            }
            stats.wasted_bytes += model_bytes;
        }
    }
    clock.advance(VPhase::Backoff, backoff_total);
    synced
}

/// Median of `xs` (upper median for even lengths); 0 when empty.
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn effective_samples(n: usize, cfg: &RunConfig) -> usize {
    match cfg.max_batches_per_epoch {
        Some(b) => n.min(b * cfg.batch_size),
        None => n,
    }
}

/// Trains the participating clients for one local epoch, in parallel.
/// Returns the per-client losses (`None` for clients that sat the epoch
/// out) plus a mask of clients whose training *panicked*. A panic —
/// whether injected by [`FaultConfig::panics`] or a genuine bug in one
/// client's training path — is contained per client (`catch_unwind`
/// inside the worker): the client is treated as crashed for the round,
/// its chunk-mates keep training, and the run survives.
///
/// Work is chunked across `available_parallelism` workers (mirroring the
/// fleet runner's `train_cohort`) rather than one thread per client:
/// oversubscribing cores makes each kernel's *wall* time include
/// descheduled gaps, which used to inflate the summed `local_train`
/// kernel time to several multiples of the phase's process CPU time and
/// wreck the attribution numbers.
fn train_all(
    clients: &mut [FlClient],
    cfg: &RunConfig,
    prox: Option<&(Vec<f32>, f32)>,
    active: &[bool],
    fault: &FaultModel,
    epoch: usize,
) -> (Vec<Option<f32>>, Vec<bool>) {
    let k = clients.len();
    let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let chunk = k.div_ceil(workers.max(1)).max(1);
    let mut losses: Vec<Option<f32>> = Vec::with_capacity(k);
    let mut panicked = vec![false; k];
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .chunks_mut(chunk)
            .zip(active.chunks(chunk))
            .enumerate()
            .map(|(ci, (part, act))| {
                let base = ci * chunk;
                let prox_ref = prox.map(|(g, mu)| (g.as_slice(), *mu));
                s.spawn(move || {
                    part.iter_mut()
                        .zip(act)
                        .enumerate()
                        .map(|(j, (c, &is_active))| {
                            let i = base + j;
                            is_active.then(|| {
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    if fault.client_panics(i, epoch) {
                                        panic!("injected client panic (client {i}, epoch {epoch})");
                                    }
                                    c.train_epoch(
                                        cfg.batch_size,
                                        cfg.max_batches_per_epoch,
                                        prox_ref,
                                    )
                                }))
                            })
                        })
                        .collect::<Vec<Option<Result<f32, _>>>>()
                })
            })
            .collect();
        for h in handles {
            for r in h.join().expect("chunk worker survives client panics") {
                let i = losses.len();
                match r {
                    None => losses.push(None),
                    Some(Ok(loss)) => losses.push(Some(loss)),
                    Some(Err(_)) => {
                        fedmigr_telemetry::error!(
                            "core::runner",
                            "client {i} training panicked at epoch {epoch}; \
                             treating the client as crashed for this round"
                        );
                        panicked[i] = true;
                        losses.push(None);
                    }
                }
            }
        }
    });
    (losses, panicked)
}

/// Reads every client's parameters, applying DP noise at the egress point
/// if configured, then any Byzantine corruption: a malicious client
/// poisons *everything* it transmits — server uploads and C2C migrations
/// alike — after the honest pipeline has finished with the payload.
fn collect_params(
    clients: &mut [FlClient],
    cfg: &RunConfig,
    attack: &AttackModel,
    epoch: usize,
    rng: &mut StdRng,
) -> Vec<Vec<f32>> {
    clients
        .iter_mut()
        .enumerate()
        .map(|(i, c)| {
            let mut p = c.params();
            if let Some(dp) = &cfg.dp {
                dp.apply(&mut p, rng);
            }
            attack.corrupt_upload(i, epoch, &mut p);
            p
        })
        .collect()
}

/// Server-side aggregation (Eq. 7 and its robust variants) over the
/// participating clients: weights are the local sample counts `n_k`. A
/// round where *no* upload survives the `active` mask keeps the previous
/// global model instead of panicking on an empty average.
fn aggregate_active(
    clients: &[FlClient],
    uploads: &[Vec<f32>],
    active: &[bool],
    aggregator: &Aggregator,
    prev_global: &[f32],
    stats: &mut RobustStats,
) -> Vec<f32> {
    let entries: Vec<(&[f32], f64)> = uploads
        .iter()
        .zip(clients)
        .zip(active)
        .filter(|&(_, &a)| a)
        .map(|((p, c), _)| (p.as_slice(), c.num_samples() as f64))
        .collect();
    if entries.is_empty() {
        warn!(
            "core::runner",
            "fedmigr: aggregation round with zero active uploads; keeping previous global"
        );
        return prev_global.to_vec();
    }
    aggregator.aggregate(&entries, prev_global, stats)
}

/// Per-client result of one flow-transport upload phase.
struct FlowUploadOutcome {
    /// Uploads that completed within the round deadline.
    on_time: Vec<bool>,
    /// Uploads that completed, but after the deadline.
    late: Vec<bool>,
    /// Uploads whose flow exhausted its timeout budget.
    failed: usize,
}

/// Staleness-tolerant degraded aggregation for the flow transport: folds
/// the `active` on-time uploads as fresh entries and the buffered late
/// uploads as staleness-discounted entries. A buffered upload is dropped
/// (not folded) when its client also delivered fresh this round — fresh
/// supersedes stale — or when it aged past the policy window. Returns
/// `None` (keep the previous global) only when there is nothing at all to
/// fold. Always drains the buffer.
#[allow(clippy::too_many_arguments)]
fn aggregate_with_late(
    clients: &[FlClient],
    uploads: &[Vec<f32>],
    active: &[bool],
    aggregator: &Aggregator,
    prev_global: &[f32],
    stats: &mut RobustStats,
    late_buf: &mut Vec<LateUpload>,
    agg_seq: usize,
    policy: &StalenessPolicy,
    taccum: &mut TransportAccum,
) -> Option<Vec<f32>> {
    let fresh: Vec<(&[f32], f64)> = uploads
        .iter()
        .zip(clients)
        .zip(active)
        .filter(|&(_, &a)| a)
        .map(|((p, c), _)| (p.as_slice(), c.num_samples() as f64))
        .collect();
    let mut stale_entries: Vec<(&[f32], f64, usize)> = Vec::new();
    let (mut folded, mut dropped) = (0u64, 0u64);
    for lu in late_buf.iter() {
        // An upload buffered since `seq` aggregations had completed is at
        // least one aggregation round old by the time the next one runs.
        let age = (agg_seq - lu.seq).max(1);
        if active[lu.client] || age > policy.max_age {
            dropped += 1;
            continue;
        }
        stale_entries.push((lu.params.as_slice(), clients[lu.client].num_samples() as f64, age));
        folded += 1;
    }
    taccum.note_stale_folded(folded);
    taccum.note_stale_dropped(dropped);
    let out = if fresh.is_empty() && stale_entries.is_empty() {
        warn!(
            "core::runner",
            "fedmigr: degraded aggregation with zero fresh or stale uploads; keeping previous global"
        );
        None
    } else {
        Some(aggregator.aggregate_with_stale(&fresh, &stale_entries, policy, prev_global, stats))
    };
    late_buf.clear();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmigr_data::{partition_iid, partition_shards, SyntheticConfig, SyntheticDataset};
    use fedmigr_net::{DeviceTier, TopologyConfig};
    use fedmigr_nn::zoo::{self, NetScale};

    fn small_experiment(non_iid: bool) -> Experiment {
        let data = SyntheticDataset::generate(&SyntheticConfig {
            num_classes: 4,
            train_per_class: 24,
            test_per_class: 8,
            channels: 1,
            hw: 8,
            noise_std: 0.6,
            class_sep: 1.0,
            atom_bank: 0,
            atoms_per_class: 0,
            private_frac: 0.0,
            seed: 11,
        });
        let k = 4;
        let parts = if non_iid {
            partition_shards(&data.train, k, 1, 5)
        } else {
            partition_iid(&data.train, k, 5)
        };
        let topo = Topology::new(&TopologyConfig::default_edge(vec![2, 2], 5));
        let model = zoo::mini_resnet(1, 8, 4, 1, NetScale::Small, 5);
        Experiment::new(
            data.train,
            data.test,
            parts,
            topo,
            ClientCompute::homogeneous(k, DeviceTier::Nx),
            model,
        )
    }

    fn quick_cfg(scheme: Scheme, epochs: usize) -> RunConfig {
        let mut cfg = RunConfig::new(scheme, epochs);
        cfg.agg_interval = 5;
        cfg.eval_interval = 5;
        cfg.batch_size = 16;
        cfg.lr = 0.05;
        cfg
    }

    #[test]
    fn fedavg_learns_on_iid_data() {
        let exp = small_experiment(false);
        let m = exp.run(&quick_cfg(Scheme::FedAvg, 20));
        assert_eq!(m.epochs(), 20);
        assert!(m.final_accuracy() > 0.5, "accuracy {}", m.final_accuracy());
        // FedAvg aggregates every epoch: 2K models + initial distribution.
        assert_eq!(m.migrations_local + m.migrations_global, 0);
        assert!(m.traffic().c2c_local == 0 && m.traffic().c2c_global == 0);
    }

    #[test]
    fn randmigr_moves_models_over_c2c() {
        let exp = small_experiment(true);
        let m = exp.run(&quick_cfg(Scheme::RandMigr, 10));
        assert!(m.migrations_local + m.migrations_global > 0);
        assert!(m.traffic().c2c_local + m.traffic().c2c_global > 0);
        // C2S only on aggregation epochs (plus initial distribution).
        assert!(m.traffic().c2s < exp.run(&quick_cfg(Scheme::FedAvg, 10)).traffic().c2s);
    }

    #[test]
    fn fedmigr_runs_and_trains_agent() {
        let exp = small_experiment(true);
        let m = exp.run(&quick_cfg(Scheme::fedmigr(3), 12));
        assert_eq!(m.scheme, "FedMigr");
        assert!(m.migrations_local + m.migrations_global > 0);
        assert!(m.final_accuracy() > 0.2);
    }

    #[test]
    fn budget_exhaustion_stops_early() {
        let exp = small_experiment(false);
        let mut cfg = quick_cfg(Scheme::FedAvg, 50);
        // Enough for the initial distribution and a couple of epochs only.
        let bytes = 12.0 * 4.0 * 4.0 * 1000.0;
        cfg.budget = ResourceBudget::bandwidth_only(bytes);
        let m = exp.run(&cfg);
        assert!(m.budget_exhausted);
        assert!(m.epochs() < 50);
    }

    #[test]
    fn target_accuracy_stops_early() {
        let exp = small_experiment(false);
        let mut cfg = quick_cfg(Scheme::FedAvg, 60);
        cfg.target_accuracy = Some(0.4);
        cfg.eval_interval = 2;
        let m = exp.run(&cfg);
        assert!(m.target_reached);
        assert!(m.epochs() < 60);
    }

    #[test]
    fn dp_noise_degrades_but_runs() {
        let exp = small_experiment(false);
        let mut cfg = quick_cfg(Scheme::FedAvg, 10);
        cfg.dp = Some(DpConfig::with_epsilon(1.0)); // Very strong noise.
        let noisy = exp.run(&cfg);
        let clean = exp.run(&quick_cfg(Scheme::FedAvg, 10));
        assert!(noisy.final_accuracy() <= clean.final_accuracy() + 0.1);
    }

    #[test]
    fn fedasync_trades_traffic_for_accuracy() {
        let exp = small_experiment(true);
        let a_async = exp.run(&quick_cfg(Scheme::fedasync(), 16));
        let a_avg = exp.run(&quick_cfg(Scheme::FedAvg, 16));
        // One upload per epoch instead of K: much cheaper.
        assert!(a_async.traffic().c2s < a_avg.traffic().c2s / 2);
        // It still learns something, but non-IID hurts it (the paper's
        // critique of asynchronous optimization).
        assert!(a_async.final_accuracy() > 0.2);
        assert!(a_async.final_accuracy() <= a_avg.final_accuracy() + 0.1);
    }

    #[test]
    fn partial_participation_trains_a_subset_and_costs_less() {
        let exp = small_experiment(false);
        let mut cfg = quick_cfg(Scheme::FedAvg, 10);
        cfg.participation = 0.5;
        let m_half = exp.run(&cfg);
        let m_full = exp.run(&quick_cfg(Scheme::FedAvg, 10));
        // Half the clients -> roughly half the per-epoch C2S traffic.
        assert!(m_half.traffic().c2s < m_full.traffic().c2s * 3 / 4);
        assert!(m_half.final_accuracy() > 0.3, "partial run failed to learn");
    }

    #[test]
    fn partial_participation_works_for_migration_schemes() {
        let exp = small_experiment(true);
        let mut cfg = quick_cfg(Scheme::fedmigr(3), 10);
        cfg.participation = 0.75;
        let m = exp.run(&cfg);
        assert!(m.epochs() == 10);
        assert!(m.migrations_local + m.migrations_global > 0);
    }

    #[test]
    fn aggregate_active_with_no_survivors_keeps_previous_global() {
        let ds = Arc::new(
            SyntheticDataset::generate(&SyntheticConfig {
                num_classes: 4,
                train_per_class: 8,
                test_per_class: 2,
                channels: 1,
                hw: 8,
                noise_std: 0.6,
                class_sep: 1.0,
                atom_bank: 0,
                atoms_per_class: 0,
                private_frac: 0.0,
                seed: 11,
            })
            .train,
        );
        let parts = partition_iid(&ds, 2, 1);
        let mk = |i: usize| {
            FlClient::new(
                i,
                ds.clone(),
                parts[i].clone(),
                zoo::mini_resnet(1, 8, 4, 1, NetScale::Small, 5),
                0.05,
                42,
            )
        };
        let mut clients = vec![mk(0), mk(1)];
        let uploads: Vec<Vec<f32>> = clients.iter_mut().map(|c| c.params()).collect();
        let prev_global = vec![0.25f32; uploads[0].len()];
        let mut stats = RobustStats::default();
        // An all-inactive round must fall back to the previous global model
        // instead of averaging an empty set.
        let out = aggregate_active(
            &clients,
            &uploads,
            &[false, false],
            &Aggregator::FedAvg,
            &prev_global,
            &mut stats,
        );
        assert_eq!(out, prev_global);
        assert!(!stats.any());
        // Sanity: with survivors the same call actually aggregates.
        let agg = aggregate_active(
            &clients,
            &uploads,
            &[true, true],
            &Aggregator::FedAvg,
            &prev_global,
            &mut stats,
        );
        assert_ne!(agg, prev_global);
    }

    #[test]
    fn validate_rejects_each_unsupported_fleet_option() {
        let fleet = || RunConfig {
            fleet: Some(crate::FleetOptions::default()),
            ..RunConfig::new(Scheme::fedmigr(1), 4)
        };
        assert_eq!(fleet().validate(), Ok(()));
        type Mutation = Box<dyn Fn(&mut RunConfig)>;
        let cases: Vec<(&str, Mutation)> = vec![
            ("epochs", Box::new(|c| c.epochs = 0)),
            ("sample_frac", Box::new(|c| c.fleet.as_mut().unwrap().sample_frac = 0.0)),
            ("top_m", Box::new(|c| c.fleet.as_mut().unwrap().top_m = 0)),
            ("FedAvg and FedMigr", Box::new(|c| c.scheme = Scheme::RandMigr)),
            ("identity codec", Box::new(|c| c.codec = CodecConfig::parse("int8").unwrap())),
            ("lockstep transport", Box::new(|c| c.transport = TransportConfig::flow(1))),
            ("fault injection", Box::new(|c| c.fault = FaultConfig::edge_churn(0.2, 1))),
            ("Byzantine", Box::new(|c| c.attack = AttackConfig::nan_inject(0.3, 1))),
            ("differential privacy", Box::new(|c| c.dp = Some(DpConfig::with_epsilon(1.0)))),
            ("FedAvg aggregator", Box::new(|c| c.aggregator = Aggregator::CoordinateMedian)),
            ("watchdog", Box::new(|c| c.watchdog.enabled = true)),
            ("participation", Box::new(|c| c.participation = 0.5)),
            ("checkpoint_every", Box::new(|c| c.checkpoint_every = Some(3))),
        ];
        for (name, mutate) in cases {
            let mut cfg = fleet();
            mutate(&mut cfg);
            let err = cfg.validate().expect_err(name);
            assert!(err.to_string().contains(name), "{name}: {err}");
        }
    }

    #[test]
    fn validate_applies_dense_rules_without_fleet_options() {
        let mut cfg = quick_cfg(Scheme::Fixed(crate::MigrationStrategy::Random), 4);
        cfg.codec = CodecConfig::parse("int8").unwrap();
        assert_eq!(cfg.validate(), Ok(()), "lossy codecs are dense-mode options");
        cfg.participation = 0.5;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("full participation"), "{err}");
    }

    #[test]
    #[should_panic(expected = "full participation")]
    fn fixed_strategies_require_full_participation() {
        let exp = small_experiment(true);
        let mut cfg = quick_cfg(Scheme::Fixed(crate::MigrationStrategy::Random), 4);
        cfg.participation = 0.5;
        let _ = exp.run(&cfg);
    }

    #[test]
    fn phase_breakdown_accounts_for_all_sim_time() {
        let exp = small_experiment(true);
        let m = exp.run(&quick_cfg(Scheme::fedmigr(3), 10));
        let p = m.phase();
        assert!(p.train_s > 0.0, "training advances the clock");
        assert!(p.c2s_s > 0.0, "initial distribution + aggregation advance the clock");
        assert!(p.migration_s > 0.0, "migration epochs advance the clock");
        assert_eq!(p.backoff_s, 0.0, "no fault model, no backoff");
        let tol = 1e-9 * m.sim_time().max(1.0);
        assert!(
            (p.total() - m.sim_time()).abs() <= tol,
            "phase total {} vs sim_time {}",
            p.total(),
            m.sim_time()
        );
        // Per-epoch breakdowns are cumulative and monotone.
        for w in m.records.windows(2) {
            assert!(w[1].phase.total() >= w[0].phase.total());
        }
    }

    #[test]
    fn faulty_run_attributes_backoff_time() {
        let exp = small_experiment(false);
        let mut cfg = quick_cfg(Scheme::FedAvg, 12);
        cfg.fault = fedmigr_net::FaultConfig::none();
        cfg.fault.c2s_outage_prob = 0.6;
        cfg.fault.seed = 2;
        let m = exp.run(&cfg);
        let p = m.phase();
        assert!(p.backoff_s > 0.0, "60% WAN outage must show up as backoff: {p:?}");
        let tol = 1e-9 * m.sim_time().max(1.0);
        assert!((p.total() - m.sim_time()).abs() <= tol);
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let exp = small_experiment(true);
        let a = exp.run(&quick_cfg(Scheme::RandMigr, 8));
        let b = exp.run(&quick_cfg(Scheme::RandMigr, 8));
        assert_eq!(a.final_accuracy(), b.final_accuracy());
        assert_eq!(a.traffic(), b.traffic());
    }

    #[test]
    fn explicit_no_fault_config_matches_default() {
        let exp = small_experiment(true);
        let base = exp.run(&quick_cfg(Scheme::RandMigr, 8));
        let mut cfg = quick_cfg(Scheme::RandMigr, 8);
        cfg.fault = fedmigr_net::FaultConfig::none();
        cfg.fault.seed = 99; // irrelevant: no fault process is enabled
        let m = exp.run(&cfg);
        assert_eq!(m.final_accuracy(), base.final_accuracy());
        assert_eq!(m.traffic(), base.traffic());
        assert_eq!(m.sim_time(), base.sim_time());
        assert!(!m.fault.any(), "no-fault run must observe zero faults");
        assert!(m.records.iter().all(|r| r.dropped_clients == 0 && r.stale_clients == 0));
    }

    #[test]
    fn faulty_migration_run_completes_and_accounts() {
        let exp = small_experiment(true);
        let mut cfg = quick_cfg(Scheme::RandMigr, 12);
        cfg.fault = fedmigr_net::FaultConfig::edge_churn(0.4, 17);
        let m = exp.run(&cfg);
        assert_eq!(m.epochs(), 12, "faults must not end the run early");
        assert!(m.fault.any(), "40% churn over 12 epochs should register");
        let recorded_drops: usize = m.records.iter().map(|r| r.dropped_clients).sum();
        assert_eq!(recorded_drops, m.fault.client_drops);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let exp = small_experiment(true);
        let mut cfg = quick_cfg(Scheme::fedmigr(3), 10);
        cfg.fault = fedmigr_net::FaultConfig::edge_churn(0.3, 5);
        let a = exp.run(&cfg);
        let b = exp.run(&cfg);
        assert_eq!(a.final_accuracy(), b.final_accuracy());
        assert_eq!(a.traffic(), b.traffic());
        assert_eq!(a.fault, b.fault);
    }

    #[test]
    fn flow_transport_runs_and_reports_stats() {
        let exp = small_experiment(false);
        let mut cfg = quick_cfg(Scheme::FedAvg, 10);
        cfg.transport = TransportConfig::flow(cfg.seed);
        let m = exp.run(&cfg);
        assert_eq!(m.epochs(), 10, "flow transport must complete every round");
        assert_eq!(m.transport, "flow");
        assert!(m.transport_stats.any(), "flows must be recorded");
        assert!(m.transport_stats.failed_flows == 0, "clean links must not fail flows");
        assert!(m.transport_summary().is_some());
        assert!(m.final_accuracy() > 0.4, "flow accounting must not break learning");
        // Contention makes concurrent uploads slower than the serialized
        // lockstep pricing never is; time moved and traffic was charged.
        assert!(m.sim_time() > 0.0);
        assert!(m.traffic().c2s > 0);
    }

    #[test]
    fn flow_runs_are_deterministic() {
        let exp = small_experiment(true);
        let mut cfg = quick_cfg(Scheme::RandMigr, 8);
        cfg.transport = TransportConfig::flow(cfg.seed);
        cfg.fault = fedmigr_net::FaultConfig::none().with_network_stress(0.3);
        cfg.fault.seed = 5;
        let a = exp.run(&cfg);
        let b = exp.run(&cfg);
        assert_eq!(a.final_accuracy(), b.final_accuracy());
        assert_eq!(a.traffic(), b.traffic());
        assert_eq!(a.transport_stats, b.transport_stats);
        assert_eq!(a.sim_time(), b.sim_time());
    }

    #[test]
    fn lockstep_run_ignores_transport_state() {
        // A default (lockstep) run must be bit-identical whether or not the
        // flow tuning or staleness policy fields are explicitly set: no flow
        // code path may consume RNG, clock, or meter state.
        let exp = small_experiment(true);
        let base = exp.run(&quick_cfg(Scheme::RandMigr, 8));
        let mut cfg = quick_cfg(Scheme::RandMigr, 8);
        cfg.transport = TransportConfig::Lockstep;
        cfg.stale = StalenessPolicy { discount: 0.2, max_age: 9 }; // irrelevant under lockstep
        let m = exp.run(&cfg);
        assert_eq!(m.final_accuracy(), base.final_accuracy());
        assert_eq!(m.traffic(), base.traffic());
        assert_eq!(m.sim_time(), base.sim_time());
        assert_eq!(m.transport, "lockstep");
        assert!(!m.transport_stats.any());
        assert!(m.records.iter().all(|r| r.retransmits == 0 && r.late_uploads == 0));
    }

    #[test]
    fn flow_under_network_stress_degrades_but_completes() {
        let exp = small_experiment(false);
        let mut cfg = quick_cfg(Scheme::FedAvg, 12);
        cfg.transport = TransportConfig::flow(cfg.seed);
        cfg.fault = fedmigr_net::FaultConfig::none().with_network_stress(0.5);
        cfg.fault.seed = 3;
        let stressed = exp.run(&cfg);
        assert_eq!(stressed.epochs(), 12, "burst loss must not stall the run");
        assert!(
            stressed.transport_stats.retransmits > 0,
            "50% burst-loss stress must force retransmits: {:?}",
            stressed.transport_stats
        );
        let mut clean_cfg = quick_cfg(Scheme::FedAvg, 12);
        clean_cfg.transport = TransportConfig::flow(clean_cfg.seed);
        let clean = exp.run(&clean_cfg);
        assert!(
            stressed.final_accuracy() >= clean.final_accuracy() - 0.15,
            "staleness-tolerant aggregation should keep stressed accuracy close: {} vs {}",
            stressed.final_accuracy(),
            clean.final_accuracy()
        );
    }

    #[test]
    fn flow_migration_schemes_complete_under_stress() {
        let exp = small_experiment(true);
        let mut cfg = quick_cfg(Scheme::fedmigr(3), 10);
        cfg.transport = TransportConfig::flow(cfg.seed);
        cfg.fault = fedmigr_net::FaultConfig::edge_churn(0.3, 5).with_network_stress(0.3);
        let m = exp.run(&cfg);
        assert_eq!(m.epochs(), 10);
        assert!(m.transport_stats.flows > 0);
        // Migration flows under churn + stress must exercise the fallback
        // accounting without losing the permutation invariant (the run
        // completing is the invariant check — a broken permutation panics
        // in set_params bookkeeping or diverges).
        assert!(m.final_accuracy() > 0.15);
    }

    #[test]
    fn fedavg_survives_wan_outages() {
        let exp = small_experiment(false);
        let mut cfg = quick_cfg(Scheme::FedAvg, 12);
        cfg.fault = fedmigr_net::FaultConfig::none();
        cfg.fault.c2s_outage_prob = 0.6;
        cfg.fault.seed = 2;
        let m = exp.run(&cfg);
        assert_eq!(m.epochs(), 12);
        assert!(m.fault.transfer_retries > 0, "60% WAN outage should force retries: {:?}", m.fault);
        assert!(m.fault.wasted_bytes > 0);
    }
}
