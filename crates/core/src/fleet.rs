//! The fleet runner: federated learning over populations far beyond what
//! the dense [`crate::Experiment`] can hold in memory.
//!
//! The dense runner materializes every client up front — dataset, model,
//! optimizer — plus `K × K` topology and migration matrices, so memory and
//! planning cost scale with the fleet even when only a handful of clients
//! participate per round. [`FleetExperiment`] inverts that: the population
//! lives in a [`ClientPool`] of ~100-byte dormant stubs, each round samples
//! a cohort (`sample_frac · K` participants), activates only those into
//! full [`FlClient`]s (regenerating their datasets deterministically from
//! the stub seed), trains, migrates, aggregates, and retires them back to
//! stubs. Peak RSS scales with the cohort, not `K`.
//!
//! Migration planning is factored the same way: instead of the dense
//! `K × K` objective, the DDPG agent sees a pooled fixed-dimension state
//! (per-LAN aggregates, `6 + 3·L` features) and picks a destination *LAN*;
//! [`plan_migrations`] then shortlists same-LAN plus `top_m` hash-sampled
//! cross-LAN candidates per participant and commits greedily — decision
//! cost is `O(n · (lan_size + top_m))` per round rather than `O(K²)`.
//!
//! Fleet mode is a new opt-in world (`RunConfig::fleet`), not a replay of
//! the dense one: its topology, assignment and sampling streams are seeded
//! independently, and the dense path stays byte-identical whether or not
//! this module exists. Checkpoints share the dense container format under
//! `mode = "fleet"` ([`crate::checkpoint::FleetRunState`]) and are written
//! only at aggregation boundaries, where every client is dormant — a
//! killed-and-resumed fleet run replays bit for bit.

use std::collections::HashMap;
use std::sync::Arc;

use fedmigr_data::{Dataset, SyntheticConfig, SyntheticWorld};
use fedmigr_drl::qp::FlmmRelaxation;
use fedmigr_drl::PooledMigrationState;
use fedmigr_fleet::LanProfile;
use fedmigr_fleet::{
    plan_migrations, ClientPool, FleetAssignment, FleetPlannerConfig, FleetTopology,
    FleetTopologyConfig,
};
use fedmigr_net::transfer_time;
use fedmigr_nn::Model;
use rand::rngs::StdRng;
use rand::Rng;

use crate::aggregate::Aggregator;
use crate::checkpoint::FleetRunState;
use crate::client::{ClientState, FlClient};
use crate::ledger::{AgentCtx, RunLedger};
use crate::metrics::{RobustStats, RunMetrics};
use crate::runner::{evaluate, RunConfig, VPhase};
use crate::scheme::Scheme;
use fedmigr_telemetry::span;

/// Fleet-mode knobs, carried in [`RunConfig::fleet`].
#[derive(Clone, Copy, Debug)]
pub struct FleetOptions {
    /// Fraction of the fleet sampled into each aggregation block's cohort
    /// (at least one client). Replaces `RunConfig::participation`, which
    /// fleet mode requires to stay at 1.0.
    pub sample_frac: f64,
    /// Shortlist width of the factored migration planner: cross-LAN
    /// candidates sampled per participant, and the per-source cap on
    /// retained candidates.
    pub top_m: usize,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self { sample_frac: 0.05, top_m: 8 }
    }
}

/// A fleet-scale experiment: the client population as a lazy pool, a
/// compact O(LANs) topology, a held-out test set and the model template.
pub struct FleetExperiment {
    pool: ClientPool,
    topo: FleetTopology,
    test: Dataset,
    template: Model,
}

impl FleetExperiment {
    /// Builds a fleet experiment from pre-built parts.
    ///
    /// # Panics
    /// Panics when the pool and topology disagree on fleet size.
    pub fn new(pool: ClientPool, topo: FleetTopology, test: Dataset, template: Model) -> Self {
        assert_eq!(pool.len(), topo.num_clients(), "pool/topology fleet size mismatch");
        Self { pool, topo, test, template }
    }

    /// Builds the standard synthetic fleet: `k` clients over `num_lans`
    /// LANs (sizes as even as possible), a blocked-shard label world whose
    /// run length equals `base_samples` (so each client holds one or two
    /// classes — the paper's non-IID shard partitioning, in closed form),
    /// and an interval assignment jittering each client's holding around
    /// `base_samples`.
    ///
    /// # Panics
    /// Panics when `k < num_lans` or any size is zero.
    pub fn synthetic(
        k: usize,
        num_lans: usize,
        base_samples: usize,
        test_per_class: usize,
        seed: u64,
        template: Model,
    ) -> Self {
        assert!(num_lans > 0 && k >= num_lans, "need at least one client per LAN");
        assert!(base_samples > 0 && test_per_class > 0);
        let cfg = SyntheticConfig::c10_like(base_samples, seed);
        let world = SyntheticWorld::new(&cfg, base_samples as u64);
        let test = world.test_split(test_per_class);
        let assignment = FleetAssignment::build(k, base_samples, seed);
        let mut tcfg = FleetTopologyConfig::uniform(num_lans, 1, seed);
        tcfg.lan_sizes =
            (0..num_lans).map(|l| k / num_lans + usize::from(l < k % num_lans)).collect();
        let topo = FleetTopology::new(tcfg);
        let pool = ClientPool::new(world, assignment, &topo, seed);
        Self::new(pool, topo, test, template)
    }

    /// Fleet size `K`.
    pub fn num_clients(&self) -> usize {
        self.pool.len()
    }

    /// The fleet topology.
    pub fn topology(&self) -> &FleetTopology {
        &self.topo
    }

    /// Executes `cfg` over the fleet and returns the collected metrics.
    /// `&mut self` because retiring participants banks their dormant state
    /// back into the pool.
    ///
    /// # Panics
    /// Panics with the [`RunConfig::validate`] message on configurations
    /// fleet mode does not support (lockstep transport, identity codec, no
    /// fault/attack/DP injection, FedAvg or FedMigr scheme); `cfg.fleet`
    /// defaults to [`FleetOptions::default`].
    pub fn run(&mut self, cfg: &RunConfig) -> RunMetrics {
        let opts = cfg.fleet.unwrap_or_default();
        if let Err(e) = (RunConfig { fleet: Some(opts), ..cfg.clone() }).validate() {
            panic!("{e}");
        }

        let k = self.pool.len();
        let cohort_n = ((opts.sample_frac * k as f64).ceil() as usize).clamp(1, k);
        let num_lans = self.topo.num_lans();
        let num_classes = self.pool.world().num_classes();
        let mut scratch = self.template.clone();
        let model_bytes = scratch.wire_bytes();
        fedmigr_telemetry::debug!(
            "core::fleet",
            "fleet run start: scheme={} K={k} cohort={cohort_n} lans={num_lans} epochs={} seed={}",
            cfg.scheme.name(),
            cfg.epochs,
            cfg.seed
        );

        // Static share of fleet data per LAN (a pooled-state feature).
        let lan_load: Vec<f64> = {
            let mut load = vec![0.0f64; num_lans];
            let mut total = 0.0f64;
            for id in 0..k {
                let stub = self.pool.stub(id);
                load[stub.lan as usize] += stub.len as f64;
                total += stub.len as f64;
            }
            load.iter().map(|&v| v / total).collect()
        };

        // The DDPG agent decides destination *LANs* from `6 + 3·L`-feature
        // pooled states, so its cost is independent of the fleet size.
        let pooled = PooledMigrationState::new(num_lans);
        let agent = AgentCtx::new(cfg, pooled.dim(), num_lans);
        let mut ledger = RunLedger::new(cfg, ("fleet", "core::fleet"), k, scratch.params(), agent);
        let mut start_epoch = 1usize;
        if let Some((state, _)) = ledger.load_resume(FleetRunState::from_bytes) {
            self.pool.import_dormant(state.dormant);
            start_epoch = ledger.restore(state.ledger) + 1;
            ledger.log_resumed(start_epoch - 1);
        }

        // Round-timeline capture (`--timeline-out`), sparse: tail intervals
        // only for clients that actually appeared, so a 10k-client fleet
        // round costs O(cohort) timeline lines. Intervals are keyed by
        // global client id; the fleet's lockstep transfers land as coarse
        // upload/migrate windows.
        let mut tcap = crate::timeline_capture::TimelineCapture::new(
            cfg.diag.timeline_out.as_deref(),
            "fleet",
            &cfg.scheme.name(),
            cfg.transport.name(),
            k,
            cfg.seed,
            true,
        );

        // Active cohort, in sampled-id order; empty between blocks. The
        // per-cohort model distribution and upload charges below are
        // participant-scoped: dormant clients hold no model, so nothing is
        // ever broadcast fleet-wide.
        let mut cohort: Vec<FlClient> = Vec::new();
        // Attributes kernel FLOP/byte/time deltas to the phase that just
        // closed; cheap no-op when accounting is off.
        let mut kphases = crate::kernels::KernelPhases::new();

        'round: for epoch in start_epoch..=cfg.epochs {
            let _round = fedmigr_telemetry::global().span_labeled(
                "core::fleet",
                "round",
                vec![
                    ("epoch".to_string(), epoch.to_string()),
                    ("scheme".to_string(), cfg.scheme.name()),
                ],
            );
            tcap.round_start(epoch, ledger.clock.now());
            // (0) Budget gate, matching the dense runner's round preamble.
            if ledger.meter.exhausted() {
                ledger.budget_exhausted = true;
                let blank = ledger.record(epoch, ledger.prev_loss.unwrap_or(0.0), None);
                ledger.records.push(blank);
                tcap.round_end(ledger.clock.now());
                break 'round;
            }
            ledger.begin_round();

            // (1) Cohort activation at each aggregation block's start:
            // sample, charge the participant-scoped downlink, materialize.
            if cohort.is_empty() {
                let _activate = span!("core::fleet", "cohort_activate");
                let ids = sample_cohort(&mut ledger.rng, k, cohort_n);
                ledger.meter.record_c2s(ids.len() as u64 * model_bytes);
                let t0 = ledger.clock.now();
                let adv =
                    ids.len() as f64 * transfer_time(model_bytes, self.topo.c2s_bandwidth(epoch));
                ledger.clock.advance(VPhase::C2s, adv);
                if tcap.active() {
                    for &id in &ids {
                        tcap.upload(id, t0, adv, adv, false);
                    }
                }
                cohort = self.activate(&ids, &ledger.global, cfg.lr);
            }
            kphases.credit("cohort_activate");
            let n = cohort.len();

            // (2) Local training, straggler-limited by device tier.
            let train_span = span!("core::fleet", "local_train");
            let times: Vec<f64> = cohort
                .iter()
                .map(|c| {
                    let tier = self.pool.stub(c.id()).tier;
                    c.num_samples() as f64 / tier.samples_per_second()
                })
                .collect();
            let compute: f64 = cohort.iter().map(|c| c.num_samples() as f64).sum();
            let losses = train_cohort(&mut cohort, cfg.batch_size, cfg.max_batches_per_epoch);
            ledger.meter.record_compute(compute);
            let train_t0 = ledger.clock.now();
            if tcap.active() {
                let phase_end = train_t0 + times.iter().fold(0.0f64, |a, &b| a.max(b));
                for (c, &t) in cohort.iter().zip(&times) {
                    tcap.train(c.id(), train_t0, train_t0 + t, phase_end);
                }
            }
            ledger.clock.advance_parallel(VPhase::Train, times);
            let mean_loss: f32 = {
                let w: f64 = cohort.iter().map(|c| c.num_samples() as f64).sum();
                (losses
                    .iter()
                    .zip(&cohort)
                    .map(|(&l, c)| l as f64 * c.num_samples() as f64)
                    .sum::<f64>()
                    / w) as f32
            };
            drop(train_span);
            kphases.credit("local_train");

            // (3) Pooled DRL states for this round, and the reward for the
            // previous round's pending decisions (Eq. 17).
            let decision_span = span!("core::fleet", "decision");
            let lans: Vec<u32> = cohort.iter().map(|c| self.pool.stub(c.id()).lan).collect();
            let marginals: Vec<&[f32]> =
                cohort.iter().map(|c| self.pool.stub(c.id()).marginal.as_slice()).collect();
            let states: Option<Vec<Vec<f32>>> = ledger.agent.as_ref().map(|_| {
                let profile = LanProfile::build(&lans, &marginals, num_lans, num_classes);
                let active_frac: Vec<f64> = {
                    let mut f = vec![0.0f64; num_lans];
                    for &l in &lans {
                        f[l as usize] += 1.0 / n as f64;
                    }
                    f
                };
                let dloss =
                    ledger.prev_loss.map(|p| ((mean_loss - p) / p.max(1e-6)) as f64).unwrap_or(0.0);
                (0..n)
                    .map(|i| {
                        pooled.build(
                            epoch as f64 / cfg.epochs as f64,
                            mean_loss as f64,
                            dloss,
                            ledger.meter.bandwidth_remaining_frac(),
                            ledger.meter.compute_remaining_frac(),
                            1.0,
                            &profile.distance_row(marginals[i]),
                            &active_frac,
                            &lan_load,
                        )
                    })
                    .collect()
            });
            ledger.settle_rewards(mean_loss, states.as_deref());
            drop(decision_span);
            kphases.credit("decision");

            // (4) Communication: C2C migration between aggregations
            // (FedMigr), or upload + aggregate + retire on block ends.
            let is_agg = match cfg.scheme {
                Scheme::FedAvg => true,
                _ => epoch.is_multiple_of(cfg.agg_interval),
            };
            let is_eval = epoch.is_multiple_of(cfg.eval_interval) || epoch == cfg.epochs;
            let mut accuracy = None;
            if is_agg {
                let agg_span = span!("core::fleet", "aggregate");
                ledger.meter.record_c2s(n as u64 * model_bytes);
                let t0 = ledger.clock.now();
                let adv = n as f64 * transfer_time(model_bytes, self.topo.c2s_bandwidth(epoch));
                ledger.clock.advance(VPhase::C2s, adv);
                if tcap.active() {
                    for c in &cohort {
                        tcap.upload(c.id(), t0, adv, adv, false);
                    }
                }
                ledger.global = aggregate_cohort(&mut cohort, &ledger.global);
                drop(agg_span);
                kphases.credit("aggregate");
                if is_eval {
                    let _eval = span!("core::fleet", "evaluate");
                    accuracy = Some(evaluate(&mut scratch, &self.test, &ledger.global));
                    kphases.credit("evaluate");
                }
                let retire_span = span!("core::fleet", "retire");
                for c in cohort.iter_mut() {
                    let st = c.export_state();
                    self.pool.retire(c.id(), st.rng, st.migrations_received as u64);
                }
                cohort.clear();
                fedmigr_telemetry::rss::record_peak_rss();
                drop(retire_span);
                kphases.credit("retire");
            } else {
                let migrate_span = span!("core::fleet", "migrate");
                if let (Some(ctx), Some(states)) = (ledger.agent.as_mut(), states.as_ref()) {
                    ctx.begin_decisions(epoch);
                    // LAN-level FLMM oracle: L × L instead of K × K.
                    let profile = LanProfile::build(&lans, &marginals, num_lans, num_classes);
                    let relax = FlmmRelaxation {
                        benefit: profile.benefit_matrix(),
                        cost: self.lan_cost_matrix(model_bytes),
                        lambda: ctx.fc.lambda,
                        entropy: 0.05,
                    };
                    let oracle = relax.solve(40, 0.4);
                    let desired: Vec<u32> = (0..n)
                        .map(|i| {
                            ctx.agent.select_action(&states[i], Some(&oracle[lans[i] as usize]))
                                as u32
                        })
                        .collect();
                    let gids: Vec<usize> = cohort.iter().map(|c| c.id()).collect();
                    let cross_slow = self.topo.config().cross_slow_bandwidth;
                    let pcfg = FleetPlannerConfig {
                        top_m: opts.top_m,
                        lambda: ctx.fc.lambda,
                        seed: cfg.seed ^ 0x00F1_EE75,
                    };
                    let dest = plan_migrations(
                        &pcfg,
                        epoch as u64,
                        &lans,
                        &marginals,
                        &desired,
                        |i, j| {
                            // Normalized transfer price: slowest link = 1.
                            cross_slow / self.topo.c2c_bandwidth(gids[i], gids[j], epoch)
                        },
                    );
                    for (i, state) in states.iter().enumerate() {
                        ctx.decide(epoch, state, lans[dest[i]] as usize, i);
                    }

                    // Execute the permutation: model of position i lands on
                    // position dest[i]'s host.
                    let moves: Vec<(usize, usize)> = dest
                        .iter()
                        .enumerate()
                        .filter(|&(i, &d)| d != i)
                        .map(|(i, &d)| (i, d))
                        .collect();
                    if !moves.is_empty() {
                        let payloads: HashMap<usize, Vec<f32>> =
                            moves.iter().map(|&(i, _)| (i, cohort[i].params())).collect();
                        let mut move_times = Vec::with_capacity(moves.len());
                        let mig_t0 = ledger.clock.now();
                        for &(i, d) in &moves {
                            let local = self.topo.same_lan(gids[i], gids[d]);
                            ledger.meter.record_c2c(model_bytes, local);
                            let time = transfer_time(
                                model_bytes,
                                self.topo.c2c_bandwidth(gids[i], gids[d], epoch),
                            );
                            tcap.migrate(gids[i], mig_t0, time);
                            move_times.push(time);
                            if local {
                                ledger.migrations_local += 1;
                            } else {
                                ledger.migrations_global += 1;
                            }
                        }
                        ledger.clock.advance_parallel(VPhase::Migration, move_times);
                        for &(i, d) in &moves {
                            cohort[d].set_params(&payloads[&i], true);
                        }
                    }
                }
                drop(migrate_span);
                kphases.credit("migrate");
                if is_eval {
                    // Shadow aggregation — observation only, the cohort's
                    // models are untouched.
                    let _eval = span!("core::fleet", "evaluate");
                    let shadow = aggregate_cohort(&mut cohort, &ledger.global);
                    accuracy = Some(evaluate(&mut scratch, &self.test, &shadow));
                    kphases.credit("evaluate");
                }
            }

            // (5) Bookkeeping, cadenced checkpoints, stop conditions.
            let book_span = span!("core::fleet", "bookkeeping");
            ledger.end_round(ledger.record(epoch, mean_loss, accuracy));
            tcap.round_end(ledger.clock.now());
            ledger.learn();
            // Checkpoints only at block boundaries: the cohort was just
            // retired, so the dormant stubs are the complete per-client state
            // (and the block's pending decisions were settled a round ago).
            if is_agg && cfg.checkpoint_every.is_some_and(|every| epoch.is_multiple_of(every)) {
                debug_assert!(cohort.is_empty());
                let state = FleetRunState {
                    ledger: ledger.capture(epoch),
                    dormant: self.pool.export_dormant(),
                };
                ledger.write_checkpoint(epoch, &state.to_bytes(&ledger.stamp));
            }
            if ledger.should_stop(accuracy) || ledger.kill_switch(epoch) {
                break 'round;
            }
            drop(book_span);
            kphases.credit("bookkeeping");
        }

        fedmigr_telemetry::rss::record_peak_rss();
        if !ledger.killed {
            tcap.finish(ledger.records.len());
        }
        ledger.finish()
    }

    /// Activates `ids` into full clients: datasets are rematerialized (in
    /// parallel — materialization dominates), the current global model is
    /// installed, and previously-activated clients resume their banked RNG
    /// stream and migration counter.
    fn activate(&self, ids: &[usize], global: &[f32], lr: f32) -> Vec<FlClient> {
        let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        let chunk = ids.len().div_ceil(workers.max(1)).max(1);
        let mut out = Vec::with_capacity(ids.len());
        // `Model` is Send but not Sync (boxed layers), so clone the models
        // here and move them into the workers; only the pool is shared.
        let pool = &self.pool;
        std::thread::scope(|s| {
            let handles: Vec<_> = ids
                .chunks(chunk)
                .map(|part| {
                    let models: Vec<Model> = part.iter().map(|_| self.template.clone()).collect();
                    s.spawn(move || {
                        part.iter()
                            .zip(models)
                            .map(|(&id, model)| activate_one(pool, id, model, global, lr))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                out.extend(h.join().expect("fleet activation panicked"));
            }
        });
        out
    }

    /// LAN-level migration cost matrix for the pooled FLMM oracle,
    /// normalized so the most expensive class costs 1. Cross-LAN entries
    /// use the expected bandwidth over the moderate/slow link-class mix.
    fn lan_cost_matrix(&self, model_bytes: u64) -> Vec<Vec<f64>> {
        let c = self.topo.config();
        let l = self.topo.num_lans();
        let cross_bw = (1.0 - c.slow_fraction) * c.cross_moderate_bandwidth
            + c.slow_fraction * c.cross_slow_bandwidth;
        let intra = model_bytes as f64 / c.lan_bandwidth;
        let cross = model_bytes as f64 / cross_bw;
        let max = intra.max(cross).max(1e-12);
        (0..l)
            .map(|a| (0..l).map(|b| if a == b { intra / max } else { cross / max }).collect())
            .collect()
    }
}

/// Activates one client: rematerializes its dataset from the stub range,
/// installs the current global model, and — if it has participated before —
/// resumes its banked batch-order RNG stream and migration counter
/// (dormant clients keep no model).
fn activate_one(pool: &ClientPool, id: usize, model: Model, global: &[f32], lr: f32) -> FlClient {
    let stub = pool.stub(id);
    let data = Arc::new(pool.materialize(id));
    let indices: Vec<usize> = (0..stub.len as usize).collect();
    let mut client = FlClient::new(id, data, indices.clone(), model, lr, stub.seed);
    match stub.dormant.rng {
        Some(saved) => client.import_state(ClientState {
            params: global.to_vec(),
            rng: saved,
            indices,
            migrations_received: stub.dormant.migrations_received as usize,
        }),
        None => client.set_params(global, false),
    }
    client
}

/// Samples `n` distinct client ids from `0..k` — a partial Fisher–Yates
/// over a sparse swap map, `O(n)` time and memory regardless of `k`, so a
/// million-client fleet never allocates a fleet-sized scratch vector.
/// Returns ids in ascending order (the cohort's canonical order).
fn sample_cohort(rng: &mut StdRng, k: usize, n: usize) -> Vec<usize> {
    debug_assert!(n >= 1 && n <= k);
    let mut swapped: HashMap<usize, usize> = HashMap::with_capacity(2 * n);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let j = rng.random_range(i..k);
        let vi = *swapped.get(&i).unwrap_or(&i);
        let vj = *swapped.get(&j).unwrap_or(&j);
        out.push(vj);
        swapped.insert(j, vi);
    }
    out.sort_unstable();
    out
}

/// One parallel local epoch over the cohort; returns per-position losses.
fn train_cohort(
    cohort: &mut [FlClient],
    batch_size: usize,
    max_batches: Option<usize>,
) -> Vec<f32> {
    let n = cohort.len();
    let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let chunk = n.div_ceil(workers.max(1)).max(1);
    let mut losses = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = cohort
            .chunks_mut(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter_mut()
                        .map(|c| c.train_epoch(batch_size, max_batches, None))
                        .collect::<Vec<f32>>()
                })
            })
            .collect();
        for h in handles {
            losses.extend(h.join().expect("fleet training panicked"));
        }
    });
    losses
}

/// Sample-weighted FedAvg over the cohort's models (Eq. 7), bit-identical
/// to the dense aggregator's FedAvg rule.
fn aggregate_cohort(cohort: &mut [FlClient], prev_global: &[f32]) -> Vec<f32> {
    let params: Vec<Vec<f32>> = cohort.iter_mut().map(|c| c.params()).collect();
    let entries: Vec<(&[f32], f64)> = params
        .iter()
        .zip(cohort.iter())
        .map(|(p, c)| (p.as_slice(), c.num_samples() as f64))
        .collect();
    let mut stats = RobustStats::default();
    Aggregator::FedAvg.aggregate(&entries, prev_global, &mut stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmigr_compress::CodecConfig;
    use fedmigr_nn::zoo::{c10_cnn, NetScale};
    use rand::SeedableRng;

    fn small_fleet(k: usize, lans: usize, seed: u64) -> FleetExperiment {
        FleetExperiment::synthetic(k, lans, 24, 4, seed, c10_cnn(3, 8, NetScale::Small, seed))
    }

    fn fleet_cfg(scheme: Scheme, epochs: usize) -> RunConfig {
        let mut cfg = RunConfig::new(scheme, epochs);
        cfg.agg_interval = 2;
        cfg.eval_interval = 2;
        cfg.batch_size = 8;
        cfg.max_batches_per_epoch = Some(2);
        cfg.fleet = Some(FleetOptions { sample_frac: 0.25, top_m: 4 });
        cfg
    }

    #[test]
    fn fedavg_fleet_run_completes() {
        let mut exp = small_fleet(40, 2, 11);
        let m = exp.run(&fleet_cfg(Scheme::FedAvg, 4));
        assert_eq!(m.records.len(), 4);
        assert!(m.records.last().unwrap().test_accuracy.is_some());
        assert_eq!(m.migrations_local + m.migrations_global, 0);
        assert!(m.traffic().total() > 0);
        assert!(m.sim_time() > 0.0);
    }

    #[test]
    fn fedmigr_fleet_migrates_and_is_deterministic() {
        let run = || {
            let mut exp = small_fleet(40, 4, 5);
            exp.run(&fleet_cfg(Scheme::fedmigr(5), 6))
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_csv(), b.to_csv(), "fleet runs must be deterministic in the seed");
        assert_eq!(a.migrations_local, b.migrations_local);
        assert_eq!(a.migrations_global, b.migrations_global);
        assert!(
            a.migrations_local + a.migrations_global > 0,
            "shard-non-IID cohorts should trigger migrations"
        );
    }

    #[test]
    fn reactivated_clients_resume_their_rng_stream() {
        // With a 100% cohort and agg every epoch, every client re-activates
        // each round; determinism across two identical runs exercises the
        // retire/import path.
        let mut cfg = fleet_cfg(Scheme::FedAvg, 3);
        cfg.agg_interval = 1;
        cfg.fleet = Some(FleetOptions { sample_frac: 1.0, top_m: 2 });
        let a = small_fleet(10, 2, 3).run(&cfg);
        let b = small_fleet(10, 2, 3).run(&cfg);
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn fleet_checkpoint_resume_is_byte_identical() {
        let dir = std::env::temp_dir().join(format!("fedmigr_fleet_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = fleet_cfg(Scheme::fedmigr(9), 8);
        cfg.checkpoint_every = Some(2);
        cfg.checkpoint_dir = Some(dir.to_string_lossy().into_owned());

        let full = small_fleet(24, 3, 9).run(&cfg);

        let mut killed_cfg = cfg.clone();
        killed_cfg.kill_at = Some(5);
        let _ = small_fleet(24, 3, 9).run(&killed_cfg);
        let mut resume_cfg = cfg.clone();
        resume_cfg.resume = Some(dir.join("latest.fmrs").to_string_lossy().into_owned());
        let resumed = small_fleet(24, 3, 9).run(&resume_cfg);

        assert_eq!(full.to_csv(), resumed.to_csv(), "kill + resume must replay bit for bit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "fleet mode")]
    fn fleet_rejects_lossy_codecs() {
        let mut cfg = fleet_cfg(Scheme::FedAvg, 2);
        cfg.codec = CodecConfig::Uniform { bits: 8, error_feedback: false };
        small_fleet(10, 2, 1).run(&cfg);
    }

    #[test]
    fn sample_cohort_is_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let ids = sample_cohort(&mut rng, 100, 13);
            assert_eq!(ids.len(), 13);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
            assert!(ids.iter().all(|&i| i < 100));
        }
    }
}
