//! The traced run: per-layer metrics.
//!
//! Three sources, none of which adds tracing inside the program:
//!
//! 1. Full runs of the workload with the program's own observability on
//!    (kernel accounting and span histograms), alternated with untraced
//!    runs. The traced runs' registry gives the runner/fleet phase wall
//!    times, per-phase CPU, per-phase kernel counters and codec transfer
//!    times; `RunMetrics` gives the transport and compression counters.
//!    Every run's CSV must equal the first untraced run's.
//! 2. One more run with checkpointing on, whose saved state is re-encoded
//!    and decoded (its CSV must match too).
//! 3. Timed calls into each layer's public entry points at the workload's
//!    shapes (model, batch, client count, LANs, codec, flow config).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fedmigr_bench::Scale;
use fedmigr_compress::Compressor;
use fedmigr_core::{
    Aggregator, FlClient, FleetRunState, MigrationPlan, RobustStats, RunConfig, RunMetrics,
    RunStamp, RunState,
};
use fedmigr_data::{partition_shards, Dataset, SyntheticConfig, SyntheticDataset, SyntheticWorld};
use fedmigr_drl::{AgentConfig, DdpgAgent, MigrationState, PooledMigrationState, Transition};
use fedmigr_fleet::{plan_migrations, FleetAssignment, FleetPlannerConfig};
use fedmigr_net::{simulate_c2s, simulate_migrations, FaultModel, FlowConfig, Topology};
use fedmigr_nn::zoo::{self, NetScale};
use fedmigr_nn::{Model, Sgd};
use fedmigr_telemetry::{names, PHASE_SECONDS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::{guarded, Tally};
use crate::e2e::{checked_run, set_observation};
use crate::report::Report;
use crate::stats::median;
use crate::workload::{self, Workload};

/// Kernel-accounting phases broken out per phase.
const TENSOR_PHASES: [&str; 3] = ["local_train", "evaluate", "agent_update"];
/// Dense-runner phases reported as `runner.<phase>.s`.
const RUNNER_PHASES: [&str; 8] = [
    "local_train",
    "communicate",
    "migration_plan",
    "migration_transfer",
    "aggregate",
    "evaluate",
    "agent_update",
    "round",
];
/// Fleet-runner phases reported as `fleet.<phase>.s`.
const FLEET_PHASES: [&str; 5] = ["local_train", "cohort_activate", "retire", "migrate", "round"];
const CODEC_SECONDS: &str = "fedmigr_codec_transfer_seconds";

/// Median nanoseconds per call of `f`, over at least five timed calls
/// after one warm-up call, for about `budget`.
fn bench_ns<T>(budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

/// Median seconds of `reps` calls of `f`.
fn time_s<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// `(count, sum)` of every histogram series of `family` whose labels
/// contain `(key, value)` pairs matching `filter`, keyed by `by` label.
fn histograms(family: &str, filter: (&str, &str), by: &str) -> BTreeMap<String, (u64, f64)> {
    let mut out: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    let reg = fedmigr_telemetry::global().registry();
    for (labels, snap) in reg.histogram_family(family) {
        let get = |k: &str| labels.iter().find(|(lk, _)| lk == k).map(|(_, v)| v.as_str());
        if !filter.0.is_empty() && get(filter.0) != Some(filter.1) {
            continue;
        }
        let e = out.entry(get(by).unwrap_or_default().to_string()).or_default();
        e.0 += snap.count;
        e.1 += snap.sum;
    }
    out
}

/// Per `(kernel, phase)` totals of one kernel counter family.
fn kernel_counter(family: &str) -> BTreeMap<(String, String), u64> {
    let reg = fedmigr_telemetry::global().registry();
    reg.counter_family(family)
        .into_iter()
        .map(|(labels, v)| {
            let get = |k: &str| {
                labels.iter().find(|(lk, _)| lk == k).map(|(_, v)| v.clone()).unwrap_or_default()
            };
            ((get("kernel"), get("phase")), v)
        })
        .collect()
}

/// The workload's shapes, for calls into single layers.
struct Shape {
    /// Participants per round.
    k: usize,
    model: Model,
    train: Arc<Dataset>,
    test: Dataset,
    /// One client's sample indices.
    client: Vec<usize>,
    /// Topology and flow settings of a flow-transport workload, the only
    /// kind whose runner calls the flow simulator.
    net: Option<(Topology, FlowConfig)>,
}

impl Shape {
    fn new(w: Workload, seed: u64, cfg: &RunConfig) -> Shape {
        if w.is_fleet() {
            let k = (workload::FLEET_SAMPLE_FRAC * workload::FLEET_CLIENTS as f64).ceil() as usize;
            let data = SyntheticDataset::generate(&SyntheticConfig::c10_like(
                workload::FLEET_BASE_SAMPLES,
                seed,
            ));
            let client = partition_shards(&data.train, 10, 1, seed).swap_remove(0);
            Shape {
                k,
                model: zoo::c10_cnn(3, 8, NetScale::Small, seed),
                train: Arc::new(data.train),
                test: data.test,
                client,
                net: None,
            }
        } else {
            let paper = w.paper_workload();
            let k = paper.clients();
            let data = SyntheticDataset::generate(&dense_data_config(w, seed));
            let per = (data.train.num_classes() / k).max(1);
            let client = partition_shards(&data.train, k, per, seed).swap_remove(0);
            Shape {
                k,
                model: paper.model(seed),
                train: Arc::new(data.train),
                test: data.test,
                client,
                net: cfg
                    .transport
                    .flow_config()
                    .map(|fc| (Topology::new(&paper.topology_config(seed)), *fc)),
            }
        }
    }
}

/// The synthetic-data config `build_experiment_with_samples` uses for a
/// dense workload.
fn dense_data_config(w: Workload, seed: u64) -> SyntheticConfig {
    let mut c = w.paper_workload().data_config(Scale::Smoke, seed);
    if let Some(n) = w.per_class() {
        c.train_per_class = n;
    }
    c
}

/// Full runs, untraced and traced in alternation: the run seconds of each
/// kind, the codec histogram's growth over the traced runs, and the last
/// traced run's metrics. The traced runs' other readings stay in the
/// global registry.
struct FullRuns {
    plain_s: Vec<f64>,
    traced_s: Vec<f64>,
    codec: (u64, f64),
    metrics: Option<RunMetrics>,
}

fn full_runs(
    w: Workload,
    seed: u64,
    cfg: &RunConfig,
    window: Duration,
    tally: &mut Tally,
    reference: &mut Option<String>,
) -> FullRuns {
    let reg = fedmigr_telemetry::global().registry();
    let start = Instant::now();
    let mut out =
        FullRuns { plain_s: Vec::new(), traced_s: Vec::new(), codec: (0, 0.0), metrics: None };
    reg.clear();
    fedmigr_tensor::kcount::reset();
    while out.traced_s.is_empty() || start.elapsed() < window {
        set_observation(false);
        let run = checked_run(w, seed, cfg, reference);
        tally.record("untraced run", run.as_ref().err());
        if let Ok((dt, _)) = run {
            out.plain_s.push(dt);
        }
        // The codec histogram records whether or not spans are on, so
        // only its growth across traced runs counts.
        let before = histograms(CODEC_SECONDS, ("", ""), "").remove("").unwrap_or_default();
        set_observation(true);
        let run = checked_run(w, seed, cfg, reference);
        set_observation(false);
        tally.record("traced run", run.as_ref().err());
        let after = histograms(CODEC_SECONDS, ("", ""), "").remove("").unwrap_or_default();
        out.codec.0 += after.0 - before.0;
        out.codec.1 += after.1 - before.1;
        if let Ok((dt, m)) = run {
            out.traced_s.push(dt);
            out.metrics = Some(m);
        }
    }
    out
}

/// Runs the workload once with a checkpoint at its last epoch and returns
/// the saved state's encode/decode nanoseconds and size (`None` when the
/// run itself failed, which is already counted).
fn checkpoint_layer(
    w: Workload,
    seed: u64,
    cfg: &RunConfig,
    shape: &Shape,
    tally: &mut Tally,
    reference: &mut Option<String>,
    budget: Duration,
) -> Result<Option<(f64, f64, f64)>, String> {
    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench_tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut ckpt_cfg = cfg.clone();
    ckpt_cfg.checkpoint_every = Some(cfg.epochs);
    ckpt_cfg.checkpoint_dir = Some(dir.to_string_lossy().into_owned());
    let run = checked_run(w, seed, &ckpt_cfg, reference);
    tally.record("checkpointed run", run.as_ref().err());
    let bytes = std::fs::read(dir.join("latest.fmrs")).map_err(|e| e.to_string());
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        // Removes the shared parent only once it is empty.
        let _ = std::fs::remove_dir(parent);
    }
    if run.is_err() {
        return Ok(None);
    }
    let bytes = bytes?;
    let stamp = RunStamp {
        scheme: cfg.scheme.name(),
        seed: cfg.seed,
        epochs: cfg.epochs as u64,
        clients: if w.is_fleet() { workload::FLEET_CLIENTS } else { shape.k } as u64,
        num_params: shape.model.num_params() as u64,
        codec: cfg.codec.name(),
        transport: cfg.transport.name().into(),
        agg_interval: cfg.agg_interval as u64,
        mode: if w.is_fleet() { "fleet" } else { "dense" }.into(),
    };
    let (enc, dec) = if w.is_fleet() {
        let state = FleetRunState::from_bytes(&bytes, &stamp).map_err(|e| e.to_string())?;
        (
            bench_ns(budget, || state.to_bytes(&stamp)),
            bench_ns(budget, || FleetRunState::from_bytes(&bytes, &stamp)),
        )
    } else {
        let state = RunState::from_bytes(&bytes, &stamp).map_err(|e| e.to_string())?;
        (
            bench_ns(budget, || state.to_bytes(&stamp)),
            bench_ns(budget, || RunState::from_bytes(&bytes, &stamp)),
        )
    };
    Ok(Some((enc, dec, bytes.len() as f64)))
}

/// A DDPG agent at the workload's state and action sizes, its replay
/// filled past warm-up; returns (agent, a state, oracle scores).
fn filled_agent(w: Workload, shape: &Shape, seed: u64) -> (DdpgAgent, Vec<f32>, Vec<f64>) {
    let (dim, actions) = if w.is_fleet() {
        let lans = workload::FLEET_LANS;
        (PooledMigrationState::new(lans).dim(), lans)
    } else {
        (MigrationState::new(shape.k).dim(), shape.k)
    };
    let mut agent = DdpgAgent::new(AgentConfig::new(dim, actions, seed));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = || (0..dim).map(|_| rng.random_range(0.0f32..1.0)).collect::<Vec<f32>>();
    let warmup = agent.config().warmup;
    for i in 0..2 * warmup {
        let t = Transition {
            state: state(),
            action: i % actions,
            reward: (i % 7) as f32 / 7.0 - 0.5,
            next_state: state(),
            done: i % 30 == 29,
        };
        agent.observe(t);
    }
    let s = state();
    let oracle = (0..actions).map(|a| (a as f64 * 0.37).sin()).collect();
    (agent, s, oracle)
}

/// Measures `w`'s per-layer metrics for runs of `epochs` under `seed` in
/// about `seconds`.
pub fn measure(w: Workload, seed: u64, epochs: usize, seconds: f64) -> (Report, String) {
    let cfg = w.config(seed, epochs);
    let mut tally = Tally::default();
    let mut reference = None;
    let mut r = Report::default();
    let micro = Duration::from_secs_f64((seconds / 60.0).clamp(0.05, 0.5));

    // Full runs first, so the registry holds only their readings.
    let runs = full_runs(
        w,
        seed,
        &cfg,
        Duration::from_secs_f64(seconds / 2.0),
        &mut tally,
        &mut reference,
    );
    let n = runs.traced_s.len().max(1) as f64;
    let phases = |target: &str| histograms(PHASE_SECONDS, ("target", target), "phase");
    let runner = phases("core::runner");
    let fleet = phases("core::fleet");
    let drl = phases("drl::agent");
    let secs = |m: &BTreeMap<String, (u64, f64)>, p: &str| m.get(p).map_or(0.0, |e| e.1) / n;

    // tensor: kernel counters per (kernel, phase).
    let calls = kernel_counter(names::KERNEL_CALLS_TOTAL);
    let flops = kernel_counter(names::KERNEL_FLOPS_TOTAL);
    let bytes = kernel_counter(names::KERNEL_BYTES_TOTAL);
    let nanos = kernel_counter(names::KERNEL_NANOS_TOTAL);
    let sum = |c: &BTreeMap<(String, String), u64>, kernel: Option<&str>, phase: Option<&str>| {
        c.iter()
            .filter(|((k, p), _)| kernel.is_none_or(|x| x == k) && phase.is_none_or(|x| x == p))
            .fold(0.0, |acc, (_, v)| acc + *v as f64)
            / n
    };
    for phase in std::iter::once(None).chain(TENSOR_PHASES.iter().map(|p| Some(*p))) {
        let prefix = phase.map_or_else(|| "tensor".to_string(), |p| format!("tensor.{p}"));
        for kernel in ["matmul", "transpose", "im2col", "col2im"] {
            r.push(&format!("{prefix}.{kernel}.ns"), "ns", sum(&nanos, Some(kernel), phase));
        }
        let mm_ns = sum(&nanos, Some("matmul"), phase);
        let mm_flops = sum(&flops, Some("matmul"), phase);
        r.push(
            &format!("{prefix}.matmul.gflops"),
            "GFLOP/s",
            if mm_ns > 0.0 { mm_flops / mm_ns } else { 0.0 },
        );
        r.push(&format!("{prefix}.bytes_moved"), "B", sum(&bytes, None, phase));
        r.push(&format!("{prefix}.calls"), "count", sum(&calls, None, phase));
    }

    // core::runner / core::fleet phases.
    for p in RUNNER_PHASES {
        r.push(&format!("runner.{p}.s"), "s", secs(&runner, p));
    }
    for p in FLEET_PHASES {
        r.push(&format!("fleet.{p}.s"), "s", secs(&fleet, p));
    }
    let cpu = fedmigr_telemetry::global()
        .registry()
        .counter_family(names::PHASE_CPU_NANOS_TOTAL)
        .into_iter()
        .filter(|(l, _)| l.iter().any(|(k, v)| k == "phase" && v == "local_train"))
        .fold(0.0, |acc, (_, v)| acc + v as f64)
        / n
        / 1e9;
    let train_wall = secs(&runner, "local_train") + secs(&fleet, "local_train");
    r.push(
        "runner.local_train.cpu_per_wall",
        "ratio",
        if train_wall > 0.0 { cpu / train_wall } else { 0.0 },
    );

    // compress / net / drl counters from the traced runs.
    let m = runs.metrics.clone();
    let ts = m.as_ref().map(|m| m.transport_stats).unwrap_or_default();
    r.push("compress.transfer.s", "s", runs.codec.1 / n);
    r.push("compress.transfers", "count", runs.codec.0 as f64 / n);
    r.push("compress.ratio", "ratio", m.as_ref().map_or(0.0, |m| m.compression.ratio()));
    r.push("net.flows", "count", ts.flows as f64);
    r.push("net.retransmits", "count", ts.retransmits as f64);
    r.push("net.timeouts", "count", ts.timeouts as f64);
    r.push("net.flows_failed", "count", ts.failed_flows as f64);
    r.push("net.late_uploads", "count", ts.late_uploads as f64);
    r.push("net.link_util", "fraction", ts.mean_link_utilization);
    r.push("drl.updates", "count", drl.get("update").map_or(0.0, |e| e.0 as f64) / n);
    r.push(
        "client.non_finite_batches",
        "count",
        m.as_ref().map_or(0.0, |m| m.robust.nan_batches as f64),
    );

    // Single-layer calls at the workload's shapes, untraced.
    set_observation(false);
    let shape = Shape::new(w, seed, &cfg);
    match checkpoint_layer(w, seed, &cfg, &shape, &mut tally, &mut reference, micro) {
        Ok(Some((enc, dec, size))) => {
            r.push("checkpoint.encode.ns", "ns", enc);
            r.push("checkpoint.decode.ns", "ns", dec);
            r.push("checkpoint.bytes", "B", size);
        }
        Ok(None) => {}
        Err(e) => tally.record("checkpoint layer", Some(&e)),
    }
    let layer_calls = guarded(|| single_layers(w, seed, &cfg, &shape, micro));
    match layer_calls {
        Ok(metrics) => metrics.into_iter().for_each(|(name, unit, v)| r.push(name, unit, v)),
        Err(e) => tally.record("single-layer calls", Some(&e)),
    }

    let plain = median(&runs.plain_s);
    let traced = median(&runs.traced_s);
    r.push("trace.overhead_s", "s", traced - plain);
    r.attempted += tally.attempted;
    r.failed += tally.failed;
    r.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    let detail = format!(
        "\"untraced_runs\": {}, \"traced_runs\": {}, \"untraced_run_s\": {plain:?}, \
         \"traced_run_s\": {traced:?}",
        runs.plain_s.len(),
        runs.traced_s.len()
    );
    (r, detail)
}

/// Times each layer's public entry points once warmed up.
fn single_layers(
    w: Workload,
    seed: u64,
    cfg: &RunConfig,
    shape: &Shape,
    budget: Duration,
) -> Vec<(&'static str, &'static str, f64)> {
    let mut out = Vec::new();
    let k = shape.k;

    // data and fleet construction (the set-up path).
    if w.is_fleet() {
        let c = SyntheticConfig::c10_like(workload::FLEET_BASE_SAMPLES, seed);
        out.push((
            "data.generate.s",
            "s",
            time_s(5, || {
                SyntheticWorld::new(&c, workload::FLEET_BASE_SAMPLES as u64)
                    .test_split(workload::FLEET_TEST_PER_CLASS)
            }),
        ));
        out.push((
            "data.partition.s",
            "s",
            time_s(5, || {
                FleetAssignment::build(workload::FLEET_CLIENTS, workload::FLEET_BASE_SAMPLES, seed)
            }),
        ));
        out.push(("fleet.build.s", "s", time_s(5, || w.build(seed))));
    } else {
        let c = dense_data_config(w, seed);
        out.push(("data.generate.s", "s", time_s(5, || SyntheticDataset::generate(&c))));
        let per = (shape.train.num_classes() / k).max(1);
        out.push((
            "data.partition.s",
            "s",
            time_s(5, || partition_shards(&shape.train, k, per, seed)),
        ));
        out.push(("fleet.build.s", "s", 0.0));
    }

    // nn: one training batch and one pass over the test split.
    let mut model = shape.model.clone();
    let mut opt = Sgd::new(cfg.lr);
    let batch = &shape.client[..cfg.batch_size.min(shape.client.len())];
    let (x, labels) = shape.train.batch(batch);
    out.push((
        "nn.train_step.ns",
        "ns",
        bench_ns(budget, || model.train_step(&x, &labels, &mut opt)),
    ));
    let test: Vec<usize> = (0..shape.test.len()).collect();
    let test_batches: Vec<_> = test.chunks(64).map(|c| shape.test.batch(c)).collect();
    out.push((
        "nn.evaluate.ns",
        "ns",
        bench_ns(budget, || test_batches.iter().map(|(x, l)| model.evaluate(x, l).1).sum::<f64>()),
    ));

    // core::client: one local epoch at the workload's batch cap.
    let mut client = FlClient::new(
        0,
        Arc::clone(&shape.train),
        shape.client.clone(),
        shape.model.clone(),
        cfg.lr,
        seed,
    );
    let epoch_ns =
        bench_ns(budget, || client.train_epoch(cfg.batch_size, cfg.max_batches_per_epoch, None));
    let samples = cfg
        .max_batches_per_epoch
        .map_or(shape.client.len(), |b| (b * cfg.batch_size).min(shape.client.len()));
    out.push(("client.train_epoch.ns", "ns", epoch_ns));
    out.push(("client.samples_per_s", "1/s", samples as f64 / (epoch_ns / 1e9)));

    // compress: one model through the workload's codec. The fleet runner
    // sends no model through a codec.
    let params = shape.model.clone().params();
    let transmit_ns = if w.is_fleet() {
        0.0
    } else {
        let mut comp = Compressor::new(&cfg.codec, k, seed);
        bench_ns(budget, || comp.transmit(0, &params))
    };
    out.push(("compress.transmit.ns", "ns", transmit_ns));

    // net: K concurrent uploads, and a K-move migration wave, on the flow
    // transport only (lockstep never calls the flow simulator).
    let (c2s_ns, wave_ns) = match &shape.net {
        Some((topo, flow)) => {
            let fault = FaultModel::new(cfg.fault.clone(), k);
            let clients: Vec<usize> = (0..k).collect();
            let moves: Vec<(usize, usize)> = (0..k).map(|i| (i, (i + 1) % k)).collect();
            let wire = shape.model.wire_bytes();
            (
                bench_ns(budget, || simulate_c2s(topo, &fault, 1, flow, &clients, wire)),
                bench_ns(budget, || simulate_migrations(topo, &fault, 1, flow, &moves, wire)),
            )
        }
        None => (0.0, 0.0),
    };
    out.push(("net.c2s_round.ns", "ns", c2s_ns));
    out.push(("net.migration_wave.ns", "ns", wave_ns));

    // drl: action selection and one update with a filled replay.
    let (mut agent, state, oracle) = filled_agent(w, shape, seed);
    out.push((
        "drl.select.ns",
        "ns",
        bench_ns(budget, || agent.select_action(&state, Some(&oracle))),
    ));
    out.push(("drl.update.ns", "ns", bench_ns(budget, || agent.update())));

    // core::aggregate at K uploads.
    let mut rng = StdRng::seed_from_u64(seed);
    let uploads: Vec<Vec<f32>> = (0..k)
        .map(|_| params.iter().map(|p| p + rng.random_range(-0.01f32..0.01)).collect())
        .collect();
    let entries: Vec<(&[f32], f64)> = uploads.iter().map(|u| (u.as_slice(), 1.0)).collect();
    out.push((
        "aggregate.fedavg.ns",
        "ns",
        bench_ns(budget, || {
            Aggregator::FedAvg.aggregate(&entries, &params, &mut RobustStats::default())
        }),
    ));
    // The dense runner plans with the K x K greedy assignment, the fleet
    // runner with the factored planner over its cohort; each reads 0 on the
    // other runner's workloads.
    let (greedy_ns, fleet_ns) = if w.is_fleet() {
        (0.0, fleet_plan_ns(shape, seed, &mut rng, budget))
    } else {
        let scores: Vec<Vec<f64>> =
            (0..k).map(|_| (0..k).map(|_| rng.random_range(0.0..1.0)).collect()).collect();
        let active = vec![true; k];
        (bench_ns(budget, || MigrationPlan::greedy_assignment_masked(&scores, &active)), 0.0)
    };
    out.push(("migration.plan.ns", "ns", greedy_ns));
    out.push(("fleet.plan.ns", "ns", fleet_ns));
    out
}

/// Median nanoseconds of one `plan_migrations` call over the fleet cohort.
fn fleet_plan_ns(shape: &Shape, seed: u64, rng: &mut StdRng, budget: Duration) -> f64 {
    let (k, num_lans) = (shape.k, workload::FLEET_LANS);
    let lans: Vec<u32> = (0..k).map(|i| (i % num_lans) as u32).collect();
    let margs: Vec<Vec<f32>> = (0..k)
        .map(|_| {
            let v: Vec<f32> =
                (0..shape.train.num_classes()).map(|_| rng.random_range(0.0f32..1.0)).collect();
            let s: f32 = v.iter().sum();
            v.into_iter().map(|x| x / s).collect()
        })
        .collect();
    let marginals: Vec<&[f32]> = margs.iter().map(Vec::as_slice).collect();
    let desired: Vec<u32> = (0..k).map(|i| ((i * 7 + 3) % num_lans) as u32).collect();
    let pcfg = FleetPlannerConfig { top_m: workload::FLEET_TOP_M, lambda: 0.1, seed };
    bench_ns(budget, || {
        plan_migrations(&pcfg, 1, &lans, &marginals, &desired, |i, j| {
            1.0 + ((i * 31 + j * 17) % 97) as f64 / 97.0
        })
    })
}
