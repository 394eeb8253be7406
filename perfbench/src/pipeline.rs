//! The pipeline workloads: label a seeded batch of paper-mix regular graphs
//! through the checked labeling engine, then run the rest of the paper
//! pipeline (`Pipeline::try_run_on_dataset`: split, SDP, fixed-angle
//! augmentation, GCN training, evaluation, artifact save).
//!
//! `Pipeline::try_run` would draw graph sizes at random, so the count of
//! 15-node graphs — which dominate labeling time — would swing with the
//! seed. The benchmark instead fixes the size mix and lets the seed pick
//! the graphs, and hands them to the same labeling engine `try_run` uses.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use gnn::train::{self, Example};
use gnn::{GnnKind, GnnModel};
use qaoa::{Evaluator, MaxCutHamiltonian, Params, QaoaCircuit};
use qaoa_gnn::dataset::{label_graph, Dataset, LabelConfig, LabelReport, LabeledGraph};
use qaoa_gnn::pipeline::{to_examples, Pipeline, PipelineConfig};
use qaoa_gnn::{eval, fixed, sdp, RunArtifact};
use qgraph::generate::{random_regular, DatasetSpec};
use qgraph::Graph;
use qrand::rngs::StdRng;
use qrand::SeedableRng;
use tensor::optim::{Adam, Optimizer};
use tensor::Matrix;

use crate::inputs;
use crate::stats::{self, interquartile_mean, median};
use crate::trace::Tracer;
use crate::{cores, scratch_dir, Args, Outcome};

/// One pipeline workload's shape.
pub struct PipelineSpec {
    pub name: &'static str,
    pub graphs: usize,
    pub min_n: usize,
    pub max_n: usize,
    pub test_size: usize,
    pub epochs: usize,
    pub iterations: usize,
}

/// `PipelineConfig::quick()`: 360 graphs, n in 2..=15, 40 test graphs.
pub const LABEL: PipelineSpec = PipelineSpec {
    name: "pipeline_label",
    graphs: 360,
    min_n: 2,
    max_n: 15,
    test_size: 40,
    epochs: 40,
    iterations: 120,
};

/// Many small graphs: training outweighs labeling.
pub const TRAIN: PipelineSpec = PipelineSpec {
    name: "pipeline_train",
    graphs: 1200,
    min_n: 2,
    max_n: 10,
    test_size: 100,
    epochs: 40,
    iterations: 120,
};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;

fn config(spec: &PipelineSpec, seed: u64, artifact: &Path) -> PipelineConfig {
    PipelineConfig::quick()
        .with_dataset(DatasetSpec {
            count: spec.graphs,
            min_nodes: spec.min_n,
            max_nodes: spec.max_n,
            ..DatasetSpec::default()
        })
        .with_iterations(spec.iterations)
        .with_threads(cores())
        .with_test_size(spec.test_size)
        .with_training(train::TrainConfig::quick(spec.epochs))
        .with_seed(seed)
        .with_artifact_path(Some(artifact.to_path_buf()))
}

/// Seed of the labeling substreams, derived from the run seed.
fn label_seed(seed: u64) -> u64 {
    seed ^ 0x6c61_6265_6c73
}

/// Per-graph labeling record: node count and busy time.
type GraphTimes = Mutex<Vec<(usize, f64)>>;

/// The real labeler, timed per graph; spans go to `tracer` when given.
fn timed_labeler<'a>(
    times: &'a GraphTimes,
    tracer: Option<(&'a Tracer, u64)>,
) -> impl Fn(&Graph, &LabelConfig, &mut StdRng) -> LabeledGraph + Sync + 'a {
    move |g, c, rng| {
        let opened = tracer.map(|(t, _)| t.open());
        let start = Instant::now();
        let label = label_graph(g, c, rng);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if let (Some((t, parent)), Some(opened)) = (tracer, opened) {
            t.close(opened, "core.dataset::label_graph", Some(parent), None);
        }
        times.lock().expect("label time lock").push((g.n(), ms));
        label
    }
}

/// One untraced pipeline: label, then the rest of the pipeline.
struct Run {
    wall_s: f64,
    label_s: f64,
    report: LabelReport,
    pipeline: Pipeline,
}

fn run_once(graphs: &[Graph], config: &PipelineConfig, seed: u64) -> Result<Run, String> {
    let start = Instant::now();
    let (dataset, report, label_s, _) = label_pass(graphs, config, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let pipeline = Pipeline::try_run_on_dataset(GnnKind::Gcn, dataset, config, &mut rng)
        .map_err(|e| format!("pipeline failed: {e}"))?;
    Ok(Run {
        wall_s: start.elapsed().as_secs_f64(),
        label_s,
        report,
        pipeline,
    })
}

/// Labels the graphs once through the checked labeling engine, timed per
/// graph: the dataset, its report, the wall time in seconds and each
/// graph's node count and time in ms.
fn label_pass(
    graphs: &[Graph],
    config: &PipelineConfig,
    seed: u64,
) -> (Dataset, LabelReport, f64, Vec<(usize, f64)>) {
    let times = GraphTimes::default();
    let start = Instant::now();
    let (dataset, report) = Dataset::label_graphs_checked_with(
        &timed_labeler(&times, None),
        graphs,
        &config.labeling,
        label_seed(seed),
    );
    let label_s = start.elapsed().as_secs_f64();
    (
        dataset,
        report,
        label_s,
        times.into_inner().expect("label time lock"),
    )
}

/// Every label finite with AR in [0, 1], and the label report accounts for
/// every graph.
fn check_labels(out: &mut Outcome, dataset: &Dataset, report: &LabelReport, graphs: &[Graph]) {
    for (i, e) in dataset.entries.iter().enumerate() {
        let finite = e.params.to_flat().iter().all(|v| v.is_finite())
            && e.expectation.is_finite()
            && e.optimal.is_finite();
        out.check(
            finite && (0.0..=1.0 + 1e-9).contains(&e.approx_ratio),
            || {
                format!(
                    "label {i} not finite or AR {} outside [0, 1]",
                    e.approx_ratio
                )
            },
        );
    }
    out.check(
        report.labeled + report.unrecovered().len() == graphs.len(),
        || "label report does not account for every graph".to_string(),
    );
}

/// Output checks: the labels (see [`check_labels`]), and the saved artifact
/// reloads and predicts bit-identically to the in-memory model.
fn check(out: &mut Outcome, run: &Run, graphs: &[Graph], artifact: &Path) {
    check_labels(out, &run.pipeline.raw_dataset, &run.report, graphs);
    match RunArtifact::load(artifact)
        .map_err(|e| e.to_string())
        .and_then(|a| a.build_model().map_err(|e| e.to_string()))
    {
        Ok(reloaded) => {
            let differing = graphs
                .iter()
                .filter(|g| {
                    let (a, b) = (reloaded.predict(g), run.pipeline.model.predict(g));
                    a.0.to_bits() != b.0.to_bits() || a.1.to_bits() != b.1.to_bits()
                })
                .count();
            out.check(differing == 0, || {
                format!("reloaded artifact predicts differently on {differing} graphs")
            });
        }
        Err(e) => out.check(false, || format!("artifact does not reload: {e}")),
    }
}

pub fn run(spec: &PipelineSpec, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let shapes = inputs::stratified_shapes(spec.graphs, spec.min_n, spec.max_n);
    let artifact = scratch_dir().join(format!(
        "{}-{}.artifact.json",
        spec.name,
        std::process::id()
    ));

    // Set-up: generate the seed's graphs and the run configuration.
    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(args.seed);
        let graphs = inputs::graphs_for_shapes(&shapes, &mut rng);
        let config = config(spec, args.seed, &artifact);
        setup.push(start.elapsed().as_secs_f64());
        prepared = Some((graphs, config));
    }
    let (graphs, config) = prepared.expect("at least one set-up");

    if args.trace {
        traced(spec, args, &graphs, &config, &artifact, &mut out);
    } else {
        untraced(args, &graphs, &config, &artifact, &mut out);
        out.set("setup_s", median(&setup));
    }
    let _ = std::fs::remove_file(&artifact);
    out
}

/// One labeling pass's timings: per-graph median and tail, and graphs
/// labeled per second.
struct PassTimes {
    p50_ms: f64,
    tail: stats::Quantile,
    graphs_per_s: f64,
}

impl PassTimes {
    fn new(graph_times: &[(usize, f64)], labeled: usize, label_s: f64) -> PassTimes {
        let ms: Vec<f64> = graph_times.iter().map(|t| t.1).collect();
        PassTimes {
            p50_ms: median(&ms),
            tail: stats::tail(&ms, 99.0).expect("graphs were labeled"),
            graphs_per_s: labeled as f64 / label_s,
        }
    }
}

/// Share of `--seconds` given to whole pipelines; labeling passes on one
/// thread take the rest.
const PIPELINE_SHARE: f64 = 0.5;

/// Every label's parameters, bit for bit.
fn label_bits(dataset: &Dataset) -> Vec<Vec<u64>> {
    dataset
        .entries
        .iter()
        .map(|e| e.params.to_flat().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn untraced(
    args: &Args,
    graphs: &[Graph],
    config: &PipelineConfig,
    artifact: &Path,
    out: &mut Outcome,
) {
    // Whole pipelines, labeling on every core as `try_run` does, while
    // another fits in PIPELINE_SHARE of the budget (at least one), each
    // checked: `pipeline_s` is their mean. Then labeling passes on one
    // thread while another fits in the budget (at least one): the per-graph
    // times and the labeling rate are interquartile means over them. Two
    // labeling threads slow each other down by an amount that changes with
    // how the host places the virtual CPUs, so per-graph times taken beside
    // a second thread moved from run to run several times more than the
    // pipeline did; on one thread they measure what a graph costs.
    let began = Instant::now();
    let (mut walls, mut ars, mut labels) = (vec![], vec![], None);
    loop {
        let run = match run_once(graphs, config, args.seed) {
            Ok(run) => run,
            Err(e) => return out.check(false, || e),
        };
        check(out, &run, graphs, artifact);
        out.attempted += graphs.len() as u64;
        out.failed += run.report.unrecovered().len() as u64;
        eprintln!(
            "  pipeline run {}: {:.3} s, {:.3} s of it labeling on {} thread(s)",
            walls.len(),
            run.wall_s,
            run.label_s,
            config.labeling.threads
        );
        walls.push(run.wall_s);
        ars.push(run.pipeline.raw_dataset.mean_approx_ratio());
        labels.get_or_insert_with(|| label_bits(&run.pipeline.raw_dataset));
        if began.elapsed().as_secs_f64() + run.wall_s > PIPELINE_SHARE * args.seconds {
            break;
        }
    }
    let labels = labels.expect("at least one pipeline");
    let one_thread = config.clone().with_threads(1);
    let mut passes = Vec::new();
    loop {
        let (dataset, report, pass_s, graph_times) = label_pass(graphs, &one_thread, args.seed);
        check_labels(out, &dataset, &report, graphs);
        out.check(label_bits(&dataset) == labels, || {
            "labels on one thread differ from the pipeline's".to_string()
        });
        out.attempted += graphs.len() as u64;
        out.failed += report.unrecovered().len() as u64;
        let pass = PassTimes::new(&graph_times, report.labeled, pass_s);
        eprintln!(
            "  labeling pass {} on one thread: {pass_s:.3} s, per-graph p50 {:.3} ms",
            passes.len(),
            pass.p50_ms
        );
        passes.push(pass);
        if began.elapsed().as_secs_f64() + pass_s > args.seconds {
            break;
        }
    }
    let over_passes =
        |f: fn(&PassTimes) -> f64| interquartile_mean(&passes.iter().map(f).collect::<Vec<_>>());
    let (p50, tail) = (over_passes(|p| p.p50_ms), over_passes(|p| p.tail.value));
    eprintln!(
        "  {} pipeline run(s), {} labeling pass(es) on one thread; per-graph label time p50 {p50:.3} ms, \
         p{:.1} {tail:.3} ms over {} samples a pass (interquartile means over passes)",
        walls.len(),
        passes.len(),
        passes[0].tail.percentile,
        passes[0].tail.samples
    );
    out.set("pipeline_s", interquartile_mean(&walls));
    out.set("label_ar_mean", median(&ars));
    out.set("p50_ms", p50);
    out.set("p99_ms", tail);
    out.set("goodput_rps", over_passes(|p| p.graphs_per_s));
}

/// Mean of the busy times of graphs with `lo <= n <= hi`, in ms.
fn bucket_mean(times: &[(usize, f64)], lo: usize, hi: usize) -> f64 {
    let v: Vec<f64> = times
        .iter()
        .filter(|t| (lo..=hi).contains(&t.0))
        .map(|t| t.1)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The traced run: one untraced pipeline for reference, then the same
/// stages called one by one through their public functions, each inside a
/// span, then probes of single calls.
fn traced(
    spec: &PipelineSpec,
    args: &Args,
    graphs: &[Graph],
    config: &PipelineConfig,
    artifact: &Path,
    out: &mut Outcome,
) {
    let reference = match run_once(graphs, config, args.seed) {
        Ok(run) => run,
        Err(e) => return out.check(false, || e),
    };
    check(out, &reference, graphs, artifact);
    out.attempted = graphs.len() as u64;
    out.failed = reference.report.unrecovered().len() as u64;

    let t = Tracer::default();
    let times = GraphTimes::default();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let root = t.open();
    let (dataset, report) = t.span(
        "core.dataset::label_graphs_checked_with",
        Some(root.0),
        None,
        |id| {
            Dataset::label_graphs_checked_with(
                &timed_labeler(&times, Some((&t, id))),
                graphs,
                &config.labeling,
                label_seed(args.seed),
            )
        },
    );
    let split = t.span("core.dataset::split", Some(root.0), None, |_| {
        dataset.split(config.test_size, args.seed)
    });
    let (train_split, test_split) = match split {
        Ok(s) => s,
        Err(e) => return out.check(false, || format!("split failed: {e}")),
    };
    let sdp_config = config.sdp.expect("quick() prunes");
    let (pruned, sdp_stats) = t.span("core.sdp::prune", Some(root.0), None, |_| {
        sdp::prune(&train_split, &sdp_config, &mut rng)
    });
    let (train_set, fixed_stats) = t.span("core.fixed::augment", Some(root.0), None, |_| {
        fixed::augment(&pruned)
    });
    let model = t.span("gnn::new", Some(root.0), None, |_| {
        GnnModel::new(GnnKind::Gcn, config.model.clone(), &mut rng)
    });
    let examples = t.span("core.pipeline::to_examples", Some(root.0), None, |_| {
        to_examples(&train_set, &config.model)
    });
    let history = t.span("gnn::train", Some(root.0), None, |_| {
        train::train(&model, &examples, &config.training, &mut rng)
    });
    let test_examples = to_examples(&test_split, &config.model);
    let test_mse = t.span("gnn::evaluate", Some(root.0), None, |_| {
        train::evaluate(&model, &test_examples)
    });
    let test_graphs: Vec<Graph> = test_split.entries.iter().map(|e| e.graph.clone()).collect();
    let eval_report = t.span("core.eval::evaluate_model", Some(root.0), None, |_| {
        eval::evaluate_model(&model, &test_graphs, &config.eval, &mut rng)
    });
    let pipeline = Pipeline {
        kind: GnnKind::Gcn,
        model,
        raw_dataset: dataset,
        train_dataset: train_set,
        sdp_stats: Some(sdp_stats),
        fixed_stats: Some(fixed_stats),
        history,
        test_mse,
        report: eval_report,
        label_report: report.clone(),
    };
    let traced_artifact: PathBuf = artifact.with_extension("traced.json");
    let saved = t.span("core.store::save", Some(root.0), None, |_| {
        pipeline.to_artifact(config).save(&traced_artifact)
    });
    t.close(root, "perfbench::pipeline", None, None);
    out.check(saved.is_ok(), || {
        format!("traced artifact save failed: {saved:?}")
    });
    let artifact_bytes = std::fs::metadata(&traced_artifact).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&traced_artifact);
    let wall = t.total_s("perfbench::pipeline");

    let graph_times = times.into_inner().expect("label time lock");
    let label_s = t.total_s("core.dataset::label_graphs_checked_with");
    let busy: f64 = graph_times.iter().map(|g| g.1 * 1e-3).sum();
    out.set("label.s", label_s);
    out.set("label.share", label_s / wall);
    out.set("label.graph_ms.n2-9", bucket_mean(&graph_times, 2, 9));
    out.set("label.graph_ms.n10-12", bucket_mean(&graph_times, 10, 12));
    out.set("label.graph_ms.n13-15", bucket_mean(&graph_times, 13, 15));
    out.set(
        "label.worker_util",
        busy / (label_s * config.labeling.threads as f64),
    );
    out.set("label.failed", report.unrecovered().len() as f64);
    out.set(
        "label.retried",
        report.failures.iter().filter(|f| f.recovered).count() as f64,
    );
    out.set(
        "prep.s",
        t.total_s("core.sdp::prune") + t.total_s("core.fixed::augment"),
    );
    let train_s = t.total_s("gnn::train");
    out.set("train.s", train_s);
    out.set("train.share", train_s / wall);
    out.set(
        "train.examples_per_s",
        (examples.len() * pipeline.history.epochs.len()) as f64 / train_s,
    );
    out.set("gnn.test_mse", test_mse);
    out.set(
        "eval.s",
        t.total_s("gnn::evaluate") + t.total_s("core.eval::evaluate_model"),
    );
    out.set(
        "store.artifact_save_ms",
        t.total_s("core.store::save") * 1e3,
    );
    out.set("store.artifact_bytes", artifact_bytes as f64);
    out.set(
        "trace.overhead_frac",
        (wall - reference.wall_s) / reference.wall_s,
    );

    let probes = t.open();
    probe_expectation(&t, probes.0, out);
    probe_training(&t, probes.0, &examples, args.seed, out);
    t.close(probes, "perfbench::probes", None, None);

    crate::set_self_times(out, &t);
    let spans = t.spans().len();
    let log = scratch_dir().join(format!("spans-{}-{}.tsv", spec.name, args.seed));
    if let Err(e) = t.write(&log) {
        out.check(false, || format!("span log not written: {e}"));
    }
    eprintln!(
        "  traced pipeline {wall:.3} s vs untraced {:.3} s; {spans} spans in {}",
        reference.wall_s,
        log.display()
    );
}

/// `Evaluator::expectation_in_place` at 10, 12 and 15 qubits.
fn probe_expectation(t: &Tracer, parent: u64, out: &mut Outcome) {
    let mut rng = StdRng::seed_from_u64(0x51);
    for (n, d, calls) in [(10, 3, 1500), (12, 3, 400), (15, 4, 60)] {
        let graph = random_regular(n, d, &mut rng).expect("feasible shape");
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&graph));
        let mut evaluator = Evaluator::new(&circuit);
        let params = Params::new(vec![0.6], vec![0.3]);
        for _ in 0..calls {
            std::hint::black_box(
                t.span("qaoa::expectation_in_place", Some(parent), None, |_| {
                    evaluator.expectation_in_place(std::hint::black_box(&params))
                }),
            );
        }
        let us = t.durations_us("qaoa::expectation_in_place");
        out.set(
            &format!("qaoa.expectation_us.n{n}"),
            median(&us[us.len() - calls..]),
        );
    }
}

/// One training step at a time on a fresh model: `GnnModel::forward`,
/// `Tape::backward` and `Adam::step`, each timed on its own.
fn probe_training(t: &Tracer, parent: u64, examples: &[Example], seed: u64, out: &mut Outcome) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = GnnModel::new(GnnKind::Gcn, gnn::ModelConfig::default(), &mut rng);
    let mut adam = Adam::new(0.01);
    model.tape().set_training(true);
    for (i, ex) in examples.iter().take(400).enumerate() {
        model.tape().reset();
        let request = Some(i as u64);
        let prediction = t.span("gnn::forward", Some(parent), request, |_| {
            model.forward(&ex.context, &mut rng)
        });
        let loss = prediction.mse(&Matrix::row_vector(&ex.target));
        t.span("tensor::backward", Some(parent), request, |_| {
            model.tape().backward(&loss)
        });
        t.span("tensor::adam_step", Some(parent), request, |_| {
            adam.step(model.parameters())
        });
    }
    model.tape().reset();
    model.tape().set_training(false);
    out.set("train.forward_us", median(&t.durations_us("gnn::forward")));
    out.set(
        "train.backward_us",
        median(&t.durations_us("tensor::backward")),
    );
    out.set(
        "train.adam_step_us",
        median(&t.durations_us("tensor::adam_step")),
    );
}
