//! The serving workloads: a trained GCN artifact behind `ServeLoop`, driven
//! by the open-loop generator at a fixed nominal rate, by a closed-loop
//! batch, and up a fixed rate ladder to find the goodput.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use gnn::{GnnKind, GraphContext};
use qaoa::{Evaluator, MaxCutHamiltonian, QaoaCircuit};
use qaoa_gnn::dataset::{Dataset, LabelConfig};
use qaoa_gnn::pipeline::{Pipeline, PipelineConfig};
use qaoa_gnn::serve::{
    GuardedPredictor, PredictionOutcome, RequestPayload, Rung, ServeConfig, ServeRequest,
};
use qaoa_gnn::serve_loop::{Completed, LoopConfig, ServeLoop};
use qaoa_gnn::{CacheConfig, CacheStats, PredictionCache, RunArtifact};
use qgraph::generate::random_regular;
use qgraph::{canon, Graph};
use qrand::rngs::StdRng;
use qrand::seq::SliceRandom;
use qrand::SeedableRng;

use crate::inputs::{self, Zipf};
use crate::loadgen::{self, Reply};
use crate::stats::{self, interquartile_mean, median, p99};
use crate::trace::Tracer;
use crate::{cores, scratch_dir, Args, Outcome};

/// One serving workload's shape.
pub struct ServeSpec {
    pub name: &'static str,
    /// Verify GNN answers on the simulator (the `ServeConfig` default).
    pub verify: bool,
    /// Requests are Zipf draws over a fixed pool, relabeled and sent as
    /// text, with the canonical-form cache on; otherwise fresh graphs.
    pub repeat: bool,
    /// Open-loop rate of the nominal windows and the bottom of the goodput
    /// ladder, requests per second.
    pub nominal_rate: f64,
    /// Requests in each round's closed-loop batch (`pipeline_s`, `p50_ms`,
    /// `p99_ms`).
    pub batch: usize,
    /// Callers of the closed loop: enough to keep the loop's worker busy,
    /// so that the batch measures serving work rather than how fast the
    /// host wakes threads.
    pub callers: usize,
    /// Ladder index the goodput search starts from.
    pub ladder_start: i32,
}

pub const VERIFY: ServeSpec = ServeSpec {
    name: "serve_verify",
    verify: true,
    repeat: false,
    nominal_rate: 100.0,
    batch: 600,
    callers: 8,
    ladder_start: 24,
};

pub const REPEAT: ServeSpec = ServeSpec {
    name: "serve_repeat",
    verify: false,
    repeat: true,
    nominal_rate: 5000.0,
    batch: 10_000,
    callers: 64,
    ladder_start: 8,
};

/// Latency limit on the tail percentile for goodput, in ms.
const LIMIT_MS: f64 = 50.0;
/// Largest share of failed requests a passing ladder rung may have.
const MAX_FAILED: f64 = 0.01;
/// Ladder rates are `nominal_rate * LADDER_STEP^j` for `j` in
/// `LADDER_BOTTOM..=LADDER_TOP`; the search gallops `GALLOP_STEPS` at a time.
const LADDER_STEP: f64 = 1.057_371_263_440_564; // 1.25^(1/4)
const LADDER_BOTTOM: i32 = -16;
const LADDER_TOP: i32 = 80;
const GALLOP_STEPS: i32 = 8;
/// Length of a rung: near capacity, shorter rungs pass or fail by chance.
const RUNG_SECONDS: f64 = 2.0;
/// Attempts a failing rung gets.
const RUNG_ATTEMPTS: usize = 3;
/// Share of `--seconds` spent at the nominal rate, split over `ROUNDS`.
const NOMINAL_SHARE: f64 = 0.2;
const ROUNDS: usize = 10;
const SETUP_REPS: usize = 9;
/// Pool of graphs behind `serve_repeat` and its Zipf exponent.
const POOL: usize = 256;
const ZIPF_S: f64 = 1.1;
const POOL_SEED: u64 = 0xca7a_1065;
/// Replies checked bit for bit against a cache-off predictor.
const REFERENCE_SAMPLE: usize = 150;
/// Requests replayed layer by layer in the traced run.
const REPLAY: usize = 300;
/// Nominal-phase requests kept whole for the checks and the replay.
const KEEP: usize = 300;

/// A request plus what the checks need to know about it.
struct Req {
    request: ServeRequest,
    graph: Graph,
    /// Pool rank of a repeat request.
    rank: Option<usize>,
}

/// What the checks keep of a request sent at the nominal rate: its pool
/// rank, and the request itself for the first [`KEEP`] (for every request
/// of fresh graphs, whose approximation ratio needs the graph).
struct Sent {
    rank: Option<usize>,
    req: Option<Req>,
}

/// Seeded request source.
#[derive(Clone)]
struct Traffic {
    rng: StdRng,
    /// Repeat workload: the catalogue and its popularity; empty otherwise.
    pool: Vec<Graph>,
    zipf: Zipf,
}

impl Traffic {
    fn new(spec: &ServeSpec, seed: u64) -> Traffic {
        let pool = if spec.repeat {
            repeat_pool()
        } else {
            Vec::new()
        };
        Traffic {
            rng: StdRng::seed_from_u64(seed),
            zipf: Zipf::new(POOL, ZIPF_S),
            pool,
        }
    }

    /// `count` requests, made one at a time as the iterator is advanced:
    /// fresh paper-mix graphs with an exact size mix in a seeded order, or
    /// relabeled Zipf draws from the pool sent as text.
    fn stream(&mut self, count: usize) -> Box<dyn Iterator<Item = Req> + Send + '_> {
        if self.pool.is_empty() {
            let mut shapes = inputs::stratified_shapes(count, 2, 15);
            shapes.shuffle(&mut self.rng);
            let rng = &mut self.rng;
            Box::new(shapes.into_iter().map(move |(n, d)| {
                let graph = random_regular(n, d, rng).expect("feasible shape");
                Req {
                    request: ServeRequest::from_graph(graph.clone()),
                    graph,
                    rank: None,
                }
            }))
        } else {
            Box::new((0..count).map(move |_| self.draw()))
        }
    }

    /// One repeat request: a Zipf draw from the pool, relabeled, as text.
    fn draw(&mut self) -> Req {
        let rank = self.zipf.sample(&mut self.rng);
        let graph = inputs::relabel(&self.pool[rank], &mut self.rng);
        Req {
            request: ServeRequest::from_text(qgraph::io::graph_to_string(&graph)),
            graph,
            rank: Some(rank),
        }
    }
}

/// The catalogue the repeat workload's traffic draws from: rank `k` has
/// `2 + k % 14` nodes, so every size is equally popular, and a degree drawn
/// uniformly from the size's feasible ones, as in the paper's mix. The
/// catalogue comes from a fixed seed and is the same for every run; the
/// run seed draws the traffic over it (which rank each request asks for,
/// and its node labeling). Which catalogue entries collide under WL hashing
/// therefore stays put from run to run.
fn repeat_pool() -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(POOL_SEED);
    (0..POOL)
        .map(|k| inputs::paper_graph(2 + k % 14, 2 + k % 14, &mut rng))
        .collect()
}

/// The pool rank whose warm-up request filled the cache entry rank `k`
/// hits: the first isomorphic rank.
fn fillers(pool: &[Graph]) -> Vec<usize> {
    (0..pool.len())
        .map(|k| {
            (0..=k)
                .find(|&j| canon::are_isomorphic(&pool[j], &pool[k]))
                .expect("k matches itself")
        })
        .collect()
}

/// Sends `count` requests from `traffic` at the nominal rate, made as they
/// fall due, and returns what was sent with the replies. Each request goes
/// with its node count, the load generator's cost proxy.
fn nominal_phase(
    spec: &ServeSpec,
    serve: &ServeLoop,
    traffic: &mut Traffic,
    count: usize,
    tracer: Option<&Tracer>,
) -> (Vec<Sent>, Vec<Reply>) {
    let sent = Mutex::new(Vec::with_capacity(count));
    let requests = traffic.stream(count).enumerate().map(|(i, r)| {
        let cost = r.graph.n();
        let request = r.request.clone();
        let keep = i < KEEP || !spec.repeat;
        sent.lock().expect("sent log lock").push(Sent {
            rank: r.rank,
            req: keep.then_some(r),
        });
        (request, cost)
    });
    let replies = loadgen::open_loop(serve, spec.nominal_rate, count, requests, tracer);
    (sent.into_inner().expect("sent log lock"), replies)
}

fn warm_requests(pool: &[Graph]) -> Vec<ServeRequest> {
    if pool.is_empty() {
        let mut rng = StdRng::seed_from_u64(0x77);
        (0..16)
            .map(|i| ServeRequest::from_graph(inputs::paper_graph(2 + i % 8, 2 + i % 8, &mut rng)))
            .collect()
    } else {
        pool.iter()
            .map(|g| ServeRequest::from_text(qgraph::io::graph_to_string(g)))
            .collect()
    }
}

/// Trains the served model: a default-`ModelConfig` GCN on one labeled
/// graph of every size and degree in the paper's mix, so its training
/// envelope covers n = 2..15 and degrees up to 14. Fixed seed: every run
/// serves the same model.
fn train_artifact(path: &Path) -> Result<(), String> {
    let shapes: Vec<(usize, usize)> = (2..=15)
        .flat_map(|n| inputs::feasible_degrees(n).into_iter().map(move |d| (n, d)))
        .collect();
    let mut rng = StdRng::seed_from_u64(0x5e27e);
    let graphs = inputs::graphs_for_shapes(&shapes, &mut rng);
    let labeling = LabelConfig::quick(60).with_threads(cores());
    let dataset = Dataset::label_graphs(&graphs, &labeling, 0x5e27e);
    let config = PipelineConfig::quick()
        .with_sdp(None)
        .with_test_size(4)
        .with_seed(0x5e27e)
        .with_artifact_path(Some(path.to_path_buf()));
    Pipeline::try_run_on_dataset(GnnKind::Gcn, dataset, &config, &mut rng)
        .map(|_| ())
        .map_err(|e| format!("training the served model failed: {e}"))
}

fn loop_config(spec: &ServeSpec) -> LoopConfig {
    let serve = if spec.verify {
        ServeConfig::default()
    } else {
        ServeConfig::default().with_verify_max_nodes(0)
    };
    let config = LoopConfig::default().with_serve(serve);
    if spec.repeat {
        config.with_cache(CacheConfig::default())
    } else {
        config
    }
}

fn in_principal_domain(o: &PredictionOutcome) -> bool {
    let (g, b) = o.angles();
    (0.0..=std::f64::consts::TAU).contains(&g) && (0.0..=std::f64::consts::FRAC_PI_2).contains(&b)
}

fn same_bits(a: &PredictionOutcome, b: &PredictionOutcome) -> bool {
    let bits = |o: &PredictionOutcome| {
        let (g, b) = o.angles();
        (
            g.to_bits(),
            b.to_bits(),
            o.verified_score.map(f64::to_bits),
            o.rung,
        )
    };
    bits(a) == bits(b)
}

/// Latency with failed requests counted as missing every limit.
fn latencies(replies: &[Reply]) -> Vec<f64> {
    replies
        .iter()
        .map(|r| {
            if r.failed {
                f64::INFINITY
            } else {
                r.latency_ms
            }
        })
        .collect()
}

/// One ladder rung's result.
struct Step {
    rate: f64,
    p99_ms: f64,
    pass: bool,
    /// The rung failed on its tail latency (or the generator's lag) alone:
    /// its backlog was steady and few enough requests failed.
    tail_only: bool,
    /// Replies within the limit per second, from the first due time to the
    /// last reply.
    goodput: f64,
}

/// A rung that fails on its tail latency alone is run again, up to
/// [`RUNG_ATTEMPTS`] times, and the best attempt kept, so that stalls of the
/// host do not end the search. A rung with a growing backlog or too many
/// failed (shed) requests is beyond what the loop can serve, and is not
/// run again.
fn rung(
    serve: &ServeLoop,
    traffic: &mut Traffic,
    rate: f64,
    seconds: f64,
    out: &mut Outcome,
) -> Step {
    let mut best = run_rung(serve, traffic, rate, seconds, out);
    for _ in 1..RUNG_ATTEMPTS {
        if best.pass || !best.tail_only {
            break;
        }
        let next = run_rung(serve, traffic, rate, seconds, out);
        if next.pass || next.p99_ms < best.p99_ms {
            best = next;
        }
    }
    best
}

/// One rung: `seconds` of open-loop traffic at `rate`. Every reply gets the
/// shape check; shed replies are expected here and count as failed.
fn run_rung(
    serve: &ServeLoop,
    traffic: &mut Traffic,
    rate: f64,
    seconds: f64,
    out: &mut Outcome,
) -> Step {
    let count = (rate * seconds).round().max(50.0) as usize;
    let requests = traffic.stream(count).map(|r| {
        let n = r.graph.n();
        (r.request, n)
    });
    let replies = loadgen::open_loop(serve, rate, count, requests, None);
    for r in &replies {
        check_shape(out, r.completed.as_ref());
    }
    let lat = latencies(&replies);
    let failed = lat.iter().filter(|l| l.is_infinite()).count();
    let tail = stats::tail(&lat, 99.0).expect("requests were sent");
    let lag = p99(&replies.iter().map(|r| r.lag_ms).collect::<Vec<_>>());
    // A growing backlog shows as late replies at the end of the rung.
    let last = &lat[lat.len() - (lat.len() / 10).max(1)..];
    let backlog_ok = median(last) <= LIMIT_MS;
    let few_failed = (failed as f64) <= MAX_FAILED * count as f64;
    let pass = tail.value <= LIMIT_MS && few_failed && backlog_ok && lag <= LIMIT_MS;
    let ok = lat.iter().filter(|&&l| l <= LIMIT_MS).count();
    let wall_s = replies
        .iter()
        .enumerate()
        .map(|(i, r)| i as f64 / rate + r.latency_ms * 1e-3)
        .fold(0.0, f64::max);
    eprintln!(
        "  ladder {rate:>8.1}/s: sent {count} ok {} failed {failed} p{:.1} {:.2} ms lag p99 {lag:.2} ms backlog {} -> {}",
        count - failed,
        tail.percentile,
        tail.value,
        if backlog_ok { "steady" } else { "growing" },
        if pass { "pass" } else { "fail" }
    );
    Step {
        rate,
        p99_ms: tail.value,
        pass,
        tail_only: !pass && few_failed && backlog_ok,
        goodput: ok as f64 / wall_s,
    }
}

/// Highest rate on the ladder whose tail latency stays within the limit.
/// The search gallops up the ladder eight steps at a time to the first
/// failing rung, then bisects the bracket down to adjacent rungs. The
/// answer interpolates `log p99` against `log rate` between the highest
/// passing and the lowest failing rung when both have a finite tail;
/// otherwise it is the goodput measured at the highest passing rung.
fn goodput(spec: &ServeSpec, serve: &ServeLoop, traffic: &mut Traffic, out: &mut Outcome) -> f64 {
    let rate_at = |j: i32| spec.nominal_rate * LADDER_STEP.powi(j);
    let mut tried: Vec<(i32, Step)> = Vec::new();
    let mut j = spec.ladder_start;
    loop {
        let step = rung(serve, traffic, rate_at(j), RUNG_SECONDS, out);
        let pass = step.pass;
        tried.push((j, step));
        let any_pass = tried.iter().any(|(_, s)| s.pass);
        if pass && j + GALLOP_STEPS <= LADDER_TOP {
            j += GALLOP_STEPS;
        } else if !any_pass && j - GALLOP_STEPS >= LADDER_BOTTOM {
            // Started above capacity: walk down until a rung passes.
            j -= GALLOP_STEPS;
        } else {
            break;
        }
    }
    let bracket = |tried: &[(i32, Step)]| -> (Option<usize>, Option<usize>) {
        let best = (0..tried.len())
            .filter(|&k| tried[k].1.pass)
            .max_by_key(|&k| tried[k].0);
        let floor = best.map_or(i32::MIN, |k| tried[k].0);
        let above = (0..tried.len())
            .filter(|&k| !tried[k].1.pass && tried[k].0 > floor)
            .min_by_key(|&k| tried[k].0);
        (best, above)
    };
    while let (Some(p), Some(f)) = bracket(&tried) {
        let (lo, hi) = (tried[p].0, tried[f].0);
        if hi - lo < 2 {
            break;
        }
        let mid = (lo + hi) / 2;
        tried.push((mid, rung(serve, traffic, rate_at(mid), RUNG_SECONDS, out)));
    }
    match bracket(&tried) {
        (None, _) => 0.0,
        (Some(p), Some(f)) if tried[f].1.p99_ms.is_finite() && tried[f].1.p99_ms > LIMIT_MS => {
            let (p, f) = (&tried[p].1, &tried[f].1);
            let t = ((LIMIT_MS / p.p99_ms).ln() / (f.p99_ms / p.p99_ms).ln()).clamp(0.0, 1.0);
            p.rate * (f.rate / p.rate).powf(t)
        }
        (Some(p), _) => tried[p].1.goodput,
    }
}

pub fn run(spec: &ServeSpec, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let artifact_path =
        scratch_dir().join(format!("{}-{}.serve.json", spec.name, std::process::id()));
    if let Err(e) = train_artifact(&artifact_path) {
        out.check(false, || e);
        return out;
    }
    let mut traffic = Traffic::new(spec, args.seed);
    let fill = fillers(&traffic.pool);
    let warm = warm_requests(&traffic.pool);
    let nominal_count = (spec.nominal_rate * args.seconds * NOMINAL_SHARE).round() as usize;

    // Set-up: load the artifact, start the loop, warm it (and its cache).
    let mut setup = Vec::new();
    let mut serve = None;
    for _ in 0..SETUP_REPS {
        drop(serve.take());
        let start = Instant::now();
        let artifact = match RunArtifact::load(&artifact_path) {
            Ok(a) => a,
            Err(e) => {
                out.check(false, || format!("served artifact does not load: {e}"));
                return out;
            }
        };
        let s = ServeLoop::new(artifact, loop_config(spec));
        for request in &warm {
            s.handle_wait(request.clone());
        }
        setup.push(start.elapsed().as_secs_f64());
        serve = Some(s);
    }
    let serve = serve.expect("one set-up");
    let warm_cache = serve.cache_stats();
    let mut reference = match GuardedPredictor::load(&artifact_path, loop_config(spec).serve) {
        Ok(predictor) => Reference {
            predictor,
            filled: HashMap::new(),
        },
        Err(e) => {
            out.check(false, || format!("reference predictor does not load: {e}"));
            return out;
        }
    };
    let _ = std::fs::remove_file(&artifact_path);

    if args.trace {
        traced(
            spec,
            args,
            &serve,
            &mut reference,
            &traffic,
            nominal_count,
            &warm_cache,
            &mut out,
        );
        return out;
    }

    // Rounds of a closed-loop batch then an open-loop window at the
    // nominal rate. The batches give `pipeline_s` and the latency
    // percentiles, each the interquartile mean over the rounds of one
    // batch's value, so that a few rounds the host disturbed do not move
    // them. The windows feed the output checks and `label_ar_mean`, and
    // their latency goes to standard error only: at a low rate each request
    // waits on the host to wake the loop's idle threads, which on a shared
    // virtual machine moves it several-fold from minute to minute (the
    // traced run reports it as `loadgen.nominal_*`).
    let before = serve.metrics();
    let window = nominal_count / ROUNDS;
    let (mut walls, mut p50s, mut tails) = (Vec::new(), Vec::new(), Vec::new());
    let mut ar = ArMeter::default();
    let (mut failed, mut sent, mut hits) = (0usize, 0u64, 0usize);
    for round in 0..ROUNDS {
        let (wall, lat) = loadgen::closed_loop(
            &serve,
            traffic.stream(spec.batch).map(|r| r.request),
            spec.callers,
            |c| check_shape(&mut out, Some(&c)),
        );
        let (nominal, replies) = nominal_phase(spec, &serve, &mut traffic, window, None);
        let open = latencies(&replies);
        let lost = open.iter().chain(&lat).filter(|l| l.is_infinite()).count();
        let tail = stats::tail(&lat, 99.0).expect("requests were sent");
        eprintln!(
            "  round {round}: closed loop of {} callers, {} requests in {:.3} s: p50 {:.3} ms p{:.1} {:.3} ms; \
             open loop at {:.0}/s: {window} requests, p50 {:.3} ms, lag mean {:.3} ms; {lost} failed",
            spec.callers,
            spec.batch,
            wall.as_secs_f64(),
            median(&lat),
            tail.percentile,
            tail.value,
            spec.nominal_rate,
            median(&open),
            replies.iter().map(|r| r.lag_ms).sum::<f64>() / replies.len() as f64,
        );
        // The first REFERENCE_SAMPLE nominal requests, over as many rounds
        // as they take.
        let sample = REFERENCE_SAMPLE.saturating_sub(round * window);
        hits += check_replies(
            &mut out,
            &mut reference,
            &traffic.pool,
            &fill,
            &nominal,
            &replies,
            sample,
        );
        ar.add(&traffic.pool, &nominal, &replies);
        failed += lost;
        sent += (spec.batch + window) as u64;
        walls.push(wall.as_secs_f64());
        p50s.push(median(&lat));
        tails.push(tail);
    }
    eprintln!(
        "  closed loop: interquartile means over {ROUNDS} rounds of p50 and p{:.1}, each over {} samples",
        tails[0].percentile,
        tails[0].samples
    );
    let peak_rss = crate::peak_rss_mb();
    let after = serve.metrics();
    let answered = (after.served + after.shed + after.rejected)
        - (before.served + before.shed + before.rejected);
    out.check(answered == sent, || {
        format!("loop answered {answered} of {sent} requests")
    });
    if spec.repeat {
        out.check(hits > 0, || {
            "no cache hits on the repeat workload".to_string()
        });
    }

    let goodput = goodput(spec, &serve, &mut traffic, &mut out);

    out.attempted = sent;
    out.failed = failed as u64;
    out.set("setup_s", median(&setup));
    out.set("pipeline_s", interquartile_mean(&walls));
    out.set("label_ar_mean", ar.mean());
    out.set("p50_ms", interquartile_mean(&p50s));
    out.set(
        "p99_ms",
        interquartile_mean(&tails.iter().map(|q| q.value).collect::<Vec<_>>()),
    );
    out.set("goodput_rps", goodput);
    out.set("peak_rss_mb", peak_rss);
    drop(serve);
    out
}

/// Every non-shed reply comes from the GNN rung with angles in the
/// principal domain.
fn check_shape(out: &mut Outcome, completed: Option<&Completed>) {
    let Some(c) = completed else {
        return out.check(false, || "a request got no reply".to_string());
    };
    if let Ok(o) = &c.response.result {
        if !o.was_shed() {
            out.check(o.rung == Rung::Gnn && in_principal_domain(o), || {
                format!("reply on rung {:?} with angles {:?}", o.rung, o.angles())
            });
        }
    }
}

/// A cache-off predictor on the served artifact, remembering its answer
/// for each catalogue rank that filled a cache entry.
struct Reference {
    predictor: GuardedPredictor,
    filled: HashMap<usize, Result<PredictionOutcome, String>>,
}

impl Reference {
    fn for_request(&self, request: &ServeRequest) -> Result<PredictionOutcome, String> {
        self.predictor
            .handle(request)
            .result
            .map_err(|e| e.to_string())
    }

    /// The answer to the warm-up request of catalogue rank `filler`.
    fn for_hit(&mut self, pool: &[Graph], filler: usize) -> Result<PredictionOutcome, String> {
        if !self.filled.contains_key(&filler) {
            let request = ServeRequest::from_text(qgraph::io::graph_to_string(&pool[filler]));
            let answer = self.for_request(&request);
            self.filled.insert(filler, answer);
        }
        self.filled[&filler].clone()
    }
}

/// Shape checks on every reply, and bit-for-bit checks against a
/// cache-off `GuardedPredictor::handle`: every cache hit must equal the
/// handle of the request that filled its entry, and each of the first
/// `sample` misses the handle of its own request. Returns the hit count.
fn check_replies(
    out: &mut Outcome,
    reference: &mut Reference,
    pool: &[Graph],
    fill: &[usize],
    sent: &[Sent],
    replies: &[Reply],
    sample: usize,
) -> usize {
    out.check(sent.len() == replies.len(), || {
        "reply count differs from request count".to_string()
    });
    let mut hits = 0usize;
    for (i, (req, reply)) in sent.iter().zip(replies).enumerate() {
        check_shape(out, reply.completed.as_ref());
        let Some(Ok(o)) = reply.completed.as_ref().map(|c| &c.response.result) else {
            continue;
        };
        if o.was_shed() || o.was_breaker_skipped() {
            continue;
        }
        let expected = match (o.cached, req.rank) {
            (true, Some(rank)) => {
                hits += 1;
                reference.for_hit(pool, fill[rank])
            }
            (true, None) => {
                out.check(false, || {
                    "cache hit on a workload without a cache".to_string()
                });
                continue;
            }
            (false, _) if i < sample => match &req.req {
                Some(r) => reference.for_request(&r.request),
                None => continue,
            },
            (false, _) => continue,
        };
        match expected {
            Ok(expected) => out.check(same_bits(o, &expected), || {
                format!(
                    "request {i} (cached: {}) differs from the cache-off predictor",
                    o.cached
                )
            }),
            Err(e) => out.check(false, || {
                format!("reference predictor refused request {i}: {e}")
            }),
        }
    }
    hits
}

/// Mean approximation ratio of the angles served to answered requests,
/// from the simulator. The ratio does not depend on the node labeling, so
/// repeat requests for one catalogue rank answered with the same angles
/// share one evaluation.
#[derive(Default)]
struct ArMeter {
    memo: HashMap<(usize, u64, u64), f64>,
    sum: f64,
    count: usize,
}

impl ArMeter {
    fn add(&mut self, pool: &[Graph], sent: &[Sent], replies: &[Reply]) {
        let ratio = |graph: &Graph, o: &PredictionOutcome| {
            let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(graph));
            let score = o
                .verified_score
                .unwrap_or_else(|| Evaluator::new(&circuit).expectation_in_place(&o.params));
            circuit.hamiltonian().approximation_ratio(score)
        };
        for (s, reply) in sent.iter().zip(replies) {
            let Some(Ok(o)) = reply.completed.as_ref().map(|c| &c.response.result) else {
                continue;
            };
            if o.was_shed() {
                continue;
            }
            let r = match (s.rank, &s.req) {
                (Some(rank), _) => {
                    let (g, b) = o.angles();
                    *self
                        .memo
                        .entry((rank, g.to_bits(), b.to_bits()))
                        .or_insert_with(|| ratio(&pool[rank], o))
                }
                (None, Some(r)) => ratio(&r.graph, o),
                (None, None) => continue,
            };
            self.sum += r;
            self.count += 1;
        }
    }

    fn mean(&self) -> f64 {
        self.sum / self.count.max(1) as f64
    }
}

/// The traced run: the nominal phase once untraced and once with spans
/// around every submit and reply, then a sample of requests replayed one
/// at a time through each layer's public functions.
#[allow(clippy::too_many_arguments)]
fn traced(
    spec: &ServeSpec,
    args: &Args,
    serve: &ServeLoop,
    reference: &mut Reference,
    traffic: &Traffic,
    count: usize,
    warm_cache: &CacheStats,
    out: &mut Outcome,
) {
    let pool = &traffic.pool;
    let (_, plain) = nominal_phase(spec, serve, &mut traffic.clone(), count, None);
    let before = serve.metrics();
    let t = Tracer::default();
    let (nominal, replies) = nominal_phase(spec, serve, &mut traffic.clone(), count, Some(&t));
    let after = serve.metrics();
    out.attempted = (plain.len() + replies.len()) as u64;
    out.failed = plain.iter().chain(&replies).filter(|r| r.failed).count() as u64;
    let fill = fillers(pool);
    let hits = check_replies(
        out,
        reference,
        pool,
        &fill,
        &nominal,
        &replies,
        REFERENCE_SAMPLE,
    );
    if spec.repeat {
        out.check(hits > 0, || {
            "no cache hits on the repeat workload".to_string()
        });
    }
    let open = latencies(&plain);
    let (p50_plain, p50_traced) = (median(&open), median(&latencies(&replies)));
    out.set("trace.overhead_frac", (p50_traced - p50_plain) / p50_plain);

    let queued: Vec<f64> = replies
        .iter()
        .filter_map(|r| r.completed.as_ref().map(|c| c.queued_micros as f64))
        .collect();
    out.set("loop.queue_wait_us_p50", median(&queued));
    out.set("loop.queue_wait_us_p99", p99(&queued));
    out.set("loop.shed", (after.shed - before.shed) as f64);
    out.set("loop.breaker_trips", after.breaker_trips as f64);
    out.set("loop.respawns", after.respawns as f64);
    out.set(
        "loadgen.lag_ms_p99",
        p99(&replies.iter().map(|r| r.lag_ms).collect::<Vec<_>>()),
    );
    out.set("loadgen.nominal_p50_ms", p50_plain);
    out.set("loadgen.nominal_p99_ms", p99(&open));
    let gnn = replies
        .iter()
        .filter(|r| matches!(r.completed.as_ref().map(|c| &c.response.result), Some(Ok(o)) if o.rung == Rung::Gnn && !o.was_shed()))
        .count();
    out.set("serve.gnn_rung_frac", gnn as f64 / replies.len() as f64);

    if spec.repeat {
        let cache = serve.cache_stats();
        let lookups = (cache.hits + cache.misses) - (warm_cache.hits + warm_cache.misses);
        out.set("cache.lookups", lookups as f64);
        out.set(
            "cache.hit_rate",
            (cache.hits - warm_cache.hits) as f64 / lookups.max(1) as f64,
        );
        out.set(
            "cache.collision_rate",
            (cache.collisions - warm_cache.collisions) as f64 / lookups.max(1) as f64,
        );
        out.set("cache.resident_bytes", cache.resident_bytes as f64);
    }

    let replayed: Vec<&Req> = nominal
        .iter()
        .filter_map(|s| s.req.as_ref())
        .take(REPLAY)
        .collect();
    replay(spec, &t, &reference.predictor, pool, &fill, &replayed, out);

    crate::set_self_times(out, &t);
    let spans = t.spans().len();
    let log = scratch_dir().join(format!("spans-{}-{}.tsv", spec.name, args.seed));
    if let Err(e) = t.write(&log) {
        out.check(false, || format!("span log not written: {e}"));
    }
    eprintln!(
        "  p50 traced {p50_traced:.3} ms vs untraced {p50_plain:.3} ms; {spans} spans in {}",
        log.display()
    );
}

/// Replays requests one at a time through the layers a served request
/// crosses, each call in its own span under a per-request root: parse,
/// envelope check, cache probe, WL hash and the exact matcher against the
/// resident entries sharing the hash, context build, forward pass and
/// simulator verification — as far as the workload uses each.
fn replay(
    spec: &ServeSpec,
    t: &Tracer,
    reference: &GuardedPredictor,
    pool: &[Graph],
    fill: &[usize],
    reqs: &[&Req],
    out: &mut Outcome,
) {
    let config = reference.config().clone();
    let envelope = reference.envelope().cloned();
    let model = match reference.artifact().build_model() {
        Ok(m) => m,
        Err(e) => return out.check(false, || format!("served model does not build: {e}")),
    };
    // A cache filled the way the loop's was, for probing lookups.
    let cache = std::sync::Arc::new(PredictionCache::new(CacheConfig::default()));
    let resident: Vec<(u64, &Graph)> = if spec.repeat {
        let filler = GuardedPredictor::shared(
            std::sync::Arc::new(reference.artifact().clone()),
            config.clone(),
        )
        .with_cache(cache.clone(), 0);
        for g in pool {
            filler.handle(&ServeRequest::from_text(qgraph::io::graph_to_string(g)));
        }
        let mut firsts: Vec<usize> = fill.to_vec();
        firsts.sort_unstable();
        firsts.dedup();
        firsts
            .iter()
            .map(|&k| (canon::wl_hash(&pool[k]), &pool[k]))
            .collect()
    } else {
        Vec::new()
    };
    let mut candidates = 0usize;
    for (i, req) in reqs.iter().enumerate() {
        let id = Some(i as u64);
        let root = t.open();
        let parent = Some(root.0);
        let graph = match &req.request.payload {
            RequestPayload::Text(text) => match t.span("qgraph.io::parse", parent, id, |_| {
                qgraph::io::graph_from_str_limited(text, &config.limits)
            }) {
                Ok(g) => g,
                Err(e) => return out.check(false, || format!("request {i} does not parse: {e}")),
            },
            RequestPayload::Graph(g) => g.clone(),
        };
        if let Some(env) = &envelope {
            let admitted = t.span("core.serve.envelope::check", parent, id, |_| {
                env.check(&graph)
            });
            out.check(admitted.is_ok(), || {
                format!("request {i} is outside the training envelope")
            });
        }
        if spec.repeat {
            t.span("core.cache::lookup", parent, id, |_| {
                cache.lookup(&graph, 0)
            });
            let hash = t.span("qgraph.canon::wl_hash", parent, id, |_| {
                canon::wl_hash(&graph)
            });
            for (_, other) in resident.iter().filter(|(h, _)| *h == hash) {
                candidates += 1;
                t.span("qgraph.canon::are_isomorphic", parent, id, |_| {
                    canon::are_isomorphic(other, &graph)
                });
            }
        }
        let ctx = t.span("gnn::context", parent, id, |_| {
            GraphContext::new(&graph, &model.config().features, model.config().gin_eps)
        });
        let (gamma, beta) = t.span("gnn::forward", parent, id, |_| model.predict_ctx(&ctx));
        if config.verify_max_nodes >= graph.n() {
            let params = qaoa::Params::new(vec![gamma], vec![beta]);
            let score = t.span(
                "core.serve.verify::expectation_in_place",
                parent,
                id,
                |_| {
                    let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&graph));
                    Evaluator::with_sim_threads(&circuit, config.sim_threads)
                        .expectation_in_place(&params)
                },
            );
            out.check(score.is_finite(), || {
                format!("request {i} verifies to {score}")
            });
        }
        t.close(root, "perfbench::replay", None, id);
    }
    let us = |name: &str| t.durations_us(name);
    let n = reqs.len().max(1) as f64;
    out.set("gnn.context_us", median(&us("gnn::context")));
    out.set("gnn.forward_us", median(&us("gnn::forward")));
    out.set(
        "serve.envelope_us",
        median(&us("core.serve.envelope::check")),
    );
    let verify = us("core.serve.verify::expectation_in_place");
    out.set("serve.verify_us_p50", median(&verify));
    out.set("serve.verify_us_p99", p99(&verify));
    if spec.repeat {
        let lookup = us("core.cache::lookup");
        out.set("qgraph.parse_us", median(&us("qgraph.io::parse")));
        out.set("qgraph.wl_hash_us", median(&us("qgraph.canon::wl_hash")));
        out.set("qgraph.iso_candidates_per_lookup", candidates as f64 / n);
        let iso = us("qgraph.canon::are_isomorphic");
        out.set(
            "qgraph.iso_us",
            iso.iter().sum::<f64>() / iso.len().max(1) as f64,
        );
        out.set("cache.lookup_us_p50", median(&lookup));
        out.set("cache.lookup_us_p99", p99(&lookup));
    }
}
