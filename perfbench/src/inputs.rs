//! Seeded workload inputs: paper-mix regular graphs, Zipf popularity and
//! random relabelings. Everything here is a pure function of its RNG.

use qgraph::generate::random_regular;
use qgraph::Graph;
use qrand::rngs::StdRng;
use qrand::seq::SliceRandom;
use qrand::Rng;

/// The paper's degree cap (§3.1: degrees 2–14).
const MAX_DEGREE: usize = 14;

/// Degrees a simple `d`-regular graph on `n` nodes can have under the
/// paper's mix: `2..=min(14, n-1)` (just `1` for `n = 2`) with `n·d` even.
pub fn feasible_degrees(n: usize) -> Vec<usize> {
    let hi = MAX_DEGREE.min(n - 1);
    let lo = 2.min(hi).max(1);
    (lo..=hi).filter(|d| (n * d).is_multiple_of(2)).collect()
}

/// `count` (size, degree) shapes with sizes stratified evenly over
/// `min_n..=max_n` (the first `count % sizes` sizes get one extra) and each
/// size cycling through its feasible degrees. The shape list does not
/// depend on the seed, so the simulator's `2^n` cost mix is the same for
/// every seed; only which graphs, and their order, do.
pub fn stratified_shapes(count: usize, min_n: usize, max_n: usize) -> Vec<(usize, usize)> {
    let sizes = max_n - min_n + 1;
    let mut shapes = Vec::with_capacity(count);
    for (slot, n) in (min_n..=max_n).enumerate() {
        let per_size = count / sizes + usize::from(slot < count % sizes);
        let degrees = feasible_degrees(n);
        shapes.extend((0..per_size).map(|i| (n, degrees[i % degrees.len()])));
    }
    shapes
}

/// Random regular graphs for `shapes`, in a seed-shuffled order.
pub fn graphs_for_shapes(shapes: &[(usize, usize)], rng: &mut StdRng) -> Vec<Graph> {
    let mut shapes = shapes.to_vec();
    shapes.shuffle(rng);
    shapes
        .iter()
        .map(|&(n, d)| random_regular(n, d, rng).expect("feasible shape"))
        .collect()
}

/// One paper-mix graph: size uniform in `min_n..=max_n`, degree uniform
/// over the size's feasible degrees.
pub fn paper_graph(min_n: usize, max_n: usize, rng: &mut StdRng) -> Graph {
    let n = rng.gen_range(min_n..=max_n);
    let degrees = feasible_degrees(n);
    let d = degrees[rng.gen_range(0..degrees.len())];
    random_regular(n, d, rng).expect("feasible shape")
}

/// A uniformly random node relabeling of `graph`.
pub fn relabel(graph: &Graph, rng: &mut StdRng) -> Graph {
    let mut perm: Vec<usize> = (0..graph.n()).collect();
    perm.shuffle(rng);
    graph.relabel(&perm)
}

/// Zipf(`s`) over ranks `0..len` (rank 0 most popular).
#[derive(Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(len: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=len)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph::canon;
    use qrand::SeedableRng;

    #[test]
    fn zipf_draws_repeat_per_seed_and_favour_low_ranks() {
        let zipf = Zipf::new(64, 1.1);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..2000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let ranks = draw(7);
        assert!(ranks.iter().all(|&r| r < 64));
        let head = ranks.iter().filter(|&&r| r == 0).count();
        let tail = ranks.iter().filter(|&&r| r == 63).count();
        assert!(head > 5 * tail.max(1), "rank 0: {head}, rank 63: {tail}");
    }

    #[test]
    fn relabeling_repeats_per_seed_and_preserves_isomorphism() {
        let mut rng = StdRng::seed_from_u64(3);
        let pool: Vec<Graph> = (0..24).map(|_| paper_graph(2, 15, &mut rng)).collect();
        let relabel_all = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            pool.iter()
                .map(|g| relabel(g, &mut rng))
                .collect::<Vec<_>>()
        };
        let a = relabel_all(11);
        assert_eq!(a, relabel_all(11));
        for (g, r) in pool.iter().zip(&a) {
            assert!(canon::are_isomorphic(g, r));
        }
        assert!(
            pool.iter().zip(&a).any(|(g, r)| g != r),
            "relabeling moves nodes"
        );
    }

    #[test]
    fn shapes_are_stratified_and_feasible() {
        let shapes = stratified_shapes(360, 2, 15);
        assert_eq!(shapes.len(), 360);
        for n in 2..=15 {
            let k = shapes.iter().filter(|s| s.0 == n).count();
            assert!(k == 25 || k == 26, "n={n}: {k}");
        }
        for &(n, d) in &shapes {
            assert!(d < n && (n * d) % 2 == 0);
        }
        let mut rng = StdRng::seed_from_u64(5);
        let graphs = graphs_for_shapes(&shapes[..40], &mut rng);
        let mut again = StdRng::seed_from_u64(5);
        assert_eq!(graphs, graphs_for_shapes(&shapes[..40], &mut again));
    }
}
