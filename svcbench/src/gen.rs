//! Seeded inputs: grade columns and query streams.
//!
//! Everything the program under test receives is generated here before any
//! timer starts. Each workload's database and the multiset of its requests
//! are fixed; the `--seed` orders the timed requests. The same seed gives
//! the same inputs, so every count the benchmark reports repeats exactly; a
//! different seed reorders the stream, which changes which requests find
//! their answer in the cache, but not how much work the stream holds.
//! Drawing the database and the requests from the seed as well moved the
//! mean cost and the throughput between seeds by more than the changes the
//! benchmark must resolve (see README.md).

use fagin_middleware::{AccessPolicy, BatchConfig, CostModel};
use fagin_serve::{AggSpec, QueryRequest};

/// Lists per database: the paper's running `m = 3`.
pub const M: usize = 3;

/// Largest `k` any workload asks for.
pub const K_MAX: usize = 50;

/// The SplitMix64 generator: tiny, seedable, and identical on every
/// platform, so a seed names the same inputs everywhere.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and an independent `stream` label.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The benchmark's workloads (see the README for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Exact queries over all shapes; one in nine is a cache hit.
    ColdMixed,
    /// 28 cached shapes; every timed query is a prefix hit.
    HotRepeat,
    /// Cost-budgeted degradable NRA/CA queries over Zipf grades.
    AnytimeDegraded,
    /// The cold-mixed stream, batched, through an mmap store served over
    /// loopback TCP.
    RemoteStore,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdMixed,
        Workload::HotRepeat,
        Workload::AnytimeDegraded,
        Workload::RemoteStore,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMixed => "cold-mixed",
            Workload::HotRepeat => "hot-repeat",
            Workload::AnytimeDegraded => "anytime-degraded",
            Workload::RemoteStore => "remote-store",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Objects in the database.
    pub fn objects(self) -> usize {
        match self {
            Workload::AnytimeDegraded => 10_000,
            _ => 100_000,
        }
    }

    /// Whether the service reaches its lists through the store and the
    /// shard server.
    pub fn is_remote(self) -> bool {
        self == Workload::RemoteStore
    }
}

/// The seed of everything but the order of the timed requests.
const FIXED: u64 = 0x5EED;

/// The grade columns of `workload`'s database (`columns[list][object]`):
/// independent `U(0,1)` grades, shared by cold-mixed, hot-repeat and
/// remote-store; for anytime-degraded, Zipf grades (`s = 1`): per list the
/// grade at rank `r` is `1/r`, ranks assigned by a random permutation.
pub fn columns(workload: Workload) -> Vec<Vec<f64>> {
    let n = workload.objects();
    let mut rng = Rng::new(FIXED, 1);
    match workload {
        Workload::ColdMixed | Workload::HotRepeat | Workload::RemoteStore => (0..M)
            .map(|_| (0..n).map(|_| rng.unit()).collect())
            .collect(),
        Workload::AnytimeDegraded => (0..M)
            .map(|_| {
                let mut ranks: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut ranks);
                ranks.iter().map(|&r| 1.0 / (r + 1) as f64).collect()
            })
            .collect(),
    }
}

/// A workload's requests: an untimed warm-up, then the list each timed
/// pass walks.
#[derive(Clone, Debug)]
pub struct Stream {
    /// Requests answered before the timer starts.
    pub warmup: Vec<QueryRequest>,
    /// Requests of one timed pass.
    pub pass: Vec<QueryRequest>,
}

impl Stream {
    /// Warm-up followed by the counted pass: the sequence every count
    /// metric covers.
    pub fn counted(&self) -> impl Iterator<Item = &QueryRequest> {
        self.warmup.iter().chain(&self.pass)
    }

    /// Number of counted requests.
    pub fn counted_len(&self) -> usize {
        self.warmup.len() + self.pass.len()
    }
}

/// Batch size of every remote-store query: large enough that per-call work,
/// not loopback wake-ups, dominates a round trip.
pub const REMOTE_BATCH: usize = 256;

/// `count` values spread evenly over `0..range`, in random order, so a
/// stream's mix of cheap and expensive requests does not hinge on a few
/// lucky draws.
fn spread(rng: &mut Rng, count: usize, range: usize) -> Vec<usize> {
    let mut values: Vec<usize> = (0..count)
        .map(|j| (2 * j + 1) * range / (2 * count))
        .collect();
    rng.shuffle(&mut values);
    values
}

/// The mixed stream's cost ratios `c_R/c_S`: 64 values, `1, 1.5, …, 32.5`
/// in the timed pass and `1.25, 1.75, …, 32.75` in the warm-up, so no
/// warm-up entry ever serves a timed request.
fn mixed_ratio(index: usize, warmup: bool) -> f64 {
    1.0 + 0.5 * index as f64 + if warmup { 0.25 } else { 0.0 }
}

/// The mixed stream: each of the 7 aggregations, with random access
/// (planned as TA, CA or the max specialist) or without it and gradeless
/// (NRA), at batch 1 and at batch 32, `per_batch` times with distinct cost
/// ratios and `k` spread over `[1, 50]`. The first `repeats` of each
/// (aggregation, access, batch) cell are followed by a repeat of their
/// cache key at a `k` the cached answer covers, so exactly those requests
/// hit the cache; every other request's key is new to the pass. The order
/// of (request, repeat) groups is random.
fn mixed(rng: &mut Rng, per_batch: usize, repeats: usize, warmup: bool) -> Vec<QueryRequest> {
    let mut groups = Vec::new();
    for agg in AggSpec::ALL {
        for random_access in [true, false] {
            let mut ratios: Vec<usize> = (0..64).collect();
            rng.shuffle(&mut ratios);
            let mut ratios = ratios.into_iter();
            for batch in [1, 32] {
                for (j, k) in spread(rng, per_batch, K_MAX).into_iter().enumerate() {
                    let ratio = mixed_ratio(ratios.next().expect("≤ 64 per cell"), warmup);
                    let req = QueryRequest::new(agg, 1 + k)
                        .with_costs(CostModel::new(1.0, ratio))
                        .with_batch(BatchConfig::new(batch));
                    let req = if random_access {
                        req
                    } else {
                        req.with_policy(AccessPolicy::no_random_access())
                            .require_grades(false)
                    };
                    let mut group = vec![req.clone()];
                    if j < repeats {
                        // Graded answers serve any smaller k (the τ-prefix
                        // rule); gradeless ones only the same k.
                        let mut repeat = req;
                        if random_access {
                            repeat.k = 1 + rng.below(repeat.k);
                        }
                        group.push(repeat);
                    }
                    groups.push(group);
                }
            }
        }
    }
    rng.shuffle(&mut groups);
    groups.into_iter().flatten().collect()
}

/// Hot-repeat's shapes: 4 cost ratios of each aggregation, 28 in all.
pub const HOT_SHAPES: usize = 4 * 7;

/// Cost budget of a Min request on anytime-degraded: far above what any
/// run needs to converge. Min certifies nothing until `k` candidates are
/// fully seen, so a tighter budget would strike first and fail the query.
const MIN_BUDGET: f64 = 40_000.0;

/// `reps` requests of every anytime-degraded cell — Min, Average or Sum,
/// without random access (planned as NRA) or with `c_R/c_S ∈ [5, 20]`
/// (planned as CA) — with `k ∈ [1, 20]`, batch 8, shuffled. Each carries a
/// cost budget with degradation: Average and Sum get `50·k` to `100·k`,
/// tight enough that their runs are interrupted and answer with a
/// certified θ̂; Min gets [`MIN_BUDGET`] and converges on the anytime path.
fn anytime(rng: &mut Rng, reps: usize, warmup: bool) -> Vec<QueryRequest> {
    let mut out = Vec::with_capacity(6 * reps);
    // Distinct ratios within a cell, and warm-up ratios off the pass's
    // grid, give every request its own cache key: no request of the first
    // pass is served from the cache.
    let offset = if warmup { 0.5 } else { 0.0 };
    for agg in [AggSpec::Min, AggSpec::Average, AggSpec::Sum] {
        for random_access in [true, false] {
            let ks = spread(rng, reps, 20);
            let ratios = spread(rng, reps, reps);
            let slack = spread(rng, reps, 64);
            for ((k, ratio), slack) in ks.into_iter().zip(ratios).zip(slack) {
                let k = 1 + k;
                let ratio = 5.0 + 15.0 * (ratio as f64 + offset) / reps as f64;
                let costs = CostModel::new(1.0, ratio);
                let budget = match agg {
                    AggSpec::Min => MIN_BUDGET,
                    _ => 50.0 * k as f64 * (1.0 + slack as f64 / 64.0),
                };
                let req = QueryRequest::new(agg, k)
                    .with_costs(costs)
                    .with_batch(BatchConfig::new(8));
                let req = if random_access {
                    req
                } else {
                    req.with_policy(AccessPolicy::no_random_access())
                        .require_grades(false)
                };
                out.push(req.with_cost_budget(budget).with_degradation());
            }
        }
    }
    rng.shuffle(&mut out);
    out
}

/// Hot-repeat's shapes: 4 cost ratios of each aggregation, all graded, at
/// `k = 50`. Filling each once makes every later request a prefix hit.
fn hot_shapes(rng: &mut Rng) -> Vec<QueryRequest> {
    let mut shapes = Vec::with_capacity(HOT_SHAPES);
    for agg in AggSpec::ALL {
        for ratio in spread(rng, HOT_SHAPES / AggSpec::ALL.len(), 64) {
            shapes.push(
                QueryRequest::new(agg, K_MAX)
                    .with_costs(CostModel::new(1.0, 1.0 + 0.5 * ratio as f64))
                    .with_batch(BatchConfig::new(32)),
            );
        }
    }
    rng.shuffle(&mut shapes);
    shapes
}

/// `count` hot-repeat requests: shapes drawn with Zipf popularity (the
/// shape of rank `r` has weight `1/r`), `k ∈ [1, 50]`.
fn hot_draws(rng: &mut Rng, shapes: &[QueryRequest], count: usize) -> Vec<QueryRequest> {
    let weights: Vec<f64> = (0..shapes.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    spread(rng, count, K_MAX)
        .into_iter()
        .map(|k| {
            let mut u = rng.unit() * total;
            let rank = weights
                .iter()
                .position(|w| {
                    u -= w;
                    u < 0.0
                })
                .unwrap_or(shapes.len() - 1);
            let mut req = shapes[rank].clone();
            req.k = 1 + k;
            req
        })
        .collect()
}

/// The request streams of `workload`, the timed pass in `seed`'s order.
pub fn stream(workload: Workload, seed: u64) -> Stream {
    let mut rng = Rng::new(FIXED, 2);
    let mut stream = match workload {
        Workload::ColdMixed | Workload::RemoteStore => {
            let mut warmup = mixed(&mut rng, 1, 0, true);
            let mut pass = mixed(&mut rng, 32, 4, false);
            if workload.is_remote() {
                for req in warmup.iter_mut().chain(&mut pass) {
                    req.batch = BatchConfig::new(REMOTE_BATCH);
                }
            }
            Stream { warmup, pass }
        }
        Workload::HotRepeat => {
            let shapes = hot_shapes(&mut rng);
            let mut warmup = shapes.clone();
            warmup.extend(hot_draws(&mut rng, &shapes, 1_024));
            let pass = hot_draws(&mut rng, &shapes, 4_096);
            Stream { warmup, pass }
        }
        Workload::AnytimeDegraded => Stream {
            warmup: anytime(&mut rng, 6, true),
            pass: anytime(&mut rng, 170, false),
        },
    };
    reorder(&mut stream.pass, Rng::new(seed, 3));
    stream
}

/// Shuffles the pass in `rng`'s order, keeping each cache-key repeat right
/// behind the request it repeats.
fn reorder(pass: &mut Vec<QueryRequest>, mut rng: Rng) {
    let mut groups: Vec<Vec<QueryRequest>> = Vec::new();
    for req in pass.drain(..) {
        match groups.last_mut() {
            Some(group) if same_key(&group[0], &req) => group.push(req),
            _ => groups.push(vec![req]),
        }
    }
    rng.shuffle(&mut groups);
    pass.extend(groups.into_iter().flatten());
}

/// Whether two requests share a result-cache key (aggregation, access
/// policy, grade requirement and cost model).
fn same_key(a: &QueryRequest, b: &QueryRequest) -> bool {
    a.agg == b.agg
        && a.policy == b.policy
        && a.require_grades == b.require_grades
        && a.costs == b.costs
}
