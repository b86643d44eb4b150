//! E10: θ-approximation cost savings and interactive early stopping (§6.2).

use fagin_core::aggregation::Average;
use fagin_core::algorithms::Ta;
use fagin_core::oracle;
use fagin_middleware::{AccessPolicy, CostModel, Session};
use fagin_workloads::random;

use crate::table::{f, Table};
use crate::{run, Scale};

/// **E10 (§6.2).** (a) TAθ's cost as a function of `θ`: how much cheaper an
/// approximate answer is, with the guarantee verified against the oracle.
/// (b) An early-stopping trace: the guarantee `θ = τ/β` TA can show the
/// user after each round, shrinking to 1 at the exact answer.
pub fn e10_theta_and_early_stop(scale: Scale) -> Vec<Table> {
    let n = scale.pick(500, 20_000);
    let k = 10;
    let mut t = Table::new(format!(
        "E10a: TA_theta cost vs theta (uniform + zipf, N={n}, m=3, k={k}, avg)"
    ))
    .headers([
        "theta",
        "uniform cost",
        "vs exact",
        "zipf cost",
        "vs exact",
        "guarantees valid",
    ]);
    let uni = random::uniform(n, 3, 0xA10);
    let zpf = random::zipf(n, 3, 1.0, 0xA11);
    let exact_uni = CostModel::UNIT.cost(
        &run(
            &uni,
            AccessPolicy::no_wild_guesses(),
            &Ta::new(),
            &Average,
            k,
        )
        .stats,
    );
    let exact_zpf = CostModel::UNIT.cost(
        &run(
            &zpf,
            AccessPolicy::no_wild_guesses(),
            &Ta::new(),
            &Average,
            k,
        )
        .stats,
    );
    for theta in [1.0, 1.01, 1.05, 1.1, 1.25, 1.5, 2.0] {
        let algo = if theta > 1.0 {
            Ta::theta(theta)
        } else {
            Ta::new()
        };
        let ou = run(&uni, AccessPolicy::no_wild_guesses(), &algo, &Average, k);
        let oz = run(&zpf, AccessPolicy::no_wild_guesses(), &algo, &Average, k);
        let valid = oracle::is_valid_theta_approximation(&uni, &Average, k, theta, &ou.objects())
            && oracle::is_valid_theta_approximation(&zpf, &Average, k, theta, &oz.objects());
        assert!(valid, "theta={theta} guarantee violated");
        let cu = CostModel::UNIT.cost(&ou.stats);
        let cz = CostModel::UNIT.cost(&oz.stats);
        t.row([
            f(theta),
            f(cu),
            format!("{:.0}%", 100.0 * cu / exact_uni),
            f(cz),
            format!("{:.0}%", 100.0 * cz / exact_zpf),
            "yes".into(),
        ]);
    }
    t.note("theta = 1 is exact TA; savings grow with theta (Thm 6.6/6.7)");

    // (b) Early-stopping trace on the uniform database.
    let mut t2 = Table::new("E10b: early-stopping trace — guarantee θ = τ/β per round (uniform)")
        .headers([
            "round",
            "threshold τ",
            "kth grade β",
            "guarantee θ",
            "view is θ-approx",
        ]);
    let mut session = Session::with_policy(&uni, AccessPolicy::no_wild_guesses());
    let ta = Ta::new();
    let mut stepper = ta.stepper(&mut session, &Average, k).unwrap();
    let mut sampled = 0u64;
    while !stepper.is_halted() {
        stepper.step().unwrap();
        let round = stepper.rounds();
        // Sample a handful of rounds plus the final one.
        let view = stepper.view();
        if let (Some(beta), Some(g)) = (view.beta, view.guarantee) {
            let is_power_of_two_ish = round.is_power_of_two();
            if is_power_of_two_ish || stepper.is_halted() {
                let objs: Vec<_> = view.items.iter().map(|i| i.object).collect();
                let valid = oracle::is_valid_theta_approximation(&uni, &Average, k, g, &objs);
                assert!(valid, "early-stop guarantee invalid at round {round}");
                t2.row([
                    round.to_string(),
                    f(view.threshold.value()),
                    f(beta.value()),
                    f(g),
                    "yes".into(),
                ]);
                sampled += 1;
            }
        }
    }
    assert!(sampled > 0, "trace sampled no rounds");
    t2.note("the user may stop at any round and keep the shown θ-approximation (§6.2)");
    vec![t, t2]
}

/// **E16 (§6.2 + anytime serving).** The θ/anytime matrix behind the
/// `BENCH_topk.json` anytime rows
/// ([`crate::report::anytime_matrix`]), rendered as two tables:
/// (a) access counts and wall time as the slack relaxes from exact to
/// θ = 2 for TA, NRA(lazy) and CA(h=2) on every standard workload;
/// (b) the interruption sweep — anytime runs round-capped at ¼, ½ and ¾
/// of the exact run's rounds, with the certified θ̂ each returns.
pub fn e16_anytime(scale: Scale) -> Vec<Table> {
    let records = crate::report::anytime_matrix(scale);
    let ms = |secs: f64| format!("{:.3}", secs * 1e3);

    let mut t = Table::new("E16a: θ-halting — accesses and wall time vs slack (standard grid)")
        .headers([
            "workload",
            "algorithm",
            "theta",
            "sorted",
            "random",
            "wall ms",
        ]);
    for r in records
        .iter()
        .filter(|r| r.mode == "exact" || r.mode == "theta")
    {
        t.row([
            r.workload.clone(),
            r.algorithm.clone(),
            f(r.theta),
            r.sorted.to_string(),
            r.random.to_string(),
            ms(r.wall_secs),
        ]);
    }
    t.note(
        "θ-runs never access more than their exact counterpart \
         (enforced in CI by --assert-theta-monotone)",
    );

    let mut t2 = Table::new("E16b: interruption sweep — certified θ̂ at each round cap").headers([
        "workload",
        "algorithm",
        "cap",
        "guarantee θ̂",
        "sorted",
        "random",
        "bound recomp.",
    ]);
    for r in records.iter().filter(|r| r.mode.starts_with("cap=")) {
        t2.row([
            r.workload.clone(),
            r.algorithm.clone(),
            r.mode.trim_start_matches("cap=").to_string(),
            f(r.guarantee),
            r.sorted.to_string(),
            r.random.to_string(),
            r.bound_recomputations.to_string(),
        ]);
    }
    t2.note(
        "every interrupted answer carries a certificate the oracle verifies; \
         θ̂ shrinks to 1 as the cap approaches convergence; bound recomp. \
         counts the per-round certificate work on top of the run's own",
    );
    vec![t, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_runs_quick() {
        let tables = e10_theta_and_early_stop(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert!(!tables[0].is_empty());
        assert!(!tables[1].is_empty());
    }

    #[test]
    fn e16_runs_quick() {
        let tables = e16_anytime(Scale::Quick);
        assert_eq!(tables.len(), 2);
        // 4 workloads × 3 families × 4 slack levels in the θ table.
        assert_eq!(tables[0].len(), 4 * 3 * 4);
        assert!(!tables[1].is_empty());
    }
}
