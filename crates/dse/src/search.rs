//! Baseline search methods: random search, NSGA-II-lite and simulated
//! annealing.

use crate::hv::hypervolume;
use crate::mbo::{check_config, check_reference, MboConfig, SearchResult};
use crate::pareto::dominates;
use crate::{DseError, Result};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Pure random search with the same evaluation budget bookkeeping as
/// [`crate::mbo`], for the paper's Fig. 12a comparison.
///
/// # Errors
///
/// Returns [`DseError::BadObjectives`] for an empty or non-finite
/// reference point and on dimension mismatches, and
/// [`DseError::BadPlan`] when the planned evaluation count overflows
/// `usize`.
pub fn random_search<C: Clone>(
    config: &MboConfig,
    mut sample: impl FnMut(&mut ChaCha8Rng) -> C,
    mut objective: impl FnMut(&C) -> Vec<f64>,
) -> Result<SearchResult<C>> {
    check_config(config)?;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let d = config.reference.len();
    let mut evaluated: Vec<(C, Vec<f64>)> = Vec::new();
    let mut hv_trace = Vec::new();
    let record = |evaluated: &Vec<(C, Vec<f64>)>, hv_trace: &mut Vec<(usize, f64)>| {
        let objs: Vec<Vec<f64>> = evaluated.iter().map(|(_, o)| o.clone()).collect();
        hv_trace.push((evaluated.len(), hypervolume(&objs, &config.reference)));
    };
    for phase in 0..=config.iterations {
        let count = if phase == 0 {
            config.initial_samples
        } else {
            config.batch
        };
        for _ in 0..count {
            let c = sample(&mut rng);
            let o = objective(&c);
            if o.len() != d {
                return Err(DseError::BadObjectives {
                    reason: format!("objective dim {} vs reference dim {d}", o.len()),
                });
            }
            evaluated.push((c, o));
        }
        record(&evaluated, &mut hv_trace);
    }
    Ok(SearchResult {
        evaluated,
        hv_trace,
    })
}

/// NSGA-II-lite parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NsgaConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Per-child mutation probability.
    pub mutation_rate: f64,
    /// Hypervolume reference point for the trace.
    pub reference: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NsgaConfig {
    fn default() -> Self {
        NsgaConfig {
            population: 24,
            generations: 10,
            mutation_rate: 0.5,
            reference: vec![1.0, 1.0],
            seed: 0,
        }
    }
}

/// A compact NSGA-II: non-dominated sorting plus crowding distance,
/// binary tournament, user-supplied crossover and mutation operators.
///
/// # Errors
///
/// Returns [`DseError::BadObjectives`] for an empty or non-finite
/// reference point and on dimension mismatches.
pub fn nsga2<C: Clone>(
    config: &NsgaConfig,
    mut sample: impl FnMut(&mut ChaCha8Rng) -> C,
    mut crossover: impl FnMut(&C, &C, &mut ChaCha8Rng) -> C,
    mut mutate: impl FnMut(&mut C, &mut ChaCha8Rng),
    mut objective: impl FnMut(&C) -> Vec<f64>,
) -> Result<SearchResult<C>> {
    check_reference(&config.reference)?;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let d = config.reference.len();
    let mut evaluated: Vec<(C, Vec<f64>)> = Vec::new();
    let mut hv_trace: Vec<(usize, f64)> = Vec::new();
    let eval = |c: C,
                    evaluated: &mut Vec<(C, Vec<f64>)>,
                    objective: &mut dyn FnMut(&C) -> Vec<f64>|
     -> Result<Vec<f64>> {
        let o = objective(&c);
        if o.len() != d {
            return Err(DseError::BadObjectives {
                reason: format!("objective dim {} vs reference dim {d}", o.len()),
            });
        }
        evaluated.push((c, o.clone()));
        Ok(o)
    };

    // Initial population.
    let mut pop: Vec<(C, Vec<f64>)> = Vec::with_capacity(config.population);
    for _ in 0..config.population {
        let c = sample(&mut rng);
        let o = eval(c.clone(), &mut evaluated, &mut objective)?;
        pop.push((c, o));
    }
    let trace = |evaluated: &Vec<(C, Vec<f64>)>, hv_trace: &mut Vec<(usize, f64)>| {
        let objs: Vec<Vec<f64>> = evaluated.iter().map(|(_, o)| o.clone()).collect();
        hv_trace.push((evaluated.len(), hypervolume(&objs, &config.reference)));
    };
    trace(&evaluated, &mut hv_trace);

    for _ in 0..config.generations {
        let (ranks, crowding) = rank_and_crowd(&pop);
        // Binary tournament selection by (rank, -crowding).
        let better = |i: usize, j: usize| -> usize {
            if rank_crowd_cmp(ranks[i], crowding[i], ranks[j], crowding[j]).is_lt() {
                i
            } else {
                j
            }
        };
        let mut offspring: Vec<(C, Vec<f64>)> = Vec::with_capacity(config.population);
        while offspring.len() < config.population {
            let p1 = better(rng.gen_range(0..pop.len()), rng.gen_range(0..pop.len()));
            let p2 = better(rng.gen_range(0..pop.len()), rng.gen_range(0..pop.len()));
            let mut child = crossover(&pop[p1].0, &pop[p2].0, &mut rng);
            if rng.gen_bool(config.mutation_rate) {
                mutate(&mut child, &mut rng);
            }
            let o = eval(child.clone(), &mut evaluated, &mut objective)?;
            offspring.push((child, o));
        }
        // Environmental selection from the combined pool.
        pop.extend(offspring);
        let (ranks, crowding) = rank_and_crowd(&pop);
        let mut order: Vec<usize> = (0..pop.len()).collect();
        order.sort_by(|&a, &b| {
            rank_crowd_cmp(ranks[a], crowding[a], ranks[b], crowding[b])
        });
        let keep: Vec<(C, Vec<f64>)> = order
            .into_iter()
            .take(config.population)
            .map(|i| pop[i].clone())
            .collect();
        pop = keep;
        trace(&evaluated, &mut hv_trace);
    }
    Ok(SearchResult {
        evaluated,
        hv_trace,
    })
}

/// NSGA-II preference order: lower rank first, then larger crowding
/// distance. `f64::total_cmp` gives a panic-free total order in which
/// positive NaN sorts above +inf, so a NaN crowding distance (only
/// possible for degenerate fronts) ranks as the largest distance and is
/// preferred — the same preference the old NaN-to-inf shim produced.
fn rank_crowd_cmp(
    rank_a: usize,
    crowd_a: f64,
    rank_b: usize,
    crowd_b: f64,
) -> std::cmp::Ordering {
    rank_a.cmp(&rank_b).then(crowd_b.total_cmp(&crowd_a))
}

/// Fast non-dominated sorting plus crowding distances.
fn rank_and_crowd<C>(pop: &[(C, Vec<f64>)]) -> (Vec<usize>, Vec<f64>) {
    let n = pop.len();
    let mut ranks = vec![usize::MAX; n];
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut rank = 0usize;
    while !remaining.is_empty() {
        let front: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                !remaining
                    .iter()
                    .any(|&j| j != i && dominates(&pop[j].1, &pop[i].1))
            })
            .collect();
        for &i in &front {
            ranks[i] = rank;
        }
        remaining.retain(|i| !front.contains(i));
        rank += 1;
    }
    // Crowding distance per rank.
    let d = pop.first().map(|(_, o)| o.len()).unwrap_or(0);
    let mut crowding = vec![0.0f64; n];
    for r in 0..rank {
        let members: Vec<usize> = (0..n).filter(|&i| ranks[i] == r).collect();
        for k in 0..d {
            let mut sorted = members.clone();
            sorted.sort_by(|&a, &b| pop[a].1[k].total_cmp(&pop[b].1[k]));
            let Some(&last) = sorted.last() else { continue };
            let lo = pop[sorted[0]].1[k];
            let hi = pop[last].1[k];
            crowding[sorted[0]] = f64::INFINITY;
            crowding[last] = f64::INFINITY;
            if hi > lo {
                for w in sorted.windows(3) {
                    crowding[w[1]] += (pop[w[2]].1[k] - pop[w[0]].1[k]) / (hi - lo);
                }
            }
        }
    }
    (ranks, crowding)
}

/// Simulated-annealing parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SaConfig {
    /// Number of annealing steps.
    pub steps: usize,
    /// Initial temperature (on the weighted-sum scale).
    pub t0: f64,
    /// Geometric cooling rate per step.
    pub cooling: f64,
    /// Objective weights for the scalarization.
    pub weights: Vec<f64>,
    /// Hypervolume reference point for the trace.
    pub reference: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            steps: 200,
            t0: 1.0,
            cooling: 0.98,
            weights: vec![0.5, 0.5],
            reference: vec![1.0, 1.0],
            seed: 0,
        }
    }
}

/// Weighted-sum simulated annealing over a mutation neighbourhood.
///
/// # Errors
///
/// Returns [`DseError::BadObjectives`] for an empty or non-finite
/// reference point and on dimension mismatches.
pub fn simulated_annealing<C: Clone>(
    config: &SaConfig,
    mut sample: impl FnMut(&mut ChaCha8Rng) -> C,
    mut mutate: impl FnMut(&mut C, &mut ChaCha8Rng),
    mut objective: impl FnMut(&C) -> Vec<f64>,
) -> Result<SearchResult<C>> {
    check_reference(&config.reference)?;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let d = config.reference.len();
    let scalar = |o: &[f64]| -> f64 { o.iter().zip(&config.weights).map(|(x, w)| x * w).sum() };
    let mut evaluated: Vec<(C, Vec<f64>)> = Vec::new();
    let mut hv_trace: Vec<(usize, f64)> = Vec::new();

    let mut current = sample(&mut rng);
    let mut current_obj = objective(&current);
    if current_obj.len() != d {
        return Err(DseError::BadObjectives {
            reason: format!("objective dim {} vs reference dim {d}", current_obj.len()),
        });
    }
    evaluated.push((current.clone(), current_obj.clone()));
    let mut t = config.t0;
    for step in 0..config.steps {
        let mut cand = current.clone();
        mutate(&mut cand, &mut rng);
        let cand_obj = objective(&cand);
        if cand_obj.len() != d {
            return Err(DseError::BadObjectives {
                reason: format!("objective dim {} vs reference dim {d}", cand_obj.len()),
            });
        }
        evaluated.push((cand.clone(), cand_obj.clone()));
        let delta = scalar(&cand_obj) - scalar(&current_obj);
        if delta <= 0.0 || rng.gen_bool((-delta / t.max(1e-12)).exp().clamp(0.0, 1.0)) {
            current = cand;
            current_obj = cand_obj;
        }
        t *= config.cooling;
        if (step + 1) % 20 == 0 || step + 1 == config.steps {
            let objs: Vec<Vec<f64>> = evaluated.iter().map(|(_, o)| o.clone()).collect();
            hv_trace.push((evaluated.len(), hypervolume(&objs, &config.reference)));
        }
    }
    Ok(SearchResult {
        evaluated,
        hv_trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[expect(clippy::ptr_arg, reason = "passed directly as an `FnMut(&Vec<f64>)` objective")]
    fn toy_objective(c: &Vec<f64>) -> Vec<f64> {
        let x = (c[0] + c[1]) / 2.0;
        vec![x, (1.0 - x) * (1.0 - x) + 0.05 * (c[0] - c[1]).abs()]
    }

    fn toy_sample(rng: &mut ChaCha8Rng) -> Vec<f64> {
        vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]
    }

    #[expect(clippy::ptr_arg, reason = "passed directly as an `FnMut(&Vec<f64>, ..)` callback")]
    fn toy_crossover(a: &Vec<f64>, b: &Vec<f64>, rng: &mut ChaCha8Rng) -> Vec<f64> {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y })
            .collect()
    }

    #[expect(clippy::ptr_arg, reason = "passed directly as an `FnMut(&mut Vec<f64>, ..)` callback")]
    fn toy_mutate(c: &mut Vec<f64>, rng: &mut ChaCha8Rng) {
        let i = rng.gen_range(0..c.len());
        c[i] = (c[i] + rng.gen_range(-0.2f64..0.2)).clamp(0.0, 1.0);
    }

    #[test]
    fn random_search_budget_and_trace() {
        let config = MboConfig {
            initial_samples: 10,
            iterations: 4,
            batch: 5,
            candidates: 0,
            reference: vec![1.5, 1.5],
            kappa: 1.0,
            explore_fraction: 0.1,
            seed: 1,
        };
        let r = random_search(&config, toy_sample, toy_objective).unwrap();
        assert_eq!(r.evaluated.len(), 30);
        assert_eq!(r.hv_trace.len(), 5);
        for w in r.hv_trace.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
    }

    #[test]
    fn nsga2_runs_and_improves() {
        let config = NsgaConfig {
            population: 12,
            generations: 6,
            mutation_rate: 0.6,
            reference: vec![1.5, 1.5],
            seed: 5,
        };
        let r = nsga2(
            &config,
            toy_sample,
            toy_crossover,
            toy_mutate,
            toy_objective,
        )
        .unwrap();
        assert_eq!(r.evaluated.len(), 12 * 7);
        assert!(r.final_hypervolume() >= r.hv_trace[0].1);
    }

    #[test]
    fn sa_runs_and_tracks() {
        let config = SaConfig {
            steps: 100,
            reference: vec![1.5, 1.5],
            ..SaConfig::default()
        };
        let r = simulated_annealing(&config, toy_sample, toy_mutate, toy_objective).unwrap();
        assert_eq!(r.evaluated.len(), 101);
        assert!(!r.hv_trace.is_empty());
        // SA should find a decent scalarized point.
        let best = r
            .evaluated
            .iter()
            .map(|(_, o)| o[0] * 0.5 + o[1] * 0.5)
            .fold(f64::INFINITY, f64::min);
        assert!(best < 0.5, "best scalarized {best}");
    }

    #[test]
    fn searches_are_deterministic() {
        let config = MboConfig {
            initial_samples: 8,
            iterations: 2,
            batch: 4,
            candidates: 0,
            reference: vec![1.5, 1.5],
            kappa: 1.0,
            explore_fraction: 0.1,
            seed: 9,
        };
        let a = random_search(&config, toy_sample, toy_objective).unwrap();
        let b = random_search(&config, toy_sample, toy_objective).unwrap();
        assert_eq!(a.hv_trace, b.hv_trace);
    }
}
