//! # idde-baselines — the §4.1 benchmark approaches
//!
//! All five approaches of the paper's evaluation behind one trait:
//!
//! | Approach | Source | User allocation | Data delivery |
//! |---|---|---|---|
//! | [`IddeGStrategy`] | this paper (§3) | IDDE-U game (full Eq. 12 benefit) | greedy latency-per-MB (Eq. 17) |
//! | [`IddeIp`] | CPLEX in the paper; `idde-solver` here | anytime B&B maximising `Σ R_j` | anytime B&B minimising `L(σ)` |
//! | [`Saa`] | \[21\] | random feasible | per-server sample-average-approximation of local storage utility |
//! | [`Cdp`] | \[16\] | nearest server, least-loaded channel | centralized popularity replication (collaboration-blind) |
//! | [`DupG`] | \[33\] | allocation game without the cross-server term | per-server local-demand caching (collaboration-blind) |
//!
//! Every approach returns a plain [`Strategy`]; the *same* evaluator
//! (`idde_core::Problem::evaluate`) scores them all, so reported gaps can
//! only come from the strategies themselves.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cdp;
pub mod dupg;
pub mod iddeip;
pub mod saa;

use std::time::Duration;

use idde_core::{IddeG, Problem, Strategy};

pub use cdp::Cdp;
pub use dupg::DupG;
pub use iddeip::IddeIp;
pub use saa::Saa;

/// A complete approach for formulating IDDE strategies.
pub trait SolveStrategy {
    /// Display name used in reports and figures.
    fn name(&self) -> &'static str;

    /// Produces a strategy for the problem. `seed` drives any internal
    /// randomness so that repetitions are reproducible; deterministic
    /// approaches may ignore it.
    fn solve_seeded(&self, problem: &Problem, seed: u64) -> Strategy;
}

/// IDDE-G behind the common baseline trait.
#[derive(Clone, Copy, Debug, Default)]
pub struct IddeGStrategy {
    /// The underlying solver configuration.
    pub inner: IddeG,
}

impl SolveStrategy for IddeGStrategy {
    fn name(&self) -> &'static str {
        "IDDE-G"
    }

    fn solve_seeded(&self, problem: &Problem, seed: u64) -> Strategy {
        let mut cfg = self.inner;
        cfg.game.seed = seed;
        cfg.solve(problem)
    }
}

/// The full §4.1 panel in the paper's presentation order, with the given
/// IDDE-IP budget (the paper limits CP Optimizer to 100 s; scale to taste).
pub fn standard_panel(iddeip_budget: Duration) -> Vec<Box<dyn SolveStrategy + Send + Sync>> {
    vec![
        Box::new(IddeIp::with_budget(iddeip_budget)),
        Box::new(IddeGStrategy::default()),
        Box::new(Saa::default()),
        Box::new(Cdp),
        Box::new(DupG::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_model::testkit;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn panel_names_match_the_paper() {
        let panel = standard_panel(Duration::from_millis(10));
        let names: Vec<_> = panel.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["IDDE-IP", "IDDE-G", "SAA", "CDP", "DUP-G"]);
    }

    #[test]
    fn every_panelist_returns_feasible_strategies() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let problem = Problem::standard(testkit::fig2_example(), &mut rng);
        for strategy in standard_panel(Duration::from_millis(20)) {
            let s = strategy.solve_seeded(&problem, 7);
            assert!(problem.is_feasible(&s), "{} produced an infeasible strategy", strategy.name());
        }
    }
}
