//! IDDE-IP: the time-limited exact-solver baseline.
//!
//! The paper hands the §2.3 model to IBM CPLEX's CP Optimizer with a
//! 100-second search limit; here the same role is played by the
//! `idde-solver` branch-and-bound searches (see DESIGN.md's substitution
//! table). The wall-clock budget is split between the two objectives in
//! lexicographic order, mirroring the paper's formulation: Objective #1
//! (maximise `R_ave`) first, then Objective #2 (minimise `L_ave`) for the
//! chosen allocation.
//!
//! With a short budget it behaves like the paper's IDDE-IP: a data rate a
//! notch below IDDE-G's equilibrium, a clearly worse delivery latency (the
//! lexicographic placement search explores solver-order incumbents, not the
//! greedy's marginal-benefit order), and a running time that dwarfs every
//! heuristic. Given enough budget on a tiny instance, it returns certified
//! optima (see `idde-solver`'s differential tests).

use std::time::Duration;

use idde_core::{Problem, Strategy};
use idde_solver::{AllocationSearch, Budget, PlacementSearch};

use crate::SolveStrategy;

/// The IDDE-IP baseline.
#[derive(Clone, Copy, Debug)]
pub struct IddeIp {
    /// Wall-clock budget for the allocation search (Objective #1).
    pub allocation_budget: Duration,
    /// Wall-clock budget for the placement search (Objective #2).
    pub placement_budget: Duration,
    /// Optional deterministic node limits (used by reproducible tests
    /// instead of wall-clock budgets).
    pub node_limits: Option<(u64, u64)>,
}

impl IddeIp {
    /// IDDE-IP with a total budget, split evenly between the two phases.
    pub fn with_budget(total: Duration) -> Self {
        Self { allocation_budget: total / 2, placement_budget: total / 2, node_limits: None }
    }

    /// IDDE-IP with deterministic node limits (machine-independent).
    pub fn with_node_limits(allocation_nodes: u64, placement_nodes: u64) -> Self {
        Self {
            allocation_budget: Duration::MAX,
            placement_budget: Duration::MAX,
            node_limits: Some((allocation_nodes, placement_nodes)),
        }
    }

    fn budgets(&self) -> (Budget, Budget) {
        match self.node_limits {
            Some((a, p)) => (Budget::with_node_limit(a), Budget::with_node_limit(p)),
            None => (
                Budget::with_deadline(self.allocation_budget),
                Budget::with_deadline(self.placement_budget),
            ),
        }
    }
}

impl Default for IddeIp {
    /// The default scales the paper's 100 s CPLEX limit down to a total of
    /// one second so that full experiment sweeps stay tractable; the ~300×
    /// gap to IDDE-G's sub-5 ms runs matches the paper's Fig. 7 ratio.
    fn default() -> Self {
        Self::with_budget(Duration::from_secs(1))
    }
}

impl SolveStrategy for IddeIp {
    fn name(&self) -> &'static str {
        "IDDE-IP"
    }

    fn solve_seeded(&self, problem: &Problem, _seed: u64) -> Strategy {
        let (alloc_budget, place_budget) = self.budgets();
        let (allocation, _, _) = AllocationSearch::new(problem, alloc_budget).run();
        let (placement, _, _) = PlacementSearch::new(problem, &allocation, place_budget).run();
        Strategy::new(allocation, placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_model::testkit;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn problem(seed: u64) -> Problem {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Problem::standard(testkit::tiny_overlap(), &mut rng)
    }

    #[test]
    fn unlimited_iddeip_is_optimal_on_tiny_instances() {
        let p = problem(1);
        // Enough nodes to exhaust both tiny search spaces.
        let strategy = IddeIp::with_node_limits(u64::MAX - 1, u64::MAX - 1).solve_seeded(&p, 0);
        assert!(p.is_feasible(&strategy));
        let m = p.evaluate(&strategy);
        // tiny_overlap optimum: every user on its own channel at cap.
        assert!((m.average_data_rate.value() - 200.0).abs() < 1e-6);
    }

    #[test]
    fn tight_budget_still_yields_feasible_strategy() {
        let p = problem(2);
        let strategy = IddeIp::with_node_limits(8, 8).solve_seeded(&p, 0);
        assert!(p.is_feasible(&strategy));
    }

    #[test]
    fn deterministic_under_node_limits() {
        let p = problem(3);
        let a = IddeIp::with_node_limits(500, 500).solve_seeded(&p, 1);
        let b = IddeIp::with_node_limits(500, 500).solve_seeded(&p, 2);
        assert_eq!(a, b, "node-limited IDDE-IP ignores the seed and is deterministic");
    }
}
