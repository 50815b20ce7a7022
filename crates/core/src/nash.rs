//! A posteriori Nash-equilibrium verification (Definition 3).

use idde_radio::InterferenceField;

use crate::game::IddeUGame;

/// Checks Definition 3: a profile is a Nash equilibrium iff no user can
/// raise its benefit by more than `epsilon` (relative) with a unilateral
/// deviation.
///
/// Unallocated users are in equilibrium only if they have no feasible
/// decision at all (an unallocated covered user always gains by allocating,
/// since Eq. 12 benefits are strictly positive).
pub fn is_nash_equilibrium(game: &IddeUGame, field: &InterferenceField<'_>, epsilon: f64) -> bool {
    let scenario = field.scenario();
    for user in scenario.user_ids() {
        let current = match field.allocation().decision(user) {
            // Halo mirrors — users pinned to a foreign server by another
            // shard — are not players here; the owning shard certifies them.
            Some((s, _)) if scenario.coverage.is_foreign(s) => continue,
            Some((s, x)) => game.benefit_at(field, user, s, x),
            None => {
                if game.best_response(field, user).is_some() {
                    return false; // a covered user left unallocated
                }
                continue;
            }
        };
        if let Some((_, _, best)) = game.best_response(field, user) {
            if best > current * (1.0 + epsilon) + epsilon * 1e-30 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_model::testkit;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use crate::game::IddeUGame;
    use crate::problem::Problem;

    #[test]
    fn unallocated_covered_user_is_not_equilibrium() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = Problem::standard(testkit::tiny_overlap(), &mut rng);
        let game = IddeUGame::default();
        let field = p.field();
        assert!(!is_nash_equilibrium(&game, &field, 1e-9));
    }

    #[test]
    fn converged_game_passes_verification() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = Problem::standard(testkit::tiny_overlap(), &mut rng);
        let game = IddeUGame::default();
        let outcome = game.run(&p);
        assert!(outcome.converged);
        assert!(is_nash_equilibrium(&game, &outcome.field, 1e-9));
    }

    #[test]
    fn perturbing_an_equilibrium_breaks_it() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = Problem::standard(testkit::tiny_overlap(), &mut rng);
        let game = IddeUGame::default();
        let outcome = game.run(&p);
        let mut field = outcome.field;
        // Deallocate one user: it now has an improving move again.
        field.deallocate(idde_model::UserId(0));
        assert!(!is_nash_equilibrium(&game, &field, 1e-9));
    }
}
