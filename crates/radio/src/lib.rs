//! # idde-radio — the "last mile" wireless substrate
//!
//! Implements §2.2 of the paper: the user–server communication model that
//! makes the IDDE problem *interference-aware*.
//!
//! * Channel gain `g_{i,x,j} = η · H_{i,j}^{-loss}` — [`gain`],
//! * SINR `r_{i,x,j}` (Eq. 2) including the cross-server interference field
//!   `F_{i,x,j}`,
//! * Shannon data rate `R_{i,x,j} = B·log2(1 + r)` (Eq. 3) and the capped
//!   user rate `R_j` (Eq. 4),
//! * average data rate `R_ave` (Eq. 5) — IDDE Objective #1,
//! * the benefit function `β_{α_{-j}}(α_j)` (Eq. 12) that drives the IDDE-U
//!   game,
//! * an **incremental interference field** ([`InterferenceField`]) that keeps
//!   per-channel occupancy and power sums up to date in O(1) per move so
//!   best-response scans are cheap (DESIGN.md §5 lists it among the
//!   design choices).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod field;
pub mod gain;
pub mod params;
pub mod rate;

pub use field::{FieldBuffers, InterferenceField};
pub use gain::{GainTable, PowerLaw};
pub use params::RadioParams;
pub use rate::{capped_rate, shannon_rate};

use idde_model::Scenario;

/// The fully pre-computed wireless environment of a scenario: radio
/// parameters plus the dense server×user channel gain table.
///
/// Channel gain in the paper depends only on the server–user distance (all
/// channels of a server share it), so the table is `N × M`.
#[derive(Clone, Debug)]
pub struct RadioEnvironment {
    /// The radio parameters (η, loss exponent, noise ω).
    pub params: RadioParams,
    /// Pre-computed channel gains.
    pub gains: GainTable,
    /// Per-server jamming floor in watts — extra wide-band interference a
    /// hostile (or chaos-injected) emitter adds at every user the server
    /// talks to, entering the Eq. 2 denominator like an elevated noise
    /// floor. All-zero in a healthy environment, so every healthy-path
    /// result is bit-identical to the pre-jamming model (`x + 0.0 == x`).
    jamming: Vec<f64>,
}

impl RadioEnvironment {
    /// Builds the environment for a scenario using the paper's power-law
    /// gain model with the given parameters.
    pub fn new(scenario: &Scenario, params: RadioParams) -> Self {
        let model = PowerLaw::new(params.eta, params.loss_exponent);
        let jamming = vec![0.0; scenario.num_servers()];
        Self { params, gains: GainTable::compute(scenario, &model), jamming }
    }

    /// Channel gain `g_{i,·,j}` between server `i` and user `j`.
    #[inline]
    pub fn gain(&self, server: idde_model::ServerId, user: idde_model::UserId) -> f64 {
        self.gains.get(server, user)
    }

    /// Recomputes one user's gains after a position change, in `O(N)`
    /// instead of the full `O(N·M)` table rebuild.
    pub fn update_user(&mut self, scenario: &Scenario, user: idde_model::UserId) {
        let model = PowerLaw::new(self.params.eta, self.params.loss_exponent);
        self.gains.update_user(scenario, &model, user);
    }

    /// Recomputes one user's gains for the given servers only — the
    /// spatial-index-restricted variant of [`RadioEnvironment::update_user`].
    /// Bit-identical to the full column refresh for every refreshed entry;
    /// entries outside `servers` are left untouched and must never be read
    /// by any consumer (the engine derives the slice from
    /// `CoverageMap::gain_refresh_candidates`, whose superset guarantee
    /// establishes exactly that).
    pub fn update_user_among(
        &mut self,
        scenario: &Scenario,
        user: idde_model::UserId,
        servers: &[idde_model::ServerId],
    ) {
        let model = PowerLaw::new(self.params.eta, self.params.loss_exponent);
        self.gains.update_user_among(scenario, &model, user, servers);
    }

    /// The active jamming floor at `server`, in watts (0 when unjammed).
    #[inline]
    pub fn jamming_floor(&self, server: idde_model::ServerId) -> f64 {
        self.jamming[server.index()]
    }

    /// Sets the jamming floor at `server`. `watts` must be finite and
    /// non-negative; `0.0` restores the healthy noise model exactly.
    pub fn set_jamming(&mut self, server: idde_model::ServerId, watts: f64) {
        assert!(watts.is_finite() && watts >= 0.0, "jamming floor must be finite and >= 0");
        self.jamming[server.index()] = watts;
    }

    /// `true` when no server carries a jamming floor.
    pub fn is_unjammed(&self) -> bool {
        self.jamming.iter().all(|&w| w == 0.0)
    }
}
