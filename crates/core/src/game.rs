//! Phase #1 of IDDE-G: the IDDE-U user allocation game.
//!
//! Each user is a selfish player choosing an allocation decision
//! `α_j ∈ δ_j = V_j × C_i ∪ {(0,0)}` to maximise its benefit
//! `β_{α_{-j}}(α_j)` (Eq. 12). Theorem 3 shows IDDE-U is a potential game,
//! so best-response dynamics terminate in a Nash equilibrium after finitely
//! many improvement steps (Theorem 4 bounds them by
//! `M(Q²_max − Q²_min)/(2·Q_min)`).
//!
//! Algorithm 1 (lines 5–21) runs repeated passes: every user computes its
//! best response; users that can improve *submit update requests*; a winner
//! commits its move; the game ends when a pass produces no update request.
//! The winner arbitration is left abstract in the paper ("if u_j is the
//! winner"); this module runs one discipline. Every improving user commits
//! immediately during a pass, with the user order reshuffled every pass from
//! [`GameConfig::seed`]. Each commit is a unilateral improvement step, so the
//! potential-game termination argument applies unchanged under the
//! uniform-gain analysis of Theorem 3; the per-pass reshuffle additionally
//! breaks the deterministic best-response cycles that the *full* Eq. 12
//! benefit (whose cross-server term `F` makes the game not an exact
//! potential game) enters under a fixed order.
//!
//! Players are scanned one at a time against the live field. IDDE-G and the
//! serving engine's initial solve, repairs and checkpoints all run this one
//! loop, so with the same players and seed they reach the same equilibrium.
//!
//! The benefit itself is also pluggable ([`BenefitModel`]): the paper's
//! Eq. 12 (default), or the pure congestion form `p_j / Σ_{t∈U_{i,x}} p_t`
//! used by the Theorem 3 proof (which assumes uniform gains) — the latter
//! admits the *exact* potential of [`crate::potential`], which the property
//! tests exercise.
//!
//! ## Gathered scan
//!
//! A best response scores every candidate `(i, x)` by Eq. 12, whose
//! cross-server term `F_{i,x,j}` sums channel `x` over the other servers of
//! `V_j`. Under [`BenefitModel::PaperEq12`] the scan runs
//! [`InterferenceField::scan_benefits`]: it gathers each channel index's
//! interferers over `V_j` once and sums that list per candidate, skipping
//! the candidate's own server. These are the f64 additions of
//! [`IddeUGame::benefit_at`] in the same order, so every benefit, and with
//! it every trajectory, is bit-identical to a per-candidate walk. The scan
//! also yields the benefit of the player's current decision, so the
//! improvement test needs no second walk when that decision is a candidate.
//!
//! ## Quiet-player skipping
//!
//! Most players find no move on most passes, and a rescan of such a *quiet*
//! player (its last scan found no move) can only differ if something that
//! scan read has changed since. A scan of player `j` reads two things
//! through the servers of its neighbourhood `D_j = V_j ∪ {j's current
//! server}`, the latter outside `V_j` only for a stale decision left by
//! `InterferenceField::allocate_unchecked`:
//!
//! * **rows**: the benefits read the occupant rows of `D_j` (power sums,
//!   and the cross-server term `F`, which weighs each interferer by its
//!   gain to the candidate) and their jamming floors;
//! * **listeners**: only when a candidate beats the current benefit, the
//!   Lyapunov guard also reads the decisions of the users covered by `j`'s
//!   old or new server, including users whose decision sits on a third
//!   server.
//!
//! A [`QuietPlayers`] keeps, on one monotone clock, per user the clock of
//! its last quiet scan and whether the guard vetoed a move in it, and per
//! server the clock of the last change to its rows and to its listeners.
//! [`IddeUGame::run_restricted_with`] skips a quiet player unless a server
//! of `D_j` carries a newer row stamp, or a newer listener stamp when the
//! guard vetoed. A skipped player would have found no move, so the
//! trajectory is unchanged bit for bit. Every change stamps the servers
//! through which some scan reads it:
//!
//! | what happens | rows | listeners | forget |
//! |---|---|---|---|
//! | in-game commit of `m`, `a → b` | `a`, `b`; both queued for the rebuild restamp | `V_m` | — |
//! | next repair's field rebuild | every queued server | — | — |
//! | flushed mover `m`, decision kept | its serving server | `V_old Δ V_new` | `m` |
//! | flushed mover `m`, released from `s` by constraint (1) | `s` | `V_old` | `m` |
//! | departure of `t` from `s` | `s` | `V_t` | `t` |
//! | arrival | — | — | newcomer |
//! | jam or unjam at `s` | `s` | — | — |
//! | outage, restore, a halo overlay that actually changed, checkpoint adoption | clear everything | | all |
//!
//! * The field rebuild re-sums rows in user-id order, while commits left
//!   the rows of `a` and `b` in swap-remove/append order, so their power
//!   sums and cross terms can change bits.
//! * A flushed mover's new gain column feeds the cross term of every user
//!   its serving server covers; its coverage change edits the listener
//!   sets `users_of` of `V_old Δ V_new`.
//! * A departing or released user leaves the guards of every server that
//!   covered it when those guards last read it, not only the row of the
//!   server it frees. Unallocated, it is no listener of any guard its new
//!   coverage adds.
//! * A clear is an epoch bump, O(1): it voids every record at once.
//!
//! Within one repair only commits change anything, so
//! [`IddeUGame::run_restricted`] runs the loop with fresh records; the
//! serving engine carries one [`QuietPlayers`] across its repairs and
//! stamps the table's other rows itself. The shuffle still permutes the
//! full player order, so RNG draws and commit order are unchanged;
//! [`GameOutcome::scans`] counts the scans actually performed.

use idde_model::{ChannelIndex, Scenario, ServerId, UserId};
use idde_radio::InterferenceField;
use rand::seq::SliceRandom as _;
use rand::SeedableRng as _;

use crate::problem::Problem;

/// Relative improvement a move must achieve to count, guarding against
/// floating-point livelock on ties: a deviation is accepted only when its
/// benefit gain exceeds `EPSILON · |β_current|`.
const EPSILON: f64 = 1e-9;

/// Which benefit function drives best responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BenefitModel {
    /// The paper's Eq. 12: `g·p_j / (g·Σ_{t∈U_{i,x}} p_t + F_{i,x,j})`.
    #[default]
    PaperEq12,
    /// The uniform-gain congestion form used in the Theorem 3 proof:
    /// `p_j / Σ_{t∈U_{i,x}∪{j}} p_t` (cross-server interference ignored).
    /// Admits the exact potential of [`crate::potential`].
    Congestion,
}

/// Whether benefit-improving moves are additionally screened by the
/// Lyapunov guard.
///
/// The full Eq. 12 game (with the cross-server term `F` and heterogeneous
/// gains) is **not** an exact potential game, and on some instances a pure
/// Nash equilibrium provably does not exist — best-response dynamics then
/// cycle forever (the Theorem 3 proof sidesteps this by assuming uniform
/// gains). [`AcceptanceRule::LyapunovGuarded`] restores a hard termination
/// guarantee: a move is committed only if it strictly decreases the
/// lexicographic pair
///
/// ```text
/// Φ(α) = Σ_channels (Σ_{t ∈ U_{i,x}} p_t)²      (co-channel concentration)
/// T(α) = Σ_j F_{i_j, x_j, j}                     (total cross interference)
/// ```
///
/// (initial allocations are always accepted). Both quantities are bounded
/// below and each accepted move decreases one of them by a strictly positive
/// tolerance, so the dynamics terminate; at quiescence no user has an
/// accepted improving move — an *interference-guarded equilibrium*. On
/// instances where a pure Nash exists the guard is almost never binding
/// (fig2 and the tiny fixtures converge to exact Nash equilibria).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AcceptanceRule {
    /// Screen improving moves with the `(Φ, T)` Lyapunov guard (default —
    /// guaranteed termination).
    #[default]
    LyapunovGuarded,
    /// Accept any benefit-improving move (paper-literal; may cycle, bounded
    /// only by [`GameConfig::max_passes`]).
    BenefitOnly,
}

/// Tunables of the IDDE-U game engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GameConfig {
    /// Benefit model driving best responses.
    pub benefit: BenefitModel,
    /// Move acceptance rule (Lyapunov guard on/off).
    pub acceptance: AcceptanceRule,
    /// Hard cap on game passes; `converged = false` in the outcome when hit.
    /// The potential-game property makes this a safety net, not a tuning
    /// knob — see Theorem 4.
    pub max_passes: usize,
    /// Seed of the per-pass user shuffle.
    pub seed: u64,
}

impl Default for GameConfig {
    fn default() -> Self {
        Self {
            benefit: BenefitModel::PaperEq12,
            acceptance: AcceptanceRule::LyapunovGuarded,
            max_passes: 10_000,
            seed: 0,
        }
    }
}

/// Result of running the game to (or up to) equilibrium.
#[derive(Debug)]
pub struct GameOutcome<'a> {
    /// The interference field at equilibrium; its allocation is the Phase #1
    /// profile `α`.
    pub field: InterferenceField<'a>,
    /// Number of full passes over the user set.
    pub passes: usize,
    /// Number of committed improvement moves (the paper's iteration count
    /// `Y` of Theorem 4).
    pub moves: usize,
    /// Number of player scans (best-response evaluations) performed. Quiet
    /// players whose neighbourhood nothing stamped since their last scan are
    /// skipped, so this can be well below `passes × players`; with records
    /// carried across repairs, pass 1 can skip players too.
    pub scans: usize,
    /// Whether the game reached a state with no improving user (always true
    /// unless `max_passes` was hit).
    pub converged: bool,
}

/// The IDDE-U game engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct IddeUGame {
    /// Engine configuration.
    pub config: GameConfig,
}

impl IddeUGame {
    /// Creates an engine with the given configuration.
    pub fn new(config: GameConfig) -> Self {
        Self { config }
    }

    /// Benefit of `user` for decision `(server, channel)` under the
    /// configured benefit model, evaluated against `field`'s current state.
    ///
    /// Both arms delegate to [`InterferenceField`] — the single home of the
    /// Eq. 12 and congestion formulas — so the game engine, the Nash
    /// verifier and the potential module can never diverge.
    pub fn benefit_at(
        &self,
        field: &InterferenceField<'_>,
        user: UserId,
        server: ServerId,
        channel: ChannelIndex,
    ) -> f64 {
        match self.config.benefit {
            BenefitModel::PaperEq12 => field.benefit_at(user, server, channel),
            BenefitModel::Congestion => field.congestion_benefit_at(user, server, channel),
        }
    }

    /// Benefit of `user`'s current decision (0 when unallocated).
    pub fn current_benefit(&self, field: &InterferenceField<'_>, user: UserId) -> f64 {
        match field.allocation().decision(user) {
            Some((s, x)) => self.benefit_at(field, user, s, x),
            None => 0.0,
        }
    }

    /// The user's profitable unilateral deviation under this game's full
    /// acceptance discipline — its best response when that beats the
    /// current benefit by more than the relative `EPSILON` (Algorithm 1
    /// line 14) *and* (when configured) passes the Lyapunov guard — or
    /// `None` when the user has no move the game itself would commit.
    ///
    /// `None` for every player certifies the profile is at the game's
    /// quiescent point (a Nash equilibrium under `BenefitOnly` acceptance; an
    /// interference-guarded equilibrium under `LyapunovGuarded`). This is the
    /// move test of every game pass, and the primitive the `idde-audit`
    /// Nash-certificate checker runs per player.
    pub fn profitable_deviation(
        &self,
        field: &InterferenceField<'_>,
        user: UserId,
    ) -> Option<(ServerId, ChannelIndex, f64)> {
        match self.deviation(field, user) {
            Deviation::Move(s, x, gain) => Some((s, x, gain)),
            Deviation::Quiet | Deviation::Vetoed => None,
        }
    }

    /// [`IddeUGame::profitable_deviation`], telling apart the two ways a
    /// player finds no move: no candidate beats its current benefit, or the
    /// Lyapunov guard vetoed the one that does.
    fn deviation(&self, field: &InterferenceField<'_>, user: UserId) -> Deviation {
        // A user currently sitting on a foreign server is a halo mirror of a
        // decision owned by another shard: it is frozen here — it exerts
        // interference but never plays (the owning shard moves it).
        if let Some((s, _)) = field.allocation().decision(user) {
            if field.scenario().coverage.is_foreign(s) {
                return Deviation::Quiet;
            }
        }
        let (best, scanned) = self.scan(field, user);
        let Some((s, x, best)) = best else { return Deviation::Quiet };
        let current = scanned.unwrap_or_else(|| self.current_benefit(field, user));
        let gain = best - current;
        // Relative epsilon so the threshold scales with the benefit values.
        if !(gain > EPSILON * current.abs().max(1e-30) && gain > 0.0) {
            Deviation::Quiet
        } else if self.config.acceptance == AcceptanceRule::LyapunovGuarded
            && !self.guard_accepts(field, user, s, x)
        {
            Deviation::Vetoed
        } else {
            Deviation::Move(s, x, gain)
        }
    }

    /// Computes `user`'s best response: the decision in `δ_j` with the
    /// highest benefit (Algorithm 1 lines 7–13). Returns `None` when the
    /// user has no covering server.
    ///
    /// Servers marked foreign in the coverage map (owned by another shard)
    /// are not candidates: they still shape every benefit through the
    /// interference field, but a local player can never *move onto* them.
    /// Monolithic maps carry no foreign servers, so the scan is unchanged
    /// outside the shard layer.
    pub fn best_response(
        &self,
        field: &InterferenceField<'_>,
        user: UserId,
    ) -> Option<(ServerId, ChannelIndex, f64)> {
        self.scan(field, user).0
    }

    /// [`IddeUGame::best_response`] computed the slow way: every candidate
    /// `(server, channel)` is scored on its own through
    /// [`IddeUGame::benefit_at`], and the first strict maximum wins.
    ///
    /// This is the oracle of the gathered scan: the two must agree bit for
    /// bit. The `idde-audit` Nash certificate re-derives every player's best
    /// response with it, and the game's own tests compare against it.
    pub fn best_response_by_candidate(
        &self,
        field: &InterferenceField<'_>,
        user: UserId,
    ) -> Option<(ServerId, ChannelIndex, f64)> {
        let scenario = field.scenario();
        let coverage = &scenario.coverage;
        let mut best: Option<(ServerId, ChannelIndex, f64)> = None;
        for &server in coverage.servers_of(user).iter().filter(|&&s| coverage.is_candidate(s)) {
            for channel in scenario.servers[server.index()].channels() {
                let b = self.benefit_at(field, user, server, channel);
                if best.is_none_or(|(_, _, cur)| b > cur) {
                    best = Some((server, channel, b));
                }
            }
        }
        best
    }

    /// One best-response scan: the best candidate, and the benefit of the
    /// user's current decision when the scan scored it. The Eq. 12 arm runs
    /// the gathered kernel ([`InterferenceField::scan_benefits`]); both arms
    /// score the candidates in the same order, and the first strict maximum
    /// wins.
    fn scan(
        &self,
        field: &InterferenceField<'_>,
        user: UserId,
    ) -> (Option<(ServerId, ChannelIndex, f64)>, Option<f64>) {
        let decision = field.allocation().decision(user);
        let (mut best, mut current) = (None, None);
        let mut visit = |server, channel, b: f64| {
            if best.is_none_or(|(_, _, cur)| b > cur) {
                best = Some((server, channel, b));
            }
            if decision == Some((server, channel)) {
                current = Some(b);
            }
        };
        match self.config.benefit {
            BenefitModel::PaperEq12 => field.scan_benefits(user, visit),
            BenefitModel::Congestion => {
                let scenario = field.scenario();
                for &server in scenario.coverage.servers_of(user) {
                    if !scenario.coverage.is_candidate(server) {
                        continue;
                    }
                    for channel in scenario.servers[server.index()].channels() {
                        visit(server, channel, field.congestion_benefit_at(user, server, channel));
                    }
                }
            }
        }
        (best, current)
    }

    /// Runs the game from the all-unallocated profile.
    pub fn run<'a>(&self, problem: &'a Problem) -> GameOutcome<'a> {
        self.run_from(problem.field())
    }

    /// Runs the game from an arbitrary starting field (used by warm starts
    /// and by tests that exercise specific initial profiles).
    pub fn run_from<'a>(&self, field: InterferenceField<'a>) -> GameOutcome<'a> {
        let players: Vec<UserId> = field.scenario().user_ids().collect();
        self.run_restricted(field, &players)
    }

    /// Runs the game with best responses restricted to `players`; decisions
    /// of all other users are frozen at their state in `field` (they still
    /// exert interference, they just never move).
    ///
    /// This is the incremental-repair primitive of the online serving
    /// engine: after a churn event only the affected users (the mover, its
    /// co-channel sharers, users within cross-interference range) are
    /// re-equilibrated, so the pass cost scales with the dirty set instead
    /// of `M`. Termination follows from the same argument as the full game —
    /// restricting the player set only removes improvement steps. Players
    /// whose last scan found no move are skipped until a commit changes
    /// what that scan read (module docs, § Quiet-player skipping).
    pub fn run_restricted<'a>(
        &self,
        field: InterferenceField<'a>,
        players: &[UserId],
    ) -> GameOutcome<'a> {
        let mut quiet = QuietPlayers::new(field.scenario());
        self.run_restricted_with(field, players, &mut quiet)
    }

    /// [`IddeUGame::run_restricted`] against caller-owned quiet records, so a
    /// caller that stamps every change between two calls (module docs, §
    /// Quiet-player skipping) can skip players whose last scan still holds.
    /// Call [`QuietPlayers::field_rebuilt`] whenever `field` was rebuilt from
    /// an allocation the previous call left behind.
    pub fn run_restricted_with<'a>(
        &self,
        mut field: InterferenceField<'a>,
        players: &[UserId],
        quiet: &mut QuietPlayers,
    ) -> GameOutcome<'a> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut passes = 0usize;
        let mut moves = 0usize;
        let mut scans = 0usize;
        let mut converged = false;
        let mut order: Vec<UserId> = players.to_vec();

        while passes < self.config.max_passes {
            passes += 1;
            order.shuffle(&mut rng);
            let mut any = false;
            for &user in &order {
                if quiet.skips(&field, user) {
                    continue;
                }
                scans += 1;
                let deviation = self.deviation(&field, user);
                quiet.record(user, &deviation);
                if let Deviation::Move(s, x, _) = deviation {
                    moves += 1;
                    quiet.commit(&field, user, s);
                    field.allocate(user, s, x);
                    any = true;
                }
            }
            if !any {
                converged = true;
                break;
            }
        }

        GameOutcome { field, passes, moves, scans, converged }
    }

    /// The Lyapunov guard (see module docs): a benefit-improving move is
    /// committed only if it strictly decreases the lexicographic pair
    /// `(Φ, T)` — co-channel power concentration first, total cross-server
    /// interference second. Initial allocations are always accepted.
    fn guard_accepts(
        &self,
        field: &InterferenceField<'_>,
        user: UserId,
        server: ServerId,
        channel: ChannelIndex,
    ) -> bool {
        let Some((old_server, old_channel)) = field.allocation().decision(user) else {
            return true; // allocating an unallocated user always helps
        };
        if (old_server, old_channel) == (server, channel) {
            return false; // no-op
        }
        let p = field.scenario().users[user.index()].power.value();
        // ΔΦ of the move for Φ = Σ_c S_c² (see crate::potential): the old
        // channel's sum still includes p, the new one's does not yet.
        let s_old = field.channel_power(old_server, old_channel);
        let s_new = field.channel_power(server, channel);
        let delta_phi = p * (s_new + p - s_old);
        let tol = 1e-9 * (s_old + s_new + p).max(1.0);
        if delta_phi < -tol {
            return true;
        }
        if delta_phi > tol {
            return false;
        }
        // Load-lateral move: require a strict drop of the total received
        // cross-server interference T = Σ_j F_j.
        self.delta_cross_interference(field, user, (old_server, old_channel), (server, channel))
            < -1e-18
    }

    /// Exact change of `T(α) = Σ_j F_{i_j, x_j, j}` if `user` moves from
    /// `old` to `new`: the user's own `F` changes, and the user's power
    /// leaves the `F` of old same-index listeners and enters the `F` of new
    /// same-index listeners.
    ///
    /// A listener `t` hears the user only through a server covering `t`, so
    /// the affected listeners are among `users_of(old.0)` and
    /// `users_of(new.0)` — no walk over all servers. Every term for one
    /// listener server and kind is the same f64, so applying them in
    /// ascending server order, old before new, reproduces the all-servers
    /// sum bit for bit.
    fn delta_cross_interference(
        &self,
        field: &InterferenceField<'_>,
        user: UserId,
        old: (ServerId, ChannelIndex),
        new: (ServerId, ChannelIndex),
    ) -> f64 {
        let scenario = field.scenario();
        let env = field.environment();
        let p_u = scenario.users[user.index()].power.value();
        let mut delta = field.cross_interference(user, new.0, new.1)
            - field.cross_interference(user, old.0, old.1);
        // (listener server, entering): listeners on the old channel index
        // lose u's contribution, those on the new one gain it.
        let mut terms: Vec<(ServerId, bool)> = Vec::new();
        for (entering, (via, channel)) in [(false, old), (true, new)] {
            for &t in scenario.coverage.users_of(via) {
                if t == user {
                    continue;
                }
                if let Some((s, x)) = field.allocation().decision(t) {
                    if s != via && x == channel {
                        terms.push((s, entering));
                    }
                }
            }
        }
        terms.sort_unstable();
        for (s, entering) in terms {
            if entering {
                delta += env.gain(s, user) * p_u;
            } else {
                delta -= env.gain(s, user) * p_u;
            }
        }
        delta
    }
}

/// The outcome of one player scan.
enum Deviation {
    /// A move the game commits.
    Move(ServerId, ChannelIndex, f64),
    /// No candidate beats the current benefit.
    Quiet,
    /// The Lyapunov guard vetoed the candidate that does.
    Vetoed,
}

/// Quiet-player records on one monotone clock (module docs, § Quiet-player
/// skipping): per user the clock of its last scan that found no move, per
/// server the clocks of the last change to what a benefit at it reads and
/// to what a guard through it reads. [`IddeUGame::run_restricted_with`]
/// reads and writes them; a caller that carries them across calls stamps
/// every change it makes in between.
#[derive(Clone, Debug)]
pub struct QuietPlayers {
    /// The clock: every commit, stamp and clear advances it.
    clock: u64,
    /// Records older than this are void, which clears them all in O(1).
    floor: u64,
    /// Per server: the clock of the last change to its occupant rows, to
    /// the gains of their occupants or to its jamming floor (0 when none).
    rows: Vec<u64>,
    /// Per server: the clock of the last change to the decision or the
    /// coverage of a user it covers (0 when none).
    listeners: Vec<u64>,
    /// Per user: the clock of its last scan that found no move (0 when
    /// none, or forgotten).
    quiet_since: Vec<u64>,
    /// Per user: whether the guard vetoed a move in that scan, which then
    /// also read the listeners.
    vetoed: Vec<bool>,
    /// Servers whose occupant rows commits reordered since the last field
    /// rebuild, restamped by [`QuietPlayers::field_rebuilt`].
    reordered: Vec<ServerId>,
}

impl QuietPlayers {
    /// Records over `scenario`'s servers and users, none of them quiet.
    pub fn new(scenario: &Scenario) -> Self {
        Self {
            clock: 1,
            floor: 1,
            rows: vec![0; scenario.num_servers()],
            listeners: vec![0; scenario.num_servers()],
            quiet_since: vec![0; scenario.num_users()],
            vetoed: vec![false; scenario.num_users()],
            reordered: Vec::new(),
        }
    }

    /// Stamps a change to the rows of `servers`, the gains of their
    /// occupants or their jamming floors: every player whose neighbourhood
    /// holds one of them is rescanned.
    pub fn stamp_rows(&mut self, servers: impl IntoIterator<Item = ServerId>) {
        self.clock += 1;
        for s in servers {
            self.rows[s.index()] = self.clock;
        }
    }

    /// Stamps a change to the decision or coverage of a user that `servers`
    /// cover: a player whose neighbourhood holds one of them is rescanned
    /// if the guard vetoed its last move.
    pub fn stamp_listeners(&mut self, servers: impl IntoIterator<Item = ServerId>) {
        self.clock += 1;
        for s in servers {
            self.listeners[s.index()] = self.clock;
        }
    }

    /// Drops `user`'s record: its next scan runs.
    pub fn forget(&mut self, user: UserId) {
        self.quiet_since[user.index()] = 0;
    }

    /// Drops every record.
    pub fn clear(&mut self) {
        self.clock += 1;
        self.floor = self.clock;
        self.reordered.clear();
    }

    /// Restamps the rows commits reordered since the last rebuild: the
    /// rebuild re-sums them in user-id order.
    pub fn field_rebuilt(&mut self) {
        self.clock += 1;
        for s in self.reordered.drain(..) {
            self.rows[s.index()] = self.clock;
        }
    }

    /// Whether a scan of `user` would provably find no move again: its last
    /// scan found none, and nothing that scan read has been stamped since
    /// on a server of `D_j = V_j ∪ {j's current server}`.
    fn skips(&self, field: &InterferenceField<'_>, user: UserId) -> bool {
        let since = self.quiet_since[user.index()];
        if since < self.floor {
            return false;
        }
        let vetoed = self.vetoed[user.index()];
        let untouched = |s: ServerId| {
            self.rows[s.index()] <= since && (!vetoed || self.listeners[s.index()] <= since)
        };
        field.scenario().coverage.servers_of(user).iter().all(|&s| untouched(s))
            && field.allocation().decision(user).is_none_or(|(s, _)| untouched(s))
    }

    /// Records a scan of `user` against the field as it stands.
    fn record(&mut self, user: UserId, deviation: &Deviation) {
        let j = user.index();
        self.quiet_since[j] = match deviation {
            Deviation::Move(..) => 0,
            Deviation::Quiet | Deviation::Vetoed => self.clock,
        };
        self.vetoed[j] = matches!(deviation, Deviation::Vetoed);
    }

    /// Stamps a commit of `mover` from its current server to `to`: the two
    /// rows, which it also queues for the rebuild restamp, and the
    /// listeners of `V_m`. Call it before the field applies the move.
    fn commit(&mut self, field: &InterferenceField<'_>, mover: UserId, to: ServerId) {
        let from = field.allocation().server_of(mover);
        self.stamp_rows(from.into_iter().chain([to]));
        self.stamp_listeners(field.scenario().coverage.servers_of(mover).iter().copied());
        self.reordered.extend(from);
        self.reordered.push(to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_model::{testkit, Allocation};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    use crate::nash::is_nash_equilibrium;
    use crate::problem::Problem;

    fn problem() -> Problem {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        Problem::standard(testkit::fig2_example(), &mut rng)
    }

    #[test]
    fn game_converges_and_allocates_everyone() {
        let p = problem();
        let outcome = IddeUGame::default().run(&p);
        assert!(outcome.converged, "fig2 game must converge");
        // Every covered user strictly prefers any channel over (0,0).
        assert_eq!(outcome.field.allocation().num_allocated(), p.scenario.num_users());
        assert!(outcome.moves >= p.scenario.num_users());
    }

    #[test]
    fn equilibrium_is_nash_under_same_benefit() {
        let p = problem();
        let game = IddeUGame::default();
        let outcome = game.run(&p);
        assert!(is_nash_equilibrium(&game, &outcome.field, 1e-9));
    }

    #[test]
    fn all_policies_reach_nash() {
        // The one arbitration policy, from a second shuffle seed.
        let p = problem();
        let game = IddeUGame::new(GameConfig { seed: 3, ..Default::default() });
        let outcome = game.run(&p);
        assert!(outcome.converged);
        assert!(is_nash_equilibrium(&game, &outcome.field, 1e-9));
    }

    #[test]
    fn congestion_model_also_converges() {
        let p = problem();
        let game =
            IddeUGame::new(GameConfig { benefit: BenefitModel::Congestion, ..Default::default() });
        let outcome = game.run(&p);
        assert!(outcome.converged);
        assert!(is_nash_equilibrium(&game, &outcome.field, 1e-9));
    }

    #[test]
    fn game_spreads_users_over_channels() {
        // In fig2, interference pushes users apart: at equilibrium no
        // channel should hold a large share of the users while sibling
        // channels sit empty.
        let p = problem();
        let outcome = IddeUGame::default().run(&p);
        let field = &outcome.field;
        for server in p.scenario.server_ids() {
            let counts: Vec<usize> = p.scenario.servers[server.index()]
                .channels()
                .map(|x| field.occupants(server, x).len())
                .collect();
            let max = counts.iter().copied().max().unwrap_or(0);
            let min = counts.iter().copied().min().unwrap_or(0);
            // Channels of one server are symmetric resources; best-response
            // users never leave a 2+ imbalance (they would switch to the
            // emptier channel).
            assert!(max <= min + 1 || max <= 1, "server {server}: {counts:?}");
        }
    }

    #[test]
    fn max_passes_cap_reports_nonconvergence() {
        let p = problem();
        let game = IddeUGame::new(GameConfig { max_passes: 1, ..Default::default() });
        let outcome = game.run(&p);
        // One pass cannot both move users and verify quiescence.
        assert!(!outcome.converged);
    }

    #[test]
    fn degenerate_scenario_runs() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let p = Problem::standard(testkit::degenerate(), &mut rng);
        let outcome = IddeUGame::default().run(&p);
        assert!(outcome.converged);
        // The uncovered user must stay unallocated; the covered one gets a
        // channel.
        assert_eq!(outcome.field.allocation().num_allocated(), 1);
    }

    #[test]
    fn restricted_run_never_moves_frozen_users() {
        let p = problem();
        let game = IddeUGame::default();
        let full = game.run(&p);
        let frozen: Vec<_> = p
            .scenario
            .user_ids()
            .filter(|u| u.index() >= 3)
            .filter_map(|u| full.field.allocation().decision(u).map(|d| (u, d)))
            .collect();
        // Re-equilibrate only the first three users from the equilibrium.
        let players: Vec<UserId> = p.scenario.user_ids().take(3).collect();
        let field = InterferenceField::from_allocation(
            &p.radio,
            &p.scenario,
            &full.field.allocation().clone(),
        );
        let outcome = game.run_restricted(field, &players);
        assert!(outcome.converged);
        for (u, d) in frozen {
            assert_eq!(outcome.field.allocation().decision(u), Some(d), "user {u} moved");
        }
    }

    #[test]
    fn restricted_run_over_all_users_matches_run_from() {
        let p = problem();
        let game = IddeUGame::default();
        let all: Vec<UserId> = p.scenario.user_ids().collect();
        let a = game.run_from(p.field());
        let b = game.run_restricted(p.field(), &all);
        assert_eq!(a.field.allocation(), b.field.allocation());
        assert_eq!(a.moves, b.moves);
    }

    #[test]
    fn best_response_is_none_for_uncovered_users() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let p = Problem::standard(testkit::degenerate(), &mut rng);
        let game = IddeUGame::default();
        let field = p.field();
        assert!(game.best_response(&field, UserId(1)).is_none());
    }

    /// `profitable_deviation` on the reference scan: the same acceptance test
    /// applied to the reference best response, against a separately derived
    /// current benefit.
    fn improving_move_reference(
        game: &IddeUGame,
        field: &InterferenceField<'_>,
        user: UserId,
    ) -> Option<(ServerId, ChannelIndex, f64)> {
        let decision = field.allocation().decision(user);
        if decision.is_some_and(|(s, _)| field.scenario().coverage.is_foreign(s)) {
            return None;
        }
        let (s, x, best) = game.best_response_by_candidate(field, user)?;
        let current = game.current_benefit(field, user);
        let gain = best - current;
        let accepted = gain > EPSILON * current.abs().max(1e-30)
            && gain > 0.0
            && (game.config.acceptance != AcceptanceRule::LyapunovGuarded
                || game.guard_accepts(field, user, s, x));
        accepted.then_some((s, x, gain))
    }

    /// The pre-skipping game loop on the reference scan, kept as the oracle
    /// of the differential tests: every pass rescans every player.
    fn run_restricted_reference<'a>(
        game: &IddeUGame,
        mut field: InterferenceField<'a>,
        players: &[UserId],
    ) -> GameOutcome<'a> {
        let mut rng = ChaCha8Rng::seed_from_u64(game.config.seed);
        let (mut passes, mut moves, mut scans, mut converged) = (0usize, 0usize, 0usize, false);
        let mut order: Vec<UserId> = players.to_vec();
        while passes < game.config.max_passes {
            passes += 1;
            order.shuffle(&mut rng);
            let mut any = false;
            for &user in &order {
                scans += 1;
                if let Some((s, x, _)) = improving_move_reference(game, &field, user) {
                    field.allocate(user, s, x);
                    moves += 1;
                    any = true;
                }
            }
            if !any {
                converged = true;
                break;
            }
        }
        GameOutcome { field, passes, moves, scans, converged }
    }

    /// The pre-neighbourhood guard term, kept as the oracle of the guard's
    /// bitwise test: walks every server's listeners on both channel indices.
    fn delta_cross_interference_reference(
        field: &InterferenceField<'_>,
        user: UserId,
        old: (ServerId, ChannelIndex),
        new: (ServerId, ChannelIndex),
    ) -> f64 {
        let scenario = field.scenario();
        let env = field.environment();
        let p_u = scenario.users[user.index()].power.value();
        let mut delta = field.cross_interference(user, new.0, new.1)
            - field.cross_interference(user, old.0, old.1);
        for s in scenario.server_ids() {
            let num_channels = scenario.servers[s.index()].num_channels as usize;
            if old.1.index() < num_channels && old.0 != s {
                for &t in field.occupants(s, old.1) {
                    if t != user && scenario.coverage.covers(old.0, t) {
                        delta -= env.gain(s, user) * p_u;
                    }
                }
            }
            if new.1.index() < num_channels && new.0 != s {
                for &t in field.occupants(s, new.1) {
                    if t != user && scenario.coverage.covers(new.0, t) {
                        delta += env.gain(s, user) * p_u;
                    }
                }
            }
        }
        delta
    }

    /// A random game instance over a `side`-metre square: 1–3 channels per
    /// server, some foreign servers, an optional jamming floor, a random
    /// partial profile, and stale decisions — users that moved after being
    /// allocated and still sit, via `allocate_unchecked`, on a server that
    /// no longer covers them.
    struct Instance {
        problem: Problem,
        covered: Allocation,
        stale: Vec<(UserId, ServerId, ChannelIndex)>,
    }

    impl Instance {
        fn random(rng: &mut ChaCha8Rng, servers: usize, users: usize, side: f64) -> Self {
            use idde_model::{MegaBytes, MegaBytesPerSec, Point, ScenarioBuilder, Watts};
            let mut b = ScenarioBuilder::new();
            let radius = rng.gen_range(0.12..0.3) * side;
            for _ in 0..servers {
                b.server(
                    Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)),
                    rng.gen_range(0.6..1.4) * radius,
                    rng.gen_range(1..4),
                    MegaBytesPerSec(rng.gen_range(50.0..400.0)),
                    MegaBytes(100.0),
                );
            }
            for _ in 0..users {
                b.user(
                    Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)),
                    Watts(rng.gen_range(0.5..5.0)),
                    MegaBytesPerSec(rng.gen_range(50.0..400.0)),
                );
            }
            b.data(MegaBytes(10.0));
            let mut scenario = b.build().unwrap();
            if rng.gen_bool(0.5) {
                for server in scenario.server_ids() {
                    if rng.gen_bool(0.2) {
                        scenario.coverage.set_foreign(server, true);
                    }
                }
            }
            let mut covered = Allocation::unallocated(users);
            let mut stale = Vec::new();
            for user in scenario.user_ids() {
                let vs = scenario.coverage.servers_of(user);
                if vs.is_empty() || rng.gen_bool(0.3) {
                    continue;
                }
                let s = vs[rng.gen_range(0..vs.len())];
                let x = ChannelIndex(rng.gen_range(0..scenario.servers[s.index()].num_channels));
                if rng.gen_bool(0.15) {
                    // The user moves after its allocation.
                    let mut moved = scenario.users[user.index()].clone();
                    moved.position = Point::new(
                        moved.position.x + rng.gen_range(-1.0..1.0) * radius,
                        moved.position.y + rng.gen_range(-1.0..1.0) * radius,
                    );
                    scenario.coverage.update_user(&scenario.servers, &moved);
                    scenario.users[user.index()] = moved;
                    if !scenario.coverage.covers(s, user) {
                        stale.push((user, s, x));
                        continue;
                    }
                }
                covered.set(user, Some((s, x)));
            }
            let mut problem = Problem::with_density(scenario, 1.0, rng);
            if rng.gen_bool(0.4) {
                // A floor on the scale of the received power `g·p` of the
                // server's own users, so it reroutes some of them.
                for server in problem.scenario.server_ids() {
                    let users = problem.scenario.coverage.users_of(server);
                    if users.is_empty() || !rng.gen_bool(0.3) {
                        continue;
                    }
                    let received: f64 = users
                        .iter()
                        .map(|&u| {
                            problem.radio.gain(server, u)
                                * problem.scenario.users[u.index()].power.value()
                        })
                        .sum();
                    let floor = received / users.len() as f64 * rng.gen_range(0.1..10.0);
                    problem.radio.set_jamming(server, floor);
                }
            }
            Self { problem, covered, stale }
        }

        /// 3–24 servers and up to 59 users on a kilometre square.
        fn small(rng: &mut ChaCha8Rng) -> Self {
            let (servers, users) = (rng.gen_range(3..25), rng.gen_range(1..60));
            Self::random(rng, servers, users, 1000.0)
        }

        fn field(&self) -> InterferenceField<'_> {
            let mut field = InterferenceField::from_allocation(
                &self.problem.radio,
                &self.problem.scenario,
                &self.covered,
            );
            for &(user, s, x) in &self.stale {
                field.allocate_unchecked(user, s, x);
            }
            field
        }

        /// Every user, or a random subset in random order.
        fn players(&self, rng: &mut ChaCha8Rng) -> Vec<UserId> {
            use rand::seq::SliceRandom;
            let mut players: Vec<UserId> = self.problem.scenario.user_ids().collect();
            if rng.gen_bool(0.6) {
                players.retain(|_| rng.gen_bool(0.5));
                players.shuffle(rng);
            }
            players
        }
    }

    /// Asserts two game outcomes agree bit for bit: counters, every
    /// decision and every channel power sum.
    fn assert_same_outcome(a: &GameOutcome<'_>, b: &GameOutcome<'_>, what: &str) {
        assert_eq!((a.passes, a.moves, a.converged), (b.passes, b.moves, b.converged), "{what}");
        assert_eq!(a.field.allocation(), b.field.allocation(), "{what}");
        let scenario = a.field.scenario();
        for s in scenario.server_ids() {
            for x in scenario.servers[s.index()].channels() {
                assert_eq!(
                    a.field.channel_power(s, x).to_bits(),
                    b.field.channel_power(s, x).to_bits(),
                    "{what}: channel ({s}, {x})"
                );
            }
        }
    }

    #[test]
    fn quiet_player_skipping_matches_the_full_rescan_bit_for_bit() {
        let (mut skipped, mut stale, mut capped) = (0usize, 0usize, 0usize);
        for seed in 0..200u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let inst = Instance::small(&mut rng);
            let players = inst.players(&mut rng);
            stale += inst.stale.len();
            for benefit in [BenefitModel::PaperEq12, BenefitModel::Congestion] {
                for acceptance in [AcceptanceRule::LyapunovGuarded, AcceptanceRule::BenefitOnly] {
                    let game =
                        IddeUGame::new(GameConfig { benefit, acceptance, max_passes: 60, seed });
                    let what = format!("seed {seed} {benefit:?} {acceptance:?}");
                    let got = game.run_restricted(inst.field(), &players);
                    let want = run_restricted_reference(&game, inst.field(), &players);
                    assert_same_outcome(&got, &want, &what);
                    assert!(got.scans <= want.scans, "{what}: skipping added scans");
                    skipped += want.scans - got.scans;
                    capped += usize::from(!got.converged);
                }
            }
        }
        // The seeds exercise skipping, stale decisions and the pass cap.
        assert!(skipped > 0 && stale > 0 && capped > 0, "{skipped} {stale} {capped}");
    }

    #[test]
    fn quiet_player_skipping_saves_scans_on_a_metro_sized_instance() {
        // The serving engine's game (the default configuration) on a dense
        // instance with the metro workload's users-per-server ratio.
        let mut rng = ChaCha8Rng::seed_from_u64(2022);
        let inst = Instance::random(&mut rng, 150, 450, 2500.0);
        let players: Vec<UserId> = inst.problem.scenario.user_ids().collect();
        let game = IddeUGame::default();
        let got = game.run_restricted(inst.field(), &players);
        let want = run_restricted_reference(&game, inst.field(), &players);
        assert_same_outcome(&got, &want, "metro-sized");
        assert!(got.converged);
        assert!(got.scans < want.scans, "{} scans vs {} without skipping", got.scans, want.scans);
    }

    /// The rebuild restamp covers every row a rebuild changes: after a game
    /// on a freshly built field, every channel whose occupant order or power
    /// sum differs from a rebuild of the final profile belongs to a server
    /// that [`QuietPlayers::field_rebuilt`] stamps past every record.
    #[test]
    fn rebuild_restamp_covers_every_row_a_rebuild_changes() {
        let mut changed = 0usize;
        for seed in 0..100u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let inst = Instance::small(&mut rng);
            let (radio, scenario) = (&inst.problem.radio, &inst.problem.scenario);
            let field = InterferenceField::from_allocation(radio, scenario, &inst.covered);
            let players = inst.players(&mut rng);
            let mut quiet = QuietPlayers::new(scenario);
            let outcome = IddeUGame::default().run_restricted_with(field, &players, &mut quiet);
            let rebuilt = InterferenceField::from_allocation(
                radio,
                scenario,
                &outcome.field.allocation().clone(),
            );
            let newest = quiet.quiet_since.iter().copied().max().unwrap_or(0);
            quiet.field_rebuilt();
            for s in scenario.server_ids() {
                for x in scenario.servers[s.index()].channels() {
                    let (a, b) = (&outcome.field, &rebuilt);
                    if a.occupants(s, x) != b.occupants(s, x)
                        || a.channel_power(s, x).to_bits() != b.channel_power(s, x).to_bits()
                    {
                        assert!(quiet.rows[s.index()] > newest, "seed {seed}: ({s}, {x})");
                        changed += 1;
                    }
                }
            }
        }
        assert!(changed > 0, "no rebuild changed a row");
    }

    #[test]
    fn neighbourhood_guard_matches_the_all_servers_walk_bit_for_bit() {
        let mut compared = 0usize;
        for seed in 0..200u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let inst = Instance::small(&mut rng);
            let field = inst.field();
            let scenario = field.scenario();
            let game = IddeUGame::default();
            for _ in 0..40 {
                let user = UserId::from_index(rng.gen_range(0..scenario.num_users()));
                let Some(old) = field.allocation().decision(user) else { continue };
                let s = ServerId::from_index(rng.gen_range(0..scenario.num_servers()));
                let x = ChannelIndex(rng.gen_range(0..scenario.servers[s.index()].num_channels));
                let got = game.delta_cross_interference(&field, user, old, (s, x));
                let want = delta_cross_interference_reference(&field, user, old, (s, x));
                assert_eq!(got.to_bits(), want.to_bits(), "seed {seed} user {user} to ({s}, {x})");
                compared += 1;
            }
        }
        assert!(compared > 1000, "{compared}");
    }

    #[test]
    fn gathered_scan_matches_the_per_candidate_walk_bit_for_bit() {
        let bits =
            |r: Option<(ServerId, ChannelIndex, f64)>| r.map(|(s, x, b)| (s, x, b.to_bits()));
        let (mut scanned, mut foreign, mut jammed, mut stale) = (0usize, 0usize, 0usize, 0usize);
        for seed in 0..200u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let inst = Instance::small(&mut rng);
            let field = inst.field();
            let scenario = field.scenario();
            foreign += scenario.server_ids().filter(|&s| scenario.coverage.is_foreign(s)).count();
            jammed += usize::from(!inst.problem.radio.is_unjammed());
            stale += inst.stale.len();
            let players: Vec<UserId> = scenario.user_ids().collect();
            for acceptance in [AcceptanceRule::LyapunovGuarded, AcceptanceRule::BenefitOnly] {
                let game = IddeUGame::new(GameConfig { acceptance, ..Default::default() });
                for &user in &players {
                    let what = format!("seed {seed} user {user} {acceptance:?}");
                    let want = game.best_response_by_candidate(&field, user);
                    assert_eq!(bits(game.best_response(&field, user)), bits(want), "{what}");
                    let want = improving_move_reference(&game, &field, user);
                    assert_eq!(bits(game.profitable_deviation(&field, user)), bits(want), "{what}");
                    scanned += 1;
                }
            }
        }
        // The seeds exercise foreign servers, jamming floors and stale
        // decisions.
        assert!(scanned > 1000 && foreign > 0 && jammed > 0 && stale > 0);
    }
}
