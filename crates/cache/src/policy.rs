//! The admission policies: three on-path admission rules in one enum,
//! selected by [`PolicyKind`].
//!
//! A policy answers one question per served request: *which server, if
//! any, should opportunistically install a replica of the item that just
//! travelled the delivery path?* The classics from the content-network
//! literature (the icarus strategy family) map cleanly onto the IDDE
//! delivery model of Eq. 7/8:
//!
//! * **LCE** (leave copy everywhere) — install at the user's serving
//!   server on every miss; maximal churn, fastest adaptation.
//! * **LCD** (leave copy down) — the replica creeps one hop *down* the
//!   delivery path per request (from the origin toward the serving
//!   server); popular items migrate edge-ward over repeated requests
//!   without flooding every server.
//! * **ProbCache** — admit at the serving server with a probability that
//!   grows with the path length the transfer actually crossed: expensive
//!   deliveries are the ones worth shortcutting. Randomness is drawn from
//!   a dedicated seeded `ChaCha8Rng`, so runs replay bit-identically.
//!
//! Policies only *choose a site*; the [`crate::layer::CacheLayer`] owns
//! budget enforcement and victim selection (least-popular first, ties to
//! the smallest data id), so every policy inherits the same deterministic
//! eviction order.

use std::fmt;
use std::str::FromStr;

use idde_model::ServerId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The policy selector, as parsed from `--cache POLICY`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PolicyKind {
    /// Caching disabled — the engine's serve path is bit-identical to a
    /// build without the cache layer.
    #[default]
    Off,
    /// Leave copy everywhere.
    Lce,
    /// Leave copy down (one hop along the delivery path per request).
    Lcd,
    /// Probabilistic admission weighted by path length.
    ProbCache,
}

impl FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "none" => Ok(Self::Off),
            "lce" => Ok(Self::Lce),
            "lcd" => Ok(Self::Lcd),
            "probcache" | "prob" => Ok(Self::ProbCache),
            other => Err(format!("unknown cache policy {other:?} (try off|lce|lcd|probcache)")),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Off => "off",
            Self::Lce => "lce",
            Self::Lcd => "lcd",
            Self::ProbCache => "probcache",
        })
    }
}

/// Everything a policy may consult about one served request. Assembled by
/// the [`crate::layer::CacheLayer`] from committed engine state only, so
/// admission decisions are a pure function of `(seed, event stream)`.
#[derive(Clone, Debug)]
pub(crate) struct RequestContext<'a> {
    /// The serving edge server of the requesting user (Eq. 8's `v_i`).
    pub target: ServerId,
    /// The edge origin the request was actually delivered from; `None`
    /// when the cloud won the Eq. 8 minimum.
    pub source: Option<ServerId>,
    /// The delivery path from the origin to `target`, endpoints inclusive.
    /// Empty for cloud deliveries and local hits (`source == target`).
    pub path: &'a [ServerId],
    /// Whether `target` already holds the item (solver placement or cache).
    pub already_at_target: bool,
}

/// A running admission policy: chooses, per served request, where to
/// install an opportunistic replica of the item, or nowhere.
#[derive(Clone, Debug)]
pub(crate) enum Admission {
    /// LCE: every miss installs a replica at the serving server.
    Lce,
    /// LCD: the replica moves one hop down the delivery path per request —
    /// `path[1]` for edge deliveries, the serving server itself for cloud
    /// deliveries (the cloud sits "above" every edge node).
    Lcd,
    /// ProbCache: admit at the serving server with probability
    /// `min(1, ADMIT_PROBABILITY · hops)`, where `hops` is the edge path
    /// length the delivery crossed (1 for cloud deliveries). The RNG is
    /// consumed only on admissible misses, in event order, so replays are
    /// bit-identical.
    ProbCache {
        /// The policy's private, seeded RNG.
        rng: ChaCha8Rng,
    },
}

/// ProbCache's base admission probability `p`, scaled by the path length.
const ADMIT_PROBABILITY: f64 = 0.3;

impl Admission {
    /// Instantiates the policy for `kind`; `None` for [`PolicyKind::Off`].
    /// Only ProbCache reads `seed`.
    pub(crate) fn new(kind: PolicyKind, seed: u64) -> Option<Self> {
        match kind {
            PolicyKind::Off => None,
            PolicyKind::Lce => Some(Self::Lce),
            PolicyKind::Lcd => Some(Self::Lcd),
            PolicyKind::ProbCache => Some(Self::ProbCache { rng: ChaCha8Rng::seed_from_u64(seed) }),
        }
    }

    /// Chooses the admission site for one served request.
    pub(crate) fn admit(&mut self, ctx: &RequestContext<'_>) -> Option<ServerId> {
        match self {
            Self::Lce => (!ctx.already_at_target).then_some(ctx.target),
            Self::Lcd => match ctx.source {
                // Cloud delivery: the first node below the source is the target.
                None => (!ctx.already_at_target).then_some(ctx.target),
                // Local hit: the copy is already as far down as it gets.
                Some(origin) if origin == ctx.target => None,
                // Edge delivery: one hop from the origin toward the target.
                Some(_) => ctx.path.get(1).copied(),
            },
            Self::ProbCache { rng } => {
                if ctx.already_at_target {
                    return None;
                }
                let hops = ctx.path.len().saturating_sub(1).max(1);
                let p = (ADMIT_PROBABILITY * hops as f64).min(1.0);
                rng.gen_bool(p).then_some(ctx.target)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(path: &'a [ServerId], source: Option<ServerId>) -> RequestContext<'a> {
        RequestContext { target: ServerId(3), source, path, already_at_target: false }
    }

    fn admission(kind: PolicyKind, seed: u64) -> Admission {
        Admission::new(kind, seed).expect("policy is not Off")
    }

    #[test]
    fn kind_round_trips_through_strings() {
        for kind in [PolicyKind::Off, PolicyKind::Lce, PolicyKind::Lcd, PolicyKind::ProbCache] {
            assert_eq!(kind.to_string().parse::<PolicyKind>().unwrap(), kind);
        }
        assert!("weird".parse::<PolicyKind>().is_err());
        assert_eq!("PROB".parse::<PolicyKind>().unwrap(), PolicyKind::ProbCache);
    }

    #[test]
    fn lce_admits_at_target_unless_present() {
        let mut p = admission(PolicyKind::Lce, 0);
        assert_eq!(p.admit(&ctx(&[], None)), Some(ServerId(3)));
        let mut present = ctx(&[], None);
        present.already_at_target = true;
        assert_eq!(p.admit(&present), None);
    }

    #[test]
    fn lcd_steps_one_hop_down() {
        let mut p = admission(PolicyKind::Lcd, 0);
        let path = [ServerId(7), ServerId(5), ServerId(3)];
        // Edge delivery from 7: copy lands one hop down, at 5.
        assert_eq!(p.admit(&ctx(&path, Some(ServerId(7)))), Some(ServerId(5)));
        // Cloud delivery: first edge node below the cloud is the target.
        assert_eq!(p.admit(&ctx(&[], None)), Some(ServerId(3)));
        // Local hit: nothing below the target.
        assert_eq!(p.admit(&ctx(&[], Some(ServerId(3)))), None);
    }

    #[test]
    fn probcache_is_seeded_and_path_weighted() {
        let path = [ServerId(7), ServerId(5), ServerId(3)];
        let run = |seed| {
            let mut p = admission(PolicyKind::ProbCache, seed);
            (0..64).map(|_| p.admit(&ctx(&path, Some(ServerId(7)))).is_some()).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9), "same seed must replay identically");
        let mut sure = admission(PolicyKind::ProbCache, 1);
        // Four hops at p = 0.3 saturate to certainty.
        let long = [ServerId(9), ServerId(8), ServerId(7), ServerId(5), ServerId(3)];
        assert_eq!(sure.admit(&ctx(&long, Some(ServerId(9)))), Some(ServerId(3)));
    }
}
