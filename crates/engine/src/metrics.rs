//! Serving metrics: a fixed-bucket latency histogram, running averages and
//! the repair/fallback accounting.
//!
//! Everything here is a pure function of the event stream and the engine's
//! decisions — no wall-clock quantities are stored — so [`ServeMetrics::to_csv`]
//! is byte-identical across repeated runs of the same seed. Wall-clock
//! throughput (events/sec) is computed only at render time from an elapsed
//! duration the caller measured.

use std::fmt::Write as _;
use std::time::Duration;

use idde_cache::CacheCounters;
use idde_dist::DistCounters;

/// Upper bucket bounds of the latency histogram, in milliseconds. Sized for
/// the paper's §4.2 regime: local hits are 0 ms, edge transfers land in the
/// 5–150 ms range, cloud transfers above that.
pub const LATENCY_BUCKET_BOUNDS_MS: [f64; 9] =
    [1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 100.0, 150.0, 250.0];

/// A fixed-bucket latency histogram (bounds in
/// [`LATENCY_BUCKET_BOUNDS_MS`], plus one overflow bucket).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKET_BOUNDS_MS.len() + 1],
}

impl LatencyHistogram {
    /// Records one observation, in milliseconds.
    pub fn record(&mut self, latency_ms: f64) {
        let bucket = LATENCY_BUCKET_BOUNDS_MS
            .iter()
            .position(|&bound| latency_ms <= bound)
            .unwrap_or(LATENCY_BUCKET_BOUNDS_MS.len());
        self.counts[bucket] += 1;
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Human-readable label of bucket `i`, e.g. `"≤25ms"` or `">250ms"`.
    pub fn label(i: usize) -> String {
        if i < LATENCY_BUCKET_BOUNDS_MS.len() {
            format!("≤{}ms", LATENCY_BUCKET_BOUNDS_MS[i])
        } else {
            format!(">{}ms", LATENCY_BUCKET_BOUNDS_MS[LATENCY_BUCKET_BOUNDS_MS.len() - 1])
        }
    }
}

/// Wall-clock time spent in each serving phase. Rendered only by
/// [`ServeMetrics::render_table`] — never by [`ServeMetrics::to_csv`], which
/// must stay a pure function of the event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Time inside Phase #1 restricted best-response repairs.
    pub equilibrium: Duration,
    /// Time inside Phase #2 placement repairs.
    pub placement: Duration,
    /// Time inside drift checkpoints (from-scratch re-solves).
    pub checkpoint: Duration,
    /// Time inside invariant audits and Nash certificates.
    pub audit: Duration,
}

/// Counters and gauges accumulated over a serving run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeMetrics {
    /// Ticks processed.
    pub ticks: u64,
    /// Events processed (all kinds).
    pub events: u64,
    /// Arrival events applied.
    pub arrivals: u64,
    /// Departure events applied.
    pub departures: u64,
    /// Mobility events applied.
    pub moves: u64,
    /// Request events served.
    pub requests: u64,
    /// Requests served from an edge replica or the target server itself.
    pub edge_served: u64,
    /// Requests served from the cloud (including unallocated users).
    pub cloud_served: u64,
    /// Restricted best-response repairs run.
    pub repairs: u64,
    /// Best-response moves performed inside repairs.
    pub repair_moves: u64,
    /// Player scans performed inside repairs (quiet players skipped). Not a
    /// CSV row: it measures work, which the CSV schema predates.
    pub repair_scans: u64,
    /// Placement repair passes (eviction + greedy insertion).
    pub placement_repairs: u64,
    /// Replicas evicted by placement repair.
    pub evicted_replicas: u64,
    /// Replicas newly placed by placement repair.
    pub new_replicas: u64,
    /// Drift checkpoints evaluated.
    pub checkpoints: u64,
    /// Checkpoints whose drift exceeded the threshold (full re-solve
    /// adopted).
    pub fallbacks: u64,
    /// Drift gauge: relative average-rate shortfall of the repaired
    /// equilibrium versus a from-scratch re-solve, at the last checkpoint.
    pub last_drift: f64,
    /// Largest drift observed at any checkpoint.
    pub max_drift: f64,
    /// Invariant audit passes run (field + placement cross-checks).
    pub audits: u64,
    /// Individual invariant checks evaluated across all audit passes.
    pub audit_checks: u64,
    /// Invariant violations surfaced across all audit passes.
    pub audit_violations: u64,
    /// Nash certificates evaluated after converged restricted repairs.
    pub certificates: u64,
    /// Profitable deviations found by Nash certificates (each one disproves
    /// a repair's claimed restricted equilibrium).
    pub certificate_violations: u64,
    /// Link faults applied (failures + degradations).
    pub link_faults: u64,
    /// Server outage events applied.
    pub server_outages: u64,
    /// Jamming events applied.
    pub jam_events: u64,
    /// Restorations applied (links back up, servers back, jammers off).
    pub restorations: u64,
    /// Users deallocated because their serving server went down.
    pub displaced_users: u64,
    /// Replicas destroyed by server outages.
    pub lost_replicas: u64,
    /// Replicas re-created by the placement repair a fault triggered.
    pub re_replications: u64,
    /// Requests forced to the cloud because no edge replica of the item was
    /// reachable from the target server (Eq. 7 fallback under degradation;
    /// distinct from `cloud_served`, which also counts cloud wins on price).
    pub cloud_fallback_requests: u64,
    /// Σ over ticks of the number of data items with no live edge replica
    /// at the end of the tick — how long, and how widely, outages left
    /// items cloud-only.
    pub unreachable_item_ticks: u64,
    /// Cache activity — `Some` only when the engine runs a caching layer;
    /// the cache CSV rows append only then, so an uncached CSV keeps the
    /// schema that predates the layer.
    pub cache: Option<CacheCounters>,
    /// Bulk-distribution activity — `Some` only when the engine records
    /// distribution plans ([`idde_dist::DistConfig::record`]); same gating
    /// as `cache`, with the rows after the cache block.
    pub dist: Option<DistCounters>,
    /// Delivery-latency histogram over served requests.
    pub latency: LatencyHistogram,
    /// Wall-clock per-phase spans (table output only; excluded from the CSV
    /// so it stays deterministic).
    pub timings: PhaseTimings,
    total_latency_ms: f64,
    rate_sum: f64,
    rate_samples: u64,
}

/// How the K per-shard values of one stored row combine into one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fold {
    /// Disjoint per-shard work: the shard values add up.
    Sum,
    /// A shared axis or a gauge: the largest shard value wins.
    Max,
}

impl Fold {
    /// Folds another shard's value `theirs` into `mine`.
    fn apply<T: Copy + PartialOrd + std::ops::AddAssign>(self, mine: &mut T, theirs: T) {
        match self {
            Sum => *mine += theirs,
            Max if theirs > *mine => *mine = theirs,
            Max => {}
        }
    }
}

/// The field one row reads. Stored fields are reached through `&mut` so a
/// single accessor serves both the fold and the render.
#[derive(Clone, Copy)]
enum Field {
    /// An integer counter, rendered as is.
    Count(Fold, fn(&mut ServeMetrics) -> &mut u64),
    /// A float accumulator or gauge, rendered to six decimals.
    Real(Fold, fn(&mut ServeMetrics) -> &mut f64),
    /// A wall-clock phase span, never rendered (the CSV is deterministic).
    Span(Fold, fn(&mut ServeMetrics) -> &mut Duration),
    /// A value computed from the folded stored rows, so it has no fold.
    Derived(fn(&mut ServeMetrics) -> String),
}

/// One row: its CSV name (`None` for a hidden accumulator) and its field.
struct Row(Option<&'static str>, Field);

/// A run of rows and whether a given run carries their block.
type Section = (fn(&ServeMetrics) -> bool, &'static [Row]);

use Field::{Count, Derived, Real, Span};
use Fold::{Max, Sum};

/// The optional blocks, created on first write (absent blocks are skipped).
fn cache(m: &mut ServeMetrics) -> &mut CacheCounters {
    m.cache.get_or_insert_with(CacheCounters::default)
}

fn dist(m: &mut ServeMetrics) -> &mut DistCounters {
    m.dist.get_or_insert_with(DistCounters::default)
}

/// Every serve metric, once, in CSV order. The optional blocks' sections come
/// last, so a run without them keeps the schema that predates them. Adding a
/// counter takes one field plus one entry here.
#[rustfmt::skip]
const ROWS: [Section; 3] = [
    (|_| true, &[
        Row(Some("ticks"), Count(Max, |m| &mut m.ticks)),
        Row(Some("events"), Count(Sum, |m| &mut m.events)),
        Row(Some("arrivals"), Count(Sum, |m| &mut m.arrivals)),
        Row(Some("departures"), Count(Sum, |m| &mut m.departures)),
        Row(Some("moves"), Count(Sum, |m| &mut m.moves)),
        Row(Some("requests"), Count(Sum, |m| &mut m.requests)),
        Row(Some("edge_served"), Count(Sum, |m| &mut m.edge_served)),
        Row(Some("cloud_served"), Count(Sum, |m| &mut m.cloud_served)),
        Row(Some("repairs"), Count(Sum, |m| &mut m.repairs)),
        Row(Some("repair_moves"), Count(Sum, |m| &mut m.repair_moves)),
        Row(None, Count(Sum, |m| &mut m.repair_scans)),
        Row(Some("placement_repairs"), Count(Sum, |m| &mut m.placement_repairs)),
        Row(Some("evicted_replicas"), Count(Sum, |m| &mut m.evicted_replicas)),
        Row(Some("new_replicas"), Count(Sum, |m| &mut m.new_replicas)),
        Row(Some("checkpoints"), Count(Sum, |m| &mut m.checkpoints)),
        Row(Some("fallbacks"), Count(Sum, |m| &mut m.fallbacks)),
        Row(Some("audits"), Count(Sum, |m| &mut m.audits)),
        Row(Some("audit_checks"), Count(Sum, |m| &mut m.audit_checks)),
        Row(Some("audit_violations"), Count(Sum, |m| &mut m.audit_violations)),
        Row(Some("certificates"), Count(Sum, |m| &mut m.certificates)),
        Row(Some("certificate_violations"), Count(Sum, |m| &mut m.certificate_violations)),
        Row(Some("link_faults"), Count(Sum, |m| &mut m.link_faults)),
        Row(Some("server_outages"), Count(Sum, |m| &mut m.server_outages)),
        Row(Some("jam_events"), Count(Sum, |m| &mut m.jam_events)),
        Row(Some("restorations"), Count(Sum, |m| &mut m.restorations)),
        Row(Some("displaced_users"), Count(Sum, |m| &mut m.displaced_users)),
        Row(Some("lost_replicas"), Count(Sum, |m| &mut m.lost_replicas)),
        Row(Some("re_replications"), Count(Sum, |m| &mut m.re_replications)),
        Row(Some("cloud_fallback_requests"), Count(Sum, |m| &mut m.cloud_fallback_requests)),
        Row(Some("unreachable_item_ticks"), Count(Sum, |m| &mut m.unreachable_item_ticks)),
        Row(Some("last_drift"), Real(Max, |m| &mut m.last_drift)),
        Row(Some("max_drift"), Real(Max, |m| &mut m.max_drift)),
        Row(None, Real(Sum, |m| &mut m.rate_sum)),
        Row(None, Count(Sum, |m| &mut m.rate_samples)),
        Row(Some("avg_rate_mbps"), Derived(|m| format!("{:.6}", m.average_rate()))),
        Row(None, Real(Sum, |m| &mut m.total_latency_ms)),
        Row(Some("avg_latency_ms"), Derived(|m| format!("{:.6}", m.average_latency_ms()))),
        Row(Some("latency_le_1ms"), Count(Sum, |m| &mut m.latency.counts[0])),
        Row(Some("latency_le_5ms"), Count(Sum, |m| &mut m.latency.counts[1])),
        Row(Some("latency_le_10ms"), Count(Sum, |m| &mut m.latency.counts[2])),
        Row(Some("latency_le_25ms"), Count(Sum, |m| &mut m.latency.counts[3])),
        Row(Some("latency_le_50ms"), Count(Sum, |m| &mut m.latency.counts[4])),
        Row(Some("latency_le_75ms"), Count(Sum, |m| &mut m.latency.counts[5])),
        Row(Some("latency_le_100ms"), Count(Sum, |m| &mut m.latency.counts[6])),
        Row(Some("latency_le_150ms"), Count(Sum, |m| &mut m.latency.counts[7])),
        Row(Some("latency_le_250ms"), Count(Sum, |m| &mut m.latency.counts[8])),
        Row(Some("latency_le_inf"), Count(Sum, |m| &mut m.latency.counts[9])),
        Row(None, Span(Sum, |m| &mut m.timings.equilibrium)),
        Row(None, Span(Sum, |m| &mut m.timings.placement)),
        Row(None, Span(Sum, |m| &mut m.timings.checkpoint)),
        Row(None, Span(Sum, |m| &mut m.timings.audit)),
    ]),
    (|m| m.cache.is_some(), &[
        Row(Some("cache_hits"), Count(Sum, |m| &mut cache(m).hits)),
        Row(Some("cache_misses"), Count(Sum, |m| &mut cache(m).misses)),
        Row(Some("cache_insertions"), Count(Sum, |m| &mut cache(m).insertions)),
        Row(None, Count(Sum, |m| &mut cache(m).evictions)),
        Row(Some("cache_evictions"), Derived(|m| cache(m).total_evictions().to_string())),
        Row(Some("cache_outage_evictions"), Count(Sum, |m| &mut cache(m).outage_evictions)),
        Row(Some("cache_reconcile_evictions"), Count(Sum, |m| &mut cache(m).reconcile_evictions)),
        Row(Some("cache_rejected"), Count(Sum, |m| &mut cache(m).rejected)),
        Row(Some("cache_hit_checks"), Count(Sum, |m| &mut cache(m).hit_checks)),
    ]),
    (|m| m.dist.is_some(), &[
        Row(Some("dist_bulk_installs"), Count(Sum, |m| &mut dist(m).bulk_installs)),
        Row(Some("dist_tree_installs"), Count(Sum, |m| &mut dist(m).tree_installs)),
        Row(Some("dist_replicas"), Count(Sum, |m| &mut dist(m).replicas_installed)),
        Row(Some("dist_cloud_seeds"), Count(Sum, |m| &mut dist(m).cloud_seeds)),
        Row(Some("dist_delay_violations"), Count(Sum, |m| &mut dist(m).delay_violations)),
        Row(Some("dist_cost_ms"), Real(Sum, |m| &mut dist(m).dist_cost_ms)),
        Row(Some("dist_delay_ms"), Real(Sum, |m| &mut dist(m).dist_delay_ms)),
    ]),
];

/// The rows of every block `m` carries, in CSV order.
fn rows_present(m: &ServeMetrics) -> impl Iterator<Item = &'static Row> + '_ {
    ROWS.iter().filter(move |(present, _)| present(m)).flat_map(|(_, rows)| rows.iter())
}

impl ServeMetrics {
    /// Records one served request.
    pub fn record_request(&mut self, latency_ms: f64, from_edge: bool) {
        self.requests += 1;
        if from_edge {
            self.edge_served += 1;
        } else {
            self.cloud_served += 1;
        }
        self.total_latency_ms += latency_ms;
        self.latency.record(latency_ms);
    }

    /// Records one per-tick sample of the average data rate over active
    /// users (MB/s).
    pub fn sample_rate(&mut self, average_rate: f64) {
        self.rate_sum += average_rate;
        self.rate_samples += 1;
    }

    /// Records a checkpoint's drift measurement.
    pub fn record_drift(&mut self, drift: f64, fell_back: bool) {
        self.checkpoints += 1;
        self.last_drift = drift;
        if drift > self.max_drift {
            self.max_drift = drift;
        }
        if fell_back {
            self.fallbacks += 1;
        }
    }

    /// Records one invariant audit pass.
    pub fn record_audit(&mut self, checks: u64, violations: u64) {
        self.audits += 1;
        self.audit_checks += checks;
        self.audit_violations += violations;
    }

    /// Records one Nash certificate evaluated after a converged repair.
    pub fn record_certificate(&mut self, violations: u64) {
        self.certificates += 1;
        self.certificate_violations += violations;
    }

    /// Folds another engine's metrics into this one — the reduction a shard
    /// router uses to present K per-shard engines as one serving run. Every
    /// stored row of the metrics row list combines by its declared fold (see
    /// ARCHITECTURE.md §6); derived rows are recomputed from the folded
    /// accumulators. A `cache` or `dist` block merges only when `other`
    /// carries it. The fold counts an event once per engine that applied it;
    /// a router that applies one event in several engines (handoffs,
    /// broadcast link events) corrects for that itself. Merging into a
    /// default-initialised `ServeMetrics` reproduces `other` exactly, which
    /// keeps the K=1 serve CSV byte-identical.
    pub fn merge(&mut self, other: &ServeMetrics) {
        let mut theirs = other.clone();
        for &Row(_, field) in rows_present(other) {
            match field {
                Count(fold, at) => fold.apply(at(self), *at(&mut theirs)),
                Real(fold, at) => fold.apply(at(self), *at(&mut theirs)),
                Span(fold, at) => fold.apply(at(self), *at(&mut theirs)),
                Derived(_) => {}
            }
        }
    }

    /// Running mean of the sampled average data rate, MB/s.
    pub fn average_rate(&self) -> f64 {
        if self.rate_samples == 0 {
            0.0
        } else {
            self.rate_sum / self.rate_samples as f64
        }
    }

    /// Mean delivery latency over served requests, ms.
    pub fn average_latency_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency_ms / self.requests as f64
        }
    }

    /// Renders every named row whose block is present as `metric,value` CSV,
    /// in row-list order. Contains no wall-clock quantities: repeated runs of
    /// the same seed produce byte-identical output.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,value\n");
        let mut m = self.clone();
        for &Row(name, field) in rows_present(self) {
            let Some(name) = name else { continue };
            let value = match field {
                Count(_, at) => at(&mut m).to_string(),
                Real(_, at) => format!("{:.6}", at(&mut m)),
                Span(..) => unreachable!("phase spans are never named"),
                Derived(render) => render(&mut m),
            };
            let _ = writeln!(out, "{name},{value}");
        }
        out
    }

    /// Renders a human-readable summary table, including events/sec
    /// throughput derived from the caller-measured `elapsed`.
    pub fn render_table(&self, elapsed: Duration) -> String {
        let secs = elapsed.as_secs_f64();
        let throughput = if secs > 0.0 { self.events as f64 / secs } else { 0.0 };
        let mut out = String::new();
        let _ = writeln!(out, "ticks:        {}", self.ticks);
        let _ = writeln!(
            out,
            "events:       {} ({} arrive, {} depart, {} move, {} request)",
            self.events, self.arrivals, self.departures, self.moves, self.requests
        );
        let _ = writeln!(out, "throughput:   {throughput:.0} events/sec ({secs:.3} s elapsed)");
        let _ = writeln!(
            out,
            "served:       {} edge, {} cloud ({:.3} ms mean latency)",
            self.edge_served,
            self.cloud_served,
            self.average_latency_ms()
        );
        let _ = writeln!(out, "R_avg:        {:.2} MB/s over active users", self.average_rate());
        let _ = writeln!(
            out,
            "repairs:      {} equilibrium ({} moves, {} scans), {} placement (+{} / -{} replicas)",
            self.repairs,
            self.repair_moves,
            self.repair_scans,
            self.placement_repairs,
            self.new_replicas,
            self.evicted_replicas
        );
        let _ = writeln!(
            out,
            "drift:        last {:.4}, max {:.4} over {} checkpoints ({} fallbacks)",
            self.last_drift, self.max_drift, self.checkpoints, self.fallbacks
        );
        let faults = self.link_faults + self.server_outages + self.jam_events;
        if faults > 0 || self.restorations > 0 {
            let _ = writeln!(
                out,
                "faults:       {} link, {} outage, {} jam, {} restored",
                self.link_faults, self.server_outages, self.jam_events, self.restorations
            );
            let _ = writeln!(
                out,
                "degradation:  {} displaced users, {} lost / {} re-created replicas, \
                 {} cloud fallbacks, {} unreachable item-ticks",
                self.displaced_users,
                self.lost_replicas,
                self.re_replications,
                self.cloud_fallback_requests,
                self.unreachable_item_ticks
            );
        }
        if let Some(cache) = &self.cache {
            let lookups = cache.hits + cache.misses;
            let hit_rate = if lookups > 0 { cache.hits as f64 / lookups as f64 } else { 0.0 };
            let _ = writeln!(
                out,
                "cache:        {} hits / {} lookups ({:.1}% hit rate), {} insertions, \
                 {} evictions ({} outage, {} reconcile), {} rejected",
                cache.hits,
                lookups,
                100.0 * hit_rate,
                cache.insertions,
                cache.total_evictions(),
                cache.outage_evictions,
                cache.reconcile_evictions,
                cache.rejected
            );
        }
        if let Some(dist) = &self.dist {
            let _ = writeln!(
                out,
                "delivery:     {} bulk rounds ({} trees), {} replicas installed \
                 ({} cloud seeds), {:.3} ms cost, {:.3} ms delay, {} guarantee violations",
                dist.bulk_installs,
                dist.tree_installs,
                dist.replicas_installed,
                dist.cloud_seeds,
                dist.dist_cost_ms,
                dist.dist_delay_ms,
                dist.delay_violations
            );
        }
        if self.audits > 0 || self.certificates > 0 {
            let _ = writeln!(
                out,
                "audits:       {} passes ({} checks, {} violations), {} certificates ({} deviations)",
                self.audits,
                self.audit_checks,
                self.audit_violations,
                self.certificates,
                self.certificate_violations
            );
        }
        let _ = writeln!(
            out,
            "phase time:   {:.3} s equilibrium, {:.3} s placement, {:.3} s checkpoint, {:.3} s audit",
            self.timings.equilibrium.as_secs_f64(),
            self.timings.placement.as_secs_f64(),
            self.timings.checkpoint.as_secs_f64(),
            self.timings.audit.as_secs_f64()
        );
        let _ = writeln!(out, "latency histogram:");
        let total = self.latency.total().max(1);
        for (i, &count) in self.latency.counts().iter().enumerate() {
            let bar_len = (count * 40 / total) as usize;
            let _ = writeln!(
                out,
                "  {:>8} {:>8}  {}",
                LatencyHistogram::label(i),
                count,
                "#".repeat(bar_len)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_observations() {
        let mut h = LatencyHistogram::default();
        h.record(0.0); // ≤1ms
        h.record(1.0); // ≤1ms (inclusive bound)
        h.record(7.0); // ≤10ms
        h.record(9999.0); // overflow
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[2], 1);
        assert_eq!(h.counts()[LATENCY_BUCKET_BOUNDS_MS.len()], 1);
        assert_eq!(LatencyHistogram::label(0), "≤1ms");
        assert!(LatencyHistogram::label(LATENCY_BUCKET_BOUNDS_MS.len()).starts_with('>'));
    }

    #[test]
    fn averages_and_csv_are_consistent() {
        let mut m = ServeMetrics::default();
        m.record_request(10.0, true);
        m.record_request(30.0, false);
        m.sample_rate(100.0);
        m.sample_rate(200.0);
        m.record_drift(0.02, false);
        assert_eq!(m.average_latency_ms(), 20.0);
        assert_eq!(m.average_rate(), 150.0);
        let csv = m.to_csv();
        assert!(csv.starts_with("metric,value\n"));
        assert!(csv.contains("requests,2\n"));
        assert!(csv.contains("edge_served,1\n"));
        assert!(csv.contains("avg_latency_ms,20.000000\n"));
        assert!(csv.contains("last_drift,0.020000\n"));
        assert!(csv.contains("latency_le_inf,0\n"));
        // No wall-clock values anywhere in the CSV.
        assert!(!csv.contains("sec"));
    }

    #[test]
    fn audit_counters_land_in_csv_but_timings_do_not() {
        let mut m = ServeMetrics::default();
        m.record_audit(120, 0);
        m.record_audit(120, 2);
        m.record_certificate(0);
        m.timings.audit = Duration::from_millis(1234);
        m.timings.equilibrium = Duration::from_millis(77);
        let csv = m.to_csv();
        assert!(csv.contains("audits,2\n"));
        assert!(csv.contains("audit_checks,240\n"));
        assert!(csv.contains("audit_violations,2\n"));
        assert!(csv.contains("certificates,1\n"));
        assert!(csv.contains("certificate_violations,0\n"));
        // Timings are wall-clock and must never leak into the CSV.
        assert!(!csv.contains("sec"));
        assert!(!csv.contains("1234"));
        let table = m.render_table(Duration::from_secs(1));
        assert!(table.contains("2 passes (240 checks, 2 violations)"));
        assert!(table.contains("phase time:"));
        assert!(table.contains("1.234 s audit"));
    }

    #[test]
    fn fault_counters_land_in_csv_and_table() {
        let mut m = ServeMetrics::default();
        let csv = m.to_csv();
        assert!(csv.contains("link_faults,0\n"));
        assert!(csv.contains("cloud_fallback_requests,0\n"));
        // A healthy run's table stays free of fault noise.
        assert!(!m.render_table(Duration::from_secs(1)).contains("degradation:"));

        m.link_faults = 2;
        m.server_outages = 1;
        m.restorations = 3;
        m.displaced_users = 7;
        m.lost_replicas = 2;
        m.re_replications = 2;
        m.cloud_fallback_requests = 11;
        m.unreachable_item_ticks = 40;
        let csv = m.to_csv();
        assert!(csv.contains("server_outages,1\n"));
        assert!(csv.contains("displaced_users,7\n"));
        assert!(csv.contains("re_replications,2\n"));
        assert!(csv.contains("unreachable_item_ticks,40\n"));
        let table = m.render_table(Duration::from_secs(1));
        assert!(table.contains("2 link, 1 outage, 0 jam, 3 restored"));
        assert!(table.contains("7 displaced users"));
        assert!(!csv.contains("sec"));
    }

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let mut a = ServeMetrics::default();
        a.record_request(10.0, true);
        a.sample_rate(100.0);
        a.record_drift(0.04, false);
        a.ticks = 7;
        a.timings.placement = Duration::from_millis(10);
        let mut b = ServeMetrics::default();
        b.record_request(200.0, false);
        b.record_request(30.0, true);
        b.sample_rate(50.0);
        b.record_drift(0.01, false);
        b.ticks = 7;
        b.timings.placement = Duration::from_millis(5);

        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.ticks, 7, "shards share the tick axis");
        assert_eq!(m.requests, 3);
        assert_eq!(m.edge_served, 2);
        assert_eq!(m.cloud_served, 1);
        assert_eq!(m.checkpoints, 2);
        assert_eq!(m.last_drift, 0.04, "gauges take the worst shard");
        assert_eq!(m.latency.total(), 3);
        assert_eq!(m.average_latency_ms(), 80.0);
        assert_eq!(m.average_rate(), 75.0);
        assert_eq!(m.timings.placement, Duration::from_millis(15));
    }

    #[test]
    fn cache_rows_appear_only_for_cached_runs() {
        let mut m = ServeMetrics::default();
        m.record_request(10.0, true);
        let uncached = m.to_csv();
        assert!(!uncached.contains("cache_"), "uncached CSV schema must stay frozen");
        assert!(!m.render_table(Duration::from_secs(1)).contains("cache:"));

        let counters = CacheCounters {
            hits: 3,
            misses: 1,
            insertions: 4,
            evictions: 1,
            outage_evictions: 2,
            ..CacheCounters::default()
        };
        m.cache = Some(counters);
        let cached = m.to_csv();
        assert!(cached.starts_with(&uncached), "cache rows strictly append");
        assert!(cached.contains("cache_hits,3\n"));
        assert!(cached.contains("cache_evictions,3\n"), "total = policy + outage + reconcile");
        assert!(m.render_table(Duration::from_secs(1)).contains("75.0% hit rate"));

        // Merge: None + Some sums into Some; Some + None is untouched.
        let mut agg = ServeMetrics::default();
        agg.merge(&m);
        assert_eq!(agg.cache, Some(counters));
        agg.merge(&ServeMetrics::default());
        assert_eq!(agg.cache, Some(counters));
        agg.merge(&m);
        assert_eq!(agg.cache.unwrap().hits, 6);
    }

    #[test]
    fn dist_rows_appear_only_for_recording_runs() {
        let mut m = ServeMetrics::default();
        m.record_request(10.0, true);
        m.cache = Some(CacheCounters { hits: 1, ..CacheCounters::default() });
        let plain = m.to_csv();
        assert!(!plain.contains("dist_"), "non-recording CSV schema must stay frozen");
        assert!(!m.render_table(Duration::from_secs(1)).contains("delivery:"));

        let counters = DistCounters {
            bulk_installs: 2,
            tree_installs: 5,
            replicas_installed: 9,
            cloud_seeds: 3,
            delay_violations: 1,
            dist_cost_ms: 12.5,
            dist_delay_ms: 40.25,
        };
        m.dist = Some(counters);
        let recorded = m.to_csv();
        assert!(recorded.starts_with(&plain), "dist rows strictly append, after cache rows");
        assert!(recorded.contains("dist_bulk_installs,2\n"));
        assert!(recorded.contains("dist_replicas,9\n"));
        assert!(recorded.contains("dist_cost_ms,12.500000\n"));
        let table = m.render_table(Duration::from_secs(1));
        assert!(table.contains("delivery:"));
        assert!(table.contains("9 replicas installed"));

        // Merge: None + Some sums into Some; Some + None is untouched.
        let mut agg = ServeMetrics::default();
        agg.merge(&m);
        assert_eq!(agg.dist, Some(counters));
        agg.merge(&ServeMetrics::default());
        assert_eq!(agg.dist, Some(counters));
        agg.merge(&m);
        assert_eq!(agg.dist.unwrap().replicas_installed, 18);
    }

    /// Every row of [`ROWS`], whatever block gates it.
    fn all_rows() -> impl Iterator<Item = &'static Row> {
        ROWS.iter().flat_map(|(_, rows)| rows.iter())
    }

    /// Metrics with both optional blocks present and stored row `i` (in
    /// list order) set to the nonzero `value(i)`.
    fn populated(value: impl Fn(u64) -> u64) -> ServeMetrics {
        let mut m = ServeMetrics {
            cache: Some(CacheCounters::default()),
            dist: Some(DistCounters::default()),
            ..ServeMetrics::default()
        };
        for (i, &Row(_, field)) in all_rows().enumerate() {
            let v = value(i as u64);
            match field {
                Count(_, at) => *at(&mut m) = v,
                Real(_, at) => *at(&mut m) = v as f64 + 0.25,
                Span(_, at) => *at(&mut m) = Duration::from_millis(v),
                Derived(_) => {}
            }
        }
        m
    }

    #[test]
    fn every_row_folds_by_its_declaration() {
        let n = all_rows().count() as u64;
        let a = populated(|i| i + 1);
        let b = populated(|i| 3 * (n - i));

        // Identity on a fully populated operand, optional blocks included.
        let mut id = ServeMetrics::default();
        id.merge(&a);
        assert_eq!(id, a);
        assert_eq!(id.to_csv(), a.to_csv());

        let mut m = a.clone();
        m.merge(&b);
        let (mut a, mut b) = (a, b);
        let mut folds = 0;
        for &Row(name, field) in all_rows() {
            let name = name.unwrap_or("<hidden>");
            match field {
                Count(fold, at) => {
                    let (x, y) = (*at(&mut a), *at(&mut b));
                    let want = if fold == Sum { x + y } else { x.max(y) };
                    assert_eq!(*at(&mut m), want, "{name} ({fold:?})");
                }
                Real(fold, at) => {
                    let (x, y) = (*at(&mut a), *at(&mut b));
                    let want = if fold == Sum { x + y } else { x.max(y) };
                    assert_eq!(*at(&mut m), want, "{name} ({fold:?})");
                }
                Span(fold, at) => {
                    assert_eq!(fold, Sum, "{name}: phase spans add up");
                    assert_eq!(*at(&mut m), *at(&mut a) + *at(&mut b), "{name}");
                }
                Derived(_) => continue,
            }
            folds += 1;
        }
        assert!(folds > 60, "only {folds} stored rows");
        assert_eq!(m.ticks, a.ticks.max(b.ticks), "shards share the tick axis");
        assert_eq!(
            m.average_rate(),
            (a.rate_sum + b.rate_sum) / (a.rate_samples + b.rate_samples) as f64
        );
    }

    #[test]
    fn row_names_are_unique_and_in_golden_csv_order() {
        let names: Vec<&str> = all_rows().filter_map(|row| row.0).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate row name");
        let golden: Vec<&str> = include_str!("../../../ci/golden/serve_composed.csv")
            .lines()
            .skip(1)
            .map(|line| line.split(',').next().unwrap())
            .collect();
        assert_eq!(names, golden);
        let csv = populated(|i| i + 1).to_csv();
        let rendered: Vec<&str> =
            csv.lines().skip(1).map(|line| line.split(',').next().unwrap()).collect();
        assert_eq!(rendered, golden);
        assert!(all_rows().all(|row| row.0.is_none() || !matches!(row.1, Span(..))));
    }

    #[test]
    fn table_reports_throughput() {
        let m = ServeMetrics { events: 500, ..Default::default() };
        let table = m.render_table(Duration::from_secs(2));
        assert!(table.contains("250 events/sec"));
        assert!(table.contains("latency histogram"));
    }
}
