//! Fleet observability types: what one shard reports over the stats
//! RPC and what the router aggregates fleet-wide.
//!
//! Everything here serializes through the vendored serde (JSON), so a
//! client of the stats RPC — or an operator with `curl`-equivalent
//! tooling — reads one snapshot document for the whole fleet.

use fmm_core::EngineStats;
use fmm_trace::{merge_rows, merged_total, Histogram, HistogramRow};
use serde::{Deserialize, Serialize, Value};

/// One shard's self-report: serving-process counters plus the two
/// hosted engines' [`EngineStats`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStatsReport {
    /// Multiplies currently inflight (instantaneous queue depth).
    pub queue_depth: u64,
    /// Admission-control bound the shard enforces.
    pub max_inflight: u64,
    /// True once a drain was requested.
    pub draining: bool,
    /// Multiply requests completed successfully.
    pub served: u64,
    /// Multiply requests rejected with `Busy` by admission control.
    pub rejected_busy: u64,
    /// Requests rejected while draining.
    pub rejected_draining: u64,
    /// Connections dropped after a malformed frame.
    pub malformed: u64,
    /// The hosted f64 engine's counters.
    pub engine_f64: EngineStats,
    /// The hosted f32 engine's counters.
    pub engine_f32: EngineStats,
}

impl ShardStatsReport {
    /// Engine multiplies across both dtypes — the number the router's
    /// consistency check compares against its own per-shard forward
    /// counter.
    pub fn engine_multiplies(&self) -> u64 {
        self.engine_f64.multiplies + self.engine_f32.multiplies
    }

    /// Serialize as pretty-printed JSON (the stats-RPC payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }

    /// Parse a report previously produced by
    /// [`ShardStatsReport::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

/// Router-side counters, monotonic since router start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterCounters {
    /// Multiply requests accepted from clients.
    pub requests: u64,
    /// Multiply requests completed back to clients.
    pub completions: u64,
    /// Requests that ultimately failed after all retries.
    pub failed: u64,
    /// Retry attempts performed (shard failure or backpressure).
    pub retries: u64,
    /// Shard processes respawned after a failure.
    pub respawns: u64,
    /// Busy/Draining responses propagated to clients.
    pub rejected: u64,
}

/// One shard slot as the router sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSlotStats {
    /// Slot index (stable across respawns).
    pub slot: usize,
    /// Did the slot answer its stats probe just now?
    pub healthy: bool,
    /// Respawns of this slot since router start.
    pub respawns: u64,
    /// Successful multiplies the router forwarded to the *current*
    /// incarnation of this slot.
    pub ok_since_spawn: u64,
    /// Successful multiplies across all incarnations of this slot.
    pub ok_total: u64,
    /// The shard's own report (`None` while the slot is down).
    pub report: Option<ShardStatsReport>,
}

impl Serialize for ShardSlotStats {
    fn serialize_value(&self) -> Value {
        let mut fields = vec![
            ("slot".to_string(), Value::Num(self.slot as f64)),
            ("healthy".to_string(), Value::Bool(self.healthy)),
            ("respawns".to_string(), Value::Num(self.respawns as f64)),
            (
                "ok_since_spawn".to_string(),
                Value::Num(self.ok_since_spawn as f64),
            ),
            ("ok_total".to_string(), Value::Num(self.ok_total as f64)),
        ];
        fields.push((
            "report".to_string(),
            match &self.report {
                Some(r) => r.serialize_value(),
                None => Value::Null,
            },
        ));
        Value::Object(fields)
    }
}

impl Deserialize for ShardSlotStats {
    fn deserialize_value(value: &Value) -> Result<Self, String> {
        let field = |k: &str| value.get(k).ok_or_else(|| format!("missing field `{k}`"));
        Ok(ShardSlotStats {
            slot: usize::deserialize_value(field("slot")?)?,
            healthy: bool::deserialize_value(field("healthy")?)?,
            respawns: u64::deserialize_value(field("respawns")?)?,
            ok_since_spawn: u64::deserialize_value(field("ok_since_spawn")?)?,
            ok_total: u64::deserialize_value(field("ok_total")?)?,
            report: match field("report")? {
                Value::Null => None,
                other => Some(ShardStatsReport::deserialize_value(other)?),
            },
        })
    }
}

/// The router's one-document fleet snapshot: its own counters plus
/// every shard slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Number of shard slots.
    pub shards: u64,
    /// Router-side counters.
    pub router: RouterCounters,
    /// Per-slot view, index == slot.
    pub slots: Vec<ShardSlotStats>,
    /// Engine-side request latency histograms merged across every
    /// *live* shard engine (both dtypes; rows keyed
    /// `"<shape-class>/<dtype>"`). Histograms of killed incarnations
    /// die with their process — the router-side view below survives
    /// respawns.
    pub latency: Vec<HistogramRow>,
    /// Router-observed latency histograms of successful forwards
    /// (request read to shard reply, retries and backoff included) —
    /// the fleet's client-facing p50/p99/p999 source, immune to shard
    /// crashes.
    pub router_latency: Vec<HistogramRow>,
}

impl FleetStats {
    /// Serialize as pretty-printed JSON (what `fmm-router` serves on
    /// its stats RPC).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet serialization is infallible")
    }

    /// Parse a snapshot previously produced by [`FleetStats::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Sum of engine-reported multiplies across live shards plus
    /// router-observed successes of dead/respawned incarnations. When
    /// no request is inflight this equals `router.completions`; the
    /// consistency check behind the fleet acceptance criterion.
    pub fn shard_multiplies(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| match &s.report {
                // A live incarnation reports its own engine counters;
                // completed work from earlier incarnations survives in
                // the router's per-slot total.
                Some(r) => r.engine_multiplies() + (s.ok_total - s.ok_since_spawn),
                None => s.ok_total,
            })
            .sum()
    }

    /// All engine-side latency rows collapsed into one histogram.
    pub fn merged_engine_latency(&self) -> Histogram {
        merged_total(&self.latency)
    }

    /// All router-side latency rows collapsed into one histogram —
    /// quantiles of this are the fleet's true client-facing tails.
    pub fn merged_router_latency(&self) -> Histogram {
        merged_total(&self.router_latency)
    }

    /// Merge the engine latency rows of every live slot report —
    /// how [`FleetStats::latency`] is built.
    pub fn merged_slot_latency(slots: &[ShardSlotStats]) -> Vec<HistogramRow> {
        let mut out = Vec::new();
        for slot in slots {
            if let Some(report) = &slot.report {
                merge_rows(&mut out, &report.engine_f64.latency);
                merge_rows(&mut out, &report.engine_f32.latency);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_engine_stats(multiplies: u64) -> EngineStats {
        let mut hist = Histogram::new();
        hist.record_n(1_500_000, multiplies); // ~1.5 ms per request
        let latency = if multiplies > 0 {
            vec![HistogramRow {
                label: "p65-128/f64".to_string(),
                hist,
            }]
        } else {
            Vec::new()
        };
        EngineStats {
            threads: 2,
            multiplies,
            plan_cache_hits: multiplies.saturating_sub(1),
            plan_cache_misses: 1,
            plan_cache_evictions: 0,
            plans_cached: 1,
            workspaces_created: 1,
            workspaces_reused: multiplies.saturating_sub(1),
            workspaces_pooled: 1,
            base_gemms: 7 * multiplies,
            peel_gemms: 0,
            tasks_stolen: 3,
            latency,
        }
    }

    fn sample_report(served: u64) -> ShardStatsReport {
        ShardStatsReport {
            queue_depth: 1,
            max_inflight: 8,
            draining: false,
            served,
            rejected_busy: 2,
            rejected_draining: 0,
            malformed: 0,
            engine_f64: sample_engine_stats(served),
            engine_f32: sample_engine_stats(0),
        }
    }

    #[test]
    fn shard_report_roundtrips() {
        let report = sample_report(40);
        let back = ShardStatsReport::from_json(&report.to_json()).unwrap();
        assert_eq!(report, back);
        assert_eq!(report.engine_multiplies(), 40);
        assert!(ShardStatsReport::from_json("{\"queue_depth\": 0}").is_err());
    }

    #[test]
    fn fleet_stats_roundtrip_including_down_slot() {
        let fleet = FleetStats {
            shards: 2,
            router: RouterCounters {
                requests: 100,
                completions: 98,
                failed: 0,
                retries: 4,
                respawns: 1,
                rejected: 2,
            },
            slots: vec![
                ShardSlotStats {
                    slot: 0,
                    healthy: true,
                    respawns: 0,
                    ok_since_spawn: 60,
                    ok_total: 60,
                    report: Some(sample_report(60)),
                },
                ShardSlotStats {
                    slot: 1,
                    healthy: false,
                    respawns: 1,
                    ok_since_spawn: 0,
                    ok_total: 38,
                    report: None,
                },
            ],
            latency: Vec::new(),
            router_latency: Vec::new(),
        };
        let fleet = FleetStats {
            latency: FleetStats::merged_slot_latency(&fleet.slots),
            ..fleet
        };
        let back = FleetStats::from_json(&fleet.to_json()).unwrap();
        assert_eq!(fleet, back);
        // 60 live + 38 observed on the dead slot.
        assert_eq!(fleet.shard_multiplies(), 98);
        assert_eq!(fleet.shard_multiplies(), fleet.router.completions);
        // Only the live slot contributes histograms; its 60 requests
        // surface in the merged engine-side view.
        assert_eq!(fleet.merged_engine_latency().count(), 60);
        let p50 = fleet.merged_engine_latency().quantile(0.5);
        assert!(p50.abs_diff(1_500_000) as f64 <= 1_500_000.0 * 0.25 + 1.0);
        assert_eq!(fleet.merged_router_latency().count(), 0);
    }

    #[test]
    fn respawned_slot_counts_lost_incarnations() {
        let slot = ShardSlotStats {
            slot: 0,
            healthy: true,
            respawns: 1,
            ok_since_spawn: 10,
            ok_total: 50,
            report: Some(sample_report(10)),
        };
        let fleet = FleetStats {
            shards: 1,
            router: RouterCounters {
                completions: 50,
                ..Default::default()
            },
            slots: vec![slot],
            latency: Vec::new(),
            router_latency: Vec::new(),
        };
        // 10 from the live incarnation + 40 from the killed one.
        assert_eq!(fleet.shard_multiplies(), 50);
    }
}
