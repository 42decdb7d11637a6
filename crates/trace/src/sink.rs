//! Trace export: Chrome trace-event JSON and the per-kind time share.

use crate::{process_label, snapshot_tracks, Record, SpanKind};

/// Snapshot of one thread's ring buffer, oldest record first.
#[derive(Debug, Clone)]
pub struct TrackSnapshot {
    /// Thread label (see [`crate::set_thread_label`]).
    pub label: String,
    /// Stable per-process track id (the Chrome `tid`).
    pub tid: u64,
    /// Records that were overwritten by ring wraparound.
    pub dropped: u64,
    /// Surviving records in chronological push order.
    pub records: Vec<Record>,
}

/// A collected trace: every non-empty track in this process.
#[derive(Debug, Clone)]
pub struct TraceSink {
    /// Process label (see [`crate::set_process_label`]).
    pub process_label: String,
    /// OS process id (the Chrome `pid`).
    pub pid: u64,
    /// Non-empty thread tracks.
    pub tracks: Vec<TrackSnapshot>,
}

/// Format epoch-nanoseconds as a Chrome `ts` microsecond value with
/// exact sub-microsecond digits (integer math — no f64 rounding of
/// large epoch offsets).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl TraceSink {
    /// Snapshot the current process's rings (they keep recording; use
    /// [`crate::reset`] for disjoint capture windows).
    pub fn collect() -> TraceSink {
        TraceSink {
            process_label: process_label(),
            pid: std::process::id() as u64,
            tracks: snapshot_tracks(),
        }
    }

    /// Total records of a given kind across all tracks.
    pub fn count(&self, kind: SpanKind) -> u64 {
        self.tracks
            .iter()
            .map(|t| t.records.iter().filter(|r| r.kind == kind).count() as u64)
            .sum()
    }

    /// Total nanoseconds per kind across all tracks (instant events
    /// contribute zero).
    pub fn time_share(&self) -> Vec<(SpanKind, u64)> {
        SpanKind::ALL
            .into_iter()
            .map(|kind| {
                let total = self
                    .tracks
                    .iter()
                    .flat_map(|t| &t.records)
                    .filter(|r| r.kind == kind)
                    .map(|r| r.t_end - r.t_start)
                    .sum();
                (kind, total)
            })
            .collect()
    }

    /// Percentage of leaf work time (gemm + peel + additions +
    /// combine) spent in each leaf kind — the Fig. 4 decomposition.
    /// Empty when no leaf work was recorded.
    pub fn work_share(&self) -> Vec<(SpanKind, f64)> {
        let shares: Vec<(SpanKind, u64)> = self
            .time_share()
            .into_iter()
            .filter(|(k, _)| k.is_leaf_work())
            .collect();
        let total: u64 = shares.iter().map(|(_, ns)| ns).sum();
        if total == 0 {
            return Vec::new();
        }
        shares
            .into_iter()
            .map(|(k, ns)| (k, 100.0 * ns as f64 / total as f64))
            .collect()
    }

    /// Render Chrome trace-event JSON: a flat array of complete (`X`)
    /// and instant (`i`) events plus process/thread metadata, loadable
    /// in Perfetto or `chrome://tracing`. Timestamps are microseconds
    /// since the Unix epoch, so arrays from different processes can be
    /// concatenated (see [`TraceSink::merge_chrome_json`]) into one
    /// aligned multi-process trace.
    pub fn export_chrome_json(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        parts.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            self.pid,
            esc(&self.process_label)
        ));
        for track in &self.tracks {
            parts.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                self.pid,
                track.tid,
                esc(&track.label)
            ));
            for r in &track.records {
                if r.kind.is_instant() || r.t_end == r.t_start {
                    parts.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"fmm\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{\"payload\":{}}}}}",
                        r.kind.name(),
                        us(r.t_start),
                        self.pid,
                        track.tid,
                        r.payload
                    ));
                } else {
                    parts.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"fmm\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"payload\":{}}}}}",
                        r.kind.name(),
                        us(r.t_start),
                        us(r.t_end - r.t_start),
                        self.pid,
                        track.tid,
                        r.payload
                    ));
                }
            }
        }
        format!("[\n{}\n]\n", parts.join(",\n"))
    }

    /// Concatenate several Chrome trace JSON arrays (as produced by
    /// [`TraceSink::export_chrome_json`], possibly by different
    /// processes) into one. Textual splice — event timestamps are
    /// preserved exactly. Errors on inputs that are not JSON arrays.
    pub fn merge_chrome_json(parts: &[String]) -> Result<String, String> {
        let mut bodies = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            let t = part.trim();
            let inner = t
                .strip_prefix('[')
                .and_then(|t| t.strip_suffix(']'))
                .ok_or_else(|| format!("trace part {i} is not a JSON array"))?
                .trim();
            if !inner.is_empty() {
                bodies.push(inner.to_string());
            }
        }
        Ok(format!("[\n{}\n]\n", bodies.join(",\n")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: SpanKind, t_start: u64, t_end: u64) -> Record {
        Record {
            kind,
            t_start,
            t_end,
            payload: 0,
        }
    }

    fn sink_with(records: Vec<Record>) -> TraceSink {
        TraceSink {
            process_label: "test".to_string(),
            pid: 1,
            tracks: vec![TrackSnapshot {
                label: "t0".to_string(),
                tid: 0,
                dropped: 0,
                records,
            }],
        }
    }

    #[test]
    fn chrome_export_emits_metadata_and_events() {
        let sink = sink_with(vec![
            rec(SpanKind::BaseGemm, 1_000_000, 2_500_000),
            rec(SpanKind::Steal, 3_000_000, 3_000_000),
        ]);
        let json = sink.export_chrome_json();
        assert!(json.starts_with('['));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"base_gemm\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1000.000"));
        assert!(json.contains("\"dur\":1500.000"));
        assert!(json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn merge_splices_arrays_textually() {
        let a = sink_with(vec![rec(SpanKind::BaseGemm, 10, 20)]).export_chrome_json();
        let b = sink_with(vec![rec(SpanKind::Combine, 30, 40)]).export_chrome_json();
        let merged = TraceSink::merge_chrome_json(&[a, b]).unwrap();
        assert!(merged.contains("base_gemm"));
        assert!(merged.contains("combine"));
        assert!(merged.trim().starts_with('['));
        assert!(merged.trim().ends_with(']'));
        assert!(TraceSink::merge_chrome_json(&["nope".to_string()]).is_err());
    }

    #[test]
    fn work_share_counts_leaf_work_only() {
        // Gemm 0..60µs and additions 60..80µs: gemm is 75% of leaf work.
        let sink = sink_with(vec![
            rec(SpanKind::BaseGemm, 0, 60_000),
            rec(SpanKind::Additions, 60_000, 80_000),
        ]);
        let gemm_share = |sink: &TraceSink| {
            sink.work_share()
                .iter()
                .find(|(k, _)| *k == SpanKind::BaseGemm)
                .unwrap()
                .1
        };
        let gemm = gemm_share(&sink);
        assert!((gemm - 75.0).abs() < 1.0, "gemm share {gemm}");
        // Nested request spans don't inflate the work share.
        let mut nested = sink.clone();
        nested.tracks[0]
            .records
            .push(rec(SpanKind::Request, 0, 80_000));
        assert!((gemm_share(&nested) - 75.0).abs() < 1.0);
    }

    #[test]
    fn empty_sink_renders_gracefully() {
        let sink = TraceSink {
            process_label: "p".into(),
            pid: 0,
            tracks: Vec::new(),
        };
        assert!(sink.work_share().is_empty());
        let json = sink.export_chrome_json();
        assert!(json.contains("process_name"));
    }
}
