//! Self times of the program's own virtual-time spans (`req`, `bcast`,
//! `bcast.relay`, `probe`), recorded by the simulated world when span
//! recording is on.

use std::collections::{BTreeMap, HashMap};

use ppm::runtime::obs::{SpanEvent, SpanPhase};

/// Summary of one traced run's program spans, in virtual milliseconds.
#[derive(Debug, Default)]
pub struct SpanTimes {
    /// Self time of every relay span: its duration minus the part covered
    /// by deeper relay spans of the same wave.
    pub relay_self_ms: f64,
    /// Broadcast waves seen (originator `bcast` spans).
    pub bcasts: u64,
    pub req_mean_ms: f64,
    pub bcast_mean_ms: f64,
    pub probe_mean_ms: f64,
}

/// Length of the union of `(begin, end)` intervals.
fn union_len(mut v: Vec<(u64, u64)>) -> u64 {
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (b, e) in v {
        match cur {
            Some((cb, ce)) if b <= ce => cur = Some((cb, ce.max(e))),
            Some((cb, ce)) => {
                total += ce - cb;
                cur = Some((b, e));
            }
            None => cur = Some((b, e)),
        }
    }
    total + cur.map_or(0, |(b, e)| e - b)
}

pub fn self_times(events: &[SpanEvent]) -> SpanTimes {
    let mut open: HashMap<(&str, &str, Option<u32>), u64> = HashMap::new();
    let mut closed: BTreeMap<&str, Vec<(&str, u64, u64)>> = BTreeMap::new();
    for ev in events {
        let key = (ev.name, ev.corr.as_str(), ev.host.map(|h| h.0));
        let at = ev.at.as_micros();
        match ev.phase {
            SpanPhase::Begin => {
                open.insert(key, at);
            }
            SpanPhase::End => {
                if let Some(b) = open.remove(&key) {
                    closed.entry(ev.name).or_default().push((key.1, b, at));
                }
            }
        }
    }
    let mean_ms = |name: &str| {
        closed.get(name).map_or(0.0, |v| {
            let sum: u64 = v.iter().map(|(_, b, e)| e - b).sum();
            sum as f64 / 1e3 / v.len().max(1) as f64
        })
    };
    let mut by_wave: BTreeMap<&str, Vec<(u64, u64)>> = BTreeMap::new();
    for &(corr, b, e) in closed.get("bcast.relay").map_or(&[][..], |v| &v[..]) {
        by_wave.entry(corr).or_default().push((b, e));
    }
    let mut relay_self_us = 0u64;
    for spans in by_wave.values() {
        for (i, &(b, e)) in spans.iter().enumerate() {
            let inner: Vec<(u64, u64)> = spans
                .iter()
                .enumerate()
                .filter(|&(j, &(cb, ce))| j != i && cb >= b && ce <= e && (cb, ce) != (b, e))
                .map(|(_, &iv)| iv)
                .collect();
            relay_self_us += (e - b).saturating_sub(union_len(inner));
        }
    }
    SpanTimes {
        relay_self_ms: relay_self_us as f64 / 1e3,
        bcasts: closed.get("bcast").map_or(0, |v| v.len() as u64),
        req_mean_ms: mean_ms("req"),
        bcast_mean_ms: mean_ms("bcast"),
        probe_mean_ms: mean_ms("probe"),
    }
}
