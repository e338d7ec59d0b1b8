//! Campaign verdicts and the byte-deterministic `chaos_report.json`.

use bdb_telemetry::json::{write_array, ObjectWriter};
use bdb_telemetry::SpanEvent;

/// One invariant checker's result.
#[derive(Debug, Clone)]
pub struct CheckerVerdict {
    /// Stable checker name (e.g. `"linearizable_history"`).
    pub name: &'static str,
    /// Whether the invariant held.
    pub pass: bool,
    /// Ordered key → value facts backing the verdict (rendered in this
    /// order, so builders must emit them deterministically).
    pub details: Vec<(String, String)>,
}

impl CheckerVerdict {
    /// A verdict with no details yet.
    pub fn new(name: &'static str, pass: bool) -> Self {
        Self { name, pass, details: Vec::new() }
    }

    /// Appends one detail fact.
    pub fn detail(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.details.push((key.to_owned(), value.to_string()));
        self
    }
}

/// Everything one campaign run produced: verdicts, fault accounting,
/// workload counters, and Chrome-trace instants on the virtual
/// timeline.
#[derive(Debug)]
pub struct CampaignReport {
    /// Campaign name (`"cloud-oltp"`, `"wordcount"`, `"nutch-serving"`).
    pub campaign: &'static str,
    /// The seed the whole schedule derives from.
    pub seed: u64,
    /// Fault rounds executed.
    pub rounds: u32,
    /// Checker verdicts, in execution order.
    pub checkers: Vec<CheckerVerdict>,
    /// Injections per fault site, sorted by site.
    pub injected: Vec<(String, u64)>,
    /// Recoveries per fault site, sorted by site.
    pub recovered: Vec<(String, u64)>,
    /// Workload counters, sorted by name.
    pub stats: Vec<(String, u64)>,
    /// Instant events for the Chrome trace (virtual timestamps; not
    /// part of the JSON report).
    pub spans: Vec<SpanEvent>,
}

impl CampaignReport {
    /// Whether every checker passed (and at least one ran).
    #[must_use]
    pub fn passed(&self) -> bool {
        !self.checkers.is_empty() && self.checkers.iter().all(|c| c.pass)
    }

    /// The named checker's verdict, if it ran.
    #[must_use]
    pub fn checker(&self, name: &str) -> Option<&CheckerVerdict> {
        self.checkers.iter().find(|c| c.name == name)
    }

    /// A workload counter by name.
    #[must_use]
    pub fn stat(&self, name: &str) -> Option<u64> {
        self.stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Renders the report as JSON. Byte-deterministic for a given
    /// `(campaign, seed)`: fixed key order, sorted site and stat maps,
    /// no floats, no wall-clock anywhere.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let mut o = ObjectWriter::new(&mut out);
        o.field_str("schema", "bdb-chaos-report-v1")
            .field_str("campaign", self.campaign)
            .field_u64("seed", self.seed)
            .field_u64("rounds", u64::from(self.rounds))
            .field_bool("pass", self.passed());
        write_array(o.field_raw("checkers"), &self.checkers, |buf, c| {
            let mut cw = ObjectWriter::new(buf);
            cw.field_str("name", c.name).field_bool("pass", c.pass);
            {
                let mut dw = ObjectWriter::new(cw.field_raw("details"));
                for (k, v) in &c.details {
                    dw.field_str(k, v);
                }
                dw.finish();
            }
            cw.finish();
        });
        {
            let buf = o.field_raw("faults");
            let mut fw = ObjectWriter::new(buf);
            for (key, counts) in [("injected", &self.injected), ("recovered", &self.recovered)] {
                let mbuf = fw.field_raw(key);
                let mut mw = ObjectWriter::new(mbuf);
                for (site, n) in counts {
                    mw.field_u64(site, *n);
                }
                mw.finish();
            }
            fw.finish();
        }
        {
            let buf = o.field_raw("stats");
            let mut sw = ObjectWriter::new(buf);
            for (name, v) in &self.stats {
                sw.field_u64(name, *v);
            }
            sw.finish();
        }
        o.finish();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignReport {
        CampaignReport {
            campaign: "cloud-oltp",
            seed: 7,
            rounds: 3,
            checkers: vec![
                CheckerVerdict::new("linearizable_history", true)
                    .detail("reads", 90)
                    .detail("writes", 120),
                CheckerVerdict::new("fault_coverage", true).detail("failovers", 2),
            ],
            injected: vec![("cluster.ship.write".into(), 4)],
            recovered: vec![("cluster.anti_entropy.copy".into(), 3)],
            stats: vec![("acked_writes".into(), 118), ("failovers".into(), 2)],
            spans: Vec::new(),
        }
    }

    #[test]
    fn render_is_deterministic_and_structured() {
        let a = sample().render_json();
        assert_eq!(a, sample().render_json());
        assert!(a.starts_with("{\"schema\":\"bdb-chaos-report-v1\",\"campaign\":\"cloud-oltp\""));
        assert!(a.contains("\"pass\":true"));
        assert!(a.contains("\"cluster.ship.write\":4"));
        assert!(a.contains("\"acked_writes\":118"));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn failed_checker_fails_the_report() {
        let mut r = sample();
        assert!(r.passed());
        r.checkers.push(CheckerVerdict::new("broken", false).detail("violation", "lost write"));
        assert!(!r.passed());
        assert!(r.render_json().contains("\"pass\":false"));
        assert!(r.checker("broken").is_some());
        assert_eq!(r.stat("failovers"), Some(2));
    }

    #[test]
    fn empty_checker_list_is_not_a_pass() {
        let mut r = sample();
        r.checkers.clear();
        assert!(!r.passed(), "no checkers ran means nothing was verified");
    }
}
