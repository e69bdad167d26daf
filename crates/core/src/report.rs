//! Coverage reports: the Figure-6-style per-role breakdown, rendered as a
//! text table or CSV.
//!
//! The report view — fractional device / interface / rule coverage plus
//! weighted rule coverage, grouped by router role — is the one the paper
//! found "particularly useful toward understanding testing effectiveness
//! and gaps" (§7.2).

use std::fmt;

use netbdd::Bdd;
use netmodel::topology::Role;

use crate::analyzer::{Analyzer, RoleMetrics};

/// One row of the report (one router role).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReportRow {
    /// The role's aggregated coverage metrics.
    pub metrics: RoleMetrics,
    /// Number of devices with this role.
    pub devices: usize,
    /// Total rules installed on those devices.
    pub rules: usize,
}

/// A per-role coverage report.
#[derive(Clone, Debug)]
pub struct CoverageReport {
    /// One row per router role present in the network.
    pub rows: Vec<ReportRow>,
    /// Network-wide metrics (all roles together).
    pub overall: RoleMetricsOverall,
}

/// Network-wide aggregate metrics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoleMetricsOverall {
    /// Mean fractional device coverage over all devices.
    pub device_fractional: Option<f64>,
    /// Mean fractional out-interface coverage.
    pub iface_fractional: Option<f64>,
    /// Mean fractional rule coverage.
    pub rule_fractional: Option<f64>,
    /// Mean probability-weighted rule coverage.
    pub rule_weighted: Option<f64>,
}

impl CoverageReport {
    /// Build the standard per-role report over the roles present in the
    /// network, in fixed display order.
    pub fn by_role(bdd: &mut Bdd, analyzer: &Analyzer<'_>) -> CoverageReport {
        let topo = analyzer.network().topology();
        let mut rows = Vec::new();
        const ORDER: [Role; 7] = [
            Role::Tor,
            Role::Aggregation,
            Role::Spine,
            Role::RegionalHub,
            Role::Border,
            Role::Wan,
            Role::Other,
        ];
        for role in ORDER {
            let devices = topo.devices_with_role(role);
            if devices.is_empty() {
                continue;
            }
            let rules: usize = devices
                .iter()
                .map(|&d| analyzer.network().device_rules(d).len())
                .sum();
            rows.push(ReportRow {
                metrics: analyzer.role_metrics(bdd, role),
                devices: devices.len(),
                rules,
            });
        }
        let overall = analyzer.figure6(bdd, |_| true);
        CoverageReport { rows, overall }
    }

    /// CSV rendering (`role,devices,rules,device_frac,iface_frac,
    /// rule_frac,rule_weighted`), suitable for the figure harnesses.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "role,devices,rules,device_fractional,iface_fractional,rule_fractional,rule_weighted\n",
        );
        for row in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                row.metrics.role.label(),
                row.devices,
                row.rules,
                fmt_opt(row.metrics.device_fractional),
                fmt_opt(row.metrics.iface_fractional),
                fmt_opt(row.metrics.rule_fractional),
                fmt_opt(row.metrics.rule_weighted),
            ));
        }
        out.push_str(&format!(
            "ALL,,,{},{},{},{}\n",
            fmt_opt(self.overall.device_fractional),
            fmt_opt(self.overall.iface_fractional),
            fmt_opt(self.overall.rule_fractional),
            fmt_opt(self.overall.rule_weighted),
        ));
        out
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.6}"),
        None => "-".to_string(),
    }
}

fn fmt_pct(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{:>6.1}%", x * 100.0),
        None => "     -".to_string(),
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<20} {:>7} {:>9} | {:>7} {:>7} {:>7} {:>7}",
            "role", "devices", "rules", "dev(f)", "ifc(f)", "rul(f)", "rul(w)"
        )?;
        writeln!(f, "{}", "-".repeat(78))?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<20} {:>7} {:>9} | {} {} {} {}",
                row.metrics.role.label(),
                row.devices,
                row.rules,
                fmt_pct(row.metrics.device_fractional),
                fmt_pct(row.metrics.iface_fractional),
                fmt_pct(row.metrics.rule_fractional),
                fmt_pct(row.metrics.rule_weighted),
            )?;
        }
        writeln!(f, "{}", "-".repeat(78))?;
        writeln!(
            f,
            "{:<20} {:>7} {:>9} | {} {} {} {}",
            "ALL",
            "",
            "",
            fmt_pct(self.overall.device_fractional),
            fmt_pct(self.overall.iface_fractional),
            fmt_pct(self.overall.rule_fractional),
            fmt_pct(self.overall.rule_weighted),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CoverageTrace;
    use netmodel::addr::Prefix;
    use netmodel::rule::{RouteClass, Rule};
    use netmodel::topology::{IfaceKind, Topology};
    use netmodel::{Location, MatchSets, Network};

    fn net() -> Network {
        let mut t = Topology::new();
        let tor = t.add_device("tor", Role::Tor);
        let spine = t.add_device("spine", Role::Spine);
        let h = t.add_iface(tor, "hosts", IfaceKind::Host);
        let (ts, st) = t.add_link(tor, spine);
        let mut n = Network::new(t);
        n.add_rule(
            tor,
            Rule::forward(
                "10.0.0.0/24".parse().unwrap(),
                vec![h],
                RouteClass::HostSubnet,
            ),
        );
        n.add_rule(
            tor,
            Rule::forward(Prefix::v4_default(), vec![ts], RouteClass::StaticDefault),
        );
        n.add_rule(
            spine,
            Rule::forward(
                "10.0.0.0/24".parse().unwrap(),
                vec![st],
                RouteClass::HostSubnet,
            ),
        );
        n.finalize();
        n
    }

    #[test]
    fn report_has_one_row_per_present_role() {
        let n = net();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let trace = CoverageTrace::new();
        let a = Analyzer::new(&n, &ms, &trace, &mut bdd);
        let r = CoverageReport::by_role(&mut bdd, &a);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].metrics.role, Role::Tor);
        assert_eq!(r.rows[1].metrics.role, Role::Spine);
        assert_eq!(r.rows[0].devices, 1);
        assert_eq!(r.rows[0].rules, 2);
    }

    #[test]
    fn csv_and_display_render() {
        let n = net();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let mut trace = CoverageTrace::new();
        let tor = n.topology().device_by_name("tor").unwrap();
        let full = bdd.full();
        trace.add_packets(&mut bdd, Location::device(tor), full);
        let a = Analyzer::new(&n, &ms, &trace, &mut bdd);
        let r = CoverageReport::by_role(&mut bdd, &a);
        let csv = r.to_csv();
        assert!(csv.starts_with("role,"));
        assert!(csv.lines().count() == 4); // header + 2 roles + ALL
        let text = r.to_string();
        assert!(text.contains("ToR Router"));
        assert!(text.contains("100.0%"));
    }

    #[test]
    fn overall_row_spans_roles() {
        let n = net();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let mut trace = CoverageTrace::new();
        let full = bdd.full();
        for (d, _) in n.topology().devices() {
            trace.add_packets(&mut bdd, Location::device(d), full);
        }
        let a = Analyzer::new(&n, &ms, &trace, &mut bdd);
        let r = CoverageReport::by_role(&mut bdd, &a);
        assert_eq!(r.overall.device_fractional, Some(1.0));
        assert_eq!(r.overall.rule_fractional, Some(1.0));
    }
}

/// One row of the per-route-class breakdown (§7.2's categorization of
/// untested rules: internal, connected, wide-area, ...).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassRow {
    /// The route class this row aggregates.
    pub class: netmodel::RouteClass,
    /// Number of rules in the class.
    pub rules: usize,
    /// Mean fractional rule coverage over the class.
    pub rule_fractional: Option<f64>,
    /// Mean probability-weighted rule coverage over the class.
    pub rule_weighted: Option<f64>,
}

/// Per-route-class coverage report — the lens that surfaced the case
/// study's three testing gaps.
#[derive(Clone, Debug)]
pub struct ClassReport {
    /// One row per route class present in the network.
    pub rows: Vec<ClassRow>,
}

impl ClassReport {
    /// Build the breakdown over every route class present in the network.
    pub fn by_class(bdd: &mut Bdd, analyzer: &Analyzer<'_>) -> ClassReport {
        use crate::framework::Aggregator;
        use netmodel::RouteClass;
        const ORDER: [RouteClass; 7] = [
            RouteClass::StaticDefault,
            RouteClass::BgpDefault,
            RouteClass::HostSubnet,
            RouteClass::Loopback,
            RouteClass::Connected,
            RouteClass::Wan,
            RouteClass::Other,
        ];
        let mut rows = Vec::new();
        for class in ORDER {
            let rules = analyzer
                .network()
                .rules()
                .filter(|(_, r)| r.class == class)
                .count();
            if rules == 0 {
                continue;
            }
            rows.push(ClassRow {
                class,
                rules,
                rule_fractional: analyzer
                    .aggregate_rules(bdd, Aggregator::Fractional, |_, r| r.class == class),
                rule_weighted: analyzer
                    .aggregate_rules(bdd, Aggregator::Weighted, |_, r| r.class == class),
            });
        }
        ClassReport { rows }
    }
}

impl fmt::Display for ClassReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:>8} | {:>8} {:>8}",
            "route class", "rules", "rul(f)", "rul(w)"
        )?;
        writeln!(f, "{}", "-".repeat(46))?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<16} {:>8} | {} {}",
                format!("{:?}", row.class),
                row.rules,
                fmt_pct(row.rule_fractional),
                fmt_pct(row.rule_weighted),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod class_tests {
    use super::*;
    use crate::trace::CoverageTrace;
    use netmodel::rule::RouteClass;
    use netmodel::{MatchSets, RuleId};
    use topogen::{fattree, FatTreeParams};

    #[test]
    fn class_report_partitions_the_rules() {
        let ft = fattree(FatTreeParams::paper(4));
        let mut bdd = netbdd::Bdd::new();
        let ms = MatchSets::compute(&ft.net, &mut bdd);
        let trace = CoverageTrace::new();
        let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
        let report = ClassReport::by_class(&mut bdd, &a);
        let total: usize = report.rows.iter().map(|r| r.rules).sum();
        assert_eq!(total, ft.net.rule_count());
        // Paper fat-trees have host subnets + static defaults only.
        let classes: Vec<RouteClass> = report.rows.iter().map(|r| r.class).collect();
        assert_eq!(
            classes,
            vec![RouteClass::StaticDefault, RouteClass::HostSubnet]
        );
    }

    #[test]
    fn class_report_reflects_targeted_coverage() {
        let ft = fattree(FatTreeParams::paper(4));
        let mut bdd = netbdd::Bdd::new();
        let ms = MatchSets::compute(&ft.net, &mut bdd);
        let mut trace = CoverageTrace::new();
        // Inspect every default route, nothing else.
        for (id, rule) in ft.net.rules() {
            if rule.class == RouteClass::StaticDefault {
                trace.add_rule(id);
            }
        }
        let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
        let report = ClassReport::by_class(&mut bdd, &a);
        let by = |c: RouteClass| report.rows.iter().find(|r| r.class == c).unwrap();
        assert_eq!(by(RouteClass::StaticDefault).rule_fractional, Some(1.0));
        assert_eq!(by(RouteClass::HostSubnet).rule_fractional, Some(0.0));
        let _ = RuleId {
            device: netmodel::topology::DeviceId(0),
            index: 0,
        };
        let text = report.to_string();
        assert!(text.contains("StaticDefault"));
        assert!(text.contains("100.0%"));
    }
}
