//! # edison-tco
//!
//! The Section-6 total-cost-of-ownership model: Equation (1), the Table 9
//! constants, and the four Table 10 scenarios.
//!
//! ```text
//! C = Cs + Ce = Cs + Ts · Ceph · (U · Pp + (1 − U) · Pi)      (Eq. 1)
//! ```
//!
//! where `Cs` is equipment cost, `Ts` the server lifetime, `Ceph` the
//! electricity price, `U` the utilisation, and `Pp`/`Pi` the peak/idle
//! power. The paper evaluates two application scenarios (web service with
//! 35 Edison vs 3 Dell; big data with 35 Edison vs 2 Dell) at low and high
//! utilisation bounds.

use edison_hw::{presets, ServerSpec};

/// Table 9 electricity price, $/kWh (US average per the paper).
pub const ELECTRICITY_PER_KWH: f64 = 0.10;
/// Table 9 server lifetime, years.
pub const LIFETIME_YEARS: f64 = 3.0;
/// Hours in the three-year lifetime.
pub const LIFETIME_HOURS: f64 = LIFETIME_YEARS * 365.0 * 24.0;
/// Table 9 high utilisation bound (Google datacenters).
pub const U_HIGH: f64 = 0.75;
/// Table 9 low utilisation bound (public-cloud measurement study).
pub const U_LOW: f64 = 0.10;

/// Inputs for one cluster's TCO under Equation (1).
#[derive(Debug, Clone)]
pub struct TcoInput {
    /// Nodes in the cluster.
    pub nodes: u32,
    /// Purchase cost per node, $.
    pub unit_cost: f64,
    /// Peak node power, W.
    pub peak_w: f64,
    /// Idle node power, W.
    pub idle_w: f64,
    /// Utilisation, [0, 1].
    pub utilization: f64,
}

impl TcoInput {
    /// Build from a hardware spec at a given size and utilisation.
    pub fn from_spec(spec: &ServerSpec, nodes: u32, utilization: f64) -> Self {
        TcoInput {
            nodes,
            unit_cost: spec.unit_cost_usd,
            peak_w: spec.power.node_busy(),
            idle_w: spec.power.node_idle(),
            utilization,
        }
    }
}

/// The Equation-(1) breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tco {
    /// Total equipment cost, $.
    pub equipment: f64,
    /// Three-year electricity cost, $.
    pub electricity: f64,
}

impl Tco {
    /// Total cost of ownership, $.
    pub fn total(&self) -> f64 {
        self.equipment + self.electricity
    }
}

/// Evaluate Equation (1).
pub fn tco(input: &TcoInput) -> Tco {
    let u = input.utilization.clamp(0.0, 1.0);
    let mean_w = u * input.peak_w + (1.0 - u) * input.idle_w;
    let kwh = mean_w * input.nodes as f64 * LIFETIME_HOURS / 1000.0;
    Tco {
        equipment: input.nodes as f64 * input.unit_cost,
        electricity: kwh * ELECTRICITY_PER_KWH,
    }
}

/// One Table 10 row: a named scenario comparing the two clusters.
#[derive(Debug, Clone)]
pub struct Table10Row {
    /// Scenario label as printed in the paper.
    pub scenario: &'static str,
    /// Dell-cluster 3-year TCO, $.
    pub dell_total: f64,
    /// Edison-cluster 3-year TCO, $.
    pub edison_total: f64,
}

impl Table10Row {
    /// Relative saving of the Edison cluster.
    pub fn saving(&self) -> f64 {
        1.0 - self.edison_total / self.dell_total
    }
}

/// Reproduce Table 10: web service (35 Edison vs 3 Dell, U ∈ {10 %, 75 %})
/// and big data (35 Edison at 100 % vs 2 Dell at 25 % / 74 %, per §6's
/// assumption that the Edison cluster runs constantly to finish the same
/// work).
pub fn table10() -> Vec<Table10Row> {
    let edison = presets::edison();
    let dell = presets::dell_r620();
    let row = |scenario, dell_n, dell_u, edison_u| {
        let d = tco(&TcoInput::from_spec(&dell, dell_n, dell_u));
        let e = tco(&TcoInput::from_spec(&edison, 35, edison_u));
        Table10Row { scenario, dell_total: d.total(), edison_total: e.total() }
    };
    vec![
        row("Web service, low utilization", 3, U_LOW, U_LOW),
        row("Web service, high utilization", 3, U_HIGH, U_HIGH),
        row("Big data, low utilization", 2, 0.25, 1.0),
        row("Big data, high utilization", 2, 0.74, 1.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_matches_hand_computation() {
        // one Dell at 75 %: mean power = 0.75·109 + 0.25·52 = 94.75 W
        let input = TcoInput {
            nodes: 1,
            unit_cost: 2500.0,
            peak_w: 109.0,
            idle_w: 52.0,
            utilization: 0.75,
        };
        let t = tco(&input);
        let expected_kwh = 94.75 * LIFETIME_HOURS / 1000.0;
        assert!((t.electricity - expected_kwh * 0.10).abs() < 1e-9);
        assert_eq!(t.equipment, 2500.0);
    }

    #[test]
    fn edison_cluster_costs_4200() {
        // §6: "the cost of the 35-node Edison cluster is $4200"
        let e = tco(&TcoInput::from_spec(&presets::edison(), 35, 0.0));
        assert_eq!(e.equipment, 4200.0);
    }

    #[test]
    fn table10_matches_paper_within_tolerance() {
        // Paper values: web (7948.7, 4329.5), (8236.8, 4346.1);
        // big data (5348.2, 4352.4), (5495.0, 4352.4).
        let rows = table10();
        let paper = [
            (7948.7, 4329.5),
            (8236.8, 4346.1),
            (5348.2, 4352.4),
            (5495.0, 4352.4),
        ];
        for (row, (pd, pe)) in rows.iter().zip(paper) {
            let dell_err = (row.dell_total - pd).abs() / pd;
            let edison_err = (row.edison_total - pe).abs() / pe;
            assert!(dell_err < 0.02, "{}: dell {} vs paper {pd}", row.scenario, row.dell_total);
            assert!(edison_err < 0.02, "{}: edison {} vs paper {pe}", row.scenario, row.edison_total);
        }
    }

    #[test]
    fn edison_saves_up_to_47_percent() {
        // §6: "can save the total cost up to 47%"
        let rows = table10();
        let max_saving = rows.iter().map(|r| r.saving()).fold(0.0, f64::max);
        assert!((max_saving - 0.47).abs() < 0.02, "max saving {max_saving}");
        // every scenario favours the Edison cluster
        assert!(rows.iter().all(|r| r.saving() > 0.0));
    }

    #[test]
    fn higher_utilization_raises_cost() {
        let lo = tco(&TcoInput::from_spec(&presets::dell_r620(), 3, 0.1));
        let hi = tco(&TcoInput::from_spec(&presets::dell_r620(), 3, 0.75));
        assert!(hi.total() > lo.total());
        assert_eq!(hi.equipment, lo.equipment);
    }
}
