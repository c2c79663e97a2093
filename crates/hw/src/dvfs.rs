//! DVFS energy-proportionality model — the §1 argument, made quantitative.
//!
//! The paper's Introduction dismisses DVFS: "even if the CPU power
//! consumption is proportional to workload, other components such as
//! memory, disk and motherboard still consume the same energy", citing at
//! most ≈30 % savings from the provisioning literature versus >70 % from
//! embedded-device substitution. This module models a DVFS-capable Dell
//! R620 and lets the `ext_dvfs` experiment reproduce both numbers from a
//! diurnal load curve.
//!
//! Model: `P(u) = P_static + P_dyn · (f/f_max)² · u` with the CPU clocked
//! at the lowest frequency that still serves the load (`f ∝ u`, floored at
//! `f_min`). Voltage tracks frequency (the V²f law); the static term —
//! fans, disks, DRAM refresh, VRs — does not scale, which is exactly the
//! paper's point.

use crate::specs::ServerSpec;

/// DVFS-capable power model derived from a spec's idle/busy endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsModel {
    /// Non-scaling platform power, W (the spec's idle draw).
    pub static_w: f64,
    /// CPU dynamic power at f_max and full utilisation, W.
    pub dyn_w: f64,
    /// Lowest frequency as a fraction of f_max (P-state floor).
    pub f_min: f64,
}

impl DvfsModel {
    /// Build from a spec, treating idle as static power and the
    /// idle→busy range as CPU dynamic power.
    pub fn from_spec(spec: &ServerSpec) -> Self {
        DvfsModel {
            static_w: spec.power.node_idle(),
            dyn_w: spec.power.node_busy() - spec.power.node_idle(),
            f_min: 0.4,
        }
    }

    /// The frequency (fraction of f_max) chosen for load `u`.
    pub fn frequency_for(&self, u: f64) -> f64 {
        u.clamp(self.f_min, 1.0)
    }

    /// Power at load `u` **with** DVFS.
    pub fn power_dvfs(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let f = self.frequency_for(u);
        // busy fraction rises as the clock drops; V²f ⇒ energy/op ∝ f²
        self.static_w + self.dyn_w * f * f * (u / f).min(1.0)
    }

    /// Power at load `u` **without** DVFS (always at f_max).
    pub fn power_fixed(&self, u: f64) -> f64 {
        self.static_w + self.dyn_w * u.clamp(0.0, 1.0)
    }
}

/// A diurnal utilisation curve between the Table 9 bounds: u(t) moves
/// sinusoidally between 10 % (4 am) and 75 % (4 pm).
pub fn diurnal_utilization(hour: f64) -> f64 {
    let lo = 0.10;
    let hi = 0.75;
    let mid = (lo + hi) / 2.0;
    let amp = (hi - lo) / 2.0;
    mid - amp * ((hour - 4.0) / 24.0 * std::f64::consts::TAU).cos()
}

/// Integrate a power function over one diurnal day, Wh.
pub fn daily_energy_wh(power_at: impl Fn(f64) -> f64) -> f64 {
    let steps = 24 * 60;
    let mut wh = 0.0;
    for i in 0..steps {
        let hour = i as f64 / 60.0;
        wh += power_at(diurnal_utilization(hour)) / 60.0;
    }
    wh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn dvfs_never_exceeds_fixed() {
        let m = DvfsModel::from_spec(&presets::dell_r620());
        for i in 0..=20 {
            let u = i as f64 / 20.0;
            assert!(m.power_dvfs(u) <= m.power_fixed(u) + 1e-9, "u={u}");
        }
    }

    #[test]
    fn endpoints_match_spec() {
        let m = DvfsModel::from_spec(&presets::dell_r620());
        assert!((m.power_fixed(0.0) - 52.0).abs() < 1e-9);
        assert!((m.power_fixed(1.0) - 109.0).abs() < 1e-9);
        assert!((m.power_dvfs(1.0) - 109.0).abs() < 1e-9);
    }

    #[test]
    fn diurnal_curve_spans_the_table9_bounds() {
        let lo = diurnal_utilization(4.0);
        let hi = diurnal_utilization(16.0);
        assert!((lo - 0.10).abs() < 1e-9);
        assert!((hi - 0.75).abs() < 1e-9);
        for h in 0..24 {
            let u = diurnal_utilization(h as f64);
            assert!((0.10 - 1e-9..=0.75 + 1e-9).contains(&u), "hour {h}: {u}");
        }
    }

    #[test]
    fn dvfs_saving_tops_out_near_30_percent() {
        // the §1 claim: complex DVFS/provisioning schemes rarely beat 30 %
        let m = DvfsModel::from_spec(&presets::dell_r620());
        let fixed = daily_energy_wh(|u| m.power_fixed(u));
        let dvfs = daily_energy_wh(|u| m.power_dvfs(u));
        let saving = 1.0 - dvfs / fixed;
        assert!((0.05..0.35).contains(&saving), "DVFS saving {saving:.2}");
    }

    #[test]
    fn edison_swap_saves_over_60_percent() {
        // the §1 claim: embedded substitution "can exceed 70%" in some
        // applications; on the diurnal curve with Table 2's 16:1 sizing it
        // must clear 60 % against the fixed-frequency Dell.
        let dell = DvfsModel::from_spec(&presets::dell_r620());
        let edison = presets::edison().power;
        let fixed = daily_energy_wh(|u| dell.power_fixed(u));
        let swap = daily_energy_wh(|u| 16.0 * edison.power_at(u));
        let saving = 1.0 - swap / fixed;
        assert!(saving > 0.60, "swap saving {saving:.2}");
    }
}
