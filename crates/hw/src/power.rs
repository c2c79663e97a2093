//! Node power model.
//!
//! The paper measures only the idle/busy endpoints of each platform
//! (Table 3) and reports cluster power bands that sit between the two
//! (Figures 4, 6, 12–17). We therefore model node power as linear in CPU
//! utilisation between the endpoints, plus a constant adaptor draw for the
//! Edison's USB Ethernet dongle — which the paper highlights as drawing
//! *more than the Edison module itself* (~1 W of the 1.40 W idle draw).

/// Linear-in-utilisation power model with a constant peripheral term.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Device power at 0 % utilisation, watts (excluding peripherals).
    pub idle_w: f64,
    /// Device power at 100 % utilisation, watts (excluding peripherals).
    pub busy_w: f64,
    /// Constant peripheral draw (USB Ethernet adaptor), watts.
    pub adapter_w: f64,
}

impl PowerModel {
    /// Instantaneous node power at CPU utilisation `u ∈ [0, 1]`.
    #[inline]
    pub fn power_at(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        self.adapter_w + self.idle_w + (self.busy_w - self.idle_w) * u
    }

    /// Node idle power including peripherals (Table 3 rows).
    pub fn node_idle(&self) -> f64 {
        self.power_at(0.0)
    }

    /// Node busy power including peripherals (Table 3 rows).
    pub fn node_busy(&self) -> f64 {
        self.power_at(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn edison_matches_table3() {
        let p = presets::edison().power;
        assert!((p.node_idle() - 1.40).abs() < 1e-9);
        assert!((p.node_busy() - 1.68).abs() < 1e-9);
    }

    #[test]
    fn edison_bare_matches_table3() {
        let p = presets::edison_bare().power;
        assert!((p.node_idle() - 0.36).abs() < 1e-9);
        assert!((p.node_busy() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn dell_matches_table3() {
        let p = presets::dell_r620().power;
        assert!((p.node_idle() - 52.0).abs() < 1e-9);
        assert!((p.node_busy() - 109.0).abs() < 1e-9);
    }

    #[test]
    fn cluster_power_bands_match_table3() {
        let e = presets::edison().power;
        let d = presets::dell_r620().power;
        assert!((35.0 * e.node_idle() - 49.0).abs() < 0.01);
        assert!((35.0 * e.node_busy() - 58.8).abs() < 0.01);
        assert!((3.0 * d.node_idle() - 156.0).abs() < 0.01);
        assert!((3.0 * d.node_busy() - 327.0).abs() < 0.01);
    }

    #[test]
    fn interpolation_is_linear_and_clamped() {
        let p = PowerModel { idle_w: 10.0, busy_w: 20.0, adapter_w: 0.0 };
        assert_eq!(p.power_at(0.5), 15.0);
        assert_eq!(p.power_at(-1.0), 10.0);
        assert_eq!(p.power_at(2.0), 20.0);
    }

    #[test]
    fn proportionality_metrics() {
        // §1's "narrow power spectrum": Dell idles at 48 % of peak, and
        // Edison's idle-to-busy dynamic range is far smaller in absolute
        // watts.
        let d = presets::dell_r620().power;
        assert!((d.node_idle() / d.node_busy() - 52.0 / 109.0).abs() < 1e-9);
        let e = presets::edison().power;
        assert!(e.node_busy() - e.node_idle() < d.node_busy() - d.node_idle());
    }
}
