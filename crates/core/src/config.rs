//! Deployment configuration shared by all placement algorithms.

use crate::invariants::InvariantChecker;
use decor_net::{FaultPlan, RotationConfig};
use decor_trace::TraceHandle;
use serde::{Deserialize, Serialize};

/// Radio-link reliability knobs: the lossy-medium model plus the reliable
/// transport that placement notices ride on (see `decor_net::transport`).
///
/// The default is a perfect medium (`loss_rate = 0`), under which the
/// distributed placers behave bit-identically to a world without packet
/// loss. With `loss_rate > 0` each transmission is independently dropped
/// with that probability and the transport's ack/retry machinery earns its
/// keep; `max_retries`/`backoff_base` bound how hard it tries.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Per-transmission loss probability in `[0, 1)`.
    pub loss_rate: f64,
    /// Seed of the deterministic loss stream.
    pub loss_seed: u64,
    /// Maximum retransmissions per reliably-sent message.
    pub max_retries: u32,
    /// Ticks before the first retransmission; doubles per retry.
    pub backoff_base: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        let t = decor_net::TransportConfig::default();
        LinkConfig {
            loss_rate: 0.0,
            loss_seed: 0,
            max_retries: t.max_retries,
            backoff_base: t.backoff_base,
        }
    }
}

impl LinkConfig {
    /// A lossy medium with the default transport knobs.
    pub fn lossy(loss_rate: f64, loss_seed: u64) -> Self {
        LinkConfig {
            loss_rate,
            loss_seed,
            ..LinkConfig::default()
        }
    }

    /// The transport-layer view of these knobs.
    pub fn transport(&self) -> decor_net::TransportConfig {
        decor_net::TransportConfig {
            max_retries: self.max_retries,
            backoff_base: self.backoff_base,
        }
    }

    /// True when the medium drops packets.
    pub fn is_lossy(&self) -> bool {
        self.loss_rate > 0.0
    }

    /// Applies the loss model to a network.
    pub fn apply(&self, net: &mut decor_net::Network) {
        if self.is_lossy() {
            net.set_loss(self.loss_rate, self.loss_seed);
        }
    }

    /// Checks the knobs' ranges; [`DeploymentConfig::check`] includes this.
    pub fn check(&self) -> Result<(), ConfigError> {
        if !(0.0..1.0).contains(&self.loss_rate) {
            let rule = format!("loss rate must be in [0, 1), got {}", self.loss_rate);
            return Err(ConfigError("loss_rate", rule));
        }
        if self.backoff_base == 0 {
            let rule = "backoff base must be positive".into();
            return Err(ConfigError("backoff_base", rule));
        }
        Ok(())
    }
}

/// A configuration value outside its valid range: the field, named as in
/// its struct (`rs`, `backoff_base`), and the rule the value breaks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(pub &'static str, pub String);

/// Parameters of a coverage-restoration run.
///
/// Defaults reproduce the paper's setup: sensing radius `rs = 4`,
/// communication radius `rc = 2·rs = 8`, coverage requirement `k = 3`
/// (the value Figs. 7 and 11 use), and a generous safety cap on the total
/// number of sensors so a mis-configured run terminates.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeploymentConfig {
    /// Sensing radius `rs`.
    pub rs: f64,
    /// Communication radius `rc` (the paper's standing assumption is
    /// `rs <= rc`; schemes that need a larger radius — grid inter-leader
    /// traffic — compute their own).
    pub rc: f64,
    /// Coverage requirement `k >= 1`: every point must be covered by at
    /// least `k` sensors.
    pub k: u32,
    /// Hard cap on sensors a placer may add (loop-safety for the random
    /// baseline and adversarial configurations).
    pub max_new_nodes: usize,
    /// Radio-link reliability: lossy-medium model and transport knobs.
    pub link: LinkConfig,
    /// Optional structured-event sink the simulator and placers emit into
    /// (see `decor_trace`). Disabled by default — emission is then a
    /// branch on `None` and nothing else. Never affects config equality.
    pub trace: TraceHandle,
    /// Optional scripted fault injection (see `decor_net::chaos`): the
    /// placers run a [`decor_net::ChaosEngine`] over this plan on their
    /// transport clock, so crashes, partitions, blackholes, latency
    /// spikes, and drains land mid-protocol. `None` (the default) leaves
    /// the run untouched; `(scenario, plan)` replays bit-identically.
    pub chaos: Option<FaultPlan>,
    /// Optional duty-cycled sleep rotation (see `decor_net::rotation` and
    /// [`crate::rotation`]): nodes agree on disjoint set-k-cover shifts
    /// in-network and rotate on the transport clock, draining batteries
    /// per the energy model. `None` (the default) keeps every node always
    /// on, exactly as before rotation existed.
    pub rotation: Option<RotationConfig>,
    /// Optional run-time invariant checking (see [`crate::invariants`]).
    /// Disabled by default — every hook is then a branch on `None` and
    /// nothing else. Never affects config equality.
    pub invariants: InvariantChecker,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            rs: 4.0,
            rc: 8.0,
            k: 3,
            max_new_nodes: 100_000,
            link: LinkConfig::default(),
            trace: TraceHandle::disabled(),
            chaos: None,
            rotation: None,
            invariants: InvariantChecker::disabled(),
        }
    }
}

impl DeploymentConfig {
    /// A config with the paper's radii and the given `k`.
    pub fn with_k(k: u32) -> Self {
        DeploymentConfig {
            k,
            ..DeploymentConfig::default()
        }
    }

    /// Checks every value's range but the rotation's, which
    /// `RotationConfig::validate` owns.
    pub fn check(&self) -> Result<(), ConfigError> {
        let (rs, rc) = (self.rs, self.rc);
        if !(rs > 0.0 && rs.is_finite()) {
            return Err(ConfigError("rs", "rs must be positive".into()));
        }
        if rc.is_nan() || rc < rs {
            let rule = format!("paper assumption rs <= rc violated (rs={rs}, rc={rc})");
            return Err(ConfigError("rc", rule));
        }
        if self.k < 1 {
            let rule = "coverage requirement k must be at least 1".into();
            return Err(ConfigError("k", rule));
        }
        if self.max_new_nodes == 0 {
            let rule = "max_new_nodes must be positive".into();
            return Err(ConfigError("max_new_nodes", rule));
        }
        self.link.check()
    }

    /// Validates invariants, panicking on [`DeploymentConfig::check`]'s
    /// error; placers call this on entry.
    pub fn validate(&self) {
        if let Err(ConfigError(_, rule)) = self.check() {
            panic!("{rule}");
        }
        if let Some(rot) = &self.rotation {
            rot.validate();
        }
    }
}

/// The six algorithm configurations evaluated in the paper's figures,
/// plus this reproduction's exact-geometry extension.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum SchemeKind {
    /// Grid-based DECOR, 5×5 cells ("small cell").
    GridSmall,
    /// Grid-based DECOR, 10×10 cells ("big cell").
    GridBig,
    /// Voronoi-based DECOR, `rc = 2·rs = 8` ("small rc").
    VoronoiSmall,
    /// Voronoi-based DECOR, `rc = 10·√2 ≈ 14.14` ("big rc").
    VoronoiBig,
    /// Centralized greedy baseline (global view).
    Centralized,
    /// Random placement baseline.
    Random,
    /// Exact hole detection + deepest-witness healing (not in the paper;
    /// see [`crate::hole_scheme`]). Excluded from [`SchemeKind::ALL`] so
    /// the paper figures keep their six-curve legends.
    Holes,
}

impl SchemeKind {
    /// All six, in the paper's legend order.
    pub const ALL: [SchemeKind; 6] = [
        SchemeKind::GridSmall,
        SchemeKind::GridBig,
        SchemeKind::VoronoiSmall,
        SchemeKind::VoronoiBig,
        SchemeKind::Centralized,
        SchemeKind::Random,
    ];

    /// The paper's legend label.
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::GridSmall => "Grid (small cell)",
            SchemeKind::GridBig => "Grid (big cell)",
            SchemeKind::VoronoiSmall => "Voronoi (small rc)",
            SchemeKind::VoronoiBig => "Voronoi (big rc)",
            SchemeKind::Centralized => "Centralized",
            SchemeKind::Random => "Random",
            SchemeKind::Holes => "Holes (exact)",
        }
    }

    /// The stable machine-readable name used by CLI flags and scenario
    /// spec files. Unlike [`SchemeKind::label`] (the paper's legend text)
    /// these names are part of the on-disk format and must never change.
    pub fn spec_name(&self) -> &'static str {
        match self {
            SchemeKind::GridSmall => "grid-small",
            SchemeKind::GridBig => "grid-big",
            SchemeKind::VoronoiSmall => "voronoi-small",
            SchemeKind::VoronoiBig => "voronoi-big",
            SchemeKind::Centralized => "centralized",
            SchemeKind::Random => "random",
            SchemeKind::Holes => "holes",
        }
    }

    /// Parses a [`SchemeKind::spec_name`]. The error names the valid set,
    /// so a malformed spec file fails with a diagnosis, not a panic.
    pub fn parse_spec_name(name: &str) -> Result<SchemeKind, String> {
        const ALL_NAMED: [SchemeKind; 7] = [
            SchemeKind::GridSmall,
            SchemeKind::GridBig,
            SchemeKind::VoronoiSmall,
            SchemeKind::VoronoiBig,
            SchemeKind::Centralized,
            SchemeKind::Random,
            SchemeKind::Holes,
        ];
        ALL_NAMED
            .into_iter()
            .find(|s| s.spec_name() == name)
            .ok_or_else(|| {
                let valid: Vec<&str> = ALL_NAMED.iter().map(|s| s.spec_name()).collect();
                format!("unknown scheme '{name}' ({})", valid.join(" | "))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = DeploymentConfig::default();
        assert_eq!(c.rs, 4.0);
        assert_eq!(c.rc, 8.0);
        assert_eq!(c.k, 3);
        c.validate();
    }

    #[test]
    fn with_k_overrides_only_k() {
        let c = DeploymentConfig::with_k(5);
        assert_eq!(c.k, 5);
        assert_eq!(c.rs, 4.0);
    }

    #[test]
    #[should_panic(expected = "rs <= rc")]
    fn validate_rejects_rc_below_rs() {
        DeploymentConfig {
            rs: 4.0,
            rc: 2.0,
            ..DeploymentConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn validate_rejects_zero_k() {
        DeploymentConfig {
            k: 0,
            ..DeploymentConfig::default()
        }
        .validate();
    }

    #[test]
    fn default_link_is_lossless() {
        let link = LinkConfig::default();
        assert!(!link.is_lossy());
        assert_eq!(link.check(), Ok(()));
        assert_eq!(link.transport(), decor_net::TransportConfig::default());
    }

    #[test]
    fn lossy_link_applies_to_networks() {
        let link = LinkConfig::lossy(0.3, 7);
        assert!(link.is_lossy());
        assert_eq!(link.check(), Ok(()));
        assert_eq!(link.max_retries, LinkConfig::default().max_retries);
    }

    #[test]
    #[should_panic(expected = "loss rate must be in [0, 1)")]
    fn validate_rejects_certain_loss() {
        DeploymentConfig {
            link: LinkConfig::lossy(1.0, 0),
            ..DeploymentConfig::default()
        }
        .validate();
    }

    #[test]
    fn trace_attachment_does_not_affect_equality() {
        let plain = DeploymentConfig::default();
        let traced = DeploymentConfig {
            trace: TraceHandle::jsonl_writer(),
            ..DeploymentConfig::default()
        };
        assert_eq!(plain, traced, "observability is not part of the config");
        assert!(!plain.trace.is_enabled());
        assert!(traced.trace.is_enabled());
    }

    #[test]
    fn checker_attachment_does_not_affect_equality() {
        let plain = DeploymentConfig::default();
        let checked = DeploymentConfig {
            invariants: InvariantChecker::enabled(),
            ..DeploymentConfig::default()
        };
        assert_eq!(plain, checked, "observability is not part of the config");
        assert!(!plain.invariants.is_enabled());
        assert!(checked.invariants.is_enabled());
    }

    #[test]
    fn chaos_plan_is_part_of_the_config() {
        let plain = DeploymentConfig::default();
        let chaotic = DeploymentConfig {
            chaos: Some(FaultPlan::generate(1, 8, 500)),
            ..DeploymentConfig::default()
        };
        assert_ne!(plain, chaotic, "the fault plan changes the deployment");
        chaotic.validate();
    }

    #[test]
    fn rotation_is_part_of_the_config_and_validated() {
        let plain = DeploymentConfig::default();
        let rotating = DeploymentConfig {
            rotation: Some(RotationConfig::default()),
            ..DeploymentConfig::default()
        };
        assert_ne!(plain, rotating, "duty cycling changes the deployment");
        rotating.validate();
    }

    #[test]
    #[should_panic(expected = "shift period must be positive")]
    fn validate_rejects_zero_shift_period() {
        DeploymentConfig {
            rotation: Some(RotationConfig {
                period: 0,
                ..RotationConfig::default()
            }),
            ..DeploymentConfig::default()
        }
        .validate();
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: std::collections::BTreeSet<&str> =
            SchemeKind::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 6);
        assert!(labels.insert(SchemeKind::Holes.label()));
        assert_eq!(labels.len(), 7);
    }

    #[test]
    fn all_keeps_the_paper_legend() {
        // The exact-geometry extension must not sneak into the paper's
        // six-curve figures.
        assert_eq!(SchemeKind::ALL.len(), 6);
        assert!(!SchemeKind::ALL.contains(&SchemeKind::Holes));
    }

    #[test]
    fn spec_names_roundtrip_and_reject_unknowns() {
        for s in SchemeKind::ALL.into_iter().chain([SchemeKind::Holes]) {
            assert_eq!(SchemeKind::parse_spec_name(s.spec_name()), Ok(s));
        }
        let err = SchemeKind::parse_spec_name("quantum").unwrap_err();
        assert!(err.contains("unknown scheme 'quantum'"), "{err}");
        assert!(err.contains("grid-small"), "error must name the valid set");
        assert!(
            SchemeKind::parse_spec_name("Centralized").is_err(),
            "labels are not spec names"
        );
    }
}
