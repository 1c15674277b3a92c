//! Run-time invariant checking for chaos runs.
//!
//! A chaos test is only as strong as the properties it asserts, so the
//! checker makes the protocol's safety conditions explicit and machine-
//! checked on every run:
//!
//! 1. **Dead silence** — a crashed node never places a sensor and never
//!    wins an election after its crash.
//! 2. **Pessimistic estimates** — an agent's locally-measured coverage of
//!    a point never exceeds the ground-truth coverage (local knowledge may
//!    only *hide* sensors, never invent them).
//! 3. **Ledger consistency** — the [`crate::NeighborKnowledge`] ledger
//!    agrees with the transport's terminal `DeliveryOutcome`s: a delivered
//!    notice reveals the sensor, an exhausted retry budget hides it.
//! 4. **Eventual restoration** — once every scripted fault has fired and
//!    no resource cap intervened, the placer reaches full `k`-coverage.
//! 5. **Caches are transparent** — a cached answer equals a fresh
//!    recomputation: every Voronoi ownership-cache entry, each round,
//!    every per-cell best the grid's sharded engine serves, and every
//!    global best the centralized engine serves (against an argmax of
//!    Equation 1 over every point, not just the candidates). The
//!    fresh side is the full recomputation the caches exist to avoid,
//!    so the placers run this check only in debug builds
//!    (`cfg!(debug_assertions)`); release runs with the checker on, such
//!    as the benchmark's traced replays, keep their cost profile.
//! 6. **The endurance mirror matches the map** — every period of
//!    [`crate::run_endurance`], each mirror node is alive exactly when
//!    its map sensor is active. Debug builds also recount the on-duty
//!    verdict of the per-node point lists from `Node::covers`. Both
//!    report through `check_cache`: the mirror and lists cache the map.
//! 7. **Failures hit what the plan names** — in
//!    [`crate::restore::fail_and_restore`] and
//!    [`crate::restore::coverage_after_failure`], each victim's mirror id
//!    (its rank among the active sensors, the id trace events carry)
//!    maps back to its sensor id both ways, and after an area failure no
//!    active sensor is left inside the disc. Both are cheap, so they run
//!    in every build.
//!
//! The checker rides [`crate::DeploymentConfig`] exactly like the trace
//! handle: the default is *disabled* and every hook reduces to a branch on
//! a niche-optimized `Option` — zero cost for runs that never enable it.
//! The placers feed it through direct hooks: [`InvariantChecker::note_crash`]
//! records each chaos crash, and the `check_*` hooks test one condition
//! each (the grid's `SensorPlaced.agent` is a cell index, not a node id,
//! so liveness of the placing *node* needs its own hook).
//!
//! Violations are collected, not panicked on, so a fuzz harness can shrink
//! the offending fault plan before reporting; [`InvariantChecker::
//! assert_green`] panics with the full list for direct use in tests.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

#[derive(Default)]
struct CheckerState {
    /// Nodes crashed by the fault plan, in the run's accounting-network
    /// id space. Deliberately *not* fed by `NodeFailed` events: restoration
    /// scenarios emit those from mirror networks with their own id spaces.
    dead: BTreeSet<u64>,
    violations: Vec<String>,
}

/// A cloneable invariant checker; see the module docs for the catalog.
///
/// Clones share one state, so the placer, the network, and the test
/// harness all append to a single violation list. Like
/// [`decor_trace::TraceHandle`], attachment never affects configuration
/// equality: `PartialEq` always returns `true`.
#[derive(Clone, Default)]
pub struct InvariantChecker {
    inner: Option<Arc<Mutex<CheckerState>>>,
}

impl InvariantChecker {
    /// The disabled checker (same as `Default`): every hook is a no-op.
    pub fn disabled() -> Self {
        InvariantChecker { inner: None }
    }

    /// An enabled checker with an empty violation list.
    pub fn enabled() -> Self {
        InvariantChecker {
            inner: Some(Arc::new(Mutex::new(CheckerState::default()))),
        }
    }

    /// True when violations are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut CheckerState) -> R) -> Option<R> {
        self.inner.as_ref().map(|inner| {
            let mut state = inner.lock().unwrap_or_else(|e| e.into_inner());
            f(&mut state)
        })
    }

    /// Records a chaos crash: `node` (accounting-network id) is dead from
    /// now on. Idempotent.
    pub fn note_crash(&self, node: u64) {
        self.with(|s| {
            s.dead.insert(node);
        });
    }

    /// Invariant 1, election form: the winner of an election must be
    /// alive on the accounting network (`alive` is the network's verdict
    /// at election time).
    pub fn check_election(&self, cell: u64, round: u64, leader: u64, alive: bool) {
        self.with(|s| {
            if !alive || s.dead.contains(&leader) {
                s.violations.push(format!(
                    "dead node {leader} won the election of cell {cell} round {round}"
                ));
            }
        });
    }

    /// Invariant 1, placement form: the node applying a placement decision
    /// must be alive when the placement lands. `agent` is its accounting-
    /// network id; `what` names the scheme for the report.
    pub fn check_placer_alive(&self, what: &str, agent: u64, alive: bool) {
        self.with(|s| {
            if !alive || s.dead.contains(&agent) {
                s.violations
                    .push(format!("{what}: dead node {agent} placed a sensor"));
            }
        });
    }

    /// Invariant 2: an agent's measured coverage of approximation point
    /// `pid` must never exceed the ground truth.
    pub fn check_estimate(&self, pid: usize, measured: u32, truth: u32) {
        self.with(|s| {
            if measured > truth {
                s.violations.push(format!(
                    "point {pid}: measured coverage {measured} exceeds ground truth {truth}"
                ));
            }
        });
    }

    /// Invariant 3: after settling a placement notice, the knowledge
    /// ledger must agree with the terminal outcome — `arrived` notices
    /// reveal `sensor` to `viewer`, exhausted ones hide it. `knows` is the
    /// ledger's answer after settlement.
    pub fn check_ledger(&self, viewer: u64, sensor: u64, arrived: bool, knows: bool) {
        self.with(|s| {
            if arrived && !knows {
                s.violations.push(format!(
                    "ledger hides sensor {sensor} from viewer {viewer} despite delivery"
                ));
            }
            if !arrived && knows {
                s.violations.push(format!(
                    "ledger reveals sensor {sensor} to viewer {viewer} despite give-up"
                ));
            }
        });
    }

    /// Invariant 4, checked at run end: once every fault has fired
    /// (`faults_pending == false`) and no cap cut the run short
    /// (`hit_cap == false`), the placer must have restored full coverage.
    pub fn check_converged(&self, fully_covered: bool, faults_pending: bool, hit_cap: bool) {
        self.with(|s| {
            if !fully_covered && !faults_pending && !hit_cap {
                s.violations.push(
                    "restoration did not reach full k-coverage after faults ceased".to_string(),
                );
            }
        });
    }

    /// Invariant 5: the `cached` answer a placer's `cache` holds for
    /// `key` must equal the `fresh` recomputation.
    pub fn check_cache<T: PartialEq + std::fmt::Debug + ?Sized>(
        &self,
        cache: &str,
        key: usize,
        cached: &T,
        fresh: &T,
    ) {
        self.with(|s| {
            if cached != fresh {
                s.violations.push(format!(
                    "{cache} {key}: cached {cached:?} but a fresh recomputation gives {fresh:?}"
                ));
            }
        });
    }

    /// Invariant 7, id form: the victim with sensor id `sensor` was
    /// emitted as mirror node `node`. `rank` is the rank that sensor maps
    /// to and `back` the sensor that rank `node` maps back to; both must
    /// agree with the pair.
    pub fn check_mirror_id(&self, node: u64, sensor: u64, rank: u64, back: u64) {
        self.with(|s| {
            if rank != node || back != sensor {
                s.violations.push(format!(
                    "victim sensor {sensor} emitted as mirror node {node}, but its rank is \
                     {rank} and node {node} maps back to sensor {back}"
                ));
            }
        });
    }

    /// Invariant 7, area form: `survivors` active sensors are left inside
    /// the disc of an area failure that just fired; there must be none.
    pub fn check_disc_cleared(&self, survivors: usize) {
        self.with(|s| {
            if survivors > 0 {
                s.violations.push(format!(
                    "{survivors} active sensors survived inside the disaster disc"
                ));
            }
        });
    }

    /// Nodes recorded dead so far (accounting-network ids).
    pub fn dead(&self) -> Vec<u64> {
        self.with(|s| s.dead.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The collected violations (empty when disabled or green).
    pub fn violations(&self) -> Vec<String> {
        self.with(|s| s.violations.clone()).unwrap_or_default()
    }

    /// True when no invariant has been violated (vacuously when disabled).
    pub fn is_green(&self) -> bool {
        self.with(|s| s.violations.is_empty()).unwrap_or(true)
    }

    /// Panics with the full violation list unless the run is green.
    pub fn assert_green(&self) {
        let v = self.violations();
        assert!(v.is_empty(), "invariant violations:\n  {}", v.join("\n  "));
    }
}

impl std::fmt::Debug for InvariantChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.with(|s| (s.dead.len(), s.violations.len())) {
            None => write!(f, "InvariantChecker(disabled)"),
            Some((dead, violations)) => write!(
                f,
                "InvariantChecker(enabled, {dead} dead, {violations} violations)"
            ),
        }
    }
}

/// Checker attachment never affects configuration identity — all checkers
/// compare equal, mirroring [`decor_trace::TraceHandle`].
impl PartialEq for InvariantChecker {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl serde::Serialize for InvariantChecker {}
impl<'de> serde::Deserialize<'de> for InvariantChecker {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_checker_is_inert_and_green() {
        let c = InvariantChecker::disabled();
        assert!(!c.is_enabled());
        c.note_crash(3);
        c.check_election(0, 0, 3, false);
        c.check_estimate(5, 9, 1);
        c.check_ledger(1, 2, true, false);
        c.check_converged(false, false, false);
        c.check_cache("voronoi ownership of point", 4, &[1usize, 2][..], &[1][..]);
        c.check_mirror_id(1, 2, 3, 4);
        c.check_disc_cleared(5);
        assert!(c.is_green());
        assert!(c.violations().is_empty());
        assert!(c.dead().is_empty());
        c.assert_green();
    }

    #[test]
    fn stale_cache_entries_are_violations() {
        let c = InvariantChecker::enabled();
        c.check_cache(
            "grid engine best of cell",
            3,
            &Some((7usize, 2u64)),
            &Some((7, 2)),
        );
        assert!(c.is_green());
        c.check_cache("grid engine best of cell", 3, &Some((7usize, 2u64)), &None);
        assert_eq!(
            c.violations(),
            vec![
                "grid engine best of cell 3: cached Some((7, 2)) but a fresh recomputation \
                 gives None"
            ]
        );
    }

    #[test]
    fn dead_nodes_must_not_win_elections() {
        let c = InvariantChecker::enabled();
        c.note_crash(7);
        assert_eq!(c.dead(), vec![7]);
        c.check_election(2, 4, 7, true);
        assert!(!c.is_green());
        assert!(c.violations()[0].contains("dead node 7"));
        // A live winner is fine.
        let c2 = InvariantChecker::enabled();
        c2.note_crash(7);
        c2.check_election(2, 4, 8, true);
        assert!(c2.is_green());
    }

    #[test]
    fn election_hook_cross_checks_the_network_verdict() {
        let c = InvariantChecker::enabled();
        c.check_election(1, 0, 5, true);
        assert!(c.is_green());
        c.check_election(1, 1, 5, false);
        assert!(!c.is_green());
    }

    #[test]
    fn dead_placers_are_violations() {
        let c = InvariantChecker::enabled();
        c.check_placer_alive("grid", 4, true);
        assert!(c.is_green());
        c.note_crash(4);
        c.check_placer_alive("grid", 4, true);
        assert_eq!(c.violations().len(), 1, "dead set overrides the flag");
    }

    #[test]
    fn estimates_must_stay_pessimistic() {
        let c = InvariantChecker::enabled();
        c.check_estimate(0, 2, 3);
        c.check_estimate(1, 3, 3);
        assert!(c.is_green());
        c.check_estimate(2, 4, 3);
        assert!(c.violations()[0].contains("point 2"));
    }

    #[test]
    fn ledger_must_match_outcomes() {
        let c = InvariantChecker::enabled();
        c.check_ledger(1, 9, true, true);
        c.check_ledger(1, 9, false, false);
        assert!(c.is_green());
        c.check_ledger(2, 9, true, false);
        c.check_ledger(3, 9, false, true);
        assert_eq!(c.violations().len(), 2);
    }

    #[test]
    fn convergence_is_required_only_after_faults_cease() {
        let c = InvariantChecker::enabled();
        c.check_converged(false, true, false); // faults still pending: fine
        c.check_converged(false, false, true); // cap hit: fine
        c.check_converged(true, false, false); // converged: fine
        assert!(c.is_green());
        c.check_converged(false, false, false);
        assert!(!c.is_green());
    }

    #[test]
    fn failures_must_hit_what_the_plan_names() {
        let c = InvariantChecker::enabled();
        c.check_mirror_id(3, 5, 3, 5);
        c.check_disc_cleared(0);
        assert!(c.is_green());
        c.check_mirror_id(3, 5, 4, 5);
        c.check_mirror_id(3, 5, 3, 6);
        c.check_disc_cleared(2);
        let v = c.violations();
        assert_eq!(v.len(), 3);
        assert!(v[0].contains("its rank is 4"));
        assert!(v[1].contains("maps back to sensor 6"));
        assert!(v[2].contains("2 active sensors survived"));
    }

    #[test]
    fn clones_share_one_violation_list() {
        let c = InvariantChecker::enabled();
        let c2 = c.clone();
        c.check_estimate(0, 5, 1);
        assert_eq!(c2.violations().len(), 1);
    }

    #[test]
    #[should_panic(expected = "invariant violations")]
    fn assert_green_panics_on_violation() {
        let c = InvariantChecker::enabled();
        c.check_converged(false, false, false);
        c.assert_green();
    }

    #[test]
    fn checkers_always_compare_equal_and_debug_shows_state() {
        assert_eq!(InvariantChecker::disabled(), InvariantChecker::enabled());
        assert_eq!(
            format!("{:?}", InvariantChecker::disabled()),
            "InvariantChecker(disabled)"
        );
        let c = InvariantChecker::enabled();
        c.note_crash(1);
        assert_eq!(
            format!("{c:?}"),
            "InvariantChecker(enabled, 1 dead, 0 violations)"
        );
    }
}
