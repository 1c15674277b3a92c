//! `DECOR_THREADS` sizes `MatrixRunner::auto()` without changing a result.
//! The test sets the process environment, so it lives in a test binary of
//! its own: no other test reads the variable while it changes.

use decor_core::parallel::replica_seed;
use decor_exp::MatrixRunner;

#[test]
fn decor_threads_env_pins_workers_without_changing_results() {
    let reference: Vec<_> = (0..20).map(|i| (i, replica_seed(5, i))).collect();
    for setting in ["1", "2", "7", "64"] {
        std::env::set_var("DECOR_THREADS", setting);
        let runner = MatrixRunner::auto();
        assert_eq!(
            runner.threads(),
            setting.parse::<usize>().unwrap(),
            "override must be honored"
        );
        let got = runner.replicas(20, 5, |i, seed| (i, seed));
        assert_eq!(got, reference, "DECOR_THREADS={setting}");
    }
    std::env::remove_var("DECOR_THREADS");
    assert_eq!(
        MatrixRunner::auto().replicas(20, 5, |i, seed| (i, seed)),
        reference
    );
}
