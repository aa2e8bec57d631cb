//! Property tests for the retry/backoff machinery: the attempt budget
//! is never exceeded, backoff sleeps stay within the policy's bound,
//! and a fault that clears inside the budget always yields a Ready
//! unit.

use godiva::core::{Gbo, GboConfig, GodivaError, RetryPolicy};
use godiva::platform::{FaultyFs, MemFs, Storage};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A database with inline reads (deterministic, single-threaded) and
/// the given retry policy. Backoffs are microseconds so 256 cases of
/// worst-case sleeping stay fast.
fn db_with(policy: RetryPolicy) -> Gbo {
    Gbo::with_config(GboConfig {
        mem_limit: 1 << 20,
        io_threads: 0,
        retry: policy,
        ..Default::default()
    })
}

fn transient_err() -> GodivaError {
    GodivaError::Io {
        kind: std::io::ErrorKind::TimedOut,
        message: "flaky storage".into(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A read function that fails `failures` times before succeeding is
    /// invoked exactly `min(failures + 1, budget)` times, and the unit
    /// ends Ready iff the fault cleared within the budget.
    #[test]
    fn attempts_bounded_and_ready_iff_fault_clears_in_budget(
        max_attempts in 1u32..6,
        failures in 0u32..8,
    ) {
        let policy = RetryPolicy::new(
            max_attempts,
            Duration::from_micros(5),
            Duration::from_micros(20),
        );
        let db = db_with(policy.clone());
        let calls = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&calls);
        db.add_unit("u", move |_s: &godiva::core::UnitSession| {
            if c.fetch_add(1, Ordering::SeqCst) < failures {
                Err(transient_err())
            } else {
                Ok(())
            }
        }).unwrap();
        let result = db.wait_unit("u");
        let budget = policy.attempts();
        let expected_calls = (failures + 1).min(budget);
        prop_assert_eq!(calls.load(Ordering::SeqCst), expected_calls);
        prop_assert_eq!(result.is_ok(), failures < budget);
        let stats = db.stats();
        prop_assert_eq!(stats.units_retried, u64::from(expected_calls - 1));
        prop_assert!(stats.retry_backoff_total <= policy.max_total_backoff());
    }

    /// Permanent errors are never retried, whatever the budget says.
    #[test]
    fn permanent_errors_short_circuit_the_budget(max_attempts in 1u32..6) {
        let db = db_with(RetryPolicy::new(
            max_attempts,
            Duration::from_micros(1),
            Duration::from_micros(4),
        ));
        let calls = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&calls);
        db.add_unit("u", move |_s: &godiva::core::UnitSession| {
            c.fetch_add(1, Ordering::SeqCst);
            Err(GodivaError::Io {
                kind: std::io::ErrorKind::NotFound,
                message: "gone for good".into(),
            })
        }).unwrap();
        prop_assert!(db.wait_unit("u").is_err());
        prop_assert_eq!(calls.load(Ordering::SeqCst), 1);
        prop_assert_eq!(db.stats().units_retried, 0);
    }

    /// Per-sleep and total backoff never exceed the policy's caps, and
    /// the sequence is monotonically non-decreasing (exponential until
    /// the cap).
    #[test]
    fn backoff_schedule_is_capped_and_monotone(
        max_attempts in 1u32..50,
        base_us in 0u64..1_000,
        max_us in 0u64..1_000,
    ) {
        let policy = RetryPolicy::new(
            max_attempts,
            Duration::from_micros(base_us),
            Duration::from_micros(max_us),
        );
        let mut total = Duration::ZERO;
        let mut prev = Duration::ZERO;
        for attempt in 1..policy.attempts() {
            let b = policy.backoff_for(attempt);
            prop_assert!(b <= policy.max_backoff);
            prop_assert!(b >= prev);
            prev = b;
            total += b;
        }
        prop_assert_eq!(total, policy.max_total_backoff());
    }

    /// End to end through real (faulty) storage: if the injected fault
    /// clears within the attempt budget, the unit always becomes Ready
    /// and the observed retry count matches the injected fault count.
    #[test]
    fn storage_fault_clearing_within_budget_yields_ready(
        injected in 0u64..4,
        extra_budget in 0u32..3,
    ) {
        let mem = Arc::new(MemFs::new());
        mem.write("blob", b"payload").unwrap();
        let fs = Arc::new(FaultyFs::new(mem));
        fs.fail_first_k_reads_of("blob", injected);
        let db = db_with(RetryPolicy::new(
            injected as u32 + 1 + extra_budget,
            Duration::from_micros(5),
            Duration::from_micros(20),
        ));
        let storage = fs.clone() as Arc<dyn Storage>;
        db.add_unit("u", move |_s: &godiva::core::UnitSession| {
            storage.read("blob").map_err(GodivaError::from)?;
            Ok(())
        }).unwrap();
        db.wait_unit("u").unwrap();
        prop_assert_eq!(db.stats().units_retried, injected);
        prop_assert_eq!(fs.injected(), injected);
    }
}
